"""Outage-constrained minimization of the expected two-round power.

The objective is p1 plus the exponentially weighted integral of the
round-two rule over the round-one failure region.  Two first-class routes:

* a numeric route against the quadrature objective with any quantile
  method (the root of its slope on a provable bracket), and
* the closed form: with the asymptotic quantile the objective integrates
  exactly, its stationary point lands on the lower Lambert branch, and the
  minimum average power follows by substitution.  For INR the closed form
  uses the Jensen-simplified threshold.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    G_MAX,
    QUANTILE_KNOTS,
    GainQuantile,
    QuantileMethod,
    _check_sigma,
)
from .harq import HarqConfig, P2Rule, PaharqError, Protocol
from .special import brentq, lambert_w

# 7-point Gauss / 15-point Kronrod rule on [-1, 1] (the QUADPACK qk15
# constants); the Gauss nodes are the odd-indexed Kronrod nodes.
_XK_HALF = np.array([0.991455371120812639206854697526329,
                     0.949107912342758524526189684047851,
                     0.864864423359769072789712788640926,
                     0.741531185599394439863864773280788,
                     0.586087235467691130294144845693013,
                     0.405845151377397166906606412076961,
                     0.207784955007898467600689403773245,
                     0.0])
_WK_HALF = np.array([0.022935322010529224963732008058970,
                     0.063092092629978553290700663189204,
                     0.104790010322250183839876322541518,
                     0.140653259715525918745189590510238,
                     0.169004726639267902826583426598550,
                     0.190350578064785409913256402421014,
                     0.204432940075298892414161999234649,
                     0.209482141084727828012999174891714])
_WG_HALF = np.array([0.129484966168869693270611432679082,
                     0.279705391489276667901467771423780,
                     0.381830050505118944950369775488975,
                     0.417959183673469387755102040816327])
_XK = np.concatenate((-_XK_HALF, _XK_HALF[-2::-1]))
_WK = np.concatenate((_WK_HALF, _WK_HALF[-2::-1]))
_WG = np.concatenate((_WG_HALF, _WG_HALF[-2::-1]))

# Panel edges of the average-power integral: 0, halvings of the first
# table knot down to 2^-14 of it, then the table's knots.  The halvings
# resolve the INR numerator's drop at g1 ~ 1/p1 for powers up to ~1e12.
_EDGES = np.concatenate(([0.0], QUANTILE_KNOTS[0] * 2.0 ** np.arange(-14, 0),
                         QUANTILE_KNOTS))

# brentq's tolerance on log p1: 1e-3 dB
_TOL_LOG_P1 = 1e-3 * (math.log(10.0) / 10.0)
_P1_FLOOR = 1e-3
# rounds of the adaptive rule: 3^-40 of a range is below a double's
# resolution
_MAX_SPLITS = 40


class ClosedFormDomainError(PaharqError, ValueError):
    """The closed-form optimum is undefined for this (sigma, eps).

    Happens when m^2/c = |log(1-eps)|/sigma^2 >= 1, pushing the Lambert
    argument out of the lower branch's domain; callers should fall back to
    the numeric route.
    """


class BracketError(PaharqError, RuntimeError):
    """The p1 search found no minimum of the average power."""


class QuadratureError(PaharqError, RuntimeError):
    """An adaptive integral did not converge in _MAX_SPLITS rounds."""


@dataclass(frozen=True)
class PowerSolution:
    """An optimized round-one power and the average power it achieves."""

    p1: float
    avg_power: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def p1_db(self) -> float:
        return 10.0 * math.log10(self.p1)

    @property
    def avg_power_db(self) -> float:
        return 10.0 * math.log10(self.avg_power)


def m_coefficient(sigma: float) -> float:
    return 1.0 / (sigma * sigma)


def c_coefficient(eps: float, sigma: float) -> float:
    return -1.0 / (sigma * sigma * math.log1p(-eps))


def avg_power_given_p1(p1: float, cfg: HarqConfig, sigma: float,
                       method: QuantileMethod = QuantileMethod.EXACT,
                       quantile: GainQuantile | None = None) -> float:
    """Expected total power p1 + E[P2(g1); round one fails]: p1 plus
    _integral's value, held to 1e-6 max(|value|, p1).  For INR with the
    ASYMPTOTIC method the integrand keeps the Jensen numerator floored at
    zero (the convention whose integral the closed form reproduces; the
    simulator-side fallback is a separate choice).
    """
    if not p1 > 0:
        raise ValueError(f"p1 must be > 0, got {p1}")
    if p1 == math.inf:      # empty integral, but its node g1 = 0 gives 0 * inf
        _check_sigma(sigma)
        return p1
    rule = P2Rule(cfg, sigma, method, jensen_fallback=False, quantile=quantile)
    return p1 + _integral(rule, rule, p1, p1)


def _gauss_kronrod(lo, hi, integrand):
    """The 7/15-point Gauss-Kronrod rule for the integral of
    e^-x integrand(x) on each panel [lo[i], hi[i]]: the Kronrod values and
    the |Kronrod - Gauss| error estimates, one per panel.  integrand takes
    the (panels, 15) array of nodes; where it returns a stack of such
    arrays, each gives its own row of values and estimates."""
    half = 0.5 * (hi - lo)[:, None]
    x = 0.5 * (hi + lo)[:, None] + half * _XK
    f = half * np.exp(-x) * integrand(x)
    kronrod = f @ _WK
    return kronrod, np.abs(kronrod - f[..., 1::2] @ _WG)


def _adaptive_gauss_kronrod(edges, integrands, tolerance):
    """The integrals of e^-x integrands(x) over [edges[0], edges[-1]], one
    per row of integrands' stack, by QUADPACK's QAG strategy with thirds
    for halves: each round applies _gauss_kronrod to every open panel (at
    first those between edges) and stops once each row's summed estimate
    is within its bound in tolerance(integrals), or once no panel's
    estimate exceeds its width's share of a bound; otherwise it closes the
    panels within their shares and splits the others into thirds.  None
    after _MAX_SPLITS rounds."""
    lo, hi = edges[:-1], edges[1:]
    width = edges[-1] - edges[0]
    done = done_err = 0.0       # the closed panels' integrals and estimates
    for _ in range(_MAX_SPLITS):
        kronrod, err = _gauss_kronrod(lo, hi, integrands)
        total = done + kronrod.sum(axis=1)
        tol = np.array(tolerance(total.tolist()))
        # `>`, so that a NaN estimate returns at once
        if not (done_err + err.sum(axis=1) > tol).any():
            return total
        split = (err > tol[:, None] * ((hi - lo) / width)).any(axis=0)
        if not split.any():
            return total
        done = done + kronrod[:, ~split].sum(axis=1)
        done_err = done_err + err[:, ~split].sum(axis=1)
        lo, hi = lo[split], hi[split]
        third = (hi - lo) / 3.0
        lo, hi = (np.concatenate((lo, lo + third, hi - third)),
                  np.concatenate((lo + third, hi - third, hi)))
    return None


def _integral(rule: P2Rule, integrand, p1: float, base: float) -> float:
    """The integral of e^-g1 integrand(g1, p1), with integrand `rule` or
    `rule.slope`, over [0, min(theta/p1, G_MAX)].

    _adaptive_gauss_kronrod from fixed panels (_EDGES: 0, halvings of the
    first table knot, then the exact quantile table's knots), clipped at
    the upper limit, so no panel straddles a knot of the piecewise-cubic
    table; where the rule's numerator is INR's Jensen one, one more edge
    sits at its kink theta1/p1.  Without a kink that edge adds a zero-width
    panel at the upper limit, kept because the panel count sets the order
    of the sums.  The bound on the summed |Kronrod - Gauss| estimates is
    1e-6 max(|value|, base); QuadratureError if the integrator gives up.
    """
    cfg = rule.cfg
    g_hi = min(cfg.theta / p1, G_MAX)
    split = min(cfg.theta1 / p1, g_hi) if rule.jensen else g_hi
    edges = _EDGES[:int(np.searchsorted(_EDGES, g_hi)) + 1]
    edges = np.sort(np.append(np.minimum(edges, g_hi), split))
    val = _adaptive_gauss_kronrod(
        edges, lambda x: integrand(x, p1)[None],
        lambda total: [1e-6 * max(abs(total[0]), base)])
    if val is None:
        raise QuadratureError(
            f"integral not converged after {_MAX_SPLITS} rounds (p1={p1:.6g}, "
            f"sigma={rule.sigma}, method={rule.method.value})")
    return float(val[0])


def closed_form_avg_power(p1: float, cfg: HarqConfig, sigma: float) -> float:
    """Exact integral of the asymptotic-rule objective.

    p1 + c/m^2 (p1 e^{-m th / p1} - p1 + m th) with th = theta for RTD and
    theta1 for INR.
    """
    if not p1 > 0:
        raise ValueError(f"p1 must be > 0, got {p1}")
    _check_sigma(sigma)
    if p1 == math.inf:      # the second term would be inf * 0
        return p1
    m = m_coefficient(sigma)
    c = c_coefficient(cfg.eps, sigma)
    th = cfg.theta if cfg.protocol is Protocol.RTD else cfg.theta1
    x = m * th / p1
    # p1 e^{-x} - p1 + m theta rearranged through expm1 to avoid cancellation
    return p1 + c / (m * m) * p1 * (math.expm1(-x) + x)


def optimal_p1_closed_form(cfg: HarqConfig, sigma: float) -> PowerSolution:
    """Closed-form optimal round-one power via the lower Lambert branch.

    p1* = -m th / (W_{-1}(m^2/(c e) - 1/e) + 1).  Requires m^2/c < 1 so the
    Lambert argument stays in [-1/e, 0); otherwise ClosedFormDomainError.
    The stationarity residual e^{-m th/p1}(m th/p1 + 1) - (1 - m^2/c) is
    recorded in the diagnostics.
    """
    _check_sigma(sigma)
    m = m_coefficient(sigma)
    c = c_coefficient(cfg.eps, sigma)
    ratio = m * m / c
    if ratio >= 1.0:
        raise ClosedFormDomainError(
            f"closed form undefined: |log(1-eps)|/sigma^2 = {ratio:.6g} >= 1 "
            f"(eps={cfg.eps}, sigma={sigma})")
    th = cfg.theta if cfg.protocol is Protocol.RTD else cfg.theta1
    arg = (ratio - 1.0) / math.e
    w = lambert_w(arg, branch=-1)
    p1 = -m * th / (w + 1.0)
    x = m * th / p1
    residual = math.exp(-x) * (x + 1.0) - (1.0 - ratio)
    return PowerSolution(
        p1=p1,
        avg_power=closed_form_avg_power(p1, cfg, sigma),
        diagnostics={"stationarity_residual": residual},
    )


def optimal_p1_numeric(cfg: HarqConfig, sigma: float,
                       method: QuantileMethod = QuantileMethod.EXACT,
                       quantile: GainQuantile | None = None) -> PowerSolution:
    """Minimize the quadrature objective: Brent's root of its slope in
    log p1.

    avg is convex in p1: the g2|g1 quantile does not depend on p1, and each
    round-two numerator is convex in p1 (RTD's (theta - g1 p1)+, INR's
    ((theta - g1 p1)/(1 + g1 p1))+, the Jensen (theta1 - g1 p1)+).  P2
    vanishes at theta/p1, so the slope is 1 + the integral of e^-g1 dP2/dp1.
    P2 >= 0 gives avg >= p1, so no minimizer lies above the bound
    avg(theta/(-log(1-eps))).  The root is sought on [_P1_FLOOR, bound] to
    1e-3 dB; BracketError if the slope at the floor is >= 0, the bound is
    at or under it, or an average power is not finite.  Diagnostics: the
    slope of log avg in log p1 at the root and the integrals computed.
    One table serves the slope and every average power.
    """
    rule = P2Rule(cfg, sigma, method, jensen_fallback=False, quantile=quantile)

    def avg(p1):
        y = avg_power_given_p1(p1, cfg, sigma, method, quantile=rule.quantile)
        if not math.isfinite(y):
            raise BracketError(f"average power not finite at p1={p1:.6g}")
        return y

    @functools.cache    # brentq evaluates the floor again
    def slope(t):       # d avg/d p1 at p1 = e^t
        return 1.0 + _integral(rule, rule.slope, math.exp(t), 1.0)
    t_lo = math.log(_P1_FLOOR)
    bound = avg(cfg.theta / -math.log1p(-cfg.eps))
    if bound <= _P1_FLOOR or not slope(t_lo) < 0.0:
        raise BracketError(f"average power still falling at p1={_P1_FLOOR:g}")
    t_opt = brentq(slope, t_lo, math.log(bound), xtol=_TOL_LOG_P1)
    p1 = math.exp(t_opt)
    y = avg(p1)
    return PowerSolution(
        p1=p1,
        avg_power=y,
        diagnostics={"stationarity_residual": p1 * slope(t_opt) / y,
                     "integrals": slope.cache_info().currsize + 2},
    )
