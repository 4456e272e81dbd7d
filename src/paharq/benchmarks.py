"""Benchmark schemes: open-loop HARQ and single-shot transmission.

Open loop means no channel feedback and equal power P in both rounds; its
conditional retransmission outage has a polynomial-in-theta/P closed form
obtained from a small-argument expansion of the Marcum tail, plus an exact
reference by adaptive Gauss-Kronrod quadrature.  The single-shot
(no-retransmission) baseline is the plain Rayleigh outage.
"""

import math

import numpy as np

from .allocation import QuadratureError, _adaptive_gauss_kronrod
from .channel import _check_sigma, cond_cdf_g2
from .harq import PaharqError, Protocol, theta, theta1
from .special import brentq

# tolerance on the conditional outage: 1e-11 relative, as quad's was on
# the integral, and 1e-14 (1 - e^-u) absolute, since the outage itself is
# of order u = theta/P where u is small
_OUTAGE_RTOL = 1e-11
_OUTAGE_ATOL = 1e-14


class InfeasibleError(PaharqError, RuntimeError):
    """No power in the search range meets the requested outage target."""


def open_loop_avg_power(P: float, rate: float) -> float:
    """Average spent power P (2 - e^{-theta/P}): both rounds cost P and the
    second round happens exactly when round one fails."""
    if not P > 0:
        raise ValueError(f"P must be > 0, got {P}")
    return P * (2.0 - math.exp(-theta(rate) / P))


def _zeta_closed_u(u: float, sigma: float) -> float:
    """Closed-form conditional retransmission outage at threshold ratio u.

    Regrouped algebraically so the exponentials never overflow; below
    u = 1e-3 a series in u avoids the cancellation of the direct form.
    Unclamped.
    """
    if u <= 0.0:
        return 0.0
    s2 = sigma * sigma
    s4 = s2 * s2
    s6 = s4 * s2
    s8 = s4 * s4
    den = 6.0 * s4 * (-math.expm1(-u))
    if u < 1e-3:
        c4 = (1.0 + 0.5 * s2) / s2 - 0.75
        num = 3.0 * s2 * u * u - 2.0 * u**3 + c4 * u**4
    else:
        a = 12.0 * s6 - 6.0 * s8
        e = math.exp(-u / s2)
        # e underflows to 0 long before the float power u**3 overflows
        num = a if e == 0.0 else a - e * (
            a + (12.0 * s4 - 6.0 * s6) * u + (3.0 * s2 - 3.0 * s4) * u * u
            + (1.0 - s2) * u**3)
    return num / den


def zeta_rtd_closed(P: float, rate: float, sigma: float) -> float:
    """Closed-form open-loop RTD outage P(sum of gains too small | round-1
    failure), clamped to [0, 1].

    Exact at sigma = 1, where it reduces to the two-exponential convolution
    (1 - e^{-u}(1+u)) / (1 - e^{-u}); for small sigma and large theta/P the
    underlying tail expansion saturates below one.
    """
    _check(P, sigma)
    return min(max(_zeta_closed_u(theta(rate) / P, sigma), 0.0), 1.0)


def zeta_inr_closed(P: float, rate: float, sigma: float) -> float:
    """Closed-form open-loop INR outage: the RTD form at the
    Jensen-simplified threshold theta1 (substituted throughout, including
    the conditioning weight), clamped to [0, 1]."""
    _check(P, sigma)
    return min(max(_zeta_closed_u(theta1(rate) / P, sigma), 0.0), 1.0)


def open_loop_outage_exact(P: float, rate: float, sigma: float,
                           protocol: Protocol = Protocol.RTD) -> float:
    """Open-loop conditional outage by quadrature of the true conditional CDF.

    RTD integrates P(g2 < theta/P - g1 | g1); INR integrates the
    mutual-information condition P(g2 < (theta - g1 P) / ((1 + g1 P) P) | g1).
    Reference implementation for validating both the closed forms and the
    simulator.  The integral of e^-g1 times the CDF over
    [0, min(theta/P, 745)], beyond which e^-g1 underflows, is
    allocation._adaptive_gauss_kronrod's.  RTD starts from one panel; INR,
    whose threshold moves on the scale of 1 + g1 P, from three on which
    ln(1 + g1 P) grows by rate/3 each.  At small sigma the CDF falls from 1
    to 0 near the middle of the range (of g1 for RTD, of ln(1 + g1 P) for
    INR), and a panel edge there would hide the fall from the nodes of both
    neighbours: thirds never put one there.  The integral is divided by the
    same rule's integral of e^-g1 on the same panels, the round-one failure
    probability 1 - e^-u (held to 1e-11 relative), so a CDF of one gives
    exactly one.  The quotient is held to max(1e-11 outage,
    1e-14 (1 - e^-u)).  QuadratureError if that takes more than 40 rounds;
    clamped to [0, 1].
    """
    _check(P, sigma)
    th = theta(rate)
    u = th / P
    if u <= 0.0:    # a zero rate or an infinite power never fails round one
        return 0.0
    b = min(u, 745.0)
    if protocol is Protocol.RTD:
        arg = lambda x: u - x
        edges = np.array([0.0, b])
    else:
        arg = lambda x: (th - x * P) / ((1.0 + x * P) * P)
        edges = np.array([min(math.expm1(rate * k / 3.0) / P, b)
                          for k in range(4)])

    def integrands(x):      # the CDF, and 1 for the failure probability
        out = np.ones((2,) + x.shape)
        out[0] = cond_cdf_g2(arg(x), x, sigma)
        return out

    def tolerance(total):   # the outage's and the failure probability's
        val, fail = total
        return (max(_OUTAGE_RTOL * val, _OUTAGE_ATOL * fail ** 2),
                _OUTAGE_RTOL * fail)
    total = _adaptive_gauss_kronrod(edges, integrands, tolerance)
    if total is None:
        raise QuadratureError(
            f"open-loop outage integral not converged (P={P:.6g}, "
            f"rate={rate}, sigma={sigma}, protocol={protocol.value})")
    val, fail = total.tolist()
    return min(max(val / fail, 0.0), 1.0)


def open_loop_round_power(target_eps: float, rate: float, sigma: float,
                          protocol: Protocol = Protocol.RTD) -> float:
    """Per-round power P with closed-form outage equal to target_eps.

    The closed form is monotone decreasing in P; Brent's method on log P
    to 0.001 dB.  Raises InfeasibleError when the target is below
    the outage floor at 1e12 or above the saturation value at 1e-6.
    """
    if not 0.0 < target_eps < 1.0:
        raise ValueError(f"target_eps must be in (0, 1), got {target_eps}")
    zeta = zeta_rtd_closed if protocol is Protocol.RTD else zeta_inr_closed
    f = lambda lp: zeta(math.exp(lp), rate, sigma) - target_eps
    lo, hi = math.log(1e-6), math.log(1e12)
    if f(lo) < 0.0 or f(hi) > 0.0:
        raise InfeasibleError(
            f"outage target {target_eps} unreachable for rate={rate}, "
            f"sigma={sigma}, protocol={protocol.value}")
    lp = brentq(f, lo, hi, xtol=1e-3 * math.log(10.0) / 10.0, maxiter=200)
    return math.exp(lp)


def open_loop_required_power(target_eps: float, rate: float, sigma: float,
                             protocol: Protocol = Protocol.RTD) -> float:
    """Average power of the open-loop scheme at the outage target."""
    P = open_loop_round_power(target_eps, rate, sigma, protocol)
    return open_loop_avg_power(P, rate)


def no_retx_outage(P: float, rate: float) -> float:
    """Single-shot outage 1 - e^{-theta/P}."""
    if not P > 0:
        raise ValueError(f"P must be > 0, got {P}")
    return -math.expm1(-theta(rate) / P)


def no_retx_required_power(target_eps: float, rate: float) -> float:
    """Power meeting the outage target without retransmission:
    theta / (-log(1 - eps)), for a rate > 0."""
    if not 0.0 < target_eps < 1.0:
        raise ValueError(f"target_eps must be in (0, 1), got {target_eps}")
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return theta(rate) / (-math.log1p(-target_eps))


def _check(P: float, sigma: float) -> None:
    if not P > 0:
        raise ValueError(f"P must be > 0, got {P}")
    _check_sigma(sigma)
