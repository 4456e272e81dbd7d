"""Correlated Rayleigh channel seen by a predictor/receive antenna pair.

The gain g1 measured at the front antenna and the gain g2 later seen by the
rear antenna come from complex Gaussians linked by a mixing parameter
sigma: h2 = sqrt(1 - sigma^2) h1 + sigma q.  Conditioned on g1 = |h1|^2,
g2 = |h2|^2 is noncentral chi-square, so its CDF is a Marcum Q expression.
sigma itself can be supplied directly or derived from the drive geometry
(speed, processing delay, carrier frequency, antenna separation) through
Jakes' spatial-correlation model.
"""

import enum
import math

import numpy as np
from scipy import special as sp_special

from .special import (
    inv_marcum_q1,
    marcum_q1,  # noqa: F401  (re-exported; perfbench's tracer test reads it)
    weibull_fit_parameters,
)

SPEED_OF_LIGHT = 299792458.0

# Round-one gains above this carry weight e^-50 ~ 2e-22, far below any
# tolerance of the average-power integral that is cut off there.
G_MAX = 50.0

# g1 knots of the exact quantile table.  The average-power quadrature puts
# its panel edges on them, so each panel sees one smooth cubic piece.
QUANTILE_KNOTS = np.geomspace(1e-9, G_MAX, 513)
_LOG_KNOTS = np.log(QUANTILE_KNOTS)

# sigma = 0 makes the conditional distribution degenerate; this floor keeps
# every formula finite.  Numerical guard, not a physical claim.
SIGMA_MIN = 1e-3


class QuantileMethod(enum.Enum):
    """How the conditional-gain quantile (inverse CDF) is evaluated."""

    EXACT = "exact"
    WEIBULL = "weibull"        # stretched-exponential fit of the Marcum tail
    ASYMPTOTIC = "asymptotic"  # small-quantile closed form


def jakes_sigma(d: float, wavelength: float) -> float:
    """Mismatch parameter from Jakes spatial correlation.

    The h1-h2 correlation magnitude for isotropic scattering at spacing d is
    |J0(2 pi d / wavelength)|, so sigma^2 = 1 - J0^2.  Unclamped.
    """
    return math.sqrt(max(1.0 - sp_special.j0(2.0 * math.pi * d / wavelength) ** 2, 0.0))


def sigma_from_geometry(v: float, delta: float, f_c: float,
                        d_a: float) -> float:
    """sigma for a given drive geometry, clamped to [SIGMA_MIN, 1].

    v is the vehicle speed [m/s], delta the processing delay between probe
    and data [s], f_c the carrier frequency [Hz] and d_a the antenna
    separation [m]; each must be > 0, f_c finite.  The mismatch distance
    d = |d_a - v delta|, also finite, goes through the Jakes correlation model.
    """
    for name, value in (("v", v), ("delta", delta), ("f_c", f_c),
                        ("d_a", d_a)):
        if not value > 0:
            raise ValueError(f"{name} must be > 0")
    if f_c == math.inf:
        raise ValueError("f_c must be finite")
    d = abs(d_a - v * delta)
    if not math.isfinite(d):
        raise ValueError(f"mismatch distance |d_a - v delta| is {d}")
    sigma = jakes_sigma(d, SPEED_OF_LIGHT / f_c)
    return min(max(sigma, SIGMA_MIN), 1.0)


def cond_cdf_g2(x, g1, sigma: float):
    """P(g2 <= x | g1): the noncentral chi-square CDF of 2 g2 / sigma^2,
    elementwise over arrays x and g1 that broadcast together.

    Evaluated directly as the lower tail, so it keeps full relative accuracy
    where it is small (one minus a Marcum Q tail would cancel there), and 0
    for x <= 0.  At sigma = 1 the antennas decorrelate completely and this
    reduces to the unit-mean exponential CDF 1 - exp(-x).  Scalars x and g1
    give a float.  ValueError for a NaN value: a NaN x, or scipy's chndtr
    failing (NaN near x = g1 once 2 x / sigma^2 passes ~1e11).
    """
    _check_sigma(sigma)
    g = np.asarray(g1, dtype=float)
    xs = np.asarray(x, dtype=float)
    if not (g >= 0).all():
        raise ValueError(f"g1 must be >= 0, got {g.min()}")
    s2 = sigma * sigma
    # the CDF at x = 0 is 0; a NaN x gives NaN
    p = sp_special.chndtr(2.0 * np.maximum(xs, 0.0) / s2, 2.0,
                          2.0 * g * (1.0 - s2) / s2)
    nan = np.isnan(p)
    if nan.any():
        if np.isnan(xs).any():
            raise ValueError("x must be a number, got nan")
        xb, gb = (np.broadcast_to(a, p.shape)[nan][0] for a in (xs, g))
        raise ValueError(f"the conditional CDF is not a number at x={xb:g}, "
                         f"g1={gb:g}, sigma={sigma:g}")
    return float(p) if p.ndim == 0 else p


def inv_cond_cdf_g2(eps: float, g1, sigma: float,
                    method: QuantileMethod = QuantileMethod.EXACT):
    """eps-quantile of g2 given g1, elementwise over an array g1.

    EXACT inverts the Marcum tail numerically, one Brent solve per element;
    WEIBULL inverts the stretched-exponential fit in closed form;
    ASYMPTOTIC uses the small-quantile expression
    sigma^2 |log(1-eps)| exp(g1 (1-sigma^2)/sigma^2).  A scalar g1 gives
    a float.
    """
    _check_sigma(sigma)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    g = np.asarray(g1, dtype=float)
    if not np.all(g >= 0):
        raise ValueError(f"g1 must be >= 0, got {g.min()}")
    # a scalar runs as a one-element array, through the same ufunc loops
    # as an element of an array call
    g = g.reshape(-1)
    s2 = sigma * sigma
    if method is QuantileMethod.ASYMPTOTIC:
        # exp overflows past g1 ~ 709.8 s2/(1-s2); the infinite quantile
        # gives the round-two power its limit, 0
        with np.errstate(over="ignore"):
            x = -s2 * np.log1p(-eps) * np.exp(g * (1.0 - s2) / s2)
    else:
        s = np.sqrt(2.0 * g * (1.0 - s2)) / sigma
        if method is QuantileMethod.EXACT:
            # the Marcum tail is inverted at p = 1 - eps, which rounds to 1
            # for eps <= 2**-54
            if 1.0 - eps == 1.0:
                raise ValueError(f"the exact quantile needs eps > 2**-54 "
                                 f"(~5.55e-17), got eps={eps}")
            rho = np.array([inv_marcum_q1(si, 1.0 - eps) for si in s.tolist()])
            x = 0.5 * s2 * rho * rho
        elif method is QuantileMethod.WEIBULL:
            scale, shape = weibull_fit_parameters(s)
            # the fitted scale underflows to 0 near s = 25, where the
            # quantile is infinite (README, "Known limitations")
            with np.errstate(over="ignore", divide="ignore"):
                x = 0.5 * s2 * (-np.log1p(-eps) / scale) ** (2.0 / shape)
        else:
            raise ValueError(f"unknown method {method!r}")
    return float(x[0]) if np.ndim(g1) == 0 else x.reshape(np.shape(g1))


def _log_quantile_slopes(g1, x, sigma: float):
    """d ln x / d ln g1 along a quantile curve cond_cdf_g2(x, g1) = eps,
    at points (g1, x) on it.  With X = 2 x / sigma^2 and lam = 2 g1
    (1 - sigma^2) / sigma^2 the curve is F_2(X; lam) = eps, for F_k the
    noncentral chi-square CDF with density f_k.  As dF_k/dlam =
    (F_{k+2} - F_k) / 2 = -f_{k+2}, implicit differentiation gives
    dX/dlam = f_4 / f_2 = sqrt(X / lam) I1(sqrt(lam X)) / I0(sqrt(lam X)),
    so d ln X / d ln lam, which is the slope, is sqrt(lam / X) I1 / I0."""
    s2 = sigma * sigma
    lam = 2.0 * g1 * (1.0 - s2) / s2
    big_x = 2.0 * x / s2
    z = np.sqrt(lam * big_x)
    return np.sqrt(lam / big_x) * sp_special.i1e(z) / sp_special.i0e(z)


def _hermite_coefficients(x, y, d):
    """(4, len(x) - 1) power-basis coefficients, highest degree first, of
    the cubic Hermite pieces through (x, y) with knot slopes d; the piece
    on [x[i], x[i+1]] is sum c[k, i] (t - x[i])^(3 - k)."""
    h = np.diff(x)
    secant = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2 * secant) / h
    return np.stack((t / h, (secant - d[:-1]) / h - t, d[:-1], y[:-1]))


def _piece_index(x, t):
    """Index of the piece of t on the evenly spaced knots x (up to
    rounding): searchsorted(x, t, side="right") - 1 clipped to the pieces,
    computed without a search.  floor((t - x[0]) / h) is off by at most
    one where rounding puts t against a knot, and one step against the
    knots corrects it; a NaN t gives piece 0."""
    last = len(x) - 2
    q = np.floor((t - x[0]) * ((last + 1) / (x[-1] - x[0])))
    # fmax and fmin take a NaN to the other bound
    i = np.fmin(np.fmax(q, 0.0), last).astype(np.intp)
    i -= (t < x.take(i)) & (i > 0)
    i += (t >= x.take(i + 1)) & (i < last)
    return i


def _hermite_eval(x, c, t):
    """The piecewise cubic at t (any shape) on evenly spaced knots x, the
    end pieces extended past the first and last knots; NaN at NaN.  The
    terms add up from the constant one, as scipy's PPoly adds them."""
    i = _piece_index(x, t)
    s = t - x.take(i)
    s2 = s * s
    return (c[3].take(i) + c[2].take(i) * s + c[1].take(i) * s2
            + c[0].take(i) * (s2 * s))


class GainQuantile:
    """Vectorized eps-quantile of g2 given g1, for a fixed (eps, sigma).

    The closed-form methods evaluate inv_cond_cdf_g2 directly.  The exact
    method solves the Marcum inverse at g1 = 0 and on the QUANTILE_KNOTS
    grid once and interpolates log-quantile against log-g1 over
    [0, G_MAX] with a cubic Hermite table whose knot slopes are the exact
    derivative (`_log_quantile_slopes`).  At sigma = 0.8 it is off by at
    most 7.0e-7 relative between knots above the first at eps = 1e-3 and
    5.2e-6 at eps = 1e-5, orders of magnitude below the Monte Carlo
    resolutions it feeds.  For g1 <= 1e-9, the first knot, it returns the
    g1 = 0 value as a constant: at g1 = 1e-9 and eps = 1e-3 that is off by
    5.6e-10 at sigma = 0.8, 1.0e-8 at 0.3, 4.0e-7 at 0.05, 2.0e-6 at
    0.0224 and 1.0e-3 at SIGMA_MIN.  Past G_MAX the end cubic is
    extrapolated.
    """

    def __init__(self, eps: float, sigma: float,
                 method: QuantileMethod = QuantileMethod.EXACT):
        _check_sigma(sigma)
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        self.eps = eps
        self.sigma = sigma
        self.method = method
        if method is QuantileMethod.EXACT:
            vals = inv_cond_cdf_g2(eps, np.concatenate(([0.0], QUANTILE_KNOTS)),
                                   sigma, method)
            self._x0 = vals[0]
            self._coef = _hermite_coefficients(
                _LOG_KNOTS, np.log(vals[1:]),
                _log_quantile_slopes(QUANTILE_KNOTS, vals[1:], sigma))

    def __call__(self, g1):
        if self.method is not QuantileMethod.EXACT:
            return inv_cond_cdf_g2(self.eps, g1, self.sigma, self.method)
        g1 = np.asarray(g1, dtype=float)
        g_lo = QUANTILE_KNOTS[0]
        out = np.exp(_hermite_eval(_LOG_KNOTS, self._coef,
                                   np.log(np.maximum(g1, g_lo))))
        return np.where(g1 <= g_lo, self._x0, out)


def sample_g1(rng: np.random.Generator, size=None):
    """Unit-mean exponential gain of the probing antenna."""
    return rng.exponential(size=size)


def sample_g2_given_g1(rng: np.random.Generator, g1, sigma: float):
    """Draw g2 | g1 from the mixing model, in real arithmetic.

    q is circularly symmetric, so the phase of h1 does not change the law
    of |h2|^2 and h1 is taken as the real sqrt(g1):

        g2 = (sqrt(1 - sigma^2) sqrt(g1) + sigma x / sqrt 2)^2
             + (sigma y / sqrt 2)^2

    with x and y standard normals: a call draws g1.size values of x, then
    g1.size values of y, from `rng`.
    """
    g1 = np.asarray(g1, dtype=float)
    g2, scale = _g2_in_phase(rng.standard_normal(g1.shape), g1, sigma)
    return _add_g2_quadrature(rng, g2, scale)


def _g2_in_phase(x, g1, sigma: float, work=None):
    """g2 | g1 at y = 0, the in-phase square of `sample_g2_given_g1`,
    written over the array of normals x (one per g1); and the scale
    sigma / sqrt 2 of the quadrature term.  sqrt(g1) goes into `work`
    where given (an array of g1's shape), else into a new array."""
    _check_sigma(sigma)
    scale = sigma * math.sqrt(0.5)
    g2 = x
    g2 *= scale
    mean = np.sqrt(g1, out=work)
    mean *= math.sqrt(1.0 - sigma * sigma)
    g2 += mean
    np.square(g2, out=g2)
    return g2, scale


def _add_g2_quadrature(rng: np.random.Generator, g2, scale: float,
                       work=None):
    """Add the quadrature square (scale y)^2 to g2 in place, drawing one y
    per value into `work` (an array of g2's shape) where given, else into
    a new array; returns g2."""
    y = rng.standard_normal(g2.shape, out=work)
    y *= scale
    np.square(y, out=y)
    g2 += y
    return g2


def _check_sigma(sigma: float) -> None:
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must be in (0, 1], got {sigma}")
    if sigma < SIGMA_MIN:
        raise ValueError(f"sigma must be >= {SIGMA_MIN}, got {sigma}")
