"""Special functions used throughout the link model.

The conditional gain distribution of a correlated Rayleigh pair is a
noncentral chi-square with two degrees of freedom, so everything here
revolves around the first-order Marcum Q function: a stable series
evaluation, a stretched-exponential (Weibull-type) fit with polynomial
parameters, numeric and asymptotic inverses, and the two real branches of
the Lambert W function used by the closed-form power optimum.  scipy gives
the principal branch; the lower branch, which the optimum needs near the
branch point -1/e where scipy's is off, is hand-written.  A checked
modified Bessel I_n is kept beside them; nothing numerical calls it.
Brent's bracketed root finder, which the Marcum inverse and both power
solvers use, is written out here, so the package needs no scipy module
beyond scipy.special.
"""

import math

import numpy as np
from scipy import special

_CHUNK = 2048
_MAX_TERMS = 1 << 21

# brentq's relative tolerance: scipy's default and the smallest it accepts
_BRENT_RTOL = 4 * np.finfo(float).eps

# Quartic parameter polynomials of the stretched-exponential fit
# Q1(s, rho) ~ exp(-exp(I(s)) * rho**J(s)), constant term first.
_WEIBULL_LOG_SCALE = (-0.840, 0.327, -0.740, 0.083, -0.004)
_WEIBULL_SHAPE = (2.174, -0.592, 0.593, -0.092, 0.005)


def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function of the first kind, integer order n >= 0.

    scipy's I_n with argument checks; raises OverflowError once I_n(x)
    exceeds the float range.  Below x = 1e-8 the series' second term is
    under 2.5e-17 of the first, so the leading term (x/2)^n/n! is returned:
    scipy 1.17.1 gives nan there for subnormal x and 0 for n >= 1 long
    before I_n(x) underflows (I_1 below x ~ 1e-154).  No numerical path of
    the package uses it.
    """
    if n < 0 or not isinstance(n, (int, np.integer)):
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    if x < 0 or not math.isfinite(x):
        raise ValueError(f"argument must be finite and >= 0, got {x!r}")
    if x < 1e-8:
        term = 1.0
        for k in range(1, n + 1):
            term *= 0.5 * x / k
            if term == 0.0:
                break
        return term
    value = float(special.iv(n, x))
    if not math.isfinite(value):
        raise OverflowError(f"bessel_i({n}, {x}) exceeds float range")
    return value


def _scaled_series(ratio: float, z: float, k_start: int) -> float | None:
    """Sum of ratio**k * e^{-z} I_k(z) for k >= k_start, ratio <= 1.

    Terms are positive and eventually decay geometrically; summation stops
    once a chunk's last term falls below 1e-16 of the running total.
    Returns None if that takes more than _MAX_TERMS terms (or ive has no
    value, as at z > ~1.07e9).
    """
    total = 0.0
    k0 = k_start
    log_ratio = math.log(ratio) if ratio > 0.0 else -math.inf
    while k0 < _MAX_TERMS:
        k = np.arange(k0, k0 + _CHUNK)
        if ratio > 0.0:
            terms = np.exp(k * log_ratio) * special.ive(k, z)
        else:
            terms = special.ive(k, z) * (k == 0)
        total += float(terms.sum())
        if terms[-1] < 1e-16 * max(total, 1e-300):
            return total
        k0 += _CHUNK
    return None


def marcum_q1(s: float, rho: float) -> float:
    """First-order Marcum Q function Q1(s, rho).

    Equals the tail, beyond rho, of a Rician envelope with noncentrality s,
    i.e. the survival function of a 2-DOF noncentral chi-square evaluated at
    rho**2 with noncentrality s**2.  Evaluated through the scaled-Bessel
    series; for rho <= s the complement series is used so the term ratio
    stays below one in both regimes.
    """
    if s < 0 or rho < 0 or not (math.isfinite(s) and math.isfinite(rho)):
        raise ValueError(f"arguments must be finite and >= 0, got ({s}, {rho})")
    if rho == 0.0:
        return 1.0
    if s == 0.0:
        return math.exp(-0.5 * rho * rho)
    z = s * rho
    log_pref = -0.5 * (s - rho) ** 2
    if log_pref < -746.0:  # prefactor underflows; the tail is 0 or 1
        return 0.0 if rho > s else 1.0
    upper = rho > s
    total = _scaled_series(s / rho if upper else rho / s, z, 0 if upper else 1)
    if total is None:
        raise ValueError(f"Q1 series did not converge at s={s}, rho={rho}")
    q = math.exp(log_pref) * total
    return min(max(q if upper else 1.0 - q, 0.0), 1.0)


def marcum_q1_weibull(s: float, rho: float) -> float:
    """Stretched-exponential fit of Q1 with quartic-in-s parameters.

    A Weibull-type tail exp(-exp(I(s)) rho**J(s)); fast and closed-form
    invertible, at the cost of a few percent accuracy.  Result clamped to
    [0, 1].
    """
    if not (s >= 0 and rho >= 0):
        raise ValueError(f"arguments must be >= 0, got ({s}, {rho})")
    if rho == 0.0:
        return 1.0
    scale, shape = weibull_fit_parameters(s)
    q = float(np.exp(-scale * rho**shape))
    return min(max(q, 0.0), 1.0)


def weibull_fit_parameters(s):
    """(exp(I(s)), J(s)) of the stretched-exponential fit, vectorized."""
    s = np.asarray(s, dtype=float)
    return (np.exp(np.polyval(_WEIBULL_LOG_SCALE[::-1], s)),
            np.polyval(_WEIBULL_SHAPE[::-1], s))


def inv_marcum_q1(s: float, p: float) -> float:
    """rho such that Q1(s, rho) = p, for p in (0, 1), by Brent's method.

    The bracket [max(s - t, 0), s + t] with m = min(p, 1 - p) and
    t = sqrt(2 log(2/m)) + 2 always holds the root, by the exponential
    bounds of Simon and Alouini (IEEE Trans. Commun. 48(3), 2000):
    Q1(s, s + t) <= exp(-t^2/2) < m/2 <= p/2, and for s > t
    Q1(s, s - t) >= 1 - exp(-t^2/2)/2 > p; otherwise the bracket starts at
    Q1(s, 0) = 1.  brentq takes the bracket as it is, and its own sign
    check is the safety net.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if not s >= 0:
        raise ValueError(f"s must be >= 0, got {s}")
    t = math.sqrt(2.0 * math.log(2.0 / min(p, 1.0 - p))) + 2.0
    return brentq(lambda rho: marcum_q1(s, rho) - p, max(s - t, 0.0), s + t,
                  xtol=1e-300, maxiter=200)


def inv_marcum_q1_asymptotic(s: float, eps: float) -> float:
    """Closed-form rho with 1 - Q1(s, rho) ~ eps, for small quantiles.

    sqrt(-2 log(1 - eps)) * exp(s**2 / 4): exact at s = 0 (Rayleigh
    quantile), accurate while s**2 * rho**2 stays small.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not s >= 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return math.sqrt(-2.0 * math.log1p(-eps)) * math.exp(0.25 * s * s)


def lambert_w(x: float, branch: int = 0) -> float:
    """Real Lambert W: solves w * exp(w) = x on the requested branch.

    branch 0 is the principal branch (x >= -1/e), scipy's lambertw;
    branch -1 is the lower branch (-1/e <= x < 0, w <= -1), Halley
    iteration from a series or asymptotic start, since scipy's k=-1 is
    off by 2.3e-6 relative at -1/e + 1e-12.  Residual
    |w e^w - x| <= 1e-12 max(1, |x|) on both.
    """
    branch_point = -math.exp(-1.0)
    if branch == 0:
        if not x >= branch_point:
            raise ValueError(f"principal branch needs x >= -1/e, got {x}")
        # scipy 1.17.1 returns nan at the branch point itself
        return -1.0 if x == branch_point else float(special.lambertw(x).real)
    if branch != -1:
        raise ValueError(f"branch must be 0 or -1, got {branch}")
    if not branch_point <= x < 0.0:
        raise ValueError(f"lower branch needs -1/e <= x < 0, got {x}")
    if x == branch_point:
        return -1.0
    p = -math.sqrt(2.0 * (1.0 + math.e * x))
    if p > -0.3:
        # series around the branch point
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
    else:
        log_mx = math.log(-x)
        log_mlog = math.log(-log_mx)
        w = log_mx - log_mlog + log_mlog / log_mx
    eps = np.finfo(float).eps
    for _ in range(80):
        e = math.exp(w)
        r = w * e - x
        if r == 0.0:
            break
        w1 = w + 1.0
        dw = r / (e * w1 - (w + 2.0) * r / (2.0 * w1))
        w -= dw
        if abs(dw) <= 4.0 * eps * abs(w):
            break
    return min(w, -1.0)


def brentq(f, a: float, b: float, xtol: float, maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (Algorithms for Minimization without Derivatives, 1973)
    as the C code of scipy's brentq runs it, step for step, so both
    return the same bits: inverse quadratic or secant steps inside the
    bracket, a bisection where a step would not shrink it enough, and a
    stop once the bracket is under xtol + 4 eps |x|, scipy's default rtol.
    ValueError for xtol <= 0, f(a) and f(b) of one sign or an f value of
    NaN; RuntimeError after maxiter steps without convergence.
    """
    if not xtol > 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; "
                             f"solver cannot continue.")
        return fx
    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    # xcur is the best iterate, xblk the other end of the bracket, xpre
    # the previous iterate; spre and scur are the last two steps
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur}")
