"""Benchmark schemes: open-loop HARQ and single-shot transmission.

Open loop means no channel feedback and equal power P in both rounds; its
conditional retransmission outage has a polynomial-in-theta/P closed form
obtained from a small-argument expansion of the Marcum tail, plus an exact
quadrature reference.  The single-shot (no-retransmission) baseline is the
plain Rayleigh outage.
"""

import math

from scipy import integrate, optimize

from .channel import _check_sigma, cond_cdf_g2
from .harq import PaharqError, Protocol, theta, theta1


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
    simulator.  The integral stops at min(theta/P, 745), where e^{-g1}
    underflows; on a longer range quad would miss the mass near 0.
    """
    _check(P, sigma)
    u = theta(rate) / P
    if u <= 0.0:    # a zero rate or an infinite power never fails round one
        return 0.0
    if protocol is Protocol.RTD:
        arg = lambda x: u - x
    else:
        arg = lambda x: (theta(rate) - x * P) / ((1.0 + x * P) * P)
    f = lambda x: math.exp(-x) * cond_cdf_g2(arg(x), x, sigma)
    val, _ = integrate.quad(f, 0.0, min(u, 745.0), epsabs=1e-14, epsrel=1e-11,
                            limit=300)
    return val / (-math.expm1(-u))


def open_loop_round_power(target_eps: float, rate: float, sigma: float,
                          protocol: Protocol = Protocol.RTD) -> float:
    """Per-round power P with closed-form outage equal to target_eps.

    The closed form is monotone decreasing in P; Brent's method (brentq)
    on log P to 0.001 dB.  Raises InfeasibleError when the target is below
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
    lp = optimize.brentq(f, lo, hi, xtol=1e-3 * math.log(10.0) / 10.0,
                         maxiter=200)
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
