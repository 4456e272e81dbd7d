import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate
from scipy.special import chndtr

from paharq import QuadratureError, benchmarks
from paharq.benchmarks import (
    InfeasibleError,
    no_retx_outage,
    no_retx_required_power,
    open_loop_avg_power,
    open_loop_outage_exact,
    open_loop_required_power,
    open_loop_round_power,
    zeta_inr_closed,
    zeta_rtd_closed,
    _zeta_closed_u,
)
from paharq.channel import cond_cdf_g2
from paharq.harq import Protocol, theta, theta1


def zeta_rtd_printed_form(P, rate, sigma):
    """Literal transcription of the published polynomial expression, used as
    the guard for the overflow-safe regrouping in the package."""
    u = theta(rate) / P
    s2, s4, s6, s8 = sigma**2, sigma**4, sigma**6, sigma**8
    return (-math.exp(-u / s2) / (6 * s4 * (1 - math.exp(-u)))
            * ((6 * s8 - 12 * s6) * math.exp(u / s2) + 12 * s6
               + (3 * s2 - 3 * s4) * u**2 + (12 * s4 - 6 * s6) * u
               + (1 - s2) * u**3 - 6 * s8))


class TestOpenLoopAvgPower:
    def test_value(self):
        assert open_loop_avg_power(10.0, 2.0) == pytest.approx(
            10.0 * (2.0 - math.exp(-theta(2.0) / 10.0)), rel=1e-14)

    def test_limits(self):
        assert open_loop_avg_power(1e9, 2.0) == pytest.approx(1e9, rel=1e-6)
        assert open_loop_avg_power(1e-6, 2.0) == pytest.approx(2e-6, rel=1e-9)


class TestZetaClosed:
    def test_matches_printed_form(self):
        # the printed arrangement itself loses digits below u ~ 0.01 (the
        # reason the package regroups it), so the guard compares above that
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 300:
            P = 10 ** rng.uniform(-0.5, 4.0)
            rate = rng.uniform(0.1, 4.0)
            sigma = rng.uniform(0.3, 1.0)
            if theta(rate) / P < 0.01:
                continue
            printed = zeta_rtd_printed_form(P, rate, sigma)
            assert _zeta_closed_u(theta(rate) / P, sigma) == pytest.approx(
                printed, abs=2e-11)
            checked += 1

    def test_sigma_one_reduces_to_exact_convolution(self):
        # independent exponential gains: conditional outage of the summed
        # gain is (1 - e^-u (1+u)) / (1 - e^-u)
        for u in (1e-4, 0.05, 0.7, 2.0, 6.0, 20.0):
            rate = 2.0
            P = theta(rate) / u
            exact = (1.0 - math.exp(-u) * (1.0 + u)) / (-math.expm1(-u))
            assert zeta_rtd_closed(P, rate, 1.0) == pytest.approx(
                exact, abs=1e-12)

    def test_small_threshold_expansion(self):
        # leading behaviour u / (2 sigma^2)
        for sigma in (0.5, 0.8, 1.0):
            for u in (1e-5, 1e-4):
                P = theta(2.0) / u
                assert zeta_rtd_closed(P, 2.0, sigma) == pytest.approx(
                    u / (2.0 * sigma * sigma), rel=2e-2)

    def test_matches_exact_quadrature_in_validity_range(self):
        for rate in (0.5, 2.0):
            for p_db in (15.0, 25.0, 35.0):
                P = 10 ** (p_db / 10)
                closed = zeta_rtd_closed(P, rate, 0.8)
                exact = open_loop_outage_exact(P, rate, 0.8)
                assert closed == pytest.approx(exact, rel=2e-3, abs=1e-9)

    def test_saturates_below_one_at_low_power(self):
        # the underlying tail expansion caps at sigma^2 (2 - sigma^2) while
        # the true outage approaches 1; documented limitation at low power
        z = zeta_rtd_closed(0.05, 2.0, 0.8)
        assert z == pytest.approx(0.64 * (2.0 - 0.64), rel=1e-6)
        assert open_loop_outage_exact(0.05, 2.0, 0.8) > 0.999

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("u", [1e4, 1e5, 1e6])
    def test_exact_is_one_at_large_threshold_ratio(self, protocol, u):
        # a retransmission at theta/P >= 1e4 almost surely fails too; the
        # quadrature must find the e^-g1 mass near 0, not lose it in [0, u]
        P = theta(2.0) / u
        assert open_loop_outage_exact(P, 2.0, 0.8, protocol) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_exact_never_exceeds_one(self, protocol):
        # at sigma = 1, theta/P = 202 the quotient of the integral by the
        # round-one failure probability rounds to 1 + 2^-52; clamped, as
        # the closed forms are
        assert open_loop_outage_exact(10 ** -1.5, 2.0, 1.0, protocol) == 1.0

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("P,rate", [(1.0, 0.0), (math.inf, 1.0)])
    def test_exact_is_zero_without_round_one_failure(self, protocol, P,
                                                     rate):
        # theta/P = 0: round one never fails, the closed form's u <= 0 value
        assert open_loop_outage_exact(P, rate, 0.8, protocol) == 0.0
        assert zeta_rtd_closed(P, rate, 0.8) == 0.0

    def test_inr_is_rtd_at_jensen_threshold(self):
        P, rate, sigma = 30.0, 2.0, 0.8
        u1 = theta1(rate) / P
        equivalent_rate = math.log1p(u1 * P)  # rate whose theta equals theta1
        assert zeta_inr_closed(P, rate, sigma) == pytest.approx(
            zeta_rtd_closed(P, equivalent_rate, sigma), rel=1e-12)

    def test_inr_below_rtd(self):
        for P in (5.0, 50.0, 500.0):
            for rate in (0.5, 2.0):
                assert zeta_inr_closed(P, rate, 0.8) <= zeta_rtd_closed(
                    P, rate, 0.8)

    def test_degenerate_rate_limit(self):
        assert zeta_rtd_closed(10.0, 1e-9, 0.8) == pytest.approx(0.0, abs=1e-9)
        assert zeta_inr_closed(10.0, 1e-9, 0.8) == pytest.approx(0.0, abs=1e-9)

    @given(st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=0.3, max_value=1.0),
           st.floats(min_value=-1.0, max_value=4.0))
    def test_clamped_to_unit_interval(self, rate, sigma, log_p):
        z = zeta_rtd_closed(10**log_p, rate, sigma)
        assert 0.0 <= z <= 1.0

    def test_clamp_excursions_are_tiny(self):
        worst = 0.0
        for rate in (0.5, 2.0):
            for sigma in (0.5, 0.8, 1.0):
                for p_db in np.linspace(-10, 40, 26):
                    raw = _zeta_closed_u(theta(rate) / 10 ** (p_db / 10),
                                         sigma)
                    worst = max(worst, raw - 1.0, -raw)
        assert worst < 1e-3

    def test_monotone_in_power_and_rate(self):
        # strictly decreasing in P over the formula's validity range; in the
        # deep saturation zone (u >~ 8) it only ripples within ~1e-5
        powers = np.geomspace(theta(2.0) / 3.0, 1e4, 40)
        vals = [zeta_rtd_closed(float(P), 2.0, 0.8) for P in powers]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        deep = np.geomspace(0.05, theta(2.0) / 3.0, 20)
        deep_vals = [zeta_rtd_closed(float(P), 2.0, 0.8) for P in deep]
        assert all(a >= b - 1e-5 for a, b in zip(deep_vals, deep_vals[1:]))
        rates = np.linspace(0.2, 4.0, 20)
        vals = [zeta_rtd_closed(50.0, float(r), 0.8) for r in rates]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRequiredPower:
    def test_monotone_in_target(self):
        prev = math.inf
        for eps in (1e-4, 1e-3, 1e-2, 1e-1):
            P = open_loop_round_power(eps, 2.0, 0.8)
            assert P < prev
            prev = P

    def test_sigma_one_inverts_exact_formula(self):
        eps, rate = 1e-3, 2.0
        P = open_loop_round_power(eps, rate, 1.0)
        u = theta(rate) / P
        exact = (1.0 - math.exp(-u) * (1.0 + u)) / (-math.expm1(-u))
        assert exact == pytest.approx(eps, rel=1e-3)

    def test_round_power_hits_target(self):
        P = open_loop_round_power(1e-3, 2.0, 0.8)
        assert zeta_rtd_closed(P, 2.0, 0.8) == pytest.approx(1e-3, rel=1e-3)
        avg = open_loop_required_power(1e-3, 2.0, 0.8)
        assert avg == pytest.approx(open_loop_avg_power(P, 2.0), rel=1e-12)
        # frozen from a bisection run on the closed form
        assert P == pytest.approx(4987.99, rel=1e-3)

    def test_infeasible_above_saturation(self):
        # the closed form never exceeds sigma^2 (2 - sigma^2)
        with pytest.raises(InfeasibleError):
            open_loop_round_power(0.9, 2.0, 0.8)


class TestNoRetx:
    def test_anchor_values(self):
        P = no_retx_required_power(1e-5, 4.0)
        assert P == pytest.approx(5359788.2041947413, rel=1e-12)
        assert 10 * math.log10(P) == pytest.approx(67.2915, abs=1e-3)
        assert no_retx_required_power(1e-1, 0.5) == pytest.approx(
            theta(0.5) / (-math.log(0.9)), rel=1e-12)
        assert no_retx_required_power(1e-1, 0.5) == pytest.approx(6.157, abs=2e-3)

    def test_vanishes_as_target_loosens(self):
        # approaches zero logarithmically as the target tends to one
        seq = [no_retx_required_power(eps, 4.0)
               for eps in (0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-12)]
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert seq[-1] < theta(4.0) / 25.0

    def test_outage_roundtrip(self):
        for eps in (1e-4, 1e-2, 0.3):
            P = no_retx_required_power(eps, 2.0)
            assert no_retx_outage(P, 2.0) == pytest.approx(eps, rel=1e-10)


def _outage_args(P, rate, sigma, protocol):
    """u = theta/P, the CDF's threshold as a function of g1, and the upper
    limit min(u, 745) of the outage integral."""
    th = theta(rate)
    u = th / P
    if protocol is Protocol.RTD:
        arg = lambda x: u - x
    else:
        arg = lambda x: (th - x * P) / ((1.0 + x * P) * P)
    return u, arg, min(u, 745.0)


def _outage_by_quad(P, rate, sigma, protocol):
    """The former open-loop outage: QUADPACK's adaptive 21-point rule on
    the scalar integrand, to 1e-14 absolute or 1e-11 relative."""
    u, arg, b = _outage_args(P, rate, sigma, protocol)
    f = lambda x: math.exp(-x) * cond_cdf_g2(arg(x), x, sigma)
    val, _ = integrate.quad(f, 0.0, b, epsabs=1e-14, epsrel=1e-11, limit=300)
    return min(max(val / (-math.expm1(-u)), 0.0), 1.0)


@functools.cache
def _outage_by_mpmath(P, rate, sigma, protocol):
    """mpmath's tanh-sinh quadrature of the same double-precision chndtr
    integrand, with breakpoints at eighths and decades of the range and
    across the fall of the CDF from 1 to 0: where the threshold crosses the
    conditional mean (1 - sigma^2) g1 + sigma^2, over +-10 standard
    deviations ~ sigma sqrt(g1).  mpmath's tolerance is absolute, 10^-dps,
    and the integral is of order u^2 below u = 1, so 20 digits are kept
    beyond u^2."""
    u, arg, b = _outage_args(P, rate, sigma, protocol)
    s2 = sigma * sigma

    def f(x):
        x = float(x)
        a = arg(x)
        if a <= 0.0:
            return mpmath.mpf(0)
        return mpmath.exp(-x) * chndtr(2.0 * a / s2, 2.0,
                                       2.0 * x * (1.0 - s2) / s2)
    lo, hi = 0.0, b
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if arg(mid) > (1.0 - s2) * mid + s2 else (lo, mid)
    w = sigma * math.sqrt(lo)
    pts = {b * t for t in np.linspace(0.0, 1.0, 9)}
    pts.update(b * 10.0 ** k for k in range(-12, 0))
    pts.update(lo + k * w for k in range(-10, 11))
    with mpmath.workdps(20 + max(0, math.ceil(-2.0 * math.log10(b)))):
        val = mpmath.quad(f, sorted(x for x in pts if 0.0 <= x <= b))
        return float(val / -mpmath.expm1(-u))


class TestOutageIntegrator:
    """The adaptive Gauss-Kronrod outage against quad, which it replaces.
    Where the two differ by more than 1e-10, mpmath on the same chndtr
    integrand decides, and it sides with the package every time: quad stops
    on its 1e-14 absolute tolerance, which exceeds the whole integral at
    small theta/P (INR at rate 4 off by 3e-7), or misses the fall of RTD's
    CDF at sigma = 1e-3 when a panel edge sits on it."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("sigma", [1e-3, 0.0224, 0.3, 0.8, 1.0])
    def test_matches_quad_or_mpmath(self, protocol, sigma):
        disputed = []
        for rate in (0.5, 2.0, 4.0):
            for u in np.geomspace(1e-8, 1e4, 25):
                P = theta(rate) / u
                ours = open_loop_outage_exact(P, rate, sigma, protocol)
                ref = _outage_by_quad(P, rate, sigma, protocol)
                if abs(ours - ref) > 1e-10 * ref:
                    disputed.append((P, rate, ours, ref))
        for P, rate, ours, ref in disputed:
            exact = _outage_by_mpmath(P, rate, sigma, protocol)
            assert ours == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert ref != pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_fall_at_half_the_threshold(self):
        # at sigma = 1e-3 RTD's CDF falls from 1 to 0 within ~0.002 of
        # theta/(2P), the midpoint of the range, where quad's first
        # bisection puts a panel edge; at theta/P = 10^0.75 quad is off by
        # 3.0e-5
        P = theta(2.0) / 10 ** 0.75
        exact = _outage_by_mpmath(P, 2.0, 1e-3, Protocol.RTD)
        assert open_loop_outage_exact(P, 2.0, 1e-3, Protocol.RTD) == \
            pytest.approx(exact, rel=1e-12, abs=0.0)
        assert _outage_by_quad(P, 2.0, 1e-3, Protocol.RTD) == pytest.approx(
            exact, rel=4e-5, abs=0.0)
        assert _outage_by_quad(P, 2.0, 1e-3, Protocol.RTD) != pytest.approx(
            exact, rel=1e-5, abs=0.0)

    def test_underflowed_tolerance_raises(self, panel_cap):
        # at theta/P ~ 6e-161 the bound 1e-14 (1 - e^-u)^2 underflows to 0,
        # so no panel meets its share and each splits every round until the
        # rule's panel bound stops it
        with pytest.raises(QuadratureError, match="not converged"):
            open_loop_outage_exact(1e160, 0.5, 1e-3, Protocol.INR)

    def test_one_array_call_of_the_cdf_per_round(self, monkeypatch):
        calls = []

        def recording(x, g1, sigma):
            calls.append(np.shape(x))
            return cond_cdf_g2(x, g1, sigma)
        monkeypatch.setattr(benchmarks, "cond_cdf_g2", recording)
        open_loop_outage_exact(1.0, 2.0, 1e-3, Protocol.RTD)
        assert len(calls) >= 2
        assert all(len(shape) == 2 and shape[1] == 15 for shape in calls)
