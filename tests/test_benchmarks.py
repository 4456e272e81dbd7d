import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
