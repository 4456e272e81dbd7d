import math

import numpy as np
import pytest
from scipy import integrate, special
from scipy.optimize import brentq, minimize_scalar

from paharq import allocation, harq
from paharq.allocation import (
    BracketError,
    ClosedFormDomainError,
    QuadratureError,
    avg_power_given_p1,
    c_coefficient,
    closed_form_avg_power,
    m_coefficient,
    optimal_p1_closed_form,
    optimal_p1_numeric,
)
from paharq.channel import (
    QUANTILE_KNOTS,
    GainQuantile,
    QuantileMethod,
    sample_g1,
)
from paharq.harq import HarqConfig, P2Rule, Protocol


def cfg(protocol=Protocol.RTD, rate=2.0, eps=1e-3):
    return HarqConfig(protocol, rate, eps)


class TestCoefficients:
    def test_values(self):
        assert m_coefficient(0.8) == pytest.approx(1.5625, rel=1e-12)
        assert c_coefficient(1e-3, 0.8) == pytest.approx(
            -1.0 / (0.64 * math.log(0.999)), rel=1e-12)

    def test_c_positive(self):
        for eps in (1e-6, 0.5, 1 - 1e-6):
            assert c_coefficient(eps, 0.7) > 0.0


class TestAveragePower:
    def test_sigma_one_closed_integral(self):
        # with full decorrelation the asymptotic objective is exact: m = 1
        c = cfg(eps=1e-2)
        p1 = 20.0
        m = 1.0
        cc = c_coefficient(c.eps, 1.0)
        expected = p1 + cc / m**2 * (p1 * math.exp(-m * c.theta / p1)
                                     - p1 + m * c.theta)
        got = avg_power_given_p1(p1, c, 1.0, QuantileMethod.EXACT)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_quadrature_matches_monte_carlo(self, qcache):
        # spent power only involves g1 and the rule, so the oracle is a plain
        # 1e7-draw average of p1 + P2(g1) over the failure region
        c = cfg(rate=2.0, eps=1e-3)
        q = qcache.get(1e-3, 0.8)
        quad = avg_power_given_p1(10.0, c, 0.8, QuantileMethod.EXACT, quantile=q)
        rule = P2Rule(c, 0.8, QuantileMethod.EXACT, quantile=q)
        rng = np.random.default_rng(7)
        total, total_sq, n = 0.0, 0.0, 10**7
        for _ in range(10):
            g1 = sample_g1(rng, size=n // 10)
            spent = 10.0 + rule(g1, 10.0)
            spent[g1 >= c.theta / 10.0] = 10.0
            total += spent.sum()
            total_sq += (spent * spent).sum()
        mean = total / n
        se = math.sqrt((total_sq / n - mean**2) / n)
        assert abs(quad - mean) < 3.0 * se

    def test_closed_form_is_integral_of_asymptotic_rule(self):
        for protocol in (Protocol.RTD, Protocol.INR):
            for p1 in (5.0, 50.0):
                c = cfg(protocol=protocol, rate=2.0, eps=1e-3)
                quad = avg_power_given_p1(p1, c, 0.8, QuantileMethod.ASYMPTOTIC)
                closed = closed_form_avg_power(p1, c, 0.8)
                assert quad == pytest.approx(closed, rel=1e-6)

    def test_tiny_rate_reduces_to_p1(self):
        c = HarqConfig(Protocol.RTD, rate=1e-9, eps=1e-3)
        assert closed_form_avg_power(7.0, c, 0.8) == pytest.approx(7.0, rel=1e-8)

    def test_loose_target_shrinks_retransmission_term(self):
        # eps -> 1 drives the retransmission weight c -> 0 (logarithmically),
        # leaving avg power = p1 + O(c)
        cfg_loose = HarqConfig(Protocol.RTD, rate=2.0, eps=1.0 - 1e-9)
        cc = c_coefficient(cfg_loose.eps, 0.8)
        avg = closed_form_avg_power(7.0, cfg_loose, 0.8)
        assert 0.0 <= avg - 7.0 <= cc * cfg_loose.theta / m_coefficient(0.8)

    def test_large_p1_approaches_p1(self):
        c = cfg()
        for p1 in (1e6, 1e8):
            assert closed_form_avg_power(p1, c, 0.8) == pytest.approx(
                p1, rel=1e-4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_infinite_p1_is_infinite(self, protocol):
        # inf * 0 gave NaN in the closed form and a warning in the quadrature
        c = cfg(protocol=protocol)
        assert closed_form_avg_power(math.inf, c, 0.8) == math.inf
        for method in QuantileMethod:
            assert avg_power_given_p1(math.inf, c, 0.8, method) == math.inf

    def test_rejects_nonpositive_p1(self):
        for p1 in (0.0, math.nan):
            with pytest.raises(ValueError):
                avg_power_given_p1(p1, cfg(), 0.8)
        with pytest.raises(ValueError):
            closed_form_avg_power(-1.0, cfg(), 0.8)


def chndtrix_objective(p1, c, sigma):
    """p1 + E[P2(g1); round one fails] by adaptive quadrature, with the
    exact quantile taken from scipy's noncentral chi-square inverse."""
    s2 = sigma * sigma

    def integrand(x):
        gap = c.theta - x * p1
        num = gap if c.protocol is Protocol.RTD else gap / (1.0 + x * p1)
        quantile = 0.5 * s2 * special.chndtrix(c.eps, 2.0,
                                               2.0 * x * (1.0 - s2) / s2)
        return math.exp(-x) * num / quantile

    val, _ = integrate.quad(integrand, 0.0, min(c.theta / p1, 50.0),
                            epsabs=0.0, epsrel=1e-10, limit=400)
    return p1 + val


class TestVectorObjective:
    @pytest.mark.parametrize("eps", [1e-5, 1e-3, 1e-1])
    @pytest.mark.parametrize("sigma", [0.3, 0.8, 1.0])
    def test_matches_chndtrix_quadrature(self, qcache, sigma, eps):
        q = qcache.get(eps, sigma)
        for protocol in (Protocol.RTD, Protocol.INR):
            c = cfg(protocol=protocol, eps=eps)
            for p1 in (1e-2, 1.0, 1e2):
                value = avg_power_given_p1(p1, c, sigma, quantile=q)
                assert type(value) is float
                assert value == pytest.approx(
                    chndtrix_objective(p1, c, sigma), rel=1e-6)

    def test_asymptotic_inr_across_kink_matches_closed_form(self):
        # the floored Jensen numerator kinks at theta1/p1 inside (0, G_MAX)
        c = cfg(protocol=Protocol.INR)
        for p1 in np.geomspace(0.1, 1e3, 9).tolist():
            assert c.theta1 / p1 < 50.0
            value = avg_power_given_p1(p1, c, 0.8, QuantileMethod.ASYMPTOTIC)
            assert value == pytest.approx(
                closed_form_avg_power(p1, c, 0.8), rel=1e-9)

    class JumpQuantile:
        """The asymptotic quantile, times factor above a point between two
        table knots, inside one panel of the objective."""
        eps, sigma, method = 1e-3, 0.8, QuantileMethod.EXACT
        jump = math.sqrt(QUANTILE_KNOTS[400] * QUANTILE_KNOTS[401])

        def __init__(self, factor):
            self.factor = factor
            self.smooth = GainQuantile(1e-3, 0.8, QuantileMethod.ASYMPTOTIC)

        def __call__(self, g1):
            return np.where(g1 < self.jump, 1.0, self.factor) * self.smooth(g1)

    def test_jump_inside_panel_converges(self):
        # the panel holding the jump fails its share of the tolerance and is
        # split into thirds until the estimate meets its bound
        c = cfg()
        assert avg_power_given_p1(1.0, c, 0.8,
                                  quantile=self.JumpQuantile(1.0)) \
            == pytest.approx(avg_power_given_p1(
                1.0, c, 0.8, QuantileMethod.ASYMPTOTIC), rel=1e-14)
        quantile = self.JumpQuantile(2.0)
        rule = P2Rule(c, 0.8, jensen_fallback=False, quantile=quantile)
        reference, _ = integrate.quad(
            lambda g: math.exp(-g) * float(rule(np.array([g]), 1.0)[0]),
            0.0, min(c.theta, 50.0), points=[quantile.jump],
            epsabs=0.0, epsrel=1e-12, limit=200)
        assert avg_power_given_p1(1.0, c, 0.8, quantile=quantile) \
            == pytest.approx(1.0 + reference, rel=1e-6)

    def test_nan_estimate_returns_at_once(self, monkeypatch):
        rounds = []
        rule = allocation._gauss_kronrod

        def counted(*args):
            rounds.append(args)
            return rule(*args)
        monkeypatch.setattr(allocation, "_gauss_kronrod", counted)
        val = allocation._adaptive_gauss_kronrod(
            np.array([0.0, 1.0]), lambda x: np.full((1,) + x.shape, np.nan),
            lambda total: [1e-6])
        assert np.isnan(val).all() and len(rounds) == 1

    def test_quadrature_error_when_rounds_run_out(self, monkeypatch):
        monkeypatch.setattr(allocation, "_MAX_SPLITS", 1)
        with pytest.raises(QuadratureError, match="not converged"):
            avg_power_given_p1(1.0, cfg(), 0.8,
                               quantile=self.JumpQuantile(2.0))

    def test_quadrature_error_when_panels_run_out(self, monkeypatch):
        # the first round alone holds more panels than that
        monkeypatch.setattr(allocation, "_MAX_PANELS", 2)
        with pytest.raises(QuadratureError, match="not converged"):
            avg_power_given_p1(1.0, cfg(), 0.8, QuantileMethod.ASYMPTOTIC)


class TestHighPowerOptimum:
    """At high INR rates the optimal p1 exceeds 1e12, and the numerator's
    drop at g1 ~ 1/p1, with the 1/g1 stretch of the slope above it, falls
    below 2^-14 of the table's first knot.  Halving on down to ~1/(16 p1)
    keeps the first panel below the drop; without it every panel of the
    stretch splits every round, since its estimate does not shrink with
    its width."""

    # at rate 700 (1 + g1 p1)^2 overflows where the slope is already 0,
    # which must not warn
    @pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("rate,eps", [(100.0, 1e-3), (700.0, 0.1)])
    def test_inr_weibull_converges(self, panel_cap, rate, eps):
        sol = optimal_p1_numeric(cfg(Protocol.INR, rate, eps), 0.8,
                                 QuantileMethod.WEIBULL)
        assert sol.p1 > 1e12 and math.isfinite(sol.avg_power)
        assert abs(sol.diagnostics["stationarity_residual"]) < 1e-3

    def test_inr_exact_converges(self, panel_cap, qcache):
        sol = optimal_p1_numeric(cfg(Protocol.INR, 100.0, 1e-3), 0.8,
                                 quantile=qcache.get(1e-3, 0.8))
        assert sol.p1 > 1e12 and math.isfinite(sol.avg_power)
        assert abs(sol.diagnostics["stationarity_residual"]) < 1e-3


class TestOneInBillionTarget:
    """At eps = 1e-9 the exact quantile still matches the closed forms for
    RTD; the INR gap comes from the Jensen numerator theta1."""

    @pytest.mark.parametrize("rate", [2.0, 10.0])
    def test_gap_is_inr_only(self, qcache, rate):
        q = qcache.get(1e-9, 0.8)
        rtd = cfg(Protocol.RTD, rate, 1e-9)
        inr = cfg(Protocol.INR, rate, 1e-9)
        rtd_closed = optimal_p1_closed_form(rtd, 0.8).avg_power_db
        rtd_exact = optimal_p1_numeric(rtd, 0.8, QuantileMethod.EXACT,
                                       quantile=q).avg_power_db
        assert abs(rtd_exact - rtd_closed) <= 0.01
        inr_closed = optimal_p1_closed_form(inr, 0.8).avg_power_db
        inr_asymptotic = optimal_p1_numeric(
            inr, 0.8, QuantileMethod.ASYMPTOTIC).avg_power_db
        assert abs(inr_asymptotic - inr_closed) <= 0.01
        inr_exact = optimal_p1_numeric(inr, 0.8, QuantileMethod.EXACT,
                                       quantile=q).avg_power_db
        assert inr_exact > max(inr_closed, inr_asymptotic) + 0.5

    def test_inr_exact_optimum_beyond_first_knot(self, qcache):
        # at rate 20 the optimal p1 exceeds 1e9, so the INR numerator drops
        # on a scale 1/p1 below the table's first knot
        inr = cfg(Protocol.INR, 20.0, 1e-9)
        sol = optimal_p1_numeric(inr, 0.8, QuantileMethod.EXACT,
                                 quantile=qcache.get(1e-9, 0.8))
        assert sol.p1 > 1e9
        assert sol.avg_power_db > optimal_p1_closed_form(inr, 0.8).avg_power_db


class TestClosedFormOptimum:
    def test_stationarity_identity(self):
        for rate in (0.5, 2.0, 4.0):
            for eps in (1e-5, 1e-3, 1e-1):
                sol = optimal_p1_closed_form(cfg(rate=rate, eps=eps), 0.8)
                assert abs(sol.diagnostics["stationarity_residual"]) <= 1e-9

    def test_matches_bounded_minimizer_on_closed_objective(self):
        c = cfg(rate=2.0, eps=1e-3)
        sol = optimal_p1_closed_form(c, 0.8)
        obj = lambda t: closed_form_avg_power(math.exp(t), c, 0.8)
        t = minimize_scalar(obj, bounds=(math.log(sol.p1) - 2.0,
                                         math.log(sol.p1) + 2.0),
                            method="bounded", options={"xatol": 1e-7}).x
        assert abs(10 * math.log10(math.exp(t)) - sol.p1_db) <= 0.01

    def test_inr_needs_less_power(self):
        for rate in (0.5, 2.0):
            for eps in (1e-4, 1e-2):
                rtd = optimal_p1_closed_form(cfg(Protocol.RTD, rate, eps), 0.8)
                inr = optimal_p1_closed_form(cfg(Protocol.INR, rate, eps), 0.8)
                assert inr.p1 <= rtd.p1
                assert inr.avg_power <= rtd.avg_power

    @pytest.mark.parametrize("sigma", [0.0, 1.5])
    def test_rejects_sigma_outside_unit_interval(self, sigma):
        with pytest.raises(ValueError, match="sigma must be in"):
            optimal_p1_closed_form(cfg(), sigma)
        with pytest.raises(ValueError, match="sigma must be in"):
            closed_form_avg_power(1.0, cfg(), sigma)

    def test_finite_difference_stationarity(self):
        c = cfg(rate=2.0, eps=1e-3)
        sol = optimal_p1_closed_form(c, 0.8)
        h = 1e-6 * sol.p1
        deriv = (closed_form_avg_power(sol.p1 + h, c, 0.8)
                 - closed_form_avg_power(sol.p1 - h, c, 0.8)) / (2 * h)
        assert abs(deriv) <= 1e-8

    def test_domain_error_for_infeasible_pair(self):
        # |log(1-eps)| >= sigma^2 pushes the Lambert argument out of range
        with pytest.raises(ClosedFormDomainError):
            optimal_p1_closed_form(cfg(eps=0.5), 0.8)
        with pytest.raises(ClosedFormDomainError):
            optimal_p1_closed_form(cfg(eps=1e-3), 0.02)

    def test_avg_power_decreases_with_eps(self):
        prev = math.inf
        for eps in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
            sol = optimal_p1_closed_form(cfg(eps=eps), 0.8)
            assert sol.avg_power < prev
            prev = sol.avg_power

    def test_avg_power_decreases_with_sigma(self):
        for protocol in (Protocol.RTD, Protocol.INR):
            for rate, eps in ((0.5, 1e-2), (2.0, 1e-3)):
                values = [optimal_p1_closed_form(
                    cfg(protocol, rate, eps), s).avg_power
                    for s in np.linspace(0.3, 1.0, 8)]
                assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


class TestNumericOptimum:
    @pytest.mark.parametrize("rate", [0.5, 2.0])
    @pytest.mark.parametrize("eps", [1e-5, 1e-3, 1e-1])
    def test_agrees_with_closed_form_under_asymptotic_rule(self, rate, eps):
        c = cfg(rate=rate, eps=eps)
        closed = optimal_p1_closed_form(c, 0.8)
        numeric = optimal_p1_numeric(c, 0.8, QuantileMethod.ASYMPTOTIC)
        assert abs(numeric.p1_db - closed.p1_db) <= 0.05
        assert abs(numeric.avg_power_db - closed.avg_power_db) <= 0.01

    def test_unimodality_audit(self, qcache):
        c = cfg(rate=2.0, eps=1e-3)
        q = qcache.get(1e-3, 0.8)
        sol = optimal_p1_numeric(c, 0.8, QuantileMethod.EXACT, quantile=q)
        check_one_grid_minimum(sol, c, 0.8, QuantileMethod.EXACT, quantile=q)

    def test_exact_optimum_dominates_other_rules(self, qcache):
        # evaluating any other rule's optimizer under the exact objective
        # cannot beat the exact optimizer
        c = cfg(rate=2.0, eps=1e-3)
        q = qcache.get(1e-3, 0.8)
        exact = optimal_p1_numeric(c, 0.8, QuantileMethod.EXACT, quantile=q)
        for method in (QuantileMethod.WEIBULL, QuantileMethod.ASYMPTOTIC):
            other = optimal_p1_numeric(c, 0.8, method)
            other_under_exact = avg_power_given_p1(other.p1, c, 0.8,
                                                   QuantileMethod.EXACT,
                                                   quantile=q)
            assert exact.avg_power <= other_under_exact * (1.0 + 1e-6)

    def test_scan_floor_is_no_optimum(self):
        # |log(1-eps)|/sigma^2 >= 1: the asymptotic objective rises from
        # p1 = 0 with slope 1 - sigma^2/|log(1-eps)|, so its minimizer lies
        # under the search floor
        c = cfg(rate=2.0, eps=0.1)
        with pytest.raises(ClosedFormDomainError):
            optimal_p1_closed_form(c, 0.3)
        with pytest.raises(BracketError, match="still falling at p1=0.001"):
            optimal_p1_numeric(c, 0.3, QuantileMethod.ASYMPTOTIC)

    def test_bound_below_scan_floor(self):
        # the average power at theta/(-log(1-eps)) is 1.8e-4, so the
        # minimizer (4.2e-5 by the closed form) lies under the search floor
        c = cfg(rate=1e-4, eps=0.5)
        assert optimal_p1_closed_form(c, 1.0).p1 < 1e-4
        with pytest.raises(BracketError, match="still falling at p1=0.001"):
            optimal_p1_numeric(c, 1.0, QuantileMethod.ASYMPTOTIC)

    def test_non_finite_average_power(self, monkeypatch):
        integral = allocation._integral

        def nan_average(rule, integrand, p1, base):
            # the average power integrates the rule, the slope rule.slope
            return (math.nan if integrand is rule
                    else integral(rule, integrand, p1, base))
        monkeypatch.setattr(allocation, "_integral", nan_average)
        with pytest.raises(BracketError, match="not finite"):
            optimal_p1_numeric(cfg(), 0.8, QuantileMethod.ASYMPTOTIC)

    @pytest.mark.filterwarnings("error")
    def test_infinite_bound_is_a_bracket_error(self):
        # -log(1 - 5e-324) is 5e-324, so theta over it, the provable bound,
        # overflows; no 0 * inf warning on the way
        with pytest.raises(BracketError, match="not finite at p1=inf"):
            optimal_p1_numeric(cfg(eps=5e-324), 0.8, QuantileMethod.ASYMPTOTIC)

    @pytest.mark.parametrize("prebuilt", [False, True])
    @pytest.mark.parametrize("method", list(QuantileMethod))
    def test_builds_one_table_per_solve(self, qcache, monkeypatch, method,
                                        prebuilt):
        # the slope and every average power of a solve share one table:
        # the one passed in, or else the one its rule builds
        built = []

        def counting(eps, sigma, method):
            built.append(method)
            return qcache.get(eps, sigma, method)
        monkeypatch.setattr(harq, "GainQuantile", counting)
        q = qcache.get(1e-3, 0.8, method) if prebuilt else None
        for protocol in Protocol:
            built.clear()
            optimal_p1_numeric(cfg(protocol), 0.8, method, quantile=q)
            assert built == ([] if prebuilt else [method])


class TestSlope:
    """The slope the optimizer solves for: d avg/d p1 = 1 + the integral of
    e^-g1 dP2/dp1 over the same panels as the objective."""

    @pytest.mark.parametrize("method", list(QuantileMethod))
    @pytest.mark.parametrize("protocol", [Protocol.RTD, Protocol.INR])
    def test_matches_central_difference(self, qcache, protocol, method):
        c = cfg(protocol=protocol)
        q = qcache.get(1e-3, 0.8, method)
        rule = P2Rule(c, 0.8, method, jensen_fallback=False, quantile=q)
        p_opt = optimal_p1_numeric(c, 0.8, method, quantile=q).p1
        for p1 in (0.5 * p_opt, p_opt, 2.0 * p_opt):
            slope = 1.0 + allocation._integral(rule, rule.slope, p1, 1.0)
            h = 1e-4 * p1
            lo, hi = (avg_power_given_p1(p, c, 0.8, method, quantile=q)
                      for p in (p1 - h, p1 + h))
            assert slope == pytest.approx((hi - lo) / (2.0 * h), abs=1e-6)

    def test_integrals_diagnostic_counts_every_power(self, monkeypatch):
        calls = []
        integral = allocation._integral

        def counting(rule, integrand, p1, base):
            calls.append(p1)
            return integral(rule, integrand, p1, base)
        monkeypatch.setattr(allocation, "_integral", counting)
        for protocol in (Protocol.RTD, Protocol.INR):
            calls.clear()
            sol = optimal_p1_numeric(cfg(protocol), 0.8,
                                     QuantileMethod.ASYMPTOTIC)
            assert sol.diagnostics["integrals"] == len(calls) >= 3


def check_one_grid_minimum(sol, c, sigma, method, quantile=None):
    """The convexity the optimizer relies on, audited: a 200-point log scan
    from 1e-3 to the provable bound has exactly one interior local minimum,
    and its grid cell holds the optimizer's p1."""
    anchor = c.theta / -math.log1p(-c.eps)
    bound = avg_power_given_p1(anchor, c, sigma, method, quantile=quantile)
    assert sol.p1 <= bound
    ps = np.geomspace(1e-3, bound, 200)
    ys = np.array([avg_power_given_p1(p1, c, sigma, method, quantile=quantile)
                   for p1 in ps.tolist()])
    minima = np.flatnonzero((ys[1:-1] < ys[:-2]) & (ys[1:-1] < ys[2:])) + 1
    assert minima.size == 1
    assert ps[minima[0] - 1] <= sol.p1 <= ps[minima[0] + 1]


class TestProvableBracket:
    """P2 >= 0 gives avg(p1) >= p1, so every minimizer lies below the
    average power at the no-retransmission power, where the search ends."""

    @staticmethod
    def check(c, sigma, method, quantile=None):
        sol = optimal_p1_numeric(c, sigma, method, quantile=quantile)
        check_one_grid_minimum(sol, c, sigma, method, quantile=quantile)
        # slope of log avg in log p1 at the returned p1
        assert abs(sol.diagnostics["stationarity_residual"]) <= 1e-3

    @pytest.mark.parametrize("method", [QuantileMethod.ASYMPTOTIC,
                                        QuantileMethod.WEIBULL])
    @pytest.mark.parametrize("protocol", [Protocol.RTD, Protocol.INR])
    def test_closed_form_quantiles(self, method, protocol):
        for sigma in (0.3, 0.8, 1.0):
            for eps in (1e-9, 1e-3):
                for rate in (0.5, 20.0):
                    self.check(cfg(protocol, rate, eps), sigma, method)

    @pytest.mark.parametrize("protocol", [Protocol.RTD, Protocol.INR])
    def test_exact_table(self, qcache, protocol):
        self.check(cfg(protocol, 2.0, 1e-3), 0.8, QuantileMethod.EXACT,
                   quantile=qcache.get(1e-3, 0.8))


class TestRtdThetaScaling:
    """RTD's round-two power (theta - g1 p1)/q(g1) makes the objective
    theta (u + integral over [0, 1/u] of e^-g1 (1 - g1 u)/q(g1)) with
    u = p1/theta, so the optimal p1/theta and avg/theta do not depend on
    the rate."""

    RATES = (0.5, 2.0, 10.0, 20.0)

    @staticmethod
    def spread_db(values):
        db = [10.0 * math.log10(v) for v in values]
        return max(db) - min(db)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    @pytest.mark.parametrize("method", list(QuantileMethod))
    def test_numeric_optimum(self, qcache, method, eps):
        quantile = qcache.get(eps, 0.8, method)
        p1, avg = [], []
        for rate in self.RATES:
            c = cfg(rate=rate, eps=eps)
            sol = optimal_p1_numeric(c, 0.8, method, quantile=quantile)
            p1.append(sol.p1 / c.theta)
            avg.append(sol.avg_power / c.theta)
        assert self.spread_db(avg) <= 1e-6
        # brentq stops within 1e-3 dB of the root, from a bracket whose
        # floor does not scale with theta
        assert self.spread_db(p1) <= 2e-3

    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    def test_closed_form(self, eps):
        cfgs = [cfg(rate=rate, eps=eps) for rate in self.RATES]
        sols = [optimal_p1_closed_form(c, 0.8) for c in cfgs]
        for field in ("p1", "avg_power"):
            assert self.spread_db([getattr(s, field) / c.theta
                                   for s, c in zip(sols, cfgs)]) <= 1e-12


@pytest.mark.parametrize("protocol", [Protocol.RTD, Protocol.INR])
def test_numeric_optimum_exists_exactly_in_closed_form_domain(protocol):
    """With the ASYMPTOTIC quantile the slope of the average power tends,
    as p1 -> 0, to 1 - sigma^2/|log(1-eps)|, negative exactly inside the
    closed form's domain.  At rate >= 0.05, theta1/1e-3 >= 50.6 >= G_MAX,
    so at the 1e-3 floor the slope integral of either protocol runs over
    all of [0, G_MAX], and what it cuts off weighs at most the integral of
    g e^-g beyond G_MAX, 51 e^-50 (times 1/(sigma^2 |log(1-eps)|)): the
    numeric route raises BracketError exactly where the closed form raises
    ClosedFormDomainError.  Cases within 1e-9 of the domain's edge are
    skipped."""
    cases = outside = 0
    mismatches = []
    for sigma in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        for eps in (1e-6, 1e-4, 1e-2, 0.1, 0.2, 0.3, 0.4, 0.5):
            ratio = -math.log1p(-eps) / sigma**2
            if abs(ratio - 1.0) <= 1e-9:
                continue
            for rate in (0.05, 0.3, 1.0, 4.0, 20.0):
                c = cfg(protocol, rate, eps)
                try:
                    optimal_p1_closed_form(c, sigma)
                    closed = True
                except ClosedFormDomainError:
                    closed = False
                try:
                    optimal_p1_numeric(c, sigma, QuantileMethod.ASYMPTOTIC)
                    numeric = True
                except BracketError:
                    numeric = False
                cases += 1
                outside += not closed
                if closed != numeric:
                    mismatches.append((sigma, eps, rate))
    assert mismatches == []
    assert outside >= cases / 5


@pytest.mark.parametrize("sigma", [0.0224, 0.3, 0.8, 1.0])
@pytest.mark.parametrize("eps", [1e-9, 1e-5, 1e-3, 1e-1])
def test_numeric_asymptotic_matches_closed_form_on_grid(sigma, eps):
    # both routes minimize the same objective, so they agree wherever the
    # closed form exists, and the numeric route finds no interior minimum
    # exactly where it does not (|log(1-eps)|/sigma^2 >= 1)
    in_domain = -math.log1p(-eps) / sigma**2 < 1.0
    for protocol in (Protocol.RTD, Protocol.INR):
        for rate in (0.5, 2.0, 4.0, 20.0):
            c = cfg(protocol, rate, eps)
            if in_domain:
                closed = optimal_p1_closed_form(c, sigma)
                numeric = optimal_p1_numeric(c, sigma,
                                             QuantileMethod.ASYMPTOTIC)
                assert abs(numeric.avg_power_db
                           - closed.avg_power_db) <= 1e-8
            else:
                with pytest.raises(ClosedFormDomainError):
                    optimal_p1_closed_form(c, sigma)
                with pytest.raises(BracketError,
                                   match="still falling at p1=0.001"):
                    optimal_p1_numeric(c, sigma, QuantileMethod.ASYMPTOTIC)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_numeric_weibull_solves_near_antenna_alignment(protocol):
    # at sigma = 0.0224 the Weibull scale underflows from g1 ~ 0.16, inside
    # a quadrature panel, and the round-two power drops to 0 there: the
    # panel is split until the drop is resolved, and the optimum's average
    # power matches quad's integral at its p1, with the drop as a break
    # point (README, Known limitations)
    sigma = 0.0224
    for eps in (1e-5, 1e-3, 1e-1):
        quantile = GainQuantile(eps, sigma, QuantileMethod.WEIBULL)
        drop = brentq(lambda g: np.isinf(quantile(g)) - 0.5, 1e-3, 1.0,
                      xtol=1e-15)
        for rate in (0.5, 2.0, 20.0):
            c = cfg(protocol, rate, eps)
            solution = optimal_p1_numeric(c, sigma, QuantileMethod.WEIBULL)
            p1 = solution.p1
            rule = P2Rule(c, sigma, QuantileMethod.WEIBULL,
                          jensen_fallback=False)
            hi = min(c.theta / p1, 50.0)
            reference, _ = integrate.quad(
                lambda g: math.exp(-g) * float(rule(np.array([g]), p1)[0]),
                0.0, hi, points=[drop] if drop < hi else None,
                epsabs=0.0, epsrel=1e-10, limit=400)
            assert solution.avg_power == pytest.approx(p1 + reference,
                                                       rel=1e-6)
