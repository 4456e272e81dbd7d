import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paharq.channel import QUANTILE_KNOTS, QuantileMethod, cond_cdf_g2
from paharq.harq import HarqConfig, P2Rule, Protocol, p2_inr, p2_rtd, theta, theta1


class TestThresholds:
    def test_theta_values(self):
        assert theta(0.0) == 0.0
        assert theta(2.0) == pytest.approx(6.38905609893065, rel=1e-14)
        assert theta(4.0) == pytest.approx(53.598150033144236, rel=1e-14)

    def test_theta1_values(self):
        assert theta1(0.0) == 0.0
        assert theta1(2.0) == pytest.approx(2.0 * (math.e - 1.0), rel=1e-14)

    @given(st.floats(min_value=0.0, max_value=10.0))
    def test_theta1_below_theta(self, rate):
        assert theta1(rate) <= theta(rate) + 1e-14

    @pytest.mark.parametrize("fn,rate", [(theta, 710.0), (theta, 800.0),
                                         (theta, math.inf),
                                         (theta1, 1419.0), (theta1, 1420.0)])
    def test_overflowing_threshold_rejected(self, fn, rate):
        with pytest.raises(ValueError, match=f"^rate {rate} is too large"):
            fn(rate)

    @pytest.mark.parametrize("fn", [theta, theta1])
    def test_nan_rate_rejected(self, fn):
        with pytest.raises(ValueError, match="^rate must be >= 0, got nan$"):
            fn(math.nan)

    def test_largest_rates_keep_finite_thresholds(self):
        assert math.isfinite(theta(709.0))
        assert math.isfinite(theta1(1418.0))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HarqConfig(Protocol.RTD, rate=0.0, eps=1e-3)
        with pytest.raises(ValueError):
            HarqConfig(Protocol.RTD, rate=1.0, eps=0.0)
        with pytest.raises(ValueError, match="^rate 800.0 is too large"):
            HarqConfig(Protocol.INR, rate=800.0, eps=1e-3)  # no threshold

    @pytest.mark.parametrize("field", ["rate", "eps"])
    def test_nan_field_rejected(self, field):
        values = dict(rate=1.0, eps=1e-3)
        values[field] = math.nan
        with pytest.raises(ValueError, match=f"^{field} must be"):
            HarqConfig(Protocol.RTD, **values)

    def test_nan_gain_rejected_by_pointwise_rules(self):
        cfg = HarqConfig(Protocol.RTD, rate=1.0, eps=1e-3)
        with pytest.raises(ValueError, match="^g1 must be >= 0"):
            p2_rtd(math.nan, 1.0, cfg, 0.8)

    @pytest.mark.parametrize("fn", [p2_rtd, p2_inr])
    @pytest.mark.parametrize("p1", [0.0, -1.0, math.nan])
    def test_nonpositive_p1_rejected_by_pointwise_rules(self, fn, p1):
        cfg = HarqConfig(Protocol.RTD, rate=1.0, eps=1e-3)
        with pytest.raises(ValueError, match=f"^p1 must be > 0, got {p1}$"):
            fn(0.1, p1, cfg, 0.8)


# the round-one power of every rule below
P1 = 2.0
CFG_RTD = HarqConfig(Protocol.RTD, rate=2.0, eps=1e-3)
CFG_INR = HarqConfig(Protocol.INR, rate=2.0, eps=1e-3)


class TestP2Rtd:
    def test_zero_once_decoded(self):
        g_edge = CFG_RTD.theta / P1
        assert p2_rtd(g_edge, P1, CFG_RTD, 0.8) == 0.0
        assert p2_rtd(g_edge + 1.0, P1, CFG_RTD, 0.8) == 0.0

    def test_sigma_one_closed_form(self):
        g1 = 0.5
        expected = (CFG_RTD.theta - g1 * P1) / (-math.log1p(-CFG_RTD.eps))
        p2 = p2_rtd(g1, P1, CFG_RTD, 1.0, QuantileMethod.EXACT)
        assert p2 == pytest.approx(expected, rel=1e-9)

    def test_asymptotic_tracks_exact(self):
        pe = p2_rtd(0.5, P1, CFG_RTD, 0.8, QuantileMethod.EXACT)
        pa = p2_rtd(0.5, P1, CFG_RTD, 0.8, QuantileMethod.ASYMPTOTIC)
        assert pe == pytest.approx(6353.024865926266, rel=1e-9)
        assert pa == pytest.approx(pe, rel=1e-4)

    def test_outage_closure(self):
        # with the exact quantile, the retransmission outage equals eps
        for g1 in (0.0, 0.5, 1.5, 3.0):
            p2 = p2_rtd(g1, P1, CFG_RTD, 0.8, QuantileMethod.EXACT)
            if p2 == 0.0:
                continue
            gap = CFG_RTD.theta - g1 * P1
            assert cond_cdf_g2(gap / p2, g1, 0.8) == pytest.approx(
                CFG_RTD.eps, abs=1e-9)

    def test_nonincreasing_in_g1(self):
        g = np.linspace(0.0, CFG_RTD.theta / P1 * 0.999, 40)
        vals = [p2_rtd(float(x), P1, CFG_RTD, 0.8) for x in g]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


class TestP2Inr:
    def test_zero_once_decoded(self):
        g_edge = CFG_INR.theta / P1
        assert p2_inr(g_edge, P1, CFG_INR, 0.8) == 0.0

    def test_sigma_one_closed_form(self):
        g1 = 0.5
        expected = (math.exp(CFG_INR.rate) / (1.0 + g1 * P1) - 1.0) \
            / (-math.log1p(-CFG_INR.eps))
        p2 = p2_inr(g1, P1, CFG_INR, 1.0, QuantileMethod.EXACT)
        assert p2 == pytest.approx(expected, rel=1e-9)

    def test_outage_closure(self):
        for g1 in (0.0, 0.5, 1.5, 3.0):
            p2 = p2_inr(g1, P1, CFG_INR, 0.8, QuantileMethod.EXACT)
            if p2 == 0.0:
                continue
            gap = (CFG_INR.theta - g1 * P1) / (1.0 + g1 * P1)
            assert cond_cdf_g2(gap / p2, g1, 0.8) == pytest.approx(
                CFG_INR.eps, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=4.0))
    def test_never_above_rtd(self, g1):
        assert (p2_inr(g1, P1, CFG_INR, 0.8)
                <= p2_rtd(g1, P1, CFG_RTD, 0.8) + 1e-12)

    def test_jensen_fallback_behaviour(self):
        # inside the failed region but past the simplified threshold
        g1 = (CFG_INR.theta1 / P1 + CFG_INR.theta / P1) / 2.0
        with_fb = p2_inr(g1, P1, CFG_INR, 0.8, QuantileMethod.ASYMPTOTIC,
                         jensen_fallback=True)
        without = p2_inr(g1, P1, CFG_INR, 0.8, QuantileMethod.ASYMPTOTIC,
                         jensen_fallback=False)
        assert without == 0.0
        assert with_fb > 0.0
        from paharq.channel import inv_cond_cdf_g2
        exact_num = (CFG_INR.theta - g1 * P1) / (1.0 + g1 * P1)
        expected = exact_num / inv_cond_cdf_g2(CFG_INR.eps, g1, 0.8,
                                               QuantileMethod.ASYMPTOTIC)
        assert with_fb == pytest.approx(expected, rel=1e-12)


class TestP2Rule:
    def test_matches_scalar_functions(self, qcache):
        q = qcache.get(1e-3, 0.8)
        rule_r = P2Rule(CFG_RTD, 0.8, QuantileMethod.EXACT, quantile=q)
        rule_i = P2Rule(CFG_INR, 0.8, QuantileMethod.EXACT, quantile=q)
        g = np.array([0.0, 0.4, 1.0, 2.5, 4.0])
        vr = rule_r(g, P1)
        vi = rule_i(g, P1)
        for i, g1 in enumerate(g):
            assert vr[i] == pytest.approx(
                p2_rtd(float(g1), P1, CFG_RTD, 0.8), rel=3e-5)
            assert vi[i] == pytest.approx(
                p2_inr(float(g1), P1, CFG_INR, 0.8), rel=3e-5)

    @pytest.mark.parametrize("jensen_fallback", [True, False])
    @pytest.mark.parametrize("method", [QuantileMethod.WEIBULL,
                                        QuantileMethod.ASYMPTOTIC])
    def test_closed_form_rules_equal_scalar_functions(self, method,
                                                      jensen_fallback):
        # from below theta1/p1 through the Jensen fallback region to past
        # theta/p1, where round one decodes
        g = np.array([0.0, 0.4, 1.0, 1.6, 2.0, 2.5, 3.0, 3.2, 4.0])
        for cfg, scalar in (
                (CFG_RTD, lambda x: p2_rtd(x, P1, CFG_RTD, 0.8, method)),
                (CFG_INR, lambda x: p2_inr(x, P1, CFG_INR, 0.8, method,
                                           jensen_fallback))):
            rule = P2Rule(cfg, 0.8, method, jensen_fallback=jensen_fallback)
            np.testing.assert_array_equal(rule(g, P1),
                                          [scalar(float(x)) for x in g])

    def test_exact_rule_matches_scalar_functions_at_table_knots(self, qcache):
        # at its knots the table reproduces the Brent inverse to rounding
        # (at and below the first knot it returns the g1 = 0 quantile)
        q = qcache.get(1e-3, 0.8)
        g = QUANTILE_KNOTS[1::32]
        for cfg, fn in ((CFG_RTD, p2_rtd), (CFG_INR, p2_inr)):
            rule = P2Rule(cfg, 0.8, QuantileMethod.EXACT, quantile=q)
            np.testing.assert_allclose(rule(g, P1),
                                       [fn(float(x), P1, cfg, 0.8) for x in g],
                                       rtol=1e-12, atol=0.0)

    def test_nonnegative_and_zero_past_threshold(self, qcache):
        q = qcache.get(1e-3, 0.8)
        rule = P2Rule(CFG_RTD, 0.8, QuantileMethod.EXACT, quantile=q)
        g = np.linspace(0.0, 10.0, 101)
        p2 = rule(g, P1)
        assert np.all(p2 >= 0.0)
        assert np.all(p2[g >= CFG_RTD.theta / P1] == 0.0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", list(QuantileMethod))
    @pytest.mark.parametrize("cfg", [CFG_RTD, CFG_INR], ids=["rtd", "inr"])
    def test_decoded_gains_spend_nothing(self, qcache, cfg, method):
        # the numerator is negative past theta/p1 and NaN at g1 = inf
        # (INR's inf/inf); every rule and pointwise function spends 0 there
        q = qcache.get(1e-3, 0.8) if method is QuantileMethod.EXACT else None
        g = np.array([cfg.theta / P1, 4.0, 50.0, math.inf])
        fn = p2_rtd if cfg is CFG_RTD else p2_inr
        for fallback in (True, False):
            rule = P2Rule(cfg, 0.8, method, jensen_fallback=fallback,
                          quantile=q)
            assert np.all(rule(g, P1) == 0.0)
            assert np.all(rule.slope(g, P1) == 0.0)
            mask = rule.jensen_fallback_mask(g, P1)
            assert isinstance(mask, np.ndarray) and mask.shape == g.shape
            assert not mask.any()
        assert all(fn(float(x), P1, cfg, 0.8, method) == 0.0 for x in g)

    def test_fallback_mask_only_for_inr_asymptotic(self):
        g = np.array([1.6, 2.0, 2.5])  # between theta1/p1 and theta/p1
        rule = P2Rule(CFG_INR, 0.8, QuantileMethod.ASYMPTOTIC)
        assert rule.jensen_fallback_mask(g, P1).any()
        rule_exact = P2Rule(CFG_INR, 0.8, QuantileMethod.EXACT,
                            quantile=None)
        assert not rule_exact.jensen_fallback_mask(g, P1).any()

    @pytest.mark.parametrize("method", [QuantileMethod.ASYMPTOTIC,
                                        QuantileMethod.WEIBULL])
    def test_jensen_numerator_only_for_inr_asymptotic(self, method):
        for cfg in (CFG_RTD, CFG_INR):
            rule = P2Rule(cfg, 0.8, method)
            assert rule.jensen == (cfg is CFG_INR
                                   and method is QuantileMethod.ASYMPTOTIC)

    def test_mismatched_table_rejected(self, qcache):
        q = qcache.get(1e-3, 0.8)
        with pytest.raises(ValueError):
            P2Rule(HarqConfig(Protocol.RTD, 2.0, 1e-2), 0.8,
                   QuantileMethod.EXACT, quantile=q)

    def test_asymptotic_reduces_to_exact_at_sigma_one(self):
        rule_a = P2Rule(CFG_RTD, 1.0, QuantileMethod.ASYMPTOTIC)
        rule_e = P2Rule(CFG_RTD, 1.0, QuantileMethod.EXACT)
        g = np.linspace(0.0, 3.0, 7)
        np.testing.assert_allclose(rule_a(g, P1), rule_e(g, P1), rtol=1e-6)
