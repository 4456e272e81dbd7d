import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, optimize, special as sp
from scipy.stats import ncx2

from paharq import allocation, benchmarks, special
from paharq.channel import QuantileMethod
from paharq.harq import HarqConfig, Protocol
from paharq.special import (
    bessel_i,
    brentq,
    inv_marcum_q1,
    inv_marcum_q1_asymptotic,
    lambert_w,
    marcum_q1,
    marcum_q1_weibull,
)

# outage-scale tails, the median and near-certain quantiles up to two ulps
# below 1
_BRACKET_PS = [1e-300, 1e-12, 1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-9,
               1.0 - 2.0**-52]


def marcum_q1_quadrature(s: float, rho: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    f = lambda x: x * np.exp(-0.5 * (x - s) ** 2) * sp.i0e(x * s)
    hi = max(rho, s) + 14.0
    val, _ = integrate.quad(f, rho, hi, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


class TestBesselI:
    def test_at_origin(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0
        assert bessel_i(5, 0.0) == 0.0

    def test_series_value(self):
        # truncated power series summed to machine precision
        half = 1.0
        term, total = 1.0, 1.0
        for i in range(1, 60):
            term *= half * half / (i * i)
            total += term
        assert bessel_i(0, 2.0) == pytest.approx(total, rel=1e-14)
        assert bessel_i(0, 2.0) == pytest.approx(2.2795853023360673, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 59.0, 61.0, 200.0, 700.0])
    def test_against_scipy(self, n, x):
        assert bessel_i(n, x) == pytest.approx(float(sp.iv(n, x)), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    @pytest.mark.parametrize("x", [5e-324, 1e-310, 1.1125369292536007e-308,
                                   1e-154, 1e-9])
    def test_tiny_argument_is_the_leading_term(self, n, x):
        # scipy's iv gives nan at subnormal x and 0 at I_1(1e-154); there
        # I_n(x) is (x/2)^n/n! to the last bit, here computed exactly
        lead = float(Fraction(x) ** n / (2**n * math.factorial(n)))
        assert bessel_i(n, x) == pytest.approx(lead, rel=1e-15, abs=0.0)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            bessel_i(0, 800.0)

    def test_branch_seam_consistent(self):
        assert bessel_i(1, 60.0) == pytest.approx(bessel_i(1, 60.0 + 1e-12), rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_order_zero_at_least_one(self, x):
        assert bessel_i(0, x) >= 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bessel_i(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_i(0, -1.0)


class TestMarcumQ1:
    def test_boundary_values(self):
        assert marcum_q1(0.0, 0.0) == 1.0
        assert marcum_q1(3.0, 0.0) == 1.0
        assert marcum_q1(0.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-14)

    def test_against_quadrature_oracle(self):
        assert marcum_q1(1.0, 1.0) == pytest.approx(0.7328798037968203, abs=1e-10)
        for s, rho in [(0.5, 2.0), (2.0, 0.5), (3.0, 3.0), (5.0, 1.0), (1.0, 5.0)]:
            assert marcum_q1(s, rho) == pytest.approx(
                marcum_q1_quadrature(s, rho), abs=1e-10)

    def test_quadrature_agreement_on_grid(self):
        # series and integral evaluations agree to 1e-9 on [0, 6]^2
        for s in np.linspace(0.0, 6.0, 7):
            for rho in np.linspace(0.0, 6.0, 7):
                assert marcum_q1(s, rho) == pytest.approx(
                    marcum_q1_quadrature(s, rho), abs=1e-9)

    def test_matches_noncentral_chi_square_tail(self):
        for s, rho in [(0.7, 1.3), (4.0, 4.5), (6.0, 2.0), (20.0, 21.0)]:
            assert marcum_q1(s, rho) == pytest.approx(
                float(ncx2.sf(rho * rho, 2, s * s)), rel=1e-11, abs=1e-13)

    def test_far_tail(self):
        for s in (0.0, 2.0, 5.0):
            assert marcum_q1(s, 50.0) < 1e-12

    @given(st.floats(min_value=0.0, max_value=6.0),
           st.floats(min_value=0.0, max_value=6.0),
           st.floats(min_value=1e-3, max_value=2.0))
    def test_monotone_decreasing_in_rho(self, s, rho, drho):
        assert marcum_q1(s, rho) >= marcum_q1(s, rho + drho) - 1e-12

    @given(st.floats(min_value=0.0, max_value=6.0),
           st.floats(min_value=0.0, max_value=6.0),
           st.floats(min_value=1e-3, max_value=2.0))
    def test_monotone_increasing_in_s(self, s, rho, ds):
        assert marcum_q1(s + ds, rho) >= marcum_q1(s, rho) - 1e-12

    @pytest.mark.parametrize("s", [1e5, 1e300])
    def test_unconverged_series_is_a_value_error(self, s):
        # scipy's ive has no value at s * rho above ~1.07e9
        with pytest.raises(ValueError, match=re.escape(f"s={s}, rho={s}")):
            marcum_q1(s, s)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, math.inf)


class TestMarcumWeibullFit:
    def test_fit_values(self):
        # quartic parameters at s=0: -0.840 and 2.174
        assert marcum_q1_weibull(0.0, 1.0) == pytest.approx(
            math.exp(-math.exp(-0.840)), rel=1e-12)
        # at s=1 the quartics sum to -1.174 and 2.088
        assert marcum_q1_weibull(1.0, 1.0) == pytest.approx(
            math.exp(-math.exp(-1.174)), rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=6.0))
    def test_unit_at_rho_zero(self, s):
        assert marcum_q1_weibull(s, 0.0) == 1.0

    @given(st.floats(min_value=0.0, max_value=6.0),
           st.floats(min_value=0.0, max_value=10.0))
    def test_stays_in_unit_interval(self, s, rho):
        assert 0.0 <= marcum_q1_weibull(s, rho) <= 1.0

    def test_rejects_nan(self):
        for s, rho in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                marcum_q1_weibull(s, rho)


class TestInverseMarcum:
    def test_rayleigh_inverse(self):
        assert inv_marcum_q1(0.0, math.exp(-2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        assert inv_marcum_q1(2.0, 0.999) == pytest.approx(
            0.1213426789760658, abs=1e-10)

    @pytest.mark.parametrize("s", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_roundtrip(self, s, p):
        assert marcum_q1(s, inv_marcum_q1(s, p)) == pytest.approx(p, abs=1e-10)

    def test_roundtrip_grid(self):
        for s in np.linspace(0.0, 6.0, 7):
            for p in (1e-6, 1e-3, 0.3, 0.7, 1.0 - 1e-3, 1.0 - 1e-6):
                rho = inv_marcum_q1(s, p)
                assert abs(marcum_q1(s, rho) - p) <= 1e-9

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            inv_marcum_q1(1.0, 0.0)
        with pytest.raises(ValueError):
            inv_marcum_q1(1.0, 1.0)

    def test_rejects_nan_s(self):
        with pytest.raises(ValueError, match="s must be >= 0"):
            inv_marcum_q1(math.nan, 0.5)

    @pytest.mark.parametrize("p", _BRACKET_PS)
    def test_first_bracket_holds_the_root(self, p):
        # the Simon-Alouini bounds the docstring cites, checked in floats:
        # Q1 is above p at the low end and below it at the high end
        t = math.sqrt(2.0 * math.log(2.0 / min(p, 1.0 - p))) + 2.0
        for s in np.concatenate(([0.0], np.geomspace(1e-6, 3e3, 60))):
            s = float(s)
            assert marcum_q1(s, max(s - t, 0.0)) > p
            assert marcum_q1(s, s + t) < p

    @pytest.mark.parametrize("s,p", [(0.0, 0.5), (0.3, 1e-3), (2.0, 0.999),
                                     (40.0, 1.0 - 1e-9), (3e3, 1e-12)])
    def test_no_rho_evaluated_twice(self, monkeypatch, s, p):
        seen = []

        def recording(s, rho):
            seen.append(rho)
            return marcum_q1(s, rho)

        monkeypatch.setattr(special, "marcum_q1", recording)
        rho = inv_marcum_q1(s, p)
        assert rho in seen
        assert len(seen) == len(set(seen))


def _twin_brentq(monkeypatch, module):
    """Make `module` solve each root with both the package's brentq and
    scipy's, on the same function and arguments, and record the pairs."""
    pairs = []

    def both(f, a, b, **kwargs):
        ours = brentq(f, a, b, **kwargs)
        pairs.append((ours, optimize.brentq(f, a, b, **kwargs)))
        return ours

    monkeypatch.setattr(module, "brentq", both)
    return pairs


class TestBrentq:
    """The port of scipy's C brentq takes the same steps, so every root the
    package solves has the bits scipy's would give it."""

    def test_marcum_inversions_equal_scipy(self, monkeypatch):
        pairs = _twin_brentq(monkeypatch, special)
        for s in np.linspace(0.0, 30.0, 7):
            for q in np.geomspace(1e-9, 0.5, 7):
                inv_marcum_q1(float(s), 1.0 - float(q))
        assert len(pairs) == 49
        assert all(ours == ref for ours, ref in pairs), pairs

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("method", [QuantileMethod.EXACT,
                                        QuantileMethod.ASYMPTOTIC,
                                        QuantileMethod.WEIBULL])
    def test_optimizer_slope_roots_equal_scipy(self, monkeypatch, qcache,
                                               protocol, method):
        pairs = _twin_brentq(monkeypatch, allocation)
        quantile = qcache.get(1e-3, 0.8, method)
        for rate in (0.5, 2.0, 10.0):
            allocation.optimal_p1_numeric(HarqConfig(protocol, rate, 1e-3),
                                          0.8, method, quantile=quantile)
        assert len(pairs) == 3
        assert all(ours == ref for ours, ref in pairs), pairs

    def test_open_loop_round_powers_equal_scipy(self, monkeypatch):
        pairs = _twin_brentq(monkeypatch, benchmarks)
        for protocol in Protocol:
            for eps in (1e-4, 1e-2, 0.1):
                for rate in (0.5, 2.0):
                    for sigma in (0.3, 0.8, 1.0):
                        benchmarks.open_loop_round_power(eps, rate, sigma,
                                                         protocol)
        assert len(pairs) == 36
        assert all(ours == ref for ours, ref in pairs), pairs

    @pytest.mark.parametrize("f,maxiter,error", [
        (lambda x: x * x + 1.0, 100, ValueError),          # no sign change
        (lambda x: math.nan if x > 0.5 else x - 0.7, 100, ValueError),
        (lambda x: x - 0.3, 2, RuntimeError),
    ], ids=["sign", "nan", "maxiter"])
    def test_errors_match_scipy(self, f, maxiter, error):
        for solve in (brentq, optimize.brentq):
            with pytest.raises(error):
                solve(f, -1.0, 1.0, xtol=1e-300, maxiter=maxiter)

    def test_rejects_nonpositive_xtol(self):
        with pytest.raises(ValueError, match="too small"):
            brentq(lambda x: x, -1.0, 1.0, xtol=0.0)


class TestInverseMarcumAsymptotic:
    def test_rejects_nan_s(self):
        with pytest.raises(ValueError, match="s must be >= 0"):
            inv_marcum_q1_asymptotic(math.nan, 1e-3)

    def test_exact_at_s_zero(self):
        assert inv_marcum_q1_asymptotic(0.0, 1.0 - math.exp(-2.0)) == \
            pytest.approx(2.0, rel=1e-12)

    def test_small_quantile_value(self):
        assert inv_marcum_q1_asymptotic(2.0, 1e-3) == pytest.approx(
            math.sqrt(-2.0 * math.log(0.999)) * math.e, rel=1e-12)
        assert inv_marcum_q1_asymptotic(2.0, 1e-3) == pytest.approx(
            0.12159566679653973, abs=1e-9)

    def test_accuracy_trend_vs_exact(self):
        # recorded deviation from the exact inverse: tight for small
        # quantiles and small s, degrading as either grows
        rel = lambda s, eps: abs(
            inv_marcum_q1_asymptotic(s, eps) - inv_marcum_q1(s, 1.0 - eps)
        ) / inv_marcum_q1(s, 1.0 - eps)
        assert rel(0.0, 1e-5) < 1e-10
        assert rel(1.0, 1e-5) < 2e-5
        assert rel(1.0, 1e-3) < 2e-3
        assert rel(1.0, 1e-1) < 0.12
        assert rel(3.0, 1e-3) < 0.3


class TestLambertW:
    def test_principal_values(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, rel=1e-14)
        assert lambert_w(-1.0 / math.e) == -1.0

    def test_lower_branch_point(self):
        assert lambert_w(-1.0 / math.e, branch=-1) == -1.0

    def test_lower_branch_value(self):
        w = lambert_w(-0.1, branch=-1)
        assert w == pytest.approx(-3.5771520639572, abs=1e-10)
        assert w * math.exp(w) == pytest.approx(-0.1, abs=1e-13)

    @pytest.mark.parametrize("x", [-0.367879, -0.36, -0.2, -0.05, -1e-4, -1e-10])
    def test_lower_branch_residual_and_range(self, x):
        w = lambert_w(x, branch=-1)
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    @given(st.floats(min_value=-0.367879, max_value=100.0))
    def test_principal_residual(self, x):
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    @given(st.floats(min_value=-0.3678794, max_value=-1e-12))
    def test_lower_residual(self, x):
        w = lambert_w(x, branch=-1)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_against_scipy(self):
        for x in (-0.3, -0.15, -0.01, 0.5, 3.0, 50.0):
            assert lambert_w(x) == pytest.approx(
                float(sp.lambertw(x).real), rel=1e-12)
        for x in (-0.36, -0.2, -0.01, -1e-6):
            assert lambert_w(x, branch=-1) == pytest.approx(
                float(sp.lambertw(x, k=-1).real), rel=1e-12)

    @pytest.mark.parametrize("delta", [1e-12, 1e-10, 1e-8])
    def test_lower_branch_near_branch_point_against_mpmath(self, delta):
        # the closed-form optimum evaluates W_-1 this close to -1/e at small
        # eps, where scipy.special.lambertw(x, k=-1) (scipy 1.17.1) is off by
        # 2.3e-6 relative at delta = 1e-12; the hand-rolled branch is kept
        mpmath = pytest.importorskip("mpmath")
        x = -1.0 / math.e + delta
        with mpmath.workdps(50):
            ref = float(mpmath.lambertw(mpmath.mpf(x), -1))
        assert lambert_w(x, branch=-1) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("delta", [1e-12, 1e-10, 1e-8])
    def test_principal_branch_near_branch_point_against_mpmath(self, delta):
        # scipy's principal branch is weakest next to -1/e
        mpmath = pytest.importorskip("mpmath")
        x = -1.0 / math.e + delta
        with mpmath.workdps(50):
            ref = float(mpmath.lambertw(mpmath.mpf(x)))
        assert lambert_w(x) == pytest.approx(ref, rel=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w(-0.4)
        with pytest.raises(ValueError):
            lambert_w(-0.4, branch=-1)
        with pytest.raises(ValueError):
            lambert_w(0.1, branch=-1)
        with pytest.raises(ValueError):
            lambert_w(0.1, branch=2)
        for branch in (0, -1):
            with pytest.raises(ValueError):
                lambert_w(math.nan, branch=branch)
