import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special as sp_special
from scipy.interpolate import CubicHermiteSpline

from paharq import channel
from paharq.channel import (
    G_MAX,
    QUANTILE_KNOTS,
    SIGMA_MIN,
    SPEED_OF_LIGHT,
    GainQuantile,
    QuantileMethod,
    cond_cdf_g2,
    inv_cond_cdf_g2,
    jakes_sigma,
    sample_g1,
    sample_g2_given_g1,
    sigma_from_geometry,
)

DELTA = 5e-3
FC = 2.68e9
WAVELENGTH = SPEED_OF_LIGHT / FC


class TestSigmaFromGeometry:
    def test_perfect_alignment_hits_floor(self):
        d_a = 1.5 * WAVELENGTH
        v_star = d_a / DELTA
        assert sigma_from_geometry(v_star, DELTA, FC, d_a) == SIGMA_MIN

    def test_alignment_speed_value(self, monkeypatch):
        # with Jakes' model replaced by the identity, sigma is the mismatch
        # |d_a - v delta|, which falls linearly to zero at the alignment
        # speed
        d_a = 1.5 * WAVELENGTH
        with monkeypatch.context() as patch:
            patch.setattr("paharq.channel.jakes_sigma", lambda d, lam: d)
            d60, d100 = (sigma_from_geometry(v_kmh / 3.6, DELTA, FC, d_a)
                         for v_kmh in (60.0, 100.0))
        v_star_kmh = 60.0 + 40.0 * d60 / (d60 - d100)
        assert v_star_kmh == pytest.approx(120.81, abs=0.01)
        assert sigma_from_geometry(v_star_kmh / 3.6, DELTA, FC, d_a) \
            == SIGMA_MIN

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("name", ["v", "delta", "f_c", "d_a"])
    def test_nonpositive_input_rejected(self, name, value):
        geometry = dict(v=30.0, delta=DELTA, f_c=FC, d_a=1.5 * WAVELENGTH)
        geometry[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be > 0$"):
            sigma_from_geometry(**geometry)

    @pytest.mark.parametrize("v,delta,d_a", [
        (math.inf, 1.0, 1.0), (1e308, 10.0, 1.0), (30.0, DELTA, math.inf),
        (math.inf, 1.0, math.inf)])
    def test_infinite_mismatch_rejected(self, v, delta, d_a):
        # Jakes' correlation has no value at an infinite distance
        with pytest.raises(ValueError, match="mismatch distance"):
            sigma_from_geometry(v, delta, 1e9, d_a)

    def test_infinite_carrier_rejected(self):
        with pytest.raises(ValueError, match="^f_c must be finite$"):
            sigma_from_geometry(30.0, DELTA, math.inf, 3.0)

    def test_large_mismatch_weak_correlation(self):
        # several wavelengths of mismatch: sigma near its mapping's maximum
        d_a = 1.5 * WAVELENGTH
        sigma = sigma_from_geometry(100.0, DELTA, FC, d_a)  # d ~ 0.33 m >> lambda/2
        assert sigma > 0.9

    def test_jakes_mapping_range(self):
        for d in np.linspace(0.0, 10 * WAVELENGTH, 50):
            assert 0.0 <= jakes_sigma(d, WAVELENGTH) <= 1.0


class TestSigmaFloor:
    """Below SIGMA_MIN, sigma^2 underflows or the closed forms lose their
    meaning; every sigma-taking function rejects it as it does sigma > 1."""

    @pytest.mark.parametrize("sigma", [1e-300, 1e-200, 0.5 * SIGMA_MIN])
    @pytest.mark.parametrize("call", [
        lambda s: cond_cdf_g2(0.1, 1.0, s),
        lambda s: inv_cond_cdf_g2(1e-2, 1.0, s, QuantileMethod.ASYMPTOTIC),
        lambda s: GainQuantile(1e-2, s, QuantileMethod.WEIBULL),
        lambda s: sample_g2_given_g1(np.random.default_rng(0), 1.0, s),
    ], ids=["cond_cdf_g2", "inv_cond_cdf_g2", "GainQuantile",
            "sample_g2_given_g1"])
    def test_rejected(self, call, sigma):
        with pytest.raises(ValueError, match="sigma must be >= 0.001"):
            call(sigma)

    def test_floor_itself_accepted(self):
        assert 0.0 < cond_cdf_g2(1.0, 1.0, SIGMA_MIN) < 1.0


class TestConditionalCdf:
    def test_sigma_one_is_exponential(self):
        for x in (0.1, 1.0, 3.0):
            assert cond_cdf_g2(x, 2.0, 1.0) == pytest.approx(
                -math.expm1(-x), abs=1e-12)

    def test_zero_at_origin(self):
        assert cond_cdf_g2(0.0, 1.0, 0.8) == 0.0

    @pytest.mark.parametrize("x,g1,message", [(math.nan, 1.0, "x must be"),
                                              (0.1, math.nan, "g1 must be")])
    def test_rejects_nan(self, x, g1, message):
        with pytest.raises(ValueError, match=message):
            cond_cdf_g2(x, g1, 0.8)

    @pytest.mark.parametrize("x,g1", [
        (5e5, 5e5),
        (np.array([0.1, 5e5]), 5e5),
        (5e5, np.array([[1.0], [5e5]])),
    ])
    def test_nan_from_chndtr_names_its_arguments(self, x, g1):
        # scipy's chndtr returns NaN near x = lambda = 1e12 for these valid
        # arguments; the error names the first point where it does
        with pytest.raises(ValueError, match=r"not a number at x=500000, "
                                             r"g1=500000, sigma=0\.001$"):
            cond_cdf_g2(x, g1, 0.001)

    def test_rejects_negative_gain_at_sigma_one(self):
        # at sigma = 1 the noncentrality 2 g1 (1 - sigma^2) / sigma^2 is
        # -0.0, which chndtr takes as valid, so g1 is checked on its own
        with pytest.raises(ValueError, match="g1 must be >= 0"):
            cond_cdf_g2(0.1, -1.0, 1.0)
        with pytest.raises(ValueError, match="g1 must be >= 0"):
            cond_cdf_g2(np.array([0.1, 0.2]), np.array([1.0, -1.0]), 1.0)

    def test_small_lower_tail_keeps_relative_accuracy(self):
        # P(g2 <= x | g1) ~ (x / sigma^2) exp(-g1 (1 - sigma^2) / sigma^2) as
        # x -> 0; one minus a Marcum tail loses ~1e-6 of it to cancellation
        for g1, sigma in ((1.5, 0.8), (0.2, 0.3), (3.0, 1.0)):
            x = 1e-10
            s2 = sigma * sigma
            expected = x / s2 * math.exp(-g1 * (1.0 - s2) / s2)
            assert cond_cdf_g2(x, g1, sigma) == pytest.approx(expected,
                                                              rel=1e-8)

    def test_value_against_sampling_oracle(self, rng):
        # closed value frozen from a 1e7-sample empirical CDF (0.38 sigma off);
        # re-checked here against 1e6 fresh samples
        closed = cond_cdf_g2(1.0, 1.0, 0.8)
        assert closed == pytest.approx(0.6186594602266375, abs=1e-12)
        g2 = sample_g2_given_g1(rng, np.full(10**6, 1.0), 0.8)
        emp = float((g2 <= 1.0).mean())
        assert abs(emp - closed) < 4.0 * math.sqrt(closed * (1 - closed) / 10**6)

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=0.3, max_value=1.0))
    def test_nondecreasing_in_x(self, x, dx, sigma):
        assert cond_cdf_g2(x + dx, 1.0, sigma) >= cond_cdf_g2(x, 1.0, sigma) - 1e-12

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=0.3, max_value=1.0))
    def test_nonincreasing_in_g1(self, g1, dg, sigma):
        # better predicted gain shifts the conditional mass upward
        assert cond_cdf_g2(1.0, g1 + dg, sigma) <= cond_cdf_g2(1.0, g1, sigma) + 1e-12


class TestInverseConditionalCdf:
    def test_sigma_one_exponential_quantile(self):
        for method in QuantileMethod:
            if method is QuantileMethod.WEIBULL:
                continue  # the fit is not exact anywhere
            for g1 in (0.0, 1.0, 4.0):
                assert inv_cond_cdf_g2(1e-2, g1, 1.0, method) == pytest.approx(
                    -math.log1p(-1e-2), rel=1e-9)

    @pytest.mark.parametrize("g1", [0.0, 0.3, 1.0, 3.0])
    @pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.5])
    def test_exact_roundtrip(self, g1, eps):
        x = inv_cond_cdf_g2(eps, g1, 0.8, QuantileMethod.EXACT)
        assert cond_cdf_g2(x, g1, 0.8) == pytest.approx(eps, abs=1e-9)

    def test_asymptotic_tracks_exact_at_small_eps(self):
        e = inv_cond_cdf_g2(1e-3, 1.0, 0.8, QuantileMethod.EXACT)
        a = inv_cond_cdf_g2(1e-3, 1.0, 0.8, QuantileMethod.ASYMPTOTIC)
        assert a == pytest.approx(e, rel=5e-3)

    def test_asymptotic_equals_exact_at_sigma_one(self):
        for eps in (1e-5, 1e-3, 0.3):
            e = inv_cond_cdf_g2(eps, 2.0, 1.0, QuantileMethod.EXACT)
            a = inv_cond_cdf_g2(eps, 2.0, 1.0, QuantileMethod.ASYMPTOTIC)
            assert a == pytest.approx(e, rel=1e-9)

    def test_weibull_matches_its_forward_fit(self):
        from paharq.special import marcum_q1_weibull
        eps, g1, sigma = 1e-3, 1.0, 0.8
        x = inv_cond_cdf_g2(eps, g1, sigma, QuantileMethod.WEIBULL)
        s = math.sqrt(2.0 * g1 * (1 - sigma**2)) / sigma
        rho = math.sqrt(2.0 * x) / sigma
        assert 1.0 - marcum_q1_weibull(s, rho) == pytest.approx(eps, rel=1e-9)

    def test_exact_names_the_eps_floor(self):
        # p = 1 - eps rounds to 1 below 2**-54; just above it, to 1 - 2**-53
        with pytest.raises(ValueError, match=r"eps > 2\*\*-54.*eps=1e-300"):
            inv_cond_cdf_g2(1e-300, 1.0, 0.8)
        with pytest.raises(ValueError, match="eps > 2"):
            inv_cond_cdf_g2(2.0**-54, 1.0, 0.8)
        assert inv_cond_cdf_g2(2.0**-54 * (1 + 2**-52), 1.0, 0.8) > 0.0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            inv_cond_cdf_g2(0.0, 1.0, 0.8)
        with pytest.raises(ValueError):
            inv_cond_cdf_g2(1.0, 1.0, 0.8)

    @pytest.mark.parametrize("method", list(QuantileMethod))
    def test_array_equals_scalar_calls(self, method):
        g1 = np.array([[0.0, 1e-9, 0.3], [1.0, 7.5, 45.0]])
        vec = inv_cond_cdf_g2(1e-3, g1, 0.8, method)
        assert vec.shape == g1.shape
        scalar = [inv_cond_cdf_g2(1e-3, float(g), 0.8, method)
                  for g in g1.ravel()]
        np.testing.assert_array_equal(vec.ravel(), scalar)

    @pytest.mark.parametrize("method", [QuantileMethod.ASYMPTOTIC,
                                        QuantileMethod.WEIBULL])
    def test_infinite_quantile_without_warnings(self, method):
        # near antenna alignment the asymptotic exp overflows and the
        # Weibull scale underflows to 0: the quantile is infinite, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = inv_cond_cdf_g2(1e-3, [0.1, 50.0], 0.0224, method)
        assert np.isfinite(x[0]) and x[-1] == np.inf

    @pytest.mark.parametrize("method", list(QuantileMethod))
    def test_rejects_nan_gain(self, method):
        with pytest.raises(ValueError, match="g1 must be >= 0"):
            inv_cond_cdf_g2(1e-3, np.array([1.0, math.nan]), 0.8, method)

    def test_rejects_negative_gain_in_array(self):
        with pytest.raises(ValueError):
            inv_cond_cdf_g2(1e-3, np.array([1.0, -1e-3]), 0.8,
                            QuantileMethod.ASYMPTOTIC)


def _chndtrix_quantile(eps, sigma, g1):
    """The eps-quantile of g2 | g1 from scipy's noncentral chi-square
    inverse: g2 is sigma^2 / 2 times a chi-square with 2 degrees of freedom
    and noncentrality 2 g1 (1 - sigma^2) / sigma^2."""
    s2 = sigma * sigma
    return 0.5 * s2 * sp_special.chndtrix(eps, 2.0, 2.0 * g1 * (1.0 - s2) / s2)


class TestGainQuantile:
    def test_table_matches_scalar_inverse(self, qcache):
        # at these gains the table is off by at most 1.1e-7 relative at
        # eps = 1e-3, far below anything the Monte Carlo or optimizer
        # consumers resolve
        q = qcache.get(1e-3, 0.8)
        for g1 in (0.0, 1e-6, 0.2, 1.0, 7.0, 45.0):
            direct = inv_cond_cdf_g2(1e-3, g1, 0.8, QuantileMethod.EXACT)
            assert float(q(g1)) == pytest.approx(direct, rel=3e-7)

    @pytest.mark.parametrize("eps,rtol", [(1e-3, 1.5e-6), (1e-5, 1.1e-5)])
    def test_between_knots_against_chndtrix(self, qcache, eps, rtol):
        # scipy's noncentral chi-square inverse as an independent reference,
        # at the geometric midpoint of every knot interval, where the table
        # is furthest off: at most 7.0e-7 (eps = 1e-3) and 5.2e-6
        # (eps = 1e-5) relative, near g1 = 11 and 18; each bound is about
        # twice that
        mid = np.sqrt(QUANTILE_KNOTS[1:] * QUANTILE_KNOTS[:-1])
        assert mid.size == 512
        np.testing.assert_allclose(qcache.get(eps, 0.8)(mid),
                                   _chndtrix_quantile(eps, 0.8, mid),
                                   rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("eps,rtol", [(1e-3, 6e-7), (1e-5, 5e-6)])
    @pytest.mark.parametrize("frac", [0.2, 0.8])
    def test_off_midpoint_against_chndtrix(self, qcache, eps, rtol, frac):
        # 20 % and 80 % of the way (in log g1) through each knot interval:
        # at sigma = 0.8 at most 2.9e-7 (eps = 1e-3) and 2.1e-6 (eps = 1e-5)
        # relative; each bound is about twice that
        lo, hi = QUANTILE_KNOTS[:-1], QUANTILE_KNOTS[1:]
        g1 = lo * (hi / lo) ** frac
        np.testing.assert_allclose(qcache.get(eps, 0.8)(g1),
                                   _chndtrix_quantile(eps, 0.8, g1),
                                   rtol=rtol, atol=0.0)

    def test_table_roundtrip_through_cdf(self, qcache):
        q = qcache.get(1e-2, 0.5)
        for g1 in np.linspace(0.0, 20.0, 9):
            assert cond_cdf_g2(float(q(g1)), g1, 0.5) == pytest.approx(
                1e-2, rel=1e-4)

    def test_closed_form_methods_vectorize(self):
        g1 = np.array([0.0, 0.5, 2.0])
        for method in (QuantileMethod.WEIBULL, QuantileMethod.ASYMPTOTIC):
            q = GainQuantile(1e-3, 0.8, method)
            vec = q(g1)
            for i, g in enumerate(g1):
                assert vec[i] == pytest.approx(
                    inv_cond_cdf_g2(1e-3, float(g), 0.8, method), rel=1e-12)


class TestHermiteTable:
    """The exact table is scipy's CubicHermiteSpline through the log knots
    with the exact log slopes, bit for bit.  The knot values come from
    chndtrix here, so each table builds in milliseconds; the table code
    does not depend on where they come from."""

    @pytest.fixture
    def tables(self, monkeypatch):
        monkeypatch.setattr(
            channel, "inv_cond_cdf_g2",
            lambda eps, g1, sigma, method: _chndtrix_quantile(eps, sigma, g1))

        def build(eps, sigma):
            q = GainQuantile(eps, sigma)
            vals = _chndtrix_quantile(eps, sigma,
                                      np.concatenate(([0.0], QUANTILE_KNOTS)))
            slopes = channel._log_quantile_slopes(QUANTILE_KNOTS, vals[1:],
                                                  sigma)
            ref = CubicHermiteSpline(np.log(QUANTILE_KNOTS), np.log(vals[1:]),
                                     slopes, extrapolate=True)

            def expected(g1):   # the table's __call__ on scipy's interpolant
                g1 = np.asarray(g1, dtype=float)
                g_lo = QUANTILE_KNOTS[0]
                out = np.exp(ref(np.log(np.maximum(g1, g_lo))))
                return np.where(g1 <= g_lo, vals[0], out)
            return q, ref, expected
        return build

    @pytest.mark.parametrize("eps,sigma", [(1e-3, 0.8), (1e-5, 0.5),
                                           (1e-9, 0.8)])
    def test_coefficients_equal_scipy(self, tables, eps, sigma):
        q, ref, _ = tables(eps, sigma)
        assert np.array_equal(q._coef, ref.c)

    @pytest.mark.parametrize("eps,sigma", [(1e-3, 0.8), (1e-5, 0.5),
                                           (1e-9, 0.8)])
    def test_values_equal_scipy(self, tables, eps, sigma):
        q, _, expected = tables(eps, sigma)
        lo, hi = QUANTILE_KNOTS[:-1], QUANTILE_KNOTS[1:]
        inside = np.concatenate([lo * (hi / lo) ** f
                                 for f in (0.1, 0.5, 0.9)])
        below = np.array([0.0, 1e-300, 1e-12, 0.5e-9, QUANTILE_KNOTS[0]])
        beyond = np.array([G_MAX, np.nextafter(G_MAX, np.inf), 60.0, 1e3])
        for g1 in (QUANTILE_KNOTS, inside, below, beyond):
            np.testing.assert_array_equal(q(g1), expected(g1))
        grid = np.random.default_rng(7).exponential(size=(3, 40, 5))
        np.testing.assert_array_equal(q(grid), expected(grid))
        assert q(grid).shape == grid.shape
        with_nan = np.array([0.3, np.nan, 7.0])
        np.testing.assert_array_equal(q(with_nan), expected(with_nan))
        assert np.isnan(q(with_nan)[1]) and np.isnan(q(np.nan))
        assert float(q(2.0)) == float(expected(2.0))

    def test_piece_index_is_the_searched_one(self):
        # the index is computed from the even spacing of the log knots;
        # rounding can put it one piece off only next to a knot, where a
        # search and the computed index must still agree
        x = channel._LOG_KNOTS
        t = np.concatenate((
            x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
            np.log([1e-9, 1e-12, G_MAX, np.nextafter(G_MAX, np.inf), 60.0,
                    1e3]),
            [0.0, np.inf, -np.inf],
            np.random.default_rng(31).uniform(x[0] - 1, x[-1] + 1, 10**6)))
        searched = np.clip(np.searchsorted(x, t, side="right") - 1, 0,
                           x.size - 2)
        np.testing.assert_array_equal(channel._piece_index(x, t), searched)
        assert channel._piece_index(x, x[7]) == 7   # a scalar t

    @pytest.mark.parametrize("eps,sigma", [(1e-3, 0.8), (1e-5, 0.5),
                                           (0.1, 0.3), (1e-3, 0.02)])
    def test_slopes_are_the_quantile_derivative(self, eps, sigma):
        # central differences of ln chndtrix in ln g1, h = 1e-4, at the
        # knots; measured at most 1.2e-8 relative (8.8e-8 absolute) where
        # the slope is above 1e-3.  The absolute floor covers the first
        # knots, where the slope is ~1e-9 and the difference is rounding
        # noise
        x = _chndtrix_quantile(eps, sigma, QUANTILE_KNOTS)
        h = 1e-4
        up, down = (_chndtrix_quantile(eps, sigma, QUANTILE_KNOTS * np.exp(t))
                    for t in (h, -h))
        central = (np.log(up) - np.log(down)) / (2 * h)
        np.testing.assert_allclose(
            channel._log_quantile_slopes(QUANTILE_KNOTS, x, sigma), central,
            rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("sigma", [0.02, 0.3, 0.8])
    @pytest.mark.parametrize("eps", [1e-5, 1e-3, 0.1])
    def test_table_is_monotone(self, qcache, eps, sigma):
        # exact knot slopes, unlike PCHIP's, do not force a monotone cubic;
        # the built tables are nondecreasing on a dense grid all the same
        g1 = np.concatenate(([0.0], np.geomspace(QUANTILE_KNOTS[0], G_MAX,
                                                 32769)))
        assert (np.diff(qcache.get(eps, sigma)(g1)) >= 0).all()

    @pytest.mark.parametrize("sigma,rtol", [(0.02, 2.75e-6), (0.3, 1.1e-8),
                                            (0.8, 6.2e-10)])
    def test_error_below_first_knot(self, qcache, sigma, rtol):
        # at and below the first knot the table returns its g1 = 0 value,
        # off by the quantile's change over [0, g1]: at g1 = 1e-9 and
        # eps = 1e-3, 2.5e-6 (sigma = 0.02), 1.0e-8 (0.3) and 5.6e-10 (0.8)
        # relative, half that at g1 = 5e-10, and at most 1.8e-13 just above
        # the knot; each bound is about 1.1 times that
        q = qcache.get(1e-3, sigma)
        for g1, bound in ((1e-9, rtol), (5e-10, rtol / 2),
                          (QUANTILE_KNOTS[0] * (1.0 + 1e-7), 2.2e-13)):
            np.testing.assert_allclose(q(g1),
                                       _chndtrix_quantile(1e-3, sigma, g1),
                                       rtol=bound, atol=0.0)


class TestSamplers:
    def test_g1_moments(self, rng):
        x = sample_g1(rng, size=10**6)
        assert x.mean() == pytest.approx(1.0, abs=0.01)
        assert x.var() == pytest.approx(1.0, abs=0.02)
        assert (x <= 1.0).mean() == pytest.approx(
            -math.expm1(-1.0), abs=3 * math.sqrt(0.25 / 10**6) + 1e-3)

    def test_g2_sigma_one_is_exponential(self, rng):
        g2 = sample_g2_given_g1(rng, np.full(10**6, 5.0), 1.0)
        assert g2.mean() == pytest.approx(1.0, abs=0.01)
        assert (g2 <= 1.0).mean() == pytest.approx(-math.expm1(-1.0), abs=2e-3)

    @pytest.mark.parametrize("g1,sigma", [(0.5, 0.5), (2.0, 0.8)])
    def test_g2_conditional_mean(self, rng, g1, sigma):
        g2 = sample_g2_given_g1(rng, np.full(500_000, g1), sigma)
        expected = (1 - sigma**2) * g1 + sigma**2
        assert g2.mean() == pytest.approx(expected, abs=0.01)

    def test_g2_empirical_cdf_matches_formula(self, rng):
        # KS spot check at 1e5 (the full 1e6 grid runs in the acceptance suite)
        g1, sigma, n = 1.0, 0.8, 10**5
        g2 = np.sort(sample_g2_given_g1(rng, np.full(n, g1), sigma))
        idx = np.linspace(0, n - 1, 400).astype(int)
        theory = np.array([cond_cdf_g2(float(g2[i]), g1, sigma) for i in idx])
        emp_hi = (idx + 1) / n
        emp_lo = idx / n
        ks = max(np.max(emp_hi - theory), np.max(theory - emp_lo))
        assert ks < 0.006

    @pytest.mark.parametrize("sigma", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("g1", [0.01, 1.0, 10.0])
    def test_g2_ks_against_cond_cdf(self, g1, sigma):
        # exact one-sample KS over every draw; the 1e-3 critical value at
        # n = 5e4 is 1.95 / sqrt(n) ~ 0.0087
        n = 50_000
        rng = np.random.default_rng(4100 + int(100 * g1) + int(100 * sigma))
        g2 = np.sort(sample_g2_given_g1(rng, np.full(n, g1), sigma))
        cdf = np.array([cond_cdf_g2(float(x), g1, sigma) for x in g2])
        i = np.arange(1, n + 1)
        ks = max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))
        assert ks < 1.95 / math.sqrt(n)

    def test_g2_draws_two_normals_per_trial(self):
        # the stream contract of the sampler: one call consumes exactly 2n
        # standard normals, x then y, and leaves the generator where a twin
        # stands after standard_normal(2n)
        g1 = np.linspace(0.0, 5.0, 1001)
        sigma = 0.6
        rng = np.random.Generator(np.random.Philox(key=7))
        twin = np.random.Generator(np.random.Philox(key=7))
        g2 = sample_g2_given_g1(rng, g1, sigma)
        x, y = twin.standard_normal(2 * g1.size).reshape(2, -1)
        c = sigma * math.sqrt(0.5)
        expected = (math.sqrt(1 - sigma**2) * np.sqrt(g1) + c * x)**2 + (c * y)**2
        np.testing.assert_allclose(g2, expected, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(rng.standard_normal(8),
                                      twin.standard_normal(8))

    def test_g2_of_a_scalar_g1_is_that_of_a_one_element_array(self):
        a = sample_g2_given_g1(np.random.default_rng(8), 2.0, 0.8)
        b = sample_g2_given_g1(np.random.default_rng(8), np.array([2.0]), 0.8)
        assert np.shape(a) == () and float(a) == b[0]
