"""End-to-end acceptance checks for the full power-allocation stack.

Each test prints one summary line (visible with -v via pass/fail, with -s
for the measured values).  The open-loop closed-form-versus-simulation
check is asserted over the full stated power range even though the
underlying tail expansion is known to saturate at low power for the higher
rate; those grid points fail with a message pointing at the measured
saturation (see notes in the repository root for the analysis).
"""

import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

from paharq.allocation import (
    avg_power_given_p1,
    closed_form_avg_power,
    optimal_p1_closed_form,
    optimal_p1_numeric,
)
from paharq.benchmarks import (
    no_retx_required_power,
    open_loop_outage_exact,
    open_loop_required_power,
    zeta_rtd_closed,
)
from paharq.channel import (
    QuantileMethod,
    cond_cdf_g2,
    sample_g2_given_g1,
    sigma_from_geometry,
)
from paharq.harq import HarqConfig, Protocol, theta
from paharq.montecarlo import (
    DegenerateConditioningError,
    run_closed_loop,
    run_open_loop,
)
from paharq.special import inv_marcum_q1, lambert_w, marcum_q1

DB = lambda x: 10.0 * math.log10(x)

EPS_GRID = [10.0 ** (-5 + 0.5 * i) for i in range(9)]   # 1e-5 ... 1e-1
RATES = [0.5, 2.0]
SIGMA = 0.8


# ---------------------------------------------------------------------------
# headline gains over the single-shot baseline
# ---------------------------------------------------------------------------

HEADLINE_EPS, HEADLINE_RATE = 1e-5, 4.0


@pytest.fixture(scope="module")
def solutions(qcache):
    q = qcache.get(HEADLINE_EPS, SIGMA)
    out = {}
    for protocol in (Protocol.RTD, Protocol.INR):
        cfg = HarqConfig(protocol, HEADLINE_RATE, HEADLINE_EPS)
        out[protocol, "closed"] = optimal_p1_closed_form(cfg, SIGMA)
        out[protocol, "numeric"] = optimal_p1_numeric(
            cfg, SIGMA, QuantileMethod.EXACT, quantile=q)
    return out


class TestHeadlineGains:
    """eps=1e-5, rate=4: gains of 25 dB (RTD) and 30 dB (INR) within 3 dB."""

    EPS, RATE = HEADLINE_EPS, HEADLINE_RATE

    def test_baseline_anchor(self):
        anchor = DB(no_retx_required_power(self.EPS, self.RATE))
        print(f"[headline] single-shot baseline {anchor:.4f} dB")
        assert anchor == pytest.approx(67.2915, abs=1e-3)

    @pytest.mark.parametrize("protocol,target", [(Protocol.RTD, 25.0),
                                                 (Protocol.INR, 30.0)])
    @pytest.mark.parametrize("route", ["closed", "numeric"])
    def test_gain_within_three_db(self, solutions, protocol, target, route):
        base_db = DB(no_retx_required_power(self.EPS, self.RATE))
        gain = base_db - solutions[protocol, route].avg_power_db
        print(f"[headline] {protocol.value} {route}: gain {gain:.3f} dB "
              f"(target {target} +/- 3)")
        assert target - 3.0 <= gain <= target + 3.0


# ---------------------------------------------------------------------------
# closed-form optimum fidelity against numeric minimization
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rtd_grid_solutions(qcache):
    """Closed and numeric-exact RTD optima over the (eps, rate) grid."""
    out = {}
    for eps in EPS_GRID:
        q = qcache.get(eps, SIGMA)
        for rate in RATES:
            cfg = HarqConfig(Protocol.RTD, rate, eps)
            out[eps, rate] = (
                optimal_p1_closed_form(cfg, SIGMA),
                optimal_p1_numeric(cfg, SIGMA, QuantileMethod.EXACT, quantile=q),
            )
    return out


@pytest.fixture(scope="module")
def inr_grid_solutions(qcache):
    out = {}
    for eps in EPS_GRID:
        q = qcache.get(eps, SIGMA)
        for rate in RATES:
            cfg = HarqConfig(Protocol.INR, rate, eps)
            out[eps, rate] = (
                optimal_p1_closed_form(cfg, SIGMA),
                optimal_p1_numeric(cfg, SIGMA, QuantileMethod.EXACT, quantile=q),
            )
    return out


class TestClosedFormFidelity:
    def test_matches_minimizer_of_its_own_objective(self):
        """Lambert-branch stationary point vs a bounded scalar minimizer:
        <= 0.01 dB."""
        worst = 0.0
        for eps in EPS_GRID:
            for rate in RATES:
                cfg = HarqConfig(Protocol.RTD, rate, eps)
                sol = optimal_p1_closed_form(cfg, SIGMA)
                obj = lambda t: closed_form_avg_power(math.exp(t), cfg, SIGMA)
                t = minimize_scalar(obj, bounds=(math.log(sol.p1) - 2.0,
                                                 math.log(sol.p1) + 2.0),
                                    method="bounded",
                                    options={"xatol": 1e-7}).x
                worst = max(worst, abs(DB(math.exp(t)) - sol.p1_db))
        print(f"[fidelity] closed vs own-objective argmin: worst {worst:.2e} dB")
        assert worst <= 0.01

    def test_matches_exact_objective_minimizer(self, rtd_grid_solutions):
        """Closed-form p1 within 0.5 dB of the exact-rule numeric optimum."""
        worst = 0.0
        for (eps, rate), (closed, numeric) in rtd_grid_solutions.items():
            gap = abs(closed.p1_db - numeric.p1_db)
            worst = max(worst, gap)
        print(f"[fidelity] closed vs exact-objective argmin: worst {worst:.4f} dB")
        assert worst <= 0.5

    def test_stationarity_residuals(self, rtd_grid_solutions):
        worst = max(abs(c.diagnostics["stationarity_residual"])
                    for c, _ in rtd_grid_solutions.values())
        print(f"[fidelity] worst stationarity residual {worst:.2e}")
        assert worst <= 1e-9

    def test_simplified_route_gap_recorded(self, inr_grid_solutions):
        """The INR closed form rides the two-round simplified threshold, so
        its optimum sits below the exact-rule optimum; measured worst gap
        0.78 dB (rate 2), 0.18 dB (rate 0.5) — frozen as a 1.0 dB band."""
        worst = 0.0
        for (eps, rate), (closed, numeric) in inr_grid_solutions.items():
            worst = max(worst, abs(closed.p1_db - numeric.p1_db))
            assert closed.avg_power <= numeric.avg_power * (1 + 1e-9)
        print(f"[fidelity] INR closed vs exact-objective argmin: "
              f"worst {worst:.4f} dB")
        assert worst <= 1.0


# ---------------------------------------------------------------------------
# open-loop closed form vs protocol simulation
# ---------------------------------------------------------------------------

OPEN_LOOP_POWERS_DB = [0, 5, 10, 15, 20, 25, 30, 35, 40]


class TestOpenLoopOutageClosedForm:
    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("p_db", OPEN_LOOP_POWERS_DB)
    def test_closed_form_within_three_sigma(self, rate, p_db):
        """1e6-trial simulation vs the polynomial closed form, 3 binomial SE.

        Known limitation asserted anyway: at rate 2 and P <= 5 dB the tail
        expansion saturates at sigma^2(2-sigma^2) while the true outage
        approaches one, so those two points fail by construction; the
        exact-quadrature cross-check below shows the simulator itself is
        unbiased everywhere.
        """
        P = 10.0 ** (p_db / 10.0)
        seed = 20260808 + p_db
        try:
            rep = run_open_loop(P, rate, SIGMA, Protocol.RTD,
                                n_trials=10**6, seed=seed)
        except DegenerateConditioningError as exc:
            pytest.skip(f"conditional estimate undefined at 1e6 trials: {exc}")
        closed = zeta_rtd_closed(P, rate, SIGMA)
        se = math.sqrt(max(closed * (1 - closed), 1e-300) / rep.n_round2)
        z = abs(rep.cond_round2_outage - closed) / se
        exact = open_loop_outage_exact(P, rate, SIGMA)
        z_exact = abs(rep.cond_round2_outage - exact) / math.sqrt(
            max(exact * (1 - exact), 1e-300) / rep.n_round2)
        print(f"[open-loop] rate={rate} P={p_db}dB closed={closed:.5g} "
              f"mc={rep.cond_round2_outage:.5g} z={z:.2f} (exact z={z_exact:.2f})")
        assert z_exact <= 4.0, "simulator disagrees with exact quadrature"
        assert z <= 3.0, (
            f"closed form off by {z:.1f} binomial SE at rate={rate}, "
            f"P={p_db} dB (closed {closed:.4f} vs simulated "
            f"{rep.cond_round2_outage:.4f}; tail expansion saturates at "
            f"sigma^2(2-sigma^2)={SIGMA**2 * (2 - SIGMA**2):.4f} while the "
            f"exact quadrature gives {exact:.4f} and matches the simulator)")

    def test_exact_at_full_decorrelation(self):
        """At sigma=1 the closed form is the two-exponential convolution."""
        worst = 0.0
        for rate in RATES:
            for p_db in OPEN_LOOP_POWERS_DB:
                P = 10.0 ** (p_db / 10.0)
                u = theta(rate) / P
                # 1 - e^-u (1+u), arranged to stay exact for tiny u
                numer = -math.expm1(-u) - u * math.exp(-u)
                exact = numer / (-math.expm1(-u))
                worst = max(worst, abs(zeta_rtd_closed(P, rate, 1.0) - exact))
        print(f"[open-loop] sigma=1 identity worst |diff| {worst:.2e}")
        assert worst <= 1e-12


# ---------------------------------------------------------------------------
# the adapted retransmission power hits the outage target by construction
# ---------------------------------------------------------------------------

class TestRetransmissionOutageTarget:
    @pytest.mark.parametrize("protocol", [Protocol.RTD, Protocol.INR])
    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    @pytest.mark.parametrize("sigma", [0.5, 0.8, 1.0])
    def test_conditional_outage_equals_target(self, qcache, protocol, eps, sigma):
        q = qcache.get(eps, sigma)
        cfg = HarqConfig(protocol, rate=1.0, eps=eps)
        seed = 20260808 + int(1000 * sigma) + int(-math.log10(eps))
        rep = run_closed_loop(1.0, cfg, sigma, QuantileMethod.EXACT,
                              n_trials=10**6, seed=seed, quantile=q)
        se = math.sqrt(eps * (1 - eps) / rep.n_round2)
        z = abs(rep.cond_round2_outage - eps) / se
        print(f"[target] {protocol.value} eps={eps:g} sigma={sigma}: "
              f"outage {rep.cond_round2_outage:.6f} z={z:.2f} "
              f"(n2={rep.n_round2})")
        assert z <= 3.0

    def test_average_power_matches_quadrature(self, qcache):
        """Simulated average power vs the quadrature objective, 3 SE, 1e6."""
        q = qcache.get(1e-3, 0.8)
        for protocol in (Protocol.RTD, Protocol.INR):
            cfg = HarqConfig(protocol, rate=1.0, eps=1e-3)
            rep = run_closed_loop(1.0, cfg, 0.8, QuantileMethod.EXACT,
                                  n_trials=10**6, seed=4242, quantile=q)
            ref = avg_power_given_p1(1.0, cfg, 0.8, QuantileMethod.EXACT,
                                     quantile=q)
            z = abs(rep.avg_power - ref) / rep.avg_power_se
            print(f"[target] {protocol.value} avg power mc={rep.avg_power:.2f}"
                  f" quad={ref:.2f} z={z:.2f}")
            assert z <= 3.0

    def test_closed_form_average_matches_its_simulation(self):
        """Closed-form average vs simulating the analysis-side rule, 3 SE."""
        for protocol in (Protocol.RTD, Protocol.INR):
            cfg = HarqConfig(protocol, rate=1.0, eps=1e-3)
            rep = run_closed_loop(1.0, cfg, 0.8, QuantileMethod.ASYMPTOTIC,
                                  n_trials=10**6, seed=777,
                                  jensen_fallback=False)
            ref = closed_form_avg_power(1.0, cfg, 0.8)
            z = abs(rep.avg_power - ref) / rep.avg_power_se
            print(f"[target] {protocol.value} closed-form avg {ref:.2f} "
                  f"mc={rep.avg_power:.2f} z={z:.2f}")
            assert z <= 3.0


# ---------------------------------------------------------------------------
# scheme orderings
# ---------------------------------------------------------------------------

class TestSchemeOrderings:
    def test_inr_never_needs_more_power(self, rtd_grid_solutions,
                                        inr_grid_solutions):
        for key in rtd_grid_solutions:
            rtd_closed, rtd_numeric = rtd_grid_solutions[key]
            inr_closed, inr_numeric = inr_grid_solutions[key]
            assert inr_closed.avg_power <= rtd_closed.avg_power
            assert inr_numeric.avg_power <= rtd_numeric.avg_power * (1 + 1e-9)
        print(f"[ordering] INR <= RTD at all {len(rtd_grid_solutions)} grid "
              f"points, both routes")

    def test_optimized_below_open_loop_below_single_shot(
            self, rtd_grid_solutions, inr_grid_solutions):
        solutions = {Protocol.RTD: rtd_grid_solutions,
                     Protocol.INR: inr_grid_solutions}
        worst_margin = math.inf
        for protocol in (Protocol.RTD, Protocol.INR):
            for eps in EPS_GRID:
                for rate in RATES:
                    closed, numeric = solutions[protocol][eps, rate]
                    open_loop = open_loop_required_power(eps, rate, SIGMA,
                                                         protocol)
                    single = no_retx_required_power(eps, rate)
                    assert numeric.avg_power <= open_loop
                    assert closed.avg_power <= open_loop
                    assert open_loop <= single
                    worst_margin = min(worst_margin, DB(single) - DB(open_loop))
        print(f"[ordering] optimized <= open-loop <= single-shot; "
              f"thinnest open-loop margin {worst_margin:.2f} dB")


# ---------------------------------------------------------------------------
# required power vs speed peaks at the alignment speed
# ---------------------------------------------------------------------------

class TestSpeedSweepPeak:
    DELTA = 5e-3
    FC = 2.68e9
    RATE = 3.0
    EPS = 1e-3

    def _sweep(self, v_grid_kmh, da_wavelengths):
        wavelength = 299792458.0 / self.FC
        powers = []
        for v in v_grid_kmh:
            sigma = sigma_from_geometry(v / 3.6, self.DELTA, self.FC,
                                        da_wavelengths * wavelength)
            cfg = HarqConfig(Protocol.RTD, self.RATE, self.EPS)
            sol = optimal_p1_numeric(cfg, sigma, QuantileMethod.EXACT)
            powers.append(sol.avg_power_db)
        return powers

    def test_peak_at_alignment_speed(self):
        v_grid = [100, 108, 112, 116, 118, 120, 122, 124, 128, 132, 140]
        powers = self._sweep(v_grid, 1.5)
        peak_v = v_grid[int(np.argmax(powers))]
        v_star = 1.5 * (299792458.0 / self.FC) / self.DELTA * 3.6
        print(f"[speed] d_a=1.5 wavelengths: peak at {peak_v} km/h "
              f"(alignment speed {v_star:.1f})")
        assert abs(peak_v - v_star) <= 5.0
        # a genuine local maximum: strictly above both sweep endpoints
        assert max(powers) > powers[0] + 1.0
        assert max(powers) > powers[-1] + 1.0

    def test_peak_shifts_with_antenna_separation(self):
        v_grid = [48, 52, 56, 58, 60, 62, 64, 68, 72]
        powers = self._sweep(v_grid, 0.75)
        peak_v = v_grid[int(np.argmax(powers))]
        v_star = 0.75 * (299792458.0 / self.FC) / self.DELTA * 3.6
        print(f"[speed] d_a=0.75 wavelengths: peak at {peak_v} km/h "
              f"(alignment speed {v_star:.1f})")
        assert abs(peak_v - v_star) <= 5.0


# ---------------------------------------------------------------------------
# special-function accuracy suite
# ---------------------------------------------------------------------------

class TestSpecialFunctionSuite:
    def test_marcum_roundtrip(self):
        worst = 0.0
        for s in np.linspace(0.0, 6.0, 5):
            for p in (1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6):
                rho = inv_marcum_q1(float(s), p)
                worst = max(worst, abs(marcum_q1(float(s), rho) - p))
        print(f"[special] marcum roundtrip worst |Q - p| = {worst:.2e}")
        assert worst <= 1e-9

    def test_lambert_residuals(self):
        worst = 0.0
        for x in np.geomspace(1e-12, 0.3678, 40):
            w = lambert_w(-x, branch=-1)
            worst = max(worst, abs(w * math.exp(w) + x) / max(1.0, x))
            w0 = lambert_w(-x)
            worst = max(worst, abs(w0 * math.exp(w0) + x) / max(1.0, x))
        for x in np.geomspace(1e-6, 1e6, 30):
            w0 = lambert_w(float(x))
            worst = max(worst, abs(w0 * math.exp(w0) - x) / max(1.0, x))
        print(f"[special] lambert residual worst = {worst:.2e}")
        assert worst <= 1e-12

    @pytest.mark.parametrize("g1", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("sigma", [0.3, 0.8, 1.0])
    def test_sampler_distribution_ks(self, g1, sigma):
        """Kolmogorov-Smirnov vs the conditional CDF at 1e6 samples."""
        n = 10**6
        rng = np.random.default_rng(
            990000 + int(10 * g1) + int(100 * sigma))
        g2 = np.sort(sample_g2_given_g1(rng, np.full(n, g1), sigma))
        # evaluate the CDF on a dense grid and interpolate monotonically
        grid = np.linspace(0.0, float(g2[-1]) * 1.000001, 4097)
        cdf_grid = np.array([cond_cdf_g2(float(x), g1, sigma) for x in grid])
        cdf = PchipInterpolator(grid, cdf_grid)(g2)
        i = np.arange(1, n + 1)
        ks = max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))
        print(f"[special] KS(g1={g1}, sigma={sigma}) = {ks:.5f}")
        assert ks < 0.002
