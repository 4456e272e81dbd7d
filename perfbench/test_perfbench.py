"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench -q

Run from the root of a source checkout; they need no paharq point run
except the tracer round trip, which only imports the package.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# --- tail percentile rule ----------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = run.tail_percentile(list(range(1, 101)))
    assert (value, pct, beyond) == (90, 90.0, 10)


def test_tail_at_21_samples_is_the_first_rank_above_the_median():
    value, pct, beyond = run.tail_percentile(list(range(21)))
    assert (value, beyond) == (10, 10)
    assert pct == pytest.approx(100 * 11 / 21)


def test_tail_ignores_input_order():
    samples = [3.0, 1.0, 2.0] * 10
    assert run.tail_percentile(samples) == run.tail_percentile(sorted(samples))


@pytest.mark.parametrize("n", [1, 4, 11, 20])
def test_tail_below_21_samples_is_the_median(n):
    samples = [float(i) for i in range(n)]
    value, pct, beyond = run.tail_percentile(samples)
    assert (value, pct, beyond) == ((n - 1) / 2, 50.0, n // 2)


# --- self time ---------------------------------------------------------------

def _spans(rows):
    spans = tracing.Spans(names=["a", "b", "c"])
    for name_id, parent, start, end in rows:
        span = spans.open(name_id, parent, start)
        spans.close(span, end)
    return spans


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds child [1, 4] (which holds [2, 3]) and child [5, 6]
    spans = _spans([(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 1, 2.0, 3.0),
                    (1, 0, 5.0, 6.0)])
    a = spans.arrays()
    own = tracing.self_times(a["parent"], a["end"] - a["start"])
    assert own.tolist() == [6.0, 2.0, 1.0, 1.0]


def test_self_times_sum_to_root_durations():
    rng = np.random.default_rng(7)
    rows, t = [], 0.0
    for _ in range(20):                     # 20 roots with nested children
        root = len(rows)
        rows.append([0, -1, t, t + 10.0])
        for j in range(3):
            child = len(rows)
            start = t + 3.0 * j + rng.random()
            rows.append([1, root, start, start + 1.5])
            rows.append([2, child, start + 0.2, start + 0.2 + rng.random()])
        t += 10.0
    spans = _spans(rows)
    a = spans.arrays()
    duration = a["end"] - a["start"]
    own = tracing.self_times(a["parent"], duration)
    assert own.sum() == pytest.approx(duration[a["parent"] < 0].sum())
    assert (own >= 0).all()


def test_tracer_records_nesting_and_restores_the_package():
    import paharq.cli  # noqa: F401  (loads every module the tracer rebinds)
    import paharq.channel as channel
    import paharq.special as special
    originals = (special.marcum_q1, channel.marcum_q1,
                 channel.GainQuantile.__dict__["__init__"])
    tracer = tracing.Tracer().install()
    try:
        assert channel.marcum_q1 is not originals[1]
        channel.inv_cond_cdf_g2(0.1, 1.0, 0.8)
    finally:
        tracer.uninstall()
    assert (special.marcum_q1, channel.marcum_q1,
            channel.GainQuantile.__dict__["__init__"]) == originals
    m = tracing.layer_metrics(tracer.spans)
    assert m["special.inv_marcum_q1.calls"] == 1
    assert m["special.marcum_q1.calls"] > 1
    a = tracer.spans.arrays()
    inverse = tracer.spans.names.index("special.inv_marcum_q1")
    root = np.flatnonzero(a["name_id"] == inverse)[0]
    assert (a["parent"][a["name_id"] != inverse] == root).all()


# --- row classification ------------------------------------------------------

def _closed_form_row(sigma, error, p1=""):
    return {"figure": "fig5", "method": "closed-form", "protocol": "rtd",
            "rate": "3.0", "eps": "0.001", "sigma": repr(sigma),
            "v_kmh": "", "d_a_wavelengths": "", "p1": p1, "avg_power": "",
            "error": error}


def _fig5_config():
    return {"delta": workloads.DELTA, "f_c": workloads.F_C}


def _fig5_row(v_kmh, d_a, error):
    sigma = oracle.geometry_sigma(v_kmh, d_a, workloads.DELTA, workloads.F_C)
    row = _closed_form_row(sigma, error)
    row.update(v_kmh=repr(v_kmh), d_a_wavelengths=repr(d_a))
    return row


def test_domain_error_near_alignment_is_expected():
    v = workloads.alignment_speed_kmh(0.75) + 0.3     # sigma ~ 0.017
    status, _ = oracle.classify(_fig5_row(v, 0.75, "closed form undefined"),
                                _fig5_config())
    assert status == oracle.EXPECTED_ERROR


def test_domain_error_where_a_value_exists_fails():
    status, _ = oracle.classify(_fig5_row(20.0, 0.75, "closed form undefined"),
                                _fig5_config())
    assert status == oracle.UNEXPECTED_ERROR


def test_value_outside_the_domain_is_wrong():
    v = workloads.alignment_speed_kmh(1.5) - 0.2
    row = _fig5_row(v, 1.5, "")
    row.update(p1="1.0", avg_power="2.0")
    status, _ = oracle.classify(row, _fig5_config())
    assert status == oracle.WRONG


def _numeric_row(p1, sigma, rate):
    avg = oracle.objective(p1, "rtd", rate, 1e-3, sigma)
    return {"figure": "fig3", "method": "numeric-exact", "protocol": "rtd",
            "rate": repr(rate), "eps": "0.001", "sigma": repr(sigma),
            "p1": repr(p1), "avg_power": repr(avg), "error": ""}


def test_numeric_optimum_off_by_a_hundredth_of_a_db_is_wrong():
    from scipy.optimize import minimize_scalar
    f = lambda t: oracle.objective(math.exp(t), "rtd", 2.0, 1e-3, 0.8)
    best = math.exp(minimize_scalar(f, bounds=(-3.0, 12.0), method="bounded",
                                    options={"xatol": 1e-7}).x)
    assert oracle.classify(_numeric_row(best, 0.8, 2.0), {})[0] == oracle.OK
    off = best * 10 ** (0.02 / 10)
    assert oracle.classify(_numeric_row(off, 0.8, 2.0), {})[0] == oracle.WRONG


def test_flat_optimum_within_the_objective_precision_is_recorded_not_failed():
    # near antenna alignment (sigma ~0.02) the objective is flat: the power
    # 0.01 dB away wins by ~2e-9, far below paharq's 1e-6 quadrature bound
    row = _numeric_row(37.497422753892195, 0.020903774441621392, 3.0)
    status, detail = oracle.classify(row, {})
    assert status == oracle.FLAT_OPTIMUM
    assert status not in oracle.FAILING
    assert "beaten by" in detail


def test_closed_form_matches_its_stationarity_condition():
    # x = m th / p1 solves e^{-x}(x + 1) = 1 - m^2/c at the optimum
    sigma, eps, rate = 0.8, 1e-3, 2.0
    p1, avg = oracle.closed_form("rtd", rate, eps, sigma)
    m = 1 / sigma**2
    ratio = -math.log1p(-eps) / sigma**2
    x = m * oracle.theta(rate) / p1
    assert math.exp(-x) * (x + 1) == pytest.approx(1 - ratio, rel=1e-12)
    assert avg > p1


def test_open_loop_outage_at_full_decorrelation_is_exponential_convolution():
    u = oracle.theta(2.0) / 4.0
    expected = (1 - math.exp(-u) * (1 + u)) / (1 - math.exp(-u))
    assert oracle.open_loop_outage(4.0, 2.0, 1.0, "rtd") == pytest.approx(
        expected, rel=1e-9)


# --- grids -------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_grid_is_a_function_of_the_seed(workload):
    assert workloads.grid(workload, 5, 6) == workloads.grid(workload, 5, 6)
    assert workloads.grid(workload, 5, 6) != workloads.grid(workload, 6, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_points_are_numbered_through_the_blocks(workload):
    points = workloads.grid(workload, 3, 3)
    assert [p.index for p in points] == list(range(len(points)))
    assert points[-1].block == 2


def test_grid_for_a_seed_is_pinned():
    first = workloads.grid("eps-sweep", 1, 1)[0].config
    assert first["eps"][0] == pytest.approx(1.7813073157835215e-05, rel=1e-12)
    assert first["rate"][0] == pytest.approx(1.1808847333928245, rel=1e-12)


def test_speed_sweep_places_points_near_both_alignments():
    points = workloads.grid("speed-sweep", 3, 100)
    for d_a in (1.5, 0.75):
        v_align = workloads.alignment_speed_kmh(d_a)
        near = [p.config["v_kmh"][0] for p in points
                if p.config["d_a_wavelengths"] == [d_a]
                and abs(p.config["v_kmh"][0] - v_align) <= 10.0]
        assert len(near) >= 100
        assert min(abs(v - v_align) for v in near) < 0.1
    speeds = [p.config["v_kmh"][0] for p in points]
    assert 2.0 <= min(speeds) and max(speeds) <= 160.0


def test_verify_mixes_fig4_and_mc_verify_points():
    commands = [p.command for p in workloads.grid("verify", 2, 2)]
    assert commands == (["fig4"] * 4 + ["mc-verify"]) * 2


# --- metric names ------------------------------------------------------------

def test_metrics_match_benchmark_json():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    record = {"rows": 3, "error_rows": 1, "gate_fail_rows": 0}
    per_layer = run.per_layer_metrics(tracing.Spans(), [record], 2.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in per_layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
