import csv
import json
import math
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import paharq
from paharq import BracketError, QuadratureError, cli
from paharq.cli import COLUMNS, main


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def no_table(monkeypatch):
    """Fail the test if the CLI builds an exact quantile table: a config
    error must exit before any point runs."""
    def build(*args, **kwargs):
        raise AssertionError("built a quantile table")
    monkeypatch.setattr(cli, "GainQuantile", build)


def test_eval_subcommand(tmp_path, capsys):
    assert main(["eval", "marcum-q1", "s=1", "rho=1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split(",") == COLUMNS
    row = dict(zip(COLUMNS, out[1].split(",")))
    assert float(row["estimate"]) == pytest.approx(0.7328798037968203, abs=1e-12)
    assert row["check"] == "marcum-q1"


def test_eval_unknown_op():
    assert main(["eval", "definitely-not-an-op"]) == 1


def test_headline_csv(tmp_path):
    out = tmp_path / "headline.csv"
    assert main(["headline", "--out", str(out)]) == 0
    rows = read_csv(out)
    by_key = {(r["protocol"], r["method"]): r for r in rows}
    base = float(by_key[("none", "no-retx")]["avg_power_db"])
    assert base == pytest.approx(67.2915, abs=1e-3)
    for protocol, lo, hi in (("rtd", 22.0, 28.0), ("inr", 27.0, 33.0)):
        for method in ("closed-form", "numeric-exact"):
            gain = float(by_key[(protocol, method)]["gain_db_vs_no_retx"])
            assert lo <= gain <= hi
    # dB/linear consistency on every populated row
    for r in rows:
        if r["avg_power"]:
            assert float(r["avg_power_db"]) == pytest.approx(
                10 * math.log10(float(r["avg_power"])), abs=1e-9)


def test_fig3_small_grid(tmp_path):
    out = tmp_path / "fig3.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [1e-3, 1e-2], "rate": [0.5], "sigma": 0.8,
        "protocols": ["rtd", "inr"],
        "methods": ["numeric-asymptotic", "closed-form"],
    }))
    assert main(["fig3", "--config", str(config), "--out", str(out)]) == 0
    rows = read_csv(out)
    # 2 eps x 1 rate x 2 protocols x (2 methods + baseline)
    assert len(rows) == 12
    for r in rows:
        assert r["error"] == ""
    closed = {(r["eps"], r["protocol"]): float(r["avg_power_db"])
              for r in rows if r["method"] == "closed-form"}
    numeric = {(r["eps"], r["protocol"]): float(r["avg_power_db"])
               for r in rows if r["method"] == "numeric-asymptotic"}
    for key, ndb in numeric.items():
        assert abs(ndb - closed[key]) < 0.05
    # INR never needs more power than RTD
    for eps in ("0.001", "0.01"):
        for method_rows in (closed, numeric):
            assert method_rows[(eps, "inr")] <= method_rows[(eps, "rtd")]


def test_fig3_methods_key_restricts(tmp_path):
    out = tmp_path / "fig3.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [1e-2], "rate": [0.5], "sigma": 0.8, "protocols": ["rtd"],
        "methods": ["closed-form"],
    }))
    assert main(["fig3", "--config", str(config), "--out", str(out)]) == 0
    methods = {r["method"] for r in read_csv(out)}
    assert methods == {"closed-form", "no-retx"}


def test_fig4_requires_seed(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [1e-2], "rate": [0.5], "sigma": 0.8, "protocols": ["rtd"],
        "trials": 1000,
    }))
    with pytest.raises(SystemExit):
        main(["fig4", "--config", str(config)])


def test_fig4_small_grid(tmp_path):
    out = tmp_path / "fig4.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [1e-2], "rate": [2.0], "sigma": 0.8,
        "protocols": ["rtd", "inr"], "trials": 50_000,
    }))
    assert main(["fig4", "--config", str(config), "--seed", "7",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    closed = [r for r in rows if r["method"] == "closed-form"]
    assert len(closed) == 2
    for r in closed:
        mc = float(r["outage_mc"])
        se = float(r["outage_mc_se"])
        # the simulation must agree with the exact conditional outage at the
        # solved power for both protocols
        assert abs(mc - float(r["outage_exact"])) < 4 * se
        target = float(r["outage_closed"])
        if r["protocol"] == "rtd":
            assert abs(mc - target) < 4 * se
        else:
            # threshold-substituted closed form over-protects: the delivered
            # outage sits at or below the requested target
            assert mc < target + 3 * se
        assert int(r["n_denominator"]) > 100
    # identical invocation reproduces byte-identical Monte Carlo columns
    out2 = tmp_path / "fig4_again.csv"
    main(["fig4", "--config", str(config), "--seed", "7", "--out", str(out2)])
    assert out.read_text() == out2.read_text()


def test_fig5_small_grid(tmp_path):
    out = tmp_path / "fig5.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "v_kmh": [60.0, 120.0], "d_a_wavelengths": [1.5], "rate": 3.0,
        "eps": 1e-3, "protocols": ["rtd"], "methods": ["closed-form"],
    }))
    assert main(["fig5", "--config", str(config), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2
    near = {float(r["v_kmh"]): float(r["avg_power_db"]) for r in rows}
    assert near[120.0] > near[60.0]  # mismatch shrinks toward alignment speed
    sigmas = {float(r["v_kmh"]): float(r["sigma"]) for r in rows}
    assert sigmas[120.0] < sigmas[60.0]


def test_fig5_infeasible_rows_flagged(tmp_path):
    # closed form has no solution once sigma^2 falls below |log(1-eps)|
    out = tmp_path / "fig5.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "v_kmh": [120.8], "d_a_wavelengths": [1.5], "rate": 3.0,
        "eps": 1e-3, "protocols": ["rtd"], "methods": ["closed-form"],
    }))
    assert main(["fig5", "--config", str(config), "--out", str(out)]) == 2
    rows = read_csv(out)
    assert rows[0]["error"] != ""
    assert rows[0]["avg_power"] == ""


def test_mc_verify_small(tmp_path):
    out = tmp_path / "verify.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [1e-2], "rate": 1.0, "sigma": [0.8], "p1": 1.0,
        "open_loop_power_db": [10.0], "open_loop_rate": [2.0],
        "open_loop_sigma": 0.8, "trials": 50_000,
    }))
    code = main(["mc-verify", "--config", str(config), "--seed", "20260808",
                 "--out", str(out)])
    rows = read_csv(out)
    assert code == 0, [r for r in rows if r["error"]]
    checks = {r["check"] for r in rows}
    assert {"closed_loop_conditional_outage", "closed_loop_avg_power",
            "closed_form_avg_power", "open_loop_outage_exact_vs_mc",
            "open_loop_outage_closed_vs_mc",
            "open_loop_outage_closed_upper_bound", "open_loop_avg_power",
            "no_retx_outage"} <= checks
    # two-sided checks use |z|; the upper-bound check uses signed z, where
    # very negative just means the bound is slack
    for r in rows:
        assert float(r["z_score"]) < 3.0


def test_mc_verify_without_round_two_becomes_error_row(tmp_path):
    # at p1 = 1e6 no trial of ten fails round one; sigma = 1 keeps the
    # exact table cheap
    out = tmp_path / "verify.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [0.01], "sigma": [1.0], "p1": 1e6,
        "open_loop_power_db": [10.0], "open_loop_rate": [0.5], "trials": 10}))
    assert main(["mc-verify", "--config", str(config), "--seed", "1",
                 "--out", str(out)]) == 2
    rows = read_csv(out)
    closed = [r for r in rows if r["check"] == "closed_loop"]
    assert [r["protocol"] for r in closed] == ["rtd", "inr"]
    for r in closed:
        assert r["error"].startswith("no trial of 10 entered round two")
    assert {"open_loop_outage", "no_retx_outage"} <= {r["check"] for r in rows}


@pytest.mark.parametrize("argv,config", [
    (["fig4", "--seed", "1"], {"rate": [0.0], "eps": [0.1], "trials": 100}),
    (["headline"], {"rate": 0.0}),
    (["eval", "no-retx-required-power", "target_eps=0.1", "rate=0"], None),
    (["mc-verify", "--seed", "1"], {"eps": [0.1], "sigma": [1.0],
                                    "open_loop_rate": [0.0],
                                    "open_loop_power_db": [10.0],
                                    "trials": 1000}),
    (["fig5"], {"v_kmh": [60.0], "d_a_wavelengths": [1.5], "rate": 0.0}),
], ids=["fig4", "headline", "eval", "mc-verify", "fig5"])
def test_zero_rate_exits_one(tmp_path, capsys, no_table, argv, config):
    # before any exact table is built
    out = tmp_path / "out.csv"
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: rate must be > 0, got 0.0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,out", [
    (["headline"], "missing/x.csv"),
    (["eval", "theta", "rate=2"], "missing/x.csv"),
    (["eval", "theta", "rate=2"], "."),
    (["headline"], "."),
    (["headline"], "afile/x.csv"),
], ids=["headline", "eval", "eval-directory", "headline-directory",
        "headline-file"])
def test_unwritable_out_exits_one(tmp_path, capsys, monkeypatch, no_table,
                                  argv, out):
    # a missing directory, a regular file in its place, or an --out that is
    # a directory, is found before any point runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").touch()
    assert main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == ["afile"]


def test_bad_config_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["fig3", "--config", str(bad)]) == 1


@pytest.mark.parametrize("argv", [
    ["fig3", "--bogus"],
    ["fig4"],                                # --seed is required
    ["headline", "--method", "closed"],      # routes are named only by
    ["mc-verify", "--seed", "1", "--method", "exact"],   # the config's
    ["fig3", "--method", "mc"],              # methods key
    ["fig3", "--method", "closed"],
    ["fig5", "--method", "exact"],
    ["fig3", "--seed", "1"],                 # --seed: fig4 and mc-verify
    ["headline", "--seed", "1"],             # only
    ["fig4", "--seed", "-1"],                # master seeds are >= 0
    ["fig4", "--seed", "1.5"],               # and integers
    ["fig4", "--seed", "1", "--trials", "5"],    # trials come only from
    ["mc-verify", "--seed", "1", "--trials", "1000"],   # the config
    ["fig5", "--trials", "1000"],
    ["fig4", "--seed", "1", "--workers", "0"],
    ["fig4", "--seed", "1", "--workers", "-2"],
])
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.count("error:") == 1


@pytest.mark.parametrize("command", ["fig4", "mc-verify"])
@pytest.mark.parametrize("trials", [0, -5])
def test_config_trials_below_one_exit_one(tmp_path, capsys, command, trials):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"trials": trials}))
    assert main([command, "--seed", "1", "--config", str(config)]) == 1
    assert f"trials must be >= 1, got {trials}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fig4", "mc-verify"])
@pytest.mark.parametrize("trials,shown", [
    (1000.7, "1000.7"), (999.5, "999.5"), (math.inf, "inf"),
    (-math.inf, "-inf"), (math.nan, "nan"),
])
def test_config_trials_not_an_integer_exit_one(tmp_path, capsys, no_table,
                                               command, trials, shown):
    # json.dumps writes the non-finite values as Infinity and NaN, which
    # json.load reads back
    config = dict(_SMALL_CONFIGS[command], trials=trials)
    assert _run_config(tmp_path, command, config) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"error: trials must be a finite integer, got {shown}\n" in err
    assert not (tmp_path / "o.csv").exists()


def test_config_trials_integral_float_runs(tmp_path):
    config = dict(_SMALL_CONFIGS["fig4"], trials=1e3)
    assert _run_config(tmp_path, "fig4", config) == 0
    closed = [r for r in read_csv(tmp_path / "o.csv")
              if r["method"] == "closed-form"]
    assert [r["n_trials"] for r in closed] == ["1000"]


def test_fig3_one_in_a_billion_rate_20_solves(tmp_path):
    # at eps=1e-9, rate 20 the RTD optimum is ~131 dB, beyond any fixed
    # search range; the search's provable bound reaches it
    out = tmp_path / "fig3.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [1e-9], "rate": [20.0], "sigma": 0.8, "protocols": ["rtd"],
        "methods": ["numeric-asymptotic", "numeric-exact", "closed-form"],
    }))
    assert main(["fig3", "--config", str(config), "--out", str(out)]) == 0
    by_method = {r["method"]: r for r in read_csv(out)}
    closed = float(by_method["closed-form"]["p1_db"])
    for method in ("numeric-asymptotic", "numeric-exact"):
        assert by_method[method]["error"] == ""
        assert abs(float(by_method[method]["p1_db"]) - closed) <= 1e-3


@pytest.mark.parametrize("error", [QuadratureError, BracketError])
def test_quadrature_failure_becomes_row(tmp_path, monkeypatch, error):
    def failing(*args, **kwargs):
        raise error("the optimizer failed")

    monkeypatch.setattr(cli, "optimal_p1_numeric", failing)
    out = tmp_path / "fig3.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [1e-2], "rate": [0.5], "sigma": 0.8, "protocols": ["rtd"],
        "methods": ["numeric-asymptotic", "closed-form"],
    }))
    assert main(["fig3", "--config", str(config), "--out", str(out)]) == 2
    by_method = {r["method"]: r for r in read_csv(out)}
    assert by_method["numeric-asymptotic"]["error"] == "the optimizer failed"
    assert by_method["numeric-asymptotic"]["avg_power"] == ""
    assert by_method["closed-form"]["error"] == ""
    assert by_method["no-retx"]["error"] == ""


@pytest.mark.parametrize("command,config", [
    ("fig3", {"eps": [1e-2], "rate": [0.5], "sigma": 0.8}),
    ("fig5", {"v_kmh": [60.0], "d_a_wavelengths": [1.5], "rate": 3.0,
              "eps": 1e-3}),
])
def test_protocols_of_a_point_share_one_exact_table(tmp_path, monkeypatch,
                                                    command, config):
    builds = []

    class CountingTable(cli.GainQuantile):
        def __init__(self, *args, **kwargs):
            builds.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "GainQuantile", CountingTable)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, protocols=["rtd", "inr"],
                                    methods=["numeric-exact"])))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert len(builds) == 1
    rows = [(r["protocol"], r["method"]) for r in read_csv(out)]
    expected = [("rtd", "numeric-exact"), ("inr", "numeric-exact")]
    if command == "fig3":
        expected = [("rtd", "numeric-exact"), ("rtd", "no-retx"),
                    ("inr", "numeric-exact"), ("inr", "no-retx")]
    assert rows == expected


def test_mc_verify_workers_do_not_change_bytes(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [1e-2], "rate": 1.0, "sigma": [0.8], "p1": 1.0,
        "open_loop_power_db": [10.0], "open_loop_rate": [2.0],
        "open_loop_sigma": 0.8, "trials": 20_000,
    }))
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"verify_{workers}.csv"
        main(["mc-verify", "--config", str(config), "--seed", "20260808",
              "--workers", workers, "--out", str(out)])
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    # header, 3 closed-loop and 3 open-loop checks per protocol, no-retx
    assert len(outputs[0].splitlines()) == 1 + 2 * 3 + 2 * 3 + 1


def test_cli_import_leaves_scipy_stats_out():
    # importing scipy.stats adds about half a second to the CLI start-up
    env = dict(os.environ, PYTHONPATH=str(Path(paharq.__file__).parents[1]))
    # and so would multiprocessing, which only --workers above 1 needs
    code = ("import sys, paharq.cli; sys.exit('scipy.stats' in sys.modules"
            " or 'multiprocessing' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# one point of each subcommand; sigma 0.99 keeps the exact tables cheap
_ONE_POINT_RUNS = (
    ("fig3", {"eps": [0.1], "rate": [0.5], "sigma": 0.99,
              "protocols": ["rtd"], "methods": ["numeric-exact",
                                                "closed-form"]}),
    ("fig5", {"v_kmh": [60.0], "d_a_wavelengths": [1.5],
              "protocols": ["inr"], "methods": ["numeric-asymptotic"]}),
    ("headline", {"eps": 0.1, "rate": 0.5, "sigma": 0.99}),
    ("fig4", {"eps": [0.1], "rate": [0.5], "trials": 1000}),
    ("mc-verify", {"eps": [0.1], "sigma": [0.99], "open_loop_rate": [2.0],
                   "open_loop_power_db": [10.0], "trials": 1000}),
)


def test_runs_load_no_scipy_solver_module(tmp_path):
    # the package needs only numpy and scipy.special: its Brent root,
    # Hermite table and Gauss-Kronrod outage stand in for scipy.optimize,
    # scipy.interpolate and scipy.integrate, each of which would also load
    # scipy.linalg and scipy.sparse and add ~0.3 s to every start-up; nor
    # may a run load scipy.stats, which the import alone leaves out
    env = dict(os.environ, PYTHONPATH=str(Path(paharq.__file__).parents[1]))
    code = f"""
import json, sys
import paharq.cli
from paharq.cli import main
BANNED = ("scipy.optimize", "scipy.integrate", "scipy.interpolate",
          "scipy.linalg", "scipy.sparse", "scipy.stats")
def check(stage):
    loaded = sorted(m for m in sys.modules
                    if ".".join(m.split(".")[:2]) in BANNED)
    if loaded:
        sys.exit(f"{{stage}} loaded {{loaded}}")
check("import paharq.cli")
for command, config in {_ONE_POINT_RUNS!r}:
    path = {str(tmp_path)!r} + "/cfg.json"
    with open(path, "w") as fh:
        json.dump(config, fh)
    argv = [command, "--config", path, "--out", path + ".csv"]
    if command in ("fig4", "mc-verify"):
        argv += ["--seed", "1"]
    if main(argv) != 0:
        sys.exit(f"{{command}} failed")
    check(command)
if main(["eval", "optimal-p1-numeric", "protocol=rtd", "rate=2", "eps=0.1",
         "sigma=0.99"]) != 0:
    sys.exit("eval failed")
check("eval optimal-p1-numeric")
"""
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _crc(coords):
    return zlib.crc32("|".join(cli._fmt(c) for c in coords).encode())


def test_row_seeds_do_not_swap_between_master_seeds():
    # with the master XOR-ed with a CRC of the coordinates, master seeds s
    # and s ^ crc(a) ^ crc(b) gave rows a and b each other's streams
    a = ("fig4", 0.01, 2.0, "rtd")
    b = ("fig4", 0.001, 2.0, "rtd")
    s = 20260808
    t = s ^ _crc(a) ^ _crc(b)
    assert cli._row_seed(t, *b) != cli._row_seed(s, *a)
    assert cli._row_seed(t, *a) != cli._row_seed(s, *b)


def test_row_seeds_distinct_over_default_coordinates():
    fig4 = cli._load_config("fig4", None)
    verify = cli._load_config("mc-verify", None)
    coords = [("fig4", eps, rate, proto) for eps in fig4["eps"]
              for rate in fig4["rate"] for proto in fig4["protocols"]]
    coords += [(kind, proto, eps, sigma) for kind in ("cl", "cf")
               for proto in ("rtd", "inr") for eps in verify["eps"]
               for sigma in verify["sigma"]]
    coords += [("ol", proto, rate, p_db) for proto in ("rtd", "inr")
               for rate in verify["open_loop_rate"]
               for p_db in verify["open_loop_power_db"]]
    coords += [("nr", rate, p_db) for rate in verify["open_loop_rate"]
               for p_db in verify["open_loop_power_db"]]
    seeds = {cli._row_seed(master, *c) for master in range(100)
             for c in coords}
    assert len(seeds) == 100 * len(coords)
    assert all(0 <= seed < 2**63 for seed in seeds)


def test_row_seed_pinned_value():
    # SeedSequence(1, spawn_key=bytes of "fig4|0.01|2|rtd"), masked to 63 bits
    assert cli._row_seed(1, "fig4", 0.01, 2.0, "rtd") == 3681226960660758955


# op, assignments, direct library call; defaults stay implicit where cheap
# (method=exact, protocol=rtd, branch=0)
_EVAL_CASES = [
    ("theta", ["rate=2"], lambda: paharq.theta(2.0)),
    ("theta1", ["rate=2"], lambda: paharq.theta1(2.0)),
    ("marcum-q1", ["s=1", "rho=2"], lambda: paharq.marcum_q1(1.0, 2.0)),
    ("marcum-q1-weibull", ["s=1", "rho=2"],
     lambda: paharq.marcum_q1_weibull(1.0, 2.0)),
    ("inv-marcum-q1", ["s=1", "p=0.3"], lambda: paharq.inv_marcum_q1(1.0, 0.3)),
    ("inv-marcum-q1-asymptotic", ["s=0.5", "eps=1e-2"],
     lambda: paharq.inv_marcum_q1_asymptotic(0.5, 1e-2)),
    ("lambert-w", ["x=-0.2"], lambda: paharq.lambert_w(-0.2)),
    ("sigma-from-geometry", ["v=30", "delta=5e-3", "f_c=2.68e9", "d_a=0.1"],
     lambda: paharq.sigma_from_geometry(30.0, 5e-3, 2.68e9, 0.1)),
    ("cond-cdf-g2", ["x=0.1", "g1=1", "sigma=0.8"],
     lambda: paharq.cond_cdf_g2(0.1, 1.0, 0.8)),
    ("inv-cond-cdf-g2", ["eps=1e-2", "g1=1", "sigma=0.8"],
     lambda: paharq.inv_cond_cdf_g2(1e-2, 1.0, 0.8)),
    ("p2-rtd", ["g1=0.5", "rate=2", "eps=1e-2", "p1=3", "sigma=0.8"],
     lambda: paharq.p2_rtd(0.5, 3.0, 2.0, 1e-2, 0.8)),
    ("p2-inr", ["g1=0.5", "rate=2", "eps=1e-2", "p1=3", "sigma=0.8",
                "method=asymptotic"],
     lambda: paharq.p2_inr(0.5, 3.0, 2.0, 1e-2, 0.8,
                           paharq.QuantileMethod.ASYMPTOTIC)),
    ("avg-power-given-p1", ["p1=30", "protocol=inr", "rate=2", "eps=1e-2",
                            "sigma=0.8", "method=weibull"],
     lambda: paharq.avg_power_given_p1(
         30.0, paharq.HarqConfig(paharq.Protocol.INR, 2.0, 1e-2), 0.8,
         paharq.QuantileMethod.WEIBULL)),
    ("closed-form-avg-power", ["p1=30", "protocol=rtd", "rate=2", "eps=1e-2",
                               "sigma=0.8"],
     lambda: paharq.closed_form_avg_power(
         30.0, paharq.HarqConfig(paharq.Protocol.RTD, 2.0, 1e-2), 0.8)),
    ("optimal-p1-closed-form", ["protocol=inr", "rate=2", "eps=1e-3",
                                "sigma=0.8"],
     lambda: paharq.optimal_p1_closed_form(
         paharq.HarqConfig(paharq.Protocol.INR, 2.0, 1e-3), 0.8).p1),
    ("optimal-p1-numeric", ["protocol=rtd", "rate=2", "eps=1e-3", "sigma=0.8",
                            "method=asymptotic"],
     lambda: paharq.optimal_p1_numeric(
         paharq.HarqConfig(paharq.Protocol.RTD, 2.0, 1e-3), 0.8,
         paharq.QuantileMethod.ASYMPTOTIC).p1),
    ("zeta-rtd-closed", ["P=10", "rate=1", "sigma=0.8"],
     lambda: paharq.zeta_rtd_closed(10.0, 1.0, 0.8)),
    ("zeta-inr-closed", ["P=10", "rate=1", "sigma=0.8"],
     lambda: paharq.zeta_inr_closed(10.0, 1.0, 0.8)),
    ("open-loop-outage-exact", ["P=10", "rate=1", "sigma=0.8"],
     lambda: paharq.open_loop_outage_exact(10.0, 1.0, 0.8)),
    ("open-loop-avg-power", ["P=10", "rate=1"],
     lambda: paharq.open_loop_avg_power(10.0, 1.0)),
    ("open-loop-required-power", ["target_eps=1e-2", "rate=1", "sigma=0.8"],
     lambda: paharq.open_loop_required_power(1e-2, 1.0, 0.8)),
    ("no-retx-required-power", ["target_eps=1e-2", "rate=1"],
     lambda: paharq.no_retx_required_power(1e-2, 1.0)),
    ("no-retx-outage", ["P=10", "rate=1"],
     lambda: paharq.no_retx_outage(10.0, 1.0)),
]


@pytest.mark.parametrize("op,assignments,direct", _EVAL_CASES,
                         ids=[case[0] for case in _EVAL_CASES])
def test_eval_matches_direct_call(op, assignments, direct, capsys):
    assert main(["eval", op, *assignments]) == 0
    row = dict(zip(COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
    assert row["check"] == op and row["error"] == ""
    assert row["estimate"] == cli._fmt(float(direct()))


def test_eval_lists_every_op(capsys):
    assert main(["eval", "definitely-not-an-op"]) == 1
    listed = capsys.readouterr().err.split("available: ")[1].strip()
    assert listed.split(", ") == sorted(case[0] for case in _EVAL_CASES)


# every op's parameters, read from its function's signature: all it takes,
# in order, and those it needs, the ones without a default
_EVAL_PARAMS = {
    "theta": ("rate", "rate"),
    "theta1": ("rate", "rate"),
    "marcum-q1": ("s rho", "s rho"),
    "marcum-q1-weibull": ("s rho", "s rho"),
    "inv-marcum-q1": ("s p", "s p"),
    "inv-marcum-q1-asymptotic": ("s eps", "s eps"),
    "lambert-w": ("x branch", "x"),
    "sigma-from-geometry": ("v delta f_c d_a", "v delta f_c d_a"),
    "cond-cdf-g2": ("x g1 sigma", "x g1 sigma"),
    "inv-cond-cdf-g2": ("eps g1 sigma method", "eps g1 sigma"),
    "p2-rtd": ("g1 p1 rate eps sigma method", "g1 p1 rate eps sigma"),
    "p2-inr": ("g1 p1 rate eps sigma method", "g1 p1 rate eps sigma"),
    "avg-power-given-p1": ("p1 protocol rate eps sigma method",
                           "p1 protocol rate eps sigma"),
    "closed-form-avg-power": ("p1 protocol rate eps sigma",
                              "p1 protocol rate eps sigma"),
    "optimal-p1-closed-form": ("protocol rate eps sigma",
                               "protocol rate eps sigma"),
    "optimal-p1-numeric": ("protocol rate eps sigma method",
                           "protocol rate eps sigma"),
    "zeta-rtd-closed": ("P rate sigma", "P rate sigma"),
    "zeta-inr-closed": ("P rate sigma", "P rate sigma"),
    "open-loop-outage-exact": ("P rate sigma protocol", "P rate sigma"),
    "open-loop-avg-power": ("P rate", "P rate"),
    "open-loop-required-power": ("target_eps rate sigma protocol",
                                 "target_eps rate sigma"),
    "no-retx-required-power": ("target_eps rate", "target_eps rate"),
    "no-retx-outage": ("P rate", "P rate"),
}


@pytest.mark.parametrize("op", cli._EVAL_OPS)
def test_eval_parameters_pinned(op):
    takes, needs = (names.split() for names in _EVAL_PARAMS[op])
    with pytest.raises(ValueError) as unknown:
        cli.run_eval(op, ["zzz=1"])
    assert str(unknown.value) == (f"unknown parameter 'zzz' for {op} "
                                  f"(takes {takes})")
    with pytest.raises(ValueError) as missing:
        cli.run_eval(op, [])
    assert str(missing.value) == f"{op} needs {', '.join(needs)}"


@pytest.mark.parametrize("argv", [
    ["eval", "marcum-q1", "s=1"],                   # missing parameter
    ["eval", "p2-rtd", "g1=0.5", "rate=2", "eps=1e-2", "sigma=0.8"],  # p1
    ["eval", "theta", "rate=abc"],                  # not a number
    ["eval", "theta", "rate=1", "rho=1"],           # unknown parameter
    ["eval", "theta", "rate"],                      # no value
    ["eval", "lambert-w", "x=-0.2", "branch=0.5"],  # not an integer
    ["eval", "open-loop-outage-exact", "P=10", "rate=1", "sigma=0.8",
     "protocol=harq"],                              # not a protocol
    ["eval", "optimal-p1-numeric", "protocol=rtd", "rate=2", "eps=1e-3",
     "sigma=0.8", "p1=1"],                          # p1 is the output
])
def test_eval_usage_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["avg-power-given-p1", "p1=nan", "protocol=rtd", "rate=2", "eps=1e-3",
     "sigma=0.8"],
    ["closed-form-avg-power", "p1=nan", "protocol=rtd", "rate=2", "eps=1e-3",
     "sigma=0.8"],
    ["sigma-from-geometry", "v=nan", "delta=5e-3", "f_c=2.68e9", "d_a=0.1"],
    ["open-loop-avg-power", "P=nan", "rate=1"],
    ["zeta-rtd-closed", "P=nan", "rate=1", "sigma=0.8"],
    ["zeta-inr-closed", "P=nan", "rate=1", "sigma=0.8"],
    ["no-retx-outage", "P=nan", "rate=1"],
    ["open-loop-outage-exact", "P=nan", "rate=1", "sigma=0.8"],
    ["cond-cdf-g2", "x=nan", "g1=1", "sigma=0.8"],
    ["lambert-w", "x=nan"],
    ["p2-rtd", "g1=0.5", "rate=2", "eps=1e-2", "p1=nan", "sigma=0.8"],
], ids=lambda argv: argv[0])
def test_eval_nan_input_exits_one(argv, capsys):
    # a NaN power or geometry is a usage error, not a nan estimate
    assert main(["eval", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


_BELOW_FLOOR = "error: sigma must be >= 0.001, got 1e-300\n"


@pytest.mark.parametrize("argv", [
    ["cond-cdf-g2", "x=0.1", "g1=1"],
    ["closed-form-avg-power", "p1=30", "protocol=rtd", "rate=2", "eps=1e-2"],
    ["optimal-p1-closed-form", "protocol=rtd", "rate=2", "eps=1e-2"],
    ["zeta-rtd-closed", "P=10", "rate=1"],
    ["open-loop-outage-exact", "P=10", "rate=1"],
    ["p2-rtd", "g1=0.5", "rate=2", "eps=1e-2", "p1=3", "method=asymptotic"],
], ids=lambda argv: argv[0])
def test_eval_sigma_below_floor_exits_one(argv, capsys):
    assert main(["eval", *argv, "sigma=1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == _BELOW_FLOOR


@pytest.mark.parametrize("argv", [
    ["v=inf", "delta=1", "f_c=1e9", "d_a=1"],
    ["v=1e308", "delta=10", "f_c=1e9", "d_a=1"],
])
def test_eval_infinite_mismatch_distance_exits_one(argv, capsys):
    assert main(["eval", "sigma-from-geometry", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mismatch distance |d_a - v delta| is inf\n"


@pytest.mark.parametrize("argv", [["P=1", "rate=0"], ["P=inf", "rate=1"]])
def test_eval_open_loop_outage_without_round_one_failure(argv, capsys):
    assert main(["eval", "open-loop-outage-exact", *argv, "sigma=0.8"]) == 0
    row = dict(zip(COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
    assert float(row["estimate"]) == 0.0 and row["error"] == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("op", ["closed-form-avg-power",
                                "avg-power-given-p1"])
def test_eval_infinite_p1_is_infinite(op, capsys):
    argv = [op, "p1=inf", "protocol=rtd", "rate=2", "eps=1e-3", "sigma=0.8"]
    if op == "avg-power-given-p1":
        argv.append("method=asymptotic")
    assert main(["eval", *argv]) == 0
    captured = capsys.readouterr()
    row = dict(zip(COLUMNS, captured.out.splitlines()[1].split(",")))
    assert row["estimate"] == "inf" and captured.err == ""


@pytest.mark.parametrize("argv,message", [
    (["marcum-q1", "s=1e5", "rho=1e5"], "s=100000.0, rho=100000.0"),
    (["marcum-q1", "s=1e300", "rho=1e300"], "s=1e+300, rho=1e+300"),
    (["inv-cond-cdf-g2", "eps=1e-300", "g1=1", "sigma=0.8"],
     "eps > 2**-54"),
    (["cond-cdf-g2", "x=5e5", "g1=5e5", "sigma=0.001"],
     "x=500000, g1=500000, sigma=0.001"),
])
def test_eval_input_without_float_value_exits_one(argv, message, capsys):
    # the Q1 series does not converge, 1 - eps rounds to 1, or chndtr
    # returns NaN
    assert main(["eval", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv,message", [
    (["open-loop-required-power", "target_eps=0.9999999", "rate=0.1",
      "sigma=0.8"], "unreachable"),               # InfeasibleError
    (["optimal-p1-closed-form", "protocol=rtd", "rate=2", "eps=0.5",
      "sigma=0.5"], "closed form undefined"),     # ClosedFormDomainError
    (["optimal-p1-closed-form", "protocol=rtd", "rate=709", "eps=0.1",
      "sigma=0.8"], "closed-form optimum not finite"),    # p1 overflows
])
def test_eval_library_error_becomes_row(argv, message, capsys):
    assert main(["eval", *argv]) == 2
    row = dict(zip(COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
    assert row["check"] == argv[0] and row["estimate"] == ""
    assert message in row["error"]


@pytest.mark.parametrize("method", ["closed-form", "numeric-weibull",
                                    "numeric-exact"])
def test_sigma_outside_unit_interval_exits_one(tmp_path, capsys, method):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [1e-2], "rate": [0.5], "sigma": 1.5, "protocols": ["rtd"],
        "methods": [method],
    }))
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--config", str(config), "--out", str(out)]) == 1
    assert "sigma must be in (0, 1], got 1.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,config", [
    ("fig3", {"sigma": 1e-300, "eps": [0.1], "rate": [1.0],
              "methods": ["closed-form"]}),
    ("headline", {"sigma": 1e-300}),
])
def test_sigma_below_floor_exits_one(tmp_path, capsys, command, config):
    # sigma^2 underflows below ~1.5e-154; the floor SIGMA_MIN rejects it
    # the way sigma = 1.5 is rejected
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == _BELOW_FLOOR
    assert not out.exists()


def test_fig4_sigma_below_floor_is_error_row(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"sigma": 1e-200, "eps": [0.1],
                                  "rate": [1.0], "trials": 1000}))
    out = tmp_path / "fig4.csv"
    assert main(["fig4", "--seed", "1", "--config", str(config),
                 "--out", str(out)]) == 2
    rows = read_csv(out)
    closed = [r for r in rows if r["method"] == "closed-form"]
    assert len(closed) == 2
    assert all("sigma must be >= 0.001" in r["error"] for r in closed)


def test_mc_verify_open_loop_sigma_below_floor_keeps_closed_loop(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"open_loop_sigma": 1e-300, "eps": [0.1],
                                  "sigma": [1.0], "trials": 1000}))
    out = tmp_path / "mc.csv"
    assert main(["mc-verify", "--seed", "1", "--config", str(config),
                 "--out", str(out)]) == 2
    rows = read_csv(out)
    closed_loop = [r for r in rows if r["sigma"] == "1"]
    open_loop = [r for r in rows if r["sigma"] == "1e-300"]
    assert closed_loop and not any(r["error"] for r in closed_loop)
    assert open_loop
    assert all("sigma must be >= 0.001" in r["error"] for r in open_loop)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_subcommand_has_a_packaged_config(command):
    path = (Path(cli.__file__).with_name("configs")
            / f"{command.replace('-', '_')}.json")
    packaged = json.loads(path.read_text())
    assert packaged and cli._load_config(command, None) == packaged


def test_fig4_error_row_bytes(tmp_path):
    # an unreachable target: the closed-form row carries only its
    # coordinates, trials, row seed and the message
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [1e-9], "rate": [6.0], "sigma": 0.05, "protocols": ["rtd"],
        "trials": 1000}))
    out = tmp_path / "fig4.csv"
    assert main(["fig4", "--seed", "3", "--config", str(config),
                 "--out", str(out)]) == 2
    assert out.read_text().splitlines()[1:] == [
        "fig4,1.0000000000000001e-09,6,0.050000000000000003,,,rtd,"
        "closed-form,,,,,,,,,,,,,,,,,1000,4942005033288613115,"
        f"{paharq.__version__},"
        "\"outage target 1e-09 unreachable for rate=6.0, sigma=0.05, "
        "protocol=rtd\"",
        "fig4,1.0000000000000001e-09,6,0.050000000000000003,,,rtd,no-retx,,,"
        f"402428793291.52063,116.04689046402399,,,,,,,,,,,,,,,"
        f"{paharq.__version__},",
    ]


def test_fig4_error_row_carries_its_row_seed():
    # every Monte Carlo row carries its own seed, an error row too
    closed, no_retx = cli._fig4_point({"sigma": 0.8, "trials": 100}, 5,
                                      1e-9, 0.3, "rtd")
    assert closed["error"].startswith("outage target 0.3 unreachable")
    assert closed["seed"] == cli._row_seed(5, "fig4", 0.3, 1e-9, "rtd") != 5
    assert no_retx["seed"] is None


@pytest.mark.parametrize("protocol", ["rtd", "inr"])
@pytest.mark.parametrize("p_db", [-15.0, -5.0])
def test_mc_verify_open_loop_where_every_trial_fails_round_one(protocol,
                                                               p_db):
    # at rate 2 all 2000 trials fail round one (theta/P = 202 at -15 dB, 20
    # at -5 dB), so the simulated average power is exactly 2P with a sample
    # se of 0: the model's se keeps z finite, and at -15 dB the exact
    # outage, clamped to 1, meets a simulated 1 with z = 0
    rows = cli._open_loop_rows({"open_loop_sigma": 1.0, "trials": 2000}, 1,
                               protocol, 2.0, p_db)
    assert [r["error"] for r in rows] == [None] * 3
    assert rows[0]["n_denominator"] == 2000
    avg = rows[-1]
    assert avg["check"] == "open_loop_avg_power"
    assert 0.0 < avg["se"] and avg["z_score"] < 0.01
    if p_db == -15.0:
        assert avg["estimate"] == avg["reference"] and avg["z_score"] == 0.0
        assert rows[0]["reference"] == 1.0 and rows[0]["z_score"] == 0.0


def test_fig4_rate_past_polynomial_overflow(tmp_path):
    # at rate 230 theta/P passes 1e102 at the bracket's P = 1e-6, where
    # the closed form's u**3 overflows a float unless e^(-u/sigma^2),
    # which has underflowed to 0, drops the polynomial first
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"rate": [230.0], "eps": [0.01],
                                  "protocols": ["rtd"], "trials": 1000}))
    out = tmp_path / "fig4.csv"
    assert main(["fig4", "--seed", "3", "--config", str(config),
                 "--out", str(out)]) == 2
    closed, no_retx = read_csv(out)
    assert closed["method"] == "closed-form"
    assert closed["error"].startswith("outage target 0.01 unreachable")
    assert closed["round_power"] == ""
    assert no_retx["method"] == "no-retx" and no_retx["error"] == ""


@pytest.mark.parametrize("argv,config", [
    (["fig3"], {"rate": [800.0], "eps": [1e-3]}),
    (["fig4", "--seed", "1"], {"rate": [800.0], "eps": [1e-3],
                               "trials": 1000}),
    (["mc-verify", "--seed", "1"], {"open_loop_rate": [800.0],
                                    "open_loop_power_db": [10.0],
                                    "eps": [0.1], "sigma": [1.0],
                                    "trials": 1000}),
    (["fig5"], {"v_kmh": [60.0], "d_a_wavelengths": [1.5], "rate": 800.0}),
    (["mc-verify", "--seed", "1"], {"rate": 800.0, "eps": [0.1],
                                    "sigma": [1.0], "trials": 1000}),
    (["eval", "theta", "rate=800"], None),
], ids=["fig3", "fig4", "mc-verify", "fig5", "mc-verify-closed-loop", "eval"])
def test_rate_past_threshold_overflow_exits_one(tmp_path, capsys, no_table,
                                                argv, config):
    # e^rate - 1 overflows a float above rate ~709.8: a config error,
    # found before any exact table is built
    out = tmp_path / "out.csv"
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: rate 800.0 is too large: its SNR threshold overflows\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,config,rate,eps", [
    (["fig3"], {"eps": [1e-5], "rate": [700.0], "sigma": 0.8,
                "methods": ["closed-form"]}, 700.0, 1e-5),
    (["headline"], {"rate": 700.0}, 700.0, 1e-5),
    (["fig4", "--seed", "1"], {"eps": [1e-5], "rate": [700.0],
                               "protocols": ["rtd"], "trials": 100},
     700.0, 1e-5),
    (["eval", "no-retx-required-power", "target_eps=0.1", "rate=709"], None,
     709.0, 0.1),
], ids=["fig3", "headline", "fig4", "eval"])
def test_single_shot_power_overflow_exits_one(tmp_path, capsys, monkeypatch,
                                              no_table, argv, config, rate,
                                              eps):
    # theta / -log(1 - eps) overflows below the rate where theta does
    # (~698.3 at eps 1e-5, ~707.5 at eps 0.1): an input error, found
    # before any table or Monte Carlo run
    def simulate(*args, **kwargs):
        raise AssertionError("ran the Monte Carlo simulator")
    monkeypatch.setattr(cli, "run_open_loop_conditional", simulate)
    out = tmp_path / "out.csv"
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: rate {rate} is too large: its single-shot power at eps "
        f"{eps} overflows\n")
    assert not out.exists()


def test_closed_form_optimum_overflow_becomes_error_row(tmp_path, capsys):
    # at rate 709 RTD's closed-form p1 overflows to inf, while INR's, on
    # the threshold 2 (e^{rate/2} - 1), stays finite
    config = {"v_kmh": [60.0], "d_a_wavelengths": [1.5], "rate": 709.0,
              "methods": ["closed-form"]}
    assert _run_config(tmp_path, "fig5", config) == 2
    assert capsys.readouterr().err == ""
    rtd, inr = read_csv(tmp_path / "o.csv")
    assert rtd["protocol"] == "rtd" and rtd["p1"] == rtd["avg_power"] == ""
    assert rtd["error"].startswith("closed-form optimum not finite: p1=inf")
    assert inr["protocol"] == "inr" and inr["error"] == ""
    assert math.isfinite(float(inr["p1"]))
    assert math.isfinite(float(inr["avg_power"]))


@pytest.mark.filterwarnings("error")
def test_fig3_inr_rate_700_solves(tmp_path, capsys, panel_cap):
    # the optimal p1 ~ 6e153 puts the INR numerator's drop at g1 ~ 1/p1 far
    # below the table's first knot, and (1 + g1 p1)^2 overflows in the
    # slope where its quotient is already 0
    methods = ["numeric-weibull", "numeric-asymptotic", "closed-form"]
    config = {"eps": [0.1], "rate": [700.0], "sigma": 0.8,
              "protocols": ["inr"], "methods": methods}
    assert _run_config(tmp_path, "fig3", config) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(tmp_path / "o.csv")
    assert [r["method"] for r in rows] == methods + ["no-retx"]
    for r in rows[:3]:
        assert r["error"] == ""
        assert float(r["p1"]) > 1e152 and math.isfinite(float(r["avg_power"]))


@pytest.mark.parametrize("config", [
    # the conditional sampler's normals fall in their window |x| < B with
    # probability w ~ 6e-5
    {"eps": [1e-9], "rate": [0.5], "sigma": 0.8, "protocols": ["rtd"]},
    # w ~ 0.9999: fig4 solves its power from the closed form, so a small
    # sigma would narrow the window
    {"eps": [0.99], "rate": [0.5], "sigma": 1.0, "protocols": ["inr"]},
], ids=["narrow", "wide"])
def test_fig4_at_both_ends_of_the_sampler_window(tmp_path, capsys, config):
    # every one of the default 100,000 trials fails round one, and the
    # simulated outage meets the exact one
    assert _run_config(tmp_path, "fig4", config) == 0
    assert capsys.readouterr().err == ""
    closed, no_retx = read_csv(tmp_path / "o.csv")
    assert closed["error"] == no_retx["error"] == ""
    assert int(closed["n_denominator"]) == int(closed["n_trials"]) == 100_000
    mc, se = float(closed["outage_mc"]), float(closed["outage_mc_se"])
    assert abs(mc - float(closed["outage_exact"])) <= 3 * se + 1e-9


def test_library_errors_share_one_base():
    for cls, base in ((paharq.BracketError, RuntimeError),
                      (paharq.QuadratureError, RuntimeError),
                      (paharq.ClosedFormDomainError, ValueError),
                      (paharq.InfeasibleError, RuntimeError),
                      (paharq.DegenerateConditioningError, RuntimeError)):
        assert issubclass(cls, paharq.PaharqError) and issubclass(cls, base)


@pytest.mark.parametrize("command", ["fig3", "fig4"])
@pytest.mark.parametrize("config,message", [
    ({"eps": ["a"], "methods": ["closed-form"]},
     "config key 'eps' must be a number or an array of them, got [\"a\"]"),
    ({"sigma": None}, "config key 'sigma' must be a number, got null"),
])
def test_config_value_of_wrong_kind_exits_one(tmp_path, capsys, command,
                                              config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o.csv")]
    assert main(argv + (["--seed", "1"] if command == "fig4" else [])) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# one-point grids, so that a config error that goes unnoticed costs little
_SMALL_CONFIGS = {
    "fig3": {"eps": [0.1], "rate": [0.5], "methods": ["closed-form"]},
    "fig4": {"eps": [0.1], "rate": [0.5], "protocols": ["rtd"],
             "trials": 100},
    "fig5": {"v_kmh": [60.0], "d_a_wavelengths": [1.5],
             "methods": ["closed-form"]},
    "headline": {"rate": 0.5},
    "mc-verify": {"eps": [0.01], "sigma": [0.8], "open_loop_rate": [2.0],
                  "open_loop_power_db": [10.0], "trials": 1000},
}


def _run_config(tmp_path, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o.csv")]
    return main(argv + (["--seed", "1"] if command in cli.MC_COMMANDS else []))


@pytest.mark.parametrize("command,key", [
    *((command, "epss") for command in _SMALL_CONFIGS),
    # the master seed is the --seed flag's alone
    *((command, "seed") for command in _SMALL_CONFIGS),
])
def test_unknown_config_key_exits_one(tmp_path, capsys, command, key):
    config = dict(_SMALL_CONFIGS[command], **{key: [0.1]})
    assert _run_config(tmp_path, command, config) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown config key {key!r} for {command} "
                          "(takes ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command,key", [
    ("fig3", "eps"), ("fig3", "rate"), ("fig3", "protocols"),
    ("fig3", "methods"), ("fig4", "protocols"), ("fig5", "v_kmh"),
    ("mc-verify", "sigma"), ("mc-verify", "open_loop_power_db"),
])
def test_empty_config_array_exits_one(tmp_path, capsys, command, key):
    config = dict(_SMALL_CONFIGS[command], **{key: []})
    assert _run_config(tmp_path, command, config) == 1
    assert capsys.readouterr().err == (
        f"error: config key {key!r} must be a non-empty array, got []\n")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command,key,value", [
    ("fig3", "methods", ["numeric-exact", "closed-form", "numeric-exact"]),
    ("fig4", "protocols", ["rtd", "rtd"]),
    ("mc-verify", "eps", [0.01, 0.01]),
    # 2 and 2.0 print alike, so their rows would share one row seed
    ("mc-verify", "open_loop_rate", [2, 2.0]),
])
def test_repeated_config_value_exits_one(tmp_path, capsys, no_table, command,
                                         key, value):
    config = dict(_SMALL_CONFIGS[command], **{key: value})
    assert _run_config(tmp_path, command, config) == 1
    assert capsys.readouterr().err == (
        f"error: config key {key!r} repeats {json.dumps(value[-1])}\n")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["fig3", "fig5"])
@pytest.mark.parametrize("names,message", [
    ({"methods": ["numeric-exact", "closed"]}, "unknown method 'closed'"),
    ({"methods": ["numeric-exatc"]}, "'exatc' is not a valid QuantileMethod"),
    ({"protocols": ["rdt"]}, "'rdt' is not a valid Protocol"),
])
def test_unknown_name_exits_one(tmp_path, capsys, no_table, command, names,
                                message):
    config = dict(_SMALL_CONFIGS[command], methods=["numeric-exact"])
    assert _run_config(tmp_path, command, dict(config, **names)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("bad,message", [
    ({"open_loop_rate": [0.0]}, "rate must be > 0, got 0.0"),
    ({"open_loop_rate": [800.0]},
     "rate 800.0 is too large: its SNR threshold overflows"),
    ({"p1": -1}, "p1 must be > 0, got -1.0"),
    ({"p1": 0}, "p1 must be > 0, got 0.0"),
    ({"p1": math.nan}, "p1 must be > 0, got nan"),
], ids=["rate-0", "rate-800", "p1--1", "p1-0", "p1-nan"])
def test_mc_verify_value_exits_one_before_any_table(tmp_path, capsys,
                                                    no_table, bad, message):
    # the closed-loop checks, which build the tables, come first in the grid
    config = dict({"eps": [0.001], "sigma": [0.8], "trials": 1000}, **bad)
    assert _run_config(tmp_path, "mc-verify", config) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o.csv").exists()


def test_eval_repeated_parameter_exits_one(capsys):
    assert main(["eval", "theta", "rate=2", "rate=3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: rate given twice\n"


def test_one_value_stands_for_a_one_element_grid(tmp_path):
    outputs = []
    for eps, methods in ((1e-2, "closed-form"), ([1e-2], ["closed-form"])):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"eps": eps, "rate": 0.5,
                                    "protocols": "rtd", "methods": methods}))
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--config", str(path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 3


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "eps": [1e-2], "rate": [2.0], "protocols": ["rtd"], "trials": 5000,
    }))
    fig4 = ["fig4", "--config", str(config), "--seed", "3", "--out"]
    assert main(fig4 + [str(tmp_path / "first.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["fig4", "--config", str(config)])     # no seed
    assert exc.value.code == 1
    assert main(["eval", "theta", "rate=2"]) == 0
    assert main(fig4 + [str(tmp_path / "again.csv")]) == 0
    assert ((tmp_path / "first.csv").read_bytes()
            == (tmp_path / "again.csv").read_bytes())
    assert cli._build_parser() is cli._build_parser()
