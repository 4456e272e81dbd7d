"""One-point runs of every subcommand against reference CSVs.

tests/reference/cases.json names each case's subcommand, config and exit
code, and tests/reference/<case>.csv holds its output.  The deterministic
columns must match: closed-form and quadrature values to 1e-12 relative,
an optimum's p1 to 1e-3 dB (the optimizer's tolerance) and its average
power to 1e-6 dB, and seeds, trial counts, error cells and exit codes
exactly.  The Monte Carlo value columns are skipped: they depend on
numpy's Generator streams, which NEP 19 lets change between versions.

A change that moves a number on purpose regenerates the references in the
same commit, so that their diff shows the drift:

    PYTHONPATH=src python tests/test_reference_csvs.py
"""

import csv
import json
import math
import tempfile
from pathlib import Path

from paharq import cli

REFERENCE = Path(__file__).parent / "reference"

# seed for the Monte Carlo subcommands
_SEED = "1"
# filled in only by Monte Carlo draws
_MC_COLUMNS = {"outage_mc", "outage_mc_se", "n_denominator", "estimate",
               "se", "z_score"}
_EXACT_COLUMNS = {"figure", "protocol", "method", "check", "seed",
                  "n_trials", "error"}
# the columns of a numeric optimum, and their tolerance in dB
_OPTIMUM_DB = {"p1": 1e-3, "p1_db": 1e-3, "avg_power": 1e-6,
               "avg_power_db": 1e-6, "gain_db_vs_no_retx": 1e-6}


def _run(command, config, out, workdir):
    argv = [command, "--out", str(out)]
    if config is not None:
        path = workdir / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    if command in cli.MC_COMMANDS:
        argv += ["--seed", _SEED]
    return cli.main(argv)


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _tolerance(row, column):
    """None to skip the cell, ("db", tol) for tol dB, else a relative
    tolerance; the columns in _EXACT_COLUMNS are compared as text."""
    if column == "code_version":
        return None     # a release bump is no drift of the numbers
    if row["figure"] in cli.MC_COMMANDS and column in _MC_COLUMNS:
        return None
    if row["method"].startswith("numeric-") and column in _OPTIMUM_DB:
        return "db", _OPTIMUM_DB[column]
    if row["check"] == "closed_vs_numeric_gap_db" and column == "reference":
        return "db", 1e-6   # numeric-exact's average power
    return 1e-12


def _cell_differs(row, column, got, want):
    tol = _tolerance(row, column)
    if tol is None or got == want:
        return False
    if column in _EXACT_COLUMNS or "" in (got, want):
        return True
    a, b = float(got), float(want)
    if isinstance(tol, tuple):
        db = a - b if "db" in column else 10.0 * math.log10(a / b)
        return not abs(db) <= tol[1]
    return not math.isclose(a, b, rel_tol=tol, abs_tol=0.0)


def _cases():
    return json.loads((REFERENCE / "cases.json").read_text())


def pytest_generate_tests(metafunc):
    # read at collection, so that the regeneration below can import this
    # module before cases.json exists
    metafunc.parametrize("name", sorted(_cases()))


def test_matches_reference(name, tmp_path, monkeypatch, qcache):
    # the cases share their exact tables with the rest of the session;
    # a table's values do not depend on where it is built
    monkeypatch.setattr(cli, "GainQuantile", qcache.get)
    case = _cases()[name]
    out = tmp_path / "out.csv"
    code = _run(case["command"], case["config"], out, tmp_path)
    assert code == case["exit_code"]
    got, want = _read(out), _read(REFERENCE / f"{name}.csv")
    assert got[0] == want[0] == cli.COLUMNS
    assert len(got) == len(want)
    for line, (got_cells, want_cells) in enumerate(zip(got[1:], want[1:]), 2):
        row = dict(zip(cli.COLUMNS, want_cells))
        differs = [f"{c}: {g!r} != {w!r}" for c, g, w in
                   zip(cli.COLUMNS, got_cells, want_cells)
                   if _cell_differs(row, c, g, w)]
        assert not differs, f"{name}.csv line {line}: {'; '.join(differs)}"


def _regenerate():
    """Write every case's reference CSV and cases.json from the code on the
    path: the small configs of test_cli, one fig3 point of every method,
    the default headline and a fig3 point whose optima fail."""
    from test_cli import _SMALL_CONFIGS
    configs = {f"{command}-small": (command, config)
               for command, config in _SMALL_CONFIGS.items()}
    configs["fig3-every-method"] = ("fig3", {
        "eps": [1e-5], "rate": [2.0],
        "methods": ["numeric-exact", "numeric-weibull", "numeric-asymptotic",
                    "closed-form"]})
    configs["headline-default"] = ("headline", None)
    # |log(1-eps)|/sigma^2 > 1: no closed form, and the numeric minimum
    # lies under the search floor
    configs["fig3-error-rows"] = ("fig3", {
        "eps": [0.1], "rate": [0.5], "sigma": 0.3,
        "methods": ["closed-form", "numeric-asymptotic"]})
    REFERENCE.mkdir(exist_ok=True)
    cases = {}
    for name, (command, config) in configs.items():
        with tempfile.TemporaryDirectory() as tmp:
            code = _run(command, config, REFERENCE / f"{name}.csv", Path(tmp))
        cases[name] = {"command": command, "config": config, "exit_code": code}
        print(f"{name}: exit {code}")
    (REFERENCE / "cases.json").write_text(json.dumps(cases, indent=2) + "\n")


if __name__ == "__main__":
    _regenerate()
