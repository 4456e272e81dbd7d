"""Experiment runner: figure sweeps, headline gains, spot evaluation, and
the closed-form-versus-Monte-Carlo verification suite, all emitted as CSV.

Subcommands
-----------
fig3      optimized required power vs outage target (both protocols,
          numeric and closed-form optima, single-shot baseline)
fig4      open-loop required power vs outage target, with Monte Carlo
          validation of the closed-form outage
fig5      optimized required power vs vehicle speed, mismatch derived from
          drive geometry, for several antenna separations
headline  power gains of the optimized schemes over no retransmission at
          eps=1e-5, rate=4
eval      single-point evaluation of any registered operation
mc-verify closed forms vs protocol-level simulation with z-scores

The table `_COMMANDS` holds, per subcommand but eval, the flags it takes
and its point grid: point functions and the config lists they run over,
all run by `_run`.  The config is the subcommand's packaged
configs/<name>.json with the --config keys over it.  fig3, fig5 and
headline share one point function; their `_Sweep` data says what
differs.  eval calls the package function named by its op, with the
parameters read from its signature.

Reproducibility: every row carries the code version, and every Monte
Carlo row its own seed, spawned from the master seed's SeedSequence on
the row's coordinate string, so a row's bytes do not depend on grid
composition.  Only fig4 and mc-verify draw samples, so only they take
--seed, which the parser requires, and a `trials` config key, which
`_load_config` checks with the other config values.
Exit codes: 0 all rows ok, 1 input error (a flag the parser rejects, or
a ValueError, such as a bad config or eval input, that `main` reports in
one `error:` line), 2 some rows failed, were infeasible or hit an
optimizer failure (annotated in the `error` column).
"""

import argparse
import csv
import inspect
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import cache, partial
from importlib.resources import files
from typing import NamedTuple

import numpy as np

from . import __version__
from .allocation import (
    avg_power_given_p1,
    closed_form_avg_power,
    optimal_p1_closed_form,
    optimal_p1_numeric,
)
from .benchmarks import (
    no_retx_outage,
    no_retx_required_power,
    open_loop_avg_power,
    open_loop_outage_exact,
    open_loop_round_power,
    zeta_inr_closed,
    zeta_rtd_closed,
)
from .channel import (
    SPEED_OF_LIGHT,
    GainQuantile,
    QuantileMethod,
    _check_sigma,
    sigma_from_geometry,
)
from .harq import HarqConfig, PaharqError, Protocol, theta
from .montecarlo import (
    DegenerateConditioningError,
    run_closed_loop,
    run_no_retx,
    run_open_loop,
    run_open_loop_conditional,
)

COLUMNS = [
    "figure", "eps", "rate", "sigma", "v_kmh", "d_a_wavelengths",
    "protocol", "method", "p1", "p1_db", "avg_power", "avg_power_db",
    "round_power", "outage_closed", "outage_exact", "outage_mc",
    "outage_mc_se", "n_denominator", "gain_db_vs_no_retx", "check",
    "reference", "estimate", "se", "z_score", "n_trials", "seed",
    "code_version", "error",
]

# failures that turn one row into an annotated error row instead of
# aborting the sweep
_ROW_ERRORS = (PaharqError, ValueError)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


def _row(**kw) -> dict:
    row = {k: None for k in COLUMNS}
    row["code_version"] = __version__
    row.update(kw)
    unknown = set(kw) - set(COLUMNS)
    if unknown:
        raise KeyError(f"unknown columns {unknown}")
    return row


@contextmanager
def _error_row(rows, coords, **extra):
    """A row error raised in the block becomes one more row of `rows`:
    `coords` as they stand when it is raised, `extra` and the message."""
    try:
        yield
    except _ROW_ERRORS as exc:
        rows.append(_row(error=str(exc), **coords, **extra))


def _row_seed(master_seed: int, *coords) -> int:
    """63-bit Monte Carlo seed of one row: the master seed's SeedSequence
    spawned on the bytes of the row's coordinate string, so no two master
    seeds trade the streams of two rows."""
    key = "|".join(_fmt(c) for c in coords).encode()
    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0]) & (2**63 - 1)


def _write_csv(rows, out_path):
    handle = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in COLUMNS])
    finally:
        if out_path:
            handle.close()


@cache
def _default_config(name: str) -> str:
    """The text of the subcommand's packaged configs/<name>.json, read once
    per process."""
    path = files(__package__) / "configs" / f"{name.replace('-', '_')}.json"
    return path.read_text()


def _load_config(name: str, path: str | None) -> dict:
    # parsed per call, so no caller shares the lists of another
    cfg = json.loads(_default_config(name))
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config {path} must be a flat JSON object")
        for key, value in loaded.items():
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r} for {name} "
                                 f"(takes {', '.join(cfg)})")
            cfg[key] = _checked(key, value, cfg[key])
    # checked before any point runs (and builds its table): the names,
    # mc-verify's round-one power, the trial count, stored as an int, and
    # mc-verify's open-loop rates, which must be > 0, since at rate 0 every
    # round one decodes and no open-loop check can measure anything, and
    # must have a finite threshold
    for protocol in cfg.get("protocols", ()):
        Protocol(protocol)
    for method in cfg.get("methods", ()):
        _quantile_method(method)
    if "p1" in cfg and not cfg["p1"] > 0:
        raise ValueError(f"p1 must be > 0, got {float(cfg['p1'])}")
    if "trials" in cfg:
        trials = cfg["trials"]
        if not (isinstance(trials, int) or trials.is_integer()):
            raise ValueError(f"trials must be a finite integer, got {trials}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        cfg["trials"] = int(trials)
    for rate in cfg.get("open_loop_rate", ()):
        if not rate > 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        theta(rate)
    return cfg


def _checked(key: str, value, default):
    """A loaded config value, checked against the JSON kind of its default:
    a number (not a boolean), a string, or an array of the kind of the
    default's elements, where one value stands for a one-element array;
    an array is not empty and repeats no value, since a repeated grid
    coordinate would repeat its rows and their row seeds."""
    many = isinstance(default, list)
    items = value if many and isinstance(value, list) else [value]
    if not items:
        raise ValueError(f"config key {key!r} must be a non-empty array, "
                         "got []")
    text = isinstance(default[0] if many else default, str)
    for i, item in enumerate(items):
        if isinstance(item, bool) or not isinstance(
                item, str if text else (int, float)):
            kind = "a string" if text else "a number"
            raise ValueError(f"config key {key!r} must be {kind}"
                             f"{' or an array of them' if many else ''}, "
                             f"got {json.dumps(value)}")
        if item in items[:i]:
            raise ValueError(f"config key {key!r} repeats {json.dumps(item)}")
    return items if many else value


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1 - p), 1e-300) / n)


# ---------------------------------------------------------------------------
# optimized sweeps: fig3 (vs outage target), fig5 (vs vehicle speed) and
# headline (gains over no retransmission) are one point function over data
# ---------------------------------------------------------------------------

def _quantile_method(method: str) -> QuantileMethod | None:
    """The quantile method of a `numeric-<quantile method>` name, None for
    `closed-form`; ValueError for any other name."""
    if method == "closed-form":
        return None
    if not method.startswith("numeric-"):
        raise ValueError(f"unknown method {method!r}")
    return QuantileMethod(method.removeprefix("numeric-"))


class _Sweep(NamedTuple):
    """An optimized sweep: the config lists whose product is its grid,
    outermost first, and the config values every point carries.  No-retx
    rows follow each protocol ("after"), lead ("first") or are left out;
    protocols and methods not fixed here come from the config."""

    figure: str
    grid: tuple
    scalars: tuple
    no_retx: str = ""
    check: bool = False         # closed-vs-numeric gap on closed-form rows
    protocols: tuple = ()
    methods: tuple = ()


def _sweep_point(sweep, config, master_seed, *coords):
    """Per protocol, one row per method (`closed-form` or
    `numeric-<quantile method>`), plus the no-retx rows.

    A point without a sigma derives it from the drive geometry.  An
    invalid sigma raises ValueError before any method runs; a failing
    method becomes a row with its `error` column set.  The protocols share
    one exact quantile table, built up front.
    """
    fields = dict(zip(sweep.grid, coords), figure=sweep.figure,
                  **{key: float(config[key]) for key in sweep.scalars})
    protocols = sweep.protocols or config["protocols"]
    methods = sweep.methods or config["methods"]
    if "sigma" not in fields:
        f_c = fields.pop("f_c")
        fields["sigma"] = sigma_from_geometry(
            fields["v_kmh"] / 3.6, fields.pop("delta"), f_c,
            fields["d_a_wavelengths"] * (SPEED_OF_LIGHT / f_c))
    eps, rate, sigma = fields["eps"], fields["rate"], fields["sigma"]
    _check_sigma(sigma)
    no_retx = no_retx_required_power(eps, rate) if sweep.no_retx else None
    # HarqConfig checks the rate, which fig5 takes from its config, before
    # the table build that a bad rate would waste
    cfgs = [HarqConfig(protocol=protocol, rate=rate, eps=eps)
            for protocol in map(Protocol, protocols)]
    table = None
    if "numeric-exact" in methods:
        table = GainQuantile(eps, sigma, QuantileMethod.EXACT)
    out = []
    if sweep.no_retx == "first":
        out.append(_no_retx_row(no_retx, protocol="none", **fields))
    for cfg in cfgs:
        protocol = cfg.protocol
        rows = []
        for method in methods:
            labels = dict(method=method, protocol=protocol.value, **fields)
            with _error_row(rows, labels):
                qmethod = _quantile_method(method)
                if qmethod is None:
                    sol = optimal_p1_closed_form(cfg, sigma)
                else:
                    quantile = table if qmethod is QuantileMethod.EXACT else None
                    sol = optimal_p1_numeric(cfg, sigma, qmethod,
                                             quantile=quantile)
                gain = None
                if no_retx is not None:
                    gain = _db(no_retx) - sol.avg_power_db
                rows.append(_row(p1=sol.p1, p1_db=sol.p1_db,
                                 avg_power=sol.avg_power,
                                 avg_power_db=sol.avg_power_db,
                                 gain_db_vs_no_retx=gain, **labels))
        solved = {r["method"]: r for r in rows if not r["error"]}
        if sweep.check and {"closed-form", "numeric-exact"} <= solved.keys():
            closed = solved["closed-form"]
            closed.update(check="closed_vs_numeric_gap_db",
                          reference=solved["numeric-exact"]["avg_power_db"],
                          estimate=closed["avg_power_db"])
        out += rows
        if sweep.no_retx == "after":
            out.append(_no_retx_row(no_retx, protocol=protocol.value, **fields))
    return out


def _no_retx_row(no_retx, **fields):
    return _row(method="no-retx", avg_power=no_retx, avg_power_db=_db(no_retx),
                gain_db_vs_no_retx=0.0, **fields)


# headline and mc-verify cover both protocols, whatever a config says
_PROTOCOLS = ("rtd", "inr")
_FIG3 = _Sweep("fig3", ("rate", "eps"), ("sigma",), no_retx="after",
               check=True)
_FIG5 = _Sweep("fig5", ("d_a_wavelengths", "v_kmh"),
               ("rate", "eps", "delta", "f_c"))
_HEADLINE = _Sweep("headline", (), ("eps", "rate", "sigma"), no_retx="first",
                   protocols=_PROTOCOLS,
                   methods=("closed-form", "numeric-exact"))


# ---------------------------------------------------------------------------
# fig4: open-loop required power vs outage target
# ---------------------------------------------------------------------------

def _fig4_point(config, master_seed, rate, eps, protocol_name):
    sigma, trials = float(config["sigma"]), config["trials"]
    protocol = Protocol(protocol_name)
    coords = dict(figure="fig4", eps=eps, rate=rate, sigma=sigma,
                  protocol=protocol.value)
    seed = _row_seed(master_seed, "fig4", eps, rate, protocol.value)
    rows = []
    with _error_row(rows, coords, method="closed-form", n_trials=trials,
                    seed=seed):
        P = open_loop_round_power(eps, rate, sigma, protocol)
        avg = open_loop_avg_power(P, rate)
        # sample the failed-round-one ensemble directly so small targets
        # are resolvable at a fixed trial count
        report = run_open_loop_conditional(P, rate, sigma, protocol,
                                           n_trials=trials, seed=seed)
        rows.append(_row(
            method="closed-form", round_power=P, avg_power=avg,
            avg_power_db=_db(avg), outage_closed=eps,
            outage_exact=open_loop_outage_exact(P, rate, sigma, protocol),
            outage_mc=report.cond_round2_outage,
            outage_mc_se=report.cond_round2_se,
            n_denominator=report.n_round2, n_trials=trials, seed=seed,
            **coords))
    no_retx = no_retx_required_power(eps, rate)
    rows.append(_row(method="no-retx", avg_power=no_retx,
                     avg_power_db=_db(no_retx), **coords))
    return rows


# ---------------------------------------------------------------------------
# mc-verify: closed forms vs simulation
# ---------------------------------------------------------------------------

def _z_row(check, reference, estimate, se, upper_bound=False, **coords):
    """A row failed beyond 3 standard errors: |z| by default, signed z
    when the reference only bounds the estimate from above."""
    diff = estimate - reference
    z = (diff if upper_bound else abs(diff)) / se if se > 0 else math.inf
    row = _row(check=check, reference=reference, estimate=estimate,
               se=se, z_score=z, **coords)
    if z > 3.0:
        row["error"] = (f"upper bound violated by z={z:.2f}" if upper_bound
                        else f"z={z:.2f} exceeds 3.0")
    return row


def _closed_loop_rows(config, master_seed, protocol_name, eps, sigma):
    # the exact rule must hit the outage target, and the simulated average
    # power must match the quadrature objective
    rate, p1 = float(config["rate"]), float(config["p1"])
    trials = config["trials"]
    protocol = Protocol(protocol_name)
    cfg = HarqConfig(protocol=protocol, rate=rate, eps=eps)
    coords = dict(figure="mc-verify", eps=eps, rate=rate, sigma=sigma,
                  protocol=protocol.value, n_trials=trials,
                  seed=_row_seed(master_seed, "cl", protocol.value, eps, sigma))
    rows = []
    with _error_row(rows, coords, check="closed_loop"):
        quantile = GainQuantile(eps, sigma, QuantileMethod.EXACT)
        rep = run_closed_loop(p1, cfg, sigma, QuantileMethod.EXACT,
                              n_trials=trials, seed=coords["seed"],
                              quantile=quantile)
        if rep.n_round2 == 0:
            raise DegenerateConditioningError(
                f"no trial of {trials} entered round two (p1={p1:.6g}, "
                f"rate={rate}); conditional estimate unusable")
        rows.append(_z_row(
            "closed_loop_conditional_outage", eps, rep.cond_round2_outage,
            _binomial_se(eps, rep.n_round2), method="exact",
            n_denominator=rep.n_round2, **coords))
        ref = avg_power_given_p1(p1, cfg, sigma, QuantileMethod.EXACT,
                                 quantile=quantile)
        rows.append(_z_row("closed_loop_avg_power", ref, rep.avg_power,
                           rep.avg_power_se, method="exact", **coords))
        # the closed-form average integrates the analysis-side rule
        coords["seed"] = _row_seed(master_seed, "cf", protocol.value, eps,
                                   sigma)
        rep = run_closed_loop(p1, cfg, sigma, QuantileMethod.ASYMPTOTIC,
                              n_trials=trials, seed=coords["seed"],
                              jensen_fallback=False)
        rows.append(_z_row(
            "closed_form_avg_power", closed_form_avg_power(p1, cfg, sigma),
            rep.avg_power, rep.avg_power_se, method="asymptotic", **coords))
    return rows


def _open_loop_rows(config, master_seed, protocol_name, rate, p_db):
    # closed-form outage vs simulation (score-style se), plus the
    # exact-quadrature cross-check and the average power identity
    sigma, trials = float(config["open_loop_sigma"]), config["trials"]
    protocol = Protocol(protocol_name)
    P = 10.0 ** (p_db / 10.0)
    seed = _row_seed(master_seed, "ol", protocol.value, rate, p_db)
    coords = dict(figure="mc-verify", rate=rate, sigma=sigma,
                  protocol=protocol.value, round_power=P, n_trials=trials,
                  seed=seed)
    rows = []
    with _error_row(rows, coords, check="open_loop_outage"):
        rep = run_open_loop(P, rate, sigma, protocol, n_trials=trials,
                            seed=seed)
        exact = open_loop_outage_exact(P, rate, sigma, protocol)
        rows.append(_z_row(
            "open_loop_outage_exact_vs_mc", exact, rep.cond_round2_outage,
            _binomial_se(exact, rep.n_round2), method="exact",
            n_denominator=rep.n_round2, **coords))
        # the INR closed form substitutes a threshold that upper-bounds the
        # true conditional outage; gate only that direction
        inr = protocol is Protocol.INR
        closed = (zeta_inr_closed if inr else zeta_rtd_closed)(P, rate, sigma)
        rows.append(_z_row(
            "open_loop_outage_closed_upper_bound" if inr
            else "open_loop_outage_closed_vs_mc",
            closed, rep.cond_round2_outage, _binomial_se(closed, rep.n_round2),
            upper_bound=inr, method="closed-form",
            n_denominator=rep.n_round2, **coords))
        # a trial spends P, or 2P with probability q: the model's se, floored
        # at a few ulps so that agreement to rounding reads z ~ 0
        ref, q = open_loop_avg_power(P, rate), no_retx_outage(P, rate)
        se = max(P * _binomial_se(q, trials), 4.0 * math.ulp(ref))
        rows.append(_z_row("open_loop_avg_power", ref, rep.avg_power, se,
                           **coords))
    return rows


def _no_retx_rows(config, master_seed, p_db, rate):
    trials = config["trials"]
    P = 10.0 ** (p_db / 10.0)
    seed = _row_seed(master_seed, "nr", rate, p_db)
    coords = dict(figure="mc-verify", rate=rate, round_power=P,
                  n_trials=trials, seed=seed)
    # outside the error row, as fig4's no-retx row: a rate whose threshold
    # overflows is a config error
    ref = no_retx_outage(P, rate)
    rows = []
    with _error_row(rows, coords, check="no_retx_outage"):
        rep = run_no_retx(P, rate, n_trials=trials, seed=seed)
        rows.append(_z_row("no_retx_outage", ref, rep.outage_rate,
                           _binomial_se(ref, trials), **coords))
    return rows


# ---------------------------------------------------------------------------
# eval: spot evaluation of the package's public functions
# ---------------------------------------------------------------------------

# each op calls the package function of its name with '_' for '-'
_EVAL_OPS = (
    "theta", "theta1", "marcum-q1", "marcum-q1-weibull", "inv-marcum-q1",
    "inv-marcum-q1-asymptotic", "lambert-w", "sigma-from-geometry",
    "cond-cdf-g2", "inv-cond-cdf-g2", "p2-rtd", "p2-inr",
    "avg-power-given-p1", "closed-form-avg-power", "optimal-p1-closed-form",
    "optimal-p1-numeric", "zeta-rtd-closed", "zeta-inr-closed",
    "open-loop-outage-exact", "open-loop-avg-power",
    "open-loop-required-power", "no-retx-required-power", "no-retx-outage",
)
# config fields an op sets itself: the protocol of a protocol's own rule
_EVAL_FIXED = {
    "p2-rtd": {"protocol": Protocol.RTD},
    "p2-inr": {"protocol": Protocol.INR},
}
# the only defaulted function parameters an op takes; the others (the
# Jensen fallback, a prebuilt table) stay at their defaults
_EVAL_OPTIONAL = ("branch", "method", "protocol")
# how a value is read, by annotation; any other parameter is a float
_EVAL_TYPES = {int: int, Protocol: Protocol, QuantileMethod: QuantileMethod}


def run_eval(op_name: str, assignments: list[str]):
    """One row with the op's value as its estimate, or with the message of
    the PaharqError it raised.  A bad op or assignment raises ValueError.

    The op's parameters are its function's, in signature order, with a
    `cfg: HarqConfig` standing for the config's fields, all required.
    """
    if op_name not in _EVAL_OPS:
        raise ValueError(f"unknown operation {op_name!r}; available: "
                         f"{', '.join(sorted(_EVAL_OPS))}")
    fn = getattr(sys.modules[__package__], op_name.replace("-", "_"))
    fixed = _EVAL_FIXED.get(op_name, {})
    own = inspect.signature(fn).parameters
    takes = {}
    for param in own.values():
        if param.annotation is HarqConfig:
            takes.update((p.name, p) for p in
                         inspect.signature(HarqConfig).parameters.values()
                         if p.name not in takes and p.name not in fixed)
        elif param.default is param.empty or param.name in _EVAL_OPTIONAL:
            takes[param.name] = param
    values = {}
    for item in assignments:
        key, _, raw = item.partition("=")
        if key not in takes:
            raise ValueError(f"unknown parameter {key!r} for {op_name} "
                             f"(takes {list(takes)})")
        if key in values:
            raise ValueError(f"{key} given twice")
        kind = _EVAL_TYPES.get(takes[key].annotation, float)
        try:
            values[key] = kind(raw)
        except ValueError:
            raise ValueError(
                f"{key}={raw!r} is not a valid {kind.__name__}") from None
    missing = [name for name, p in takes.items() if name not in values
               and (p.default is p.empty or name not in own)]
    if missing:
        raise ValueError(f"{op_name} needs {', '.join(missing)}")
    kwargs = {k: v for k, v in values.items() if k in own}
    for name, param in own.items():
        if param.annotation is HarqConfig:
            kwargs[name] = HarqConfig(**fixed, **{k: v for k, v in values.items()
                                                 if k not in own})
    row = _row(figure="eval", check=op_name)
    try:
        value = fn(**kwargs)
        # an optimum reports its round-one power
        row["estimate"] = float(getattr(value, "p1", value))
    except PaharqError as exc:
        row["error"] = str(exc)
    return [row]


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _apply(job):
    fn, config, master_seed, coords = job
    return fn(config, master_seed, *coords)


def _run(grid, config: dict, master_seed, workers: int):
    """The rows of every point of a grid, in grid order, whatever the
    number of worker processes."""
    jobs = [(fn, config, master_seed, coords) for fn, axes in grid
            for coords in itertools.product(*(
                axis if isinstance(axis, tuple) else config[axis]
                for axis in axes))]
    if workers > 1:
        # imported here, so that loading the CLI leaves multiprocessing out
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(_apply, jobs))
    else:
        nested = [_apply(job) for job in jobs]
    return [row for rows in nested for row in rows]


# every subcommand but eval: the flags it adds to --config, --out and
# --workers ("seed" for --seed), and its grid: point
# functions, each called as fn(config, master seed, *coords) over the
# product of its axes (config lists, or constants), outermost first
_COMMANDS = {
    "fig3": ("", [(partial(_sweep_point, _FIG3), _FIG3.grid)]),
    "fig4": ("seed", [(_fig4_point, ("rate", "eps", "protocols"))]),
    "fig5": ("", [(partial(_sweep_point, _FIG5), _FIG5.grid)]),
    "headline": ("", [(partial(_sweep_point, _HEADLINE), ())]),
    "mc-verify": ("seed", [
        (_closed_loop_rows, (_PROTOCOLS, "eps", "sigma")),
        (_open_loop_rows, (_PROTOCOLS, "open_loop_rate", "open_loop_power_db")),
        (_no_retx_rows, ("open_loop_power_db", "open_loop_rate"))]),
}

# the subcommands that draw Monte Carlo samples
MC_COMMANDS = tuple(name for name, (flags, _) in _COMMANDS.items()
                    if flags == "seed")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, since exit 2 means that some rows failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and kept: a parse leaves the parser unchanged
    parser = _Parser(
        prog="paharq",
        description="HARQ-based predictor-antenna power allocation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (flags, _) in _COMMANDS.items():
        command = sub.add_parser(name)
        command.add_argument("--config", help="flat JSON config file")
        command.add_argument("--out", help="output CSV path (default: stdout)")
        command.add_argument("--workers", type=int, default=1,
                             help="worker processes for sweep points and checks")
        if flags == "seed":
            command.add_argument("--seed", type=int, required=True,
                                 help="master seed for Monte Carlo columns")
    eval_parser = sub.add_parser("eval")
    eval_parser.add_argument("op")
    eval_parser.add_argument("assignments", nargs="*",
                             help="parameter assignments key=value")
    eval_parser.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.out and not os.access(os.path.dirname(args.out) or ".",
                                      os.W_OK):
            raise OSError(f"cannot write {args.out}: no writable directory")
        if args.out and os.path.isdir(args.out):
            raise OSError(f"cannot write {args.out}: it is a directory")
        if args.command == "eval":
            rows = run_eval(args.op, args.assignments)
        else:
            flags, grid = _COMMANDS[args.command]
            if args.workers < 1:
                parser.error(f"--workers must be >= 1, got {args.workers}")
            config = _load_config(args.command, args.config)
            seed = getattr(args, "seed", None)
            if flags == "seed" and seed < 0:
                parser.error(f"the master seed must be >= 0, got {seed}")
            rows = _run(grid, config, seed, args.workers)
        _write_csv(rows, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if any(r["error"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
