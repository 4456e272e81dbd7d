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

Reproducibility: every row carries the master seed and the code version;
per-row Monte Carlo seeds are spawned from the master seed's SeedSequence
on the row's coordinate string, so a row's bytes do not depend on grid
composition.  Only fig4 and mc-verify draw samples, so only they take
--seed and --trials.
Exit codes: 0 all rows ok, 1 usage/config error, 2 some rows failed,
were infeasible or hit an optimizer failure (annotated in the `error`
column).
"""

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .allocation import (
    BracketError,
    ClosedFormDomainError,
    QuadratureError,
    avg_power_given_p1,
    closed_form_avg_power,
    optimal_p1_closed_form,
    optimal_p1_numeric,
)
from .benchmarks import (
    InfeasibleError,
    no_retx_outage,
    no_retx_required_power,
    open_loop_avg_power,
    open_loop_outage_exact,
    open_loop_required_power,
    open_loop_round_power,
    zeta_inr_closed,
    zeta_rtd_closed,
)
from .channel import (
    SPEED_OF_LIGHT,
    GainQuantile,
    QuantileMethod,
    cond_cdf_g2,
    inv_cond_cdf_g2,
    sigma_from_geometry,
)
from .harq import HarqConfig, Protocol, p2_inr, p2_rtd, theta, theta1
from .montecarlo import (
    DegenerateConditioningError,
    run_closed_loop,
    run_no_retx,
    run_open_loop,
    run_open_loop_conditional,
)
from .special import (
    inv_marcum_q1,
    inv_marcum_q1_asymptotic,
    lambert_w,
    marcum_q1,
    marcum_q1_weibull,
)

COLUMNS = [
    "figure", "eps", "rate", "sigma", "v_kmh", "d_a_wavelengths",
    "protocol", "method", "p1", "p1_db", "avg_power", "avg_power_db",
    "round_power", "outage_closed", "outage_exact", "outage_mc",
    "outage_mc_se", "n_denominator", "gain_db_vs_no_retx", "check",
    "reference", "estimate", "se", "z_score", "n_trials", "seed",
    "code_version", "error",
]

DELTA_DEFAULT = 5e-3        # processing delay [s]
FC_DEFAULT = 2.68e9         # carrier frequency [Hz]

# failures that turn one row into an annotated error row instead of
# aborting the sweep
_ROW_ERRORS = (BracketError, QuadratureError, ClosedFormDomainError,
               InfeasibleError, DegenerateConditioningError, ValueError)

DEFAULTS = {
    "fig3": {
        "eps": [10.0 ** (-5 + 0.5 * i) for i in range(9)],
        "rate": [0.5, 2.0],
        "sigma": 0.8,
        "protocols": ["rtd", "inr"],
        "methods": ["numeric-exact", "closed-form"],
    },
    "fig4": {
        "eps": [10.0 ** (-4 + 0.5 * i) for i in range(7)],
        "rate": [0.5, 2.0],
        "sigma": 0.8,
        "protocols": ["rtd", "inr"],
        "trials": 100_000,
    },
    "fig5": {
        "v_kmh": [float(v) for v in range(2, 162, 2)],
        "d_a_wavelengths": [1.5, 0.75],
        "rate": 3.0,
        "eps": 1e-3,
        "delta": DELTA_DEFAULT,
        "f_c": FC_DEFAULT,
        "protocols": ["rtd", "inr"],
        "methods": ["numeric-exact", "closed-form"],
    },
    "headline": {
        "eps": 1e-5,
        "rate": 4.0,
        "sigma": 0.8,
    },
    "mc-verify": {
        "eps": [1e-3, 1e-2],
        "rate": 1.0,
        "sigma": [0.5, 0.8, 1.0],
        "p1": 1.0,
        "open_loop_power_db": [10.0, 20.0],
        "open_loop_rate": [0.5, 2.0],
        "open_loop_sigma": 0.8,
        "trials": 100_000,
    },
}


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


def _row_seed(master_seed: int, *coords) -> int:
    """63-bit Philox key of one row: the master seed's SeedSequence spawned
    on the bytes of the row's coordinate string, so no two master seeds
    trade the streams of two rows."""
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


def _load_config(name: str, path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULTS[name])
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config {path} must be a flat JSON object")
        cfg.update(loaded)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1 - p), 1e-300) / n)


# ---------------------------------------------------------------------------
# optimized sweeps: fig3 (vs outage target), fig5 (vs vehicle speed) and
# headline (gains over no retransmission) share one solve per point
# ---------------------------------------------------------------------------

def _solve_rows(fields, protocols, methods, no_retx=None):
    """Per protocol, a list of one row per method (`closed-form` or
    `numeric-<quantile method>`) at the point's eps, rate and sigma.

    The protocols share one exact quantile table, built up front (an
    invalid eps or sigma raises ValueError there); a failing method
    becomes a row with its `error` column set.
    """
    eps, rate, sigma = fields["eps"], fields["rate"], fields["sigma"]
    table = None
    if "numeric-exact" in methods:
        table = GainQuantile(eps, sigma, QuantileMethod.EXACT)
    blocks = []
    for protocol in map(Protocol, protocols):
        cfg = HarqConfig(protocol=protocol, rate=rate, eps=eps)
        rows = []
        for method in methods:
            row = _row(method=method, protocol=protocol.value, **fields)
            try:
                if method == "closed-form":
                    sol = optimal_p1_closed_form(cfg, sigma)
                elif method.startswith("numeric-"):
                    qmethod = QuantileMethod(method.removeprefix("numeric-"))
                    quantile = table if qmethod is QuantileMethod.EXACT else None
                    sol = optimal_p1_numeric(cfg, sigma, qmethod,
                                             quantile=quantile)
                else:
                    raise ValueError(f"unknown method {method!r}")
                row.update(p1=sol.p1, p1_db=sol.p1_db,
                           avg_power=sol.avg_power,
                           avg_power_db=sol.avg_power_db)
                if no_retx is not None:
                    row["gain_db_vs_no_retx"] = _db(no_retx) - sol.avg_power_db
            except _ROW_ERRORS as exc:
                row["error"] = str(exc)
            rows.append(row)
        blocks.append(rows)
    return blocks


def _no_retx_row(no_retx, **fields):
    return _row(method="no-retx", avg_power=no_retx, avg_power_db=_db(no_retx),
                gain_db_vs_no_retx=0.0, **fields)


def _fig3_point(args):
    eps, rate, sigma, protocols, methods = args
    fields = dict(figure="fig3", eps=eps, rate=rate, sigma=sigma)
    no_retx = no_retx_required_power(eps, rate)
    out = []
    for protocol, rows in zip(protocols,
                              _solve_rows(fields, protocols, methods, no_retx)):
        solved = {r["method"]: r["avg_power_db"] for r in rows if not r["error"]}
        if "closed-form" in solved and "numeric-exact" in solved:
            for row in rows:
                if row["method"] == "closed-form":
                    row.update(check="closed_vs_numeric_gap_db",
                               reference=solved["numeric-exact"],
                               estimate=solved["closed-form"])
        out += rows + [_no_retx_row(no_retx, protocol=Protocol(protocol).value,
                                    **fields)]
    return out


def run_fig3(config: dict, workers: int = 1):
    methods = list(config["methods"])
    points = [(eps, rate, float(config["sigma"]), config["protocols"], methods)
              for rate in _as_list(config["rate"])
              for eps in _as_list(config["eps"])]
    return _map_rows(_fig3_point, points, workers)


def _fig5_point(args):
    v_kmh, da_wl, rate, eps, delta, f_c, protocols, methods = args
    wavelength = SPEED_OF_LIGHT / f_c
    sigma = sigma_from_geometry(v_kmh / 3.6, delta, f_c, da_wl * wavelength)
    fields = dict(figure="fig5", eps=eps, rate=rate, sigma=sigma, v_kmh=v_kmh,
                  d_a_wavelengths=da_wl)
    return [row for rows in _solve_rows(fields, protocols, methods)
            for row in rows]


def run_fig5(config: dict, workers: int = 1):
    methods = list(config["methods"])
    points = [(v, da, float(config["rate"]), float(config["eps"]),
               float(config["delta"]), float(config["f_c"]),
               config["protocols"], methods)
              for da in _as_list(config["d_a_wavelengths"])
              for v in _as_list(config["v_kmh"])]
    return _map_rows(_fig5_point, points, workers)


def run_headline(config: dict):
    eps = float(config["eps"])
    rate = float(config["rate"])
    sigma = float(config["sigma"])
    fields = dict(figure="headline", eps=eps, rate=rate, sigma=sigma)
    no_retx = no_retx_required_power(eps, rate)
    blocks = _solve_rows(fields, (Protocol.RTD, Protocol.INR),
                         ("closed-form", "numeric-exact"), no_retx)
    return ([_no_retx_row(no_retx, protocol="none", **fields)]
            + [row for rows in blocks for row in rows])


# ---------------------------------------------------------------------------
# fig4: open-loop required power vs outage target
# ---------------------------------------------------------------------------

def _fig4_point(args):
    eps, rate, sigma, protocol_name, trials, master_seed = args
    protocol = Protocol(protocol_name)
    row = _row(figure="fig4", eps=eps, rate=rate, sigma=sigma,
               protocol=protocol.value, method="closed-form",
               n_trials=trials, seed=master_seed)
    rows = [row]
    try:
        P = open_loop_round_power(eps, rate, sigma, protocol)
        avg = open_loop_avg_power(P, rate)
        row.update(round_power=P, avg_power=avg, avg_power_db=_db(avg),
                   outage_closed=eps)
        if trials:
            # sample the failed-round-one ensemble directly so small targets
            # are resolvable at a fixed trial count
            seed = _row_seed(master_seed, "fig4", eps, rate, protocol.value)
            report = run_open_loop_conditional(P, rate, sigma, protocol,
                                               n_trials=trials, seed=seed)
            row.update(outage_mc=report.cond_round2_outage,
                       outage_mc_se=report.cond_round2_se,
                       n_denominator=report.n_round2, seed=seed,
                       outage_exact=open_loop_outage_exact(P, rate, sigma,
                                                           protocol))
    except _ROW_ERRORS as exc:
        row["error"] = str(exc)
    no_retx = no_retx_required_power(eps, rate)
    rows.append(_row(figure="fig4", eps=eps, rate=rate, sigma=sigma,
                     protocol=protocol.value, method="no-retx",
                     avg_power=no_retx, avg_power_db=_db(no_retx)))
    return rows


def run_fig4(config: dict, master_seed: int, workers: int = 1):
    trials = int(config.get("trials") or 0)
    points = [(eps, rate, float(config["sigma"]), proto, trials, master_seed)
              for rate in _as_list(config["rate"])
              for eps in _as_list(config["eps"])
              for proto in config["protocols"]]
    return _map_rows(_fig4_point, points, workers)


# ---------------------------------------------------------------------------
# mc-verify: closed forms vs simulation
# ---------------------------------------------------------------------------

def _z_row(check, reference, estimate, se, upper_bound=False, limit=3.0,
           **coords):
    """A row failed beyond `limit` standard errors: |z| by default, signed z
    when the reference only bounds the estimate from above."""
    diff = estimate - reference
    z = (diff if upper_bound else abs(diff)) / se if se > 0 else math.inf
    row = _row(check=check, reference=reference, estimate=estimate,
               se=se, z_score=z, **coords)
    if z > limit:
        row["error"] = (f"upper bound violated by z={z:.2f}" if upper_bound
                        else f"z={z:.2f} exceeds {limit}")
    return row


def _closed_loop_rows(protocol_name, eps, sigma, rate, p1, trials, master_seed):
    # the exact rule must hit the outage target, and the simulated average
    # power must match the quadrature objective
    protocol = Protocol(protocol_name)
    cfg = HarqConfig(protocol=protocol, rate=rate, eps=eps, p1=p1)
    coords = dict(figure="mc-verify", eps=eps, rate=rate, sigma=sigma,
                  protocol=protocol.value, n_trials=trials)
    seed = _row_seed(master_seed, "cl", protocol.value, eps, sigma)
    rows = []
    try:
        quantile = GainQuantile(eps, sigma, QuantileMethod.EXACT)
        rep = run_closed_loop(cfg, sigma, QuantileMethod.EXACT,
                              n_trials=trials, seed=seed, quantile=quantile)
        rows.append(_z_row(
            "closed_loop_conditional_outage", eps, rep.cond_round2_outage,
            _binomial_se(eps, rep.n_round2), method="exact",
            n_denominator=rep.n_round2, seed=seed, **coords))
        ref = avg_power_given_p1(p1, cfg, sigma, QuantileMethod.EXACT,
                                 quantile=quantile)
        rows.append(_z_row("closed_loop_avg_power", ref, rep.avg_power,
                           rep.avg_power_se, method="exact", seed=seed,
                           **coords))
        # the closed-form average integrates the analysis-side rule
        seed = _row_seed(master_seed, "cf", protocol.value, eps, sigma)
        rep = run_closed_loop(cfg, sigma, QuantileMethod.ASYMPTOTIC,
                              n_trials=trials, seed=seed,
                              jensen_fallback=False)
        rows.append(_z_row(
            "closed_form_avg_power", closed_form_avg_power(p1, cfg, sigma),
            rep.avg_power, rep.avg_power_se, method="asymptotic", seed=seed,
            **coords))
    except _ROW_ERRORS as exc:
        rows.append(_row(check="closed_loop", seed=seed, error=str(exc),
                         **coords))
    return rows


def _open_loop_rows(protocol_name, rate, p_db, sigma, trials, master_seed):
    # closed-form outage vs simulation (score-style se), plus the
    # exact-quadrature cross-check and the average power identity
    protocol = Protocol(protocol_name)
    P = 10.0 ** (p_db / 10.0)
    seed = _row_seed(master_seed, "ol", protocol.value, rate, p_db)
    coords = dict(figure="mc-verify", rate=rate, sigma=sigma,
                  protocol=protocol.value, round_power=P, n_trials=trials,
                  seed=seed)
    rows = []
    try:
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
        rows.append(_z_row("open_loop_avg_power",
                           open_loop_avg_power(P, rate), rep.avg_power,
                           rep.avg_power_se, **coords))
    except _ROW_ERRORS as exc:
        rows.append(_row(check="open_loop_outage", error=str(exc), **coords))
    return rows


def _no_retx_rows(p_db, rate, trials, master_seed):
    P = 10.0 ** (p_db / 10.0)
    seed = _row_seed(master_seed, "nr", rate, p_db)
    coords = dict(figure="mc-verify", rate=rate, round_power=P,
                  n_trials=trials, seed=seed)
    try:
        rep = run_no_retx(P, rate, n_trials=trials, seed=seed)
        ref = no_retx_outage(P, rate)
        return [_z_row("no_retx_outage", ref, rep.outage_rate,
                       _binomial_se(ref, trials), **coords)]
    except _ROW_ERRORS as exc:
        return [_row(check="no_retx_outage", error=str(exc), **coords)]


def _apply(job):
    fn, args = job
    return fn(*args)


def run_mc_verify(config: dict, master_seed: int, workers: int = 1):
    trials = int(config["trials"])
    closed = (float(config["rate"]), float(config["p1"]), trials, master_seed)
    opened = (float(config["open_loop_sigma"]), trials, master_seed)
    powers_db = _as_list(config["open_loop_power_db"])
    ol_rates = _as_list(config["open_loop_rate"])
    protocols = ("rtd", "inr")
    jobs = [(_closed_loop_rows, (proto, eps, sigma) + closed)
            for proto in protocols
            for eps in _as_list(config["eps"])
            for sigma in _as_list(config["sigma"])]
    jobs += [(_open_loop_rows, (proto, ol_rate, p_db) + opened)
             for proto in protocols for ol_rate in ol_rates
             for p_db in powers_db]
    jobs += [(_no_retx_rows, (p_db, ol_rate, trials, master_seed))
             for p_db in powers_db for ol_rate in ol_rates]
    return _map_rows(_apply, jobs, workers)


# ---------------------------------------------------------------------------
# eval: spot evaluation registry
# ---------------------------------------------------------------------------

def _op_registry():
    return {
        "theta": (theta, ["rate"]),
        "theta1": (theta1, ["rate"]),
        "marcum-q1": (marcum_q1, ["s", "rho"]),
        "marcum-q1-weibull": (marcum_q1_weibull, ["s", "rho"]),
        "inv-marcum-q1": (inv_marcum_q1, ["s", "p"]),
        "inv-marcum-q1-asymptotic": (inv_marcum_q1_asymptotic, ["s", "eps"]),
        "lambert-w": (lambda x, branch=0: lambert_w(x, int(branch)),
                      ["x", "branch"]),
        "sigma-from-geometry": (sigma_from_geometry,
                                ["v", "delta", "f_c", "d_a"]),
        "cond-cdf-g2": (cond_cdf_g2, ["x", "g1", "sigma"]),
        "inv-cond-cdf-g2": (
            lambda eps, g1, sigma, method="exact":
                inv_cond_cdf_g2(eps, g1, sigma, QuantileMethod(method)),
            ["eps", "g1", "sigma", "method"]),
        "p2-rtd": (
            lambda g1, rate, eps, p1, sigma, method="exact":
                p2_rtd(g1, HarqConfig(Protocol.RTD, rate, eps, p1), sigma,
                       QuantileMethod(method)),
            ["g1", "rate", "eps", "p1", "sigma", "method"]),
        "p2-inr": (
            lambda g1, rate, eps, p1, sigma, method="exact":
                p2_inr(g1, HarqConfig(Protocol.INR, rate, eps, p1), sigma,
                       QuantileMethod(method)),
            ["g1", "rate", "eps", "p1", "sigma", "method"]),
        "avg-power-given-p1": (
            lambda p1, protocol, rate, eps, sigma, method="exact":
                avg_power_given_p1(p1, HarqConfig(Protocol(protocol), rate, eps),
                                   sigma, QuantileMethod(method)),
            ["p1", "protocol", "rate", "eps", "sigma", "method"]),
        "closed-form-avg-power": (
            lambda p1, protocol, rate, eps, sigma:
                closed_form_avg_power(p1, HarqConfig(Protocol(protocol), rate, eps),
                                      sigma),
            ["p1", "protocol", "rate", "eps", "sigma"]),
        "optimal-p1-closed-form": (
            lambda protocol, rate, eps, sigma:
                optimal_p1_closed_form(HarqConfig(Protocol(protocol), rate, eps),
                                       sigma).p1,
            ["protocol", "rate", "eps", "sigma"]),
        "optimal-p1-numeric": (
            lambda protocol, rate, eps, sigma, method="exact":
                optimal_p1_numeric(HarqConfig(Protocol(protocol), rate, eps),
                                   sigma, QuantileMethod(method)).p1,
            ["protocol", "rate", "eps", "sigma", "method"]),
        "zeta-rtd-closed": (zeta_rtd_closed, ["P", "rate", "sigma"]),
        "zeta-inr-closed": (zeta_inr_closed, ["P", "rate", "sigma"]),
        "open-loop-outage-exact": (
            lambda P, rate, sigma, protocol="rtd":
                open_loop_outage_exact(P, rate, sigma, Protocol(protocol)),
            ["P", "rate", "sigma", "protocol"]),
        "open-loop-avg-power": (open_loop_avg_power, ["P", "rate"]),
        "open-loop-required-power": (
            lambda target_eps, rate, sigma, protocol="rtd":
                open_loop_required_power(target_eps, rate, sigma,
                                         Protocol(protocol)),
            ["target_eps", "rate", "sigma", "protocol"]),
        "no-retx-required-power": (no_retx_required_power,
                                   ["target_eps", "rate"]),
        "no-retx-outage": (no_retx_outage, ["P", "rate"]),
    }


def run_eval(op_name: str, assignments: list[str]):
    registry = _op_registry()
    if op_name not in registry:
        names = ", ".join(sorted(registry))
        raise SystemExit(f"unknown operation {op_name!r}; available: {names}")
    fn, params = registry[op_name]
    kwargs = {}
    for item in assignments:
        if "=" not in item:
            raise SystemExit(f"expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        if key not in params:
            raise SystemExit(f"unknown parameter {key!r} for {op_name} "
                             f"(takes {params})")
        try:
            kwargs[key] = float(raw)
        except ValueError:
            kwargs[key] = raw
    value = fn(**kwargs)
    return [_row(figure="eval", check=op_name, estimate=float(value))]


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _as_list(value):
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _map_rows(fn, points, workers):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(fn, points))
    else:
        nested = [fn(p) for p in points]
    return [row for rows in nested for row in rows]


def _add_common(parser):
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for sweep points and checks")


_METHOD_FLAG = {
    "exact": ["numeric-exact"],
    "approx": ["numeric-weibull"],
    "closed": ["closed-form"],
}

# the subcommands that draw Monte Carlo samples
MC_COMMANDS = ("fig4", "mc-verify")

# every runner takes (config, master seed, workers)
_RUNNERS = {
    "fig3": lambda config, seed, workers: run_fig3(config, workers),
    "fig4": run_fig4,
    "fig5": lambda config, seed, workers: run_fig5(config, workers),
    "headline": lambda config, seed, workers: run_headline(config),
    "mc-verify": run_mc_verify,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, since exit 2 means that some rows failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paharq",
        description="HARQ-based predictor-antenna power allocation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        command = sub.add_parser(name)
        _add_common(command)
        if name in MC_COMMANDS:
            command.add_argument("--seed", type=int,
                                 help="master seed for Monte Carlo columns")
            command.add_argument("--trials", type=int,
                                 help="Monte Carlo trials per point")
        if name in ("fig3", "fig5"):
            command.add_argument("--method", choices=list(_METHOD_FLAG),
                                 help="run only this optimization route")
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
        if args.command == "eval":
            _write_csv(run_eval(args.op, args.assignments), args.out)
            return 0
        overrides = {"trials": getattr(args, "trials", None)}
        if getattr(args, "method", None):
            overrides["methods"] = _METHOD_FLAG[args.method]
        config = _load_config(args.command, args.config, overrides)
        seed = None
        if args.command in MC_COMMANDS:
            seed = args.seed if args.seed is not None else config.get("seed")
            if seed is None:
                parser.error(f"--seed is required for {args.command}")
            seed = int(seed)
            if seed < 0:
                parser.error(f"the master seed must be >= 0, got {seed}")
        rows = _RUNNERS[args.command](config, seed, args.workers)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_csv(rows, args.out)
    return 2 if any(r["error"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
