#!/usr/bin/env python3
"""paharq benchmark: sweep and verification workloads through the CLI.

    python3 perfbench/run.py --workload eps-sweep --seed 1 --seconds 25 \
        --trace 0

Run from the root of a source checkout.  Each point is one call of
`paharq.cli.main` with a one-point JSON config and `--workers 1`; its CSV is
read back and every row is checked by the scipy oracle in `oracle.py`.
Points come in blocks from the seeded design in `workloads.py` and run one
after another (a closed loop with one client).  A run executes whole
blocks: after each block it starts another only if, at the mean block time
so far, that block would end within `--seconds`; the first block always
runs.  So every run measures the same mix of points.

`--trace 0` prints the end-to-end metrics: import time of a fresh
interpreter (median of SETUP_SAMPLES), completed points per second, median
and tail per-point wall time, and peak resident memory.  `--trace 1` runs
the same blocks for half the window with span-recording wrappers bound to
the package's public functions, then replays those blocks untraced in a
fresh interpreter; it prints the per-layer metrics and the tracing
overhead (traced minus untraced wall time of the same points).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  A point fails when an exception
escapes it, when it gives an error row where the oracle says a value
exists, or when a row fails the oracle; `failed / attempted` is the
failed fraction.  `correct` is false when any row is wrong, when a
re-run of a point does not reproduce its CSV bytes, or when the blocks
regenerated from the seed differ from those that ran.  Every run also
writes a result file with the environment and per-point records under
`.perfbench_out/`.
"""

import os

# one BLAS/OpenMP thread per process, so the load stays on the cores the
# benchmark accounts for; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
REPLAY_TIMEOUT_S = 120


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """(value, percentile, samples beyond it) at the highest percentile that
    leaves at least `beyond` samples above it, but never below the median.

    With n sorted samples that is the k-th smallest, k = n - beyond, at
    percentile 100 k / n.  Below 2 * beyond + 1 samples that rank falls
    under the median and no tail can be told apart from the middle, so the
    median itself is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n - beyond <= n // 2:
        return statistics.median(ordered), 50.0, n // 2
    k = n - beyond
    return ordered[k - 1], 100.0 * k / n, beyond


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
        "threads": {var: os.environ[var] for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall time of a fresh interpreter importing paharq.cli."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import paharq.cli"],
                       cwd=ROOT, env=_child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_point(cli, point, tmp: Path, check: bool = True) -> dict:
    """Run one CLI point, read its CSV back and classify every row."""
    config_path, out_path = tmp / "point.json", tmp / "point.csv"
    config_path.write_text(json.dumps(point.config))
    out_path.unlink(missing_ok=True)
    argv = point.argv(config_path, out_path)
    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as exc:   # isolate the point, keep going
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    record = {"index": point.index, "command": point.command,
              "config": point.config, "seed": point.seed,
              "seconds": seconds, "exit_code": code, "exception": error,
              "statuses": {}, "problems": [], "findings": [], "rows": 0,
              "error_rows": 0, "gate_fail_rows": 0, "sha256": None,
              "wrong": False}
    if error is None and out_path.exists():
        data = out_path.read_bytes()
        record["sha256"] = hashlib.sha256(data).hexdigest()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        record["rows"] = len(rows)
        record["error_rows"] = sum(1 for r in rows if r["error"])
        if check:
            for row in rows:
                status, detail = oracle.classify(row, point.config)
                record["statuses"][status] = \
                    record["statuses"].get(status, 0) + 1
                note = (f"{row['method'] or row['check']} "
                        f"{row['protocol']}: {status}: {detail}")
                if status in oracle.FAILING:
                    record["problems"].append(note)
                elif status == oracle.FLAT_OPTIMUM:
                    record["findings"].append(note)
            record["gate_fail_rows"] = record["statuses"].get(
                oracle.GATE_FAIL, 0)
            record["wrong"] = oracle.WRONG in record["statuses"]
    record["failed"] = bool(
        error is not None or code not in (0, 2) or record["rows"] == 0
        or record["problems"])
    return record


def run_blocks(cli, workload: str, seed: int, seconds: float, tmp: Path,
               n_blocks: int | None = None, check: bool = True):
    """Run whole blocks of the workload until the next one would end after
    `seconds` (or exactly `n_blocks` blocks)."""
    points, records = [], []
    start = time.perf_counter()
    for done, block in enumerate(workloads.blocks(workload, seed), 1):
        for point in block:
            points.append(point)
            records.append(run_point(cli, point, tmp, check))
        if n_blocks is not None:
            if done >= n_blocks:
                break
        elif (time.perf_counter() - start) * (done + 1) / done > seconds:
            break
    return points, records


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _import_cli():
    sys.path.insert(0, str(SRC))
    return importlib.import_module("paharq.cli")


def untraced(args, tmp: Path, report: dict) -> tuple[dict, list]:
    setup = measure_setup()
    cli = _import_cli()
    points, records = run_blocks(cli, args.workload, args.seed, args.seconds,
                                 tmp)
    report["grid_stable"] = workloads.grid(
        args.workload, args.seed, points[-1].block + 1) == points
    # completed: the CLI returned; oracle failures count in `failed` only
    done = [r for r in records if r["exception"] is None]
    if done:
        # determinism: the fastest completed point again, same seed
        fastest = min(done, key=lambda r: r["seconds"])
        again = run_point(cli, points[fastest["index"]], tmp, check=False)
        report["determinism"] = {"index": fastest["index"],
                                 "identical": again["sha256"]
                                 == fastest["sha256"]}
    times = [r["seconds"] for r in records]
    tail, pct, beyond = tail_percentile(times)
    report["tail"] = {"percentile": pct, "samples": len(times),
                      "beyond": beyond}
    report["setup_samples_s"] = setup
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "points_per_s": _metric(len(done) / sum(times), "1/s"),
        "point_p50_s": _metric(statistics.median(times), "s"),
        "point_tail_s": _metric(tail, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }, records


def replay(args, tmp: Path) -> None:
    """Child of a traced run: the first --replay blocks, untraced."""
    cli = _import_cli()
    _, records = run_blocks(cli, args.workload, args.seed, math.inf, tmp,
                            n_blocks=args.replay, check=False)
    print(json.dumps({"seconds": [r["seconds"] for r in records],
                      "sha256": [r["sha256"] for r in records]}))


_UNITS = {"calls": "count", "count": "count", "points": "count",
          "trials": "count", "jensen_fallback": "count", "rows": "count",
          "error_rows": "count", "gate_fail_rows": "count",
          "trials_per_s": "1/s", "round2_frac": "ratio",
          "objective_calls_per_solve": "ratio", "overhead_frac": "ratio"}


def per_layer_metrics(spans, records, traced_s: float,
                      untraced_s: float) -> dict:
    """Every per-layer metric of a traced run, with its unit."""
    values = tracing.layer_metrics(spans)
    values.update({
        "cli.rows": sum(r["rows"] for r in records),
        "cli.error_rows": sum(r["error_rows"] for r in records),
        "cli.gate_fail_rows": sum(r["gate_fail_rows"] for r in records),
        "trace.points": len(records),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    })
    return {name: _metric(value, _UNITS.get(name.rsplit(".", 1)[1], "s"))
            for name, value in values.items()}


def traced(args, tmp: Path, report: dict) -> tuple[dict, list]:
    cli = _import_cli()
    tracer = tracing.Tracer().install()
    try:
        points, records = run_blocks(cli, args.workload, args.seed,
                                     args.seconds / 2.0, tmp)
    finally:
        tracer.uninstall()
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.spans.save(spans_path)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    n_blocks = points[-1].block + 1
    report["grid_stable"] = workloads.grid(
        args.workload, args.seed, n_blocks) == points
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--trace", "0", "--replay", str(n_blocks)],
        cwd=ROOT, capture_output=True, text=True, timeout=REPLAY_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"untraced replay failed:\n{child.stderr}")
    untraced_run = json.loads(child.stdout.strip().splitlines()[-1])
    traced_s, untraced_s = (sum(r["seconds"] for r in records),
                            sum(untraced_run["seconds"]))
    report["determinism"] = {
        "index": "all (traced vs untraced replay)",
        "identical": [r["sha256"] for r in records] == untraced_run["sha256"]}
    report["module_self_s"] = tracing.module_self_times(tracer.spans)
    report["traced_wall_s"] = traced_s
    report["untraced_wall_s"] = untraced_s
    metrics = per_layer_metrics(tracer.spans, records, traced_s, untraced_s)
    return metrics, records


def _print_summary(args, env, metrics, records, report) -> None:
    print(f"# paharq benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()
                              if k != "threads")
          + " " + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    failed = sum(r["failed"] for r in records)
    print(f"attempted {len(records)} points")
    print(f"failed_frac {failed / len(records):.6g} 1  ({failed} failed)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if "tail" in report:
        t = report["tail"]
        print(f"# point_tail_s is p{t['percentile']:.4g} of {t['samples']} "
              f"points ({t['beyond']} beyond it)")
    for r in records:
        if r["failed"]:
            why = r["exception"] or "; ".join(r["problems"]) \
                or f"exit code {r['exit_code']}"
            print(f"# point {r['index']} {r['command']} failed: {why}")
        for note in r["findings"]:
            print(f"# point {r['index']} {r['command']}: {note}")
    print(f"# grid stable: {report['grid_stable']}; determinism: "
          f"{report.get('determinism')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "paharq" / "cli.py").is_file():
        print(f"error: no paharq sources under {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.replay is not None:
            replay(args, tmp)
            return 0
        report = {}
        run = traced if args.trace else untraced
        metrics, records = run(args, tmp, report)
    finally:
        for path in tmp.iterdir():
            path.unlink()
        tmp.rmdir()
    env = environment()
    failed = sum(r["failed"] for r in records)
    correct = (not any(r["wrong"] for r in records)
               and report["grid_stable"]
               and report.get("determinism", {}).get("identical", True))
    result = {"correct": correct, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"args": vars(args), "env": env,
                              "report": report, "points": records,
                              **result}, indent=1, default=str))
    _print_summary(args, env, metrics, records, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
