"""Span recording around paharq's public functions, from outside the package.

`Tracer.install()` rebinds each traced name, in every loaded paharq module
that holds it (`from .special import inv_marcum_q1` copies the binding
into `paharq.channel`), to a wrapper that records one span: the layer
name, start and end times, the span that was open when it began (its
parent), and up to three counts.  Methods are rebound on their class.
`uninstall()` puts every original object back, so the package's files and
namespaces are left as they were.  Spans stay in compact arrays in memory
and are written once, at the end.

A span's self time is its duration minus the durations of its direct
children; the process is single-threaded, so children never overlap.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np


def _size(args, result):
    return (int(np.size(args[1])), 0, 0)


def _report(args, result):
    if result is None:      # the run raised
        return None
    return (result.n_trials, result.n_round2, result.jensen_fallback_count)


# (layer name, defining module, attribute or Class.method, counter)
TARGETS = (
    ("special.marcum_q1", "paharq.special", "marcum_q1", None),
    ("special.inv_marcum_q1", "paharq.special", "inv_marcum_q1", None),
    ("special.lambert_w", "paharq.special", "lambert_w", None),
    ("channel.quantile_build", "paharq.channel", "GainQuantile.__init__",
     None),
    ("channel.quantile_eval", "paharq.channel", "GainQuantile.__call__",
     _size),
    ("channel.cond_cdf_g2", "paharq.channel", "cond_cdf_g2", None),
    ("channel.sample", "paharq.channel", "sample_g1", None),
    ("channel.sample", "paharq.channel", "sample_g2_given_g1", None),
    ("harq.p2rule", "paharq.harq", "P2Rule.__call__", _size),
    ("allocation.objective", "paharq.allocation", "avg_power_given_p1", None),
    ("allocation.solve", "paharq.allocation", "optimal_p1_numeric", None),
    ("allocation.closed_form", "paharq.allocation", "optimal_p1_closed_form",
     None),
    ("benchmarks.outage_exact", "paharq.benchmarks", "open_loop_outage_exact",
     None),
    ("benchmarks.round_power", "paharq.benchmarks", "open_loop_round_power",
     None),
    ("montecarlo.run", "paharq.montecarlo", "run_closed_loop", _report),
    ("montecarlo.run", "paharq.montecarlo", "run_open_loop", _report),
    ("montecarlo.run", "paharq.montecarlo", "run_open_loop_conditional",
     _report),
    ("montecarlo.run", "paharq.montecarlo", "run_no_retx", _report),
    ("cli.point", "paharq.cli", "main", None),
    ("cli.csv_write", "paharq.cli", "_write_csv", None),
)

LAYERS = tuple(dict.fromkeys(name for name, *_ in TARGETS))


class Spans:
    """Columnar span store: name id, parent id, start, end and counts."""

    def __init__(self, names=LAYERS):
        self.names = list(names)
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = [array("q") for _ in range(3)]

    def open(self, name_id: int, parent: int, start: float) -> int:
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(start)
        for column in self.counts:
            column.append(0)
        return len(self.name_id) - 1

    def close(self, span: int, end: float, counts=None) -> None:
        self.end[span] = end
        if counts:
            for column, value in zip(self.counts, counts):
                column[span] = value

    def arrays(self) -> dict:
        out = {"name_id": np.array(self.name_id, dtype=np.int64),
               "parent": np.array(self.parent, dtype=np.int64),
               "start": np.array(self.start, dtype=np.float64),
               "end": np.array(self.end, dtype=np.float64)}
        for i, column in enumerate(self.counts):
            out[f"n{i}"] = np.array(column, dtype=np.int64)
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration minus the summed durations of each span's direct children."""
    covered = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


class Tracer:
    """Installs span-recording wrappers on the traced paharq names."""

    def __init__(self):
        self.spans = Spans()
        self._stack = []
        self._restore = []

    def _wrap(self, name: str, fn, counter):
        name_id = self.spans.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = spans.open(name_id, stack[-1] if stack else -1, clock())
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                spans.close(span, clock(),
                            counter(args, result) if counter else None)

        return wrapper

    def install(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if key == "paharq" or key.startswith("paharq.")]
        for name, module_name, attr, counter in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def layer_metrics(spans: Spans) -> dict:
    """Per-layer totals from the recorded spans, keyed by metric name."""
    a = spans.arrays()
    duration = a["end"] - a["start"]
    own = self_times(a["parent"], duration)
    ids = {name: i for i, name in enumerate(spans.names)}

    def pick(name):
        return a["name_id"] == ids[name]

    def calls(name):
        return int(pick(name).sum())

    def total(name):
        return float(duration[pick(name)].sum())

    def self_s(name):
        return float(own[pick(name)].sum())

    def count(name, column):
        return int(a[f"n{column}"][pick(name)].sum())

    solves = np.flatnonzero(pick("allocation.solve"))
    objective = pick("allocation.objective")
    in_solve = int(np.isin(a["parent"][objective], solves).sum())
    trials, round2 = count("montecarlo.run", 0), count("montecarlo.run", 1)
    mc_s = total("montecarlo.run")
    cli_points = pick("cli.point")
    return {
        "special.inv_marcum_q1.calls": calls("special.inv_marcum_q1"),
        "special.inv_marcum_q1.self_s": self_s("special.inv_marcum_q1"),
        "special.marcum_q1.calls": calls("special.marcum_q1"),
        "special.marcum_q1.self_s": self_s("special.marcum_q1"),
        "special.lambert_w.calls": calls("special.lambert_w"),
        "channel.quantile_build.count": calls("channel.quantile_build"),
        "channel.quantile_build.s": total("channel.quantile_build"),
        "channel.quantile_build.self_s": self_s("channel.quantile_build"),
        "channel.quantile_eval.calls": calls("channel.quantile_eval"),
        "channel.quantile_eval.points": count("channel.quantile_eval", 0),
        "channel.quantile_eval.self_s": self_s("channel.quantile_eval"),
        "channel.cond_cdf_g2.calls": calls("channel.cond_cdf_g2"),
        "channel.cond_cdf_g2.self_s": self_s("channel.cond_cdf_g2"),
        "channel.sample.self_s": self_s("channel.sample"),
        "harq.p2rule.calls": calls("harq.p2rule"),
        "harq.p2rule.points": count("harq.p2rule", 0),
        "harq.p2rule.self_s": self_s("harq.p2rule"),
        "allocation.objective.calls": calls("allocation.objective"),
        "allocation.objective.self_s": self_s("allocation.objective"),
        "allocation.solve.count": len(solves),
        "allocation.solve.s": total("allocation.solve"),
        "allocation.objective_calls_per_solve":
            in_solve / len(solves) if len(solves) else 0.0,
        "allocation.closed_form.s": total("allocation.closed_form"),
        "benchmarks.outage_exact.calls": calls("benchmarks.outage_exact"),
        "benchmarks.outage_exact.s": total("benchmarks.outage_exact"),
        "benchmarks.round_power.calls": calls("benchmarks.round_power"),
        "benchmarks.round_power.s": total("benchmarks.round_power"),
        "montecarlo.trials": trials,
        "montecarlo.s": mc_s,
        "montecarlo.trials_per_s": trials / mc_s if mc_s > 0 else 0.0,
        "montecarlo.round2_frac": round2 / trials if trials else 0.0,
        "montecarlo.jensen_fallback": count("montecarlo.run", 2),
        "cli.point.s": float(duration[cli_points].sum()),
        "cli.self_s": float(own[cli_points].sum()),
        "cli.csv_write_s": total("cli.csv_write"),
    }


def module_self_times(spans: Spans) -> dict:
    """Self time summed by module (the part of the layer name before '.')."""
    a = spans.arrays()
    own = self_times(a["parent"], a["end"] - a["start"])
    out = {}
    for i, name in enumerate(spans.names):
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + float(
            own[a["name_id"] == i].sum())
    return out
