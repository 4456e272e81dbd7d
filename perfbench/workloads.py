"""Seeded point streams for the three benchmark workloads.

Every point is one call of the public CLI entry point with a one-point
config.  A workload is an endless stream of blocks; a block is one pass
over the workload's slots, and a run executes whole blocks, so every run
has the same mix of cheap and expensive points however fast the program
is.  Slot i sits at a design position in [0, 1)^d that starts at a fixed,
evenly staggered value and advances by a generalized golden-ratio step each
block, so successive blocks fill the ranges evenly.  The seed draws each
point uniformly from a small window (JITTER wide) around its design
position: different seeds give different inputs of nearly the same cost,
and no coordinate repeats, so a cache can only help where the program
itself shares work inside one point.
"""

import itertools
from dataclasses import dataclass

import numpy as np

F_C = 2.68e9                       # carrier frequency [Hz]
DELTA = 5e-3                       # processing delay [s]
WAVELENGTH = 299792458.0 / F_C     # [m]
TRIALS = 100_000                   # Monte Carlo trials per verify point
PROTOCOLS = ("rtd", "inr")

EPS_SWEEP_SIGMA = 0.8
SPEED_RATE = 3.0
SPEED_EPS = 1e-3
SPEED_RANGE = (2.0, 160.0)         # [km/h]
NEAR_RANGE = (0.05, 10.0)          # distance from an alignment speed [km/h]
VERIFY_P1 = 1.0
VERIFY_RATE = 1.0
VERIFY_OPEN_LOOP_SIGMA = 0.8
FIG4_SIGMA = 0.8

WORKLOADS = ("eps-sweep", "speed-sweep", "verify")


@dataclass(frozen=True)
class Point:
    """One CLI invocation: subcommand, one-point config and optional seed."""

    index: int
    block: int
    command: str
    config: dict
    seed: int | None = None

    def argv(self, config_path, out_path) -> list[str]:
        argv = [self.command, "--config", str(config_path),
                "--out", str(out_path), "--workers", "1"]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv


def alignment_speed_kmh(d_a_wavelengths: float) -> float:
    """Speed at which the rear antenna reaches the probed spot after DELTA."""
    return d_a_wavelengths * WAVELENGTH / DELTA * 3.6


def _alphas(dim: int) -> np.ndarray:
    # phi_d is the positive root of x**(d+1) = x + 1 (golden ratio for d=1)
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    return 1.0 / phi ** np.arange(1, dim + 1)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def _uniform(u: float, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * u)


def _point_seed(seed: int, index: int) -> int:
    state = np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)
    return int(state[0]) & (2**63 - 1)


class _Design:
    """A workload's slots; subclasses turn a position into a Point.

    SLOTS holds each slot's starting design position (all of one length d).
    """

    SLOTS: tuple = ()
    JITTER = 1.0 / 64.0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.starts = np.asarray(self.SLOTS, dtype=float)
        self.alpha = _alphas(self.starts.shape[1])

    def block(self, b: int, first_index: int) -> list[Point]:
        centers = np.mod(self.starts + b * self.alpha, 1.0)
        jitter = self.JITTER * (self.rng.random(centers.shape) - 0.5)
        u = np.mod(centers + jitter, 1.0)
        return [self.point(first_index + i, b, i, u[i])
                for i in range(len(u))]

    def point(self, index: int, block: int, slot: int, u) -> Point:
        raise NotImplementedError


class _EpsSweep(_Design):
    """fig3 shape at sigma=0.8: log eps in [1e-5, 1e-1], rate in [0.5, 4].

    Eight slots form a Latin design (eps stratum i meets rate stratum
    3i+1 mod 8); even slots run RTD, odd slots INR.
    """

    SLOTS = tuple(((i + 0.5) / 8, ((3 * i + 1) % 8 + 0.5) / 8)
                  for i in range(8))

    def point(self, index, block, slot, u):
        return Point(index, block, "fig3", {
            "eps": [_log_uniform(u[0], 1e-5, 1e-1)],
            "rate": [_uniform(u[1], 0.5, 4.0)],
            "sigma": EPS_SWEEP_SIGMA,
            "protocols": [PROTOCOLS[slot % 2]],
            "methods": ["numeric-exact", "closed-form"],
        })


class _SpeedSweep(_Design):
    """fig5 shape: rate 3, eps 1e-3, d_a in {1.5, 0.75} wavelengths.

    Four slots take speeds over the whole range (two per separation, each
    starting away from that separation's alignment speed) and two add an
    extra point near each alignment speed, at a distance log-uniform in
    NEAR_RANGE (sigma, and with it the cost, moves with the log of that
    distance) on a side the seed picks.  Block 0 puts the d_a=0.75 extra
    point at ~0.4 km/h (sigma ~0.02, the heavy tail, where the closed form
    has no value) and the d_a=1.5 one at ~5 km/h.  The protocol alternates
    over the slots and flips every block.
    """

    KINDS = (("whole", 1.5), ("whole", 1.5), ("whole", 0.75),
             ("whole", 0.75), ("near", 0.75), ("near", 1.5))
    SLOTS = ((1 / 8,), (3 / 8,), (5 / 8,), (7 / 8,), (3 / 8,), (7 / 8,))

    def point(self, index, block, slot, u):
        kind, d_a = self.KINDS[slot]
        if kind == "whole":
            v = _uniform(u[0], *SPEED_RANGE)
        else:
            side = 1.0 if self.rng.random() < 0.5 else -1.0
            v = alignment_speed_kmh(d_a) + side * _log_uniform(u[0],
                                                               *NEAR_RANGE)
        return Point(index, block, "fig5", {
            "v_kmh": [v],
            "d_a_wavelengths": [d_a],
            "rate": SPEED_RATE,
            "eps": SPEED_EPS,
            "delta": DELTA,
            "f_c": F_C,
            "protocols": [PROTOCOLS[(slot + block) % 2]],
            "methods": ["numeric-exact", "closed-form"],
        })


class _Verify(_Design):
    """Four fig4 points (RTD, INR, RTD, INR) then one mc-verify point, over
    the ranges of the default configs, at TRIALS trials.

    fig4 slots use the first two coordinates (log eps in [1e-4, 1e-1],
    rate in [0.5, 2]) in a Latin design; the mc-verify slot uses all four
    (log eps in [1e-3, 1e-2], sigma in [0.5, 1], open-loop power in
    [10, 20] dB, open-loop rate in [0.5, 2]).
    """

    SLOTS = tuple(((i + 0.5) / 4, ((3 * i + 1) % 4 + 0.5) / 4, 0.5, 0.5)
                  for i in range(4)) + ((0.5, 0.5, 0.5, 0.5),)

    def point(self, index, block, slot, u):
        seed = _point_seed(self.seed, index)
        if slot == 4:
            return Point(index, block, "mc-verify", {
                "eps": [_log_uniform(u[0], 1e-3, 1e-2)],
                "rate": VERIFY_RATE,
                "sigma": [_uniform(u[1], 0.5, 1.0)],
                "p1": VERIFY_P1,
                "open_loop_power_db": [_uniform(u[2], 10.0, 20.0)],
                "open_loop_rate": [_uniform(u[3], 0.5, 2.0)],
                "open_loop_sigma": VERIFY_OPEN_LOOP_SIGMA,
                "trials": TRIALS,
            }, seed)
        return Point(index, block, "fig4", {
            "eps": [_log_uniform(u[0], 1e-4, 1e-1)],
            "rate": [_uniform(u[1], 0.5, 2.0)],
            "sigma": FIG4_SIGMA,
            "protocols": [PROTOCOLS[slot % 2]],
            "trials": TRIALS,
        }, seed)


_DESIGNS = {"eps-sweep": _EpsSweep, "speed-sweep": _SpeedSweep,
            "verify": _Verify}


def blocks(workload: str, seed: int):
    """Endless generator of the workload's blocks (lists of points)."""
    design = _DESIGNS[workload](seed)
    index = 0
    for b in itertools.count():
        block = design.block(b, index)
        index += len(block)
        yield block


def grid(workload: str, seed: int, n_blocks: int) -> list[Point]:
    """The points of the first n_blocks blocks."""
    return [p for block in itertools.islice(blocks(workload, seed), n_blocks)
            for p in block]
