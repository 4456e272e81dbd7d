"""Seeded protocol-level Monte Carlo for the two-round schemes.

Every run is deterministic given (parameters, seed): trials are organized
in fixed-size batches and batch j draws from its own SFC64 stream, seeded
by SeedSequence(seed, spawn_key=(j,)), so batch streams are independent,
a whole batch is the same regardless of n_trials, and whole batches can
be farmed out to workers without changing any result.  Each batch draws
its g1 first, sized by its own trial count: those are the first values
of its stream, so a trial's g1 never depends on n_trials; the normals of
g2 that follow are sized by the batch's trials, so in a short last batch
they do.  The simulators walk the same batch streams, and the two-round
ones share one round-two step, which draws one normal (x) per round-two
trial and a second (y) only for the trials that x leaves in outage,
overwrites its draws in place and counts with count_nonzero; the closed
loop sorts its round-two g1 before the rule's table lookups.  Power
totals are reduced with math.fsum (exactly rounded, hence
order-independent).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (GainQuantile, QuantileMethod, _add_g2_quadrature,
                      _g2_in_phase, sample_g1)
from .harq import (HarqConfig, P2Rule, PaharqError, Protocol, _require_p1,
                   theta)

BATCH_SIZE = 1 << 16
# run_open_loop's conditional estimate needs this many round-two trials
_MIN_CONDITIONED = 100


class DegenerateConditioningError(PaharqError, RuntimeError):
    """Too few trials satisfied the conditioning event for a usable estimate."""


@dataclass(frozen=True)
class MCReport:
    """Aggregated trial statistics, with the standard errors of the
    conditional outage and the average power.

    `outage_rate` is unconditional (outage after the final round, over all
    trials); `cond_round2_outage` conditions on entering round two, with
    numerator and denominator counts kept for auditing.  For single-round
    runs the conditional fields are NaN / zero.
    """

    n_trials: int
    outage_rate: float
    cond_round2_outage: float
    cond_round2_se: float
    avg_power: float
    avg_power_se: float
    n_round2: int            # trials entering round two (denominator)
    n_outage: int            # trials still failing afterwards (numerator)
    jensen_fallback_count: int = 0


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(batch_index,))))


def _batches(n_trials: int):
    n_batches = (n_trials + BATCH_SIZE - 1) // BATCH_SIZE
    for j in range(n_batches):
        yield j, min(BATCH_SIZE, n_trials - j * BATCH_SIZE)


def _streams(n_trials: int, seed: int, P: float):
    """The (trials, generator) of each batch, once n_trials and the
    constant round-one power P are checked, before any work."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not P > 0:
        raise ValueError(f"P must be > 0, got {P}")
    return ((m, _batch_rng(seed, j)) for j, m in _batches(n_trials))


def _round_two(rng, g1, sigma: float, p1: float, p2, protocol: Protocol,
               rate: float) -> int:
    """Trials still in outage after round two, for the round-one gains g1
    at power p1 that failed: draw g2 | g1, scale it by the round-two power
    p2 (one, or one per trial), then RTD adds the SNRs and INR the mutual
    informations.  Overwrites g1.

    Both outage tests fall as g2 grows, and the quadrature term of g2 (the
    y of `sample_g2_given_g1`) only adds to it, so a trial that decodes
    at y = 0 decodes at every y; rounding keeps that order.  So every trial
    draws its x, and only the trials that stay in outage at y = 0 draw a y:
    each count is bit for bit the one of the full g2 on the same (x, y).
    """
    g2, scale = _g2_in_phase(rng, g1, sigma)
    g1 *= p1
    if protocol is Protocol.INR:
        np.log1p(g1, out=g1)
        limit = rate
    else:
        limit = theta(rate)
    open_ = np.flatnonzero(_outages(g1, g2, p2, protocol, limit))
    g2 = _add_g2_quadrature(rng, g2.take(open_), scale)
    if np.ndim(p2):
        p2 = p2.take(open_)
    return np.count_nonzero(_outages(g1.take(open_), g2, p2, protocol, limit))


def _outages(round_one, g2, p2, protocol: Protocol, limit: float):
    """Mask of the trials in outage: round one's SNR g1 p1 (RTD) or mutual
    information log(1 + g1 p1) (INR) plus round two's at g2, below the
    threshold (RTD) or the rate (INR)."""
    total = g2 * p2
    if protocol is Protocol.INR:
        np.log1p(total, out=total)
    total += round_one
    return total < limit


def _finalize(n_trials, n_round2, n_outage, power_sums, power_sqsums,
              fallback_count=0) -> MCReport:
    if n_round2 > 0:
        cond = n_outage / n_round2
        cond_se = math.sqrt(cond * (1.0 - cond) / n_round2)
    else:
        cond, cond_se = math.nan, math.nan
    mean = math.fsum(power_sums) / n_trials
    var = max(math.fsum(power_sqsums) / n_trials - mean * mean, 0.0)
    if n_trials > 1:
        var *= n_trials / (n_trials - 1)
    return MCReport(
        n_trials=n_trials,
        outage_rate=n_outage / n_trials,
        cond_round2_outage=cond, cond_round2_se=cond_se,
        avg_power=mean, avg_power_se=math.sqrt(var / n_trials),
        n_round2=n_round2, n_outage=n_outage,
        jensen_fallback_count=fallback_count,
    )


def run_closed_loop(cfg: HarqConfig, sigma: float,
                    method: QuantileMethod = QuantileMethod.EXACT,
                    n_trials: int = 100_000, seed: int = 0,
                    jensen_fallback: bool = True,
                    quantile: GainQuantile | None = None) -> MCReport:
    """Simulate the feedback scheme: blind round one at cfg.p1, then a
    g1-adapted round two using the selected quantile method.

    Round one decodes when rate <= log(1 + g1 p1).  On failure the rule's
    round-two power is spent and decoding is retried with RTD combining
    (g1 p1 + g2 P2 >= theta) or INR accumulation
    (log(1+g1 p1) + log(1+g2 P2) >= rate).
    """
    p1 = _require_p1(cfg)
    batches = _streams(n_trials, seed, p1)
    rule = P2Rule(cfg, sigma, method, jensen_fallback=jensen_fallback,
                  quantile=quantile)
    th = cfg.theta
    n_round2 = n_outage = fallback = 0
    sums, sqsums = [], []
    for m, rng in batches:
        g1 = sample_g1(rng, size=m)
        g1 = g1[g1 * p1 < th]
        # in ascending order the table lookups of the rule walk its knots in
        # turn (~3x faster); how many y normals round two draws depends on
        # g1, but no normal's value does, so the law of the (g1, g2) pairs,
        # and of the report, is unchanged
        g1.sort()
        n = g1.size
        p2 = rule(g1)
        if rule.jensen:
            fallback += np.count_nonzero(rule.jensen_fallback_mask(g1))
        n_round2 += n
        n_outage += _round_two(rng, g1, sigma, p1, p2, cfg.protocol, cfg.rate)
        # every trial spends p1, a failed one p2 on top
        p2 += p1
        sums += [(m - n) * p1, float(p2.sum())]
        sqsums += [(m - n) * p1 * p1, float(np.square(p2, out=p2).sum())]
    return _finalize(n_trials, n_round2, n_outage, sums, sqsums, fallback)


def run_open_loop(P: float, rate: float, sigma: float, protocol: Protocol,
                  n_trials: int = 100_000, seed: int = 0) -> MCReport:
    """Simulate equal-power two-round HARQ without feedback.

    The conditional outage is estimated by rejection: only trials whose
    first-round gain fails (g1 < theta/P) enter the denominator.  Raises
    DegenerateConditioningError when fewer than 100 survive.
    """
    batches = _streams(n_trials, seed, P)
    th = theta(rate)
    n_cond = n_out = 0
    for m, rng in batches:
        g1 = sample_g1(rng, size=m)
        g1 = g1[g1 * P < th]
        n_cond += g1.size
        n_out += _round_two(rng, g1, sigma, P, P, protocol, rate)
    if n_cond < _MIN_CONDITIONED:
        raise DegenerateConditioningError(
            f"only {n_cond} of {n_trials} trials met g1 < theta/P "
            f"(P={P:.6g}, rate={rate}); conditional estimate unusable")
    # a conditioned trial spends 2P, every other one P
    return _finalize(n_trials, n_cond, n_out, [(n_trials + n_cond) * P],
                     [(n_trials + 3 * n_cond) * P * P])


def run_open_loop_conditional(P: float, rate: float, sigma: float,
                              protocol: Protocol, n_trials: int = 100_000,
                              seed: int = 0) -> MCReport:
    """Open-loop conditional outage with every trial inside the condition.

    Draws g1 directly from the unit exponential truncated to the
    round-one-failure region [0, theta/P) (inverse-CDF sampling), which is
    the same conditional law that `run_open_loop` reaches by rejection, so
    small outage targets can be resolved at a fixed trial count.  The
    average power is not estimated here (the conditioning discards the
    no-retransmission trials); it is NaN in the report.
    """
    batches = _streams(n_trials, seed, P)
    p_cond = -math.expm1(-theta(rate) / P)
    n_out = 0
    for m, rng in batches:
        g1 = rng.random(m)
        g1 *= -p_cond
        np.negative(np.log1p(g1, out=g1), out=g1)   # -log1p(-u p_cond)
        n_out += _round_two(rng, g1, sigma, P, P, protocol, rate)
    # every trial enters round two, one in p_cond of the unconditioned ones
    rep = _finalize(n_trials, n_trials, n_out, [], [])
    return replace(rep, outage_rate=rep.cond_round2_outage * p_cond,
                   avg_power=math.nan, avg_power_se=math.nan)


def run_no_retx(P: float, rate: float, n_trials: int = 100_000,
                seed: int = 0) -> MCReport:
    """Simulate single-shot transmission; outage estimates 1 - e^{-theta/P}."""
    batches = _streams(n_trials, seed, P)
    th = theta(rate)
    n_out = sum(np.count_nonzero(sample_g1(rng, size=m) * P < th)
                for m, rng in batches)
    return MCReport(
        n_trials=n_trials,
        outage_rate=n_out / n_trials,
        cond_round2_outage=math.nan, cond_round2_se=math.nan,
        avg_power=P, avg_power_se=0.0,
        n_round2=0, n_outage=n_out,
    )
