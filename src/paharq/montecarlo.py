"""Seeded protocol-level Monte Carlo for the two-round schemes.

Every run is deterministic given (parameters, seed): trials are organized
in fixed-size batches and batch j draws from its own SFC64 stream, seeded
by SeedSequence(seed, spawn_key=(j,)), so batch streams are independent,
a whole batch is the same regardless of n_trials, and whole batches can
be farmed out to workers without changing any result.  One round-one
stage, `_round_one`, draws a batch's g1 first (the first values of its
stream, so a trial's g1 never depends on n_trials) and screens it for
the closed and open loops and the single-shot run; one round-two step,
`_round_two`, draws an in-phase normal x per round-two trial (unless
its caller passes x), then a y only for the trials that x leaves in
outage, overwrites its inputs in place and counts with count_nonzero.
These two fix the draw order g1, screen, x, y, hence every report's
bits; x and y are sized by the batch's trials, so in a short last batch
they depend on n_trials.  The closed loop sorts its round-two g1, which
fixes the pairing of g1 and normals, then evaluates its power rule on
slices of _RULE_SLICE gains.  Power totals are reduced with math.fsum
(exactly rounded, hence order-independent).

The conditional sampler (fig4's) thins instead: a trial whose round one
failed (g1 < u = theta/P) can be in outage at y = 0 only if
|x| < B = sqrt(2 (2 - sigma^2) u) / sigma (proved in
`run_open_loop_conditional`), and any other decodes.  So each batch
draws the number K ~ Binomial(m, erf(B / sqrt 2)) of its trials inside
that window, then K uniforms that give their x by inversion inside it,
K uniforms for their g1, and the y of round two: it simulates only
those K trials, and its outage count keeps the law of simulating all m.

The round-one screen, the round-two step, the closed loop's round-two
g1 and powers and the conditional sampler's x and g1 draws write their
batch-sized temporaries into work arrays of BATCH_SIZE elements, created
once per thread and handed out as [:n] views: fresh 512 KiB arrays per
batch cost every 1e5-trial run hundreds of minor page faults, as the
allocator mapped each one, or trimmed the heap after use, page by page.
The power rule's own temporaries, on slices of the batch, stay 32 KiB
each.  The work arrays take the same values through the same
elementwise operations, so no result moves, and they are thread-local,
so simulators still run in several threads at once.
"""

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .channel import (GainQuantile, QuantileMethod, _add_g2_quadrature,
                      _check_sigma, _g2_in_phase, sample_g1)
from .harq import HarqConfig, P2Rule, PaharqError, Protocol, theta

BATCH_SIZE = 1 << 16
# the closed loop's power rule runs on slices of this many gains, so its
# temporaries stay a few pages each
_RULE_SLICE = 1 << 12
# run_open_loop's conditional estimate needs this many round-two trials
_MIN_CONDITIONED = 100
# relative widening of the conditional sampler's window on x, far above the
# few units of 2**-53 by which the rounded outage tests can move its edge
_WINDOW_MARGIN = 1e-9


class _WorkArrays:
    """One thread's work arrays, each of BATCH_SIZE elements.  `g1` holds
    the conditional sampler's g1, or the closed loop's sorted round-one
    failures; `p2` the closed loop's round-two powers, then the total
    power of each of those trials and its square; `g2` the round-two
    step's x (the conditional sampler's uniforms before that), later its
    y and last its second outage sums; `total` the round-one screen's
    g1 p1, then sqrt(g1) and the first outage sums; `g2_open`, `p2_open`
    and `g1_open` the g2, p2 and round-one term of the trials still open
    at y = 0; and `mask` each screen's mask."""

    def __init__(self):
        (self.g1, self.g2, self.total, self.p2, self.g2_open, self.p2_open,
         self.g1_open) = (np.empty(BATCH_SIZE) for _ in range(7))
        self.mask = np.empty(BATCH_SIZE, dtype=bool)


_THREAD = threading.local()


def _work() -> _WorkArrays:
    """This thread's work arrays, made when it first simulates."""
    try:
        return _THREAD.work
    except AttributeError:
        _THREAD.work = _WorkArrays()
        return _THREAD.work


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


def _round_one(n_trials: int, seed: int, P: float, rate: float):
    """Per batch of `_streams`, whose checks run at the call, before any
    work (so this is no generator function): its trials m, generator, g1
    and the mask g1 P < theta(rate) of its round-one failures, a view of
    this thread's work arrays until round two."""
    batches, th, work = _streams(n_trials, seed, P), theta(rate), _work()
    return ((m, rng, g1, np.less(np.multiply(g1, P, out=work.total[:m]), th,
                                 out=work.mask[:m]))
            for m, rng in batches for g1 in [sample_g1(rng, size=m)])


def _round_two(rng, g1, sigma: float, p1: float, p2, protocol: Protocol,
               rate: float, x=None) -> int:
    """Trials still in outage after round two, for the round-one gains g1
    at power p1 that failed and their in-phase normals x (drawn here unless
    given): form g2 | g1, scale it by the round-two power p2 (one, or one
    per trial), then RTD adds the SNRs and INR the mutual informations.

    Both outage tests fall as g2 grows, and the quadrature term of g2 (the
    y of `sample_g2_given_g1`) only adds to it, so a trial that decodes
    at y = 0 decodes at every y; rounding keeps that order.  So only the
    trials that stay in outage at y = 0 draw a y: each count is bit for
    bit the one of the full g2 on the same (x, y).  Every temporary is a
    view of this thread's work arrays, and g1 and x are overwritten.
    """
    n, work = g1.size, _work()
    if x is None:
        x = rng.standard_normal(out=work.g2[:n])
    g2, scale = _g2_in_phase(x, g1, sigma, work=work.total[:n])
    g1 *= p1
    if protocol is Protocol.INR:
        np.log1p(g1, out=g1)
        limit = rate
    else:
        limit = theta(rate)
    open_ = np.flatnonzero(_outages(g1, g2, p2, protocol, limit,
                                    work.total[:n], work.mask[:n]))
    k = open_.size
    # mode="clip" writes into out directly; "raise" would buffer it
    g2 = _add_g2_quadrature(
        rng, g2.take(open_, out=work.g2_open[:k], mode="clip"), scale,
        work=work.g2[:k])
    if np.ndim(p2):
        p2 = p2.take(open_, out=work.p2_open[:k], mode="clip")
    round_one = g1.take(open_, out=work.g1_open[:k], mode="clip")
    return np.count_nonzero(_outages(round_one, g2, p2, protocol, limit,
                                     work.g2[:k], work.mask[:k]))


def _outages(round_one, g2, p2, protocol: Protocol, limit: float, total,
             out):
    """Mask of the trials in outage, written into `out`: round one's SNR
    g1 p1 (RTD) or mutual information log(1 + g1 p1) (INR) plus round
    two's at g2 (summed in `total`), below the threshold (RTD) or the rate
    (INR)."""
    np.multiply(g2, p2, out=total)
    if protocol is Protocol.INR:
        np.log1p(total, out=total)
    total += round_one
    return np.less(total, limit, out=out)


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


def run_closed_loop(p1: float, cfg: HarqConfig, sigma: float,
                    method: QuantileMethod = QuantileMethod.EXACT,
                    n_trials: int = 100_000, seed: int = 0,
                    jensen_fallback: bool = True,
                    quantile: GainQuantile | None = None) -> MCReport:
    """Simulate the feedback scheme: blind round one at p1, then a
    g1-adapted round two using the selected quantile method.

    Round one decodes when rate <= log(1 + g1 p1).  On failure the rule's
    round-two power is spent and decoding is retried with RTD combining
    (g1 p1 + g2 P2 >= theta) or INR accumulation
    (log(1+g1 p1) + log(1+g2 P2) >= rate).
    """
    batches = _round_one(n_trials, seed, p1, cfg.rate)
    rule = P2Rule(cfg, sigma, method, jensen_fallback=jensen_fallback,
                  quantile=quantile)
    n_round2 = n_outage = fallback = 0
    sums, sqsums = [], []
    work = _work()
    for m, rng, g1, failed in batches:
        failed = np.flatnonzero(failed)
        n = failed.size
        # mode="clip" writes into out directly; np.compress would buffer it
        g1 = g1.take(failed, out=work.g1[:n], mode="clip")
        # the ascending order fixes which normals pair with which g1, so it
        # fixes every report's bits; how many y normals round two draws
        # depends on g1, but no normal's value does, so the law of the
        # (g1, g2) pairs, and of the report, is that of any order
        g1.sort()
        p2 = work.p2[:n]
        # the rule is elementwise, so slices give its values bit for bit
        for lo in range(0, n, _RULE_SLICE):
            part = g1[lo:lo + _RULE_SLICE]
            p2[lo:lo + _RULE_SLICE] = rule(part, p1)
            if rule.jensen:
                fallback += np.count_nonzero(
                    rule.jensen_fallback_mask(part, p1))
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
    n_cond = n_out = 0
    for _, rng, g1, failed in _round_one(n_trials, seed, P, rate):
        g1 = g1[failed]
        n_cond += g1.size
        n_out += _round_two(rng, g1, sigma, P, P, protocol, rate)
    if n_cond < _MIN_CONDITIONED:
        raise DegenerateConditioningError(
            f"only {n_cond} of {n_trials} trials met g1 < theta/P "
            f"(P={P:.6g}, rate={rate}); conditional estimate unusable")
    # a conditioned trial spends 2P, every other one P
    return _finalize(n_trials, n_cond, n_out, [(n_trials + n_cond) * P],
                     [(n_trials + 3 * n_cond) * P * P])


def _window(u: float, sigma: float):
    """(B, w, Phi(-B)) for round-one failures g1 < u: the bound B on |x|
    beyond which no trial is in outage at y = 0, widened by
    _WINDOW_MARGIN; the probability w = erf(B / sqrt 2) that a standard
    normal falls inside it; and the normal CDF at -B."""
    bound = (math.sqrt(2.0 * (2.0 - sigma * sigma) * u) / sigma
             * (1.0 + _WINDOW_MARGIN))
    half = bound * math.sqrt(0.5)
    return bound, math.erf(half), 0.5 * math.erfc(half)


def _normals_in_window(uniforms, bound: float, w: float, lower: float):
    """Standard normals conditioned on |x| < bound, by inversion of the
    uniforms in [0, 1), in place: ndtri(Phi(-B) + w U).  Clipped to the
    window, so a uniform of 0 where Phi(-B) underflows (B > ~38) gives -B,
    not -inf."""
    uniforms *= w
    uniforms += lower
    x = ndtri(uniforms, out=uniforms)
    return np.clip(x, -bound, bound, out=x)


def run_open_loop_conditional(P: float, rate: float, sigma: float,
                              protocol: Protocol, n_trials: int = 100_000,
                              seed: int = 0) -> MCReport:
    """Open-loop conditional outage with every trial inside the condition.

    Draws g1 directly from the unit exponential truncated to the
    round-one-failure region [0, u), u = theta/P (inverse-CDF sampling),
    which is the same conditional law that `run_open_loop` reaches by
    rejection, so small outage targets can be resolved at a fixed trial
    count.  The average power is not estimated here (the conditioning
    discards the no-retransmission trials); it is NaN in the report.

    Only the trials that can still fail round two are simulated.  With
    g2 = (sqrt(1 - sigma^2) sqrt(g1) + sigma x / sqrt 2)^2 + (sigma y /
    sqrt 2)^2, a trial is in outage at y = 0 only if the in-phase root is
    below R in magnitude, where R^2 is round two's threshold on g2: u - g1
    for RTD and (e^rate / (1 + g1 P) - 1) / P for INR.  Both have
    R^2 + g1 <= u (for INR because 1 + g1 P <= e^rate).  By Cauchy-Schwarz
    such a trial has

        sigma |x| / sqrt 2 < R + sqrt(1 - sigma^2) sqrt(g1)
                           <= sqrt(2 - sigma^2) sqrt(R^2 + g1)
                           <= sqrt((2 - sigma^2) u),

    that is |x| < B = sqrt(2 (2 - sigma^2) u) / sigma, whatever its g1.
    A trial with |x| >= B decodes at y = 0, hence at every y (see
    `_round_two`).  So a batch of m trials draws, in this order, the
    number K ~ Binomial(m, w) of its trials inside the window,
    w = erf(B / sqrt 2); their x by inversion inside it; their g1; and a y
    for each one still in outage at y = 0.  The outage count has the law
    of simulating all m trials.  B is widened by _WINDOW_MARGIN, so that
    rounding in the outage tests cannot put an outage outside the window.
    """
    batches = _streams(n_trials, seed, P)
    u = theta(rate) / P
    _check_sigma(sigma)
    p_cond = -math.expm1(-u)
    bound, w, lower = _window(u, sigma)
    n_out, work = 0, _work()
    for m, rng in batches:
        k = rng.binomial(m, w)
        x = _normals_in_window(rng.random(out=work.g2[:k]), bound, w, lower)
        g1 = rng.random(out=work.g1[:k])
        g1 *= -p_cond
        np.negative(np.log1p(g1, out=g1), out=g1)   # -log1p(-u p_cond)
        n_out += _round_two(rng, g1, sigma, P, P, protocol, rate, x)
    # every trial enters round two, one in p_cond of the unconditioned ones
    rep = _finalize(n_trials, n_trials, n_out, [], [])
    return replace(rep, outage_rate=rep.cond_round2_outage * p_cond,
                   avg_power=math.nan, avg_power_se=math.nan)


def run_no_retx(P: float, rate: float, n_trials: int = 100_000,
                seed: int = 0) -> MCReport:
    """Simulate single-shot transmission; outage estimates 1 - e^{-theta/P}."""
    n_out = sum(np.count_nonzero(failed)
                for *_, failed in _round_one(n_trials, seed, P, rate))
    # every trial spends exactly P
    return replace(_finalize(n_trials, 0, n_out, [], []), avg_power=P)
