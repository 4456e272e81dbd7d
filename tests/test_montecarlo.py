import math

import numpy as np
import pytest

from paharq.allocation import avg_power_given_p1
from paharq.benchmarks import (
    no_retx_outage,
    open_loop_avg_power,
    open_loop_outage_exact,
    zeta_inr_closed,
    zeta_rtd_closed,
)
from paharq import montecarlo
from paharq.channel import QuantileMethod, sample_g2_given_g1
from paharq.harq import HarqConfig, P2Rule, Protocol, theta
from paharq.montecarlo import (
    BATCH_SIZE,
    DegenerateConditioningError,
    _batch_rng,
    _batches,
    run_closed_loop,
    run_no_retx,
    run_open_loop,
    run_open_loop_conditional,
)

CFG = HarqConfig(Protocol.RTD, rate=1.0, eps=1e-3, p1=1.0)


def _outage(g1, g2, p1, p2, protocol, rate):
    if protocol is Protocol.RTD:
        return g1 * p1 + g2 * p2 < theta(rate)
    return np.log1p(g1 * p1) + np.log1p(g2 * p2) < rate


def _plain_open_loop(kind, P, rate, sigma, protocol, n_trials, seed):
    """(conditioned, outage) counts of the open-loop and single-shot
    simulators as plain array expressions on the same batch streams."""
    th = theta(rate)
    n_cond = n_out = 0
    for j, m in _batches(n_trials):
        rng = _batch_rng(seed, j)
        if kind == "conditional":
            u = rng.uniform(size=m)
            g1 = -np.log1p(-u * -math.expm1(-th / P))
        else:
            g1 = rng.exponential(size=m)
            if kind == "no-retx":
                n_out += int((g1 * P < th).sum())
                continue
            g1 = g1[g1 * P < th]
        g2 = sample_g2_given_g1(rng, g1, sigma)
        n_cond += g1.size
        n_out += int(_outage(g1, g2, P, P, protocol, rate).sum())
    return n_cond, n_out


def _plain_closed_loop(cfg, sigma, method, n_trials, seed, quantile):
    """Report fields of run_closed_loop as plain array expressions."""
    rule = P2Rule(cfg, sigma, method, jensen_fallback=False,
                  quantile=quantile)
    n_round2 = n_out = fallback = 0
    spent = []
    for j, m in _batches(n_trials):
        rng = _batch_rng(seed, j)
        g1 = rng.exponential(size=m)
        failed = g1 * cfg.p1 < cfg.theta
        g1f = np.sort(g1[failed])
        p2 = rule(g1f)
        fallback += int(rule.jensen_fallback_mask(g1f).sum())
        g2 = sample_g2_given_g1(rng, g1f, sigma)
        n_round2 += int(failed.sum())
        n_out += int(_outage(g1f, g2, cfg.p1, p2, cfg.protocol,
                             cfg.rate).sum())
        spent += [np.full(m - g1f.size, cfg.p1), cfg.p1 + p2]
    return n_round2, n_out, fallback, np.concatenate(spent).mean()


class TestBatchKernels:
    # the in-place kernels count exactly what the plain expressions count
    # on the same draws; only the power totals are summed in another order

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("kind", ["rejection", "conditional", "no-retx"])
    def test_open_loop_counts(self, kind, protocol):
        n = BATCH_SIZE + 1000
        args = (10.0, 2.0, 0.8)
        if kind == "rejection":
            rep = run_open_loop(*args, protocol, n_trials=n, seed=61)
        elif kind == "conditional":
            rep = run_open_loop_conditional(*args, protocol, n_trials=n,
                                            seed=61)
        else:
            rep = run_no_retx(10.0, 2.0, n_trials=n, seed=61)
        n_cond, n_out = _plain_open_loop(kind, *args, protocol, n, 61)
        assert rep.n_outage == n_out
        if kind == "rejection":
            assert rep.n_round2 == n_cond
            assert rep.avg_power == pytest.approx(10.0 * (1 + n_cond / n),
                                                  rel=1e-15)

    @pytest.mark.parametrize("protocol,method", [
        (Protocol.RTD, QuantileMethod.EXACT),
        (Protocol.INR, QuantileMethod.EXACT),
        (Protocol.INR, QuantileMethod.ASYMPTOTIC),
    ])
    def test_closed_loop_report(self, qcache, protocol, method):
        cfg = HarqConfig(protocol, 2.0, 1e-2, 2.0)
        q = qcache.get(1e-2, 0.8, method)
        n = BATCH_SIZE + 1000
        rep = run_closed_loop(cfg, 0.8, method, n_trials=n, seed=62,
                              jensen_fallback=False, quantile=q)
        n_round2, n_out, fallback, mean = _plain_closed_loop(
            cfg, 0.8, method, n, 62, q)
        assert (rep.n_round2, rep.n_outage) == (n_round2, n_out)
        assert rep.jensen_fallback_count == fallback
        assert (fallback > 0) == (method is QuantileMethod.ASYMPTOTIC)
        assert rep.avg_power == pytest.approx(mean, rel=1e-12)


class TestBatchStreams:
    def test_batches_and_seeds_draw_different_streams(self):
        draws = [_batch_rng(seed, j).random(4).tolist()
                 for seed in (5, 6) for j in (0, 1)]
        assert len({tuple(d) for d in draws}) == 4
        assert _batch_rng(5, 1).random(4).tolist() == draws[1]

    def test_short_batch_is_a_prefix_of_the_stream(self):
        full = _batch_rng(9, 0).exponential(size=BATCH_SIZE)
        np.testing.assert_array_equal(
            _batch_rng(9, 0).exponential(size=1000), full[:1000])


class TestDeterminism:
    def test_identical_reports(self, qcache):
        q = qcache.get(1e-3, 0.8)
        a = run_closed_loop(CFG, 0.8, n_trials=50_000, seed=99, quantile=q)
        b = run_closed_loop(CFG, 0.8, n_trials=50_000, seed=99, quantile=q)
        assert a == b

    def test_seed_changes_results(self, qcache):
        q = qcache.get(1e-3, 0.8)
        a = run_closed_loop(CFG, 0.8, n_trials=50_000, seed=1, quantile=q)
        b = run_closed_loop(CFG, 0.8, n_trials=50_000, seed=2, quantile=q)
        assert a.avg_power != b.avg_power

    def test_trial_prefix_stability(self, qcache):
        # per-batch streams: early trials do not depend on n_trials,
        # so counts over a whole-batch prefix match a shorter run exactly
        q = qcache.get(1e-3, 0.8)
        small = run_closed_loop(CFG, 0.8, n_trials=BATCH_SIZE, seed=5, quantile=q)
        twice = run_closed_loop(CFG, 0.8, n_trials=2 * BATCH_SIZE, seed=5,
                                quantile=q)
        half = run_closed_loop(CFG, 0.8, n_trials=BATCH_SIZE, seed=5, quantile=q)
        assert small == half
        # second batch is an independent substream: totals are the sum of
        # per-batch contributions, so removing batch 1 recovers batch 0
        only_second = run_closed_loop(CFG, 0.8, n_trials=2 * BATCH_SIZE,
                                      seed=5, quantile=q)
        assert only_second.n_round2 >= small.n_round2

    def test_open_loop_deterministic(self):
        a = run_open_loop(10.0, 2.0, 0.8, Protocol.RTD, n_trials=40_000, seed=3)
        b = run_open_loop(10.0, 2.0, 0.8, Protocol.RTD, n_trials=40_000, seed=3)
        assert a == b


class TestClosedLoop:
    def test_conditional_outage_hits_target(self, qcache):
        q = qcache.get(1e-2, 0.8)
        cfg = HarqConfig(Protocol.RTD, 1.0, 1e-2, 1.0)
        rep = run_closed_loop(cfg, 0.8, n_trials=400_000, seed=42, quantile=q)
        se = math.sqrt(1e-2 * (1 - 1e-2) / rep.n_round2)
        assert abs(rep.cond_round2_outage - 1e-2) < 3 * se

    def test_avg_power_matches_quadrature(self, qcache):
        q = qcache.get(1e-2, 0.8)
        cfg = HarqConfig(Protocol.INR, 1.0, 1e-2, 1.0)
        rep = run_closed_loop(cfg, 0.8, n_trials=400_000, seed=43, quantile=q)
        ref = avg_power_given_p1(1.0, cfg, 0.8, QuantileMethod.EXACT, quantile=q)
        assert abs(rep.avg_power - ref) < 3 * rep.avg_power_se

    def test_unconditional_outage_consistency(self, qcache):
        q = qcache.get(1e-2, 0.8)
        cfg = HarqConfig(Protocol.RTD, 1.0, 1e-2, 1.0)
        rep = run_closed_loop(cfg, 0.8, n_trials=200_000, seed=44, quantile=q)
        # every outage passed through round two
        assert rep.n_outage <= rep.n_round2
        assert rep.outage_rate == pytest.approx(rep.n_outage / rep.n_trials)
        # unconditional outage ~ P(round-1 fail) * eps
        p_fail = -math.expm1(-cfg.theta / cfg.p1)
        assert rep.outage_rate == pytest.approx(p_fail * cfg.eps, rel=0.5)

    def test_jensen_fallback_counted(self):
        cfg = HarqConfig(Protocol.INR, 2.0, 1e-2, 2.0)
        rep = run_closed_loop(cfg, 0.8, QuantileMethod.ASYMPTOTIC,
                              n_trials=100_000, seed=7, jensen_fallback=True)
        assert rep.jensen_fallback_count > 0
        rep2 = run_closed_loop(cfg, 0.8, QuantileMethod.EXACT,
                               n_trials=50_000, seed=7)
        assert rep2.jensen_fallback_count == 0

    def test_missing_p1_raises_before_any_draw(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("drew a sample")
        monkeypatch.setattr(montecarlo, "sample_g1", draw)
        cfg = HarqConfig(Protocol.RTD, rate=1.0, eps=1e-3)
        with pytest.raises(ValueError, match="p1 must be set"):
            run_closed_loop(cfg, 0.8, QuantileMethod.ASYMPTOTIC, n_trials=10)

    def test_spent_power_at_least_p1(self, qcache):
        q = qcache.get(1e-3, 0.8)
        rep = run_closed_loop(CFG, 0.8, n_trials=50_000, seed=8, quantile=q)
        assert rep.avg_power >= CFG.p1


class TestOpenLoop:
    def test_outage_matches_exact_quadrature(self):
        for protocol in (Protocol.RTD, Protocol.INR):
            for sigma in (0.8, 1.0):
                rep = run_open_loop(10.0, 2.0, sigma, protocol,
                                    n_trials=400_000, seed=11)
                exact = open_loop_outage_exact(10.0, 2.0, sigma, protocol)
                se = math.sqrt(exact * (1 - exact) / rep.n_round2)
                assert abs(rep.cond_round2_outage - exact) < 3 * se

    def test_closed_form_agreement_in_validity_range(self):
        rep = run_open_loop(100.0, 2.0, 0.8, Protocol.RTD,
                            n_trials=400_000, seed=12)
        closed = zeta_rtd_closed(100.0, 2.0, 0.8)
        se = math.sqrt(closed * (1 - closed) / rep.n_round2)
        assert abs(rep.cond_round2_outage - closed) < 3 * se

    def test_inr_below_rtd(self):
        r = run_open_loop(10.0, 2.0, 0.8, Protocol.RTD, n_trials=300_000, seed=13)
        i = run_open_loop(10.0, 2.0, 0.8, Protocol.INR, n_trials=300_000, seed=13)
        assert i.cond_round2_outage <= r.cond_round2_outage

    def test_avg_power_identity(self):
        rep = run_open_loop(10.0, 2.0, 0.8, Protocol.RTD,
                            n_trials=400_000, seed=14)
        expected = open_loop_avg_power(10.0, 2.0)
        assert abs(rep.avg_power - expected) < 3 * rep.avg_power_se

    def test_full_decorrelation_matches_convolution(self):
        # independent unit exponentials: fixed equal-power retransmission has
        # conditional outage (1 - e^-u (1+u)) / (1 - e^-u)
        P, rate = 8.0, 2.0
        u = theta(rate) / P
        exact = (-math.expm1(-u) - u * math.exp(-u)) / (-math.expm1(-u))
        rep = run_open_loop(P, rate, 1.0, Protocol.RTD,
                            n_trials=400_000, seed=16)
        se = math.sqrt(exact * (1 - exact) / rep.n_round2)
        assert abs(rep.cond_round2_outage - exact) < 3 * se

    def test_trial_prefix_stability(self):
        # a whole first batch counts the same in any longer run: trials
        # added after it add at most one conditioned trial and one outage
        one = run_open_loop(10.0, 2.0, 0.8, Protocol.INR,
                            n_trials=BATCH_SIZE, seed=36)
        assert 0 < one.n_outage < one.n_round2 < BATCH_SIZE
        for extra in (1, 7, BATCH_SIZE):
            longer = run_open_loop(10.0, 2.0, 0.8, Protocol.INR,
                                   n_trials=BATCH_SIZE + extra, seed=36)
            assert 0 <= longer.n_round2 - one.n_round2 <= extra
            assert 0 <= longer.n_outage - one.n_outage <= extra

    def test_degenerate_conditioning_raises(self):
        # theta/P so small that almost no trial conditions
        with pytest.raises(DegenerateConditioningError):
            run_open_loop(1e6, 0.5, 0.8, Protocol.RTD, n_trials=50_000, seed=15)


@pytest.mark.parametrize("run", [
    lambda P: run_open_loop(P, 1.0, 0.8, Protocol.RTD, n_trials=10),
    lambda P: run_open_loop_conditional(P, 1.0, 0.8, Protocol.RTD,
                                        n_trials=10),
    lambda P: run_no_retx(P, 1.0, n_trials=10),
], ids=["open-loop", "open-loop-conditional", "no-retx"])
@pytest.mark.parametrize("P", [0.0, math.nan])
def test_power_must_be_positive(run, P):
    with pytest.raises(ValueError, match="^P must be > 0"):
        run(P)


@pytest.mark.parametrize("run", [
    lambda n: run_closed_loop(CFG, 0.8, QuantileMethod.ASYMPTOTIC,
                              n_trials=n),
    lambda n: run_open_loop(10.0, 1.0, 0.8, Protocol.RTD, n_trials=n),
    lambda n: run_open_loop_conditional(10.0, 1.0, 0.8, Protocol.RTD,
                                        n_trials=n),
    lambda n: run_no_retx(10.0, 1.0, n_trials=n),
], ids=["closed-loop", "open-loop", "open-loop-conditional", "no-retx"])
def test_trials_must_be_positive(run):
    with pytest.raises(ValueError, match="^n_trials must be >= 1$"):
        run(0)


class TestOpenLoopConditional:
    def test_matches_rejection_estimator(self):
        # same conditional law as the rejection route
        rej = run_open_loop(10.0, 2.0, 0.8, Protocol.RTD,
                            n_trials=400_000, seed=31)
        cond = run_open_loop_conditional(10.0, 2.0, 0.8, Protocol.RTD,
                                         n_trials=200_000, seed=32)
        se = math.hypot(rej.cond_round2_se, cond.cond_round2_se)
        assert abs(rej.cond_round2_outage - cond.cond_round2_outage) < 3 * se

    def test_resolves_small_targets(self):
        # a regime where rejection at this trial count would be degenerate
        P, rate = 5067.8, 0.5
        rep = run_open_loop_conditional(P, rate, 0.8, Protocol.RTD,
                                        n_trials=200_000, seed=33)
        assert rep.n_round2 == 200_000
        exact = open_loop_outage_exact(P, rate, 0.8)
        se = math.sqrt(exact * (1 - exact) / rep.n_trials)
        assert abs(rep.cond_round2_outage - exact) < 3 * se

    def test_trial_prefix_stability(self):
        # batch j has its own stream and draws its g1 first, so a whole
        # first batch counts the same in any longer run: trials added after
        # it add at most one outage each
        one = run_open_loop_conditional(10.0, 2.0, 0.8, Protocol.RTD,
                                        n_trials=BATCH_SIZE, seed=35)
        assert 0 < one.n_outage < BATCH_SIZE
        for extra in (1, 7, BATCH_SIZE):
            longer = run_open_loop_conditional(10.0, 2.0, 0.8, Protocol.RTD,
                                               n_trials=BATCH_SIZE + extra,
                                               seed=35)
            assert 0 <= longer.n_outage - one.n_outage <= extra

    def test_deterministic(self):
        a = run_open_loop_conditional(10.0, 2.0, 0.8, Protocol.INR,
                                      n_trials=30_000, seed=34)
        b = run_open_loop_conditional(10.0, 2.0, 0.8, Protocol.INR,
                                      n_trials=30_000, seed=34)
        assert a == b
        assert math.isnan(a.avg_power)


class TestNoRetx:
    def test_matches_closed_form(self):
        for p_db in (0.0, 6.0, 12.0):
            P = 10 ** (p_db / 10)
            rep = run_no_retx(P, 2.0, n_trials=300_000, seed=21)
            ref = no_retx_outage(P, 2.0)
            se = math.sqrt(ref * (1 - ref) / rep.n_trials)
            assert abs(rep.outage_rate - ref) < 3 * se

    def test_outage_at_threshold_power(self):
        # P equal to the decoding threshold: outage 1 - 1/e
        rep = run_no_retx(theta(2.0), 2.0, n_trials=300_000, seed=22)
        ref = -math.expm1(-1.0)
        se = math.sqrt(ref * (1 - ref) / rep.n_trials)
        assert abs(rep.outage_rate - ref) < 3 * se

    def test_outage_decreasing_in_power(self):
        reps = [run_no_retx(P, 2.0, n_trials=200_000, seed=23).outage_rate
                for P in (1.0, 5.0, 25.0)]
        assert reps[0] > reps[1] > reps[2]

    def test_trial_prefix_stability(self):
        one = run_no_retx(10.0, 2.0, n_trials=BATCH_SIZE, seed=37)
        assert 0 < one.n_outage < BATCH_SIZE
        for extra in (1, 7, BATCH_SIZE):
            longer = run_no_retx(10.0, 2.0, n_trials=BATCH_SIZE + extra,
                                 seed=37)
            assert 0 <= longer.n_outage - one.n_outage <= extra

    def test_constant_power(self):
        rep = run_no_retx(7.0, 2.0, n_trials=10_000, seed=24)
        assert rep.avg_power == 7.0
        assert rep.avg_power_se == 0.0
