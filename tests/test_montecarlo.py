import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from paharq.allocation import avg_power_given_p1
from paharq.benchmarks import (
    no_retx_outage,
    open_loop_avg_power,
    open_loop_outage_exact,
    zeta_inr_closed,
    zeta_rtd_closed,
)
from paharq import montecarlo
from paharq.channel import QuantileMethod
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


def _in_phase(x, g1, sigma):
    # g2 at y = 0, in the sampler's order of operations
    return (x * (sigma * math.sqrt(0.5))
            + np.sqrt(g1) * math.sqrt(1.0 - sigma * sigma)) ** 2


def _plain_round_two(rng, g1, sigma, p1, p2, protocol, rate, x=None):
    """Outage mask of round two as plain array expressions, in the draw
    order of the simulators: x for every trial (unless given), then y for
    the trials still in outage at y = 0."""
    if x is None:
        x = rng.standard_normal(g1.size)
    g2 = _in_phase(x, g1, sigma)
    open_ = _outage(g1, g2, p1, p2, protocol, rate)
    y = rng.standard_normal(np.count_nonzero(open_))
    g2[open_] += (y * (sigma * math.sqrt(0.5))) ** 2
    return _outage(g1, g2, p1, p2, protocol, rate)


def _bound(u, sigma):
    """The conditional sampler's window on x, sqrt(2 (2 - sigma^2) u) /
    sigma widened by its margin."""
    return (math.sqrt(2.0 * (2.0 - sigma * sigma) * u) / sigma
            * (1.0 + montecarlo._WINDOW_MARGIN))


def _plain_open_loop(kind, P, rate, sigma, protocol, n_trials, seed):
    """(conditioned, outage) counts of the open-loop and single-shot
    simulators as plain array expressions on the same batch streams.  The
    conditional one draws the number k of trials inside the window on x,
    their x by inversion, their g1, then round two's y."""
    th = theta(rate)
    n_cond = n_out = 0
    for j, m in _batches(n_trials):
        rng = _batch_rng(seed, j)
        x = None
        if kind == "conditional":
            bound = _bound(th / P, sigma)
            half = bound * math.sqrt(0.5)
            w = math.erf(half)
            k = rng.binomial(m, w)
            x = np.clip(ndtri(0.5 * math.erfc(half) + w * rng.uniform(size=k)),
                        -bound, bound)
            u = rng.uniform(size=k)
            g1 = -np.log1p(-u * -math.expm1(-th / P))
        else:
            g1 = rng.exponential(size=m)
            if kind == "no-retx":
                n_out += int((g1 * P < th).sum())
                continue
            g1 = g1[g1 * P < th]
        n_cond += m if kind == "conditional" else g1.size
        n_out += int(_plain_round_two(rng, g1, sigma, P, P, protocol,
                                      rate, x).sum())
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
        n_round2 += int(failed.sum())
        n_out += int(_plain_round_two(rng, g1f, sigma, cfg.p1, p2,
                                      cfg.protocol, cfg.rate).sum())
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
        if kind == "conditional":
            assert rep.n_round2 == n_cond == n
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("sigma", [1e-3, 0.8, 1.0])
    @pytest.mark.parametrize("kind", ["scalar", "array", "zero"])
    def test_round_two_screen(self, kind, sigma, protocol):
        # a trial that draws no y decodes whatever its y, and the step takes
        # n + k normals from its stream: n x, then k y for the k trials
        # still in outage at y = 0; p2 = 0 (INR's Jensen rule) warns nothing
        rate, p1 = 2.0, 1.0
        draws = np.random.default_rng(71)
        g1 = draws.exponential(size=20_000)
        g1 = g1[g1 * p1 < theta(rate)]
        n = g1.size
        p2 = {"scalar": 3.0, "zero": 0.0,
              "array": np.where(draws.random(n) < 0.2, 0.0,
                                draws.uniform(0.0, 8.0, n))}[kind]
        rng = _batch_rng(72, 0)
        count = montecarlo._round_two(rng, g1.copy(), rng.standard_normal(n),
                                      sigma, p1, p2, protocol, rate)
        normals = _batch_rng(72, 0).standard_normal(2 * n + 1)
        x = normals[:n]
        open_ = _outage(g1, _in_phase(x, g1, sigma), p1, p2, protocol, rate)
        k = np.count_nonzero(open_)
        assert 0 < k and (k < n) == (kind != "zero")
        y = 3.0 * draws.standard_normal(n)      # any y for the decoded trials
        y[::7] = 0.0
        y[open_] = normals[n:n + k]
        g2 = _in_phase(x, g1, sigma) + (y * (sigma * math.sqrt(0.5))) ** 2
        assert count == np.count_nonzero(_outage(g1, g2, p1, p2, protocol,
                                                 rate))
        assert rng.standard_normal() == normals[n + k]


# the three two-round simulators, each at its own seed; the closed loop
# takes its EXACT table from the caller
_WORK_RUNS = {
    "closed-loop": lambda n, seed, q: run_closed_loop(
        HarqConfig(Protocol.INR, 1.0, 1e-2, 1.0), 0.8, n_trials=n, seed=seed,
        quantile=q),
    "open-loop": lambda n, seed, q: run_open_loop(
        10.0, 2.0, 0.8, Protocol.INR, n_trials=n, seed=seed),
    "open-loop-conditional": lambda n, seed, q: run_open_loop_conditional(
        10.0, 2.0, 0.8, Protocol.RTD, n_trials=n, seed=seed),
}


class TestWorkArrays:
    # the simulators write their batch temporaries into per-thread arrays
    # kept between calls; nothing a call leaves there may reach a report

    def test_repeated_and_interleaved_calls_match_a_fresh_process(
            self, qcache):
        code = ("import sys; sys.path.insert(0, sys.argv[1]);"
                " import test_montecarlo as t;"
                " from paharq.channel import GainQuantile;"
                " q = GainQuantile(1e-2, 0.8);"
                " [print(repr(run(n, 84, q))) for run in t._WORK_RUNS.values()"
                " for n in (100_000, 1_000)]")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(montecarlo.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent)],
            env=env, capture_output=True, text=True,
            check=True).stdout.splitlines()
        fresh = dict(zip([(name, n) for name in _WORK_RUNS
                          for n in (100_000, 1_000)], out))
        q = qcache.get(1e-2, 0.8)
        for _ in range(2):
            for n in (100_000, 1_000, 100_000):
                for name, run in _WORK_RUNS.items():
                    assert repr(run(n, 84, q)) == fresh[name, n], (name, n)

    def test_threads_get_the_reports_of_sequential_runs(self, qcache):
        # more threads than cores, switching often, each at its own seeds
        q = qcache.get(1e-2, 0.8)
        calls = [(run, n) for run in _WORK_RUNS.values()
                 for n in (100_000, 3_000)]
        seeds = range(85, 89)
        sequential = [[run(n, seed, q) for run, n in calls] for seed in seeds]
        threaded = [None] * len(seeds)
        start = threading.Barrier(len(seeds))

        def work(t, seed):
            start.wait()
            threaded[t] = [run(n, seed, q) for run, n in calls]

        threads = [threading.Thread(target=work, args=item)
                   for item in enumerate(seeds)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == sequential

    def test_warm_runs_take_no_page_faults(self):
        # allocating every batch's temporaries afresh cost ~450 minor page
        # faults per 100 000-trial run of the conditional open loop
        resource = pytest.importorskip("resource")
        run = _WORK_RUNS["open-loop-conditional"]
        for seed in range(3):
            run(100_000, seed, None)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for seed in range(20):
            run(100_000, seed, None)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 100


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


class TestThinnedConditional:
    # the conditional sampler simulates only the trials whose in-phase
    # normal x lies inside a window |x| < B; every other trial must decode

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("sigma", [1e-3, 0.3, 0.8, 1.0])
    def test_no_outage_outside_the_window(self, sigma, protocol):
        # plain draws, an x for every trial, and the window's edge around
        # the g1 where the bound is tight, (1 - sigma^2) u / (2 - sigma^2),
        # which makes the Cauchy-Schwarz step an equality
        draws = np.random.default_rng(91)
        s2 = sigma * sigma
        for rate in (0.5, 2.0):
            for u in np.geomspace(1e-9, 5.0, 15):
                P = theta(rate) / u
                bound = montecarlo._window(u, sigma)[0]
                assert bound == _bound(u, sigma)
                g1 = -np.log1p(-draws.random(20_000) * -math.expm1(-u))
                x = draws.standard_normal(g1.size)
                tight = (1.0 - s2) * u / (2.0 - s2)
                g1 = np.concatenate((g1, tight * np.linspace(0.9, 1.1, 201),
                                     np.full(4, tight), [0.0, u]))
                x = np.concatenate((x, np.full(201, -bound),
                                    bound * np.array([-1.0, 1.0, -1.5, 1.5]),
                                    [bound, -bound]))
                g2 = _in_phase(x, g1, sigma)
                open_ = _outage(g1, g2, P, P, protocol, rate)
                assert not np.any(open_ & (np.abs(x) >= bound)), (rate, u)
                if protocol is Protocol.RTD:
                    # and the bound is tight: just inside it, at the tight
                    # g1, the trial is in outage
                    inside = -bound * (1.0 - 1e-6)
                    assert _outage(tight, _in_phase(inside, tight, sigma),
                                   P, P, protocol, rate)

    @pytest.mark.parametrize("sigma,u,rate,protocol,n_trials", [
        (0.8, 3e-7, 1.0, Protocol.RTD, 10**8),      # w 9.0e-4
        (0.8, 3e-7, 1.0, Protocol.INR, 10**8),      # w 9.0e-4
        (0.3, 1e-4, 2.0, Protocol.RTD, 10**6),      # w 0.052
        (0.8, 0.05, 0.5, Protocol.INR, 10**6),      # w 0.36
        (1.0, 5.0, 0.5, Protocol.RTD, 10**6),       # w 0.998
        (1e-3, 0.1, 1.0, Protocol.RTD, 10**6),      # w 1, B 632
        (1e-3, 0.1, 2.0, Protocol.INR, 10**6),      # w 1, B 632
        (0.05, 1.0, 1.0, Protocol.RTD, 10**6),      # w 1, Phi(-B) is 0
    ])
    def test_estimates_match_exact(self, sigma, u, rate, protocol, n_trials):
        # thinning leaves the law of the count alone: the estimate sits
        # within 4 standard errors of the quadrature, at windows from
        # w < 1e-3 (where 1e8 trials cost ~1e5 simulated ones) to w = 1
        P = theta(rate) / u
        rep = run_open_loop_conditional(P, rate, sigma, protocol,
                                        n_trials=n_trials, seed=92)
        exact = open_loop_outage_exact(P, rate, sigma, protocol)
        se = math.sqrt(exact * (1 - exact) / n_trials)
        assert rep.n_round2 == n_trials
        assert abs(rep.cond_round2_outage - exact) < 4 * se
        if n_trials == 10**8:
            assert rep.n_outage >= 5

    def test_window_spans_the_grid(self):
        # the grid above reaches both ends of the window's probability
        w = [montecarlo._window(u, sigma)[1]
             for sigma, u in ((0.8, 3e-7), (1e-3, 0.1))]
        assert w[0] < 1e-3 and w[1] == 1.0
        assert montecarlo._window(1.0, 0.05)[2] == 0.0

    @pytest.mark.parametrize("bound", [0.5, 5.0, 38.5, 40.0, 1e3, math.inf])
    def test_window_edges_stay_finite(self, bound):
        # uniforms of exactly 0 and of the largest value below 1: where
        # Phi(-B) underflows to 0 (B > ~38) ndtri(0) is -inf, which the
        # clip returns to the edge of the window
        half = bound / math.sqrt(2.0)
        w, lower = math.erf(half), 0.5 * math.erfc(half)
        u = np.array([0.0, 0.5, 1.0 - 2.0**-53])
        x = montecarlo._normals_in_window(u, bound, w, lower)
        assert not np.any(np.isnan(x))
        assert np.all(np.abs(x) <= bound)
        assert x[1] == pytest.approx(0.0, abs=1e-15)
        if math.isfinite(bound):
            assert np.all(np.isfinite(x))
            assert x[0] == pytest.approx(-bound, rel=1e-6)

    @pytest.mark.parametrize("P,sigma,n_trials,windows", [
        (1e20, 0.8, 2 * BATCH_SIZE + 3, "empty"),   # w ~ 4e-10
        (6e10, 0.8, 4 * BATCH_SIZE, "mixed"),       # w ~ 1.7e-5
        (10.0, 0.8, 1000, "full"),                  # one short batch
        (1.0, 0.05, 1000, "full"),                  # B 101, Phi(-B) = 0
        (10.0, 1e-3, 5, "full"),
    ])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_kernel_edges(self, P, sigma, n_trials, windows, protocol):
        # batches whose window holds no trial, short batches and windows
        # past Phi(-B)'s underflow count what the plain expressions count
        w = montecarlo._window(theta(2.0) / P, sigma)[1]
        ks = [_batch_rng(93, j).binomial(m, w)
              for j, m in _batches(n_trials)]
        assert windows == ("empty" if max(ks) == 0 else
                           "mixed" if min(ks) == 0 else "full")
        rep = run_open_loop_conditional(P, 2.0, sigma, protocol,
                                        n_trials=n_trials, seed=93)
        n_cond, n_out = _plain_open_loop("conditional", P, 2.0, sigma,
                                         protocol, n_trials, 93)
        assert rep.n_round2 == n_cond == n_trials
        assert rep.n_outage == n_out
        if windows == "empty":
            assert (rep.outage_rate, rep.cond_round2_se) == (0.0, 0.0)


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
