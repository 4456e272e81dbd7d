"""Work counts of one-point runs, pinned as upper bounds.

Wall time on a shared machine cannot resolve a change of a few percent,
but the work a run does is the same on every run: how many exact
quantile tables it builds, how many Brent inversions and Marcum Q calls
those take, how many objective integrals and Gauss-Kronrod panels it
evaluates, how many points it looks up in the tables and how many
random values its Monte Carlo samplers draw.  Each run below
goes through `cli.main` with the package's functions wrapped where their
callers look them up, and each count is held to at most what the code
did when the bound was set.  A change that does less work lowers its
bound in the same commit; one that does more must say why.
"""

import json

import numpy as np
import pytest

from paharq import allocation, channel, cli, montecarlo, special
from paharq.channel import GainQuantile, QuantileMethod

# one point of each subcommand that builds tables, integrates or simulates
_RUNS = {
    "fig3": ("fig3", {"eps": [1e-3], "rate": [2.0]}),
    "fig3-weibull": ("fig3", {"eps": [0.1], "rate": [0.5], "sigma": 0.0224,
                              "methods": ["numeric-weibull"]}),
    "fig4": ("fig4", {"eps": [1e-3], "rate": [2.0], "trials": 100_000}),
    "fig5": ("fig5", {"v_kmh": [60.0], "d_a_wavelengths": [1.5]}),
    "headline": ("headline", {}),
    "mc-verify": ("mc-verify", {"eps": [1e-3], "sigma": [0.8],
                                "open_loop_rate": [2.0],
                                "open_loop_power_db": [10.0]}),
}

# the counts of each run when its bounds were set
_BOUNDS = {
    "fig3": {"table_builds": 1, "brent_inversions": 514,
             "marcum_q1_calls": 7_462, "integrals": 30, "gk_panels": 11_282,
             "table_points": 169_230, "mc_draws": 0},
    # the Weibull quantile turns infinite inside a panel, which is split
    "fig3-weibull": {"table_builds": 0, "brent_inversions": 0,
                     "marcum_q1_calls": 0, "integrals": 21,
                     "gk_panels": 8_583, "table_points": 0, "mc_draws": 0},
    "fig4": {"table_builds": 0, "brent_inversions": 0, "marcum_q1_calls": 0,
             "integrals": 0, "gk_panels": 13, "table_points": 0,
             "mc_draws": 33_752},
    "fig5": {"table_builds": 1, "brent_inversions": 514,
             "marcum_q1_calls": 7_417, "integrals": 31, "gk_panels": 11_822,
             "table_points": 177_330, "mc_draws": 0},
    "headline": {"table_builds": 1, "brent_inversions": 514,
                 "marcum_q1_calls": 9_489, "integrals": 31,
                 "gk_panels": 10_117, "table_points": 151_755, "mc_draws": 0},
    "mc-verify": {"table_builds": 2, "brent_inversions": 1_028,
                  "marcum_q1_calls": 14_924, "integrals": 2,
                  "gk_panels": 920, "table_points": 177_880,
                  "mc_draws": 1_188_690},
}


class _DrawCounter:
    """A batch's generator that counts the values its exponential, normal
    and uniform samplers return; fig4's one binomial count per batch
    passes through uncounted."""

    def __init__(self, rng, counts):
        self._rng, self._counts = rng, counts

    def __getattr__(self, name):
        sampler = getattr(self._rng, name)
        if name not in ("exponential", "standard_normal", "random"):
            return sampler

        def counted(*args, **kwargs):
            values = sampler(*args, **kwargs)
            self._counts["mc_draws"] += np.size(values)
            return values
        return counted


def _counting(monkeypatch):
    """Wrap the work functions; returns the dict their calls count into."""
    counts = dict.fromkeys(_BOUNDS["fig3"], 0)

    def wrap(module, name, key, size=lambda *args: 1):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key] += size(*args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    build = GainQuantile.__init__

    def counted_build(self, eps, sigma, method=QuantileMethod.EXACT):
        counts["table_builds"] += method is QuantileMethod.EXACT
        build(self, eps, sigma, method)
    monkeypatch.setattr(GainQuantile, "__init__", counted_build)
    wrap(channel, "inv_marcum_q1", "brent_inversions")
    wrap(special, "marcum_q1", "marcum_q1_calls")
    wrap(allocation, "_integral", "integrals")
    wrap(allocation, "_gauss_kronrod", "gk_panels", lambda lo, *_: lo.size)
    wrap(channel, "_hermite_eval", "table_points", lambda x, c, t: t.size)
    # `_streams` looks the generator up at each call
    batch_rng = montecarlo._batch_rng
    monkeypatch.setattr(montecarlo, "_batch_rng",
                        lambda *args: _DrawCounter(batch_rng(*args), counts))
    return counts


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_one_point_work_within_bounds(run, monkeypatch, tmp_path):
    command, config = _RUNS[run]
    counts = _counting(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o.csv")]
    if command in cli.MC_COMMANDS:
        argv += ["--seed", "1"]
    assert cli.main(argv) == 0
    over = {key: (counts[key], bound) for key, bound in _BOUNDS[run].items()
            if counts[key] > bound}
    assert not over, f"{run}: (count, bound) past the bound: {over}"
    # a count that reads zero where the run does the work means a wrapper
    # missed its callers
    assert all(counts[key] > 0 for key, bound in _BOUNDS[run].items()
               if bound > 0), counts
