import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from paharq import GainQuantile, QuantileMethod, allocation

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


class QuantileCache:
    """Session-wide cache of exact-quantile tables (they cost ~1 s each)."""

    def __init__(self):
        self._tables = {}

    def get(self, eps: float, sigma: float,
            method: QuantileMethod = QuantileMethod.EXACT) -> GainQuantile:
        key = (eps, sigma, method)
        if key not in self._tables:
            self._tables[key] = GainQuantile(eps, sigma, method)
        return self._tables[key]


@pytest.fixture(scope="session")
def qcache() -> QuantileCache:
    return QuantileCache()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def panel_cap(monkeypatch):
    """Fail the test at once if a round of the adaptive Gauss-Kronrod rule
    holds more than 2^17 open panels: an integral that splits every panel
    every round would go on until memory runs out."""
    rule = allocation._gauss_kronrod

    def capped(lo, hi, integrand):
        assert lo.size <= 2**17, f"a round of {lo.size} open panels"
        return rule(lo, hi, integrand)
    monkeypatch.setattr(allocation, "_gauss_kronrod", capped)
