"""Two-round HARQ power rules with channel-predictive retransmission.

Round one is sent blind with power p1 at rate `rate` (nats per channel
use).  If decoding fails, the transmitter learns g1 and spends just enough
round-two power for the conditional outage of the retransmission to equal
the target eps: P2 = numerator / quantile, where the numerator is the
residual decoding gap and the quantile is the eps-quantile of g2 given g1.

RTD retransmits the same signal (receiver adds SNRs); INR sends new parity
(receiver adds mutual information).  The INR rule also has a simplified
variant whose numerator comes from Jensen's inequality.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import GainQuantile, QuantileMethod, inv_cond_cdf_g2


class Protocol(enum.Enum):
    RTD = "rtd"
    INR = "inr"


def theta(rate: float) -> float:
    """SNR decoding threshold e^rate - 1 for a single round."""
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    return math.expm1(rate)


def theta1(rate: float) -> float:
    """Jensen-averaged two-round threshold 2 (e^{rate/2} - 1); <= theta."""
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    return 2.0 * math.expm1(0.5 * rate)


@dataclass(frozen=True)
class HarqConfig:
    """Protocol selector, initial rate [npcu], outage target, round-1 power.

    Powers are linear SNR (noise normalized to one).  p1 may stay None while
    it is the quantity being optimized.
    """

    protocol: Protocol
    rate: float
    eps: float
    p1: float | None = None

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")
        if self.p1 is not None and self.p1 <= 0:
            raise ValueError(f"p1 must be > 0, got {self.p1}")

    @property
    def theta(self) -> float:
        return theta(self.rate)

    @property
    def theta1(self) -> float:
        return theta1(self.rate)


def p2_rtd(g1: float, cfg: HarqConfig, sigma: float,
           method: QuantileMethod = QuantileMethod.EXACT) -> float:
    """Round-two power for RTD: (theta - g1 p1) / quantile, 0 once decoded.

    With the ASYMPTOTIC quantile this is the closed-form rule
    (theta - g1 p1) exp(-g1 (1-sigma^2)/sigma^2) / (-sigma^2 log(1-eps)).
    """
    p1 = _require_p1(cfg)
    gap = cfg.theta - g1 * p1
    if gap <= 0.0:
        return 0.0
    return gap / inv_cond_cdf_g2(cfg.eps, g1, sigma, method)


def p2_inr(g1: float, cfg: HarqConfig, sigma: float,
           method: QuantileMethod = QuantileMethod.EXACT,
           jensen_fallback: bool = True) -> float:
    """Round-two power for INR; 0 once round one decodes.

    The exact numerator is e^{rate - log(1+g1 p1)} - 1, equivalently
    (theta - g1 p1)/(1 + g1 p1).  The ASYMPTOTIC method uses the Jensen
    numerator (theta1 - g1 p1)+ instead; where that is nonpositive while
    decoding genuinely failed, the exact numerator is substituted when
    `jensen_fallback` is set (the transmitter must still spend power), and
    zero is kept otherwise (the analysis-side convention integrated by the
    closed forms).
    """
    p1 = _require_p1(cfg)
    gap = cfg.theta - g1 * p1
    if gap <= 0.0:
        return 0.0
    if method is QuantileMethod.ASYMPTOTIC:
        num = cfg.theta1 - g1 * p1
        if num <= 0.0:
            if not jensen_fallback:
                return 0.0
            num = gap / (1.0 + g1 * p1)
    else:
        num = gap / (1.0 + g1 * p1)
    return num / inv_cond_cdf_g2(cfg.eps, g1, sigma, method)


class P2Rule:
    """Vectorized round-two power rule for a fixed (config, sigma, method).

    Wraps a shared GainQuantile so Monte Carlo batches and quadrature reuse
    one table.  `jensen_fallback` mirrors p2_inr.  The round-one power is
    cfg.p1 unless a call passes its own (possibly an array broadcasting
    against g1), so one rule serves every power of an optimization.
    """

    def __init__(self, cfg: HarqConfig, sigma: float,
                 method: QuantileMethod = QuantileMethod.EXACT,
                 jensen_fallback: bool = True,
                 quantile: GainQuantile | None = None):
        if quantile is None:
            quantile = GainQuantile(cfg.eps, sigma, method)
        elif (quantile.eps != cfg.eps or quantile.sigma != sigma
              or quantile.method is not method):
            raise ValueError("quantile table does not match rule parameters")
        self.cfg = cfg
        self.sigma = sigma
        self.method = method
        self.jensen_fallback = jensen_fallback
        self.quantile = quantile

    def jensen_fallback_mask(self, g1) -> np.ndarray:
        """Failed-round-one points where the Jensen numerator is nonpositive."""
        g1 = np.asarray(g1, dtype=float)
        p1 = _require_p1(self.cfg)
        mask = (g1 * p1 < self.cfg.theta) & (self.cfg.theta1 - g1 * p1 <= 0.0)
        if not (self.cfg.protocol is Protocol.INR
                and self.method is QuantileMethod.ASYMPTOTIC):
            return np.zeros_like(mask)
        return mask

    def __call__(self, g1, p1=None) -> np.ndarray:
        g1 = np.asarray(g1, dtype=float)
        p1 = _require_p1(self.cfg) if p1 is None else np.asarray(p1, float)
        gap = self.cfg.theta - g1 * p1
        failed = gap > 0.0
        if self.cfg.protocol is Protocol.RTD:
            num = np.where(failed, gap, 0.0)
        else:
            exact_num = np.where(failed, gap / (1.0 + g1 * p1), 0.0)
            if self.method is QuantileMethod.ASYMPTOTIC:
                num = np.maximum(self.cfg.theta1 - g1 * p1, 0.0)
                num = np.where(failed, num, 0.0)
                if self.jensen_fallback:
                    num = np.where(failed & (num <= 0.0), exact_num, num)
            else:
                num = exact_num
        with np.errstate(invalid="ignore"):
            p2 = np.where(num > 0.0, num / self.quantile(g1), 0.0)
        return p2


def _require_p1(cfg: HarqConfig) -> float:
    if cfg.p1 is None:
        raise ValueError("HarqConfig.p1 must be set for power-rule evaluation")
    return cfg.p1
