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


class PaharqError(Exception):
    """Base of the package's own errors: a computation that has no value
    at these inputs, which a sweep records in its row."""


class Protocol(enum.Enum):
    RTD = "rtd"
    INR = "inr"


def theta(rate: float) -> float:
    """SNR decoding threshold e^rate - 1 for a single round."""
    return _threshold(rate, 1.0)


def theta1(rate: float) -> float:
    """Jensen-averaged two-round threshold 2 (e^{rate/2} - 1); <= theta."""
    return _threshold(rate, 2.0)


def _threshold(rate: float, rounds: float) -> float:
    """rounds (e^{rate/rounds} - 1); ValueError for a negative or NaN rate
    or one whose threshold overflows a float (rate ~709.8 for theta)."""
    if not rate >= 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    try:
        th = rounds * math.expm1(rate / rounds)
    except OverflowError:
        th = math.inf
    if th == math.inf:
        raise ValueError(
            f"rate {rate} is too large: its SNR threshold overflows")
    return th


@dataclass(frozen=True)
class HarqConfig:
    """Protocol selector, initial rate [npcu] and outage target of a link.

    Powers are linear SNR (noise normalized to one).  The round-one power
    p1 is what gets optimized, so each function that needs it takes it as
    an argument.
    """

    protocol: Protocol
    rate: float
    eps: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        theta(self.rate)    # ValueError where e^rate - 1 overflows
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")

    @property
    def theta(self) -> float:
        return theta(self.rate)

    @property
    def theta1(self) -> float:
        return theta1(self.rate)


def _round_two_numerator(cfg: HarqConfig, jensen: bool, g1, p1,
                         jensen_fallback: bool):
    """Numerator of P2 = numerator / quantile (p2_rtd and p2_inr give the
    formulas), and, when `jensen`, the mask of failed round-one points
    where INR's Jensen numerator is nonpositive (None otherwise).  There
    the exact numerator stands in if `jensen_fallback` (the transmitter
    must still spend power); zero is the convention the closed forms
    integrate.  Where round one decoded every numerator is <= 0 or NaN,
    and every caller takes those as zero power.  g1 is a float or an
    array; p1 is one power.
    """
    snr = g1 * p1
    gap = cfg.theta - snr
    if cfg.protocol is Protocol.RTD:
        return gap, None
    num = gap / (1.0 + snr)
    if not jensen:
        return num, None
    jensen = cfg.theta1 - snr
    fallback = (gap > 0.0) & (jensen <= 0.0)
    return (np.where(fallback, num, jensen) if jensen_fallback
            else jensen), fallback


def _p2(protocol, jensen, g1, p1, rate, eps, sigma, method,
        jensen_fallback=True):
    # pointwise: EXACT divides by the Brent inverse, not a table
    cfg = HarqConfig(protocol, rate, eps)
    if not g1 >= 0:
        raise ValueError(f"g1 must be >= 0, got {g1}")
    if not p1 > 0:
        raise ValueError(f"p1 must be > 0, got {p1}")
    num, _ = _round_two_numerator(cfg, jensen, g1, p1, jensen_fallback)
    if not num > 0.0:
        return 0.0
    return float(num / inv_cond_cdf_g2(cfg.eps, g1, sigma, method))


def p2_rtd(g1: float, p1: float, rate: float, eps: float, sigma: float,
           method: QuantileMethod = QuantileMethod.EXACT) -> float:
    """Round-two power for RTD: (theta - g1 p1) / quantile, 0 once decoded.

    With the ASYMPTOTIC quantile this is the closed-form rule
    (theta - g1 p1) exp(-g1 (1-sigma^2)/sigma^2) / (-sigma^2 log(1-eps)).
    """
    return _p2(Protocol.RTD, False, g1, p1, rate, eps, sigma, method)


def p2_inr(g1: float, p1: float, rate: float, eps: float, sigma: float,
           method: QuantileMethod = QuantileMethod.EXACT,
           jensen_fallback: bool = True) -> float:
    """Round-two power for INR: (theta - g1 p1)/(1 + g1 p1) / quantile, 0
    once decoded.

    The ASYMPTOTIC method uses the Jensen numerator (theta1 - g1 p1)+
    instead; where that is nonpositive while round one failed, the exact
    numerator is substituted if `jensen_fallback` is set, and zero is kept
    otherwise.
    """
    return _p2(Protocol.INR, method is QuantileMethod.ASYMPTOTIC, g1, p1,
               rate, eps, sigma, method, jensen_fallback)


class P2Rule:
    """Vectorized round-two power rule for a fixed (config, sigma, method).

    Wraps a shared GainQuantile so Monte Carlo batches and quadrature reuse
    one table.  `jensen_fallback` mirrors p2_inr.  Each call passes the
    round-one power p1, so one rule serves every power of an optimization.
    `jensen` is True exactly when the numerator is INR's Jensen numerator,
    that is for INR with the ASYMPTOTIC quantile; the slope, the
    quadrature's kink edge and the simulator's fallback count read it.
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
        self.jensen = (cfg.protocol is Protocol.INR
                       and method is QuantileMethod.ASYMPTOTIC)
        self.jensen_fallback = jensen_fallback
        self.quantile = quantile

    def _numerator(self, g1, p1):
        return _round_two_numerator(self.cfg, self.jensen, g1, p1,
                                    self.jensen_fallback)

    def jensen_fallback_mask(self, g1, p1) -> np.ndarray:
        """Failed-round-one points where the Jensen numerator is nonpositive."""
        g1 = np.asarray(g1, dtype=float)
        if not self.jensen:
            return np.zeros(g1.shape, dtype=bool)
        return self._numerator(g1, p1)[1]

    def __call__(self, g1, p1) -> np.ndarray:
        g1, p1 = np.asarray(g1, dtype=float), np.asarray(p1, dtype=float)
        num, _ = self._numerator(g1, p1)
        with np.errstate(invalid="ignore"):
            p2 = np.where(num > 0.0, num / self.quantile(g1), 0.0)
        return p2

    def slope(self, g1, p1) -> np.ndarray:
        """dP2/dp1: the numerator's derivative (-g1, or -g1 (1+theta)/
        (1+g1 p1)^2 for INR's exact numerator) over the quantile.  Where
        (1+g1 p1)^2 overflows (p1 ~ 1e154 at rate 700) the quotient is
        already its limit 0."""
        g1, p1 = np.asarray(g1, dtype=float), np.asarray(p1, dtype=float)
        cfg = self.cfg
        num, fallback = self._numerator(g1, p1)
        d = -g1
        if cfg.protocol is Protocol.INR:
            exact = fallback if self.jensen else True
            with np.errstate(over="ignore"):
                d = np.where(exact,
                             d * (1.0 + cfg.theta) / (1.0 + g1 * p1)**2, d)
        with np.errstate(invalid="ignore"):
            return np.where(num > 0.0, d / self.quantile(g1), 0.0)
