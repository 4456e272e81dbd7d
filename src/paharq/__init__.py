"""Outage-constrained power allocation for HARQ-based predictor-antenna links."""

from .allocation import (
    BracketError,
    ClosedFormDomainError,
    PowerSolution,
    QuadratureError,
    avg_power_given_p1,
    closed_form_avg_power,
    optimal_p1_closed_form,
    optimal_p1_numeric,
)
from .benchmarks import (
    InfeasibleError,
    no_retx_outage,
    no_retx_required_power,
    open_loop_avg_power,
    open_loop_outage_exact,
    open_loop_required_power,
    open_loop_round_power,
    zeta_inr_closed,
    zeta_rtd_closed,
)
from .channel import (
    SIGMA_MIN,
    SPEED_OF_LIGHT,
    GainQuantile,
    QuantileMethod,
    cond_cdf_g2,
    inv_cond_cdf_g2,
    jakes_sigma,
    sample_g1,
    sample_g2_given_g1,
    sigma_from_geometry,
)
from .harq import (
    HarqConfig,
    P2Rule,
    PaharqError,
    Protocol,
    p2_inr,
    p2_rtd,
    theta,
    theta1,
)
from .montecarlo import (
    DegenerateConditioningError,
    MCReport,
    run_closed_loop,
    run_no_retx,
    run_open_loop,
    run_open_loop_conditional,
)
from .special import (
    inv_marcum_q1,
    inv_marcum_q1_asymptotic,
    lambert_w,
    marcum_q1,
    marcum_q1_weibull,
)

__version__ = "0.1.0"
