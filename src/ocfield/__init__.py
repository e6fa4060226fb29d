"""Optimum combining in a Poisson field of Rayleigh-faded interferers.

Exact closed forms for the post-combining SINR outage, ALOHA contention
optimization, and a from-scratch Monte Carlo simulator of the physical model
to validate them.
"""

from .analytic import (
    SystemParams,
    array_gain,
    conditional_outage_cdf,
    delta_const,
    gamma_from_beta,
    outage_cdf,
    outage_interference_limited,
    outage_noise_limited,
    sir_mean,
    sir_variance,
    throughput_density,
)
from .contention import (
    BracketViolation,
    ContentionOptimum,
    contention_optimum,
    g_of_l,
    lambda_max,
    throughput_max,
)
from .simulate import (
    BLOCK,
    OutageEstimate,
    SirMomentsEstimate,
    TrialStream,
    block_sinr,
    default_pzf_k,
    estimate_outage,
    estimate_outage_conditional,
    estimate_sir_moments,
    receiver_label,
)

__version__ = "0.1.0"
