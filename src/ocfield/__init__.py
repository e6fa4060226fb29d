"""Optimum combining in a Poisson field of Rayleigh-faded interferers.

Exact closed forms for the post-combining SINR outage, ALOHA contention
optimization, and a from-scratch Monte Carlo simulator of the physical model
to validate them.  Each quantity has one entry point: `outage_cdf` (the
noise- and interference-limited laws are its lam = 0 and sigma2 = 0 cases),
`contention_optimum` and, for the Monte Carlo, `block_sinr` and its
estimator `estimate_outage`.  numpy is loaded only by the simulator: the
names taken from `simulate` are imported on first access (PEP 562).
"""

from . import analytic, contention
from .analytic import *  # noqa: F403
from .contention import *  # noqa: F403

_SIMULATE = ("BLOCK", "OutageEstimate", "TrialStream", "block_sinr", "estimate_outage",
             "receiver_label")
__all__ = [*analytic.__all__, *contention.__all__, *_SIMULATE]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SIMULATE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulate

    return getattr(simulate, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SIMULATE})
