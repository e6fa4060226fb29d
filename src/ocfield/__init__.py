"""Optimum combining in a Poisson field of Rayleigh-faded interferers.

Exact closed forms for the post-combining SINR outage, ALOHA contention
optimization, and a from-scratch Monte Carlo simulator of the physical model
to validate them.  Each quantity has one entry point: `outage_cdf` (the
noise- and interference-limited laws are its lam = 0 and sigma2 = 0 cases),
`contention_optimum` and, for the Monte Carlo, `block_sinr` and its
estimator `estimate_outage`.  numpy is loaded only by the simulator, and
the contention solver only where it is used: the names taken from
`contention` and `simulate` are imported on first access (PEP 562).
"""

from . import analytic
from .analytic import *  # noqa: F403

_CONTENTION = ("BracketViolation", "ContentionOptimum", "contention_optimum")
_SIMULATE = ("BLOCK", "OutageEstimate", "TrialStream", "block_sinr", "estimate_outage")
__all__ = [*analytic.__all__, *_CONTENTION, *_SIMULATE]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _CONTENTION:
        from . import contention as module
    elif name in _SIMULATE:
        from . import simulate as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_CONTENTION, *_SIMULATE})
