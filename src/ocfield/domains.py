"""The one table of parameter domains.  Every entry point checks its own
arguments against it, and the CLI checks each config field against it, the
PZF cancellation count and the worker count (OC_FIELD_THREADS), both
resolved here, without loading numpy.
"""

from __future__ import annotations

import math
import os
import sys

RECEIVERS = ("oc", "mrc", "zf", "pzf")
BLOCK = 64  # Monte Carlo trials per block, and per substream

_MASK64 = (1 << 64) - 1

# the integer domains test `type(v) is int`: a bool is an int to isinstance,
# but never a count, a seed or a cancellation count
_COUNT = (lambda v: type(v) is int and v >= 1, "an integer >= 1")

# key -> (test, domain); a key name__variant holds a stricter domain of
# `name`, and its errors name `name` alone
_DOMAINS = {
    "lam": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    # the simulator's disk divides by the density
    "lam__positive": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "alpha": (lambda v: 2.0 < v < math.inf, "finite and > 2"),
    "sigma2": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    "sigma2__scaled": (lambda v: v < math.inf, "finite once scaled by gamma"),
    "d_r": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "beta": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    # the derived threshold beta * d_r**alpha, which the contention optimum
    # and the default density grid divide by
    "gamma": (lambda v: sys.float_info.min <= v < math.inf, "finite, normal and > 0"),
    # a threshold or noise level given in dB, converted to linear
    "linear": (lambda v: sys.float_info.min <= v < math.inf, "finite, normal and > 0"),
    # the cap keeps one Poisson window walk under ~2e4 terms whatever the
    # mean: the walk costs O(sqrt(x)) steps, and steps past L are not taken
    "L": (lambda v: type(v) is int and 1 <= v <= 10**6, "an integer in [1, 1000000]"),
    # a simulated block of 64 trials holds its (2L, 2L) Grams, covariances
    # and factors, about 4 KiB * L**2: 268 MB per worker at the cap
    "L__simulated": (lambda v: type(v) is int and 1 <= v <= 256, "an integer in [1, 256]"),
    "n_trials": _COUNT,
    "expected_count": _COUNT,
    # each worker is an OS thread that a run starts at once; the count comes
    # from outside (OC_FIELD_THREADS), and a typo must not ask for thousands
    "workers": (lambda v: type(v) is int and 1 <= v <= 256, "an integer in [1, 256]"),
    # the trials of one block, whose memory the disk and antenna caps budget
    "size": (lambda v: type(v) is int and 1 <= v <= BLOCK, f"an integer in [1, {BLOCK}]"),
    "lambda_points": (lambda v: type(v) is int and v >= 2, "an integer >= 2"),
    "master_seed": (lambda v: type(v) is int and 0 <= v <= _MASK64, "a 64-bit unsigned integer"),
    "p_hat": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "pzf_k": (lambda v: v is None or (type(v) is int and v >= 0), "None or an integer >= 0"),
    "receiver": (RECEIVERS.__contains__, f"one of {RECEIVERS}, not an unknown receiver"),
}


def _check_domain(**values) -> None:
    """Raise ValueError naming the first of `values` (keyword = key in
    `_DOMAINS`) that lies outside its domain."""
    for key, value in values.items():
        inside, domain = _DOMAINS[key]
        if not inside(value):
            raise ValueError(f"{key.partition('__')[0]} must be {domain}, got {value!r}")


class _Record:
    """Base, before a namedtuple, of the package's immutable records.  Each
    record runs `_check` whenever it is built, by the constructor, `_make` or
    `_replace`; by default that checks every field named in `_DOMAINS`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    _make = classmethod(lambda cls, values: cls(*values))

    def _check(self) -> None:
        _check_domain(**{key: value for key, value in zip(self._fields, self) if key in _DOMAINS})


def _pzf_count(L: int, pzf_k: int | None) -> int:
    """The partial zero-forcing cancellation count at L antennas: `pzf_k`, or
    by default ceil(L/2) capped at L - 1 (0 at L = 1).  Cancelling k >= L
    interferers nulls the desired channel in every trial, so that is refused."""
    _check_domain(L=L, pzf_k=pzf_k)
    if pzf_k is None:
        return min((L + 1) // 2, L - 1)
    if pzf_k >= L:
        raise ValueError(f"pzf_k must be < L, got {pzf_k!r} with L = {L}")
    return pzf_k


def _check_disk(L: int, expected_count: int) -> None:
    """Refuse a simulated block too large for memory: its 64 trials' channel
    rows take about 1 KiB * expected_count * L, capped at 2**18 KiB (268 MB,
    the budget of the antenna cap).  The simulator batches blocks only while
    a batch's rows fit in 800 KiB (a block at L = 8 and expected_count 100),
    so a block near this cap always runs alone."""
    _check_domain(L__simulated=L, expected_count=expected_count)
    if expected_count * L > 2**18:
        raise ValueError(f"expected_count must be <= {2**18 // L} at L = {L}, got {expected_count}")


def _resolve_workers() -> int:
    """The worker count, from the OC_FIELD_THREADS environment variable (default 1)."""
    text = os.environ.get("OC_FIELD_THREADS", "1")
    workers = int(text) if text.isdecimal() else text
    _check_domain(workers=workers)
    return workers
