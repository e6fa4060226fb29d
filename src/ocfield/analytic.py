"""Closed-form link statistics for optimum (MMSE) combining in a Poisson
field of Rayleigh-faded interferers.

Everything here is a pure function of its arguments.  Thresholds are linear;
converting from dB is the CLI's job.  The normalized threshold used
throughout is gamma = beta * d_r**alpha.  Every entry point checks its
arguments against the one table of parameter domains, `domains._DOMAINS`.
Every outage and throughput rests on a two-piece count-law core.
`_count_law_terms` forms Delta, gamma**(2/alpha) and sigma2 * gamma once per
call of `outage_cdf`, `contention_optimum` and the CLI's row functions, grid
and presets; `_poisson_split` gives P(N < L) and P(N >= L) in one
walk, and `_count_law_root` inverts it for the default grid's ends.  The law
of one frozen field is a test reference in `tests/_frozen_field.py`.  Pure
Python: nothing here imports numpy, so closed-form commands start without it.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .domains import _check_domain, _Record

__all__ = [
    "SystemParams",
    "delta_const",
    "gamma_from_beta",
    "outage_cdf",
]


class SystemParams(_Record, namedtuple("SystemParams", "lam alpha sigma2 d_r L beta")):
    """One scenario of the interference field and the desired link.

    lam     spatial density of interferers (nodes per m^2)
    alpha   path-loss exponent, must exceed 2
    sigma2  noise level: the scalar on the identity in the interference-plus-
            noise covariance (total complex noise variance; unit tx power)
    d_r     desired-link distance (m)
    L       number of receive antennas
    beta    linear SINR threshold
    """

    __slots__ = ()

    @property
    def gamma(self) -> float:
        """Normalized threshold beta * d_r**alpha."""
        return gamma_from_beta(self.beta, self.d_r, self.alpha)


def gamma_from_beta(beta: float, d_r: float, alpha: float) -> float:
    """Threshold rescaled by the desired-link path loss: beta * d_r**alpha,
    a ValueError unless that is a finite, normal, positive double."""
    _check_domain(beta=beta, d_r=d_r, alpha=alpha)
    try:
        gamma = beta * d_r**alpha
    except OverflowError:
        gamma = math.inf
    _check_domain(gamma=gamma)
    return gamma


def delta_const(alpha: float) -> float:
    """Geometry constant of the plane interference integral.

    Evaluated as 2*pi**2 / (alpha * sin(2*pi/alpha)), the reflection-formula
    form of pi * (2/alpha) * Gamma(2/alpha) * Gamma(1 - 2/alpha).  The
    underlying integral diverges for alpha <= 2, hence the domain check.
    """
    _check_domain(alpha=alpha)
    return 2.0 * math.pi**2 / (alpha * math.sin(2.0 * math.pi / alpha))


# Halley evaluates 4-5 times per root at realistic noise, and bisection under 75
# times at any noise; the bound only turns a runaway into a loud failure.
_MAX_STEPS = 100


class BracketViolation(RuntimeError):
    """A root solver's guaranteed sign pattern failed, or it did not converge: a bug."""


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# A walk ends at a term below this fraction of its running sum: under half an
# ulp of the sum, that term rounds away, and so does every later one, as each
# walk's terms fall from its start, so the sum is the double the full walk gives.
_NEGLIGIBLE = 2.0**-54
# _stirling_error(n) for n = 1..15, each the double nearest the exact value
# (Loader's table): formed from lgamma, a difference of terms near 40 that
# leaves ~0.005, it was off by up to 7.4e-15
_STIRLING_ERRORS = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirling_error(n: int) -> float:
    # log(n!) - (n + 1/2) log(n) + n - log(sqrt(2 pi)) for n >= 1: tabulated
    # for small n, else the asymptotic series, within 1.2e-16 past 15
    if n <= 15:
        return _STIRLING_ERRORS[n - 1]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n


def _deviance(k: int, x: float) -> float:
    # k log(k/x) + x - k >= 0, by its series in v = (k-x)/(k+x) near k = x,
    # where the direct form cancels
    if abs(k - x) >= 0.1 * (k + x):
        ratio = k / x  # overflows only at a subnormal x, where log(k) - log(x) does not
        return k * (math.log(ratio) if ratio < math.inf else math.log(k) - math.log(x)) + x - k
    v = (k - x) / (k + x)
    total = (k - x) * v
    term = 2.0 * k * v
    j = 1
    while True:
        term *= v * v
        j += 2
        grown = total + term / j
        if grown == total:
            return total
        total = grown


def _log_pmf(k: int, x: float) -> float:
    """log P(Poisson(x) = k) for x > 0, in the saddle-point form of C. Loader,
    "Fast and accurate computation of binomial probabilities" (2000).

    Accurate to a few ulps for every k and x, where the naive
    k log(x) - x - log(k!) loses the digits its large terms cancel.
    """
    if k == 0:
        return -x
    return -_stirling_error(k) - _deviance(k, x) - _LOG_SQRT_2PI - 0.5 * math.log(k)


def _poisson_window(x: float, count: int) -> tuple[int, float]:
    """(m, s) with m = min(floor(x), count - 1), the largest term's index in
    range, and s = sum_{i<count} pmf(i; x) / pmf(m; x) >= 1, for x > 0.

    Summed outward from m, so every ratio lies in (0, 1] and nothing
    overflows; the terms negligible beside s are skipped, which makes the
    cost O(sqrt(x)) rather than O(count).
    """
    m = min(int(x), count - 1)
    total = term = 1.0
    for i in range(m, 0, -1):  # pmf(i-1)/pmf(i) = i/x
        term *= i / x
        total += term
        if term < _NEGLIGIBLE * total:
            break
    term = 1.0
    for i in range(m + 1, count):  # pmf(i)/pmf(i-1) = x/i
        term *= x / i
        total += term
        if term < _NEGLIGIBLE * total:
            break
    return m, total


def _poisson_split(x: float, count: int) -> tuple[float, float]:
    """(P(N < count), P(N >= count)) for N ~ Poisson(x) and count >= 1, in
    one walk of the terms.  For 0 < x < count the tail is summed upward from
    count, so that a small tail keeps its relative precision; for x >= count
    the cdf is, anchored at its largest term so that a small cdf neither
    underflows nor cancels against 1.  The other value, 1 minus the summed
    one, is at least 1/e."""
    if x == 0.0:
        return 1.0, 0.0
    if x < count:
        total = term = 1.0  # sum_{i>=count} pmf(i)/pmf(count): each ratio x/i is below 1
        for i in itertools.count(count + 1):
            term *= x / i
            total += term
            if term < _NEGLIGIBLE * total:
                tail = total * math.exp(_log_pmf(count, x))
                return 1.0 - tail, tail
    if x == math.inf:
        return 0.0, 1.0
    m, s = _poisson_window(x, count)
    below = s * math.exp(_log_pmf(m, x))
    return below, max(0.0, 1.0 - below)


# A Halley step below this relative size ends a root search: the error it
# leaves is of the order of its cube, under the count law's own rounding.
_STEP_TOLERANCE = 2.0**-18


def _count_law_root(L: int, target: float) -> float:
    """x with P(Poisson(x) >= L) = target, by Halley's iteration on the log of
    the half of the count law that is small there (the tail for target < 0.5,
    else P(N < L)), whose derivative is +-pmf(L-1; x): at most 4 evaluations
    per root for L up to 10**6.  The tail, near x**L at small x, runs in log x;
    P(N < L), near exp(-x) at large x, runs in x (both steps relative to x)."""
    tail_half = target < 0.5
    goal = math.log(target if tail_half else 1.0 - target)
    x = float(L)
    for _ in range(_MAX_STEPS):
        below, tail = _poisson_split(x, L)
        log_half = math.log(tail if tail_half else below)
        error = log_half - goal
        # the first two derivatives of log(half) in log x, or in x over its current value
        d1 = (x if tail_half else -x) * math.exp(_log_pmf(L - 1, x) - log_half)
        d2 = d1 * (L - x if tail_half else L - 1 - x) - d1 * d1
        step = 2.0 * error * d1 / (2.0 * d1 * d1 - error * d2)
        x = x * math.exp(-step) if tail_half else x * (1.0 - step)
        if abs(step) <= _STEP_TOLERANCE:
            return x
    raise BracketViolation(f"no count-law root in {_MAX_STEPS} steps (L = {L}, target = {target})")


def outage_cdf(params: SystemParams) -> float:
    """Outage probability of the optimum combiner.

    F = 1 - sum_{i<L} x**i / i! * exp(-x)  with
    x = lam * Delta * gamma**(2/alpha) + sigma2 * gamma.

    With lam = 0 this is the noise-limited outage, the chi-square CDF
    P(chi2_{2L} <= 2 sigma2 gamma) of the combined SNR.  With sigma2 = 0 it
    is the interference-limited outage: the probability that a Poisson count
    of mean lam * pi * r**2, r = sqrt(Delta/pi) * gamma**(1/alpha), reaches
    L, i.e. that the L-th strongest interferer sits inside the rescaled
    threshold radius.
    """
    delta, spread, noise = _count_law_terms(params.alpha, params.gamma, params.sigma2)
    return _poisson_split(params.lam * delta * spread + noise, params.L)[1]


def _count_law_terms(alpha: float, gamma: float, sigma2: float) -> tuple[float, float, float]:
    # every reader forms the count law's mean as lam * delta * spread + noise, in that order
    return delta_const(alpha), gamma ** (2.0 / alpha), sigma2 * gamma
