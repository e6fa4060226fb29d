"""Slotted-ALOHA contention density optimization for the optimum combiner.

The spatial throughput lam * P(Poisson(x) < L), with x = u + sigma2 * gamma
and the normalized load u = lam * Delta * gamma**(2/alpha), peaks where its
derivative in u vanishes:

    P(Poisson(x) < L) = u * pmf(L-1; x).

Dividing by the pmf leaves r(x) = u with

    r(x) = P(Poisson(x) < L) / pmf(L-1; x) = sum_{j<L} (L-1)!/(L-1-j)! * x**-j,

a polynomial in 1/x with positive coefficients: no exponential, so nothing
to underflow, and strictly decreasing in x.  Hence log r(sigma2*gamma + u)
- log u has exactly one root u* in [1, L], which one safeguarded Halley
solver finds with or without noise.  In the interference-limited regime
(sigma2 = 0) u* is g(L), the unique positive root of

    Q(t) = sum_{i<L} t**i / i!  -  t**L / (L-1)!  =  exp(t) * pmf(L-1; t) * (r(t) - t),

which always lies in [L/2, L]; the optimum density is u* / (Delta *
gamma**(2/alpha)).  `contention_optimum` is the one entry point: g(L), the
optimum density and the peak throughput are fields of its result.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .analytic import (
    _MAX_STEPS, _STEP_TOLERANCE, BracketViolation, _count_law_terms, _log_pmf, _poisson_window,
)
from .domains import _check_domain, _Record

__all__ = [
    "BracketViolation",
    "ContentionOptimum",
    "contention_optimum",
]


class ContentionOptimum(_Record, namedtuple("ContentionOptimum", "L g lambda_max t_max")):
    """Throughput optimum for one antenna count.

    g is the optimum normalized load lambda_max * Delta * gamma**(2/alpha):
    the root g(L) in [L/2, L] when sigma2 = 0 (whatever alpha and gamma;
    exactly 1.0 at L = 1), smaller with noise.  lambda_max and t_max are per
    unit area.
    """

    __slots__ = ()


def _log_ratio(L: int, x: float) -> float:
    # log r(x), from the Poisson sum anchored at its largest term m:
    # r = s * pmf(m; x) / pmf(L-1; x), the log pmfs (near -x when x >> L)
    # differenced first; at m = L-1 (x >= L-1) the ratio is 1 and r = s
    m, s = _poisson_window(x, L)
    if m == L - 1:
        return math.log(s)
    return math.log(s) + (_log_pmf(m, x) - _log_pmf(L - 1, x))


def _solve(L: int, noise: float) -> tuple[float, float]:
    """(u*, x*): the root of log r(noise + u) - log u, and x* = noise + u*.

    The condition decreases strictly in u, is >= 0 at u = 1 (r >= 1) and
    <= 0 at u = L (r(L) <= L), and at noise = 0 is >= 0 at u = L/2.  Both
    ends are checked; Halley steps from u = L keep to the bracket the signs
    maintain and fall back to bisection when they would leave it.  At
    noise <= 1 that takes at most 4 evaluations of the condition, both ends
    included, for L up to 1000 and 5 up to L = 10**6.  When noise >= L the
    condition is nearly flat and r nearly constant, so Halley starts instead
    from one fixed-point step u = r(noise + 1), taken from the value at the
    low end, when that lies inside the bracket: 2 or 3 evaluations where
    bisection from u = L took up to 72.
    """

    def condition(u: float) -> tuple[float, float, float]:
        # the condition and its first two u-derivatives, using
        # d log r / dx = 1 - (L-1)/x - 1/r since d/dx P(Poisson(x) < L) = -pmf(L-1; x)
        x = noise + u
        log_r = _log_ratio(L, x)
        r_inv = math.exp(-log_r)
        d = 1.0 - (L - 1) / x - r_inv
        return log_r - math.log(u), d - 1.0 / u, (L - 1) / x / x + d * r_inv + 1.0 / u**2

    lo, hi = (0.5 * L if noise == 0.0 else 1.0), float(L)
    f_lo = condition(lo)[0]
    f, slope, curvature = condition(hi)
    if not f_lo >= 0.0 >= f:
        raise BracketViolation(
            f"expected the optimality condition >= 0 at u = {lo} and <= 0 at u = {hi}, "
            f"got {f_lo} and {f} (L = {L}, noise = {noise})"
        )
    u = hi
    if noise >= L:
        if f_lo == 0.0:
            return lo, noise + lo
        start = lo * math.exp(f_lo)  # r(noise + lo), as f_lo = log r(noise + lo) - log lo
        if lo < start < hi:
            u = start
            f, slope, curvature = condition(u)
    for _ in range(_MAX_STEPS):
        if f > 0.0:
            lo = u
        elif f < 0.0:
            hi = u
        elif f == 0.0:
            return u, noise + u
        else:
            raise BracketViolation(
                f"optimality condition is {f} at u = {u} (L = {L}, noise = {noise})"
            )
        step = u - 2.0 * f * slope / (2.0 * slope * slope - f * curvature)
        inside = lo < step < hi
        if inside and abs(step - u) <= _STEP_TOLERANCE * u:
            return step, noise + step
        u = step if inside else 0.5 * (lo + hi)
        if hi - lo <= 4.0 * math.ulp(hi):
            return u, noise + u
        f, slope, curvature = condition(u)
    raise BracketViolation(f"no convergence in {_MAX_STEPS} steps (L = {L}, noise = {noise})")


def contention_optimum(
    L: int, alpha: float, gamma: float, sigma2: float = 0.0
) -> ContentionOptimum:
    """Optimum load g, density lambda_max and throughput t_max for one antenna count.

    At the optimum P(Poisson(x*) < L) = u* * pmf(L-1; x*), so the peak
    throughput is (u*)**2 * pmf(L-1; x*) / (Delta * gamma**(2/alpha)); with
    sigma2 = 0 that is g**(L+1) * exp(-g) / ((L-1)! * Delta * gamma**(2/alpha)).
    """
    _check_domain(L=L, sigma2=sigma2, gamma=gamma, sigma2__scaled=sigma2 * gamma)
    delta, spread, noise = _count_law_terms(alpha, gamma, sigma2)
    return _optimum(L, delta * spread, noise)


def _optimum(L: int, area: float, noise: float) -> ContentionOptimum:
    # the optimum from area = Delta * gamma**(2/alpha) and noise = sigma2 * gamma,
    # which a caller checks and derives once for all its antenna counts
    u, x = _solve(L, noise)
    peak = math.exp(2.0 * math.log(u) + _log_pmf(L - 1, x))
    return ContentionOptimum(L=L, g=u, lambda_max=u / area, t_max=peak / area)
