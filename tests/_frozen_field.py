"""The outage of a frozen field, for the tests: its exact law and its
fading-only Monte Carlo.

`conditional_outage_cdf` is the law given the field, whose average over a
Poisson field is the package's closed form `outage_cdf`; no command runs it,
so it lives here, on the package's Poisson core `_poisson_split`.  Unlike
`_oracles`, the estimator is built from the production engine's stages:
`_map_blocks` runs the batches of blocks on their substreams,
`_channel_block` draws the channels and `_oc_ratio` solves each trial.  Only
the field is held fixed, so the estimate targets exactly what
`conditional_outage_cdf` computes.

Both check sigma2 and L against the package's domain table, and `powers`
and `gamma` (which may be 0 here, unlike the package's) themselves, in the
table's wording.
"""

import math

import numpy as np

from ocfield import OutageEstimate
from ocfield.analytic import _poisson_split
from ocfield.domains import _check_domain
from ocfield.simulate import _batch_blocks, _channel_block, _map_blocks, _oc_ratio


def _check_frozen(powers, sigma2, L, gamma):
    if not all(0.0 < p < math.inf for p in powers):  # one received power per interferer
        raise ValueError(f"powers must be finite and > 0, got {powers!r}")
    _check_domain(sigma2=sigma2, L=L)
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")


def conditional_outage_cdf(powers, sigma2: float, L: int, gamma: float) -> float:
    """Fading-only outage of the optimum combiner given interferer powers P_j:
    P(sum_j Bernoulli(s_j / (1 + s_j)) + Poisson(sigma2 * gamma) >= L) with
    s_j = P_j * gamma (inf where the product overflows: a sure capture).

    Each interferer independently takes one of the L degrees of freedom with
    probability s_j / (1 + s_j), and the noise adds a Poisson count.
    Averaged over a Poisson field, this thinning leaves the interferer count
    Poisson with mean lam * Delta * gamma**(2/alpha): the closed form of
    `outage_cdf`.  The captures are counted by a dynamic program truncated
    at L (the top state collects every count >= L), which costs O(nL) and
    cannot overflow.
    """
    powers = [float(p) for p in powers]
    _check_frozen(powers, sigma2, L, gamma)
    mean = sigma2 * gamma
    if not powers:
        return _poisson_split(mean, L)[1]
    dist = [1.0] + [0.0] * L  # P(capture count = i) for i < L; dist[L] = P(count >= L)
    for p in powers:
        s = p * gamma
        # an odds of inf captures surely; 1/(1+s) keeps its miss exactly 0
        hit = s / (1.0 + s) if s < math.inf else 1.0
        stay = 1.0 / (1.0 + s)
        dist[L] += dist[L - 1] * hit
        for i in range(L - 1, 0, -1):
            dist[i] = dist[i] * stay + dist[i - 1] * hit
        dist[0] *= stay
    value = dist[L]
    for i in range(L):  # count i still needs L - i from the Poisson term
        value += dist[i] * _poisson_split(mean, L - i)[1]
    return min(1.0, value)


def estimate_outage_conditional(powers, sigma2, L, gamma, n_trials=10_000, master_seed=0):
    """Fraction of n_trials fading draws whose optimum-combiner SINR against
    the received `powers` (and noise sigma2) falls below `gamma`.  Arguments
    are checked as `conditional_outage_cdf` checks them, the run's as the
    engine checks its own."""
    _check_frozen(powers, sigma2, L, gamma)
    amplitudes = np.sqrt(np.asarray(powers, dtype=np.float64))

    def sinr_of_batch(blocks):
        size = sum(n for _, n in blocks)
        counts = np.full(size, amplitudes.shape[0])
        desired, a = _channel_block(counts, np.tile(amplitudes, size), L, blocks)
        return _oc_ratio(desired, a, counts, sigma2)

    group = _batch_blocks(L, max(1, amplitudes.shape[0]))  # the field's nodes, as expected_count
    failures = _map_blocks(
        sinr_of_batch, lambda s: int(np.count_nonzero(s < gamma)), n_trials, master_seed, group
    )
    p = sum(failures) / n_trials
    return OutageEstimate(p, math.sqrt(p * (1.0 - p) / n_trials), n_trials, master_seed)
