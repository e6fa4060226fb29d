"""The fading-only Monte Carlo of a frozen field, for the tests.

Unlike `_oracles`, this is built from the production engine's stages:
`_map_blocks` runs the blocks on their substreams, `_channel_block` draws the
channels and `_oc_ratio` solves each trial.  Only the field is held fixed, so
the estimate targets exactly what `conditional_outage_cdf` computes.
"""

import math

import numpy as np

from ocfield import OutageEstimate
from ocfield.domains import _check_domain
from ocfield.simulate import _channel_block, _map_blocks, _oc_ratio


def estimate_outage_conditional(powers, sigma2, L, gamma, n_trials=10_000, master_seed=0):
    """Fraction of n_trials fading draws whose optimum-combiner SINR against
    the received `powers` (and noise sigma2) falls below `gamma`.  Arguments
    are checked against the package's domain table, as the engine checks its own."""
    _check_domain(powers=powers, sigma2=sigma2, L=L, gamma=gamma)
    amplitudes = np.sqrt(np.asarray(powers, dtype=np.float64))

    def sinr_of_block(rng, size):
        counts = np.full(size, amplitudes.shape[0])
        desired, a = _channel_block(counts, np.tile(amplitudes, size), L, rng)
        return _oc_ratio(desired, a, counts, sigma2)

    failures = _map_blocks(
        sinr_of_block, lambda s: int(np.count_nonzero(s < gamma)), n_trials, master_seed
    )
    p = sum(failures) / n_trials
    return OutageEstimate(p, math.sqrt(p * (1.0 - p) / n_trials), n_trials, master_seed)
