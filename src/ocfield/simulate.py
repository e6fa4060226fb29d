"""Monte Carlo simulator of the physical link model: one batch engine and the
outage estimator built on it.

Each trial draws a fresh Poisson field and fresh Rayleigh channels, builds the
interference-plus-noise covariance, and evaluates the normalized SINR
Z = SINR * d_r**alpha of the chosen receiver; the trial is in outage when
Z < gamma = beta * d_r**alpha, the threshold of every closed form.

The block of BLOCK = 64 trials is the unit of the random stream: block b
draws exclusively from its own SFC64 substream, child b of
SeedSequence(master_seed) (spawn_key (b,)), in this order: the node counts of
its trials, then their radial uniforms, then their channel normals (desired
vectors first).  No azimuths are drawn: received powers depend on |X_k|
alone and fading is i.i.d. per node, so no receiver reads them.

The batch of G consecutive blocks is the unit of computation: each block
draws into its own slice of the batch's arrays, and every later step runs
once per batch, vectorized over its trials (`_block_sinrs`).  G comes from a
fixed memory budget, not a knob: G = max(1, 51,200 // (BLOCK * L *
max(expected_count, 4L))), so no batch holds more channel rows than one
block at L = 8 and expected_count 100 (at expected_count 100, G = 8, 4, 2, 2
and 1 at L = 1, 2, 3, 4 and 8; `_batch_blocks`).  One draw of a
batch serves every receiver asked of it, so receivers compared in one call
(as `run_simulation` compares them) pay once for the fields and channels
they share.  Batch k is blocks [kG, (k+1)G) by index, and the workers
(OC_FIELD_THREADS) take whole batches in index order and return them in that
order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .analytic import SystemParams
from .domains import BLOCK, _check_disk, _check_domain, _pzf_count, _Record, _resolve_workers
from .linalg import batch_project_out, batch_quadratic_form_inverse

__all__ = [
    "BLOCK",
    "OutageEstimate",
    "TrialStream",
    "block_sinr",
    "estimate_outage",
]

# the channel rows one batch may hold: those of a block at L = 8 and
# expected_count 100 (800 KiB)
_BATCH_ROWS = 51_200
# a batch: the (generator, trial count) pair of each of its blocks, in order
_Batch = list[tuple[np.random.Generator, int]]


class TrialStream:
    """The substreams of one master seed.

    Substream `index` (a block of trials in the estimator) is SFC64 seeded by
    child `index` of numpy's SeedSequence(master_seed).spawn, so substreams
    are statistically independent and any one is built without the others.
    """

    def __init__(self, master_seed: int):
        _check_domain(master_seed=master_seed)
        self.master_seed = master_seed

    def at(self, index: int) -> np.random.Generator:
        """A fresh Generator at the start of substream `index`."""
        seed = np.random.SeedSequence(self.master_seed, spawn_key=(index,))
        return np.random.Generator(np.random.SFC64(seed))


class OutageEstimate(_Record, namedtuple("OutageEstimate", "p_hat stderr n_trials master_seed")):
    """Monte Carlo outage estimate with its binomial standard error."""

    __slots__ = ()


def _batch_blocks(L: int, expected_count: int) -> int:
    """G, the blocks of one batch: as many as `_BATCH_ROWS` rows of L
    entries hold, and at least one.  A trial holds expected_count channel
    rows on average, and its (2L, 2L) Gram, covariance and factor take about
    4L rows more, so it is charged max(expected_count, 4L) rows: where L is
    large beside expected_count a batch then stays a block, as the antenna
    cap's memory bound assumes."""
    return max(1, _BATCH_ROWS // (BLOCK * L * max(expected_count, 4 * L)))


def _draw_fields(
    lam: float, expected_count: int, blocks: _Batch
) -> tuple[float, np.ndarray, np.ndarray]:
    """(disk_radius, counts, radii) for the fields of the batch `blocks`:
    each block draws its node counts, then its radial uniforms, into its
    own slice of the batch's arrays.

    The disk holds expected_count nodes on average: disk_radius =
    sqrt(expected_count / (lam * pi)).  counts are Poisson(expected_count);
    radii holds sum(counts) node distances, fields in order, uniform on the
    disk via r = disk_radius * sqrt(u).
    """
    _check_domain(lam__positive=lam, expected_count=expected_count)
    per_block = [rng.poisson(expected_count, size) for rng, size in blocks]
    counts = np.concatenate(per_block)
    radii = np.empty(int(counts.sum()))
    end = 0
    for (rng, _), block_counts in zip(blocks, per_block):
        start, end = end, end + int(block_counts.sum())
        rng.random(out=radii[start:end])
    radius = math.sqrt(expected_count / (lam * math.pi))
    np.sqrt(radii, out=radii)
    radii *= radius
    return radius, counts, radii


def _covariance(a: np.ndarray, sigma2: float) -> np.ndarray:
    """sum_k a_k a_k^H + sigma2 I per trial, for amplitude-weighted channel
    rows a (B, N, L), as one real batched Gram of the interleaved
    real/imaginary view of a."""
    size, _, L = a.shape
    real = a.view(np.float64)
    gram = real.swapaxes(1, 2) @ real  # (B, 2L, 2L)
    cov = np.empty((size, L, L), dtype=np.complex128)
    cov.real = gram[:, ::2, ::2] + gram[:, 1::2, 1::2]
    cov.imag = gram[:, 1::2, ::2] - gram[:, ::2, 1::2]
    cov.real[:, np.arange(L), np.arange(L)] += sigma2
    return cov


def _combining_ratio(w: np.ndarray, desired: np.ndarray, a: np.ndarray, sigma2: float) -> np.ndarray:
    """|w^H c_r|^2 / (sum_k |w^H a_k|^2 + sigma2 |w|^2) per trial.

    The denominator is accumulated per interferer (all terms nonnegative), so
    comparisons against the optimum combiner stay clean even when projection
    has nulled the dominant interferers.  Zero weights give 0; a zero
    denominator with signal present is a legitimately infinite ratio.
    """
    z = (a @ w.conj()[:, :, None])[:, :, 0]
    den = np.vecdot(z, z).real + sigma2 * np.vecdot(w, w).real
    s = np.vecdot(w, desired)
    num = s.real**2 + s.imag**2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, 0.0))


def _weights(
    receiver: str, desired: np.ndarray, a: np.ndarray, radii: np.ndarray, pzf_k: int | None
) -> np.ndarray:
    """Weights (B, L) of mrc / zf / pzf for channel rows a (B, N, L) whose
    nodes sit at radii (B, N); padding rows are zero and sit at +inf.

    ZF projects the desired channel orthogonal to the min(n, L-1) strongest
    interferers, PZF to the min(n, k) strongest (k < L, else a ValueError);
    strength is ranked by average received power (position only), ties
    broken by node index, in k argmin passes (`_strongest`).  A row comes
    back as the zero vector when the desired channel lies in the cancelled
    span, and `_combining_ratio` reads that as zero SINR.
    """
    if receiver == "mrc":
        return desired
    L = desired.shape[1]
    k = min(a.shape[1], L - 1 if receiver == "zf" else _pzf_count(L, pzf_k))
    strongest = _strongest(radii, k)
    return batch_project_out(desired, np.take_along_axis(a, strongest[:, :, None], axis=1))


def _strongest(radii: np.ndarray, k: int) -> np.ndarray:
    """Indices (B, k) of the k smallest radii of each row, nearest first
    and ties to the lower index, as argsort(radii, kind="stable")[:, :k]
    gives them, taken by k argmin passes instead of a full sort.

    Padding (+inf) ranks as the largest finite double, so it still comes
    after every node, by index, while a slot already ranked is set to +inf
    and never picked again.
    """
    left = np.minimum(radii, np.finfo(np.float64).max)
    rows = np.arange(left.shape[0])
    strongest = np.empty((left.shape[0], k), dtype=np.intp)
    for j in range(k):
        strongest[:, j] = nearest = left.argmin(axis=1)
        left[rows, nearest] = np.inf
    return strongest


def _oc_ratio(desired: np.ndarray, a: np.ndarray, counts: np.ndarray, sigma2: float) -> np.ndarray:
    """c_r^H R^{-1} c_r per trial: the normalized SINR Z = SINR * d_r**alpha
    of the optimum (MMSE) combiner.

    inf where sigma2 = 0 and a trial has fewer nodes than antennas: R then
    has rank at most its node count, and a generic desired vector leaves its
    column space.  That is decided from the counts, not from the pivot
    tolerance, which a Gram-built singular R can pass by rounding.
    """
    ratio = batch_quadratic_form_inverse(desired, _covariance(a, sigma2))
    if sigma2 == 0.0:
        ratio[counts < desired.shape[1]] = np.inf
    return ratio


def _channel_block(
    counts: np.ndarray, amplitudes: np.ndarray, L: int, blocks: _Batch
) -> tuple[np.ndarray, np.ndarray]:
    """(desired, a) for the trials of the batch `blocks`, with `counts` nodes
    each.

    desired is (B, L) CN(0,1): real and imaginary parts carry variance 1/2,
    so |entry|^2 is a unit-mean exponential (Rayleigh power).  a is
    (B, N_max, L): the CN(0,1) channel rows of each trial, weighted by their
    node amplitudes (square roots of the received powers), then zero rows as
    padding.  Each block draws its desired vectors, then its rows, into its
    own slices; the rows go straight into the head of a's buffer, are
    weighted there and spread out trial by trial, last trial first, so the
    batch holds one copy of them.
    """
    size = counts.shape[0]
    desired = np.empty((size, 2 * L))
    a = np.empty((size, int(counts.max(initial=0)), 2 * L))
    flat = a.reshape(-1, 2 * L)
    first = end = 0
    for rng, n in blocks:
        start, end = end, end + int(counts[first : first + n].sum())
        rng.standard_normal(out=desired[first : first + n])
        rng.standard_normal(out=flat[start:end])
        first += n
    desired = desired.view(np.complex128)
    desired *= math.sqrt(0.5)
    drawn = flat[:end]
    drawn *= math.sqrt(0.5)
    drawn *= amplitudes[:, None]
    for b, n in reversed(list(enumerate(counts.tolist()))):
        a[b, :n] = flat[end - n : end]
        a[b, n:] = 0.0
        end -= n
    return desired, a.view(np.complex128)


def block_sinr(
    params: SystemParams,
    receiver: str,
    rng: np.random.Generator,
    size: int = BLOCK,
    expected_count: int = 100,
    pzf_k: int | None = None,
) -> np.ndarray:
    """Normalized SINRs Z = SINR * d_r**alpha of `size` <= BLOCK trials
    drawn from `rng`, vectorized; a trial is in outage when Z < gamma.

    Each trial has its own field and channels; rng draws the node counts,
    then the radial uniforms, then the channel normals.  Received powers are
    |X_k|**-alpha; the noise enters only through the sigma2 I term of the
    covariance (the SINR depends on the noise vector through its covariance
    alone, so it is never sampled).  Capping L at 256 and expected_count * L
    at 2**18 bounds the block's memory.  The one-receiver case of
    `_block_sinrs`.
    """
    return _block_sinrs(params, (receiver,), [(rng, size)], expected_count, pzf_k)[0]


def _block_sinrs(
    params: SystemParams, receivers: tuple[str, ...], blocks: _Batch, expected_count: int,
    pzf_k: int | None,
) -> list[np.ndarray]:
    """`block_sinr` of every receiver in `receivers`, in order, on one draw
    of the batch `blocks`: each entry is the blocks' `block_sinr` values,
    trials in order.  OC's equal them bit for bit; the combiners' sums over
    a batch's longer padding may differ from a lone block's in the last
    bit.  The padded radii that ZF and PZF rank are built once, and only if
    one of them is asked for.
    """
    for receiver in receivers:
        _check_domain(receiver=receiver)
    _check_domain(pzf_k=pzf_k)
    for _, size in blocks:
        _check_domain(size=size)
    _check_disk(params.L, expected_count)
    _, counts, radii = _draw_fields(params.lam, expected_count, blocks)
    amplitudes = radii ** (-0.5 * params.alpha)  # square roots of the received powers
    desired, a = _channel_block(counts, amplitudes, params.L, blocks)
    padded_radii = None
    if not {"zf", "pzf"}.isdisjoint(receivers):
        padded_radii = np.full(a.shape[:2], np.inf)
        padded_radii[np.arange(a.shape[1]) < counts[:, None]] = radii
    sinrs = []
    for receiver in receivers:
        if receiver == "oc":
            sinrs.append(_oc_ratio(desired, a, counts, params.sigma2))
        else:
            w = _weights(receiver, desired, a, padded_radii, pzf_k)
            sinrs.append(_combining_ratio(w, desired, a, params.sigma2))
    return sinrs


# batches submitted to the workers and not yet collected, per worker: enough
# that a worker finds its next batch queued, and a bound on the pending
# futures however many batches a run has
_IN_FLIGHT = 4


def _map_blocks(sinr_of_batch, reduce, n_trials: int, master_seed: int, group: int) -> list:
    """reduce(sinr_of_batch(blocks)) for every batch (`_Batch`) of `group`
    blocks, in batch order.

    Block b covers trials [b * BLOCK, min((b + 1) * BLOCK, n_trials)) and
    draws from substream (master_seed, b); batch k is blocks [k * group,
    (k + 1) * group) by index.  The workers (OC_FIELD_THREADS) take whole
    batches in index order, at most `_IN_FLIGHT` per worker ahead of the
    oldest result not yet collected, and the results are collected in that
    order, so the result does not depend on the worker count.
    """
    _check_domain(n_trials=n_trials)
    stream = TrialStream(master_seed)
    n_blocks = -(-n_trials // BLOCK)
    n_batches = -(-n_blocks // group)

    def run(k: int):
        blocks = range(k * group, min((k + 1) * group, n_blocks))
        return reduce(sinr_of_batch([(stream.at(b), min(BLOCK, n_trials - b * BLOCK)) for b in blocks]))

    workers = min(_resolve_workers(), n_batches)
    if workers == 1:
        return [run(k) for k in range(n_batches)]
    results, window = [], deque()
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for k in range(n_batches):
            if len(window) == _IN_FLIGHT * workers:
                results.append(window.popleft().result())
            window.append(pool.submit(run, k))
        results.extend(future.result() for future in window)
    finally:
        pool.shutdown(cancel_futures=True)  # after an error, the queued batches never run
    return results


def estimate_outage(
    params: SystemParams,
    receiver: str = "oc",
    n_trials: int = 10_000,
    master_seed: int = 0,
    expected_count: int = 100,
    pzf_k: int | None = None,
) -> OutageEstimate:
    """Monte Carlo outage probability: fraction of trials with normalized
    SINR Z < gamma = beta * d_r**alpha.

    Infinite Z counts as success for any finite threshold.  Bit-identical
    for a given master_seed under any worker count: each batch depends only
    on its block indices, and the workers take whole batches in index order
    and return them in that order (`_map_blocks`).  The one-receiver case of
    `_estimate_outages`.
    """
    return _estimate_outages(params, (receiver,), n_trials, master_seed, expected_count, pzf_k)[0]


def _estimate_outages(
    params: SystemParams, receivers: tuple[str, ...], n_trials: int, master_seed: int,
    expected_count: int, pzf_k: int | None,
) -> list[OutageEstimate]:
    """`estimate_outage` of every receiver in `receivers`, in order, from
    one pass over the batches: each batch is drawn once (`_block_sinrs`) and
    reduced to one failure count per receiver, so every estimate equals its
    one-receiver call bit for bit.
    """
    gamma = params.gamma
    batches = _map_blocks(
        lambda blocks: _block_sinrs(params, receivers, blocks, expected_count, pzf_k),
        lambda sinrs: [int(np.count_nonzero(z < gamma)) for z in sinrs],
        n_trials,
        master_seed,
        _batch_blocks(params.L, expected_count),
    )
    estimates = []
    for failures in zip(*batches):  # one tuple of batch counts per receiver
        p = sum(failures) / n_trials
        estimates.append(OutageEstimate(p, math.sqrt(p * (1.0 - p) / n_trials), n_trials, master_seed))
    return estimates
