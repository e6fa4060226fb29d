import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.stats import chi2

from ocfield import (
    BLOCK,
    SystemParams,
    TrialStream,
    block_sinr,
    estimate_outage,
    outage_cdf,
)
import ocfield.simulate as simulate_module
from ocfield.cli import ScenarioConfig, main, run_simulation
from ocfield.domains import RECEIVERS, _pzf_count
from ocfield.simulate import (
    _batch_blocks,
    _block_sinrs,
    _channel_block,
    _combining_ratio,
    _covariance,
    _draw_fields,
    _map_blocks,
    _oc_ratio,
    _strongest,
    _weights,
)

from _frozen_field import conditional_outage_cdf, estimate_outage_conditional

FIG_PARAMS = dict(alpha=3.5, sigma2=1e-5, d_r=10.0, beta=10.0**0.3)


def make_params(lam=1e-3, L=3, **overrides):
    kwargs = {**FIG_PARAMS, **overrides}
    return SystemParams(lam=lam, L=L, **kwargs)


def pad(counts, values):
    """(B, N_max) per-trial values, trials in order, padded with +inf."""
    out = np.full((counts.shape[0], int(counts.max(initial=0))), np.inf)
    out[np.arange(out.shape[1]) < counts[:, None]] = values
    return out


def cn(rng, *shape):
    """CN(0,1) entries, drawn independently of the engine's layout."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


def hand_block(radii, L, alpha, rng):
    """A block built by hand for node distances radii (B, N), +inf marking
    padding: (desired (B, L), channels h (B, N, L) with zero padding rows,
    amplitude-weighted rows a = h * r**(-alpha/2))."""
    radii = np.asarray(radii, dtype=float)
    h = cn(rng, *radii.shape, L)
    h[np.isinf(radii)] = 0.0
    return cn(rng, radii.shape[0], L), h, h * (radii ** (-0.5 * alpha))[:, :, None]


def random_block(lam, expected_count, size, L, alpha, rng):
    """`hand_block` on `size` fields from the engine's field sampler:
    (counts, padded radii, desired, h, a)."""
    _, counts, radii = _draw_fields(lam, expected_count, [(rng, size)])
    padded = pad(counts, radii)
    return (counts, padded, *hand_block(padded, L, alpha, rng))


class TestTrialStream:
    def test_reproducible_and_order_independent(self):
        s1, s2 = TrialStream(77), TrialStream(77)
        a = s1.at(5).standard_normal(8)
        _ = s2.at(9).standard_normal(3)  # visit another trial first
        b = s2.at(5).standard_normal(8)
        assert np.array_equal(a, b)

    def test_trials_and_seeds_separate_streams(self):
        s = TrialStream(77)
        a = s.at(0).standard_normal(8)
        b = s.at(1).standard_normal(8)
        c = TrialStream(78).at(0).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_is_spawned_sfc64(self):
        # the stream layout: block b draws from SFC64 seeded by child b of
        # SeedSequence(master_seed)
        for seed, index in ((0, 0), (77, 5), (2**64 - 1, 12_345)):
            expected = np.random.Generator(
                np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(index,)))
            )
            got = TrialStream(seed).at(index)
            assert np.array_equal(got.random(16), expected.random(16))
            assert np.array_equal(got.standard_normal(16), expected.standard_normal(16))
        spawned = np.random.SeedSequence(77).spawn(6)[5]
        assert np.array_equal(
            TrialStream(77).at(5).random(8), np.random.Generator(np.random.SFC64(spawned)).random(8)
        )

    def test_seed_domain(self):
        with pytest.raises(ValueError):
            TrialStream(-1)
        with pytest.raises(ValueError):
            TrialStream(1 << 64)


class TestSamplePpp:
    def test_disk_radius_for_hundred_nodes(self):
        radius, _, _ = _draw_fields(1e-3, 100, [(TrialStream(1).at(0), 1)])
        assert radius == approx(178.41241161527712, rel=1e-12)

    def test_node_count_mean(self):
        _, counts, _ = _draw_fields(1e-3, 100, [(TrialStream(3).at(0), 10_000)])
        # 3-sigma window on the mean of Poisson(100) over 1e4 draws
        assert np.mean(counts) == approx(100.0, abs=3.0 * 10.0 / math.sqrt(10_000))

    def test_uniformity_second_moment(self):
        _, counts, radii = _draw_fields(1e-3, 100, [(TrialStream(5).at(0), 2000)])
        assert radii.shape == (counts.sum(),)
        expected = 178.41241161527712**2 / 2.0
        assert np.mean(radii**2) == approx(expected, rel=0.02)

    def test_domain(self):
        with pytest.raises(ValueError):
            _draw_fields(0.0, 100, [(TrialStream(0).at(0), 1)])
        with pytest.raises(ValueError):
            _draw_fields(1e-3, 0, [(TrialStream(0).at(0), 1)])


class TestDrawChannels:
    def test_shapes(self):
        counts = np.array([7, 0, 3])
        amplitudes = np.arange(1.0, 11.0)
        desired, a = _channel_block(counts, amplitudes, 4, [(TrialStream(8).at(0), 3)])
        assert desired.shape == (3, 4)
        assert a.shape == (3, 7, 4)
        assert not a[1].any() and not a[2, 3:].any()  # padding rows are zero
        # the same draws at unit amplitude: each row carries its node's amplitude
        _, unit = _channel_block(counts, np.ones(10), 4, [(TrialStream(8).at(0), 3)])
        assert np.array_equal(a[0], unit[0] * amplitudes[:7, None])
        assert np.array_equal(a[2, :3], unit[2, :3] * amplitudes[7:, None])
        assert np.abs(unit[0]).max(axis=1).all() and np.abs(unit[2, :3]).max(axis=1).all()

    def test_unit_entry_power_and_desired_norm(self):
        L = 4
        n = 25_000 - 1
        _, a = _channel_block(np.array([n]), np.ones(n), L, [(TrialStream(9).at(0), 1)])
        power = np.abs(a) ** 2
        assert np.mean(power) == approx(1.0, abs=4.0 / math.sqrt(power.size))

        no_nodes = np.zeros(100_000, dtype=int)
        desired, _ = _channel_block(no_nodes, np.ones(0), L, [(TrialStream(10).at(0), 100_000)])
        norms = np.vecdot(desired, desired).real
        assert np.mean(norms) == approx(L, abs=4.0 * math.sqrt(L / 100_000))

    def test_entry_power_is_unit_exponential(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        n = 100_000 - 1
        _, a = _channel_block(np.array([n]), np.ones(n), 1, [(TrialStream(11).at(0), 1)])
        power = (np.abs(a) ** 2).ravel()
        ks = scipy_stats.kstest(power, "expon").statistic
        assert ks < 0.01


class TestBuildCovariance:
    def test_empty_field_is_noise_only(self):
        cov = _covariance(np.zeros((1, 0, 3), dtype=complex), 0.3)
        assert np.allclose(cov[0], 0.3 * np.eye(3), atol=0)

    def test_single_interferer_unit_distance(self):
        a = np.array([[[1.0, 0.0]]], dtype=complex) * 1.0 ** (-0.5 * 4.0)
        cov = _covariance(a, 0.0)
        assert np.allclose(cov[0], [[1.0, 0.0], [0.0, 0.0]], atol=0)

    def test_trace_identity_and_hermitian(self):
        _, radii, _, h, a = random_block(2e-3, 50, 50, 4, 3.5, TrialStream(14).at(0))
        cov = _covariance(a, 1e-5)
        expected = np.sum(radii**-3.5 * np.sum(np.abs(h) ** 2, axis=2), axis=1) + 4 * 1e-5
        assert np.trace(cov, axis1=1, axis2=2).real == approx(expected, rel=1e-12, abs=0.0)
        for m in cov:
            assert np.max(np.abs(m - m.conj().T)) <= 1e-14 * np.max(np.abs(m))


class TestOcSinr:
    def test_pure_noise_unit_vector(self):
        desired = np.array([[1.0, 0.0]], dtype=complex)
        empty = np.zeros((1, 0, 2), dtype=complex)
        assert _oc_ratio(desired, empty, np.array([0]), 1.0)[0] == approx(1.0, rel=1e-14, abs=0.0)

    def test_pure_noise_generic_vector_is_norm(self):
        desired = cn(np.random.default_rng(16), 8, 3)
        empty = np.zeros((8, 0, 3), dtype=complex)
        expected = np.vecdot(desired, desired).real
        assert _oc_ratio(desired, empty, np.zeros(8, dtype=int), 1.0) == approx(
            expected, rel=1e-13, abs=0.0
        )

    def test_single_antenna_scalar_reduction(self):
        params = make_params(lam=1e-3, L=1)
        rng = TrialStream(17).at(0)
        counts, radii, desired, h, a = random_block(params.lam, 60, BLOCK, 1, params.alpha, rng)
        num = np.abs(desired[:, 0]) ** 2
        den = np.sum(radii**-params.alpha * np.abs(h[:, :, 0]) ** 2, axis=1) + params.sigma2
        assert _oc_ratio(desired, a, counts, params.sigma2) == approx(num / den, rel=1e-12)

    def test_no_interference_no_noise_is_infinite(self):
        desired = cn(np.random.default_rng(18), 1, 2)
        empty = np.zeros((1, 0, 2), dtype=complex)
        assert _oc_ratio(desired, empty, np.array([0]), 0.0)[0] == math.inf


class TestCombiners:
    def test_optimum_weights_reproduce_oc_sinr(self):
        params = make_params(lam=1e-3, L=4)
        rng = TrialStream(19).at(0)
        counts, _, desired, _, a = random_block(params.lam, 100, 300, params.L, params.alpha, rng)
        cov = _covariance(a, params.sigma2)
        w_oc = np.linalg.solve(cov, desired[:, :, None])[:, :, 0]
        assert _combining_ratio(w_oc, desired, a, params.sigma2) == approx(
            _oc_ratio(desired, a, counts, params.sigma2), rel=1e-10
        )

    def test_mrc_in_pure_noise(self):
        desired = cn(np.random.default_rng(20), 8, 3)
        empty = np.zeros((8, 0, 3), dtype=complex)
        expected = np.vecdot(desired, desired).real
        assert _combining_ratio(desired, desired, empty, 1.0) == approx(
            expected, rel=1e-13, abs=0.0
        )

    def test_random_weights_never_beat_optimum(self):
        params = make_params(lam=2e-3, L=3)
        rng = TrialStream(21).at(0)
        counts, _, desired, _, a = random_block(params.lam, 100, 200, params.L, params.alpha, rng)
        best = _oc_ratio(desired, a, counts, params.sigma2)
        for _ in range(20):
            w = cn(rng, 200, params.L)
            assert np.all(_combining_ratio(w, desired, a, params.sigma2) <= best * (1.0 + 1e-9))

    def test_zero_weights_give_zero(self):
        # ZF and PZF weights nulled by the projection read as zero SINR
        desired, _, a = hand_block(np.array([[1.0, 2.0]]), 2, 3.5, np.random.default_rng(22))
        zero = np.zeros((1, 2), dtype=complex)
        for sigma2 in (1e-5, 0.0):
            assert _combining_ratio(zero, desired, a, sigma2)[0] == 0.0

    def test_zero_denominator_with_signal_is_infinite(self):
        desired = cn(np.random.default_rng(23), 1, 2)
        empty = np.zeros((1, 0, 2), dtype=complex)
        assert _combining_ratio(desired, desired, empty, 0.0)[0] == math.inf


def assert_orthogonal(w, b):
    assert abs(np.vdot(w, b)) <= 1e-10 * np.linalg.norm(w) * np.linalg.norm(b)


class TestCombinerWeights:
    def test_pzf_zero_is_mrc(self):
        _, radii, desired, _, a = random_block(1e-3, 50, BLOCK, 3, 3.5, TrialStream(24).at(0))
        assert np.array_equal(_weights("pzf", desired, a, radii, 0), desired)

    def test_pzf_full_is_zf(self):
        _, radii, desired, _, a = random_block(1e-3, 50, BLOCK, 3, 3.5, TrialStream(25).at(0))
        zf = _weights("zf", desired, a, radii, None)
        pzf = _weights("pzf", desired, a, radii, 2)
        assert np.array_equal(zf, pzf)

    def test_default_pzf_cancel_count(self):
        assert [_pzf_count(L, None) for L in (1, 2, 3, 4, 5)] == [0, 1, 2, 2, 3]

    def test_zf_orthogonal_to_strongest(self):
        _, radii, desired, h, a = random_block(1e-3, 80, BLOCK, 4, 3.5, TrialStream(26).at(0))
        w = _weights("zf", desired, a, radii, None)
        strongest = np.argsort(radii, axis=1, kind="stable")[:, :3]
        for b in range(BLOCK):
            for k in strongest[b]:
                assert_orthogonal(w[b], h[b, k])

    def test_ranking_ties_broken_by_index(self):
        radii = np.array([[5.0, 5.0, 1.0]])
        desired, h, a = hand_block(radii, 3, 3.5, np.random.default_rng(27))
        w = _weights("pzf", desired, a, radii, 1)  # node 2 only
        assert_orthogonal(w[0], h[0, 2])
        # then projecting out node 0 (not node 1) is what zf's second count adds
        w2 = _weights("zf", desired, a, radii, None)
        assert_orthogonal(w2[0], h[0, 2])
        assert_orthogonal(w2[0], h[0, 0])
        assert abs(np.vdot(w2[0], h[0, 1])) > 1e-3 * np.linalg.norm(w2[0])  # node 1 is kept

    def test_argmin_ranking_is_the_stable_argsort(self):
        # radii on a coarse grid tie often; zero counts make empty trials and
        # every row past a trial's count is +inf padding
        rng = np.random.default_rng(30)
        for _ in range(200):
            size = int(rng.integers(1, 9))
            counts = rng.integers(0, 9, size)
            counts[rng.random(size) < 0.2] = 0
            radii = pad(counts, rng.integers(1, 5, int(counts.sum())).astype(float))
            for k in range(radii.shape[1] + 1):
                expected = np.argsort(radii, axis=1, kind="stable")[:, :k]
                assert np.array_equal(_strongest(radii, k), expected), (radii, k)

    def test_zf_cancels_at_most_available_nodes(self):
        radii = np.array([[2.0]])
        desired, h, a = hand_block(radii, 4, 3.5, np.random.default_rng(28))
        w = _weights("zf", desired, a, radii, None)  # only one node to cancel
        assert_orthogonal(w[0], h[0, 0])
        assert np.linalg.norm(w[0]) > 0.0

    def test_pzf_count_of_l_or_more_rejected(self):
        # cancelling k >= L interferers would null the desired channel of
        # every trial and report outage 1
        params = make_params(L=2, sigma2=0.0)
        _, radii, desired, _, a = random_block(1e-3, 50, 8, 2, 3.5, TrialStream(29).at(0))
        for reject in (
            lambda: block_sinr(params, "pzf", TrialStream(1).at(0), size=8, pzf_k=2),
            lambda: estimate_outage(params, "pzf", n_trials=256, pzf_k=2),
            lambda: _weights("pzf", desired, a, radii, 2),
        ):
            with pytest.raises(ValueError, match=r"^pzf_k must be < L, got \d+ with L = 2$"):
                reject()
        # the other receivers ignore the count
        assert block_sinr(params, "zf", TrialStream(1).at(0), size=8, pzf_k=2).shape == (8,)

    def test_unknown_receiver_rejected(self):
        with pytest.raises(ValueError, match="unknown receiver"):
            block_sinr(make_params(L=2), "dfe", TrialStream(29).at(0))


class TestConditionalOutage:
    def test_empty_field_reduces_to_noise_limited(self):
        # one count law: an empty field and lam = 0 both take the Poisson path
        for L in (1, 2, 4):
            for sigma2, gamma in ((1.0, 0.7), (0.3, 2.0), (0.0, 5.0)):
                empty = SystemParams(lam=0.0, alpha=3.5, sigma2=sigma2, d_r=1.0, L=L, beta=gamma)
                expected = outage_cdf(empty)
                assert conditional_outage_cdf([], sigma2, L, gamma) == expected
                # the chi-square CDF of the combined SNR
                assert expected == approx(chi2.cdf(2.0 * sigma2 * gamma, 2 * L), abs=1e-14)

    def test_single_antenna_closed_form(self):
        powers, sigma2, gamma = [0.5, 2.0, 0.1], 0.25, 1.5
        expected = 1.0 - math.exp(-sigma2 * gamma) / np.prod([1 + p * gamma for p in powers])
        assert conditional_outage_cdf(powers, sigma2, 1, gamma) == approx(
            expected, rel=1e-14, abs=0.0
        )

    def test_two_antennas_two_unit_interferers(self):
        assert conditional_outage_cdf([1.0, 1.0], 0.0, 2, 1.0) == approx(0.25, rel=1e-14, abs=0.0)

    def test_zero_threshold(self):
        assert conditional_outage_cdf([1.0, 2.0], 0.5, 3, 0.0) == 0.0

    def test_large_field_log_domain(self):
        rng = np.random.default_rng(30)
        powers = rng.uniform(0.1, 5.0, size=400)
        value = conditional_outage_cdf(powers, 1e-3, 4, 50.0)
        assert 0.0 <= value <= 1.0
        assert value == approx(1.0, abs=1e-10)  # 400 strong interferers: certain outage

    def test_monotone_in_gamma_and_powers(self):
        powers = [0.5, 1.0, 2.0]
        lo = conditional_outage_cdf(powers, 0.1, 2, 1.0)
        hi = conditional_outage_cdf(powers, 0.1, 2, 2.0)
        assert hi >= lo
        stronger = conditional_outage_cdf([1.0, 2.0, 4.0], 0.1, 2, 1.0)
        assert stronger >= lo

    def test_matches_series_expansion_oracle(self):
        from _oracles import conditional_outage_bruteforce

        rng = np.random.default_rng(46)
        for _ in range(50):
            n = int(rng.integers(0, 15))
            powers = rng.uniform(0.01, 3.0, size=n)
            sigma2 = float(rng.uniform(0.0, 0.5))
            L = int(rng.integers(1, 6))
            gamma = float(rng.uniform(0.0, 4.0))
            expected = conditional_outage_bruteforce(powers, sigma2, L, gamma)
            assert conditional_outage_cdf(powers, sigma2, L, gamma) == approx(
                expected, rel=1e-10, abs=1e-12
            )

    def test_many_strong_nodes_at_large_l(self):
        from _oracles import conditional_outage_poisson_binomial

        # the elementary-symmetric recurrence overflowed here and returned 0
        value = conditional_outage_cdf([1.0] * 300, 0.0, 200, 1e3)
        assert value == 1.0
        assert value == approx(conditional_outage_poisson_binomial([1.0] * 300, 0.0, 200, 1e3))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(-300.0, 300.0), max_size=80),
        st.floats(0.0, 10.0),
        st.integers(1, 64),
        st.sampled_from([0.0, 1e-9, 1e-3]),
    )
    @example([300.0, 300.0], 10.0, 1, 0.0)  # s = P * gamma overflows: outage 1, not 0
    def test_across_the_double_range(self, exponents, gamma_exponent, L, sigma2):
        from _oracles import conditional_outage_poisson_binomial

        # powers 1e-300..1e300 and gamma 1..1e10, so s = P * gamma spans
        # 1e-300..1e310; where s overflows, the oracle gives nan, and the node
        # takes a degree of freedom with certainty
        powers = 10.0 ** np.array(exponents)
        gamma = 10.0**gamma_exponent
        with np.errstate(over="ignore"):
            sure = np.isinf(powers * gamma)
        n_sure = int(sure.sum())
        expected = 1.0
        if n_sure < L:
            expected = conditional_outage_poisson_binomial(
                powers[~sure], sigma2, L - n_sure, gamma
            )
        assert abs(conditional_outage_cdf(powers, sigma2, L, gamma) - expected) <= 1e-12

    def test_matches_poisson_binomial_oracle(self):
        from _oracles import conditional_outage_poisson_binomial

        rng = np.random.default_rng(47)
        for _ in range(300):
            n = int(rng.integers(0, 60))
            powers = rng.uniform(0.01, 3.0, size=n)
            sigma2 = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
            L = int(rng.integers(1, 12))
            gamma = float(rng.uniform(0.0, 4.0))
            expected = conditional_outage_poisson_binomial(powers, sigma2, L, gamma)
            assert conditional_outage_cdf(powers, sigma2, L, gamma) == approx(
                expected, rel=1e-10, abs=1e-13
            )

    def test_matches_fading_monte_carlo(self):
        rng = np.random.default_rng(31)
        for L, sigma2 in ((1, 0.0), (2, 1e-3), (4, 0.0)):
            powers = rng.uniform(0.05, 0.6, size=12) ** 2
            gamma = 3.0
            exact = conditional_outage_cdf(powers, sigma2, L, gamma)
            est = estimate_outage_conditional(
                powers, sigma2, L, gamma, n_trials=20_000, master_seed=32
            )
            assert abs(est.p_hat - exact) <= 4.0 * max(est.stderr, 1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            conditional_outage_cdf([1.0, -1.0], 0.0, 2, 1.0)
        with pytest.raises(ValueError):
            conditional_outage_cdf([1.0], -0.1, 2, 1.0)
        with pytest.raises(ValueError):
            conditional_outage_cdf([1.0], 0.1, 0, 1.0)


class TestEstimateOutage:
    def test_vanishing_threshold_never_fails(self):
        params = make_params(lam=1e-3, L=2, beta=1e-12)
        est = estimate_outage(params, n_trials=2000, master_seed=33)
        assert est.p_hat == 0.0
        assert est.stderr == 0.0

    def test_single_trial_stderr_degenerate(self):
        params = make_params(lam=1e-3, L=1)
        est = estimate_outage(params, n_trials=1, master_seed=34)
        assert est.stderr == 0.0
        assert est.p_hat in (0.0, 1.0)

    def test_worker_count_does_not_change_result(self, monkeypatch):
        params = make_params(lam=2e-3, L=2)
        for n_trials in (1, 63, 64, 65, 4000):
            results = []
            for w in ("1", "2", "3", "8"):
                monkeypatch.setenv("OC_FIELD_THREADS", w)
                results.append(estimate_outage(params, n_trials=n_trials, master_seed=35))
            assert all(r == results[0] for r in results), n_trials

    def test_blocks_come_back_in_order_for_any_worker_count(self, monkeypatch):
        params = make_params(lam=1e-3, L=1, sigma2=0.0)
        stream = TrialStream(44)
        for n_trials in (1, 63, 64, 65, 2000):
            serial = [
                block_sinr(params, "oc", stream.at(b), min(BLOCK, n_trials - b * BLOCK))
                for b in range(-(-n_trials // BLOCK))
            ]
            for w in ("1", "2", "3", "8"):
                monkeypatch.setenv("OC_FIELD_THREADS", w)
                for group in (1, 3):
                    batches = _map_blocks(
                        lambda blocks: _block_sinrs(params, ("oc",), blocks, 100, None)[0],
                        lambda s: s, n_trials, 44, group,
                    )
                    assert np.array_equal(np.concatenate(batches), np.concatenate(serial)), (
                        n_trials, w, group
                    )

    @pytest.mark.parametrize("L, sigma2, failures", [
        (3, 0.0, {"oc": 139, "mrc": 410, "zf": 385, "pzf": 385}),
        (4, 1e-5, {"oc": 48, "mrc": 341, "zf": 308, "pzf": 130}),
    ])
    def test_failure_counts_are_pinned(self, L, sigma2, failures):
        # which trials fail is fixed by the stream layout (BLOCK, substream
        # per block, draw order); a change to it must update these on purpose
        params = make_params(lam=1.5e-3, L=L, sigma2=sigma2)
        got = {}
        for receiver in failures:
            est = estimate_outage(params, receiver, n_trials=1000, master_seed=50)
            got[receiver] = round(est.p_hat * est.n_trials)
        assert got == failures

    def test_env_var_controls_workers(self, monkeypatch):
        params = make_params(lam=2e-3, L=2)
        monkeypatch.setenv("OC_FIELD_THREADS", "1")
        baseline = estimate_outage(params, n_trials=1500, master_seed=36)
        monkeypatch.setenv("OC_FIELD_THREADS", "4")
        assert estimate_outage(params, n_trials=1500, master_seed=36) == baseline

    def test_matches_closed_form_at_low_density(self):
        # low density: disk truncation well inside the sampling noise
        params = make_params(lam=4e-4, L=2)
        est = estimate_outage(params, n_trials=20_000, master_seed=37)
        assert abs(est.p_hat - outage_cdf(params)) <= 4.0 * est.stderr

    def test_receiver_ordering_with_paired_trials(self):
        params = make_params(lam=1.5e-3, L=3, sigma2=0.0)
        estimates = {
            r: estimate_outage(params, receiver=r, n_trials=5000, master_seed=38)
            for r in ("oc", "mrc", "zf", "pzf")
        }
        p_oc = estimates["oc"].p_hat
        for r in ("mrc", "zf", "pzf"):
            gap = estimates[r].p_hat - p_oc
            joint = math.hypot(estimates[r].stderr, estimates["oc"].stderr)
            assert gap >= 0.0
            assert gap > 3.0 * joint


class TestPerTrialDominance:
    @pytest.mark.parametrize("sigma2", [1e-5, 0.0])
    def test_oc_dominates_every_combiner(self, sigma2):
        # receivers on one substream see the same fields and channels
        params = make_params(lam=1.5e-3, L=3, sigma2=sigma2)
        stream = TrialStream(40)
        for b in range(5):
            best = block_sinr(params, "oc", stream.at(b))
            for receiver in ("mrc", "zf", "pzf"):
                value = block_sinr(params, receiver, stream.at(b))
                assert np.all(value <= best * (1.0 + 1e-9)), (b, receiver)


class TestBlockEngine:
    def test_rank_deficient_blocks_are_infinite_where_single_trials_are(self):
        # sigma2 = 0 and about one node per field: most trials have fewer
        # nodes than antennas.  Each trial of a block is checked on its own
        # against numpy.linalg.solve on the same draws.
        params = make_params(lam=1e-3, L=3, sigma2=0.0)
        stream = TrialStream(48)
        got, expected = [], []
        for b in range(20):
            got.append(block_sinr(params, "oc", stream.at(b), expected_count=1))
            block = [(stream.at(b), BLOCK)]  # redraw what the block drew
            _, counts, radii = _draw_fields(params.lam, 1, block)
            desired, a = _channel_block(counts, radii ** (-0.5 * params.alpha), params.L, block)
            for c, rows, n in zip(desired, a, counts):
                if n < params.L:  # R has rank n < L: c leaves its column space
                    expected.append(math.inf)
                    continue
                cov = rows.T @ rows.conj()  # sum_k a_k a_k^H
                expected.append(float(np.vdot(c, np.linalg.solve(cov, c)).real))
        got = np.concatenate(got)
        expected = np.array(expected)
        assert np.isinf(expected).any() and np.isfinite(expected).any()
        assert np.array_equal(np.isinf(got), np.isinf(expected))
        finite = np.isfinite(expected)
        assert got[finite] == approx(expected[finite], rel=1e-10)

    def test_fewer_nodes_than_antennas_without_noise_is_infinite(self):
        # R has rank <= n < L, so every such trial is inf, even where the
        # pivot tolerance of a Gram-built R would let a finite value through
        params = make_params(lam=1e-3, L=3, sigma2=0.0)
        stream = TrialStream(48)
        low = infinite = 0
        for b in range(300):
            counts = stream.at(b).poisson(1, BLOCK)  # a block draws its node counts first
            sinr = block_sinr(params, "oc", stream.at(b), expected_count=1)
            assert np.isinf(sinr[counts < params.L]).all(), b
            low += int(np.count_nonzero(counts < params.L))
            infinite += int(np.count_nonzero(np.isinf(sinr)))
        assert infinite == low

    @pytest.mark.parametrize("sigma2", [1e-5, 0.0])
    def test_oc_dominates_every_combiner_on_two_blocks(self, sigma2):
        params = make_params(lam=1.5e-3, L=4, sigma2=sigma2)
        stream = TrialStream(49)
        for b in (0, 1):
            best = block_sinr(params, "oc", stream.at(b))
            assert best.shape == (BLOCK,)
            for receiver in ("mrc", "zf", "pzf"):
                value = block_sinr(params, receiver, stream.at(b))
                assert np.all(value <= best * (1.0 + 1e-9)), receiver


class TestSirMoments:
    def test_distance_scaling_is_exact_per_sample(self):
        # the normalized SIR Z = SIR * d_r**alpha does not depend on d_r, and
        # the outage depends on beta and d_r only through gamma = beta * d_r**alpha
        near = make_params(lam=1e-3, L=2, sigma2=0.0, d_r=1.0)
        far = make_params(lam=1e-3, L=2, sigma2=0.0, d_r=2.0)
        stream = TrialStream(42)
        for b in range(-(-3000 // BLOCK)):
            z_far = block_sinr(far, "oc", stream.at(b))
            assert np.array_equal(z_far, block_sinr(near, "oc", stream.at(b))), b
        run = dict(n_trials=3000, master_seed=42)
        assert estimate_outage(far, **run) == estimate_outage(near._replace(beta=far.gamma), **run)


class TestNearestNeighborIdentity:
    def test_lth_nearest_distance_matches_outage(self):
        # no noise: outage is the chance the L-th nearest node falls inside
        # the rescaled threshold radius
        from ocfield import delta_const

        lam, alpha, L = 1e-3, 3.5, 3
        gamma = 6309.573444801933
        r_star = math.sqrt(delta_const(alpha) / math.pi) * gamma ** (1.0 / alpha)
        n = 20_000
        _, counts, radii = _draw_fields(lam, 100, [(TrialStream(45).at(0), n)])
        # a field with fewer than L nodes has its L-th distance at +inf
        lth = np.partition(pad(counts, radii), L - 1, axis=1)[:, L - 1]
        p_hat = np.count_nonzero(lth < r_star) / n
        stderr = math.sqrt(p_hat * (1 - p_hat) / n)
        no_noise = SystemParams(lam=lam, alpha=alpha, sigma2=0.0, d_r=1.0, L=L, beta=gamma)
        assert abs(p_hat - outage_cdf(no_noise)) <= 4.0 * stderr


class TestBatches:
    def test_blocks_per_batch_follow_the_memory_budget(self):
        assert [_batch_blocks(L, 100) for L in (1, 2, 3, 4, 8)] == [8, 4, 2, 2, 1]
        assert [_batch_blocks(1, 3), _batch_blocks(8, 3), _batch_blocks(256, 1024)] == [200, 3, 1]
        # a trial's Grams count once L is large beside expected_count: by
        # channel rows alone, 3 blocks at L = 256 would hold 3 times the
        # Grams of the one block the antenna cap budgets
        assert _batch_blocks(128, 1) == _batch_blocks(256, 1) == 1

    @pytest.mark.parametrize("L, calls", [(1, 1), (4, 4), (8, 8)])
    def test_a_row_builds_one_covariance_per_batch(self, monkeypatch, L, calls):
        # 500 trials are 8 blocks: one batch at L = 1, four at L = 4 and one
        # block per batch at L = 8, where a block alone fills the budget
        built = []

        def counting(a, sigma2):
            built.append(a.shape[0])
            return _covariance(a, sigma2)

        monkeypatch.setattr(simulate_module, "_covariance", counting)
        monkeypatch.setenv("OC_FIELD_THREADS", "1")
        estimate_outage(make_params(L=L), n_trials=500, master_seed=53)
        assert len(built) == calls and sum(built) == 500

    def test_every_z_is_the_same_for_any_worker_count(self, monkeypatch):
        # 1,000 trials at L = 2 are 16 blocks in 4 batches of 4, which 2 and
        # 3 workers split at different batches
        params = make_params(lam=1.5e-3, L=2)
        group = _batch_blocks(params.L, 100)
        rows = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("OC_FIELD_THREADS", threads)
            batches = _map_blocks(
                lambda blocks: _block_sinrs(params, RECEIVERS, blocks, 100, None),
                lambda sinrs: sinrs, 1000, 54, group,
            )
            assert len(batches) == 4
            rows.append([np.concatenate(z) for z in zip(*batches)])
        for row in rows[1:]:
            for z, first in zip(row, rows[0]):
                assert np.array_equal(z, first)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_batches_in_flight_stay_few_per_worker(self, threads, monkeypatch):
        # 200 slow batches of one block: submitted all at once, nearly all of
        # them would be outstanding before the first finished.  A batch
        # counts as outstanding from its submission until its work returns,
        # which comes before its result can be collected.
        outstanding, peak, lock = 0, 0, threading.Lock()

        class Counting(ThreadPoolExecutor):
            def submit(self, fn, *args):
                nonlocal outstanding, peak

                def counted(*inner):
                    nonlocal outstanding
                    try:
                        return fn(*inner)
                    finally:
                        with lock:
                            outstanding -= 1

                with lock:
                    outstanding += 1
                    peak = max(peak, outstanding)
                return super().submit(counted, *args)

        def slow(blocks):
            time.sleep(0.001)
            return len(blocks)

        monkeypatch.setattr(simulate_module, "ThreadPoolExecutor", Counting)
        monkeypatch.setenv("OC_FIELD_THREADS", str(threads))
        assert _map_blocks(slow, lambda n: n, 200 * BLOCK, 58, 1) == [1] * 200
        assert 1 <= peak <= 4 * threads

    def test_a_failed_batch_raises_and_the_queued_ones_never_run(self, monkeypatch):
        started = []

        def failing(blocks):
            started.append(blocks)
            if len(started) == 3:
                raise ValueError("batch failed")
            time.sleep(0.001)
            return len(blocks)

        monkeypatch.setenv("OC_FIELD_THREADS", "2")
        with pytest.raises(ValueError, match="batch failed"):
            _map_blocks(failing, lambda n: n, 200 * BLOCK, 59, 1)
        assert len(started) <= 3 + 4 * 2

    @pytest.mark.parametrize("L", [1, 3, 8])
    @pytest.mark.parametrize("sigma2", [0.0, 1e-5])
    @pytest.mark.parametrize("expected_count", [3, 100])
    def test_batches_count_the_failures_of_lone_blocks(self, L, sigma2, expected_count):
        # the lone blocks are batches of one; OC's Z is bit for bit the same,
        # the combiners' sums over a batch's longer padding may move the
        # last bit, and no failure count may move
        params = make_params(lam=1.5e-3, L=L, sigma2=sigma2)
        n_trials = 11 * BLOCK - 5
        for seed in (55, 56, 57):
            batched = _map_blocks(
                lambda blocks: _block_sinrs(params, RECEIVERS, blocks, expected_count, None),
                lambda sinrs: sinrs, n_trials, seed, _batch_blocks(L, expected_count),
            )
            stream = TrialStream(seed)
            lone = [
                _block_sinrs(
                    params, RECEIVERS, [(stream.at(b), min(BLOCK, n_trials - b * BLOCK))],
                    expected_count, None,
                )
                for b in range(11)
            ]
            estimates = simulate_module._estimate_outages(
                params, RECEIVERS, n_trials, seed, expected_count, None
            )
            for receiver, z, alone, est in zip(RECEIVERS, zip(*batched), zip(*lone), estimates):
                z, alone = np.concatenate(z), np.concatenate(alone)
                failures = int(np.count_nonzero(alone < params.gamma))
                assert int(np.count_nonzero(z < params.gamma)) == failures, (seed, receiver)
                assert round(est.p_hat * n_trials) == failures, (seed, receiver)
                if receiver == "oc":
                    assert np.array_equal(z, alone), seed
                else:
                    assert np.array_equal(np.isinf(z), np.isinf(alone))
                    finite = np.isfinite(alone)
                    assert z[finite] == approx(alone[finite], rel=1e-13, abs=0.0)


def cli_text(capsys, monkeypatch, threads, *argv):
    monkeypatch.setenv("OC_FIELD_THREADS", threads)
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestSharedBlocks:
    @pytest.mark.parametrize("sigma2", [1e-5, 0.0])
    def test_every_receiver_matches_its_own_block(self, sigma2):
        params = make_params(lam=1.5e-3, L=4, sigma2=sigma2)
        stream = TrialStream(51)
        for b in range(3):
            shared = _block_sinrs(params, RECEIVERS, [(stream.at(b), BLOCK - b)], 100, None)
            for receiver, z in zip(RECEIVERS, shared):
                alone = block_sinr(params, receiver, stream.at(b), BLOCK - b)
                assert np.array_equal(z, alone), (b, receiver)

    def test_a_four_receiver_cell_draws_each_block_once(self, monkeypatch):
        drawn = []

        def counting(*args):
            drawn.append([size for _, size in args[2]])  # the batch's block sizes
            return _draw_fields(*args)

        monkeypatch.setattr(simulate_module, "_draw_fields", counting)
        monkeypatch.setenv("OC_FIELD_THREADS", "1")  # blocks drawn in order
        config = ScenarioConfig(
            antennas=(3,), receivers=RECEIVERS, lambda_grid=(1.5e-3,), n_trials=150
        )
        assert len(run_simulation(config)) == 4
        # two blocks per batch at L = 3 and expected_count 100
        assert drawn == [[BLOCK, BLOCK], [150 - 2 * BLOCK]]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("sigma2", ["0", "1e-5"])
    def test_shared_call_prints_the_one_receiver_rows(self, capsys, monkeypatch, sigma2, threads):
        argv = [
            "simulate", "--L", "1,3,8", "--sigma2", sigma2, "--lambda-grid", "0.0015,0.006",
            "--n-trials", "150", "--seed", "52",
        ]
        shared = cli_text(capsys, monkeypatch, threads, *argv, "--receivers", ",".join(RECEIVERS))
        alone = [
            cli_text(capsys, monkeypatch, threads, *argv, "--receivers", receiver).splitlines()
            for receiver in RECEIVERS
        ]
        # the shared call prints each cell's receivers together, in order
        header, *rows = zip(*alone)
        assert len(set(header)) == 1 and len(rows) == 6
        assert shared == "".join(line + "\n" for line in (header[0], *sum(rows, ())))
