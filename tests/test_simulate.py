import math

import numpy as np
import pytest
from pytest import approx

from ocfield import (
    BLOCK,
    SystemParams,
    TrialStream,
    block_sinr,
    build_covariance,
    combiner_sinr,
    combiner_weights,
    conditional_outage_cdf,
    default_pzf_k,
    draw_channels,
    estimate_outage,
    estimate_outage_conditional,
    estimate_sir_moments,
    oc_sinr,
    outage_cdf,
    outage_interference_limited,
    outage_noise_limited,
    receiver_label,
    sample_ppp,
)
from ocfield.linalg import batch_quadratic_form_inverse
from ocfield.simulate import NetworkRealization

FIG_PARAMS = dict(alpha=3.5, sigma2=1e-5, d_r=10.0, beta=10.0**0.3)


def make_params(lam=1e-3, L=3, **overrides):
    kwargs = {**FIG_PARAMS, **overrides}
    return SystemParams(lam=lam, L=L, **kwargs)


def fixed_network(radii):
    radii = np.asarray(radii, dtype=float)
    return NetworkRealization(disk_radius=float(radii.max(initial=1.0)), radii=radii)


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
        net = sample_ppp(1e-3, 100, TrialStream(1).at(0))
        assert net.disk_radius == approx(178.41241161527712, rel=1e-12)

    def test_node_count_mean(self):
        stream = TrialStream(3)
        counts = [sample_ppp(1e-3, 100, stream.at(i)).node_count for i in range(10_000)]
        # 3-sigma window on the mean of Poisson(100) over 1e4 draws
        assert np.mean(counts) == approx(100.0, abs=3.0 * 10.0 / math.sqrt(10_000))

    def test_uniformity_second_moment(self):
        stream = TrialStream(5)
        sq = np.concatenate([sample_ppp(1e-3, 100, stream.at(i)).radii ** 2 for i in range(2000)])
        expected = 178.41241161527712**2 / 2.0
        assert np.mean(sq) == approx(expected, rel=0.02)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_ppp(0.0, 100, TrialStream(0).at(0))
        with pytest.raises(ValueError):
            sample_ppp(1e-3, 0, TrialStream(0).at(0))


class TestDrawChannels:
    def test_shapes(self):
        ch = draw_channels(4, 7, TrialStream(8).at(0))
        assert ch.desired.shape == (4,)
        assert ch.interferers.shape == (7, 4)

    def test_unit_entry_power_and_desired_norm(self):
        L = 4
        ch = draw_channels(L, 25_000 - 1, TrialStream(9).at(0))
        power = np.abs(ch.interferers) ** 2
        assert np.mean(power) == approx(1.0, abs=4.0 / math.sqrt(power.size))

        stream = TrialStream(10)
        norms = [
            float(np.vdot(d, d).real)
            for d in (draw_channels(L, 0, stream.at(i)).desired for i in range(100_000))
        ]
        assert np.mean(norms) == approx(L, abs=4.0 * math.sqrt(L / 100_000))

    def test_entry_power_is_unit_exponential(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        ch = draw_channels(1, 100_000 - 1, TrialStream(11).at(0))
        power = (np.abs(ch.interferers) ** 2).ravel()
        ks = scipy_stats.kstest(power, "expon").statistic
        assert ks < 0.01


class TestBuildCovariance:
    def test_empty_field_is_noise_only(self):
        net = fixed_network([])
        ch = draw_channels(3, 0, TrialStream(12).at(0))
        cov = build_covariance(net, ch, 0.3, 3.5)
        assert np.allclose(cov, 0.3 * np.eye(3), atol=0)

    def test_single_interferer_unit_distance(self):
        net = fixed_network([1.0])
        ch = draw_channels(2, 1, TrialStream(13).at(0))
        ch.interferers[0][:] = (1.0, 0.0)
        cov = build_covariance(net, ch, 0.0, 4.0)
        assert np.allclose(cov, [[1.0, 0.0], [0.0, 0.0]], atol=0)

    def test_trace_identity_and_hermitian(self):
        stream = TrialStream(14)
        for i in range(50):
            rng = stream.at(i)
            net = sample_ppp(2e-3, 50, rng)
            ch = draw_channels(4, net.node_count, rng)
            cov = build_covariance(net, ch, 1e-5, 3.5)
            powers = net.radii**-3.5
            expected = float(powers @ np.sum(np.abs(ch.interferers) ** 2, axis=1)) + 4 * 1e-5
            assert np.trace(cov).real == approx(expected, rel=1e-12)
            assert np.max(np.abs(cov - cov.conj().T)) <= 1e-14 * np.max(np.abs(cov))


class TestOcSinr:
    def test_pure_noise_unit_vector(self):
        net = fixed_network([])
        ch = draw_channels(2, 0, TrialStream(15).at(0))
        ch.desired[:] = (1.0, 0.0)
        params = make_params(lam=1e-9, L=2, sigma2=1.0, d_r=1.0)
        assert oc_sinr(net, ch, params) == approx(1.0, rel=1e-14)

    def test_pure_noise_generic_vector_is_norm(self):
        net = fixed_network([])
        params = make_params(lam=1e-9, L=3, sigma2=1.0, d_r=1.0)
        ch = draw_channels(3, 0, TrialStream(16).at(0))
        expected = float(np.vdot(ch.desired, ch.desired).real)
        assert oc_sinr(net, ch, params) == approx(expected, rel=1e-13)

    def test_single_antenna_scalar_reduction(self):
        params = make_params(lam=1e-3, L=1)
        rng = TrialStream(17).at(0)
        net = sample_ppp(params.lam, 60, rng)
        ch = draw_channels(1, net.node_count, rng)
        num = params.d_r**-params.alpha * abs(ch.desired[0]) ** 2
        den = float((net.radii**-params.alpha) @ (np.abs(ch.interferers[:, 0]) ** 2)) + params.sigma2
        assert oc_sinr(net, ch, params) == approx(num / den, rel=1e-12)

    def test_no_interference_no_noise_is_infinite(self):
        net = fixed_network([])
        ch = draw_channels(2, 0, TrialStream(18).at(0))
        params = make_params(lam=1e-9, L=2, sigma2=0.0)
        assert oc_sinr(net, ch, params) == math.inf


class TestCombiners:
    def test_optimum_weights_reproduce_oc_sinr(self):
        params = make_params(lam=1e-3, L=4)
        stream = TrialStream(19)
        for i in range(300):
            rng = stream.at(i)
            net = sample_ppp(params.lam, 100, rng)
            ch = draw_channels(params.L, net.node_count, rng)
            cov = build_covariance(net, ch, params.sigma2, params.alpha)
            w_oc = np.linalg.solve(cov, ch.desired)
            assert combiner_sinr(w_oc, net, ch, params) == approx(
                oc_sinr(net, ch, params, cov=cov), rel=1e-10
            )

    def test_mrc_in_pure_noise(self):
        net = fixed_network([])
        ch = draw_channels(3, 0, TrialStream(20).at(0))
        params = make_params(lam=1e-9, L=3, sigma2=1.0, d_r=1.0)
        expected = float(np.vdot(ch.desired, ch.desired).real)
        assert combiner_sinr(ch.desired, net, ch, params) == approx(expected, rel=1e-13)

    def test_random_weights_never_beat_optimum(self):
        params = make_params(lam=2e-3, L=3)
        stream = TrialStream(21)
        for i in range(200):
            rng = stream.at(i)
            net = sample_ppp(params.lam, 100, rng)
            ch = draw_channels(params.L, net.node_count, rng)
            cov = build_covariance(net, ch, params.sigma2, params.alpha)
            best = oc_sinr(net, ch, params, cov=cov)
            for _ in range(20):
                w = rng.standard_normal(params.L) + 1j * rng.standard_normal(params.L)
                assert combiner_sinr(w, net, ch, params) <= best * (1.0 + 1e-9)

    def test_zero_weights_rejected(self):
        net = fixed_network([1.0])
        ch = draw_channels(2, 1, TrialStream(22).at(0))
        with pytest.raises(ValueError):
            combiner_sinr(np.zeros(2, dtype=complex), net, ch, make_params(L=2))

    def test_zero_denominator_with_signal_is_infinite(self):
        net = fixed_network([])
        ch = draw_channels(2, 0, TrialStream(23).at(0))
        params = make_params(lam=1e-9, L=2, sigma2=0.0)
        assert combiner_sinr(ch.desired, net, ch, params) == math.inf


class TestCombinerWeights:
    def test_pzf_zero_is_mrc(self):
        rng = TrialStream(24).at(0)
        net = sample_ppp(1e-3, 50, rng)
        ch = draw_channels(3, net.node_count, rng)
        assert np.array_equal(combiner_weights("pzf", net, ch, pzf_k=0), ch.desired)

    def test_pzf_full_is_zf(self):
        rng = TrialStream(25).at(0)
        net = sample_ppp(1e-3, 50, rng)
        ch = draw_channels(3, net.node_count, rng)
        zf = combiner_weights("zf", net, ch)
        pzf = combiner_weights("pzf", net, ch, pzf_k=2)
        assert np.array_equal(zf, pzf)

    def test_default_pzf_cancel_count(self):
        assert [default_pzf_k(L) for L in (1, 2, 3, 4, 5)] == [1, 1, 2, 2, 3]

    def test_zf_orthogonal_to_strongest(self):
        rng = TrialStream(26).at(0)
        net = sample_ppp(1e-3, 80, rng)
        ch = draw_channels(4, net.node_count, rng)
        w = combiner_weights("zf", net, ch)
        strongest = np.argsort(net.radii, kind="stable")[:3]
        for k in strongest:
            b = ch.interferers[k]
            assert abs(np.vdot(w, b)) <= 1e-10 * np.linalg.norm(w) * np.linalg.norm(b)

    def test_ranking_ties_broken_by_index(self):
        net = fixed_network([5.0, 5.0, 1.0])
        ch = draw_channels(2, 3, TrialStream(27).at(0))
        w = combiner_weights("zf", net, ch)  # cancels min(3, 1) = 1: node 2 only
        b = ch.interferers[2]
        assert abs(np.vdot(w, b)) <= 1e-10 * np.linalg.norm(w) * np.linalg.norm(b)
        # then projecting out node 0 (not node 1) is what pzf_k=2 adds
        w2 = combiner_weights("pzf", net, ch, pzf_k=2)
        b0 = ch.interferers[0]
        assert abs(np.vdot(w2, b0)) <= 1e-10 * np.linalg.norm(w2) * np.linalg.norm(b0)

    def test_zf_cancels_at_most_available_nodes(self):
        net = fixed_network([2.0])
        ch = draw_channels(4, 1, TrialStream(28).at(0))
        w = combiner_weights("zf", net, ch)  # only one node to cancel
        b = ch.interferers[0]
        assert abs(np.vdot(w, b)) <= 1e-10 * np.linalg.norm(w) * np.linalg.norm(b)
        assert np.linalg.norm(w) > 0.0

    def test_unknown_receiver_rejected(self):
        net = fixed_network([1.0])
        ch = draw_channels(2, 1, TrialStream(29).at(0))
        with pytest.raises(ValueError):
            combiner_weights("dfe", net, ch)

    def test_labels(self):
        assert receiver_label("oc", 3) == "oc"
        assert receiver_label("pzf", 3) == "pzf2"
        assert receiver_label("pzf", 3, pzf_k=1) == "pzf1"


class TestConditionalOutage:
    def test_empty_field_reduces_to_noise_limited(self):
        for L in (1, 2, 4):
            for sg in ((1.0, 0.7), (0.3, 2.0), (0.0, 5.0)):
                got = conditional_outage_cdf([], sg[0], L, sg[1])
                assert got == approx(outage_noise_limited(L, sg[0], sg[1]), abs=1e-15)

    def test_single_antenna_closed_form(self):
        powers, sigma2, gamma = [0.5, 2.0, 0.1], 0.25, 1.5
        expected = 1.0 - math.exp(-sigma2 * gamma) / np.prod([1 + p * gamma for p in powers])
        assert conditional_outage_cdf(powers, sigma2, 1, gamma) == approx(expected, rel=1e-14)

    def test_two_antennas_two_unit_interferers(self):
        assert conditional_outage_cdf([1.0, 1.0], 0.0, 2, 1.0) == approx(0.25, rel=1e-14)

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
            est = estimate_outage_conditional(powers, sigma2, L, gamma, n_trials=20_000, master_seed=32)
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

    def test_worker_count_does_not_change_result(self):
        params = make_params(lam=2e-3, L=2)
        for n_trials in (1, 63, 64, 65, 4000):
            results = [
                estimate_outage(params, n_trials=n_trials, master_seed=35, workers=w)
                for w in (1, 2, 3, 8)
            ]
            assert all(r == results[0] for r in results), n_trials

    def test_env_var_controls_workers(self, monkeypatch):
        params = make_params(lam=2e-3, L=2)
        baseline = estimate_outage(params, n_trials=1500, master_seed=36, workers=1)
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
        params = make_params(lam=1.5e-3, L=3, sigma2=sigma2)
        stream = TrialStream(40)
        for i in range(300):
            rng = stream.at(i)
            net = sample_ppp(params.lam, 100, rng)
            ch = draw_channels(params.L, net.node_count, rng)
            cov = build_covariance(net, ch, params.sigma2, params.alpha)
            best = oc_sinr(net, ch, params, cov=cov)
            for receiver in ("mrc", "zf", "pzf"):
                w = combiner_weights(receiver, net, ch)
                value = combiner_sinr(w, net, ch, params) if w.any() else 0.0
                assert value <= best * (1.0 + 1e-9)


class TestBlockEngine:
    def test_rank_deficient_blocks_are_infinite_where_single_trials_are(self):
        # sigma2 = 0 and about one node per field: most trials have fewer
        # nodes than antennas, and blocks of one trial are often empty
        params = make_params(lam=1e-3, L=3, sigma2=0.0)
        stream = TrialStream(48)
        for b in range(200):
            block = block_sinr(params, "oc", stream.at(b), size=1, expected_count=1)
            rng = stream.at(b)  # a block of one draws what one trial draws
            net = sample_ppp(params.lam, 1, rng)
            single = oc_sinr(net, draw_channels(params.L, net.node_count, rng), params)
            assert math.isinf(block[0]) == math.isinf(single)
            if math.isfinite(single):
                assert block[0] == approx(single, rel=1e-10)

        desired, covs, expected = [], [], []
        for i in range(BLOCK):
            rng = stream.at(1000 + i)
            net = sample_ppp(params.lam, 1, rng)
            ch = draw_channels(params.L, net.node_count, rng)
            desired.append(ch.desired)
            covs.append(build_covariance(net, ch, 0.0, params.alpha))
            expected.append(oc_sinr(net, ch, params, cov=covs[-1]))
        got = batch_quadratic_form_inverse(np.array(desired), np.array(covs))
        got *= params.d_r ** (-params.alpha)
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
        low = 0
        for b in range(300):
            counts = stream.at(b).poisson(1, BLOCK)  # a block draws its node counts first
            sinr = block_sinr(params, "oc", stream.at(b), expected_count=1)
            assert np.isinf(sinr[counts < params.L]).all(), b
            low += int(np.count_nonzero(counts < params.L))
        with pytest.warns(UserWarning, match="infinite SIR"):
            est = estimate_sir_moments(params, n_trials=300 * BLOCK, master_seed=48, expected_count=1)
        assert est.n_infinite == low
        for i in range(2000):
            rng = stream.at(i)
            net = sample_ppp(params.lam, 1, rng)
            if net.node_count < params.L:
                ch = draw_channels(params.L, net.node_count, rng)
                assert oc_sinr(net, ch, params) == math.inf, i

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
    def test_noise_must_be_zero(self):
        with pytest.raises(ValueError):
            estimate_sir_moments(make_params(lam=1e-3, L=1), n_trials=10, master_seed=41)

    def test_distance_scaling_is_exact_per_sample(self):
        near = make_params(lam=1e-3, L=2, sigma2=0.0, d_r=1.0)
        far = make_params(lam=1e-3, L=2, sigma2=0.0, d_r=2.0)
        m_near = estimate_sir_moments(near, n_trials=3000, master_seed=42)
        m_far = estimate_sir_moments(far, n_trials=3000, master_seed=42)
        assert m_far.mean / m_near.mean == approx(2.0**-3.5, rel=1e-12)
        assert m_far.variance / m_near.variance == approx(2.0**-7.0, rel=1e-12)

    def test_infinite_samples_warn_and_are_counted(self):
        params = make_params(lam=1e-3, L=2, sigma2=0.0)
        with pytest.warns(UserWarning, match="infinite SIR"):
            est = estimate_sir_moments(params, n_trials=60, master_seed=43, expected_count=1)
        assert est.n_infinite > 0
        assert math.isfinite(est.mean)

    def test_worker_determinism(self):
        # n_trials = 1 is outside the domain (a variance needs two samples)
        params = make_params(lam=1e-3, L=1, sigma2=0.0)
        for n_trials in (63, 64, 65, 2000):
            results = [
                estimate_sir_moments(params, n_trials=n_trials, master_seed=44, workers=w)
                for w in (1, 2, 3, 8)
            ]
            assert all(r == results[0] for r in results), n_trials


class TestNearestNeighborIdentity:
    def test_lth_nearest_distance_matches_outage(self):
        # no noise: outage is the chance the L-th nearest node falls inside
        # the rescaled threshold radius
        from ocfield import delta_const

        lam, alpha, L = 1e-3, 3.5, 3
        gamma = 6309.573444801933
        r_star = math.sqrt(delta_const(alpha) / math.pi) * gamma ** (1.0 / alpha)
        stream = TrialStream(45)
        n = 20_000
        hits = 0
        for i in range(n):
            net = sample_ppp(lam, 100, stream.at(i))
            if net.node_count >= L and np.partition(net.radii, L - 1)[L - 1] < r_star:
                hits += 1
        p_hat = hits / n
        stderr = math.sqrt(p_hat * (1 - p_hat) / n)
        expected = outage_interference_limited(L, lam, alpha, gamma)
        assert abs(p_hat - expected) <= 4.0 * stderr
