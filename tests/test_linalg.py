import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from ocfield import BLOCK, TrialStream
from ocfield.cli import ScenarioConfig, default_lambda_grid
from ocfield.linalg import batch_project_out, batch_quadratic_form_inverse
from ocfield.simulate import _channel_block, _covariance, _draw_fields

from _oracles import project_out_qr, quadratic_form_pseudo_inverse_oracle


def one_quadratic_form(c, m):
    """c^H m^{-1} c for one matrix: the batched routine on a stack of one."""
    return float(batch_quadratic_form_inverse(np.asarray(c)[None], np.asarray(m)[None])[0])


def one_projection(c, basis):
    """c projected orthogonal to span(basis): the batched routine on a stack of one."""
    c = np.asarray(c, dtype=np.complex128)
    basis = np.array(basis, dtype=np.complex128).reshape(1, -1, c.shape[0])
    return batch_project_out(c[None], basis)[0]


def random_hermitian_pd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + np.eye(n)


def random_hermitian_psd(rng, n, rank):
    a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return a @ a.conj().T, a


def inverse_from_quadratic_forms(m):
    """m^{-1} read back from the fused Cholesky route alone, by polarization:
    x^H A x at x = e_i, e_i + e_j and e_i + 1j e_j gives every entry of a
    Hermitian A (entries are inf where m is singular)."""
    n = m.shape[0]
    eye = np.eye(n, dtype=complex)
    i, j = np.triu_indices(n, 1)
    vectors = np.concatenate([eye, eye[i] + eye[j], eye[i] + 1j * eye[j]])
    q = batch_quadratic_form_inverse(vectors, np.broadcast_to(m, (len(vectors), n, n)))
    d, re, im = q[:n], q[n : n + len(i)], q[n + len(i) :]
    a = np.diag(d).astype(complex)
    a[i, j] = (re - d[i] - d[j]) / 2 + 1j * (d[i] + d[j] - im) / 2
    a[j, i] = a[i, j].conj()
    return a


class TestCholesky:
    """The Cholesky factorization fused into `batch_quadratic_form_inverse`,
    checked through the inverse it implies."""

    def test_identity(self):
        a = inverse_from_quadratic_forms(np.eye(2, dtype=complex))
        assert np.allclose(a, np.eye(2), atol=1e-15)

    def test_diagonal(self):
        a = inverse_from_quadratic_forms(np.diag([4.0 + 0j, 9.0]))
        assert np.allclose(a, np.diag([1 / 4, 1 / 9]), atol=1e-15)

    def test_rank_one_reports_singular(self):
        v = np.array([1.0, 1.0j])
        m = np.outer(v, v.conj())
        eye = np.eye(2, dtype=complex)
        assert np.all(batch_quadratic_form_inverse(eye, np.stack([m, m])) == math.inf)

    def test_zero_matrix_reports_singular(self):
        m = np.zeros((2, 3, 3), dtype=complex)
        c = np.array([[1.0, -2.0j, 0.5], [0.0, 0.0, 0.0]])
        assert list(batch_quadratic_form_inverse(c, m)) == [math.inf, 0.0]

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            m = random_hermitian_pd(rng, n)
            a = inverse_from_quadratic_forms(m)
            assert np.max(np.abs(m @ a - np.eye(n))) <= 1e-12

    def test_reads_lower_triangle_only(self):
        rng = np.random.default_rng(5)
        m = random_hermitian_pd(rng, 4)
        corrupted = m.copy()
        corrupted[np.triu_indices(4, 1)] = 123.0 + 456.0j
        c = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        got = batch_quadratic_form_inverse(c, np.stack([corrupted] * 8))
        assert np.array_equal(got, batch_quadratic_form_inverse(c, np.stack([m] * 8)))


class TestQuadraticFormInverse:
    def test_unit_vector_identity(self):
        assert one_quadratic_form(np.array([1.0, 0j]), np.eye(2, dtype=complex)) == approx(1.0)

    def test_diagonal(self):
        m = np.diag([2.0 + 0j, 5.0])
        assert one_quadratic_form(np.array([1.0, 0j]), m) == approx(0.5, rel=1e-15, abs=0.0)

    def test_outside_column_space_is_infinite(self):
        v = np.array([1.0, 1.0j])
        m = np.outer(v, v.conj())
        c = np.array([1.0, 1.0j * -1.0])  # orthogonal to v
        assert np.vdot(v, c) == approx(0.0)
        assert one_quadratic_form(c, m) == math.inf

    def test_inside_column_space_uses_pseudo_inverse(self):
        v = np.array([1.0, 1.0j])
        m = np.outer(v, v.conj())
        c = 2.0 * v
        # m^+ = v v^H / |v|^4, so c = a v gives c^H m^+ c = |a|^2
        assert one_quadratic_form(c, m) == approx(4.0, rel=1e-12)
        assert one_quadratic_form(c, m) == approx(
            quadratic_form_pseudo_inverse_oracle(c, m), rel=1e-10
        )

    def test_vector_length_checked(self):
        with pytest.raises(ValueError):
            one_quadratic_form(np.array([1.0 + 0j]), np.eye(2, dtype=complex))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_jacobi_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(25):
            m = random_hermitian_pd(rng, n)
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            expected = quadratic_form_pseudo_inverse_oracle(c, m)
            assert one_quadratic_form(c, m) == approx(expected, rel=1e-8)

    @pytest.mark.parametrize("n,rank", [(3, 1), (4, 2), (6, 3)])
    def test_singular_generic_vector_infinite(self, n, rank):
        rng = np.random.default_rng(300 + n)
        for _ in range(25):
            m, _ = random_hermitian_psd(rng, n, rank)
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert one_quadratic_form(c, m) == math.inf

    @pytest.mark.parametrize("n,rank", [(3, 1), (4, 2), (6, 4)])
    def test_singular_in_span_matches_oracle(self, n, rank):
        rng = np.random.default_rng(400 + n)
        for _ in range(25):
            m, a = random_hermitian_psd(rng, n, rank)
            c = a @ (rng.standard_normal(rank) + 1j * rng.standard_normal(rank))
            value = one_quadratic_form(c, m)
            assert math.isfinite(value)
            assert value == approx(quadratic_form_pseudo_inverse_oracle(c, m), rel=1e-8)

    def test_agrees_with_cholesky_route(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5):
            for _ in range(10):
                m = random_hermitian_pd(rng, n)
                c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                x = np.linalg.solve(m, c)
                assert one_quadratic_form(c, m) == approx(
                    float(np.vdot(c, x).real), rel=1e-12, abs=0.0
                )

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = random_hermitian_pd(rng, 4)
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert one_quadratic_form(c, m) >= 0.0


class TestProjectOut:
    def test_plain_projection(self):
        w = one_projection(np.array([1.0, 1.0 + 0j]), [np.array([1.0, 0j])])
        assert np.allclose(w, [0.0, 1.0], atol=1e-15)

    def test_empty_basis_is_identity(self):
        c = np.array([1.0 + 2.0j, -3.0])
        assert np.array_equal(one_projection(c, []), c)

    def test_containment_returns_zero(self):
        c = np.array([1.0, 1.0j])
        assert np.array_equal(one_projection(c, [c]), np.zeros(2, dtype=complex))

    def test_scaled_containment_returns_zero(self):
        c = np.array([1.0, 1.0j, 0.5 - 2j])
        w = one_projection(3.7j * c, [c])
        assert np.array_equal(w, np.zeros(3, dtype=complex))

    def test_orthogonality_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n))
            basis = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)]
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = one_projection(c, basis)
            wn = np.linalg.norm(w)
            for b in basis:
                assert abs(np.vdot(w, b)) <= 1e-10 * wn * np.linalg.norm(b)

    def test_idempotent(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            basis = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)]
            c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            once = one_projection(c, basis)
            twice = one_projection(once, basis)
            assert np.linalg.norm(twice - once) <= 1e-12 * max(np.linalg.norm(once), 1e-300)

    def test_dependent_basis_handled(self):
        b = np.array([1.0, 2.0j, 0.0])
        w = one_projection(np.array([0j, 0.0, 1.0]), [b, 2.0 * b, 0.0 * b])
        assert np.allclose(w, [0.0, 0.0, 1.0], atol=1e-14)


class TestBatched:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_quadratic_form_matches_numpy_solve(self, n):
        rng = np.random.default_rng(500 + n)
        m = np.stack([random_hermitian_pd(rng, n) for _ in range(64)])
        c = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
        got = batch_quadratic_form_inverse(c, m)
        for b in range(64):
            expected = float(np.vdot(c[b], np.linalg.solve(m[b], c[b])).real)
            assert got[b] == approx(expected, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 3), (8, 7), (8, 4)])
    def test_projection_matches_qr_oracle(self, n, k):
        rng = np.random.default_rng(600 + 10 * n + k)
        basis = rng.standard_normal((64, k, n)) + 1j * rng.standard_normal((64, k, n))
        basis[rng.random((64, k)) < 0.3] = 0.0  # padding rows, as in a block
        c = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
        got = batch_project_out(c, basis)
        for b in range(64):
            expected = project_out_qr(c[b], basis[b])
            assert np.linalg.norm(got[b] - expected) <= 1e-10 * np.linalg.norm(c[b])

    @pytest.mark.parametrize("n,k", [(8, 7), (16, 15)])
    def test_projection_matches_qr_oracle_under_block_scaling(self, n, k):
        # a block's rows carry amplitudes r**(-alpha/2) over many decades;
        # zero rows (padding) and exact duplicates must not count as rank
        rng = np.random.default_rng(800 + 10 * n + k)
        for _ in range(20):
            rows = rng.standard_normal((64, k - 2, n)) + 1j * rng.standard_normal((64, k - 2, n))
            rows *= 10.0 ** rng.uniform(-150.0, 150.0, (64, k - 2, 1))
            twin = np.take_along_axis(rows, rng.integers(0, k - 2, (64, 1, 1)), axis=1)
            basis = np.concatenate([rows, twin, np.zeros((64, 1, n))], axis=1)
            order = rng.permuted(np.tile(np.arange(k), (64, 1)), axis=1)
            basis = np.take_along_axis(basis, order[:, :, None], axis=1)
            c = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
            got = batch_project_out(c, basis)
            for b in range(64):
                expected = project_out_qr(c[b], rows[b])
                assert np.linalg.norm(got[b] - expected) <= 1e-10 * np.linalg.norm(c[b])

    @pytest.mark.parametrize("n,k", [(8, 7), (8, 4), (16, 15)])
    def test_projection_of_a_nearly_contained_vector_is_orthogonal(self, n, k):
        # c within 1e-8 of the span: one pass leaves about eps * |c| of it in
        # the span, which is 1e-8 of the projected w itself
        rng = np.random.default_rng(700 + 10 * n + k)
        basis = rng.standard_normal((64, k, n)) + 1j * rng.standard_normal((64, k, n))
        mix = rng.standard_normal((64, k)) + 1j * rng.standard_normal((64, k))
        off = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
        c = np.einsum("bk,bkn->bn", mix, basis) + 1e-8 * off
        w = batch_project_out(c, basis)
        for b in range(64):
            q, _ = np.linalg.qr(basis[b].T)
            assert np.linalg.norm(w[b]) > 0.0
            assert np.linalg.norm(q.conj().T @ w[b]) <= 1e-13 * np.linalg.norm(w[b])


class TestScaleInvariance:
    @pytest.mark.parametrize("alpha", [
        3.5,
        pytest.param(12.0, marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="ROADMAP item 1: the pseudo-inverse branch's residual test carries "
            "the units of the matrix",
        )),
    ])
    def test_power_of_two_scale_is_bitwise_exact(self, alpha):
        # scaling R by an even power of two scales every pivot, square root
        # and substitution exactly, so c^H (2^j R)^{-1} c * 2^j must equal
        # c^H R^{-1} c bit for bit; the blocks are the engine's at the top of
        # the default grid with sigma2 = 0 and L = 4 (6,400 trials), and
        # 2^-200 * R stays clear of the subnormal range
        config = ScenarioConfig(alpha=alpha, sigma2=0.0, antennas=(4,), lambda_points=3)
        lam = default_lambda_grid(config)[-1]
        stream = TrialStream(12)
        mismatches = dict.fromkeys((-200, -60, -20, 20, 60, 200), 0)
        for b in range(100):
            block = [(stream.at(b), BLOCK)]
            _, counts, radii = _draw_fields(lam, 100, block)
            desired, a = _channel_block(counts, radii ** (-0.5 * alpha), 4, block)
            cov = _covariance(a, 0.0)
            base = batch_quadratic_form_inverse(desired, cov)
            for j in mismatches:
                scaled = batch_quadratic_form_inverse(desired, cov * 2.0**j) * 2.0**j
                mismatches[j] += int(np.count_nonzero(scaled != base))
        assert not any(mismatches.values()), mismatches


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_reconstruction_randomized(seed, n):
    rng = np.random.default_rng(seed)
    m = random_hermitian_pd(rng, n)
    a = inverse_from_quadratic_forms(m)
    assert np.all(np.isfinite(a))
    assert np.max(np.abs(m @ a - np.eye(n))) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_jacobi_agreement_randomized(seed, n):
    rng = np.random.default_rng(seed)
    m = random_hermitian_pd(rng, n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert one_quadratic_form(c, m) == approx(
        quadratic_form_pseudo_inverse_oracle(c, m), rel=1e-8
    )
