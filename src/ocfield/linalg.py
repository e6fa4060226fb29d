"""Small dense complex Hermitian linear algebra.

Hand-rolled, unblocked routines: the matrices here are antenna-sized
(L <= ~16), and keeping the numeric core free of LAPACK keeps it auditable.
Only the lower triangle of a Hermitian input is ever read.  The `batch_`
routines loop over the n columns and vectorize over a stack of B matrices
(one block of Monte Carlo trials); the single-matrix forms are their B = 1
case.

Rank deficiency is expected, not exceptional: with zero noise and fewer
interferers than antennas the covariance is singular, and the quadratic form
on its inverse is legitimately infinite for a generic vector.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SINGULAR",
    "SingularIndication",
    "batch_project_out",
    "batch_quadratic_form_inverse",
    "cholesky",
    "project_out",
    "quadratic_form_inverse",
    "solve",
]

_EPS = float(np.finfo(np.float64).eps)


class SingularIndication:
    """Marker for a pivot collapse in `cholesky` (rank-deficient input)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "SINGULAR"


SINGULAR = SingularIndication()


def _pivot_tolerance(diag_max, n: int):
    # pivots at or below n * eps * max-diagonal count as collapsed
    return n * _EPS * np.maximum(diag_max, 0.0)


def _cholesky_psd(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Lower factor of a Hermitian PSD matrix, zeroing collapsed columns.

    Returns (g, deficient): g is lower triangular with g @ g.conj().T
    reproducing m on its numerical range; deficient lists the zeroed pivots.
    """
    a = np.array(m, dtype=np.complex128)
    n = a.shape[0]
    tol = _pivot_tolerance(max((a[j, j].real for j in range(n)), default=0.0), n)
    deficient: list[int] = []
    for j in range(n):
        if j:
            a[j:, j] -= a[j:, :j] @ a[j, :j].conj()
        pivot = a[j, j].real
        if pivot <= tol:
            deficient.append(j)
            a[j:, j] = 0.0
        else:
            a[j:, j] /= math.sqrt(pivot)
    return np.tril(a), deficient


def cholesky(m: np.ndarray) -> np.ndarray | SingularIndication:
    """Lower triangular G with G @ G^H = m, or SINGULAR on a pivot collapse.

    A SINGULAR return is information, not an error; callers that need the
    pseudo-inverse quadratic form go through `quadratic_form_inverse`.
    """
    g, deficient = _cholesky_psd(m)
    return SINGULAR if deficient else g


def solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with m @ x = b for Hermitian positive definite m."""
    g = cholesky(m)
    if g is SINGULAR:
        raise ValueError("matrix is singular to working precision")
    b = np.asarray(b, dtype=np.complex128)
    n = b.shape[0]
    y = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        y[i] = (b[i] - g[i, :i] @ y[:i]) / g[i, i]
    x = np.zeros(n, dtype=np.complex128)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - g[i + 1 :, i].conj() @ x[i + 1 :]) / g[i, i].real
    return x


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(v, v).real)


def batch_quadratic_form_inverse(c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """c_b^H m_b^{-1} c_b for a stack of Hermitian PSD matrices m (B, n, n).

    Pseudo-inverse semantics per matrix: if m_b is rank deficient and c_b has
    a component outside its column space the entry is inf; if c_b stays
    inside, the value on the pseudo-inverse is returned.  Fused Cholesky +
    forward substitution, left-looking over the n columns and vectorized over
    the stack; only the lower triangle of each m_b is read.
    """
    m = np.asarray(m)
    c = np.array(c, dtype=np.complex128)
    size, n = c.shape
    if m.shape != (size, n, n):
        raise ValueError(f"vectors {c.shape} do not match matrices {m.shape}")
    diag = m.diagonal(axis1=1, axis2=2).real
    tol = _pivot_tolerance(diag.max(axis=1, initial=0.0), n)
    g = np.zeros((size, n, n), dtype=np.complex128)  # lower factor, zero columns where collapsed
    y = c.copy()
    residual = np.zeros(size)
    deficient = np.zeros(size, dtype=bool)
    for j in range(n):
        gj = g[:, j, :j]
        pivot = diag[:, j] - np.vecdot(gj, gj).real
        r = y[:, j] - np.vecdot(gj.conj(), y[:, :j])
        ok = pivot > tol
        # a collapsed column is zeroed; row j of the factor then only
        # constrains consistency of c with the column space
        d = np.sqrt(np.where(ok, pivot, 1.0))
        y[:, j] = np.where(ok, r / d, 0.0)
        if not ok.all():
            deficient |= ~ok
            residual = np.where(ok, residual, np.maximum(residual, np.abs(r)))
        if j + 1 < n:
            col = m[:, j + 1 :, j] - np.vecdot(gj[:, None, :], g[:, j + 1 :, :j])
            g[:, j + 1 :, j] = np.where(ok[:, None], col / d[:, None], 0.0)
    value = np.vecdot(y, y).real
    value[deficient & (residual > tol * _norms(c))] = np.inf
    return value


def quadratic_form_inverse(c: np.ndarray, m: np.ndarray) -> float:
    """c^H m^{-1} c for one Hermitian PSD m: `batch_quadratic_form_inverse`
    on a stack of one, with the same pseudo-inverse and inf semantics."""
    c = np.asarray(c, dtype=np.complex128)
    m = np.asarray(m)
    if m.shape != (c.shape[0], c.shape[0]):
        raise ValueError(f"vector length {c.shape[0]} does not match matrix order {m.shape[0]}")
    return float(batch_quadratic_form_inverse(c[None], m[None])[0])


def batch_project_out(c: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Component of each c_b (B, n) orthogonal to the span of basis_b (B, k, n).

    Modified Gram-Schmidt, vectorized over the stack: each basis vector is
    re-orthogonalized twice against the accepted ones and kept when more than
    1e-10 of its norm survives (zero rows, such as padding, are never kept);
    then projection passes on c_b repeat, at most four, until a pass removes
    less than 1 - 0.7071 of its norm.  A row comes back as the zero vector
    when c_b lies in the span (callers read that as zero SINR).
    """
    w = np.array(c, dtype=np.complex128)
    vectors = np.asarray(basis, dtype=np.complex128)
    k = vectors.shape[1]
    ortho = np.zeros_like(vectors)  # accepted unit vectors; rejected slots stay zero
    rank = np.zeros(w.shape[0], dtype=np.int64)
    for j in range(k):
        v = vectors[:, j].copy()
        scale = _norms(v)
        for _ in range(2):
            for u in ortho[:, :j].swapaxes(0, 1):
                v -= np.vecdot(u, v)[:, None] * u
        size = _norms(v)
        keep = size > 1e-10 * scale
        ortho[:, j] = np.where(keep[:, None], v / np.where(keep, size, 1.0)[:, None], 0.0)
        rank += keep
    c_scale = _norms(w)
    size = c_scale
    active = rank > 0
    for _ in range(4):
        if not active.any():
            break
        before = size
        projected = w.copy()
        for u in ortho.swapaxes(0, 1):
            projected -= np.vecdot(u, projected)[:, None] * u
        w = np.where(active[:, None], projected, w)
        size = np.where(active, _norms(w), size)
        active &= size <= 0.7071 * before
    w[(rank > 0) & (size <= 4.0 * rank * _EPS * c_scale)] = 0.0
    return w


def project_out(c: np.ndarray, basis) -> np.ndarray:
    """Component of c orthogonal to span(basis): `batch_project_out` on a
    stack of one.  Returns the zero vector when c lies in the span."""
    c = np.asarray(c, dtype=np.complex128)
    vectors = np.array(list(basis), dtype=np.complex128).reshape(1, -1, c.shape[0])
    return batch_project_out(c[None], vectors)[0]
