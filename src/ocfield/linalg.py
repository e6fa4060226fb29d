"""Small dense complex Hermitian linear algebra, batched over a stack.

Hand-rolled, unblocked routines: the matrices here are antenna-sized
(L <= 256, the simulator's cap), and keeping the numeric core free of LAPACK
keeps it auditable.  Only the lower triangle of a Hermitian input is ever
read.  Each routine loops over the n columns (the projection over its k
basis vectors) and vectorizes over a stack of B matrices (one block of Monte
Carlo trials); one matrix is a stack of one.  The projection takes O(k)
batched calls: each of its passes removes all accepted vectors at once.

Rank deficiency is expected, not exceptional: with zero noise and fewer
interferers than antennas the covariance is singular, and the quadratic form
on its inverse is legitimately infinite for a generic vector.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batch_project_out", "batch_quadratic_form_inverse"]

_EPS = float(np.finfo(np.float64).eps)


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
    c = np.asarray(c, dtype=np.complex128)
    size, n = c.shape
    if m.shape != (size, n, n):
        raise ValueError(f"vectors {c.shape} do not match matrices {m.shape}")
    diag = m.diagonal(axis1=1, axis2=2).real
    # pivots at or below n * eps * max-diagonal count as collapsed
    tol = n * _EPS * np.maximum(diag.max(axis=1, initial=0.0), 0.0)
    g = np.zeros((size, n, n), dtype=np.complex128)  # lower factor, zero columns where collapsed
    y = c.copy()
    residual = np.zeros(size)  # stays 0 unless a pivot collapses
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
            residual = np.where(ok, residual, np.maximum(residual, np.abs(r)))
        if j + 1 < n:
            col = m[:, j + 1 :, j] - np.vecdot(gj[:, None, :], g[:, j + 1 :, :j])
            g[:, j + 1 :, j] = np.where(ok[:, None], col / d[:, None], 0.0)
    value = np.vecdot(y, y).real
    value[residual > tol * _norms(c)] = np.inf
    return value


def batch_project_out(c: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Component of each c_b (B, n) orthogonal to the span of basis_b (B, k, n).

    Classical Gram-Schmidt run twice (CGS2), vectorized over the stack: each
    basis vector, and then c_b, loses its components along all the accepted
    vectors at once, by two batched products per pass, in two passes.  That
    keeps the accepted vectors orthonormal to machine precision whenever the
    basis is numerically nonsingular (L. Giraud, J. Langou and
    M. Rozloznik, "The loss of orthogonality in the Gram-Schmidt
    orthogonalization process", Computers & Mathematics with Applications
    50, 2005).  A basis vector is kept when more than 1e-10 of its norm
    survives (zero rows, such as padding, are never kept).  A row comes back
    as the zero vector when c_b lies in the span (callers read that as zero
    SINR).
    """
    w = np.array(c, dtype=np.complex128)
    vectors = np.asarray(basis, dtype=np.complex128)
    k = vectors.shape[1]
    ortho = np.zeros_like(vectors)  # accepted unit vectors; rejected slots stay zero
    rank = np.zeros(w.shape[0], dtype=np.int64)
    for j in range(k + 1):
        v = vectors[:, j].copy() if j < k else w  # c last, against the whole basis
        scale = _norms(v)
        accepted = ortho[:, :j]
        for _ in range(2 if j else 0):
            v -= (np.vecdot(accepted, v[:, None])[:, None] @ accepted)[:, 0]
        size = _norms(v)
        if j == k:
            v[(rank > 0) & (size <= 4.0 * rank * _EPS * scale)] = 0.0
            return v
        keep = size > 1e-10 * scale
        ortho[:, j] = np.where(keep[:, None], v / np.where(keep, size, 1.0)[:, None], 0.0)
        rank += keep
