"""Independent numerical oracles used only by the test suite.

These deliberately avoid the production code paths: the eigensolver is a
hand-rolled cyclic Jacobi (not the production Cholesky), the integrals use
adaptive quadrature, and the closed forms use scipy's special functions.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import optimize, special, stats
from scipy.integrate import quad


def jacobi_eigh(matrix, sweeps=100, tol=1e-14):
    """Eigendecomposition of a complex Hermitian matrix by cyclic Jacobi.

    Returns (eigenvalues, eigenvectors) with columns as eigenvectors.  The
    reconstruction is self-checked, so a broken rotation fails loudly here
    rather than silently blessing the code under test.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    scale = max(np.max(np.abs(a)), 1e-300)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = a[p, q]
                ab = abs(b)
                if ab <= tol * scale * 1e-2:
                    continue
                phase = b / ab
                tau = (a[q, q].real - a[p, p].real) / (2.0 * ab)
                # stable small root of t^2 - 2 tau t - 1 = 0
                if tau >= 0:
                    t = -1.0 / (tau + math.hypot(tau, 1.0))
                else:
                    t = 1.0 / (math.hypot(tau, 1.0) - tau)
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                u = np.eye(n, dtype=np.complex128)
                u[p, p] = c
                u[p, q] = -s * phase
                u[q, p] = s * np.conj(phase)
                u[q, q] = c
                a = u.conj().T @ a @ u
                a = 0.5 * (a + a.conj().T)
                v = v @ u
    eigenvalues = np.diag(a).real.copy()
    # oracle self-check: V diag(w) V^H must reproduce the input
    rebuilt = (v * eigenvalues) @ v.conj().T
    assert np.max(np.abs(rebuilt - np.asarray(matrix))) <= 1e-9 * scale, "jacobi oracle failed"
    return eigenvalues, v


def quadratic_form_pseudo_inverse_oracle(c, matrix, cutoff_scale=1e-10):
    """sum_k |v_k^H c|^2 / w_k over significant eigenpairs; inf if c touches
    the null space of a singular matrix."""
    w, v = jacobi_eigh(matrix)
    cutoff = cutoff_scale * max(w.max(initial=0.0), 0.0)
    proj = v.conj().T @ np.asarray(c, dtype=np.complex128)
    total = 0.0
    for wk, pk in zip(w, proj):
        mass = pk.real**2 + pk.imag**2
        if wk > cutoff:
            total += mass / wk
        elif mass > cutoff_scale * float(np.vdot(c, c).real):
            return math.inf
    return total


def delta_quadrature(alpha):
    """Plane integral constant by radial quadrature: 2*pi*int_0^inf s/(1+s^alpha) ds."""
    inner, _ = quad(lambda s: s / (1.0 + s**alpha), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    # substitute s -> 1/t on [1, inf)
    outer, _ = quad(lambda t: t ** (alpha - 3.0) / (t**alpha + 1.0), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * math.pi * (inner + outer)


def sir_moments(L, alpha, lam, d_r):
    """Mean and variance of the interference-limited SIR in closed form.

    E[SIR^m] = Gamma(L + m alpha/2) / Gamma(L) * s**m, s = d_r**-alpha /
    (lam Delta)**(alpha/2), with Delta = pi Gamma(1 + 2/alpha) Gamma(1 - 2/alpha);
    the gamma ratios are scipy's Pochhammer symbols.  The mean's ratio,
    Gamma(L + alpha/2) / Gamma(L), is the array gain.
    """
    delta = math.pi * special.gamma(1.0 + 2.0 / alpha) * special.gamma(1.0 - 2.0 / alpha)
    scale = d_r**-alpha / (lam * delta) ** (0.5 * alpha)
    first, second = special.poch(L, 0.5 * alpha), special.poch(L, alpha)
    return first * scale, (second - first * first) * scale * scale


def sir_moment_quadrature(L, alpha, lam, d_r, delta):
    """Mean and variance of the SIR by quadrature of its survival function."""
    coef = lam * delta * d_r**2

    def survival(beta):
        x = coef * beta ** (2.0 / alpha)
        term = math.exp(-x)
        total = term
        for i in range(1, L):
            term *= x / i
            total += term
        return total

    mean, _ = quad(survival, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400)
    second, _ = quad(lambda b: 2.0 * b * survival(b), 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400)
    return mean, second - mean * mean


def conditional_outage_bruteforce(powers, sigma2, L, gamma):
    """Conditional outage law by direct series expansion.

    Builds the Taylor coefficients of exp(sigma2*t) * prod_j (1 + P_j*t) by
    plain polynomial convolution (no symmetric-polynomial recurrence, no log
    domain), then evaluates 1 - sum_{i<L} a_i gamma^i / denominator.
    """
    poly = np.array([1.0])
    for p in np.asarray(powers, dtype=float):
        poly = np.convolve(poly, [1.0, p])[: L + 1]  # ascending powers of t
    expo = np.array([sigma2**k / math.factorial(k) for k in range(L)])
    coeffs = np.convolve(poly, expo)[:L]
    numerator = sum(a * gamma**i for i, a in enumerate(coeffs))
    denominator = math.exp(sigma2 * gamma) * float(
        np.prod([1.0 + p * gamma for p in np.asarray(powers, dtype=float)])
    )
    return 1.0 - numerator / denominator


def conditional_outage_poisson_binomial(powers, sigma2, L, gamma):
    """Conditional outage law as a Poisson-binomial count plus a Poisson count.

    P(sum_j Bernoulli(s_j / (1 + s_j)) + Poisson(sigma2 * gamma) >= L) with
    s_j = P_j * gamma: scipy's Poisson-binomial pmf convolved with scipy's
    Poisson pmf, no recurrence shared with the code under test.
    """
    scaled = np.asarray(powers, dtype=float) * gamma
    counts = np.arange(min(scaled.size, L - 1) + 1)
    if scaled.size:
        bernoulli = stats.poisson_binom(scaled / (1.0 + scaled)).pmf(counts)
    else:
        bernoulli = np.ones(1)
    below = float(np.sum(bernoulli * stats.poisson.cdf(L - 1 - counts, sigma2 * gamma)))
    return 1.0 - below


def project_out_qr(c, basis):
    """c minus its projection onto the span of the nonzero rows of basis,
    through numpy's (LAPACK) QR factorization of those rows."""
    rows = np.asarray(basis, dtype=np.complex128)
    rows = rows[np.any(rows != 0.0, axis=1)]
    c = np.asarray(c, dtype=np.complex128)
    if rows.shape[0] == 0:
        return c.copy()
    q, _ = np.linalg.qr(rows.T)
    return c - q @ (q.conj().T @ c)


def finite_disk_outage(lam, L, alpha, sigma2, gamma, expected_count):
    """Exact outage for the truncated field actually simulated: the Poisson
    averaging argument on a finite disk, with the radial integral done by
    quadrature."""
    radius = math.sqrt(expected_count / (lam * math.pi))
    integral, _ = quad(
        lambda r: 2.0 * math.pi * gamma * r ** (1.0 - alpha) / (1.0 + gamma * r**-alpha),
        0.0,
        radius,
        limit=400,
    )
    x = lam * integral + sigma2 * gamma
    term = math.exp(-x)
    total = term
    for i in range(1, L):
        term *= x / i
        total += term
    return 1.0 - total


def throughput_optimum(L, noise):
    """(u*, t*) maximizing t(u) = u * P(Poisson(u + noise) < L) over u > 0.

    brentq on the first-order condition P(Poisson(x) < L) = u * pmf(L-1; x),
    x = u + noise, compared in logs through scipy's regularized incomplete
    gamma function, so large L neither underflows nor overflows.
    """

    def condition(u):
        x = u + noise
        log_pmf = (L - 1) * math.log(x) - x - special.gammaln(L)
        return math.log(special.gammaincc(L, x)) - math.log(u) - log_pmf

    u = optimize.brentq(condition, 1e-9, 2.0 * L, xtol=1e-15 * L, rtol=1e-15, maxiter=500)
    return u, u * float(special.gammaincc(L, u + noise))


def contention_q_scaled(L, t):
    """exp(-t) * Q(t) with Q(t) = sum_{i<L} t**i/i! - t**L/(L-1)!.

    Q is summed exactly in rationals at the float t, so its sign is exact
    (Q(1) = 0 at L = 1); only the final rounding and the exp(-t) factor are
    inexact.
    """
    x = Fraction(t)
    term = total = Fraction(1)
    for i in range(1, L):
        term *= x / i
        total += term
    return math.exp(-t) * float(total - term * x)
