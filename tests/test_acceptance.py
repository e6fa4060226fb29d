"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  The Monte Carlo criteria use pinned seeds, so outcomes are
reproducible bit for bit.
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy import stats

from ocfield import (
    BLOCK,
    SystemParams,
    TrialStream,
    block_sinr,
    contention_optimum,
    delta_const,
    estimate_outage,
    gamma_from_beta,
    outage_cdf,
)
from ocfield.domains import RECEIVERS
from ocfield.simulate import _block_sinrs

from _frozen_field import conditional_outage_cdf, estimate_outage_conditional
from _oracles import contention_q_scaled, delta_quadrature

BETA_3DB = 10.0**0.3
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def fig1_params(lam: float, L: int) -> SystemParams:
    return SystemParams(lam=lam, alpha=3.5, sigma2=1e-5, d_r=10.0, L=L, beta=BETA_3DB)


def g_root(L: int) -> float:
    # g(L) is the noise-free optimum load, whatever alpha and gamma
    return contention_optimum(L, 3.5, 1.0).g


def interference_limited_outage(L: int, lam: float, alpha: float, gamma: float) -> float:
    # at d_r = 1 the threshold beta is gamma itself
    return outage_cdf(SystemParams(lam=lam, alpha=alpha, sigma2=0.0, d_r=1.0, L=L, beta=gamma))


def test_criterion_1_closed_form_agreement():
    # Densities are kept in the regime where the finite-disk truncation bias
    # (expected_count=100 nodes) stays well inside the 4-sigma sampling
    # tolerance at 1e5 trials; the figure-wide range is validated against the
    # exact finite-disk reference in test_mc_validation.py, where the bias at
    # high density is also quantified.
    grid = np.exp(np.linspace(math.log(3.5e-4), math.log(8.5e-4), 10))
    n_trials = 100_000
    started = time.perf_counter()
    worst = []
    ok = True
    for L in (1, 2, 3, 4):
        passing = 0
        max_pull = 0.0
        for k, lam in enumerate(grid):
            params = fig1_params(float(lam), L)
            est = estimate_outage(
                params, n_trials=n_trials, master_seed=10_000 + 100 * L + k, expected_count=100
            )
            pull = abs(est.p_hat - outage_cdf(params)) / max(est.stderr, 1e-12)
            max_pull = max(max_pull, pull)
            passing += pull <= 4.0
        worst.append(f"L={L}: {passing}/10 (max {max_pull:.2f} sigma)")
        ok = ok and passing >= 9
    elapsed = time.perf_counter() - started
    report(1, "closed-form outage agreement", ok, f"{'; '.join(worst)}; {elapsed:.0f}s")


def test_criterion_2_conditional_oracle():
    rng = np.random.default_rng(20_202)
    n_draws = 100_000
    failures = []
    worst = 0.0
    inner_edge = {1: 1.6, 2: 1.1, 3: 0.85, 4: 0.7}  # keeps every outage mid-range
    for k in range(20):
        L = 1 + k % 4
        n_nodes = 5 + k  # 5..24, under the 30-node cap
        sigma2 = 0.0 if k % 2 == 0 else 1e-5
        gamma = gamma_from_beta(BETA_3DB, 10.0, 3.5)
        r_star = gamma ** (1.0 / 3.5)
        radii = r_star * (inner_edge[L] + 2.2 * rng.random(n_nodes))
        powers = radii**-3.5
        exact = conditional_outage_cdf(powers, sigma2, L, gamma)
        assert 0.01 < exact < 0.99, "realization lost its statistical power"
        est = estimate_outage_conditional(
            powers, sigma2, L, gamma, n_trials=n_draws, master_seed=20_000 + k
        )
        pull = abs(est.p_hat - exact) / max(est.stderr, 1e-12)
        worst = max(worst, pull)
        if pull > 4.0:
            failures.append(k)
    report(
        2,
        "conditional-law oracle",
        not failures,
        f"20 realizations, 1e5 draws each, max {worst:.2f} sigma",
    )


def test_criterion_3_receiver_ordering():
    params = SystemParams(lam=1.5e-3, alpha=3.5, sigma2=0.0, d_r=10.0, L=3, beta=BETA_3DB)
    stream = TrialStream(30_001)
    violations = 0
    n_blocks = -(-10_000 // BLOCK)  # at least 10,000 trials
    n = n_blocks * BLOCK
    for b in range(n_blocks):
        # one draw of block b's fields and channels serves every receiver
        best, *others = _block_sinrs(params, RECEIVERS, [(stream.at(b), BLOCK)], 100, None)
        for value in others:
            violations += int(np.count_nonzero(value > best * (1.0 + 1e-9)))
    report(3, "per-trial optimality", violations == 0, f"{violations} violations in {n} trials x 3 combiners")


def test_criterion_4_contention_root():
    ok = True
    details = []
    worst_residual = 0.0
    for L in range(1, 201):
        g = g_root(L)
        residual = abs(contention_q_scaled(L, g))
        worst_residual = max(worst_residual, residual)
        if not (0.5 * L <= g <= L and residual <= 1e-10):
            ok = False
            details.append(f"L={L}")
    if g_root(1) != 1.0:
        ok = False
        details.append("g(1) not exact")
    if abs(g_root(2) - GOLDEN) > 1e-12:
        ok = False
        details.append("g(2) off the golden ratio")
    gamma = delta_const(4.0) ** -2.0  # unit normalized geometry at alpha = 4
    for L in range(1, 6):
        opt = contention_optimum(L, 4.0, gamma)
        lam_star, t_star = opt.lambda_max, opt.t_max
        for k in range(1000):
            lam = lam_star * (0.01 + (3.0 - 0.01) * k / 999.0)
            t = lam * (1.0 - interference_limited_outage(L, lam, 4.0, gamma))
            if t > t_star + 1e-12:
                ok = False
                details.append(f"optimality L={L}")
                break
    report(
        4,
        "contention root and optimality",
        ok,
        details[0] if details else f"L=1..200, max |Q(g)| = {worst_residual:.2e}",
    )


def test_criterion_5_linear_scaling():
    gamma = 977.0
    alpha = 3.5
    area = delta_const(alpha) * gamma ** (2.0 / alpha)
    base = contention_optimum(1, alpha, gamma).lambda_max
    ok = True
    notes = []
    for L in range(1, 65):
        ratio = contention_optimum(L, alpha, gamma).lambda_max / base
        if abs(ratio - g_root(L)) > 1e-12 * g_root(L):
            ok = False
            notes.append(f"ratio L={L}")
        if not (0.5 <= g_root(L) / L <= 1.0):
            ok = False
            notes.append(f"bounds L={L}")
    counts = np.arange(4, 65)
    values = np.array([contention_optimum(int(L), alpha, gamma).lambda_max for L in counts])
    slope = float(np.polyfit(counts, values, 1)[0])
    lo, hi = 0.5 / area, 1.0 / area
    if not lo <= slope <= hi:
        ok = False
        notes.append(f"slope {slope:.3e} outside [{lo:.3e}, {hi:.3e}]")
    report(
        5,
        "linear density scaling",
        ok,
        notes[0] if notes else f"slope = {slope * area:.3f} in units of the normalized area",
    )


def test_criterion_6_sir_moments():
    lam = 1.0 / delta_const(4.0)  # lam * Delta = 1
    params = SystemParams(lam=lam, alpha=4.0, sigma2=0.0, d_r=1.0, L=1, beta=1.0)
    stream = TrialStream(60_001)
    started = time.perf_counter()
    sir = np.concatenate([block_sinr(params, "oc", stream.at(b)) for b in range(1_000_000 // BLOCK)])
    elapsed = time.perf_counter() - started
    n_infinite = int(np.count_nonzero(np.isinf(sir)))
    mean, variance = float(np.mean(sir)), float(np.var(sir, ddof=1))
    mean_ok = abs(mean - 2.0) <= 0.10 * 2.0
    var_ok = abs(variance - 20.0) <= 0.25 * 20.0
    report(
        6,
        "SIR moments",
        mean_ok and var_ok and n_infinite == 0,
        f"mean {mean:.4f} (target 2 +- 10%), var {variance:.2f} (target 20 +- 25%), {elapsed:.0f}s",
    )


def test_criterion_7_geometry_constant():
    worst = 0.0
    for alpha in (2.5, 3.0, 3.5, 4.0, 5.0):
        worst = max(worst, abs(delta_const(alpha) - delta_quadrature(alpha)))
    report(7, "geometry constant cross-check", worst <= 1e-8, f"max |closed form - quadrature| = {worst:.2e}")


def test_criterion_8_identity_suite():
    ok = True
    notes = []
    rng = np.random.default_rng(80_808)

    # reduction to the no-interference form, the chi-square CDF of the SNR,
    # and to the no-noise form, a Poisson count reaching L in the disk of
    # radius sqrt(Delta/pi) * gamma**(1/alpha)
    worst_chi2 = worst_gap = 0.0
    for _ in range(200):
        alpha = float(rng.uniform(2.1, 6.0))
        L = int(rng.integers(1, 12))
        beta = float(rng.uniform(0.05, 20.0))
        d_r = float(rng.uniform(0.5, 20.0))
        sigma2 = float(rng.uniform(0.0, 2.0))
        lam = float(rng.uniform(0.0, 0.01))
        gamma = gamma_from_beta(beta, d_r, alpha)
        p_noise = SystemParams(lam=0.0, alpha=alpha, sigma2=sigma2, d_r=d_r, L=L, beta=beta)
        expected = float(stats.chi2.cdf(2.0 * sigma2 * gamma, 2 * L))
        worst_chi2 = max(worst_chi2, abs(outage_cdf(p_noise) - expected))
        p_int = SystemParams(lam=lam, alpha=alpha, sigma2=0.0, d_r=d_r, L=L, beta=beta)
        radius = math.sqrt(delta_const(alpha) / math.pi) * gamma ** (1.0 / alpha)
        expected = float(stats.poisson.sf(L - 1, lam * math.pi * radius**2))
        worst_gap = max(worst_gap, abs(outage_cdf(p_int) - expected))
    if worst_chi2 > 1e-14:
        ok = False
        notes.append(f"noise-limited reduction gap {worst_chi2:.2e}")

    # Poisson-count-in-disk identity over a wider range of thresholds
    for _ in range(200):
        alpha = float(rng.uniform(2.1, 6.0))
        L = int(rng.integers(1, 10))
        lam = float(rng.uniform(1e-5, 5e-3))
        gamma = float(rng.uniform(1.0, 1e4))
        radius = math.sqrt(delta_const(alpha) / math.pi) * gamma ** (1.0 / alpha)
        expected = float(stats.poisson.sf(L - 1, lam * math.pi * radius**2))
        worst_gap = max(worst_gap, abs(interference_limited_outage(L, lam, alpha, gamma) - expected))
    if worst_gap > 1e-14:
        ok = False
        notes.append(f"Poisson-radius identity gap {worst_gap:.2e}")

    # monotonicity over a deterministic 1000-point sweep
    checked = 0
    for _ in range(250):
        alpha = float(rng.uniform(2.1, 6.0))
        L = int(rng.integers(1, 10))
        beta = float(rng.uniform(0.05, 50.0))
        d_r = float(rng.uniform(0.5, 20.0))
        sigma2 = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 0.01))
        base = SystemParams(lam=lam, alpha=alpha, sigma2=sigma2, d_r=d_r, L=L, beta=beta)
        f = outage_cdf(base)
        up = (
            outage_cdf(SystemParams(lam=lam, alpha=alpha, sigma2=sigma2, d_r=d_r, L=L, beta=beta * 1.7)),
            outage_cdf(SystemParams(lam=lam * 1.9, alpha=alpha, sigma2=sigma2, d_r=d_r, L=L, beta=beta)),
            outage_cdf(SystemParams(lam=lam, alpha=alpha, sigma2=sigma2 * 1.3 + 1e-6, d_r=d_r, L=L, beta=beta)),
            outage_cdf(SystemParams(lam=lam, alpha=alpha, sigma2=sigma2, d_r=d_r * 1.2, L=L, beta=beta)),
        )
        down = outage_cdf(SystemParams(lam=lam, alpha=alpha, sigma2=sigma2, d_r=d_r, L=L + 1, beta=beta))
        checked += 4
        if any(v < f - 1e-15 for v in up) or down > f + 1e-15:
            ok = False
            notes.append("monotonicity sweep failed")
            break
    report(
        8,
        "identity suite",
        ok,
        notes[0]
        if notes
        else f"chi-square gap <= {worst_chi2:.1e}, radius identity <= {worst_gap:.1e}, "
        f"{checked} monotone checks",
    )


def test_criterion_9_deterministic_csv(tmp_path):
    import os

    outputs = []
    for threads in ("1", "2", "8"):
        out = tmp_path / f"fig1_threads{threads}.csv"
        env = dict(os.environ)
        env["OC_FIELD_THREADS"] = threads
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "ocfield",
                "figure",
                "1",
                "--n-trials",
                "2500",
                "--seed",
                "90009",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    header_ok = outputs[0].decode().splitlines()[0] == (
        "lambda,L,receiver,analytic_outage,mc_outage,stderr,n_trials,seed"
    )
    report(
        9,
        "deterministic CSV across workers",
        identical and header_ok,
        f"{len(outputs[0])} bytes, workers 1/2/8",
    )
