"""Independent references for every CSV row the workloads produce.

Nothing here imports `ocfield` or the repository's tests.  The references
are computed from the model's definitions with scipy:

* analytic rows: outage `poisson.sf(L-1, x)` with x = lam * Delta *
  gamma**(2/alpha) + sigma2 * gamma, and Delta from the gamma-function form
  pi * Gamma(1 + 2/alpha) * Gamma(1 - 2/alpha);
* optimize rows: the root of the first-order condition of lam * (1 - F),
  found by `brentq` on a log-domain form;
* OC simulate rows: the exact outage of the simulated finite disk, whose
  exponent is a radial integral done by quadrature, under an exact binomial
  test at a fixed false-alarm rate;
* MRC, ZF and PZF rows: never fewer outages than OC on the same draws.

Each checker returns the list of problems it found in one row; an empty
list means the row is correct.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from scipy import integrate, optimize, special, stats

# Two-sided false-alarm rate of the binomial test on one OC row.
FALSE_ALARM = 1e-6
EPS = 2.220446049250313e-16


def delta(alpha: float) -> float:
    """Plane interference constant pi * Gamma(1 + 2/alpha) * Gamma(1 - 2/alpha)."""
    a = 2.0 / alpha
    return math.pi * float(special.gamma(1.0 + a) * special.gamma(1.0 - a))


def area(scenario, unit_area: bool = False) -> float:
    """Delta * gamma**(2/alpha): the density-to-exponent scale."""
    if unit_area:
        return 1.0
    return delta(scenario.alpha) * scenario.gamma ** (2.0 / scenario.alpha)


def outage(L: int, x: float) -> float:
    """P(Poisson(x) >= L), the closed-form outage at exponent x."""
    return float(stats.poisson.sf(L - 1, x))


def outage_tolerance(L: int, reference: float) -> float:
    # The program forms 1 - sum of L Poisson terms, so its absolute error
    # grows with L even where the outage itself is tiny.
    return 1e-9 * reference + 5e-14 * (L + 1)


def finite_disk_exponent(lam: float, scenario) -> float:
    """Poisson mean of the outage count over the simulated disk.

    The disk holds `expected_count` nodes on average, so its radius is
    sqrt(expected_count / (lam * pi)).  Thinning the field by the
    probability 1 / (1 + r**alpha / gamma) that a node at distance r
    defeats one degree of freedom gives
    lam * 2 pi * gamma**(2/alpha) * int_0^s s / (1 + s**alpha) ds
    with s = radius / gamma**(1/alpha), plus the noise term sigma2 * gamma.
    """
    g = scenario.gamma
    radius = math.sqrt(scenario.expected_count / (lam * math.pi))
    s_max = radius / g ** (1.0 / scenario.alpha)
    alpha = scenario.alpha
    integral, _ = integrate.quad(
        lambda s: s / (1.0 + s**alpha),
        0.0,
        s_max,
        points=[1.0] if s_max > 1.0 else None,
        epsabs=0.0,
        epsrel=1e-12,
        limit=200,
    )
    return lam * 2.0 * math.pi * g ** (2.0 / alpha) * integral + scenario.sigma2 * g


def optimum(L: int, scale: float, noise: float) -> tuple[float, float, float]:
    """(x*, lam*, t*) maximizing lam * P(Poisson(lam * scale + noise) < L).

    The derivative vanishes where P(Poisson(x) < L) = (x - noise) *
    pmf(L-1; x); both sides are compared in logs, which keeps the root
    finder clear of underflow for L in the thousands.  At noise = 0, x* is
    the root g(L) of the contention polynomial.
    """

    def condition(x: float) -> float:
        log_cdf = math.log(special.gammaincc(L, x))
        log_rhs = math.log(x - noise) + (L - 1) * math.log(x) - x - special.gammaln(L)
        return log_cdf - log_rhs

    lo = noise + 1e-9 * L
    hi = noise + L + 10.0
    while condition(hi) > 0.0:
        hi = noise + 2.0 * (hi - noise)
    x = optimize.brentq(condition, lo, hi, xtol=1e-15 * L, rtol=4 * EPS, maxiter=500)
    lam = (x - noise) / scale
    return x, lam, lam * float(special.gammaincc(L, x))


def _close(value: float, reference: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= rel * abs(reference)


def check_analytic_row(row: dict, scenario, scale: float) -> list[str]:
    """Closed-form outage and throughput density of one (lambda, L) row."""
    lam, L = float(row["lambda"]), int(row["L"])
    value, density = float(row["analytic_outage"]), float(row["throughput_density"])
    x = lam * scale + scenario.sigma2 * scenario.gamma
    ref = outage(L, x)
    tol = outage_tolerance(L, ref)
    problems = []
    if not abs(value - ref) <= tol:
        problems.append(f"outage {value!r} != reference {ref!r} (L={L}, x={x:.6g})")
    ref_density = lam * float(stats.poisson.cdf(L - 1, x))
    if not abs(density - ref_density) <= lam * tol:
        problems.append(f"throughput density {density!r} != reference {ref_density!r}")
    return problems


def check_optimize_row(row: dict, scenario, scale: float) -> list[str]:
    """Optimum contention density and peak throughput of one antenna count.

    The g column is checked only in the noise-free regime, where it is the
    root of the contention polynomial; the mode column is never read.
    """
    L = int(row["L"])
    lam_max, t_max = float(row["lambda_max"]), float(row["t_max"])
    noise = scenario.sigma2 * scenario.gamma
    x_ref, lam_ref, t_ref = optimum(L, scale, noise)
    problems = []
    if not (lam_max > 0.0 and math.isfinite(t_max) and 0.0 < t_max <= lam_max):
        problems.append(f"need 0 < t_max <= lambda_max, got {t_max!r} and {lam_max!r}")
    if noise == 0.0:
        g = float(row["g"])
        inside = g == 1.0 if L == 1 else 0.5 * L < g < L
        if not inside:
            problems.append(f"g = {g!r} outside (L/2, L) for L = {L}")
        if not _close(g, x_ref, 1e-9):
            problems.append(f"g {g!r} != reference {x_ref!r}")
        lam_rel = 1e-9
    else:
        # a grid search places the noisy optimum to a few parts in 1e9
        lam_rel = 1e-6
    if not _close(lam_max, lam_ref, lam_rel):
        problems.append(f"lambda_max {lam_max!r} != reference {lam_ref!r}")
    if not _close(t_max, t_ref, 1e-9):
        problems.append(f"t_max {t_max!r} != reference {t_ref!r}")
    return problems


def receiver_label(receiver: str, L: int) -> str:
    return f"pzf{(L + 1) // 2}" if receiver == "pzf" else receiver


def outage_count(row: dict) -> tuple[int, int]:
    """(outages, trials) of a simulate row."""
    n = int(row["n_trials"])
    return round(float(row["mc_outage"]) * n), n


def check_simulate_row(row: dict, scenario, scale: float, receiver: str, n_trials: int) -> list[str]:
    """Bookkeeping of one Monte Carlo row, plus the finite-disk test for OC."""
    lam, L = float(row["lambda"]), int(row["L"])
    p, stderr = float(row["mc_outage"]), float(row["stderr"])
    k, n = outage_count(row)
    problems = []
    if row["receiver"] != receiver_label(receiver, L):
        problems.append(f"receiver {row['receiver']!r}, expected {receiver_label(receiver, L)!r}")
    if n != n_trials:
        problems.append(f"n_trials {n}, expected {n_trials}")
    if not (0.0 <= p <= 1.0 and abs(p * n - k) <= 1e-9 * n):
        problems.append(f"mc_outage {p!r} is not a count over {n} trials")
    if not abs(stderr - math.sqrt(p * (1.0 - p) / n)) <= 1e-12:
        problems.append(f"stderr {stderr!r} does not match mc_outage {p!r}")
    if receiver != "oc" or problems:
        return problems
    x = lam * scale + scenario.sigma2 * scenario.gamma
    ref = outage(L, x)
    if not abs(float(row["analytic_outage"]) - ref) <= outage_tolerance(L, ref):
        problems.append(f"analytic_outage {row['analytic_outage']} != reference {ref!r}")
    p_disk = outage(L, finite_disk_exponent(lam, scenario))
    pvalue = stats.binomtest(k, n, p_disk).pvalue
    if pvalue < FALSE_ALARM:
        problems.append(
            f"{k}/{n} outages vs finite-disk outage {p_disk:.6g}: p-value {pvalue:.3g}"
        )
    return problems


def exponent_for(L: int, target: float) -> float:
    """x with P(Poisson(x) >= L) = target."""
    hi = L + 10.0
    while outage(L, hi) < target:
        hi *= 2.0
    return optimize.brentq(lambda x: outage(L, x) - target, 0.0, hi, xtol=1e-14, rtol=4 * EPS)


def check_default_grid(lams: list[float], scenario, scale: float, antennas, points: int = 10) -> list[str]:
    """The CLI's own grid: `points` log-spaced densities from outage 0.01 at
    the largest L to outage 0.99 at the smallest L, or three decades below
    the upper end when that lower end is not below it."""
    noise = scenario.sigma2 * scenario.gamma
    lo = (exponent_for(max(antennas), 0.01) - noise) / scale
    hi = (exponent_for(min(antennas), 0.99) - noise) / scale
    if lo <= 0.0 or lo >= hi:
        lo = hi / 1000.0
    expected = [lo * (hi / lo) ** (k / (points - 1)) for k in range(points)]
    if len(lams) != points or not all(_close(a, b, 1e-9) for a, b in zip(lams, expected)):
        return [f"densities {lams} differ from the default grid {expected}"]
    return []


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


@dataclass
class RoundReport:
    """Outcome of checking one round's outputs."""

    rows: int = 0  # operations attempted
    failed: dict = field(default_factory=dict)  # (call, row) -> problems
    unexpected: list = field(default_factory=list)  # failures outside known-failure calls

    def flag(self, call, index: int, row: int, problems: list[str]) -> None:
        self.failed.setdefault((index, row), []).extend(problems)
        if not call.known_failure:
            self.unexpected.append(f"{call.name} row {row}: {'; '.join(problems)}")


def check_round(calls, outputs) -> RoundReport:
    """Check one round: `outputs[i]` is the CSV text of `calls[i]`, or None
    when the call exited with a nonzero code."""
    report = RoundReport()
    parsed = []
    for i, (call, text) in enumerate(zip(calls, outputs)):
        report.rows += call.rows
        rows = parse_csv(text) if text is not None else []
        parsed.append(rows)
        if text is None:
            for r in range(call.rows):
                report.flag(call, i, r, ["call exited with a nonzero code"])
            continue
        for r in range(len(rows), call.rows):
            report.flag(call, i, r, [f"missing: {len(rows)} of {call.rows} rows printed"])
        if len(rows) > call.rows:
            report.unexpected.append(f"{call.name}: {len(rows)} rows, expected {call.rows}")
        _check_call(report, i, call, rows[: call.rows])
    _check_cells(report, calls, parsed)
    return report


def _check_call(report: RoundReport, index: int, call, rows: list[dict]) -> None:
    sc = call.scenario
    scale = area(sc, call.unit_area)
    lams = sorted({float(row["lambda"]) for row in rows}) if call.kind != "optimize" else []
    grid_problems = []
    if call.default_grid:
        grid_problems = check_default_grid(lams, sc, scale, call.antennas)
    elif "--lambda-grid" in call.argv:
        expected = _floats(call.argv[call.argv.index("--lambda-grid") + 1])
        if lams != sorted(expected):
            grid_problems = [f"densities {lams} differ from the requested grid"]
    for r, row in enumerate(rows):
        problems = list(grid_problems)
        expected_L = call.antennas[r % len(call.antennas)]
        if int(row["L"]) != expected_L:
            problems.append(f"L = {row['L']}, expected {expected_L}")
        elif call.kind == "analytic":
            problems += check_analytic_row(row, sc, scale)
        elif call.kind == "optimize":
            problems += check_optimize_row(row, sc, scale)
        else:
            problems += check_simulate_row(row, sc, scale, call.receivers[0], call.n_trials)
        if problems:
            report.flag(call, index, r, problems)


def _check_cells(report: RoundReport, calls, parsed) -> None:
    """Rows of one (lambda, L) cell share their seed, and OC, optimal on
    every shared draw, has no more outages than any other receiver."""
    cells: dict = {}
    for i, (call, rows) in enumerate(zip(calls, parsed)):
        if call.kind != "simulate":
            continue
        for r, row in enumerate(rows[: call.rows]):
            cells.setdefault((row["lambda"], row["L"]), []).append((i, r, call.receivers[0], row))
    seeds = {}
    for key, members in cells.items():
        cell_seeds = {row["seed"] for _, _, _, row in members}
        oc = [outage_count(row)[0] for _, _, receiver, row in members if receiver == "oc"]
        for i, r, receiver, row in members:
            problems = []
            if len(cell_seeds) != 1:
                problems.append(f"cell lambda={key[0]} L={key[1]} mixes seeds {sorted(cell_seeds)}")
            if receiver != "oc" and oc and outage_count(row)[0] < oc[0]:
                problems.append(f"{receiver} has fewer outages than oc in its cell: "
                                f"{outage_count(row)[0]} < {oc[0]}")
            if problems:
                report.flag(calls[i], i, r, problems)
        seeds.setdefault(next(iter(cell_seeds)), []).append(key)
    for seed, keys in seeds.items():
        if len(keys) > 1:
            report.unexpected.append(f"cells {keys} share seed {seed}")
