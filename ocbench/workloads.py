"""The three benchmark workloads as fixed sequences of `ocfield` CLI calls.

A workload is a list of `Call`s.  One round runs every call once, in order;
a run repeats whole rounds.  Each call carries what the checkers need to
recompute its rows independently: the scenario constants, the antenna
counts, the receivers and how many rows it must print.  The workload seed
reaches the program only through `--seed`; no other input depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WORKLOADS = ("fig1-oc-sweep", "receivers-l8", "analytic-contention")

# figure 1 preset at a reduced trial count (the preset's default is 100 000)
FIG1_TRIALS = 500
# receivers-l8: OC outage of about 0.09, 0.40 and 0.80 at L = 8, sigma2 = 0
# (x = 4.5, 7 and 10 under the default alpha, beta and d_r)
RECEIVER_GRID = (0.0052, 0.0082, 0.0116)
RECEIVER_TRIALS = 400
RECEIVERS = ("oc", "mrc", "zf", "pzf")


@dataclass(frozen=True)
class Scenario:
    """Link constants of one call, linear units, as the CLI receives them."""

    alpha: float = 3.5
    beta: float = 10.0 ** (3.0 / 10.0)
    d_r: float = 10.0
    sigma2: float = 1e-5
    expected_count: int = 100

    @property
    def gamma(self) -> float:
        return self.beta * self.d_r**self.alpha


# the presets, restated from the CLI documentation
FIG1 = Scenario(sigma2=10.0 ** (-50.0 / 10.0))
FIG3 = Scenario(sigma2=10.0 ** (-57.0 / 10.0))


@dataclass
class Call:
    """One CLI invocation and what its output must satisfy."""

    name: str
    argv: list[str]
    kind: str  # "analytic", "simulate" or "optimize" (the CSV schema)
    scenario: Scenario
    antennas: tuple[int, ...]
    rows: int
    receivers: tuple[str, ...] = ()
    n_trials: int = 0
    default_grid: bool = False  # the CLI chose the density grid itself
    known_failure: bool = False  # every row is wrong at the recorded commit
    unit_area: bool = False  # figure 4 scales beta so that Delta * gamma**(2/alpha) = 1


def _fmt(values) -> str:
    return ",".join(repr(v) for v in values)


def _scenario_flags(sc: Scenario) -> list[str]:
    return [
        "--alpha", repr(sc.alpha),
        "--beta", repr(sc.beta),
        "--d-r", repr(sc.d_r),
        "--sigma2", repr(sc.sigma2),
    ]


def fig1_oc_sweep(seed: int) -> list[Call]:
    argv = ["figure", "1", "--n-trials", str(FIG1_TRIALS), "--seed", str(seed)]
    return [
        Call(
            name="figure-1",
            argv=argv,
            kind="simulate",
            scenario=FIG1,
            antennas=(1, 2, 3, 4),
            rows=40,
            receivers=("oc",),
            n_trials=FIG1_TRIALS,
            default_grid=True,
        )
    ]


def receivers_l8(seed: int) -> list[Call]:
    sc = Scenario(sigma2=0.0)
    calls = []
    for receiver in RECEIVERS:
        argv = [
            "simulate", "--L", "8", "--sigma2", "0",
            "--lambda-grid", _fmt(RECEIVER_GRID),
            "--receivers", receiver,
            "--n-trials", str(RECEIVER_TRIALS),
            "--seed", str(seed),
        ]
        calls.append(
            Call(
                name=f"simulate-{receiver}",
                argv=argv,
                kind="simulate",
                scenario=sc,
                antennas=(8,),
                rows=len(RECEIVER_GRID),
                receivers=(receiver,),
                n_trials=RECEIVER_TRIALS,
            )
        )
    return calls


# (alpha, beta_db, d_r, sigma2): noise sigma2 * gamma stays below 0.3, so the
# default grid never falls back (see cli.default_lambda_grid)
ANALYTIC_SCENARIOS = (
    (2.5, 0.0, 5.0, 0.0),
    (3.0, 3.0, 10.0, 1e-6),
    (3.5, 3.0, 10.0, 1e-5),
    (4.0, 6.0, 20.0, 1e-7),
    (5.0, -3.0, 8.0, 0.0),
    (3.2, 10.0, 15.0, 4e-6),
)
ANTENNA_SETS = ((1, 2, 3, 4), (1, 8, 16, 32), (4, 64, 128), (2, 256, 512))
# explicit grids: x = lam * Delta * gamma**(2/alpha) at these multiples of L
EXPLICIT_L = (64, 256, 512)
EXPLICIT_X_OVER_L = (0.5, 0.8, 0.95, 1.0, 1.05, 1.2, 1.3)
OPTIMIZE_SETS_NO_NOISE = (tuple(range(1, 17)), (24, 32, 48, 64, 96, 128), (192, 256, 384, 512, 640))
OPTIMIZE_SETS_NOISE = (tuple(range(1, 13)), (16, 24, 32, 64), (128, 256))


def _area(sc: Scenario) -> float:
    # Delta = pi * Gamma(1 + 2/alpha) * Gamma(1 - 2/alpha), only to place grids
    a = 2.0 / sc.alpha
    return math.pi * math.gamma(1.0 + a) * math.gamma(1.0 - a) * sc.gamma**a


def analytic_contention(seed: int) -> list[Call]:
    """Closed forms and contention optima only; `seed` is not used."""
    del seed
    calls = []
    for i, (alpha, beta_db, d_r, sigma2) in enumerate(ANALYTIC_SCENARIOS):
        sc = Scenario(alpha=alpha, beta=10.0 ** (beta_db / 10.0), d_r=d_r, sigma2=sigma2)
        flags = _scenario_flags(sc)
        for antennas in ANTENNA_SETS:
            calls.append(
                Call(
                    name=f"analytic-s{i}-L{antennas[-1]}",
                    argv=["analytic", *flags, "--L", _fmt(antennas)],
                    kind="analytic",
                    scenario=sc,
                    antennas=antennas,
                    rows=10 * len(antennas),
                    default_grid=True,
                )
            )
        for L in EXPLICIT_L:
            grid = [m * L / _area(sc) for m in EXPLICIT_X_OVER_L]
            calls.append(
                Call(
                    name=f"analytic-s{i}-grid-L{L}",
                    argv=["analytic", *flags, "--L", str(L), "--lambda-grid", _fmt(grid)],
                    kind="analytic",
                    scenario=sc,
                    antennas=(L,),
                    rows=len(grid),
                )
            )
        sets = OPTIMIZE_SETS_NOISE if sigma2 > 0.0 else OPTIMIZE_SETS_NO_NOISE
        for antennas in sets:
            calls.append(
                Call(
                    name=f"optimize-s{i}-L{antennas[-1]}",
                    argv=["optimize", *flags, "--L", _fmt(antennas)],
                    kind="optimize",
                    scenario=sc,
                    antennas=antennas,
                    rows=len(antennas),
                )
            )
    # sigma2 = 0 optima at the CLI's default geometry
    sc = Scenario(sigma2=0.0)
    calls.append(
        Call(
            name="optimize-default-no-noise",
            argv=["optimize", *_scenario_flags(sc), "--L", _fmt(OPTIMIZE_SETS_NO_NOISE[1])],
            kind="optimize",
            scenario=sc,
            antennas=OPTIMIZE_SETS_NO_NOISE[1],
            rows=len(OPTIMIZE_SETS_NO_NOISE[1]),
        )
    )
    calls.append(
        Call(name="figure-3", argv=["figure", "3"], kind="analytic", scenario=FIG3,
             antennas=(1, 2, 3, 4, 5), rows=250)
    )
    calls.append(
        Call(name="figure-4", argv=["figure", "4"], kind="optimize",
             scenario=Scenario(sigma2=0.0, d_r=1.0), antennas=tuple(range(1, 9)), rows=8,
             unit_area=True)
    )
    # Large-L rows that the closed forms get silently wrong at the recorded
    # commit (Poisson terms anchored at exp(-x) underflow once x > ~745).
    default = Scenario()
    calls.append(
        Call(name="known-analytic-L1000",
             argv=["analytic", "--L", "1000", "--lambda-grid", "0.93,1.05"],
             kind="analytic", scenario=default, antennas=(1000,), rows=2, known_failure=True)
    )
    calls.append(
        Call(name="known-optimize-no-noise-L900-2000",
             argv=["optimize", "--sigma2", "0", "--L", "900,2000"],
             kind="optimize", scenario=Scenario(sigma2=0.0), antennas=(900, 2000), rows=2,
             known_failure=True)
    )
    calls.append(
        Call(name="known-optimize-noise-L1000",
             argv=["optimize", "--L", "1000"],
             kind="optimize", scenario=default, antennas=(1000,), rows=1, known_failure=True)
    )
    return calls


BUILDERS = {
    "fig1-oc-sweep": fig1_oc_sweep,
    "receivers-l8": receivers_l8,
    "analytic-contention": analytic_contention,
}


def build(workload: str, seed: int) -> list[Call]:
    """The calls of one round of `workload` under workload seed `seed`."""
    return BUILDERS[workload](seed)
