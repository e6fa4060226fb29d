"""The CSV text of the CLI's comparison commands, pinned byte for byte.

`tests/data/golden_outputs.txt` holds one section per command: a line "$ "
followed by the command's arguments, then the CSV it prints.  The test runs
each command in process and compares the text; on a mismatch it names the
lines that moved.  The commands are figures 1-4, the closed-form tables at
small, large and extreme antenna counts, the four receivers at L = 8, and
every call of one round of the benchmark's analytic-contention workload,
restated here from `ocbench/workloads.py`.

The bytes depend on libm and numpy, recorded in `tests/data/README.md`; a
mismatch on another platform is a finding to report.  When a change moves
bytes on purpose, regenerate the file in the same commit with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which rows moved and why.
"""

import contextlib
import io
import itertools
import math
import shlex
from pathlib import Path

import pytest

from ocfield.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_outputs.txt"

COMPARISON = [
    "figure 1 --n-trials 300 --seed 5",
    "figure 2 --n-trials 300 --seed 5",
    "figure 3",
    "figure 4",
    "analytic --L 1,8,64,1000",
    "analytic --lambda-min 1e-4 --lambda-max 1e-2 --lambda-points 7 --L 1,3",
    "analytic --L 1000000 --lambda-points 2",
    "optimize --L 1,2,8,64,1000",
    "optimize --L 1,2,8,64,1000 --sigma2 0",
    "simulate --L 8 --sigma2 0 --lambda-grid 0.0052,0.0082,0.0116 --receivers oc,mrc,zf,pzf "
    "--n-trials 400 --seed 3",
]


def _contention_round() -> list[str]:
    """The 66 calls of one analytic-contention round, in the workload's order:
    per scenario, default-grid tables, explicit grids around x = L and optima;
    then the default geometry's optima, figures 3 and 4, and three large-L calls."""

    def scenario(alpha=3.5, beta=10.0 ** (3.0 / 10.0), d_r=10.0, sigma2=1e-5):
        flags = f"--alpha {alpha!r} --beta {beta!r} --d-r {d_r!r} --sigma2 {sigma2!r}"
        return flags, beta * d_r**alpha

    def fmt(values):
        return ",".join(repr(v) for v in values)

    optima_no_noise = (tuple(range(1, 17)), (24, 32, 48, 64, 96, 128), (192, 256, 384, 512, 640))
    optima_noise = (tuple(range(1, 13)), (16, 24, 32, 64), (128, 256))
    calls = []
    for alpha, beta_db, d_r, sigma2 in (
        (2.5, 0.0, 5.0, 0.0),
        (3.0, 3.0, 10.0, 1e-6),
        (3.5, 3.0, 10.0, 1e-5),
        (4.0, 6.0, 20.0, 1e-7),
        (5.0, -3.0, 8.0, 0.0),
        (3.2, 10.0, 15.0, 4e-6),
    ):
        flags, gamma = scenario(alpha, 10.0 ** (beta_db / 10.0), d_r, sigma2)
        for antennas in ((1, 2, 3, 4), (1, 8, 16, 32), (4, 64, 128), (2, 256, 512)):
            calls.append(f"analytic {flags} --L {fmt(antennas)}")
        # x = lam * Delta * gamma**(2/alpha) at these multiples of L
        a = 2.0 / alpha
        area = math.pi * math.gamma(1.0 + a) * math.gamma(1.0 - a) * gamma**a
        for L in (64, 256, 512):
            grid = [m * L / area for m in (0.5, 0.8, 0.95, 1.0, 1.05, 1.2, 1.3)]
            calls.append(f"analytic {flags} --L {L} --lambda-grid {fmt(grid)}")
        for antennas in optima_noise if sigma2 > 0.0 else optima_no_noise:
            calls.append(f"optimize {flags} --L {fmt(antennas)}")
    calls.append(f"optimize {scenario(sigma2=0.0)[0]} --L {fmt(optima_no_noise[1])}")
    calls += [
        "figure 3",
        "figure 4",
        "analytic --L 1000 --lambda-grid 0.93,1.05",
        "optimize --sigma2 0 --L 900,2000",
        "optimize --L 1000",
    ]
    return calls


# figures 3 and 4 are in both lists; each command is pinned once
COMMANDS = list(dict.fromkeys([*COMPARISON, *_contention_round()]))


def _run(command: str) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(shlex.split(command))
    if code != 0:
        raise AssertionError(f"{command}: exit code {code}")
    return stdout.getvalue()


def _load() -> dict[str, str]:
    sections: dict[str, list[str]] = {}
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith("$ "):
            lines = sections.setdefault(line[2:].rstrip("\n"), [])
        else:
            lines.append(line)
    return {command: "".join(lines) for command, lines in sections.items()}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return _load()


@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_pinned(golden, command):
    got, expected = _run(command), golden[command]
    if got != expected:
        moved = [
            f"  line {i}: {want!r} -> {have!r}"
            for i, (want, have) in enumerate(
                itertools.zip_longest(expected.splitlines(), got.splitlines())
            )
            if want != have
        ]
        pytest.fail(f"{command}: {len(moved)} lines moved\n" + "\n".join(moved), pytrace=False)


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"$ {command}\n{_run(command)}" for command in COMMANDS))
