#!/usr/bin/env python3
"""Time the package end to end and per call, and write the medians as JSON.

Usage:
    python scripts/bench.py BENCH_N.json

End to end: the wall time of a fresh interpreter that imports `ocfield.cli`,
or runs `figure 1 --n-trials 2500`, `analytic --L 1,8,64` (a closed-form
command that loads neither numpy nor the contention solver), `figure 3` or
`figure 4` (CSV to /dev/null), beside a bare interpreter start for
reference, and the microseconds of a fresh interpreter's first
`cli.build_parser()` (`first_build_parser_us`).  Per call: the microseconds
of `outage_cdf`, `contention_optimum` and the tests' frozen-field law
`conditional_outage_cdf` (`tests/_frozen_field.py`, the reference a
vectorized law must beat) on fixed arguments, of `cli.default_lambda_grid`
on figure 1's preset and on L = 2,256,512 at sigma2 = 1e-5, of the parse
of a one-row `analytic` call by the whole parser (`build_parser().parse_args`)
and by the command's own parser alone (what `main` runs), and of the
in-process commands `analytic` on that one row (the per-call front-end
cost), `optimize --L 1,...,16` (sixteen optima on one call's count-law
terms), `analytic --L 1,8,64`, `figure 3` and `figure 2 --n-trials 2000`
(four receivers on shared blocks), each rewriting a CSV that an untimed
first run created.  Per block of BLOCK trials: the ZF and
PZF weights (`simulate._weights`, ranking, gather and projection) at
L = 8 and `linalg.batch_project_out` on that block's n = 8, k = 7 ZF
basis.  Per trial: `block_sinr` of each receiver at L = 1, 4 and 8, and a
500-trial OC row (`estimate_outage`, one worker) at L = 1, 2, 3, 4 and 8,
recorded beside `blocks_per_batch`, the blocks its batches hold
(`simulate._batch_blocks`).  The blocks are drawn at the roadmap's
stage-table point (lambda = 6e-4, sigma2 = 1e-5, expected_count 100,
alpha = 3.5).  The in-process `figure 1 --n-trials 500` (the benchmark's
`fig1-oc-sweep` call) and the four calls of the benchmark's `receivers-l8`
workload at its default seed, timed together, run with OC_FIELD_THREADS =
1 and 2, every other command with 1.  Per root: the evaluations a root
solver makes, counted once since they repeat exactly: `_log_ratio` calls
per `contention_optimum` on the timed arguments (two of them
noise-dominated, noise * gamma >= L), and `_poisson_split` calls per
`_count_law_root` on figure 1's two grid ends.  Per optimum:
`log_pmf_per_optimum`, the `_log_pmf` calls of one `contention_optimum`
on the same arguments, counted once too.  Every timing is
the median of REPEATS runs, since cores and clocks are not pinned.  The
file also records the CPU count, the Python and numpy versions, the worker
count and the time of the benchmark's anchor kernel (`ocbench/anchor.py`),
which tracks the speed of the machine, and the size of the package:
`src_lines`, the line count of `src/ocfield/*.py` (what `wc -l` totals),
`import_lines`, the line count of the `ocfield` modules that `import
ocfield.cli` loads in a fresh interpreter (what every command compiles
before it runs), and `exports`, the number of names in `ocfield.__all__`.
Runs outside the test suite.
"""

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "ocbench"), str(ROOT / "tests")]

import anchor  # noqa: E402
import numpy  # noqa: E402
import workloads  # noqa: E402

import ocfield  # noqa: E402
import ocfield.analytic  # noqa: E402
import ocfield.cli  # noqa: E402
import ocfield.contention  # noqa: E402
from _frozen_field import conditional_outage_cdf  # noqa: E402
from ocfield import (  # noqa: E402
    BLOCK, SystemParams, TrialStream, block_sinr, contention_optimum, estimate_outage,
    gamma_from_beta, outage_cdf,
)
from ocfield.domains import RECEIVERS  # noqa: E402
from ocfield.linalg import batch_project_out  # noqa: E402
from ocfield.simulate import (  # noqa: E402
    _batch_blocks, _channel_block, _draw_fields, _strongest, _weights,
)

REPEATS = 7

PROCESSES = {
    "python -c pass": ["-c", "pass"],
    "import ocfield.cli": ["-c", "import ocfield.cli"],
    "figure 1 --n-trials 2500": ["-m", "ocfield", "figure", "1", "--n-trials", "2500"],
    "analytic --L 1,8,64": ["-m", "ocfield", "analytic", "--L", "1,8,64"],
    "figure 3": ["-m", "ocfield", "figure", "3"],
    "figure 4": ["-m", "ocfield", "figure", "4"],
}

GAMMA = gamma_from_beta(10 ** 0.3, 10.0, 3.5)  # the CLI's default scenario
POWERS = [(1.0 + k) ** -1.75 for k in range(100)]  # 100 nodes at radii 1..100, alpha = 3.5
FIGURE1 = ocfield.cli.figure_preset(1)[1]
ONE_ROW = ["analytic", "--L", "2", "--lambda-grid", "1e-3"]  # one closed-form row
CALLS = {
    **{
        f"outage_cdf L={L}": lambda L=L: outage_cdf(
            SystemParams(lam=1e-3, alpha=3.5, sigma2=1e-5, d_r=10.0, L=L, beta=10 ** 0.3)
        )
        for L in (1, 8, 64)
    },
    **{
        f"contention_optimum L={L} sigma2={sigma2:g}": lambda L=L, sigma2=sigma2: (
            contention_optimum(L, 3.5, GAMMA, sigma2)
        )
        for L in (1, 8, 64)
        for sigma2 in (0.0, 1e-5)
    },
    # noise * gamma >= L, where the solver starts from its fixed point
    **{
        f"contention_optimum L={L} noise={noise:g}": lambda L=L, noise=noise: (
            contention_optimum(L, 3.5, GAMMA, noise / GAMMA)
        )
        for L, noise in ((1000, 6.3e9), (10**4, 1e300))
    },
    **{
        f"conditional_outage_cdf L={L} nodes=100": lambda L=L: conditional_outage_cdf(
            POWERS, 1e-5, L, 1.0
        )
        for L in (1, 8)
    },
    # the configs are built outside the timing
    "default_lambda_grid figure 1": functools.partial(ocfield.cli.default_lambda_grid, FIGURE1),
    "default_lambda_grid L=2,256,512 sigma2=1e-05": functools.partial(
        ocfield.cli.default_lambda_grid,
        ocfield.cli.ScenarioConfig(sigma2=1e-5, antennas=(2, 256, 512)),
    ),
    # the front end of a one-row call: the whole parser's parse, which hands
    # the arguments on to the command's parser, against that parser's alone
    # (what `main` runs)
    "build_parser().parse_args analytic one row": functools.partial(
        ocfield.cli.build_parser().parse_args, ONE_ROW
    ),
    "dispatched parse analytic one row": functools.partial(
        ocfield.cli.build_parser().commands["analytic"].parse_known_args, ONE_ROW[1:]
    ),
}

# (module, function counted, one root solve): contention optima count their
# conditions, the count law's roots their walks of the Poisson terms
ROOTS = {
    **{
        name: (ocfield.contention, "_log_ratio", solve)
        for name, solve in CALLS.items()
        if name.startswith("contention_optimum")
    },
    **{
        f"_count_law_root figure 1 L={L} target={target:g}": (
            ocfield.analytic,
            "_poisson_split",
            functools.partial(ocfield.analytic._count_law_root, L, target),
        )
        for L, target in ((max(FIGURE1.antennas), 0.01), (min(FIGURE1.antennas), 0.99))
    },
}

# name -> (the argv of each call, in order, OC_FIELD_THREADS)
WORKER_COMMANDS = {
    "figure 1 --n-trials 500": [["figure", "1", "--n-trials", "500"]],
    "receivers-l8": [call.argv for call in workloads.receivers_l8(1)],
}
COMMANDS = {
    "cli analytic one row": ([ONE_ROW], "1"),
    "cli optimize --L 1,...,16": ([["optimize", "--L", ",".join(map(str, range(1, 17)))]], "1"),
    "cli analytic --L 1,8,64": ([["analytic", "--L", "1,8,64"]], "1"),
    "cli figure 3": ([["figure", "3"]], "1"),
    "cli figure 2 --n-trials 2000": ([["figure", "2", "--n-trials", "2000"]], "1"),
    **{
        f"cli {name} workers={workers}": (argvs, workers)
        for name, argvs in WORKER_COMMANDS.items()
        for workers in ("1", "2")
    },
}

# the roadmap's stage-table point: lambda = 6e-4, sigma2 = 1e-5, expected_count 100
STAGE = {
    L: SystemParams(lam=6e-4, alpha=3.5, sigma2=1e-5, d_r=10.0, L=L, beta=10 ** 0.3)
    for L in (1, 2, 3, 4, 8)
}
ROW_TRIALS = 500


def engine_block(params: SystemParams) -> tuple:
    """(desired, a, padded radii) of one block drawn as the engine draws it."""
    block = [(TrialStream(1).at(0), BLOCK)]
    _, counts, radii = _draw_fields(params.lam, 100, block)
    desired, a = _channel_block(counts, radii ** (-0.5 * params.alpha), params.L, block)
    padded = numpy.full(a.shape[:2], numpy.inf)
    padded[numpy.arange(a.shape[1]) < counts[:, None]] = radii
    return desired, a, padded


DESIRED, ROWS, PADDED = engine_block(STAGE[8])
ZF_BASIS = numpy.take_along_axis(ROWS, _strongest(PADDED, 7)[:, :, None], axis=1)  # 7 nearest rows
PER_BLOCK = {
    "_weights zf L=8": functools.partial(_weights, "zf", DESIRED, ROWS, PADDED, None),
    "_weights pzf L=8": functools.partial(_weights, "pzf", DESIRED, ROWS, PADDED, None),
    "batch_project_out n=8 k=7": functools.partial(batch_project_out, DESIRED, ZF_BASIS),
}

# each call draws the next block of its own generator
PER_TRIAL = {
    f"block_sinr {receiver} L={L}": functools.partial(
        block_sinr, params, receiver, TrialStream(1).at(0)
    )
    for L, params in STAGE.items()
    if L in (1, 4, 8)
    for receiver in RECEIVERS
}
PER_ROW = {
    f"estimate_outage oc L={L} n={ROW_TRIALS}": functools.partial(
        estimate_outage, params, "oc", ROW_TRIALS, 1
    )
    for L, params in STAGE.items()
}


def with_workers(workers: str, fn):
    """fn() run with OC_FIELD_THREADS = workers, which is then restored."""
    saved = os.environ.get("OC_FIELD_THREADS")
    os.environ["OC_FIELD_THREADS"] = workers
    try:
        return fn()
    finally:
        if saved is None:
            del os.environ["OC_FIELD_THREADS"]
        else:
            os.environ["OC_FIELD_THREADS"] = saved


def run_all(mains) -> int:
    """Run every call in order; the largest exit code."""
    return max([main() for main in mains])


def command_calls(directory: Path) -> dict:
    """`COMMANDS` run in process with their worker counts, each call
    rewriting its own CSV in `directory`; the first, untimed run creates the
    files."""
    calls = {}
    for name, (argvs, workers) in COMMANDS.items():
        mains = [
            functools.partial(
                ocfield.cli.main, [*argv, "--out", str(directory / f"{len(calls)}-{i}.csv")]
            )
            for i, argv in enumerate(argvs)
        ]
        calls[name] = functools.partial(with_workers, workers, functools.partial(run_all, mains))
        if calls[name]() != 0:
            raise RuntimeError(f"{name} failed")
    return calls


def process_seconds(argv: list[str], env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


# times the first `build_parser()` of a fresh interpreter, after the import
FIRST_PARSER = """
import time, ocfield.cli
start = time.perf_counter()
ocfield.cli.build_parser()
print(time.perf_counter() - start)
"""


def first_parser_seconds(env: dict[str, str]) -> float:
    done = subprocess.run(
        [sys.executable, "-c", FIRST_PARSER], env=env, capture_output=True, text=True, check=True
    )
    return float(done.stdout)


def evaluations(module, name: str, solve) -> int:
    """How many times one run of `solve` calls `module.name`."""
    counted = getattr(module, name)
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return counted(*args)

    setattr(module, name, counting)
    try:
        solve()
    finally:
        setattr(module, name, counted)
    return calls


def us_per_call(fn) -> float:
    number, seconds = timeit.Timer(fn).autorange()  # at least 0.2 s of calls
    return seconds / number * 1e6


def line_count(paths) -> int:
    return sum(Path(path).read_bytes().count(b"\n") for path in paths)


# prints the file of each `ocfield` module that importing the CLI loads
LOADED = """
import sys, ocfield.cli
for name, module in sys.modules.items():
    if name.partition(".")[0] == "ocfield":
        print(module.__file__)
"""


def import_lines(env: dict[str, str]) -> int:
    done = subprocess.run(
        [sys.executable, "-c", LOADED], env=env, capture_output=True, text=True, check=True
    )
    return line_count(done.stdout.splitlines())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the JSON file to write")
    args = parser.parse_args()
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    processes = {name: [] for name in PROCESSES}
    first_parsers = []
    anchors = []
    with tempfile.TemporaryDirectory() as tmp:
        per_call = {**CALLS, **command_calls(Path(tmp))}
        functions = {
            **per_call,
            **PER_BLOCK,
            **PER_TRIAL,
            **{name: functools.partial(with_workers, "1", fn) for name, fn in PER_ROW.items()},
        }
        calls = {name: [] for name in functions}
        for _ in range(REPEATS):  # interleaved, so drift in machine speed hits every number alike
            anchors.append(anchor.anchor_seconds())
            for name, argv in PROCESSES.items():
                processes[name].append(process_seconds(argv, env))
            first_parsers.append(first_parser_seconds(env))
            for name, fn in functions.items():
                calls[name].append(us_per_call(fn))
    medians = {name: statistics.median(t) for name, t in calls.items()}
    result = {
        "repeats": REPEATS,
        "process_wall_s": {name: statistics.median(t) for name, t in processes.items()},
        "first_build_parser_us": statistics.median(first_parsers) * 1e6,
        "us_per_call": {name: medians[name] for name in per_call},
        "us_per_block": {name: medians[name] for name in PER_BLOCK},
        "us_per_trial": {
            **{name: medians[name] / BLOCK for name in PER_TRIAL},
            **{name: medians[name] / ROW_TRIALS for name in PER_ROW},
        },
        "blocks_per_batch": {f"L={L}": _batch_blocks(L, 100) for L in STAGE},
        "evaluations_per_root": {name: evaluations(*root) for name, root in ROOTS.items()},
        "log_pmf_per_optimum": {
            name: evaluations(ocfield.contention, "_log_pmf", solve)
            for name, solve in CALLS.items()
            if name.startswith("contention_optimum")
        },
        "anchor_s": statistics.median(anchors),
        "src_lines": line_count((ROOT / "src" / "ocfield").glob("*.py")),
        "import_lines": import_lines(env),
        "exports": len(ocfield.__all__),
        "provenance": {
            "cpu_count": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "OC_FIELD_THREADS": os.environ.get("OC_FIELD_THREADS"),
        },
    }
    text = json.dumps(result, indent=1) + "\n"
    Path(args.out).write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
