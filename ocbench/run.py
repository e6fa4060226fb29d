"""ocfield benchmark: run one workload (or all), check every output row, and
print the metrics.

    python3 ocbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ocbench/run.py                      # every workload, one table

Run it from anywhere inside a checkout of the repository: the package is
imported from the checkout's `src` directory, so nothing needs building.
The workload runs in a fresh worker process (see worker.py); this process
then times fresh imports for `setup_s`, checks the first round's CSV rows
against the references in checks.py, writes ocbench/out/<run>/result.json
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones.  The exit code is 0 when the run completed, whether or
not the checks passed; a checkout without `src/ocfield` exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11  # fresh imports timed besides the worker's own

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
RATE_UNITS = {
    **{f"cli.trials_per_s.{r}": "trials/s" for r in workloads.RECEIVERS},
    "cli.analytic.rows_per_s": "rows/s",
    "cli.optimize.rows_per_s": "rows/s",
}
PER_LAYER_UNITS = {**layertrace.metric_units(), **RATE_UNITS, "trace.overhead": "ratio"}


def _environment() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OC_FIELD_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _setup_samples(env: dict[str, str], count: int) -> list[dict]:
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--setup-only"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(json.loads(done.stdout))
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run, check and summarize one workload; returns the result record."""
    out = HERE / "out" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = _environment()
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace), "--out", str(out), "--src", str(SRC)],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=seconds + 120, check=True,
    )
    worker = json.loads((out / "worker.json").read_text())
    setup = [worker["setup"], *_setup_samples(env, SETUP_SAMPLES)]
    setup_s = statistics.median(sample["setup_s"] for sample in setup)

    import checks  # scipy is imported here, after all timing is done

    calls = workloads.build(workload, seed)
    texts = [
        (out / "round1" / f"{i:03d}.csv").read_text() if code == 0 else None
        for i, code in enumerate(worker["codes"])
    ]
    report = checks.check_round(calls, texts)
    shutil.rmtree(out / "rest", ignore_errors=True)

    rounds = worker["rounds"]
    if trace:
        values = {**dict.fromkeys(RATE_UNITS, 0.0), **worker["rates"], **worker["layers"],
                  "trace.overhead": worker["trace_overhead"]}
        units = PER_LAYER_UNITS
    else:
        values = {"setup_s": setup_s, "wall_s": worker["wall_s"],
                  "peak_rss_mb": worker["peak_rss_mb"]}
        units = END_TO_END_UNITS
    line = {
        "correct": not report.unexpected and not worker["mismatches"],
        "attempted": report.rows * rounds,
        "failed": len(report.failed) * rounds,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **line,
        "rounds": rounds,
        "operations_per_round": report.rows,
        "failed_per_round": len(report.failed),
        "failures": [
            {"call": calls[i].name, "row": r, "known": calls[i].known_failure, "problems": p}
            for (i, r), p in sorted(report.failed.items())
        ],
        "unexpected": report.unexpected,
        "mismatches": worker["mismatches"],
        "setup_samples": setup,
        "absent": worker.get("absent", []),
        "worker": {k: worker[k] for k in worker if k not in ("layers", "absent", "codes")},
        "provenance": {**worker["provenance"], "git_commit": _git_commit()},
    }
    (out / "result.json").write_text(json.dumps(record, indent=1))
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description="ocfield benchmark")
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ocfield" / "__init__.py").is_file():
        print(f"no ocfield package under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    lines = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads.WORKLOADS}
    for workload, line in lines.items():
        print(f"{workload}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}")
        for name, metric in line["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
