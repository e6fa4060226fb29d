"""One workload process: import `ocfield` once, then run whole rounds of the
workload's CLI calls until the time budget is spent.

`run.py` starts it as

    python3 ocbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR --src SRC

with the checkout's `src` directory SRC on PYTHONPATH and OC_FIELD_THREADS unset.  The
first round writes its CSVs to DIR/round1 for checking; every later round
must reproduce them byte for byte.  The anchor kernel (anchor.py) runs
before the first call, after every round and after any call that ends
ANCHOR_EVERY_S after the last anchor; each call's time is scaled by
REFERENCE_S over the mean of the two anchors around it.  With
--trace 1 the first half of the budget runs untraced and the second half
under `layertrace.Tracer`, so the tracing overhead is measured in the same
process.  The summary goes to DIR/worker.json.

    python3 ocbench/worker.py --setup-only

only imports `ocfield`, runs the anchor once and prints both times, and the
scaled import time, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

import layertrace
import workloads


def _run_call(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash counts against the call's rows; the run goes on
        traceback.print_exc()
        return 1


# An anchor runs after any call that ends at least this long after the last
# anchor, and after every round, so that no timed stretch is much longer.
ANCHOR_EVERY_S = 0.25


class Rounds:
    """Runs rounds of one call list and keeps their speed-scaled timings."""

    def __init__(self, cli, calls, out: Path, anchor):
        self.cli = cli
        self.calls = calls
        self.anchor = anchor
        self.first = out / "round1"
        self.rest = out / "rest"
        self.first.mkdir(parents=True, exist_ok=True)
        self.rest.mkdir(parents=True, exist_ok=True)
        self.codes: list[int] | None = None
        self.reference: list[str | None] = []
        self.mismatches: list[str] = []
        self.call_times: list[list[float]] = []  # per round, per call, scaled
        self.raw_walls: list[float] = []
        self.anchors: list[float] = []
        self._anchored_at = 0.0

    def _run_anchor(self) -> None:
        self.anchors.append(self.anchor.anchor_seconds())
        self._anchored_at = time.perf_counter()

    def run_one(self) -> float:
        """One round; returns its scaled wall time."""
        if not self.anchors:
            self._run_anchor()
        directory = self.rest if self.codes is not None else self.first
        times, codes, paths, before = [], [], [], []
        for i, call in enumerate(self.calls):
            paths.append(directory / f"{i:03d}.csv")
            start = time.perf_counter()
            codes.append(_run_call(self.cli, [*call.argv, "--out", str(paths[-1])]))
            end = time.perf_counter()
            times.append(end - start)
            before.append(len(self.anchors) - 1)
            if i == len(self.calls) - 1 or end - self._anchored_at >= ANCHOR_EVERY_S:
                self._run_anchor()
        a = self.anchors
        scaled = [t * self.anchor.REFERENCE_S / (0.5 * (a[b] + a[b + 1])) for t, b in zip(times, before)]
        self.call_times.append(scaled)
        self.raw_walls.append(sum(times))
        texts = [path.read_text() if code == 0 else None for code, path in zip(codes, paths)]
        if self.codes is None:
            self.codes, self.reference = codes, texts
        elif codes != self.codes or texts != self.reference:
            self.mismatches.append(f"round {len(self.call_times)} differs from round 1")
        return sum(scaled)

    def run_for(self, seconds: float) -> list[float]:
        """Whole rounds until `seconds` have passed; returns each round's
        scaled wall time."""
        walls = []
        start = time.perf_counter()
        while True:
            walls.append(self.run_one())
            if time.perf_counter() - start >= seconds:
                return walls


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    VmHWM starts afresh at exec, unlike ru_maxrss, which a child inherits
    from the process that forked it.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def rates(calls, call_times: list[list[float]]) -> dict[str, float]:
    """Work per second over all rounds, per receiver and per CSV kind."""
    work: dict[str, float] = {}
    seconds: dict[str, float] = {}
    for i, call in enumerate(calls):
        if call.kind == "simulate":
            key, amount = f"cli.trials_per_s.{call.receivers[0]}", call.rows * call.n_trials
        else:
            key, amount = f"cli.{call.kind}.rows_per_s", call.rows
        work[key] = work.get(key, 0.0) + amount * len(call_times)
        seconds[key] = seconds.get(key, 0.0) + sum(times[i] for times in call_times)
    return {key: work[key] / seconds[key] for key in work}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--src", help="directory the ocfield package must come from")
    args = parser.parse_args()
    if not args.setup_only and None in (args.workload, args.seed, args.seconds, args.out, args.src):
        parser.error("--workload, --seed, --seconds, --out and --src are required")

    start = time.perf_counter()
    import ocfield.cli as cli

    import_s = time.perf_counter() - start
    import numpy
    import ocfield

    import anchor  # imports numpy, so only after the timed import

    anchor_s = anchor.anchor_seconds()
    setup = {"import_s": import_s, "anchor_s": anchor_s,
             "setup_s": import_s * anchor.REFERENCE_S / anchor_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    expected = Path(args.src).resolve() / "ocfield"
    if Path(ocfield.__file__).resolve().parent != expected:
        print(f"ocfield imported from {ocfield.__file__}, expected {expected}", file=sys.stderr)
        return 2

    out = Path(args.out)
    calls = workloads.build(args.workload, args.seed)
    rounds = Rounds(cli, calls, out, anchor)
    budget = args.seconds / 2 if args.trace else args.seconds
    walls = rounds.run_for(budget)
    result = {
        "setup": setup,
        "rounds": len(walls),
        "round_wall_s": walls,
        "wall_s": statistics.fmean(walls),
        "rates": rates(calls, rounds.call_times),
        "call_median_s": {
            call.name: statistics.median(times[i] for times in rounds.call_times)
            for i, call in enumerate(calls)
        },
    }
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        first_traced = len(rounds.anchors)
        traced = rounds.run_for(budget)
        result["rounds"] += len(traced)
        result["traced_round_wall_s"] = traced
        result["trace_overhead"] = statistics.fmean(traced) / result["wall_s"]
        scale = anchor.REFERENCE_S / statistics.fmean(rounds.anchors[first_traced:])
        result["layers"] = tracer.metrics(scale)
        result["absent"] = tracer.absent
    result.update(
        raw_round_wall_s=rounds.raw_walls,
        anchor_s=rounds.anchors,
        codes=rounds.codes,
        mismatches=rounds.mismatches,
        peak_rss_mb=peak_rss_mb(),
        provenance={
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "workers": int(os.environ.get("OC_FIELD_THREADS", "1")),
        },
    )
    (out / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
