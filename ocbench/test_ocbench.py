"""Tests of the benchmark itself: every checker flags a row that is wrong by
a small known amount, the tracer reports what it wraps and what is absent,
and every workload passes its checks on a seed other than the default.

    python3 -m pytest ocbench/test_ocbench.py
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
import types
from pathlib import Path

import pytest

import checks
import layertrace
import run
import workloads

HERE = Path(__file__).resolve().parent


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _analytic_row(sc, lam: float, L: int) -> dict:
    x = lam * checks.area(sc) + sc.sigma2 * sc.gamma
    value = checks.outage(L, x)
    return {"lambda": _fmt(lam), "L": str(L), "analytic_outage": _fmt(value),
            "throughput_density": _fmt(lam * (1.0 - value))}


def _simulate_row(sc, lam: float, L: int, receiver: str, k: int, n: int) -> dict:
    p = k / n
    x = lam * checks.area(sc) + sc.sigma2 * sc.gamma
    return {"lambda": _fmt(lam), "L": str(L), "receiver": checks.receiver_label(receiver, L),
            "analytic_outage": _fmt(checks.outage(L, x)) if receiver == "oc" else "nan",
            "mc_outage": _fmt(p), "stderr": _fmt(math.sqrt(p * (1.0 - p) / n)),
            "n_trials": str(n), "seed": "12345"}


def _optimize_row(sc, L: int) -> dict:
    x, lam, t = checks.optimum(L, checks.area(sc), sc.sigma2 * sc.gamma)
    return {"L": str(L), "g": _fmt(x), "lambda_max": _fmt(lam), "t_max": _fmt(t),
            "mode": "closed-form"}


def test_analytic_checker_flags_outage_off_by_one_part_per_million():
    sc = workloads.Scenario()
    row = _analytic_row(sc, 2e-3, 4)
    assert checks.check_analytic_row(row, sc, checks.area(sc)) == []
    row["analytic_outage"] = _fmt(float(row["analytic_outage"]) * (1.0 + 1e-6))
    assert checks.check_analytic_row(row, sc, checks.area(sc))


def test_analytic_checker_flags_throughput_off_by_one_part_per_million():
    sc = workloads.Scenario(alpha=4.0, sigma2=0.0)
    row = _analytic_row(sc, 5e-4, 64)
    row["throughput_density"] = _fmt(float(row["throughput_density"]) * (1.0 + 1e-6))
    assert checks.check_analytic_row(row, sc, checks.area(sc))


@pytest.mark.parametrize("sign", (1, -1))
def test_oc_checker_flags_five_standard_errors(sign):
    sc = workloads.Scenario(sigma2=0.0)
    lam, L, n = workloads.RECEIVER_GRID[1], 8, 2000
    p = checks.outage(L, checks.finite_disk_exponent(lam, sc))
    k = round(p * n)
    shift = math.ceil(5.0 * math.sqrt(n * p * (1.0 - p)))
    scale = checks.area(sc)
    assert checks.check_simulate_row(_simulate_row(sc, lam, L, "oc", k, n), sc, scale, "oc", n) == []
    shifted = _simulate_row(sc, lam, L, "oc", k + sign * shift, n)
    assert any("p-value" in p for p in checks.check_simulate_row(shifted, sc, scale, "oc", n))


def _cell_calls():
    sc = workloads.Scenario(sigma2=0.0)
    return sc, [
        workloads.Call(name=f"simulate-{r}", argv=[], kind="simulate", scenario=sc, antennas=(8,),
                       rows=1, receivers=(r,), n_trials=2000)
        for r in ("oc", "mrc")
    ]


def test_ordering_checker_flags_more_oc_outages_than_mrc():
    sc, calls = _cell_calls()
    lam, n = workloads.RECEIVER_GRID[1], 2000
    k = round(checks.outage(8, checks.finite_disk_exponent(lam, sc)) * n)
    texts = [_csv([_simulate_row(sc, lam, 8, "oc", k, n)]),
             _csv([_simulate_row(sc, lam, 8, "mrc", k, n)])]
    assert checks.check_round(calls, texts).failed == {}
    texts[1] = _csv([_simulate_row(sc, lam, 8, "mrc", k - 1, n)])
    report = checks.check_round(calls, texts)
    assert list(report.failed) == [(1, 0)]
    assert "fewer outages than oc" in report.failed[(1, 0)][0]


@pytest.mark.parametrize("sc", (workloads.Scenario(sigma2=0.0), workloads.Scenario(alpha=4.0, sigma2=0.0)))
def test_optimize_checker_flags_g_off_by_one_part_per_million(sc):
    row = _optimize_row(sc, 12)
    assert checks.check_optimize_row(row, sc, checks.area(sc)) == []
    row["g"] = _fmt(float(row["g"]) * (1.0 + 1e-6))
    assert any(p.startswith("g ") for p in checks.check_optimize_row(row, sc, checks.area(sc)))


def test_optimize_checker_flags_throughput_above_density():
    sc = workloads.Scenario()  # with noise: the g column is not read
    row = _optimize_row(sc, 6)
    row["g"] = "nan"
    assert checks.check_optimize_row(row, sc, checks.area(sc)) == []
    row["t_max"] = _fmt(float(row["lambda_max"]) * 1.01)
    assert any("t_max <= lambda_max" in p for p in checks.check_optimize_row(row, sc, checks.area(sc)))


def test_default_grid_checker_flags_a_moved_density():
    sc = workloads.FIG1
    scale = checks.area(sc)
    noise = sc.sigma2 * sc.gamma
    lo = (checks.exponent_for(4, 0.01) - noise) / scale
    hi = (checks.exponent_for(1, 0.99) - noise) / scale
    grid = [lo * (hi / lo) ** (k / 9) for k in range(10)]
    assert checks.check_default_grid(grid, sc, scale, (1, 2, 3, 4)) == []
    grid[4] *= 1.0 + 1e-6
    assert checks.check_default_grid(grid, sc, scale, (1, 2, 3, 4))


def test_tracer_wraps_every_namespace_and_reports_absent_targets(monkeypatch):
    simulate = types.ModuleType("fakepkg.simulate")
    cli = types.ModuleType("fakepkg.cli")

    def sample_ppp(lam, expected_count, rng):
        return types.SimpleNamespace(node_count=3)

    simulate.sample_ppp = cli.sample_ppp = sample_ppp
    monkeypatch.setitem(sys.modules, "fakepkg.simulate", simulate)
    monkeypatch.setitem(sys.modules, "fakepkg.cli", cli)
    tracer = layertrace.Tracer()
    tracer.install("fakepkg")
    assert simulate.sample_ppp is cli.sample_ppp is not sample_ppp
    simulate.sample_ppp(1.0, 3, None)
    cli.sample_ppp(1.0, 3, None)
    metrics = tracer.metrics()
    assert metrics["simulate.sample_ppp.calls"] == 2
    assert metrics["simulate.sample_ppp.nodes_per_call"] == 3
    assert "simulate.sample_ppp" not in tracer.absent
    assert "linalg.quadratic_form_inverse" in tracer.absent
    assert metrics["linalg.quadratic_form_inverse.calls"] == 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


# layers that must show work in the traced run of each workload
TRACED_LAYERS = {
    "fig1-oc-sweep": ("simulate.TrialStream.at", "simulate.sample_ppp", "linalg.quadratic_form_inverse",
                      "analytic.outage_cdf", "cli.default_lambda_grid"),
    "receivers-l8": ("simulate.draw_channels", "simulate.combiner_weights", "linalg.project_out",
                     "simulate.combiner_sinr"),
    "analytic-contention": ("analytic.throughput_density", "contention.g_of_l",
                            "contention.throughput_grid_max", "cli.figure_preset", "cli.write_csv"),
}
KNOWN_FAILURES_PER_ROUND = {"fig1-oc-sweep": 0, "receivers-l8": 0, "analytic-contention": 5}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_passes_on_a_second_seed(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"], done.stdout
    rounds = 2  # one untraced and one traced round
    per_round = sum(call.rows for call in workloads.build(workload, 7))
    assert line["attempted"] == rounds * per_round
    assert line["failed"] == rounds * KNOWN_FAILURES_PER_ROUND[workload]
    assert set(line["metrics"]) == set(run.PER_LAYER_UNITS)
    for layer in TRACED_LAYERS[workload]:
        assert line["metrics"][f"{layer}.calls"]["value"] > 0, layer
    assert line["metrics"]["cli.main.calls"]["value"] == len(workloads.build(workload, 7))
