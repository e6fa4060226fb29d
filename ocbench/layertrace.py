"""Per-layer timing by wrapping `ocfield`'s public functions from outside.

`Tracer.install` replaces each function in `TARGETS` with a timing wrapper
in every `ocfield` module namespace that holds a reference to it, so calls
made through `ocfield.cli` and calls made inside `ocfield.simulate` are both
seen.  Spans nest on a stack: a function's self time is its duration minus
the durations of the wrapped functions it called.  A target that the
installed `ocfield` does not define is reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

# (module, qualified name, has wrapped children)
TARGETS = (
    ("simulate", "TrialStream.at", False),
    ("simulate", "sample_ppp", False),
    ("simulate", "draw_channels", False),
    ("simulate", "build_covariance", False),
    ("simulate", "oc_sinr", True),
    ("simulate", "combiner_weights", True),
    ("simulate", "combiner_sinr", False),
    ("simulate", "estimate_outage", True),
    ("linalg", "quadratic_form_inverse", False),
    ("linalg", "project_out", False),
    ("analytic", "outage_cdf", False),
    ("analytic", "throughput_density", True),
    ("contention", "q_poly_scaled", False),
    ("contention", "g_of_l", True),
    ("contention", "contention_optimum", True),
    ("contention", "throughput_grid_max", True),
    ("cli", "main", True),
    ("cli", "default_lambda_grid", False),
    ("cli", "figure_preset", True),
    ("cli", "write_csv", False),
)

# counters kept beside the timings (metric name -> unit)
COUNTERS = {
    "simulate.estimate_outage.self_us_per_trial": "us/trial",
    "simulate.sample_ppp.nodes_per_call": "nodes/call",
    "simulate.fields_below_L": "count",
    "linalg.quadratic_form_inverse.inf_returns": "count",
    "linalg.project_out.zero_returns": "count",
    "contention.q_poly_scaled.calls_per_root": "calls/root",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for module, qualname, has_children in TARGETS:
        name = f"{module}.{qualname}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.us_per_call"] = "us"
        if has_children:
            units[f"{name}.self_us_per_call"] = "us"
    units.update(COUNTERS)
    return units


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Timing wrappers for one process; create one, `install`, run, `metrics`."""

    def __init__(self):
        self.stats = {f"{m}.{q}": _Stat() for m, q, _ in TARGETS}
        self.absent: list[str] = []
        self._stack: list[list[int]] = []
        self._antennas: int | None = None  # L of the running estimate_outage
        self.trials = 0
        self.nodes = 0
        self.fields_below_L = 0
        self.inf_returns = 0
        self.zero_returns = 0

    def install(self, package: str = "ocfield") -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for module_name, qualname, _ in TARGETS:
            name = f"{module_name}.{qualname}"
            owner = sys.modules.get(f"{package}.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if path:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        after = {
            "simulate.sample_ppp": self._after_sample_ppp,
            "linalg.quadratic_form_inverse": self._after_quadratic_form,
            "linalg.project_out": self._after_project_out,
        }.get(name)
        if name == "simulate.estimate_outage":
            signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "simulate.estimate_outage":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.trials += bound.arguments.get("n_trials", 0)
                self._antennas = getattr(bound.arguments.get("params"), "L", None)
            frame = [0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - frame[0]
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after_sample_ppp(self, net) -> None:
        count = getattr(net, "node_count", 0)
        self.nodes += count
        if self._antennas is not None and count < self._antennas:
            self.fields_below_L += 1

    def _after_quadratic_form(self, value) -> None:
        self.inf_returns += value == math.inf

    def _after_project_out(self, w) -> None:
        self.zero_returns += not w.any()

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics over everything run since `install`; times are
        multiplied by `scale`."""
        us = scale / 1e3
        out = {}
        for module, qualname, has_children in TARGETS:
            name = f"{module}.{qualname}"
            stat = self.stats[name]
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.us_per_call"] = stat.total_ns * us / stat.calls if stat.calls else 0.0
            if has_children:
                out[f"{name}.self_us_per_call"] = stat.self_ns * us / stat.calls if stat.calls else 0.0
        est = self.stats["simulate.estimate_outage"]
        ppp = self.stats["simulate.sample_ppp"]
        roots = self.stats["contention.g_of_l"].calls
        out["simulate.estimate_outage.self_us_per_trial"] = (
            est.self_ns * us / self.trials if self.trials else 0.0
        )
        out["simulate.sample_ppp.nodes_per_call"] = self.nodes / ppp.calls if ppp.calls else 0.0
        out["simulate.fields_below_L"] = self.fields_below_L
        out["linalg.quadratic_form_inverse.inf_returns"] = self.inf_returns
        out["linalg.project_out.zero_returns"] = self.zero_returns
        out["contention.q_poly_scaled.calls_per_root"] = (
            self.stats["contention.q_poly_scaled"].calls / roots if roots else 0.0
        )
        return out
