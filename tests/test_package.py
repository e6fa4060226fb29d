"""The package surface: every export, the checked records, and the modules
each command loads: numpy by the Monte Carlo path alone, the contention
solver by the commands that solve for an optimum."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ocfield
from ocfield.analytic import SystemParams
from ocfield.cli import ConfigError, ScenarioConfig
from ocfield.contention import ContentionOptimum
from ocfield.simulate import OutageEstimate

from _frozen_field import conditional_outage_cdf

EXPORTS = [
    "BLOCK",
    "BracketViolation",
    "ContentionOptimum",
    "OutageEstimate",
    "SystemParams",
    "TrialStream",
    "block_sinr",
    "contention_optimum",
    "delta_const",
    "estimate_outage",
    "gamma_from_beta",
    "outage_cdf",
]

# the modules that each step below reports loaded, if they are
WATCHED = ["dataclasses", "inspect", "json", "numpy", "ocfield.contention", "ocfield.simulate"]

# each step runs in one fresh interpreter, in order, and prints a line
# "step|exit code|each WATCHED module loaded after it"; the contention solver
# is unloaded before each command, so that its line shows whether it loads it
COLD_START = """
import io, sys
from contextlib import redirect_stdout
from ocfield.cli import main

def report(step, code=0):
    print(step, code, *(name for name in sys.argv[1].split(",") if name in sys.modules), sep="|")

report("import")
for command in sys.argv[2:]:
    sys.modules.pop("ocfield.contention", None)
    with redirect_stdout(io.StringIO()):
        code = main(command.split())
    report(command, code)
"""

CLOSED_FORM = [  # each command, and whether it loads the contention solver
    ("analytic --L 1,8,64", False),
    ("optimize", True),
    ("figure 3", True),
    ("figure 4", True),
]
MONTE_CARLO = "simulate --L 2 --lambda-grid 1e-3 --n-trials 64"


def test_each_command_loads_only_what_it_runs():
    src = str(Path(ocfield.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    steps = [command for command, _ in CLOSED_FORM] + [MONTE_CARLO]
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, ",".join(WATCHED), *steps],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    *lines, (_, simulate_code, *simulate_loads) = [
        line.split("|") for line in done.stdout.splitlines()
    ]
    assert lines == [["import", "0"]] + [
        [command, "0", *(["ocfield.contention"] if loads else [])] for command, loads in CLOSED_FORM
    ]
    # numpy may load more of WATCHED itself (inspect, at numpy 2.4)
    assert simulate_code == "0" and "ocfield.contention" not in simulate_loads
    assert {"numpy", "ocfield.simulate"} <= set(simulate_loads)


def test_every_export_is_listed_and_star_importable():
    assert sorted(ocfield.__all__) == EXPORTS
    namespace = {}
    exec("from ocfield import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    assert set(EXPORTS) <= set(dir(ocfield))


@pytest.mark.parametrize("name", [
    "SirMomentsEstimate", "estimate_sir_moments", "g_of_l", "lambda_max",
    "outage_interference_limited", "outage_noise_limited", "throughput_density", "throughput_max",
    "array_gain", "estimate_outage_conditional", "sir_mean", "sir_variance", "default_pzf_k",
    "conditional_outage_cdf",
])
def test_wrappers_of_the_entry_points_are_gone(name):
    # each was outage_cdf, contention_optimum or block_sinr under another
    # signature, or a quantity only tests used: the SIR moments are now a test
    # reference, the frozen-field law and estimator test helpers on the
    # Poisson core and the block engine, and the default PZF count is
    # domains._pzf_count(L, None)
    with pytest.raises(AttributeError):
        getattr(ocfield, name)


def test_lazy_exports_are_the_contention_and_simulate_objects():
    from ocfield import analytic, contention, simulate

    for module in (contention, simulate):
        for name in module.__all__:
            assert getattr(ocfield, name) is getattr(module, name)
            assert name in dir(ocfield)
    # the solvers' shared error and step bound, importable from contention as before
    assert contention.BracketViolation is analytic.BracketViolation
    assert contention._MAX_STEPS is analytic._MAX_STEPS
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ocfield.no_such_name


# each record type, a valid record's fields, and one field with a value
# outside its domain, the error that value raises and its message
RECORDS = {
    "SystemParams": (
        SystemParams, dict(lam=1e-3, alpha=3.5, sigma2=1e-5, d_r=10.0, L=2, beta=2.0),
        "alpha", 2.0, ValueError, "alpha must be",
    ),
    "ScenarioConfig": (
        ScenarioConfig, dict(alpha=3.0, sigma2=0.0, antennas=(1, 8), lambda_grid=(1e-3,)),
        "antennas", (1, 0), ConfigError, "antennas: L must be",
    ),
    "ContentionOptimum": (
        ContentionOptimum, dict(L=3, g=2.25, lambda_max=0.03, t_max=0.02),
        "L", 0, ValueError, "L must be",
    ),
    "OutageEstimate": (
        OutageEstimate, dict(p_hat=0.25, stderr=0.01, n_trials=900, master_seed=7),
        "p_hat", 1.5, ValueError, "p_hat must be",
    ),
}


def _values(record, field, value) -> list:
    # the record's fields in order, with `field` set to `value`
    return [value if name == field else v for name, v in zip(record._fields, record)]


# each way to build a record from a valid one with one field changed
BUILDS = {
    "keywords": lambda record, field, value: type(record)(**{**record._asdict(), field: value}),
    "positional": lambda record, field, value: type(record)(*_values(record, field, value)),
    "_make": lambda record, field, value: type(record)._make(_values(record, field, value)),
    "_replace": lambda record, field, value: record._replace(**{field: value}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable_and_built_alike_by_position_and_keyword(name):
    cls, fields, field, value, _, _ = RECORDS[name]
    record = cls(**fields)
    assert cls(*record) == record and type(cls(*record)) is cls
    assert cls._make(record) == record
    assert record._replace() == record
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert record == cls(**fields)  # the refused assignments changed nothing


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_an_out_of_domain_field_however_built(name, build):
    cls, fields, field, value, error, message = RECORDS[name]
    with pytest.raises(error, match=message):
        BUILDS[build](cls(**fields), field, value)


@pytest.mark.parametrize("L, sigma2, gamma", [(1, 0.0, 1.0), (2, 1e-3, 3.0), (4, 0.5, 1e10)])
def test_conditional_law_takes_any_sequence_of_powers(L, sigma2, gamma):
    powers = [0.5, 2.0, 1e-3, 7.0, 1e300]
    value = conditional_outage_cdf(powers, sigma2, L, gamma)
    assert conditional_outage_cdf(tuple(powers), sigma2, L, gamma) == value
    assert conditional_outage_cdf(np.array(powers), sigma2, L, gamma) == value
