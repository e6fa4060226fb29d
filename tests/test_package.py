"""The package surface: every export, and numpy loaded by the Monte Carlo
path alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ocfield
from ocfield import conditional_outage_cdf

EXPORTS = [
    "BLOCK",
    "BracketViolation",
    "ContentionOptimum",
    "OutageEstimate",
    "SystemParams",
    "TrialStream",
    "block_sinr",
    "conditional_outage_cdf",
    "contention_optimum",
    "delta_const",
    "estimate_outage",
    "gamma_from_beta",
    "outage_cdf",
    "receiver_label",
]

# each step runs in one fresh interpreter, in order, and reports whether
# numpy is loaded after it
COLD_START = """
import io, json, sys
from contextlib import redirect_stdout
from ocfield.cli import main
loaded = [("import", "numpy" in sys.modules)]
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded.append((" ".join(argv), "numpy" in sys.modules, code))
print(json.dumps(loaded))
"""

CLOSED_FORM = [
    ["analytic", "--L", "1,8,64"],
    ["optimize"],
    ["figure", "3"],
    ["figure", "4"],
]
MONTE_CARLO = ["simulate", "--L", "2", "--lambda-grid", "1e-3", "--n-trials", "64"]


def test_numpy_is_loaded_by_the_monte_carlo_path_alone():
    src = str(Path(ocfield.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argvs = json.dumps([*CLOSED_FORM, MONTE_CARLO])
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, argvs],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    (_, after_import), *commands, (_, after_simulate, simulate_code) = json.loads(done.stdout)
    assert not after_import
    assert [(step, loaded, code) for step, loaded, code in commands] == [
        (" ".join(argv), False, 0) for argv in CLOSED_FORM
    ]
    assert after_simulate and simulate_code == 0


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
])
def test_wrappers_of_the_entry_points_are_gone(name):
    # each was outage_cdf, contention_optimum or block_sinr under another
    # signature, or a quantity only tests used: the SIR moments are now a test
    # reference, the frozen-field estimator a test helper on the block engine,
    # and the default PZF count is domains._pzf_count(L, None)
    with pytest.raises(AttributeError):
        getattr(ocfield, name)


def test_lazy_exports_are_the_simulate_objects():
    from ocfield import simulate

    for name in simulate.__all__:
        assert getattr(ocfield, name) is getattr(simulate, name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ocfield.no_such_name


@pytest.mark.parametrize("L, sigma2, gamma", [(1, 0.0, 1.0), (2, 1e-3, 3.0), (4, 0.5, 1e10)])
def test_conditional_law_takes_any_sequence_of_powers(L, sigma2, gamma):
    powers = [0.5, 2.0, 1e-3, 7.0, 1e300]
    value = conditional_outage_cdf(powers, sigma2, L, gamma)
    assert conditional_outage_cdf(tuple(powers), sigma2, L, gamma) == value
    assert conditional_outage_cdf(np.array(powers), sigma2, L, gamma) == value
