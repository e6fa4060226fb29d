"""Every public entry point rejects each argument outside its domain with a
ValueError that names the parameter: one case per (entry point, parameter,
value), all checked against the one table in `ocfield.domains`.  The tests'
frozen-field law and estimator (`_frozen_field`) are held to the same
wording: they check sigma2, L and the run's arguments against the table, and
`powers` and `gamma` (which may be 0 there) themselves."""

import math

import numpy as np
import pytest

from ocfield import (
    BLOCK,
    SystemParams,
    TrialStream,
    block_sinr,
    contention_optimum,
    delta_const,
    estimate_outage,
    gamma_from_beta,
)
from ocfield.cli import ConfigError, ScenarioConfig
from ocfield.domains import _pzf_count

from _frozen_field import conditional_outage_cdf, estimate_outage_conditional

NAN, INF = math.nan, math.inf
REALS = [NAN, INF, -INF, -1.0]  # outside every real domain
POSITIVE = [*REALS, 0.0]  # outside a domain that excludes 0
ALPHAS = [*REALS, 2.0]
BOOLS = [True, False]  # ints to Python, never counts
COUNTS = [NAN, INF, -1, 0, 2.0, *BOOLS]  # outside "an integer >= 1"
ANTENNAS = [*COUNTS, 10**6 + 1]  # outside "an integer in [1, 1000000]"
# the simulator also caps expected_count * L at 2**18: 131072 at L = 2
DISK_COUNTS = [*COUNTS, 131073]
WORKERS = [*COUNTS, 257]  # outside "an integer in [1, 256]"
SEEDS = [NAN, -1, 1 << 64, 1.0, *BOOLS]
PZF = [NAN, INF, -1, 1.0, *BOOLS]
RECEIVER = ["dfe", None]
POWERS = [[NAN], [INF], [-1.0], [0.0], [1.0, NAN], np.array([1.0, NAN]), np.array([0.0])]

PHYSICAL = dict(lam=1e-3, alpha=3.5, sigma2=1e-5, d_r=10.0, L=2, beta=2.0)


def params(**overrides):
    return SystemParams(**{**PHYSICAL, **overrides})


def fresh_block_sinr(**kwargs):
    return block_sinr(rng=TrialStream(1).at(0), **kwargs)


# g(L), lambda_max and t_max are fields of contention_optimum; each row
# checks the arguments of its quantity through that one entry point
def g_of_l(L):
    return contention_optimum(L, 3.5, 100.0).g


def lambda_max(L, alpha, gamma):
    return contention_optimum(L, alpha, gamma).lambda_max


def throughput_max(L, alpha, gamma):
    return contention_optimum(L, alpha, gamma).t_max


# the default PZF cancellation count, as the simulator and the CLI resolve it
def default_pzf_k(L):
    return _pzf_count(L, None)


RUN = dict(n_trials=64, master_seed=1)
FROZEN = dict(powers=[1.0, 0.5], sigma2=1e-3, L=2, gamma=1.0)
SIMULATOR = dict(receiver="oc", expected_count=10, pzf_k=None)

# entry point, valid keyword arguments, {parameter: values outside its domain}.
# A SystemParams is checked when built; the simulator adds only lam > 0, so
# its "params" rows carry lam = 0 and must name lam.
ENTRY_POINTS = [
    (SystemParams, PHYSICAL,
     dict(lam=REALS, alpha=ALPHAS, sigma2=REALS, d_r=POSITIVE, L=ANTENNAS, beta=POSITIVE)),
    (gamma_from_beta, dict(beta=2.0, d_r=10.0, alpha=3.5),
     dict(beta=POSITIVE, d_r=POSITIVE, alpha=ALPHAS)),
    (delta_const, dict(alpha=3.5), dict(alpha=ALPHAS)),
    (g_of_l, dict(L=2), dict(L=ANTENNAS)),
    (lambda_max, dict(L=2, alpha=3.5, gamma=1e3), dict(L=ANTENNAS, alpha=ALPHAS, gamma=POSITIVE)),
    (throughput_max, dict(L=2, alpha=3.5, gamma=1e3),
     dict(L=ANTENNAS, alpha=ALPHAS, gamma=POSITIVE)),
    (contention_optimum, dict(L=2, alpha=3.5, gamma=1e3, sigma2=1e-5),
     dict(L=ANTENNAS, alpha=ALPHAS, gamma=POSITIVE, sigma2=[*REALS, 1e306])),
    (TrialStream, dict(master_seed=1), dict(master_seed=SEEDS)),
    (default_pzf_k, dict(L=2), dict(L=ANTENNAS)),
    (conditional_outage_cdf, FROZEN, dict(powers=POWERS, sigma2=REALS, L=ANTENNAS, gamma=REALS)),
    (estimate_outage_conditional, {**FROZEN, **RUN},
     dict(powers=POWERS, sigma2=REALS, L=ANTENNAS, gamma=REALS, n_trials=COUNTS,
          master_seed=SEEDS, workers=WORKERS)),
    (fresh_block_sinr, dict(params=params(), size=8, **SIMULATOR),
     dict(params=[params(lam=0.0)], receiver=RECEIVER, expected_count=DISK_COUNTS, pzf_k=PZF,
          size=[*COUNTS, BLOCK + 1])),
    (estimate_outage, dict(params=params(), **SIMULATOR, **RUN),
     dict(params=[params(lam=0.0)], receiver=RECEIVER, expected_count=DISK_COUNTS, pzf_k=PZF,
          n_trials=COUNTS, master_seed=SEEDS, workers=WORKERS)),
]


def _cases():
    for entry, valid, bad in ENTRY_POINTS:
        for parameter, values in bad.items():
            for value in values:
                yield pytest.param(
                    entry, valid, parameter, value, id=f"{entry.__name__}-{parameter}={value!r}"
                )


@pytest.mark.parametrize(
    "entry, valid", [pytest.param(e, v, id=e.__name__) for e, v, _ in ENTRY_POINTS]
)
def test_valid_arguments_pass(entry, valid):
    entry(**valid)


@pytest.mark.parametrize("entry, valid, parameter, value", _cases())
def test_out_of_domain_argument_is_named(entry, valid, parameter, value, monkeypatch):
    name = "lam" if parameter == "params" else parameter
    if parameter == "workers":  # the worker count comes from the environment, as text
        monkeypatch.setenv("OC_FIELD_THREADS", str(value))
    else:
        valid = {**valid, parameter: value}
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        entry(**valid)


def test_simulator_runs_where_only_d_r_to_the_minus_alpha_overflows():
    # gamma = beta * d_r**alpha is a normal double though d_r**-alpha is not;
    # the engine compares Z = SINR * d_r**alpha with gamma and never forms it
    scenario = params(alpha=31.0, d_r=1e-10, beta=1e10)
    z = fresh_block_sinr(params=scenario, size=8, **SIMULATOR)
    assert z.shape == (8,)


def test_simulator_caps_the_antenna_count():
    # the cap bounds the memory of a block's (2L, 2L) Grams
    with pytest.raises(ValueError, match=r"^L must be an integer in \[1, 256\], got 257$"):
        fresh_block_sinr(params=params(L=257), size=8, **SIMULATOR)
    assert fresh_block_sinr(params=params(L=256), size=1, **SIMULATOR).shape == (1,)


# `simulate` labels each row from its receiver, L and pzf_k (pzf<k> for PZF);
# the scenario checks all three when built, before any row, and names the
# field of the value it refuses
LABELED = dict(receivers=("pzf",), antennas=(3,), pzf_k=None, lambda_grid=(1e-3,))
LABEL_INPUTS = {("receivers", "receiver"): RECEIVER, ("antennas", "L"): ANTENNAS,
                ("pzf_k", "pzf_k"): PZF}


def test_labeled_scenario_passes():
    assert ScenarioConfig(**LABELED).receivers == ("pzf",)


@pytest.mark.parametrize(
    "field, name, value",
    [pytest.param(field, name, value, id=f"{field}={value!r}")
     for (field, name), values in LABEL_INPUTS.items() for value in values],
)
def test_label_input_outside_its_domain_is_named(field, name, value):
    item = value if field == "pzf_k" else (value,)
    with pytest.raises(ConfigError, match=rf"^{field}: {name} must be "):
        ScenarioConfig(**{**LABELED, field: item})
