"""Monte Carlo vs theory on the full figure-wide density range.

The simulator samples a finite disk holding ~expected_count nodes, so its
outage differs from the infinite-field closed form by a truncation bias that
grows with density (and shrinks with the disk).  These tests pin down all
three facts at once: the simulator matches the exact finite-disk reference
everywhere, the gap to the infinite-field form is real and quantified, and
enlarging the disk closes it.
"""

import math

import pytest

from ocfield import estimate_outage, outage_cdf
from ocfield.cli import ScenarioConfig, default_lambda_grid, figure_preset

from _oracles import finite_disk_outage

N_TRIALS = 20_000


def preset_grid():
    # the preset leaves its grid to the default, resolved here as the CLI does
    _, config = figure_preset(1)
    grid = default_lambda_grid(config)
    assert len(grid) == 10
    return config._replace(lambda_grid=grid)


class TestFiniteDiskReference:
    @pytest.mark.parametrize("L", [1, 4])
    def test_simulator_matches_truncated_model_on_full_grid(self, L):
        config = preset_grid()
        for k, lam in enumerate(config.lambda_grid):
            params = config.params_for(lam, L)
            est = estimate_outage(
                params, n_trials=N_TRIALS, master_seed=1000 + k, expected_count=100
            )
            reference = finite_disk_outage(lam, L, params.alpha, params.sigma2, params.gamma, 100)
            stderr = max(est.stderr, math.sqrt(reference * (1 - reference) / N_TRIALS))
            assert abs(est.p_hat - reference) <= 4.0 * stderr, f"lambda={lam}"

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: at large alpha the OC quadratic form's collapse tests "
        "read failing trials as successes",
    )
    def test_simulator_matches_truncated_model_at_large_alpha(self):
        # the top of the default grid of `simulate --alpha 12 --sigma2 0 --L 4
        # --lambda-points 3`, where the finite-disk outage is 0.98999989: the
        # simulator reads 0.9808 at this seed, -9.5 standard errors
        config = ScenarioConfig(alpha=12.0, sigma2=0.0, antennas=(4,), lambda_points=3)
        lam = default_lambda_grid(config)[-1]
        params = config.params_for(lam, 4)
        est = estimate_outage(params, n_trials=N_TRIALS, master_seed=1300, expected_count=100)
        reference = finite_disk_outage(lam, 4, params.alpha, params.sigma2, params.gamma, 100)
        stderr = max(est.stderr, math.sqrt(reference * (1 - reference) / N_TRIALS))
        assert abs(est.p_hat - reference) <= 4.0 * stderr

    def test_truncation_bias_is_real_at_high_density(self):
        # upper-middle of the preset grid, four antennas: the infinite-field
        # value sits several standard errors above what the truncated field
        # can produce
        config = preset_grid()
        lam = config.lambda_grid[6]
        params = config.params_for(lam, 4)
        reference = finite_disk_outage(lam, 4, params.alpha, params.sigma2, params.gamma, 100)
        infinite = outage_cdf(params)
        est = estimate_outage(params, n_trials=2 * N_TRIALS, master_seed=1100, expected_count=100)
        assert infinite - reference > 4.0 * est.stderr
        assert infinite - est.p_hat > 4.0 * est.stderr
        assert abs(est.p_hat - reference) <= 4.0 * est.stderr

    def test_larger_disk_restores_infinite_field_agreement(self):
        config = preset_grid()
        lam = config.lambda_grid[6]
        params = config.params_for(lam, 4)
        est = estimate_outage(params, n_trials=N_TRIALS, master_seed=1200, expected_count=1000)
        assert abs(est.p_hat - outage_cdf(params)) <= 4.0 * est.stderr
