import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import ocfield.contention as contention_module
from ocfield import BracketViolation, SystemParams, contention_optimum, delta_const, outage_cdf
from ocfield.analytic import _poisson_split

from _oracles import contention_q_scaled, throughput_optimum

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def gamma_for_unit_area(alpha):
    # gamma making Delta * gamma^(2/alpha) = 1
    return delta_const(alpha) ** (-alpha / 2.0)


def g_root(L):
    # g(L) is the noise-free optimum load, whatever alpha and gamma
    return contention_optimum(L, 3.5, 1.0).g


def interference_limited_outage(L, lam, alpha, gamma):
    # at d_r = 1 the threshold beta is gamma itself
    return outage_cdf(SystemParams(lam=lam, alpha=alpha, sigma2=0.0, d_r=1.0, L=L, beta=gamma))


def bisect_cubic_root():
    # independent root of t^3 - t^2 - 2t - 2 (the three-antenna polynomial
    # with denominators cleared), plain bisection
    def f(t):
        return t**3 - t**2 - 2.0 * t - 2.0

    lo, hi = 1.5, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGofL:
    def test_one_antenna_exact(self):
        assert g_root(1) == 1.0

    def test_two_antennas_golden(self):
        assert g_root(2) == approx(GOLDEN, abs=1e-12)

    def test_three_antennas_vs_bisection_oracle(self):
        assert g_root(3) == approx(bisect_cubic_root(), abs=1e-10)

    def test_large_l_root_is_interior(self):
        # the root stays strictly inside (L/2, L) where exp(-t) underflows
        g = g_root(900)
        assert 450.0 < g < 900.0
        assert g == approx(834.6333, abs=1e-4)
        assert 1000.0 < g_root(2000) < 2000.0

    def test_bracket_and_residual_through_200(self):
        previous = 0.0
        for L in range(1, 201):
            assert contention_q_scaled(L, 0.5 * L) > 0.0
            assert contention_q_scaled(L, float(L)) <= 0.0
            g = g_root(L)
            assert 0.5 * L <= g <= L
            assert abs(contention_q_scaled(L, g)) <= 1e-10
            assert g > previous
            previous = g


class TestOptimum:
    def test_lambda_max_unit_area_single_antenna(self):
        opt = contention_optimum(1, 4.0, gamma_for_unit_area(4.0))
        assert opt.lambda_max == approx(1.0, rel=1e-12)

    def test_lambda_max_unit_area_two_antennas(self):
        opt = contention_optimum(2, 4.0, gamma_for_unit_area(4.0))
        assert opt.lambda_max == approx(GOLDEN, rel=1e-12)

    def test_lambda_max_ratio_is_g(self):
        gamma = 42.0
        base = contention_optimum(1, 3.5, gamma).lambda_max
        for L in (2, 3, 8, 16):
            ratio = contention_optimum(L, 3.5, gamma).lambda_max / base
            assert ratio == approx(g_root(L), rel=1e-12)

    def test_throughput_max_single_antenna(self):
        assert contention_optimum(1, 4.0, gamma_for_unit_area(4.0)).t_max == approx(
            math.exp(-1.0), rel=1e-12, abs=0.0
        )

    def test_throughput_max_two_antennas(self):
        expected = GOLDEN**3 * math.exp(-GOLDEN)
        opt = contention_optimum(2, 4.0, gamma_for_unit_area(4.0))
        assert opt.t_max == approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 7, 8, 100, 1000, 10_000])
    def test_peak_matches_mpmath(self, L):
        # t_max = u**2 * pmf(L-1; u) / area at figure 4's geometry, against
        # the same formula in 50-digit arithmetic at the solver's u
        alpha = 3.5
        gamma = gamma_for_unit_area(alpha)
        opt = contention_optimum(L, alpha, gamma)
        area = delta_const(alpha) * gamma ** (2.0 / alpha)
        with mpmath.workdps(50):
            u = mpmath.mpf(opt.g)
            peak = u**2 * mpmath.exp((L - 1) * mpmath.log(u) - u - mpmath.loggamma(L))
            expected = peak / mpmath.mpf(area)
            error = float(abs(mpmath.mpf(opt.t_max) - expected) / expected)
        assert error <= 1e-14

    @pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 20])
    def test_consistent_with_outage_curve(self, L):
        alpha, gamma = 3.5, 977.0
        opt = contention_optimum(L, alpha, gamma)
        lam = opt.lambda_max
        achieved = lam * (1.0 - interference_limited_outage(L, lam, alpha, gamma))
        assert opt.t_max == approx(achieved, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_grid_confirms_optimality(self, L):
        alpha, gamma = 4.0, gamma_for_unit_area(4.0)
        opt = contention_optimum(L, alpha, gamma)
        lam_star, t_star = opt.lambda_max, opt.t_max
        for k in range(1000):
            lam = lam_star * (0.01 + (3.0 - 0.01) * k / 999.0)
            t = lam * (1.0 - interference_limited_outage(L, lam, alpha, gamma))
            assert t <= t_star + 1e-12

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            contention_optimum(1, 4.0, 0.0)

    def test_bundle_matches_parts(self):
        opt = contention_optimum(3, 3.5, 977.0)
        assert opt.L == 3
        assert opt.g == g_root(3)
        area = delta_const(3.5) * 977.0 ** (2.0 / 3.5)
        assert opt.lambda_max == approx(opt.g / area, rel=1e-15, abs=0.0)


class TestGridSearchExtension:
    def test_recovers_closed_form_when_noise_vanishes(self):
        alpha, gamma = 3.5, 100.0
        opt = contention_optimum(2, alpha, gamma, sigma2=1e-300)
        clean = contention_optimum(2, alpha, gamma)
        assert opt.lambda_max == approx(clean.lambda_max, rel=1e-6)
        assert opt.t_max == approx(clean.t_max, rel=1e-9)

    def test_noise_lowers_the_peak(self):
        alpha, gamma = 3.5, 6309.573444801933
        t_clean = contention_optimum(3, alpha, gamma, sigma2=1e-300).t_max
        noisy = contention_optimum(3, alpha, gamma, sigma2=2e-6)
        lam_noisy, t_noisy = noisy.lambda_max, noisy.t_max
        assert t_noisy < t_clean
        assert lam_noisy > 0.0

    def test_result_is_a_grid_maximum(self):
        alpha, gamma, sigma2, L = 3.5, 6309.573444801933, 2e-6, 4
        area = delta_const(alpha) * gamma ** (2.0 / alpha)
        opt = contention_optimum(L, alpha, gamma, sigma2)
        lam_star, t_star = opt.lambda_max, opt.t_max
        for k in range(600):
            lam = lam_star * (0.05 + 4.0 * k / 599.0)
            t = lam * _poisson_split(lam * area + sigma2 * gamma, L)[0]
            assert t <= t_star * (1.0 + 1e-9)


class TestNoisyOptimum:
    @pytest.mark.parametrize("L", [1, 2, 3, 8, 64, 256, 1000])
    # sigma2 = 1e-2 and 1e-1 (noise * gamma of about 63 and 631) take the
    # bisection fallback, where Halley steps leave the bracket
    @pytest.mark.parametrize("sigma2", [0.0, 1e-7, 2e-6, 1e-5, 1e-4, 1e-2, 1e-1])
    def test_matches_first_order_condition_oracle(self, L, sigma2):
        alpha, gamma = 3.5, 6309.573444801933
        area = delta_const(alpha) * gamma ** (2.0 / alpha)
        u_ref, t_ref = throughput_optimum(L, sigma2 * gamma)
        opt = contention_optimum(L, alpha, gamma, sigma2)
        assert opt.g == approx(u_ref, rel=1e-9)
        assert opt.lambda_max == approx(u_ref / area, rel=1e-9)
        assert opt.t_max == approx(t_ref / area, rel=1e-9, abs=0.0)
        assert 0.0 < opt.t_max <= opt.lambda_max

    @pytest.mark.parametrize("L, most", [(2, 4), (8, 4), (64, 4), (640, 4), (2000, 5)])
    @pytest.mark.parametrize("sigma2", [0.0, 1e-5])
    def test_evaluations_per_optimum(self, L, most, sigma2, monkeypatch):
        # both bracket ends and the Halley iterates, each one walk of the Poisson terms
        log_ratio = contention_module._log_ratio
        points = []

        def counted(L, x):
            points.append(x)
            return log_ratio(L, x)

        monkeypatch.setattr(contention_module, "_log_ratio", counted)
        contention_optimum(L, 3.5, 6309.573444801933, sigma2)
        assert len(points) <= most

    @pytest.mark.parametrize("L, noise, most", [
        (2, 6.3e3, 3), (8, 46.0, 4), (64, 6.3e3, 3), (1000, 6.3e9, 3), (10**4, 1e300, 3),
        (10**6, 1e8, 3),
    ])
    def test_evaluations_per_noise_dominated_optimum(self, L, noise, most, monkeypatch):
        # noise * gamma >= L: the condition is nearly flat, and one fixed-point
        # step from the low end starts Halley beside the root, where bisection
        # from u = L took 7 to 72 evaluations
        log_ratio = contention_module._log_ratio
        points = []

        def counted(L, x):
            points.append(x)
            return log_ratio(L, x)

        monkeypatch.setattr(contention_module, "_log_ratio", counted)
        gamma = 6309.573444801933
        contention_optimum(L, 3.5, gamma, noise / gamma)
        assert len(points) <= most

    @pytest.mark.parametrize("L, noise, calls", [
        (1, 0.0, 1), (2, 0.0, 1), (8, 0.0, 7), (2000, 0.0, 9), (8, 46.0, 1), (1000, 6.3e9, 1),
        (10**4, 1e300, 1),
    ])
    def test_log_pmf_calls_per_optimum(self, L, noise, calls, monkeypatch):
        # an evaluation at x >= L - 1 anchors its Poisson sum at L - 1, where
        # r is the window sum alone, and the peak throughput takes one more
        log_pmf = contention_module._log_pmf
        points = []

        def counted(k, x):
            points.append(x)
            return log_pmf(k, x)

        monkeypatch.setattr(contention_module, "_log_pmf", counted)
        gamma = 6309.573444801933
        contention_optimum(L, 3.5, gamma, noise / gamma)
        assert len(points) == calls

    @pytest.mark.parametrize("L, sigma2", [(2, 1.0), (8, 7.3e-3), (64, 1.0), (1000, 1e4)])
    def test_noise_dominated_root_against_mpmath(self, L, sigma2):
        # noise * gamma from 6.3e3 to 6.3e7, far above L: the root u* sits just
        # above 1, where log r(x) is small beside each log pmf it is built from
        gamma = 6309.573444801933
        u = contention_optimum(L, 3.5, gamma, sigma2).g
        with mpmath.workdps(50):
            noise = mpmath.mpf(sigma2 * gamma)

            def condition(v):
                x = noise + v
                ratio = mpmath.fsum(mpmath.rf(L - j, j) / x**j for j in range(L))
                return mpmath.log(ratio) - mpmath.log(v)

            exact = mpmath.findroot(condition, mpmath.mpf(u))
            assert float(abs(u - exact) / exact) <= 1e-14

    def test_noise_only_lowers_the_load(self):
        clean = g_root(16)
        loads = [contention_optimum(16, 3.5, 100.0, s).g for s in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert clean > loads[0] > loads[1] > loads[2] > loads[3] > 1.0

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            contention_optimum(2, 3.5, 100.0, -1e-9)


class TestSolverFailures:
    def test_undefined_condition(self, monkeypatch):
        monkeypatch.setattr(contention_module, "_log_ratio", lambda L, x: math.nan)
        with pytest.raises(BracketViolation):
            g_root(4)

    def test_wrong_sign_at_bracket_end(self, monkeypatch):
        # the condition must be <= 0 at u = L
        monkeypatch.setattr(contention_module, "_log_ratio", lambda L, x: 50.0)
        with pytest.raises(BracketViolation):
            contention_optimum(4, 3.5, 100.0, 1e-3)

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(contention_module, "_MAX_STEPS", 1)
        with pytest.raises(BracketViolation):
            g_root(64)


@given(st.integers(1, 150))
@settings(max_examples=60, deadline=None)
def test_root_properties_randomized(L):
    g = g_root(L)
    assert 0.5 * L <= g <= L
    assert abs(contention_q_scaled(L, g)) <= 1e-10
    assert g_root(L + 1) > g
