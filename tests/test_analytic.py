import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.stats import chi2, poisson

from ocfield import SystemParams, delta_const, gamma_from_beta, outage_cdf
from ocfield.analytic import _poisson_mean, _poisson_split, _stirling_error
from ocfield.cli import ScenarioConfig, run_analytic

from _frozen_field import conditional_outage_cdf
from _oracles import delta_quadrature, sir_moment_quadrature, sir_moments


def lam_for_unit_exponent(alpha):
    # density making lam * Delta * gamma^(2/alpha) = 1 at gamma = 1
    return 1.0 / delta_const(alpha)


def outage_at(L, lam=0.0, alpha=3.5, sigma2=0.0, gamma=1.0):
    # at d_r = 1 the threshold beta is gamma itself
    return outage_cdf(SystemParams(lam=lam, alpha=alpha, sigma2=sigma2, d_r=1.0, L=L, beta=gamma))


def chi_square_outage(L, sigma2, gamma):
    # noise-limited reference: the combined SNR is chi-square with 2L degrees
    return float(chi2.cdf(2.0 * sigma2 * gamma, 2 * L))


def radius_identity_outage(L, lam, alpha, gamma):
    # interference-limited reference: a Poisson count in the disk of radius
    # sqrt(Delta/pi) * gamma**(1/alpha) reaches L
    r = math.sqrt(delta_const(alpha) / math.pi) * gamma ** (1.0 / alpha)
    return float(poisson.sf(L - 1, lam * math.pi * r * r))


def throughput_column(params):
    # the analytic command's lam * P(N < L) for one (lambda, L) cell
    config = ScenarioConfig(
        alpha=params.alpha, beta=params.beta, d_r=params.d_r, sigma2=params.sigma2,
        antennas=(params.L,), lambda_grid=(params.lam,),
    )
    ((_, _, _, throughput),) = run_analytic(config)
    return throughput


class TestDeltaConst:
    def test_alpha_4_closed_form(self):
        assert delta_const(4.0) == approx(math.pi**2 / 2.0, rel=1e-15, abs=0.0)

    def test_alpha_3_5(self):
        assert delta_const(3.5) == approx(5.78481123887221, rel=1e-12)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 4.0, 5.0])
    def test_matches_plane_integral(self, alpha):
        assert delta_const(alpha) == approx(delta_quadrature(alpha), abs=1e-8)

    @pytest.mark.parametrize("alpha", [2.0, 1.5, 0.0, -3.0])
    def test_diverging_domain_rejected(self, alpha):
        with pytest.raises(ValueError):
            delta_const(alpha)


class TestGammaFromBeta:
    def test_identity_case(self):
        assert gamma_from_beta(1.0, 1.0, 4.0) == 1.0

    def test_three_db_at_ten_meters(self):
        beta = 10.0**0.3
        assert gamma_from_beta(beta, 10.0, 3.5) == approx(6309.573444801933, rel=1e-12)

    def test_cubic(self):
        assert gamma_from_beta(2.0, 2.0, 3.0) == 16.0

    @pytest.mark.parametrize(
        "beta,d_r,alpha",
        [
            (0.0, 1.0, 3.0),
            (1.0, 0.0, 3.0),
            (1.0, 1.0, 2.0),
            (math.inf, 1.0, 3.0),
            (1.0, math.inf, 3.0),
            (1.0, 1.0, math.inf),
            # in-domain inputs whose gamma overflows, underflows or is subnormal
            (1.0, 1e10, 40.0),
            (1e-300, 1e-10, 3.0),
            (1e-300, 1e-5, 3.0),
        ],
    )
    def test_domain(self, beta, d_r, alpha):
        with pytest.raises(ValueError):
            gamma_from_beta(beta, d_r, alpha)


class TestOutageCdf:
    def test_vanishing_threshold(self):
        params = SystemParams(lam=1e-3, alpha=3.5, sigma2=1.0, d_r=10.0, L=2, beta=1e-280)
        assert outage_cdf(params) <= 1e-150

    def test_single_antenna_unit_exponent(self):
        params = SystemParams(lam=lam_for_unit_exponent(4.0), alpha=4.0, sigma2=0.0, d_r=1.0, L=1, beta=1.0)
        assert outage_cdf(params) == approx(1.0 - math.exp(-1.0), rel=1e-12, abs=0.0)

    def test_two_antennas_unit_exponent(self):
        params = SystemParams(lam=lam_for_unit_exponent(4.0), alpha=4.0, sigma2=0.0, d_r=1.0, L=2, beta=1.0)
        assert outage_cdf(params) == approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-12, abs=0.0)

    def test_reduces_to_noise_limited(self):
        for L in (1, 2, 5):
            params = SystemParams(lam=0.0, alpha=3.5, sigma2=0.37, d_r=3.0, L=L, beta=2.0)
            assert outage_cdf(params) == approx(chi_square_outage(L, 0.37, params.gamma), abs=1e-14)

    def test_reduces_to_interference_limited(self):
        for L in (1, 3, 4):
            params = SystemParams(lam=2e-3, alpha=3.5, sigma2=0.0, d_r=10.0, L=L, beta=1.9)
            expected = radius_identity_outage(L, 2e-3, 3.5, params.gamma)
            assert outage_cdf(params) == approx(expected, abs=1e-14)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SystemParams(lam=-1.0, alpha=3.5, sigma2=0.0, d_r=1.0, L=1, beta=1.0)
        with pytest.raises(ValueError):
            SystemParams(lam=0.0, alpha=3.5, sigma2=0.0, d_r=1.0, L=0, beta=1.0)
        with pytest.raises(ValueError):
            SystemParams(lam=0.0, alpha=2.0, sigma2=0.0, d_r=1.0, L=1, beta=1.0)

    @pytest.mark.parametrize("field", ["lam", "alpha", "sigma2", "d_r", "beta"])
    def test_non_finite_scalar_rejected(self, field):
        values = dict(lam=1e-3, alpha=3.5, sigma2=0.0, d_r=1.0, L=1, beta=1.0)
        values[field] = math.inf
        with pytest.raises(ValueError, match=field):
            SystemParams(**values)


class TestSpecialCases:
    def test_noise_limited_zero_threshold(self):
        # outage_cdf takes beta > 0; an empty frozen field is the same law
        assert conditional_outage_cdf([], 1.0, 1, 0.0) == 0.0

    def test_noise_limited_half(self):
        assert outage_at(1, sigma2=1.0, gamma=math.log(2.0)) == approx(0.5, rel=1e-15, abs=0.0)

    def test_noise_limited_three_antennas(self):
        expected = 1.0 - 2.5 * math.exp(-1.0)
        assert outage_at(3, sigma2=1.0, gamma=1.0) == approx(expected, rel=1e-14, abs=0.0)
        assert expected == approx(0.080301, abs=1e-6)

    def test_interference_limited_empty_field(self):
        assert outage_at(1, lam=0.0, alpha=3.5, gamma=123.0) == 0.0

    def test_interference_limited_two_antennas(self):
        lam = lam_for_unit_exponent(3.2)
        assert outage_at(2, lam=lam, alpha=3.2, gamma=1.0) == approx(
            1.0 - 2.0 * math.exp(-1.0), rel=1e-12, abs=0.0
        )

    def test_poisson_radius_identity(self):
        # outage equals the chance that a Poisson disk count reaches L
        for L in (1, 2, 3, 5, 8):
            for lam in (1e-4, 1e-3, 5e-3):
                for gamma in (10.0, 6309.573444801933):
                    expected = radius_identity_outage(L, lam, 3.5, gamma)
                    assert outage_at(L, lam=lam, alpha=3.5, gamma=gamma) == approx(expected, abs=1e-14)


class TestSirMoments:
    """The closed-form SIR moments, the targets of acceptance criterion 6, are
    a test reference (`_oracles.sir_moments`); these pin it."""

    def test_mean_unit_case(self):
        mean, _ = sir_moments(1, 4.0, lam_for_unit_exponent(4.0), 1.0)
        assert mean == approx(2.0, rel=1e-12)

    def test_mean_distance_scaling(self):
        mean, _ = sir_moments(1, 4.0, lam_for_unit_exponent(4.0), 2.0)
        assert mean == approx(0.125, rel=1e-12, abs=0.0)

    def test_mean_large_antenna_count(self):
        lam = lam_for_unit_exponent(4.0)
        mean, _ = sir_moments(50, 4.0, lam, 1.0)
        assert mean / (50.0**2 * (lam * delta_const(4.0)) ** -2.0) == approx(1.0, rel=0.05)

    def test_variance_unit_case(self):
        _, variance = sir_moments(1, 4.0, lam_for_unit_exponent(4.0), 1.0)
        assert variance == approx(20.0, rel=1e-12)

    def test_variance_distance_scaling(self):
        _, variance = sir_moments(1, 4.0, lam_for_unit_exponent(4.0), 2.0)
        assert variance == approx(20.0 / 256.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("alpha", [3.0, 3.5, 4.0])
    def test_moments_match_quadrature(self, L, alpha):
        lam, d_r = 0.8 / delta_const(alpha), 1.0
        mean, variance = sir_moment_quadrature(L, alpha, lam, d_r, delta_const(alpha))
        assert sir_moments(L, alpha, lam, d_r) == approx((mean, variance), rel=1e-6)


class TestArrayGain:
    # the mean SIR at lam * Delta = 1 and d_r = 1
    @pytest.mark.parametrize("L,expected", [(1, 2.0), (2, 6.0), (3, 12.0)])
    def test_small_antenna_counts(self, L, expected):
        gain, _ = sir_moments(L, 4.0, lam_for_unit_exponent(4.0), 1.0)
        assert gain == approx(expected, rel=1e-13, abs=0.0)

    def test_normalized_gain_approaches_one(self):
        lam = lam_for_unit_exponent(4.0)
        values = [sir_moments(L, 4.0, lam, 1.0)[0] / L**2 for L in (10, 20, 50)]
        assert values[0] > values[1] > values[2] > 1.0
        assert values[2] == approx(1.0, rel=0.05)


class TestThroughputDensity:
    def test_vanishing_threshold_recovers_density(self):
        params = SystemParams(lam=2e-3, alpha=3.5, sigma2=1e-5, d_r=10.0, L=2, beta=1e-250)
        assert throughput_column(params) == approx(2e-3, rel=1e-12, abs=0.0)

    def test_keeps_its_precision_as_the_outage_nears_one(self):
        # Poisson mean 1.3 L at L = 512: lam * (1 - outage) kept only 8 digits
        alpha, beta, d_r, sigma2, L = 3.2, 10.0, 15.0, 4e-6, 512
        gamma = gamma_from_beta(beta, d_r, alpha)
        lam = 1.3 * L / (delta_const(alpha) * gamma ** (2.0 / alpha))
        params = SystemParams(lam=lam, alpha=alpha, sigma2=sigma2, d_r=d_r, L=L, beta=beta)
        mean = _poisson_mean(lam, alpha, gamma, sigma2)
        with mpmath.workdps(40):
            below = mpmath.gammainc(L, mpmath.mpf(mean), mpmath.inf, regularized=True)
            error = abs(throughput_column(params) / (lam * below) - 1)
        assert error < 1e-13

    def test_unit_exponent_single_antenna(self):
        lam = lam_for_unit_exponent(4.0)
        params = SystemParams(lam=lam, alpha=4.0, sigma2=0.0, d_r=1.0, L=1, beta=1.0)
        assert throughput_column(params) == approx(lam * math.exp(-1.0), rel=1e-12, abs=0.0)


system_params = st.builds(
    SystemParams,
    lam=st.floats(0.0, 0.05),
    alpha=st.floats(2.05, 8.0),
    sigma2=st.floats(0.0, 5.0),
    d_r=st.floats(0.1, 50.0),
    L=st.integers(1, 30),
    beta=st.floats(1e-6, 1e3),
)


@given(system_params)
def test_outage_within_unit_interval(params):
    assert 0.0 <= outage_cdf(params) <= 1.0


@given(system_params, st.floats(1.0001, 10.0))
@settings(max_examples=200)
def test_outage_monotone_in_scalars(params, factor):
    base = outage_cdf(params)
    for name in ("beta", "lam", "sigma2", "d_r"):
        scaled = params._replace(**{name: getattr(params, name) * factor})
        assert outage_cdf(scaled) >= base - 1e-12


@given(system_params)
def test_outage_decreasing_in_antennas(params):
    more = params._replace(L=params.L + 1)
    f_more, f_base = outage_cdf(more), outage_cdf(params)
    assert f_more <= f_base + 1e-15
    x = params.lam * delta_const(params.alpha) * params.gamma ** (2.0 / params.alpha)
    x += params.sigma2 * params.gamma
    if x > 1e-3 and 1e-12 < f_base < 1.0 - 1e-12:
        assert f_more < f_base


@given(system_params)
@settings(max_examples=100)
def test_special_case_identities_everywhere(params):
    no_noise = params._replace(sigma2=0.0)
    expected = radius_identity_outage(params.L, params.lam, params.alpha, params.gamma)
    assert outage_cdf(no_noise) == approx(expected, abs=1e-14)
    no_field = params._replace(lam=0.0)
    expected = chi_square_outage(params.L, params.sigma2, params.gamma)
    assert outage_cdf(no_field) == approx(expected, abs=1e-14)


@given(st.integers(1, 40), st.floats(2.05, 8.0), st.floats(1e-8, 0.05), st.floats(0.1, 50.0))
@settings(max_examples=100)
def test_sir_variance_positive(L, alpha, lam, d_r):
    assert sir_moments(L, alpha, lam, d_r)[1] > 0.0


@st.composite
def poisson_cases(draw):
    L = draw(st.integers(1, 10_000))
    # half the draws land where the outage is neither 0 nor 1
    x = draw(st.one_of(st.floats(0.0, 1e4), st.floats(0.8, 1.2).map(lambda r: min(r * L, 1e4))))
    return L, x


@given(poisson_cases())
@settings(max_examples=300, deadline=None)
def test_poisson_split_cdf_matches_scipy(case):
    L, x = case
    assert _poisson_split(x, L)[0] == approx(poisson.cdf(L - 1, x), rel=1e-9, abs=1e-300)
    # gamma = 1 and unit area: the exponent is x itself, up to one rounding
    params = SystemParams(lam=x / delta_const(4.0), alpha=4.0, sigma2=0.0, d_r=1.0, L=L, beta=1.0)
    reference = poisson.sf(L - 1, x)
    # the outage is 1 - (a sum of up to L terms), so its absolute error grows with L
    assert outage_cdf(params) == approx(reference, rel=1e-9, abs=5e-14 * (L + 1))


@pytest.mark.parametrize("L", [1, 2, 10**6])
def test_poisson_split_at_an_infinite_mean_is_a_sure_outage(L):
    # a mean that overflowed, e.g. sigma2 * gamma past the largest double
    assert _poisson_split(math.inf, L) == (0.0, 1.0)


# (mean, L) with a tail far below 1 - P(N < L)'s rounding error: the four
# that once came out as that rounding error (the last truly underflows to 0),
# then true tails from 1e-300 to 1e-10
TINY_TAILS = [(1000.0, 2000), (0.5, 16), (0.01, 8), (1e8, 10**12)] + [
    (r * L, L)
    for L in (2, 8, 64, 300)
    for r in (1e-6, 1e-4, 1e-2, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7)
    if 1e-300 <= poisson.sf(L - 1, r * L) <= 1e-10
]


class TestTinyTail:
    @pytest.mark.parametrize("mean, L", TINY_TAILS)
    def test_matches_scipy(self, mean, L):
        assert _poisson_split(mean, L)[1] == approx(poisson.sf(L - 1, mean), rel=1e-12, abs=0.0)

    @given(poisson_cases())
    @example((1, 2.2250738585e-313))  # k / x overflowed in the deviance: 0 came out
    @settings(max_examples=200, deadline=None)
    def test_tail_summed_below_l_else_the_complement(self, case):
        # below L a normal tail keeps its relative precision, however small:
        # what exp makes of a few ulps of the log-domain terms, which are of
        # size L and log(tail); a subnormal one keeps its absolute precision
        L, x = case
        if 0.0 < x < L:
            with mpmath.workdps(40):
                exact = mpmath.gammainc(L, 0, mpmath.mpf(x), regularized=True)
                error = float(abs(mpmath.mpf(_poisson_split(x, L)[1]) - exact))
                relative = 4.0 * sys.float_info.epsilon * (L + float(abs(mpmath.log(exact))))
                assert error <= relative * float(exact) + 1e-320
        else:
            assert _poisson_split(x, L)[1] == max(0.0, 1.0 - _poisson_split(x, L)[0])


class TestStirlingError:
    """The Stirling-series remainder that anchors every Poisson pmf, against
    mpmath at 50 digits."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_tabulated_within_an_ulp_then_the_series(self, n):
        with mpmath.workdps(50):
            exact = (mpmath.loggamma(n + 1) - (n + mpmath.mpf(0.5)) * mpmath.log(n) + n
                     - mpmath.log(2 * mpmath.pi) / 2)
            error = abs(mpmath.mpf(_stirling_error(n)) - exact)
        # past 15 the five-term series leaves at most 1.1e-16 absolute (n = 16)
        assert error <= (math.ulp(float(exact)) if n <= 15 else 1.2e-16)

    def test_outage_anchored_at_a_small_index(self):
        # the window's largest term sits at m = 14, where the lgamma
        # difference was off by 7.4e-15 and this outage by 8e-11
        with mpmath.workdps(50):
            exact = mpmath.gammainc(31, 0, mpmath.mpf(14.37), regularized=True)
            assert float(abs(mpmath.mpf(_poisson_split(14.37, 31)[1]) - exact) / exact) <= 1e-14

