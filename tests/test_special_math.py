import math

import mpmath
import numpy as np
import pytest

from freqcap.special_math import (
    _lambert_w,
    _lambert_w_array,
    binary_entropy,
    lambert_w0,
    log_factorial,
    psi_max_entropy,
    regularized_gamma_p,
)


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate(self, p):
        assert binary_entropy(p) == 0.0

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            binary_entropy(p)

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-14)


def brute_force_max_entropy(mu, grid=200_000):
    """Independent oracle: maximize H(Geo(theta)) over theta with mean <= mu."""
    best = 0.0
    for theta in np.linspace(1.0 / (mu + 1.0), 1.0 - 1e-9, grid // 100):
        if (1 - theta) / theta <= mu + 1e-12:
            h = binary_entropy(theta) / theta
            best = max(best, h)
    return best


class TestPsiMaxEntropy:
    def test_zero(self):
        assert psi_max_entropy(0.0) == 0.0

    def test_unit_mean(self):
        assert psi_max_entropy(1.0) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_optimal_ratio_point_against_bruteforce(self):
        # the geometric family saturates the maximum, so a grid search over
        # admissible geometric laws must reproduce psi
        assert psi_max_entropy(0.398) == pytest.approx(0.8351, abs=2e-4)
        assert psi_max_entropy(0.398) == pytest.approx(
            brute_force_max_entropy(0.398), rel=1e-6
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            psi_max_entropy(-1e-9)

    def test_monotone_and_concave_on_grid(self):
        mus = np.arange(0.0, 10.0 + 1e-9, 0.01)
        values = np.array([psi_max_entropy(m) for m in mus])
        first = np.diff(values)
        assert np.all(first >= -1e-12)
        assert np.all(np.diff(first) <= 1e-12)


class TestLambertW:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_round_trip_log_grid(self):
        for x in np.logspace(-3, 24, 120):
            w = lambert_w0(x)
            assert abs(w * math.exp(w) - x) / x <= 1e-10

    def test_negative_branch_region(self):
        for x in (-0.05, -0.2, -1 / math.e + 1e-9, -1 / math.e):
            w = lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            lambert_w0(-1 / math.e - 1e-6)

    def test_matches_mpmath(self):
        # closer to -1/e than 1e-5 the cancellation in 1 + e*x costs digits in any double method
        near_branch = -1 / math.e + np.logspace(-5, -1, 41)
        for x in np.concatenate(
            (np.logspace(-300, 300, 601), -np.logspace(-300, -1, 300), near_branch)
        ):
            ref = mpmath.lambertw(mpmath.mpf(float(x)))
            assert ref.imag == 0
            assert abs(lambert_w0(float(x)) - float(ref.real)) <= 1e-14 * abs(float(ref.real))


EPS = 2.0**-52
# the double nearest -1/e, the branch point both real branches share
BRANCH_POINT = -1 / math.e


def _from_branch_point(x: float) -> float:
    """x + 1/e for a double x, exactly enough to scale an error bound."""
    with mpmath.workdps(40):
        return float(mpmath.mpf(x) + 1 / mpmath.e)


def _doubles_above_branch_point():
    """The first doubles above -1/e, then a log-spaced run out to 1e-12 above it."""
    steps = [BRANCH_POINT]
    for _ in range(8):
        steps.append(math.nextafter(steps[-1], 0.0))
    return steps[1:] + list(BRANCH_POINT + np.logspace(-15, -12, 13))


class TestLambertWBothBranches:
    """Halley's iteration in real arithmetic against mpmath: W0 on [-1/e, 1e300] and W-1 on
    [-1/e, -1e-300], log-spaced, plus the branch point and the doubles just above it."""

    @pytest.mark.parametrize("branch", [0, -1])
    def test_matches_mpmath(self, branch):
        grid = list(-np.logspace(-300, math.log10(-BRANCH_POINT), 601)[:-1])
        if branch == 0:
            grid += list(np.logspace(-300, 300, 601))
        for x in grid + _doubles_above_branch_point():
            with mpmath.workdps(30):
                ref = float(mpmath.lambertw(mpmath.mpf(x), branch).real)
            # 1 + e x cancels near -1/e, so a double method loses digits as eps / sqrt(x + 1/e)
            tol = max(1e-14, EPS / math.sqrt(_from_branch_point(x)))
            assert abs(_lambert_w(float(x), branch) - ref) <= tol * abs(ref), (branch, x)

    @pytest.mark.parametrize("branch", [0, -1])
    def test_branch_point_is_minus_one(self, branch):
        assert _lambert_w(BRANCH_POINT, branch) == -1.0
        assert _lambert_w_array(np.array([BRANCH_POINT]), branch)[0] == -1.0

    def test_tiny_and_infinite_arguments_of_w0(self):
        for x in (5e-324, -5e-324, 2.2e-308, -2.2e-308):
            assert _lambert_w(x) == x  # W0(x) = x - x^2 + ..., and x^2 is below an ulp of x
        assert _lambert_w(math.inf) == math.inf and math.isnan(_lambert_w(math.nan))

    @pytest.mark.parametrize("branch, x", [
        (0, BRANCH_POINT - 1e-6), (0, -1.0), (-1, BRANCH_POINT - 1e-6), (-1, 0.0), (-1, 0.5),
        (-1, -1e-301), (-1, -5e-324),
    ])
    def test_domain(self, branch, x):
        with pytest.raises(ValueError, match=f"branch {branch}"):
            _lambert_w(x, branch)

    @pytest.mark.parametrize("branch", [0, -1])
    def test_array_matches_scalar_calls(self, branch):
        # numpy's exp and math.exp may round apart, which moves W by at most a few ulps
        x = -np.logspace(-300, math.log10(-BRANCH_POINT), 2001)[:-1]
        if branch == 0:
            x = np.concatenate((x, np.logspace(-300, 300, 2001), [0.0]))
        values = _lambert_w_array(x.reshape(-1, 1), branch)
        assert values.shape == (x.size, 1)
        scalar = np.array([_lambert_w(float(v), branch) for v in x])
        assert np.all(np.abs(values[:, 0] - scalar) <= 4 * np.spacing(np.abs(scalar)))


class TestRegularizedGammaP:
    def test_empty_integral(self):
        assert regularized_gamma_p(0.5, 0.0) == 0.0

    def test_full_mass(self):
        assert regularized_gamma_p(0.5, 1e4) == pytest.approx(1.0, abs=1e-12)

    def test_against_erf_half_point(self):
        assert regularized_gamma_p(0.5, 0.5) == pytest.approx(
            math.erf(math.sqrt(0.5)), abs=1e-12
        )

    def test_against_erf_grid(self):
        # P(1/2, x) = erf(sqrt(x)); math.erf is the independent implementation
        for x in np.linspace(0.0, 30.0, 301):
            assert regularized_gamma_p(0.5, x) == pytest.approx(
                math.erf(math.sqrt(x)), abs=1e-10
            )

    def test_large_shape(self):
        # chi-square consistency at even integer shape: P(1, x) = 1 - e^-x
        for x in (0.1, 1.0, 5.0, 40.0):
            assert regularized_gamma_p(1.0, x) == pytest.approx(-math.expm1(-x), abs=1e-12)

    def test_matches_mpmath(self):
        for k in (0.5, 1.5, 5.0, 50.0, 1e3):
            for x in np.concatenate(([1e-12, 1e-3], np.logspace(-1, 0.5, 6) * k, [2e3])):
                exact = mpmath.gammainc(k, 0, float(x), regularized=True)
                assert abs(regularized_gamma_p(k, float(x)) - float(exact)) <= 1e-14

    @pytest.mark.parametrize("k,x", [(0.0, 1.0), (-1.0, 1.0), (0.5, -0.1)])
    def test_domain(self, k, x):
        with pytest.raises(ValueError):
            regularized_gamma_p(k, x)


class TestLogFactorial:
    def test_base_cases(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0
        assert log_factorial(5) == pytest.approx(math.log(120), abs=1e-12)

    def test_stirling_bracket_200(self):
        n = 200
        low = 0.5 * math.log(2 * math.pi * n) + n * math.log(n / math.e)
        high = 0.5 * math.log(2 * math.pi * math.e * n) + n * math.log(n / math.e)
        assert low <= log_factorial(n) <= high

    def test_stirling_brackets_to_1000(self):
        ns = np.arange(1, 1001)
        vals = log_factorial(ns)
        low = 0.5 * np.log(2 * np.pi * ns) + ns * np.log(ns / math.e)
        high = 0.5 * np.log(2 * np.pi * math.e * ns) + ns * np.log(ns / math.e)
        assert np.all(vals >= low)
        assert np.all(vals <= high)

    def test_table_boundary_consistent(self):
        assert log_factorial(1025) - log_factorial(1024) == pytest.approx(
            math.log(1025), abs=1e-10
        )

    def test_monotone(self):
        vals = log_factorial(np.arange(0, 2000))
        assert np.all(np.diff(vals) >= 0)

    def test_within_two_ulps_of_mpmath_in_every_input_form(self):
        # every k up to 2000 and a few up to 1e6, against ln Gamma(k + 1) at 40 digits
        ks = np.concatenate((np.arange(2001), [4095, 65536, 99_999, 123_457, 10**6]))
        got = log_factorial(ks)
        with mpmath.workdps(40):
            for k, value in zip(ks.tolist(), got):
                exact = mpmath.loggamma(k + 1)
                assert abs(mpmath.mpf(value) - exact) <= 2 * np.spacing(float(exact)), k
        # the same values whatever the input form
        shaped = np.random.default_rng(7).integers(0, 2001, size=(40, 50))
        shaped[0, :4] = (1023, 1024, 1025, 0)
        expect = got[shaped]
        assert log_factorial(shaped).shape == shaped.shape
        assert np.array_equal(log_factorial(shaped), expect)
        assert np.array_equal(log_factorial(shaped.astype(float)), expect)
        assert np.array_equal(log_factorial(shaped[0, :4].tolist()), expect[0, :4])
        for k, value in zip(shaped[0, :4], expect[0, :4]):
            for scalar in (int(k), float(k), np.int64(k)):
                result = log_factorial(scalar)
                assert isinstance(result, float)
                assert result == value

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(ValueError):
            log_factorial(-1)
        with pytest.raises(ValueError):
            log_factorial(2.5)
