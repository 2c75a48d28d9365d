import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc, lambertw

from freqcap import distributions
from freqcap.distributions import (
    DiscretePmf,
    RngStream,
    TruncationInterval,
    _chernoff_window,
    _missed_mass,
    _row_runs,
    gamma_half_tail_bounds,
    multinomial_sample,
    poisson_band,
    poisson_chernoff_lower_tail,
    poisson_entropy,
    poisson_log_pmf,
    truncated_rounded_input_pmf,
)

# the mean from which poisson_entropy sums its asymptotic series
LAM0 = distributions._SERIES_MIN_MEAN
# frozen before the main build by direct summation with tail_tol 1e-15
H_POISSON_1 = 1.3048422422562516


class TestRngStream:
    def test_replay(self):
        a = RngStream(123, 7).generator.integers(0, 1 << 30, size=32)
        b = RngStream(123, 7).generator.integers(0, 1 << 30, size=32)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator.integers(0, 1 << 30, size=32)
        b = RngStream(123, 1).generator.integers(0, 1 << 30, size=32)
        assert not np.array_equal(a, b)

    def test_substream_deterministic(self):
        a = RngStream(5).substream(3)
        b = RngStream(5).substream(3)
        assert (a.seed, a.path) == (b.seed, b.path) == (5, (3,))
        assert a.generator.random() == b.generator.random()

    def test_key_is_the_seed_sequence_at_the_path(self):
        a = RngStream(3, 5).substream(7).generator.random(8)
        seq = np.random.SeedSequence(3, spawn_key=(5, 7))
        assert np.array_equal(a, np.random.Generator(np.random.Philox(seq)).random(8))

    def test_streams_of_the_old_id_arithmetic_differ(self):
        # ids used to be derived as id * 1_000_003 + index + 1, which sent
        # both of these to stream 6_000_019
        a = RngStream(3, 5).substream(1_000_003).generator.random(8)
        b = RngStream(3, 6).substream(0).generator.random(8)
        assert not np.array_equal(a, b)

    def test_paths_of_different_lengths_differ(self):
        draws = [RngStream(3, *path).generator.random(8) for path in ((), (0,), (0, 0), (1,))]
        assert len({d.tobytes() for d in draws}) == len(draws)

    @pytest.mark.parametrize("index", [-1, 2**32])
    def test_rejects_index_outside_32_bits(self, index):
        with pytest.raises(ValueError):
            RngStream(1).substream(index)


class TestDiscretePmf:
    def test_normalizes(self):
        pmf = DiscretePmf.from_weights(2, [1.0, 3.0, 6.0])
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf.support.tolist() == [2, 3, 4]
        assert pmf.mean() == pytest.approx((2 + 3 * 3 + 4 * 6) / 10, abs=1e-12)

    def test_point_mass_entropy(self):
        pmf = DiscretePmf(3, np.array([0.0]))
        assert pmf.mean() == 3.0

    def test_rejects_empty_and_nan(self):
        with pytest.raises(ValueError):
            DiscretePmf(0, np.array([]))
        with pytest.raises(ValueError):
            DiscretePmf(0, np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            DiscretePmf(0, np.array([-np.inf, -np.inf]))
        with pytest.raises(ValueError):
            DiscretePmf.from_weights(0, [0.5, -0.1])

    def test_sample_replays(self):
        pmf = DiscretePmf.from_weights(1, [0.2, 0.3, 0.5])
        a = pmf.sample(RngStream(9), size=100)
        b = pmf.sample(RngStream(9), size=100)
        assert np.array_equal(a, b)


class TestTruncationInterval:
    def test_must_straddle_one(self):
        TruncationInterval(0.5, 2.0)
        with pytest.raises(ValueError):
            TruncationInterval(1.5, 2.0)
        with pytest.raises(ValueError):
            TruncationInterval(0.2, 0.9)

    def test_for_budget(self):
        w = TruncationInterval.for_budget(100.0, 0.1)
        assert w.s_min == pytest.approx(100.0**-1.3)
        assert w.s_max == pytest.approx(100.0**1.1)


class TestPoissonLogPmf:
    def test_zero_count(self):
        assert poisson_log_pmf(0, 2.5) == pytest.approx(-2.5, abs=1e-14)

    def test_one_one(self):
        assert poisson_log_pmf(1, 1.0) == pytest.approx(-1.0, abs=1e-14)

    def test_normalization(self):
        total = np.exp(poisson_log_pmf(np.arange(61), 3.0)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            poisson_log_pmf(0, 0.0)
        with pytest.raises(ValueError):
            poisson_log_pmf(-1, 1.0)

    def test_mean_column_matches_stacked_scalar_calls(self):
        lams = np.array([1e-3, 0.05, 1.0, 3.7, 9.99, 400.0, 5.3e4, 1.3e5])
        z = np.arange(0, 3000, 7)
        table = poisson_log_pmf(z, lams[:, None])
        assert table.shape == (lams.size, z.size)
        rows = np.stack([poisson_log_pmf(z, float(lam)) for lam in lams])
        assert np.array_equal(table, rows)
        cells = np.array([[poisson_log_pmf(int(k), float(lam)) for k in z] for lam in lams])
        assert np.array_equal(table, cells)

    def test_rejects_non_positive_entry(self):
        z = np.arange(5)
        for bad in (0.0, -1.0, np.nan):
            lams = np.array([2.0, bad, 3.0])
            with pytest.raises(ValueError, match="lambda > 0"):
                poisson_log_pmf(z, lams[:, None])
            with pytest.raises(ValueError, match="lambda > 0"):
                poisson_log_pmf(1, lams)


class TestPoissonEntropy:
    def test_degenerate_limit(self):
        assert poisson_entropy(1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_unit_rate_oracle(self):
        assert poisson_entropy(1.0) == pytest.approx(H_POISSON_1, abs=1e-10)

    def test_gaussian_asymptote(self):
        target = 0.5 * math.log(2 * math.pi * math.e * 100.0)
        assert abs(poisson_entropy(100.0) - target) <= 2.0 / 100.0

    def test_monotone_on_grid(self):
        grid = [0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0, 50.0, 200.0]
        values = [poisson_entropy(lam) for lam in grid]
        for a, b in zip(values, values[1:]):
            assert a <= b + 1e-10

    def test_upper_bound_on_grid(self):
        for lam in (0.05, 0.3, 1.0, 3.0, 12.0, 70.0, 400.0):
            bound = 0.5 * math.log(2 * math.pi * math.e * (lam + 1.0 / 12.0))
            assert poisson_entropy(lam) <= bound

    def test_array_matches_scalar_calls(self):
        grid = np.logspace(-9, 5, 57)
        np.random.default_rng(3).shuffle(grid)
        scalar = np.array([poisson_entropy(float(lam)) for lam in grid])
        values = poisson_entropy(grid)
        assert values.shape == grid.shape
        assert np.max(np.abs(values - scalar)) <= 1e-13
        square = poisson_entropy(grid.reshape(3, 19))
        assert np.max(np.abs(square - scalar.reshape(3, 19))) <= 1e-13
        assert isinstance(poisson_entropy(2.0), float)

    def test_rejects_non_positive_entry(self):
        with pytest.raises(ValueError):
            poisson_entropy(np.array([1.0, 0.0, 3.0]))

    @pytest.mark.parametrize("lam", [1e-12, 1e-9, 1e-3, 1.0, 50.0, 149.0])
    def test_band_sum_matches_mpmath(self, lam):
        # relative error: at lam = 1e-12, H = 2.9e-11, and a band whose tail is a flat 1e-20
        # rather than one that shrinks with lam drops the z = 2 term, 1e-12 of H
        with mpmath.workdps(40):
            mean = mpmath.mpf(lam)
            exact = mpmath.mpf(0)
            for z in range(int(lam + 40 * math.sqrt(lam + 1)) + 60):
                log_p = z * mpmath.log(mean) - mean - mpmath.loggamma(z + 1)
                exact -= mpmath.exp(log_p) * log_p
            assert abs((poisson_entropy(lam) - exact) / exact) <= 1e-13

    @pytest.mark.parametrize("lam", [LAM0, 2 * LAM0, 1e3, 5e3, 2e4, 1e5, 1e6])
    def test_series_matches_mpmath(self, lam):
        # -sum p ln p at 40 digits over lam +- 40 sqrt(lam), one term from the last
        with mpmath.workdps(40):
            mean, half = mpmath.mpf(lam), int(40 * math.sqrt(lam))
            log_mean, first = mpmath.log(mean), max(0, int(lam) - half)
            log_p = first * log_mean - mean - mpmath.loggamma(first + 1)
            exact = mpmath.mpf(0)
            for z in range(first, int(lam) + half + 1):
                exact -= mpmath.exp(log_p) * log_p
                log_p += log_mean - mpmath.log(z + 1)
            assert abs((poisson_entropy(lam) - exact) / exact) <= 1e-15

    def test_series_meets_band_sum_at_the_switch(self):
        for lam in (LAM0 * (1 - 1e-9), LAM0 * (1 + 1e-9)):
            with mock.patch.object(distributions, "_SERIES_MIN_MEAN", 0.0):
                series = poisson_entropy(lam)
            with mock.patch.object(distributions, "_SERIES_MIN_MEAN", np.inf):
                band = poisson_entropy(lam)
            assert poisson_entropy(lam) == (series if lam >= LAM0 else band)
            assert abs(series - band) <= 1e-12

    def test_array_matches_scalar_calls_across_the_switch(self):
        grid = np.concatenate((LAM0 * (1 + np.linspace(-1e-3, 1e-3, 21)), np.logspace(2, 7, 31)))
        np.random.default_rng(5).shuffle(grid)
        scalar = np.array([poisson_entropy(float(lam)) for lam in grid])
        values = poisson_entropy(grid)
        assert np.all(np.abs(values - scalar) <= 2 * np.spacing(scalar))
        assert np.all(np.diff(poisson_entropy(np.sort(grid))) > 0.0)

    def test_band_certificate_refuses_a_tolerance_it_cannot_meet(self, monkeypatch):
        # the unit-mean band ends at z = 21, whose tail (~3e-22) is far above 1e-300
        monkeypatch.setattr(distributions, "_ENTROPY_TAIL_TOL", 1e-300)
        with pytest.raises(RuntimeError, match="band"):
            poisson_entropy(1.0)

    def test_band_certificate_scales_with_the_mean(self, monkeypatch):
        # H = 2.9e-11 at lam = 1e-12, so a band that drops 1e-15 there moves H by about
        # 1e-3 relative; the same drop at lam = 1 is below the gate's 1e-14
        monkeypatch.setattr(distributions, "_missed_mass",
                            lambda lam, lo, hi: np.full(np.shape(lam), 1e-15))
        assert poisson_entropy(1.0) > 0.0
        with pytest.raises(RuntimeError, match="band"):
            poisson_entropy(1e-12)


class TestPoissonBand:
    def test_scalar_and_array(self):
        lo, hi = poisson_band(1.0)
        assert np.shape(lo) == np.shape(hi) == () and (lo, hi) == (0, 57)
        lam = np.array([[1e-9, 1.0], [1000.0, 1e6]])
        lo, hi = poisson_band(lam)
        assert lo.shape == hi.shape == (2, 2) and lo.dtype == hi.dtype == np.int64
        for mean, band in zip(lam.ravel(), zip(lo.ravel(), hi.ravel())):
            assert band == poisson_band(mean)

    def test_lower_end_clipped_at_zero(self):
        lam = np.array([1e-9, 1.0, 100.0, 200.0, 300.0, 1e4])
        lo, hi = poisson_band(lam)
        half = 12.0 * np.sqrt(lam + 1.0) + 40.0
        assert np.array_equal(lo, np.maximum(0, np.ceil(lam - half)))
        assert np.array_equal(hi, np.floor(lam + half))
        assert lo[0] == lo[3] == 0 and lo[4] > 0

    def test_two_sided_tail_below_1e_minus_30(self):
        lam = np.logspace(-9, 6, 2001)
        lo, hi = poisson_band(lam)
        # P[Z < lo] = Q_reg(lo, lam), 0 at lo = 0; P[Z > hi] = P_reg(hi + 1, lam)
        tail = gammaincc(lo, lam) + gammainc(hi + 1.0, lam)
        assert np.all(tail < 1e-30)


class TestMissedMass:
    @pytest.mark.parametrize("lam, lo, hi", [(3.0, 1, 8), (50.0, 30, 70), (1e4, 9800, 10200)])
    def test_both_tails_match_mpmath(self, lam, lo, hi):
        # each tail is 9e-4 or more of the mass here, so dropping either one shows
        with mpmath.workdps(30):
            below = mpmath.gammainc(lo, lam, mpmath.inf, regularized=True)
            above = mpmath.gammainc(hi + 1, 0, lam, regularized=True)
        assert min(below, above) > 9e-4
        assert _missed_mass(lam, lo, hi) == pytest.approx(float(below + above), rel=1e-12)

    def test_lower_end_zero_keeps_the_upper_tail_bits(self):
        # gammaincc(0, lam) is exactly 0.0, so a window from 0 adds nothing to P[Z > hi]
        lam = np.logspace(-9, 6, 2001)
        hi = poisson_band(lam)[1]
        assert np.array_equal(_missed_mass(lam, 0, hi), gammainc(hi + 1.0, lam))


TAILS = (2.0**-53, 1e-16, 1e-20, 1e-30)


class TestChernoffWindow:
    """Bennett's Poisson tail bound inverted through Lambert W, certified by the exact tails."""

    @staticmethod
    def assert_certified(lam, tail):
        lo, hi = _chernoff_window(lam, tail)
        # P[Z < lo] = Q_reg(lo, lam), 0 at lo = 0; P[Z > hi] = P_reg(hi + 1, lam)
        assert np.all(gammaincc(lo, lam) <= tail)
        assert np.all(gammainc(hi + 1.0, lam) <= tail)
        return lo, hi

    @pytest.mark.parametrize("tail", TAILS)
    def test_both_tails_certified_and_ends_never_decrease(self, tail):
        lam = np.logspace(-12, 6, 20_001)
        lo, hi = self.assert_certified(lam, tail)
        assert lo.dtype == hi.dtype == np.int64
        # `_row_runs` plans on windows whose ends never decrease with the mean
        assert np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)
        assert np.all(lo <= np.floor(lam)) and np.all(np.ceil(lam) <= hi)

    @pytest.mark.parametrize("tail", TAILS)
    def test_finite_at_the_extremes_and_at_the_switch(self, tail):
        # lam = ln(1/tail) is where W0 is 0 and where the lower end leaves 0
        switch = -math.log(tail)
        lam = np.array([1e-300, np.nextafter(switch, 0.0), switch, np.nextafter(switch, 1e3)])
        lo, hi = self.assert_certified(lam, tail)
        assert lo[0] == hi[0] == 0
        assert np.array_equal(lo, [0, 0, 0, 1])
        assert hi[2] == math.floor(math.e * switch) and abs(hi[3] - hi[1]) <= 1

    def test_array_tail_broadcasts(self):
        lam = np.logspace(-3, 4, 15)[:, None]
        lo, hi = _chernoff_window(lam, np.array(TAILS))
        assert lo.shape == hi.shape == (15, len(TAILS))
        for j, tail in enumerate(TAILS):
            column = _chernoff_window(lam[:, 0], tail)
            assert np.array_equal(lo[:, j], column[0]) and np.array_equal(hi[:, j], column[1])

    def test_a_range_of_means_takes_each_end_at_its_own_mean(self):
        # `mmpe` certifies one window for every gain of a group
        lam = np.logspace(-3, 4, 15)
        lo, hi = _chernoff_window(lam, 1e-16, 1.5 * lam)
        assert np.array_equal(lo, _chernoff_window(lam, 1e-16)[0])
        assert np.array_equal(hi, _chernoff_window(1.5 * lam, 1e-16)[1])

    def test_narrower_than_the_spec_band(self):
        lam = np.logspace(-9, 6, 301)
        lo, hi = _chernoff_window(lam, 1e-17)
        band_lo, band_hi = poisson_band(lam)
        assert np.all(band_lo <= lo) and np.all(hi < band_hi)


def _lambertw_window(lam, tail):
    """The window as it was computed through scipy's complex-valued `lambertw`."""
    excess = -np.log(tail) - lam
    with np.errstate(invalid="ignore"):
        hi = np.where(excess == 0.0, math.e * lam, excess / lambertw(excess / (math.e * lam)).real)
    far = excess < 0.0
    lo = np.zeros(lam.shape)
    lo[far] = np.ceil(excess[far] / lambertw(excess[far] / (math.e * lam[far]), -1).real)
    return lo, np.floor(hi)


def _bennett_exponent(lam, n):
    """lam h(n / lam - 1), h(u) = (1 + u) ln(1 + u) - u: Bennett's bound e^-exponent on
    P[Z >= n] for n above the mean of Z ~ Poisson(lam), and on P[Z <= n] for n below it."""
    u = (n - lam) / lam
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = lam * ((1.0 + u) * np.log1p(u) - u)
    return np.where(n == 0.0, lam, exponent)  # (1 + u) ln(1 + u) is 0 at u = -1


# every caller's tail: mmpe, the poisson_entropy bands, the letter table and the
# Poissonization box, the v-log-v range
CALLER_TAILS = {
    "1e-16": lambda lam: 1e-16,
    "1e-20_min_1_lam": lambda lam: 1e-20 * np.minimum(1.0, lam),
    "2^-53": lambda lam: 2.0**-53,
    "1e-30": lambda lam: 1e-30,
}


@pytest.mark.parametrize("tail_of", CALLER_TAILS.values(), ids=CALLER_TAILS.keys())
def test_real_lambert_w_keeps_every_window_end_and_bennett_certifies_it(tail_of):
    lam = np.logspace(-9, 6, 200_001)
    tail = tail_of(lam)
    lo, hi = _chernoff_window(lam, tail)
    reference = _lambertw_window(lam, tail)
    assert np.array_equal(lo, reference[0]) and np.array_equal(hi, reference[1])
    # the first count left out on each side meets Bennett's bound exactly, so no end
    # rests on the last bits of W
    log_inv = np.broadcast_to(-np.log(tail), lam.shape)
    assert np.all(_bennett_exponent(lam, hi + 1.0) >= log_inv)
    below = lo >= 1
    assert np.all(_bennett_exponent(lam[below], lo[below] - 1.0) >= log_inv[below])


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-12, 1e6), st.floats(1e-12, 1e6), st.sampled_from(TAILS))
def test_chernoff_window_certified_and_monotone(a, b, tail):
    lam = np.array(sorted((a, b)))
    lo, hi = TestChernoffWindow.assert_certified(lam, tail)
    assert lo[0] <= lo[1] and hi[0] <= hi[1]


@st.composite
def monotone_windows(draw):
    """Per-row windows [lo, hi] with lo and hi both never decreasing."""
    steps = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 300)),
                          min_size=1, max_size=80))
    lo = np.cumsum([step for step, _ in steps])
    hi = np.maximum.accumulate(lo + np.array([width for _, width in steps]))
    return lo, hi


@settings(max_examples=200, deadline=None)
@given(monotone_windows(), st.integers(1, 20_000))
def test_row_runs_cover_rows_within_cap_and_budget(windows, budget):
    lo, hi = windows
    runs = _row_runs(lo, hi, budget)
    # consecutive, non-empty and in order: every row once
    assert [a for a, _, _, _ in runs] == [0] + [b for _, b, _, _ in runs[:-1]]
    assert runs[-1][1] == lo.size and all(a < b for a, b, _, _ in runs)
    for a, b, z_lo, z_hi in runs:
        assert z_lo <= lo[a:b].min() and hi[a:b].max() <= z_hi
        if b - a > 1:
            width = z_hi - z_lo + 1
            assert 4 * width <= 5 * (hi[a] - lo[a] + 1)
            assert (b - a) * width <= budget


def test_v_log_v_expectation_bound():
    # E[V ln V] <= lam ln(1 + lam), checked by direct summation
    for lam in (0.1, 1.0, 5.0, 20.0):
        k = np.arange(1, int(lam + 50 * math.sqrt(lam + 1)) + 80)
        p = np.exp(poisson_log_pmf(k, lam))
        assert float((p * k * np.log(k)).sum()) <= lam * math.log1p(lam)


class TestTruncatedRoundedInput:
    def test_normalized_and_positive_support(self):
        for g, rho in ((2.5, 0.3), (8.0, 0.5), (100.0, 0.1)):
            pmf = truncated_rounded_input_pmf(g, rho)
            assert pmf.support_offset == 1
            assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert pmf.support[-1] == math.ceil(g ** (1 + rho))

    def test_mean_against_monte_carlo_oracle(self):
        # independent route: raw gamma draws, rejection to the window, ceil
        g, rho = 100.0, 0.1
        pmf = truncated_rounded_input_pmf(g, rho)
        rng = RngStream(55)
        draws = rng.generator.gamma(0.5, 2.0 * g, size=2_000_000)
        window = draws[(draws >= g ** -(1 + 3 * rho)) & (draws <= g ** (1 + rho))]
        oracle = np.ceil(window).mean()
        se = np.ceil(window).std() / math.sqrt(window.size)
        assert abs(pmf.mean() - oracle) <= 5.0 * se

    def test_mean_approaches_budget_from_below_at_scale(self):
        # the truncation window clips the heavy upper tail, so the mean sits
        # below g at desk scales and climbs back as the window widens
        m_small = truncated_rounded_input_pmf(100.0, 0.1).mean() / 100.0
        m_wide = truncated_rounded_input_pmf(100.0, 0.7).mean() / 100.0
        assert 0.3 <= m_small <= 1.0
        assert m_small < m_wide <= 1.1

    def test_small_value_mass_identity(self):
        # P[X <= floor(g^(1-rho))] <= 2 / g^(rho/2), exactly from the PMF
        for g in (100.0, 1000.0):
            rho = 0.1
            pmf = truncated_rounded_input_pmf(g, rho)
            cut = math.floor(g ** (1 - rho))
            mass = pmf.probs[pmf.support <= cut].sum()
            assert mass <= 2.0 / g ** (rho / 2)

    @pytest.mark.parametrize("g", [8.0, 20.0, 200.0, 500.0])
    def test_matches_scalar_cdf_loop(self, g):
        rho = 0.5
        s_min, s_max = g ** -(1.0 + 3.0 * rho), g ** (1.0 + rho)
        bounds = np.clip(np.arange(0, math.ceil(s_max) + 1, dtype=float), s_min, s_max)
        cdf = np.array([float(mpmath.gammainc(0.5, 0, b / (2.0 * g), regularized=True))
                        for b in bounds])
        expected = np.clip(np.diff(cdf), 0.0, None) / (cdf[-1] - cdf[0])
        pmf = truncated_rounded_input_pmf(g, rho)
        np.testing.assert_allclose(pmf.probs, expected, rtol=0.0, atol=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            truncated_rounded_input_pmf(8.0, 0.0)
        with pytest.raises(ValueError):
            truncated_rounded_input_pmf(8.0, 1.0)
        with pytest.raises(ValueError):
            truncated_rounded_input_pmf(1.5, 0.5)


class TestMultinomialSample:
    def test_point_mass_probability(self):
        probs = np.array([0.0, 1.0, 0.0])
        counts = multinomial_sample(17, probs, RngStream(5))
        assert counts.tolist() == [0, 17, 0]

    def test_zero_trials(self):
        counts = multinomial_sample(0, np.array([0.5, 0.5]), RngStream(5))
        assert counts.tolist() == [0, 0]

    def test_uniform_moments(self):
        rng = RngStream(6)
        trials = 100_000
        counts = multinomial_sample(trials, np.full(4, 0.25), rng)
        assert counts.sum() == trials
        sd = math.sqrt(trials * 0.25 * 0.75)
        assert np.all(np.abs(counts - trials * 0.25) <= 4.0 * sd)

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            multinomial_sample(5, np.array([0.5, -0.1, 0.6]), RngStream(0))
        with pytest.raises(ValueError):
            multinomial_sample(5, np.array([0.5, 0.4]), RngStream(0))


class TestPoissonChernoff:
    def test_vacuous_at_mean(self):
        assert poisson_chernoff_lower_tail(7.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_dominates_exact_cdf(self):
        lam, alpha = 20.0, 0.5
        k = np.arange(0, int(alpha * lam) + 1)
        exact = np.exp(poisson_log_pmf(k, lam)).sum()
        assert exact <= poisson_chernoff_lower_tail(lam, alpha)

    def test_weaker_quadratic_form(self):
        assert poisson_chernoff_lower_tail(50.0, 0.2) <= math.exp(-50.0 * 0.8**2 / 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            poisson_chernoff_lower_tail(1.0, 0.0)
        with pytest.raises(ValueError):
            poisson_chernoff_lower_tail(1.0, 1.5)


class TestGammaHalfTailBounds:
    def test_lower_tail_certified(self):
        g = 100.0
        lower, _ = gamma_half_tail_bounds(g, 0.0, 0.5)
        assert lower == pytest.approx(0.1, abs=1e-12)
        exact = mpmath.gammainc(0.5, 0, 1.0 / (2 * g), regularized=True)
        assert exact <= lower

    def test_upper_tail_certified(self):
        g = 100.0
        _, upper = gamma_half_tail_bounds(g, 0.0, 0.5)
        assert upper == pytest.approx(2 * math.exp(-5.0), abs=1e-12)
        exact = mpmath.gammainc(0.5, g**1.5 / (2 * g), regularized=True)
        assert exact <= upper

    def test_vacuous_limit(self):
        lower, _ = gamma_half_tail_bounds(100.0, 0.9999, 0.5)
        assert lower >= 0.999

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_half_tail_bounds(100.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            gamma_half_tail_bounds(100.0, 0.5, 0.0)


def test_sub_gamma_right_tail_monte_carlo():
    # Gamma(50, 2): P[X >= E X + t] <= e^(-t/2 theta) + e^(-t^2/(4 k theta^2))
    rng = RngStream(77)
    k, theta, samples = 50.0, 2.0, 200_000
    draws = rng.generator.gamma(k, theta, size=samples)
    for t in (25.0, 50.0):
        freq = float((draws >= k * theta + t).mean())
        bound = math.exp(-t / (2 * theta)) + math.exp(-t * t / (4 * k * theta * theta))
        slack = 3.0 * math.sqrt(max(freq, bound) / samples)
        assert freq <= bound + slack


def test_hoeffding_and_relative_chernoff_monte_carlo():
    rng = RngStream(78)
    n, samples, p = 400, 20_000, 0.3
    draws = rng.generator.binomial(n, p, size=samples)
    for t in (0.03, 0.06):
        freq = float((draws / n - p >= t).mean())
        bound = math.exp(-2 * n * t * t)
        assert freq <= bound + 3.0 * math.sqrt(bound * (1 - bound) / samples + 1e-12)

    n, p = 500, 0.05
    draws = rng.generator.binomial(n, p, size=samples)
    for xi in (0.5, 1.0):
        freq = float((draws / n - p >= xi * p).mean())
        bound = math.exp(-xi * xi * p * n / (2 + xi))
        assert freq <= bound + 3.0 * math.sqrt(bound * (1 - bound) / samples + 1e-12)
