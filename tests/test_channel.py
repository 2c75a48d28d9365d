import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from freqcap.channel import (
    ChannelParams,
    _read_counts,
    CountVector,
    event_poissonization_factor,
    multinomial_poisson_ratio_log,
    poissonization_identity_check,
    transmit,
    transmit_poissonized,
    validate_codeword,
)
from freqcap.distributions import RngStream, multinomial_sample, poisson_log_pmf

FIG1 = CountVector([3, 4, 1, 0, 2, 2])


def fig1_params():
    return ChannelParams(6, 2.0, 3.0)


class TestChannelParams:
    def test_reads_and_budget(self):
        p = fig1_params()
        assert p.reads == 18
        assert p.budget == 12

    def test_rejects_fractional_read_count(self):
        with pytest.raises(ValueError):
            ChannelParams(6, 2.0, 3.0001)

    def test_accepts_fractional_r_with_integral_total(self):
        assert ChannelParams(200, 8.0, 10.87).reads == 2174

    def test_kernel_validation(self):
        eye = np.eye(3)
        ChannelParams(3, 1.0, 1.0, eye)
        bad = eye.copy()
        bad[0, 0] = 0.5
        with pytest.raises(ValueError):
            ChannelParams(3, 1.0, 1.0, bad)
        with pytest.raises(ValueError):
            ChannelParams(3, 1.0, 1.0, -eye)
        with pytest.raises(ValueError):
            ChannelParams(3, 1.0, 1.0, np.eye(4))
        # a JSON kernel may hold NaN, which passes any check written as "reject if bad"
        nan = eye.copy()
        nan[:, 0] = np.nan
        with pytest.raises(ValueError, match="non-negative"):
            ChannelParams(3, 1.0, 1.0, nan)


class TestCountVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountVector([-1, 2])
        with pytest.raises(ValueError):
            CountVector([[1, 2]])

    def test_frequencies(self):
        f = FIG1.frequencies()
        assert f.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            CountVector([0, 0]).frequencies()


class TestValidateCodeword:
    def test_fig1_admissible(self):
        assert validate_codeword(FIG1, fig1_params()) is None

    def test_empty_pool(self):
        assert validate_codeword(CountVector([0] * 6), fig1_params()) is not None

    def test_budget_violation(self):
        x = CountVector([13, 0, 0, 0, 0, 0])
        assert validate_codeword(x, fig1_params()) is not None

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            validate_codeword(CountVector([1, 2]), fig1_params())


class TestTransmit:
    def test_point_mass_is_deterministic(self):
        params = ChannelParams(4, 3.0, 2.0)
        y = transmit(CountVector([0, 12, 0, 0]), params, RngStream(1))
        assert y.counts.tolist() == [0, 8, 0, 0]

    def test_fig1_read_total(self):
        y = transmit(FIG1, fig1_params(), RngStream(2))
        assert y.total == 18

    def test_conservation_over_draws(self):
        params = fig1_params()
        rng = RngStream(3)
        for _ in range(200):
            assert transmit(FIG1, params, rng).total == 18

    def test_slotwise_mean(self):
        params = fig1_params()
        rng = RngStream(4)
        reps = 100_000
        totals = np.zeros(6)
        for _ in range(reps):
            totals += transmit(FIG1, params, rng).counts
        expected = 18.0 * FIG1.frequencies()
        sd = np.sqrt(18.0 * FIG1.frequencies() * (1 - FIG1.frequencies()) / reps)
        assert np.all(np.abs(totals / reps - expected) <= 4.0 * sd + 1e-12)

    def test_rejects_violations(self):
        with pytest.raises(ValueError):
            transmit(CountVector([0] * 6), fig1_params(), RngStream(0))

    def test_noisy_kernel_shifts_read_law(self):
        # always-flip kernel on two types: reads report the other type
        kernel = np.array([[0.0, 1.0], [1.0, 0.0]])
        params = ChannelParams(2, 4.0, 2.0, kernel)
        y = transmit(CountVector([8, 0]), params, RngStream(5))
        assert y.counts.tolist() == [0, 4]

    @pytest.mark.parametrize("x", [(2, 1, 0, 3), (1, 1), (3, 0, 2), (5,)])
    @pytest.mark.parametrize("reads", [1, 2, 3])
    def test_object_index_draw_has_the_multinomial_law(self, x, reads):
        # every tuple of object indices is equally likely; the histograms they map to
        # must carry the multinomial pmf, exactly
        counts, tau = np.array(x), sum(x)
        law = Counter(
            tuple(_read_counts(counts, np.array(objects)).tolist())
            for objects in itertools.product(range(tau), repeat=reads)
        )
        drawn = {y: Fraction(hits, tau**reads) for y, hits in law.items()}
        expected = {}
        for y in itertools.product(range(reads + 1), repeat=len(x)):
            if sum(y) != reads:
                continue
            pmf = Fraction(math.factorial(reads))
            for yi, xi in zip(y, x):
                pmf *= Fraction(xi, tau) ** yi / math.factorial(yi)
            if pmf:
                expected[y] = pmf
        assert drawn == expected

    @pytest.mark.parametrize("counts, r", [
        ([3 * 10**11, 1, 0, 9 * 10**11 - 1], 2.5),  # a pool of 1.2e12 objects
        ([7, 0, 9, 4], 6.0),  # 6 reads per type
    ])
    def test_large_pools_and_many_reads_take_one_multinomial(self, counts, r):
        # neither lists its pool: the output is the multinomial draw over the types, byte
        # for byte, and the draw allocates next to nothing
        x = CountVector(counts)
        params = ChannelParams(4, x.total / 4, r)
        expected = multinomial_sample(params.reads, x.frequencies(), RngStream(3))
        tracemalloc.start()
        try:
            y = transmit(x, params, RngStream(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.counts.tobytes() == expected.tobytes()
        assert peak < 64 * 1024

    def test_reruns_are_byte_identical(self):
        params = ChannelParams(6, 2.0, 3.0)
        first = transmit(FIG1, params, RngStream(8, 1)).counts
        again = transmit(FIG1, params, RngStream(8, 1)).counts
        assert first.dtype == np.int64 and first.tobytes() == again.tobytes()

    @pytest.mark.parametrize("seed, expected", [
        (0, [2, 1, 14, 7]), (1, [4, 0, 18, 2]), (2, [8, 3, 7, 6]),
    ])
    def test_kernel_path_keeps_its_multinomial_draw(self, seed, expected):
        # frozen from the code that drew every output as one multinomial
        kernel = np.array([[0.7, 0.1, 0.0, 0.2], [0.1, 0.8, 0.1, 0.0],
                           [0.1, 0.1, 0.8, 0.1], [0.1, 0.0, 0.1, 0.7]])
        params = ChannelParams(4, 5.0, 6.0, kernel)
        y = transmit(CountVector([7, 0, 9, 4]), params, RngStream(seed))
        assert y.counts.tolist() == expected


class TestTransmitPoissonized:
    def test_zero_slots_stay_zero(self):
        params = fig1_params()
        rng = RngStream(6)
        for _ in range(200):
            z = transmit_poissonized(FIG1, params, rng)
            assert z.counts[3] == 0

    def test_total_and_slot_means(self):
        params = fig1_params()
        rng = RngStream(7)
        reps = 20_000
        totals = np.zeros(6)
        grand = 0
        for _ in range(reps):
            z = transmit_poissonized(FIG1, params, rng)
            totals += z.counts
            grand += z.total
        lam = (params.r / params.g) * FIG1.counts
        sd = np.sqrt(lam / reps)
        assert np.all(np.abs(totals / reps - lam) <= 4.0 * sd + 1e-9)
        # the grand total is Poisson(n*r)
        assert abs(grand / reps - 18.0) <= 4.0 * math.sqrt(18.0 / reps)

    def test_rejects_noisy_kernel(self):
        kernel = np.array([[0.9, 0.1], [0.1, 0.9]])
        params = ChannelParams(2, 4.0, 2.0, kernel)
        with pytest.raises(NotImplementedError):
            transmit_poissonized(CountVector([8, 0]), params, RngStream(0))


class TestMultinomialPoissonRatio:
    def test_single_read(self):
        value = multinomial_poisson_ratio_log(1)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert 0.5 * math.log(2 * math.pi) <= value <= 0.5 * math.log(6 * math.pi)

    def test_bracket_at_100(self):
        value = multinomial_poisson_ratio_log(100)
        assert 0.5 * math.log(2 * math.pi * 100) <= value
        assert value <= 0.5 * math.log(6 * math.pi * 100)

    def test_half_log_growth(self):
        growth = multinomial_poisson_ratio_log(10**4) - multinomial_poisson_ratio_log(10**2)
        assert growth == pytest.approx(0.5 * math.log(100.0), abs=0.01)

    def test_domain(self):
        with pytest.raises(ValueError):
            multinomial_poisson_ratio_log(0)


class TestPoissonizationIdentity:
    @pytest.mark.parametrize(
        "mean,probs",
        [(5.0, [0.5, 0.5]), (1.0, [1.0]), (10.0, [0.2, 0.3, 0.5]), (20.0, [0.1, 0.2, 0.3, 0.4])],
    )
    def test_exact(self, mean, probs):
        assert poissonization_identity_check(mean, probs) <= 1e-10

    def test_rejects_large_instances(self):
        with pytest.raises(ValueError):
            poissonization_identity_check(100.0, [0.5, 0.5])
        with pytest.raises(ValueError):
            poissonization_identity_check(5.0, [0.2] * 5)


class TestEventPoissonization:
    def test_factor_value(self):
        assert event_poissonization_factor(1) == pytest.approx(math.sqrt(math.e), abs=1e-12)

    def test_exact_upper_tail_event(self):
        # M=6 uniform over 2 types, event {y_1 >= 5}
        m = 6
        k = np.arange(m + 1)
        binom = np.array([math.comb(m, int(i)) for i in k]) * 0.5**m
        p_fixed = binom[k >= 5].sum()
        z = np.arange(120)
        p_poisson = np.exp(poisson_log_pmf(z, m / 2))[z >= 5].sum()
        assert p_fixed <= event_poissonization_factor(m) * p_poisson

    def test_exact_diagonal_event(self):
        # M=20 uniform over 2 types, event {y_1 = y_2} i.e. y_1 = 10
        m = 20
        p_fixed = math.comb(m, m // 2) * 0.5**m
        z = np.arange(200)
        poi = np.exp(poisson_log_pmf(z, m / 2))
        p_poisson = float((poi * poi).sum())  # independent equal Poissons
        assert p_fixed <= event_poissonization_factor(m) * p_poisson


def _chi_square_two_sample(counts_a, counts_b):
    counts_a = np.asarray(counts_a, dtype=float)
    counts_b = np.asarray(counts_b, dtype=float)
    keep = counts_a + counts_b >= 10
    a, b = counts_a[keep], counts_b[keep]
    stat = float(((a - b) ** 2 / (a + b)).sum())
    return stat, int(keep.sum())


def _inverse(perm):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return inv


def test_permutation_equivariance():
    params = ChannelParams(5, 2.0, 2.0)
    x = CountVector([4, 3, 2, 1, 0])
    perm = np.array([2, 0, 4, 1, 3])
    x_perm = CountVector(x.counts[perm])
    reps = 10_000
    rng_a, rng_b = RngStream(31), RngStream(32)
    totals_a = np.zeros(5)
    totals_b = np.zeros(5)
    for _ in range(reps):
        totals_a += transmit(x, params, rng_a).counts
        totals_b += transmit(x_perm, params, rng_b).counts
    # un-permute the second run; slot totals must then be homogeneous
    stat, cells = _chi_square_two_sample(totals_a, totals_b[_inverse(perm)])
    assert stat <= chi2.ppf(0.999, df=cells)


def test_degradation_by_subsampling_reads():
    # reading 4 times then keeping a uniform subset of 2 reads is the same
    # channel as reading twice
    n, g = 2, 3.0
    x = CountVector([4, 2])
    params_hi = ChannelParams(n, g, 2.0)  # 4 reads
    params_lo = ChannelParams(n, g, 1.0)  # 2 reads
    reps = 20_000
    rng = RngStream(33)
    direct = np.zeros(3, dtype=int)  # histogram of y_1 in {0,1,2}
    sub = np.zeros(3, dtype=int)
    for _ in range(reps):
        y_lo = transmit(x, params_lo, rng)
        direct[y_lo.counts[0]] += 1
        y_hi = transmit(x, params_hi, rng)
        kept = rng.generator.multivariate_hypergeometric(y_hi.counts, 2)
        sub[kept[0]] += 1
    stat, cells = _chi_square_two_sample(direct, sub)
    assert stat <= chi2.ppf(0.999, df=cells)
