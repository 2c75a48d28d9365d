import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp, xlogy
from scipy.stats import chi2
from conftest import spec_with_z_max

from freqcap import coding_experiment, mutual_info
from freqcap.channel import ChannelParams, CountVector, transmit
from freqcap.coding_experiment import (
    Codebook,
    ExperimentConfig,
    decode_ml,
    decode_threshold,
    density_correction,
    feinstein_rhs,
    generate_codebook,
    run_experiment,
    select_tau,
)
from freqcap.distributions import (
    DiscretePmf,
    RngStream,
    poisson_log_pmf,
    truncated_rounded_input_pmf,
)
from freqcap.mutual_info import PoissonChannelSpec, mutual_information, spectrum_mc
from freqcap.special_math import log_factorial as fc_log_factorial


def point_mass(x0):
    return DiscretePmf(x0, np.array([0.0]))


def reference_densities(y, matrix, spec):
    """Surrogate density sums, term by term: sum_i -lam + y ln lam - ln y! - log P_Z(y)."""
    lam_support = spec.gain * spec.input.support

    def log_pz(z):
        log_cond = -lam_support + xlogy(z, lam_support) - gammaln(z + 1.0)
        return logsumexp(spec.input.log_weights + log_cond)

    out = []
    for row in matrix:
        total = 0.0
        for x, z in zip(row, y):
            lam = spec.gain * x
            total += -lam + xlogy(z, lam) - gammaln(z + 1.0) - log_pz(z)
        out.append(total)
    return np.array(out)


def k_letter_sum_law(probs, k):
    law = np.ones(1)
    for _ in range(k):
        law = np.convolve(law, probs)
    return law


def conditional_multiset_law(pmf, n, tau):
    """Letter counts of n IID draws from pmf, given that they sum to tau, by enumeration."""
    law = {}
    for cut in itertools.combinations(range(n + pmf.size - 1), pmf.size - 1):
        counts = np.diff([-1, *cut, n + pmf.size - 1]) - 1
        if counts @ pmf.support == tau:
            log_w = gammaln(n + 1) - gammaln(counts + 1).sum()
            law[tuple(int(c) for c in counts)] = math.exp(log_w) * np.prod(pmf.probs ** counts)
    total = sum(law.values())
    return {c: w / total for c, w in law.items() if w > 0}


def assert_chi2_fits(observed, probs, size):
    """Pearson chi-square against size * probs, pooling cells expected below 5,
    held to the level exceeded with probability 1e-6 under the law."""
    observed = np.asarray(observed, dtype=float)
    expected = size * np.asarray(probs)
    small = expected < 5
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    if expected[-1] == 0:
        observed, expected = observed[:-1], expected[:-1]
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat <= chi2.isf(1e-6, expected.size - 1), stat


def first_occurrence(matrix, m):
    return next(k for k in range(len(matrix)) if np.array_equal(matrix[k], matrix[m]))


def log_domain_sum_law(probs, n):
    """The n-fold convolution of probs by repeated squaring, carried in logs:
    each product rescales both factors to a maximum of 1 before a direct
    convolution, so nothing underflows near the mode."""

    def log_convolve(a, b):
        product = np.convolve(np.exp(a - a.max()), np.exp(b - b.max()))
        with np.errstate(divide="ignore"):
            return np.log(product) + a.max() + b.max()

    with np.errstate(divide="ignore"):
        power = np.log(probs)
    law = np.zeros(1)
    while n:
        if n & 1:
            law = log_convolve(law, power)
        n >>= 1
        if n:
            power = log_convolve(power, power)
    return np.exp(law)


class TestSelectTau:
    def test_point_mass(self):
        tau, p_f = select_tau(point_mass(3), 40)
        assert tau == 120
        assert p_f == 1.0

    def test_desk_scale_window(self):
        pmf = truncated_rounded_input_pmf(8.0, 0.5)
        tau, p_f = select_tau(pmf, 500)
        assert 0.7 * 8.0 <= tau / 500 <= 1.3 * 8.0
        # far above the 1/(3 n g) floor at desk scale
        assert p_f >= 0.5 / (3 * 500 * 8.0)

    def test_coding_config_value(self):
        # the n = 2000, g = 8, rho = 0.5 experiment: no draw is involved
        tau, p_f = select_tau(truncated_rounded_input_pmf(8.0, 0.5), 2000)
        assert tau == 11_595
        assert p_f == pytest.approx(0.0015948955730149556, rel=1e-12)

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            select_tau(point_mass(2), 0)

    def test_law_matches_log_domain_convolution(self):
        pmf = truncated_rounded_input_pmf(8.0, 0.5)
        n = 200
        law = coding_experiment._sum_law(pmf.probs, n)
        reference = log_domain_sum_law(pmf.probs, n)
        assert law.size == reference.size
        assert np.max(np.abs(law - reference)) <= 1e-15
        tau, p_f = select_tau(pmf, n)
        mode = int(reference.argmax())
        assert tau == n * pmf.support[0] + mode
        assert abs(p_f - reference[mode]) <= 1e-13 * reference[mode]

    def test_law_matches_mpmath(self):
        weights = [0.1, 0.0, 0.35, 0.2, 0.05, 0.3]
        pmf = DiscretePmf.from_weights(2, weights)
        n = 11
        with mp.workdps(50):
            exact = [mp.mpf(1)]
            letter = [mp.mpf(p) for p in pmf.probs]
            for _ in range(n):
                exact = [
                    mp.fsum(exact[j] * letter[s - j] for j in range(len(exact))
                            if 0 <= s - j < len(letter))
                    for s in range(len(exact) + len(letter) - 1)
                ]
            exact = np.array([float(v) for v in exact])
        law = coding_experiment._sum_law(pmf.probs, n)
        assert np.max(np.abs(law - exact)) <= 1e-16
        tau, p_f = select_tau(pmf, n)
        assert tau == 2 * n + int(exact.argmax())
        assert p_f == pytest.approx(exact.max(), rel=1e-13)

    @pytest.mark.parametrize("size, n", [(2, 8), (2, 32), (3, 16), (5, 4)])
    def test_law_of_a_power_of_two_plus_one_bins(self, size, n):
        # n (size - 1) + 1 = 2^k + 1 bins need an FFT of 2^(k + 1): one of 2^k would wrap
        probs = DiscretePmf.from_weights(1, np.arange(1.0, size + 1)).probs
        law = coding_experiment._sum_law(probs, n)
        reference = log_domain_sum_law(probs, n)
        assert law.size == reference.size == n * (size - 1) + 1
        assert np.max(np.abs(law - reference)) <= 1e-15

    @pytest.mark.parametrize("n", [7, 13, 45, 841])
    def test_tied_modes_take_the_first(self, n):
        # Bin(n, 1/2) on {3, 4} has two equal modes; FFT noise must not pick.
        # At n = 13, 45 and 841 numpy's FFT puts the larger value on the
        # second one, where a plain argmax would land.
        tau, p_f = select_tau(DiscretePmf.from_weights(3, [1.0, 1.0]), n)
        k = (n - 1) // 2
        assert tau == 3 * n + k
        exact = math.exp(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) - n * math.log(2))
        assert p_f == pytest.approx(exact, rel=1e-12)


class TestGenerateCodebook:
    def test_point_mass_one_attempt_each(self):
        pmf = point_mass(2)
        cb = generate_codebook(5, 10, pmf, 20, RngStream(3))
        assert len(cb) == 5
        assert cb.attempts == 5
        assert np.all(cb.matrix == 2)

    def test_every_word_sums_to_tau(self):
        pmf = truncated_rounded_input_pmf(8.0, 0.5)
        tau, _ = select_tau(pmf, 100)
        cb = generate_codebook(32, 100, pmf, tau, RngStream(5))
        assert np.all(cb.matrix.sum(axis=1) == tau)

    def test_acceptance_rate_consistent_with_pilot(self):
        # a candidate is kept with probability P[sum = tau] / max_s P_k(s),
        # and P[sum = tau] is exact: only the codebook's own draws vary
        pmf = truncated_rounded_input_pmf(8.0, 0.5)
        n = 200
        tau, p_f = select_tau(pmf, n)
        cb = generate_codebook(300, n, pmf, tau, RngStream(7))
        tail_max = k_letter_sum_law(pmf.probs, coding_experiment._COMPLETED_LETTERS).max()
        expected = p_f / tail_max
        sigma = math.sqrt(expected * (1 - expected) / cb.attempts)
        assert abs(cb.accept_rate - expected) <= 3.0 * sigma

    @pytest.mark.parametrize(
        "weights, n, tau",
        [
            ((0.5, 0.3, 0.2), 4, 7),  # n <= k: every letter is completed
            ((0.5, 0.3, 0.2), 11, 20),
            ((0.4, 0.0, 0.35, 0.25), 20, 49),  # a zero-weight interior letter
        ],
    )
    def test_matches_conditional_law(self, weights, n, tau):
        pmf = DiscretePmf.from_weights(1, weights)
        cb = generate_codebook(100_000, n, pmf, tau, RngStream(31))
        law = conditional_multiset_law(pmf, n, tau)
        counts = np.stack([(cb.matrix == v).sum(axis=1) for v in pmf.support], axis=1)
        observed = Counter(map(tuple, counts.tolist()))
        assert set(observed) <= set(law)
        cells = list(law)
        expected = np.array([law[c] for c in cells])
        assert_chi2_fits([observed[c] for c in cells], expected, len(cb))
        # the first letter, marginally
        first = np.array([(cb.matrix[:, 0] == v).sum() for v in pmf.support])
        marginal = sum(law[c] * np.array(c) for c in cells) / n
        assert np.all(first[marginal == 0] == 0)
        assert_chi2_fits(first[marginal > 0], marginal[marginal > 0], len(cb))
        if n <= 4:
            # few enough to test every ordered word, the uniform arrangement included
            words = Counter(map(tuple, cb.matrix.tolist()))
            seqs = [s for s in itertools.product(pmf.support, repeat=n) if sum(s) == tau]
            probs = np.array([np.prod(pmf.probs[np.array(s) - 1]) for s in seqs])
            assert set(words) <= set(seqs)
            assert_chi2_fits([words[s] for s in seqs], probs / probs.sum(), len(cb))

    def test_budget_exhaustion_reports_rate(self, monkeypatch):
        pmf = truncated_rounded_input_pmf(8.0, 0.5)
        monkeypatch.setattr(coding_experiment, "_MAX_ATTEMPTS_PER_WORD", 5000)
        with pytest.raises(RuntimeError, match="acceptance rate"):
            # a sum of 1 is unreachable for 50 positive entries
            generate_codebook(2, 50, pmf, 1, RngStream(8))


def fsum_scores(y, matrix, tau):
    """S(y) for every row by math.fsum; -inf where x_mi = 0 < y_i, zero counts skipped."""
    out = []
    for row in matrix:
        if np.any((row == 0) & (y > 0)):
            out.append(-math.inf)
        else:
            out.append(math.fsum(int(z) * math.log(x / tau) for x, z in zip(row, y) if z > 0))
    return np.array(out)


class TestLogLikelihoods:
    def assert_matches_fsum(self, cb, y):
        reference = fsum_scores(y, cb.matrix, cb.tau)
        scores = cb._log_likelihoods(y)
        assert np.array_equal(np.isneginf(scores), np.isneginf(reference))
        finite = np.isfinite(reference)
        np.testing.assert_allclose(scores[finite], reference[finite], rtol=1e-12, atol=0)
        return finite

    def test_zero_free_codebook(self):
        gen = np.random.default_rng(3)
        n, tau = 2000, 16000
        matrix = 1 + gen.multinomial(tau - n, np.full(n, 1.0 / n), size=64)
        cb = Codebook(matrix, tau, 64)
        assert cb._zero_free
        y = gen.multinomial(6400, matrix[5] / tau)
        assert self.assert_matches_fsum(cb, y).all()

    def test_zero_entries(self):
        gen = np.random.default_rng(4)
        n, tau = 500, 1500
        matrix = gen.multinomial(tau, np.full(n, 1.0 / n), size=32)
        cb = Codebook(matrix, tau, 32)
        assert not cb._zero_free
        # y is zero wherever row 0 is: row 0 stays finite, rows with a zero under y > 0 do not
        y = gen.multinomial(3000, matrix[0] / tau)
        finite = self.assert_matches_fsum(cb, y)
        assert finite[0] and not finite.all()


def test_first_copy_keys_letters_past_one_byte():
    # 300 and 44 share their low byte, as do 4 and 260: one-byte keys would merge rows 0 and 1
    cb = Codebook(np.array([[300, 4], [44, 260], [300, 4]]), 304, 3)
    assert cb._first_copy.tolist() == [0, 1, 0]


def test_codebook_memory_stays_near_its_matrix():
    # the coding benchmark's codebook, 256 x 2000 letters: its draw allocates at most half
    # a matrix beyond what it keeps, its row keys likewise, and the float32 score table at
    # most an eighth of a matrix; no float64 table is kept
    pmf = truncated_rounded_input_pmf(8.0, 0.5)
    tau, _ = select_tau(pmf, 2000)
    tracemalloc.start()
    try:
        cb = generate_codebook(256, 2000, pmf, tau, RngStream(1))
        held = cb.matrix.nbytes
        assert tracemalloc.get_traced_memory()[1] <= 1.5 * held
        for table, extra in (("_score_table", 0.125), ("_first_copy", 0.5)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kept = getattr(cb, table).nbytes
            assert tracemalloc.get_traced_memory()[1] - before <= kept + extra * held
    finally:
        tracemalloc.stop()
    assert cb._score_table.dtype == np.float32
    assert not any(
        isinstance(value, np.ndarray) and value.dtype == np.float64 for value in vars(cb).values()
    )


@st.composite
def screen_cases(draw):
    """Codebooks of up to 20,000 letters per row, letters up to 2^20, zeros and
    duplicate rows allowed, with an output drawn through one row or uniformly."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 20_000))
    top = draw(st.sampled_from([1, 2, 30, 1000, 2**20]))
    base = gen.integers(0 if draw(st.booleans()) else 1, top + 1, size=n)
    base[0] = max(base[0], 1)
    tau = int(base.sum())
    rows = [gen.permutation(base) for _ in range(draw(st.integers(1, 4)))]
    rows.append(gen.multinomial(tau, base / tau))
    rows += [rows[k] for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))]
    matrix = np.array(rows)
    reads = draw(st.integers(1, 10**6))
    law = matrix[draw(st.integers(0, len(rows) - 1))] / tau if draw(st.booleans()) else None
    y = gen.multinomial(reads, np.full(n, 1.0 / n) if law is None else law)
    return Codebook(matrix, tau, len(rows)), y


@settings(max_examples=60, deadline=None)
@given(screen_cases())
def test_screen_bound_holds_on_every_row(case):
    cb, y = case
    exact = cb._log_likelihoods(y)
    scores, bound = cb._screen(y)
    assert np.array_equal(np.isneginf(scores), np.isneginf(exact))
    assert np.all(bound[np.isneginf(scores)] == 0.0)
    finite = np.isfinite(exact)
    assert np.all(np.abs(scores[finite] - exact[finite]) <= bound[finite])


@pytest.mark.parametrize("k", [1, 2000, 100_000])
def test_screen_factor_keeps_every_term_of_its_bound(k):
    # c / (1 - c) (1 + 2^-20), c = u32 + gamma32_k (1 + u32) + gamma64_k, in exact rationals:
    # gamma64_k is 6e-9 of c, far below the pad and far above this tolerance
    u32, u64 = Fraction(1, 2**24), Fraction(1, 2**53)
    c = u32 + k * u32 / (1 - k * u32) * (1 + u32) + k * u64 / (1 - k * u64)
    exact = c / (1 - c) * (1 + Fraction(1, 2**20))
    assert coding_experiment._screen_factor(k) == pytest.approx(float(exact), rel=1e-14, abs=0.0)


def test_screen_refuses_counts_float32_cannot_hold():
    cb = Codebook(np.array([[3, 1], [1, 3]]), 4, 2)
    assert cb._screen(np.array([2**24 - 1, 5])) is not None
    assert cb._screen(np.array([2**24, 5])) is None


@st.composite
def tied_decoding_cases(draw):
    """Copies of a codeword A and of B, A with its first two letters (1 and 2) swapped,
    in any order, and an output through A that is equal at those two places: A and B
    tie in exact arithmetic, so no screen separates them."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3000))
    a = gen.integers(0 if draw(st.booleans()) else 1, draw(st.integers(2, 50)) + 1, size=n)
    a[:2] = [1, 2]
    tau = int(a.sum())
    y = gen.multinomial(draw(st.integers(1, 10**5)), a / tau)
    y[:2] = max(y[0], 1)
    b = a.copy()
    b[:2] = [2, 1]
    both = st.lists(st.booleans(), min_size=2, max_size=6).filter(lambda c: len(set(c)) == 2)
    copies = draw(both)
    matrix = np.array([a if pick else b for pick in copies])
    pmf = truncated_rounded_input_pmf(8.0, 0.5)
    spec = PoissonChannelSpec(pmf, draw(st.floats(0.05, 2.0)))
    return Codebook(matrix, tau, len(matrix)), spec, y, draw(st.floats(-0.25, 0.25))


@settings(max_examples=60, deadline=None)
@given(tied_decoding_cases())
def test_decoders_fall_back_inside_the_bound(case):
    cb, spec, y, share = case
    params = ChannelParams(cb.n, 1.0, y.sum() / cb.n)
    exact = cb._log_likelihoods(y)
    _, bound = cb._screen(y)
    best = int(np.argmax(exact))
    correction = density_correction(params.reads)
    densities = exact + coding_experiment._density_offset(y, spec, cb.tau)
    # log_gamma a quarter of the bound or less from the best row's corrected density
    log_gamma = densities[best] - correction + share * bound[best]
    passing = np.flatnonzero(densities - correction > log_gamma)
    expected_threshold = int(cb._first_copy[passing[0]]) if passing.size else None
    expected_ml = int(cb._first_copy[exact.argmax()])

    calls = mock.patch.object(Codebook, "_log_likelihoods", autospec=True,
                              side_effect=Codebook._log_likelihoods)
    with calls as spy:
        assert decode_ml(y, cb, params) == expected_ml
        assert spy.call_count == 1
        assert decode_threshold(y, cb, log_gamma, spec, params) == expected_threshold
        assert spy.call_count == 2


class TestDecodeMl:
    def params(self, n=2, g=4.0, r=2.0):
        return ChannelParams(n, g, r)

    def test_single_codeword(self):
        cb = Codebook(np.array([[3, 1]]), 4, 1)
        params = self.params()
        assert decode_ml(CountVector([4, 0]), cb, params) == 0

    def test_disjoint_support_never_chosen(self):
        cb = Codebook(np.array([[4, 0], [0, 4]]), 4, 2)
        params = self.params()
        assert decode_ml(CountVector([0, 4]), cb, params) == 1
        assert decode_ml(CountVector([4, 0]), cb, params) == 0

    def test_impossible_output_is_failure(self):
        cb = Codebook(np.array([[4, 0, 0]]), 4, 1)
        params = ChannelParams(3, 4.0, 2.0)
        assert decode_ml(CountVector([0, 3, 3]), cb, params) is None

    def test_tie_breaks_low_index(self):
        cb = Codebook(np.array([[2, 2], [2, 2]]), 4, 2)
        assert decode_ml(CountVector([3, 1]), cb, self.params()) == 0
        # copies of a row tie to the first, even where alignment rounds their scores apart
        rows = np.array([[0, 3], [0, 3], [0, 3], [1, 2], [0, 3], [1, 2]])
        cb = Codebook(rows, 3, 6)
        assert decode_ml(CountVector([9, 1]), cb, ChannelParams(2, 1.0, 5.0)) == 3

    def test_wrong_total_rejected(self):
        cb = Codebook(np.array([[2, 2]]), 4, 1)
        with pytest.raises(ValueError):
            decode_ml(CountVector([1, 1]), cb, self.params())

    def test_well_separated_error_rate(self):
        # two random codewords at r/g = 4 are essentially never confused
        pmf = truncated_rounded_input_pmf(4.0, 0.5)
        n = 200
        params = ChannelParams(n, 4.0, 16.0)
        rng = RngStream(21)
        tau, _ = select_tau(pmf, n)
        cb = generate_codebook(2, n, pmf, tau, rng.substream(2))
        msgs = rng.substream(3).generator.integers(0, 2, size=1000)
        croot = rng.substream(4)
        errors = 0
        for t in range(1000):
            y = transmit(cb.codeword(int(msgs[t])), params, croot.substream(t))
            if decode_ml(y, cb, params) != int(msgs[t]):
                errors += 1
        assert errors / 1000 < 0.01


class TestDecodeThreshold:
    def setup_small(self):
        pmf = truncated_rounded_input_pmf(8.0, 0.5)
        n = 100
        params = ChannelParams(n, 8.0, 0.5)
        rng = RngStream(22)
        tau, _ = select_tau(pmf, n)
        cb = generate_codebook(4, n, pmf, tau, rng.substream(2))
        spec = PoissonChannelSpec(pmf, params.reads / tau)
        y = transmit(cb.codeword(2), params, rng.substream(3))
        return y, cb, spec, params

    def test_minus_infinity_accepts_first(self):
        y, cb, spec, params = self.setup_small()
        assert decode_threshold(y, cb, -math.inf, spec, params) == 0

    def test_plus_infinity_erases(self):
        y, cb, spec, params = self.setup_small()
        assert decode_threshold(y, cb, math.inf, spec, params) is None

    def test_wrong_total_rejected(self):
        y, cb, spec, params = self.setup_small()
        with pytest.raises(ValueError):
            decode_threshold(CountVector(y.counts[:-1].tolist() + [int(y.counts[-1]) + 1]), cb,
                             0.0, spec, ChannelParams(params.n, params.g, params.r + 1.0))

    def test_input_law_gain_matches_codebook(self):
        # the surrogate runs at reads / tau, as `run_experiment` builds it, not r / g
        y, cb, spec, params = self.setup_small()
        assert spec.gain == params.reads / cb.tau != params.r / params.g
        correction = density_correction(params.reads)
        densities = reference_densities(y.counts, cb.matrix, spec) - correction
        low, high = np.sort(densities)[1:3]
        log_gamma = 0.5 * (low + high)
        expected = int(np.flatnonzero(densities > log_gamma)[0])
        assert decode_threshold(y, cb, log_gamma, spec, params) == expected

    def test_zero_entry_never_decoded(self):
        # a zero entry where y is positive makes the codeword impossible
        cb = Codebook(np.array([[0, 8], [4, 4]]), 8, 2)
        params = ChannelParams(2, 4.0, 1.5)
        spec = PoissonChannelSpec(point_mass(4), 0.375)
        assert decode_threshold(CountVector([1, 2]), cb, -math.inf, spec, params) == 1
        alone = Codebook(np.array([[0, 8]]), 8, 1)
        assert decode_threshold(CountVector([1, 2]), alone, -math.inf, spec, params) is None
        assert decode_threshold(CountVector([0, 3]), alone, -math.inf, spec, params) == 0


@st.composite
def decoding_cases(draw):
    """Small fixed-sum codebooks (zeros and duplicate rows allowed), a spec and an output."""
    n = draw(st.integers(1, 5))
    tau = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        cuts = sorted(draw(st.lists(st.integers(0, tau), min_size=n - 1, max_size=n - 1)))
        rows.append(np.diff([0, *cuts, tau]))
    rows += [rows[k] for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    matrix = np.array(draw(st.permutations(rows)), dtype=np.int64)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    spec = PoissonChannelSpec(
        DiscretePmf.from_weights(draw(st.integers(1, 3)), weights), draw(st.floats(0.05, 3.0))
    )
    y = np.array(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)), dtype=np.int64)
    if draw(st.booleans()):
        y[draw(st.integers(0, n - 1))] = spec.z_max + draw(st.integers(1, 40))
    if y.sum() == 0:
        y[0] = 1
    return Codebook(matrix, tau, len(matrix)), spec, y


@settings(max_examples=150, deadline=None)
@given(decoding_cases())
def test_decoders_match_term_by_term_reference(case):
    cb, spec, y = case
    params = ChannelParams(cb.n, 1.0, y.sum() / cb.n)
    reference = reference_densities(y, cb.matrix, spec)
    scores = cb._log_likelihoods(y) + coding_experiment._density_offset(y, spec, cb.tau)
    assert np.array_equal(np.isneginf(scores), np.isneginf(reference))
    finite = np.isfinite(reference)
    np.testing.assert_allclose(scores[finite], reference[finite], rtol=0, atol=1e-9)

    # ML: the log-likelihood is the density sum minus a term in y alone
    decoded = decode_ml(y, cb, params)
    if not finite.any():
        assert decoded is None
    else:
        assert reference[decoded] >= reference[finite].max() - 1e-9
        assert decoded == first_occurrence(cb.matrix, decoded)

    # threshold: -inf, and every midpoint between well-separated distinct scores
    correction = density_correction(params.reads)
    levels = np.unique(reference[finite])
    gaps = [0.5 * (a + b) for a, b in zip(levels, levels[1:]) if b - a > 1e-6]
    for log_gamma in [-math.inf, *(g - correction for g in gaps)]:
        passing = np.flatnonzero(reference - correction > log_gamma)
        expected = int(passing[0]) if passing.size else None
        assert decode_threshold(y, cb, log_gamma, spec, params) == expected


class TestFeinsteinRhs:
    def test_union_term_alone(self):
        # with log M = log gamma - n delta the M/gamma term is e^(-n delta)
        n_delta = 2.5
        log_gamma = 7.0
        m = 55
        bound = feinstein_rhs(0.0, m, log_gamma, 1.0)
        assert bound.value == pytest.approx(m * math.exp(-log_gamma), rel=1e-12)
        implied = feinstein_rhs(0.0, m, math.log(m) + n_delta, 1.0)
        assert implied.value == pytest.approx(math.exp(-n_delta), rel=1e-12)

    def test_clamped_to_unit(self):
        bound = feinstein_rhs(0.9, 1000, 0.0, 0.5)
        assert bound.value == 1.0
        assert bound.saturated
        assert bound.raw > 1.0

    def test_huge_negative_log_gamma_saturates(self):
        bound = feinstein_rhs(0.0, 2, -5000.0, 1.0)
        assert bound.value == 1.0 and bound.saturated

    def test_rejects_zero_constraint_probability(self):
        with pytest.raises(ValueError):
            feinstein_rhs(0.1, 2, 0.0, 0.0)

    def test_rejects_nan_log_gamma(self):
        # M e^-NaN is NaN, and min(1, NaN) would report a bound of 1, unsaturated
        with pytest.raises(ValueError, match="log_gamma"):
            feinstein_rhs(0.1, 2, math.nan, 1.0)


def mp_spectrum_log_cdf_bound(law, gain, z_max, n, log_threshold, dps=30):
    """The grid minimum of `_spectrum_log_cdf_bound` in `dps`-digit arithmetic: P_Z
    and the tails T_x straight from their definitions."""
    with mp.workdps(dps):
        ws = [mp.mpf(float(w)) for w in law.probs]
        lams = [mp.mpf(gain) * int(x) for x in law.support]
        log_p = [[-lam + z * mp.log(lam) - mp.loggamma(z + 1) for z in range(z_max + 1)]
                 for lam in lams]
        log_pz = [mp.log(mp.fsum(w * mp.exp(row[z]) for w, row in zip(ws, log_p)))
                  for z in range(z_max + 1)]
        tails = [mp.gammainc(z_max + 1, 0, lam, regularized=True) for lam in lams]
        tail = mp.fsum(w * t for w, t in zip(ws, tails))
        values = []
        for s in map(mp.mpf, mutual_info._CHERNOFF_S):
            mgf = mp.fsum(
                w * (mp.fsum(mp.exp((1 - s) * lp + s * lpz) for lp, lpz in zip(row, log_pz))
                     + t ** (1 - s) * tail**s)
                for w, row, t in zip(ws, log_p, tails))
            values.append(n * mp.log(mgf) + s * log_threshold)
        return float(min(values))


class TestCertifiedSpectrumTail:
    """The Feinstein bound's spectrum term: a Chernoff-Hölder bound, not a frequency."""

    CODING = dict(n=2000, g=8.0, r=3.2, rho=0.5, delta=0.3, m=256, trials=1, seed=1)

    def test_grid_minimum_matches_mpmath_at_the_coding_config(self):
        report = run_experiment(ExperimentConfig(**self.CODING))
        law = truncated_rounded_input_pmf(8.0, 0.5)
        reads = ChannelParams(2000, 8.0, 3.2).reads
        spec = PoissonChannelSpec(law, reads / report.tau)
        log_threshold = report.log_gamma + density_correction(reads)
        expected = mp_spectrum_log_cdf_bound(law, spec.gain, spec.z_max, 2000, log_threshold)
        assert math.log(report.spectrum_cdf_at_gamma) == pytest.approx(expected, abs=1e-9)
        # ln P <= -465.70, at the tilt s = 0.64
        assert 0.0 < report.spectrum_cdf_at_gamma <= math.exp(-465.0)

    def test_grid_minimum_matches_mpmath_where_the_holder_term_counts(self):
        # z_max = 3 leaves a fifth to four fifths of a row's mass past the table
        law = DiscretePmf.from_weights(1, np.array([0.5, 0.3, 0.2]))
        value = coding_experiment._spectrum_log_cdf_bound(spec_with_z_max(law, 1.0, 3), 5, -1.0)
        assert value == pytest.approx(mp_spectrum_log_cdf_bound(law, 1.0, 3, 5, -1.0), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("z_max", [3, 40])
    def test_bound_dominates_the_exact_tail(self, n, z_max):
        # every (x, z) letter with z <= 40, where each row misses less than 1e-30, and
        # every sequence of n of them
        law = DiscretePmf.from_weights(1, np.array([0.5, 0.3, 0.2]))
        spec = spec_with_z_max(law, 1.0, z_max)
        log_p = poisson_log_pmf(np.arange(41), np.arange(1.0, 4.0)[:, None])
        density = (log_p - np.logaddexp.reduce(log_p + law.log_weights[:, None], axis=0)).ravel()
        prob = (np.exp(log_p) * law.probs[:, None]).ravel()
        mi = float(prob @ density)
        sums, probs = density, prob
        for _ in range(n - 1):
            sums = np.add.outer(sums, density).ravel()
            probs = np.multiply.outer(probs, prob).ravel()
        for gap in (0.1, 0.3, 0.5):
            log_threshold = n * (mi - gap)
            exact = probs[sums <= log_threshold].sum()
            bound = coding_experiment._spectrum_log_cdf_bound(spec, n, log_threshold)
            assert 0.04 < exact <= math.exp(bound)

    def test_default_run_samples_no_spectrum(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("spectrum_mc called")

        monkeypatch.setattr(coding_experiment, "spectrum_mc", refuse)
        config = ExperimentConfig(n=24, g=8.0, r=0.5, rho=0.5, m=16, trials=10, seed=9)
        assert config.spectrum_samples == 0
        report = run_experiment(config)
        assert 0.0 < report.spectrum_cdf_at_gamma < 1.0

    def test_sampled_check_fails_under_a_lowered_bound(self, monkeypatch):
        # at delta = 0.05 the certified CDF is 0.66 and the sampled frequency 0.17
        config = ExperimentConfig(n=24, g=8.0, r=0.5, rho=0.5, delta=0.05, m=16, trials=10,
                                  seed=9, spectrum_samples=500)
        assert run_experiment(config).spectrum_cdf_at_gamma == pytest.approx(0.6577, abs=1e-4)
        monkeypatch.setattr(coding_experiment, "_spectrum_log_cdf_bound",
                            lambda *args: math.log(0.05))
        with pytest.raises(RuntimeError, match="spectrum-check.*exceeds the certified bound"):
            run_experiment(config)

    def test_sampled_frequency_stays_under_the_bound(self):
        # the check that spectrum_samples > 0 runs, made directly: spectrum_mc at theta
        # against the certified value, where the bound is loose (0.66 against 0.17)
        law = truncated_rounded_input_pmf(8.0, 0.5)
        spec = PoissonChannelSpec(law, 0.4)
        for gap in (0.05, 0.2):
            log_threshold = 24 * (mutual_information(spec) - gap)
            bound = math.exp(coding_experiment._spectrum_log_cdf_bound(spec, 24, log_threshold))
            frequency = spectrum_mc(spec, 24, 4000, RngStream(3),
                                    thresholds=[log_threshold / 24]).cdf[0]
            assert 0.0 < frequency <= bound

    def test_a_threshold_far_above_n_i_reports_probability_one(self):
        # delta = -2000 puts ln gamma 96,000 above n I: the bound's exponent passes 709
        config = ExperimentConfig(n=24, g=8.0, r=0.5, rho=0.5, delta=-2000.0, m=16, trials=5,
                                  seed=9)
        assert coding_experiment._spectrum_log_cdf_bound(
            spec_with_z_max(truncated_rounded_input_pmf(8.0, 0.5), 0.4, 40), 24,
            96_000.0) > 709.0
        assert run_experiment(config).spectrum_cdf_at_gamma == 1.0

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ValueError, match="spectrum_samples"):
            ExperimentConfig(n=24, g=8.0, r=0.5, spectrum_samples=-1)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, g=2.0, r=1.0, decoder="viterbi")
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, g=2.0, r=1.0, m=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, g=2.0, r=1.0, trials=0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_rejected(self, delta):
        # a NaN delta makes log_gamma NaN, and the Feinstein bound would read 1.0 unsaturated
        with pytest.raises(ValueError, match="delta"):
            ExperimentConfig(n=10, g=2.0, r=1.0, delta=delta, m=16)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\nn=100\ng=8.0\nr=0.5\nrho=0.5\ndelta=0.1\nm=16\n"
            "decoder=ml\ntrials=50\nseed=3\n"
        )
        config = ExperimentConfig.from_file(str(path))
        assert config.n == 100 and config.m == 16 and config.decoder == "ml"
        # tau and P[F] are exact now: the pilot's size is no longer a key
        path.write_text(path.read_text() + "pilot_samples=1500\n")
        with pytest.raises(ValueError, match="pilot_samples"):
            ExperimentConfig.from_file(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("n=100\ng=8\nr=0.5\nbogus=1\n")
        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig.from_file(str(path))


LADDER_BASE = dict(
    n=24, g=8.0, r=0.5, rho=0.5, decoder="ml", trials=400, seed=9, spectrum_samples=500,
)


class TestRunExperiment:
    def test_two_codewords_high_read_budget(self):
        # r close to e*g: two random codewords are far apart
        config = ExperimentConfig(
            n=200, g=4.0, r=10.87, rho=0.5, delta=0.1, m=2, decoder="threshold",
            trials=400, seed=5, spectrum_samples=500,
        )
        report = run_experiment(config)
        assert report.error_rate < 0.05

    def test_ml_does_not_lose_to_threshold(self):
        config_t = ExperimentConfig(m=128, delta=0.05, **LADDER_BASE)
        config_t = ExperimentConfig(**{**config_t.to_dict(), "decoder": "threshold"})
        report_t = run_experiment(config_t)
        report_m = run_experiment(ExperimentConfig(m=128, delta=0.05, **LADDER_BASE))
        sigma = math.sqrt(
            max(report_t.error_rate * (1 - report_t.error_rate), 0.25 / report_t.trials)
            / report_t.trials
        )
        assert report_m.error_rate <= report_t.error_rate + 3.0 * sigma

    def test_rate_field_exact(self):
        report = run_experiment(ExperimentConfig(m=128, **LADDER_BASE))
        assert report.rate == math.log(128) / 24

    def test_reproducible_reports(self):
        config = ExperimentConfig(m=64, **LADDER_BASE)
        assert run_experiment(config).to_json() == run_experiment(config).to_json()

    def test_rate_error_ladder(self):
        # halving M never increases the error beyond statistical noise
        reports = [
            run_experiment(ExperimentConfig(m=m, **LADDER_BASE)) for m in (512, 256, 128)
        ]
        rates = [r.error_rate for r in reports]
        for bigger, smaller in zip(rates, rates[1:]):
            sigma = math.sqrt(max(bigger * (1 - bigger), 1e-4) / reports[0].trials)
            assert smaller <= bigger + 3.0 * sigma

    def test_density_mean_tracks_mutual_information(self):
        # Decompose the consistency check: the Monte-Carlo density mean must
        # sit within 4 standard errors of its exact expectation under the
        # fixed-read-total channel (per-slot reads are binomial), and that
        # exact expectation must in turn be close to the surrogate mutual
        # information (they differ by a small fixed-total conditioning term).
        from scipy.stats import binom

        config = ExperimentConfig(
            n=2000, g=8.0, r=3.2, rho=0.5, delta=0.3, m=2, decoder="threshold",
            trials=200, seed=41, spectrum_samples=500,
        )
        report = run_experiment(config)
        pmf = truncated_rounded_input_pmf(config.g, config.rho)
        reads = ChannelParams(config.n, config.g, config.r).reads
        spec = PoissonChannelSpec(pmf, reads / report.tau)
        mi = mutual_information(spec)
        assert report.mutual_information == pytest.approx(mi, abs=1e-12)

        # exact per-letter expectation, by support value, under Bin(nr, x/tau)
        z = np.arange(spec.z_max + 1)
        expect_by_value = {}
        for x in pmf.support:
            lam = spec.gain * x
            dens = (-lam + z * math.log(lam) - fc_log_factorial(z)) - spec.log_pz
            expect_by_value[int(x)] = float(binom.pmf(z, reads, x / report.tau) @ dens)

        # reconstruct the codebook the experiment used and average over the
        # two codewords (messages are drawn uniformly)
        rng = RngStream(config.seed)
        tau, p_f = select_tau(pmf, config.n)
        assert (tau, p_f) == (report.tau, report.p_f)
        cb = generate_codebook(report.m, config.n, pmf, tau, rng.substream(2))
        exact = np.mean(
            [sum(expect_by_value[int(v)] for v in row) / config.n for row in cb.matrix]
        )
        per_letter_sd = math.sqrt(0.51 / config.n)
        mc_se = per_letter_sd / math.sqrt(config.trials)
        assert abs(report.mean_true_density - exact) <= 4.0 * mc_se
        assert abs(exact - mi) <= 0.01

    def test_trace_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        config = ExperimentConfig(m=16, **LADDER_BASE)
        run_experiment(config, trace_path=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,true_msg,decoded,density_value"
        assert len(lines) == 1 + config.trials

    def test_stage_labels_on_failure(self):
        config = ExperimentConfig(n=50, g=1.5, r=1.0, rho=0.5)  # g too small for the law
        with pytest.raises(RuntimeError, match="input-law"):
            run_experiment(config)

    def test_sizing_rule_reports_clamp(self):
        config = ExperimentConfig(
            n=500, g=8.0, r=3.2, rho=0.5, delta=0.3, decoder="threshold",
            trials=10, seed=11, spectrum_samples=500,
        )
        report = run_experiment(config)
        assert report.m == 2 and report.m_clamped
        assert any("clamped" in note for note in report.notes)


@pytest.mark.parametrize("decoder", ["threshold", "ml"])
def test_screened_run_equals_the_exact_path(decoder, tmp_path, monkeypatch):
    config = ExperimentConfig(
        n=2000, g=8.0, r=3.2, rho=0.5, delta=0.3, m=64, decoder=decoder, trials=200,
        seed=3, spectrum_samples=500,
    )
    calls = []
    exact_scores = Codebook._log_likelihoods
    monkeypatch.setattr(Codebook, "_log_likelihoods",
                        lambda self, y: calls.append(1) or exact_scores(self, y))
    screened = run_experiment(config, trace_path=str(tmp_path / "screened.csv"))
    # the screen decided every trial here
    assert calls == []
    # the exact path: no screen, and every float64 row cut from one whole-table log
    monkeypatch.setattr(Codebook, "_screen", lambda self, y: None)

    def rows_of_whole_table(self, rows):
        with np.errstate(divide="ignore"):
            return np.log(self.matrix / self.tau)[rows]

    monkeypatch.setattr(Codebook, "_log_rows", rows_of_whole_table)
    exact = run_experiment(config, trace_path=str(tmp_path / "exact.csv"))
    assert len(calls) == config.trials
    assert screened.to_json() == exact.to_json()
    assert (tmp_path / "screened.csv").read_bytes() == (tmp_path / "exact.csv").read_bytes()
    # frozen from the code that cached the whole float64 table, with reads drawn as object
    # indices; a float32 true row reads 0.61555525, 6e-8 away
    assert screened.mean_true_density == pytest.approx(0.6155553183401331, rel=1e-12)


def test_true_message_row_equals_log_frequencies_bit_for_bit():
    pmf = truncated_rounded_input_pmf(8.0, 0.5)
    tau, _ = select_tau(pmf, 2000)
    cb = generate_codebook(64, 2000, pmf, tau, RngStream(3).substream(2))
    table = cb.log_frequencies
    assert table.dtype == np.float64
    for m in range(len(cb)):
        assert cb._log_rows(m).tobytes() == table[m].tobytes()
    with_zeros = Codebook(np.array([[0, 5, 3], [4, 4, 0]]), 8, 2)
    assert with_zeros._log_rows(0).tobytes() == with_zeros.log_frequencies[0].tobytes()


def test_density_correction_value():
    assert density_correction(1600) == pytest.approx(0.5 * math.log(6 * math.pi * 1600), abs=1e-12)
    with pytest.raises(ValueError):
        density_correction(0)
