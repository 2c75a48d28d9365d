import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from conftest import python_at_blas_threads, spec_with_z_max
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc, gammaln, logsumexp

from freqcap import distributions, mutual_info

from freqcap.distributions import (
    DiscretePmf,
    RngStream,
    poisson_entropy,
    poisson_log_pmf,
    truncated_rounded_input_pmf,
)
from freqcap.mutual_info import (
    _A_MIN,
    PoissonChannelSpec,
    bobkov_ledoux_bound,
    i_mmpe_integral,
    information_density,
    lipschitz_seminorm,
    mmpe,
    mutual_information,
    spectrum_mc,
    truncation_loss_terms,
)
from freqcap.special_math import log_factorial, psi_max_entropy

# frozen oracle values, computed before the build by direct double summation
MI_TWO_POINT_12_GAIN1 = 0.07870919979452669
MMPE_TWO_POINT_13_GAIN1 = 0.16998137768717558


def point_mass(x0=3):
    return DiscretePmf(x0, np.array([0.0]))


def two_point_12():
    return DiscretePmf.from_weights(1, [0.5, 0.5])


def two_point_13():
    return DiscretePmf.from_weights(1, [0.5, 0.0, 0.5])


def direct_mi_oracle(xs, ws, a, z_hi=400):
    """Independent route: raw double sum over (x, z) with scipy's log-gamma."""
    z = np.arange(z_hi)
    lp = np.array([-a * x + z * math.log(a * x) - gammaln(z + 1.0) for x in xs])
    p = np.exp(lp)
    pz = np.asarray(ws) @ p
    total = 0.0
    for i, w in enumerate(ws):
        keep = (p[i] > 1e-300) & (pz > 0)
        total += w * float((p[i][keep] * (lp[i][keep] - np.log(pz[keep]))).sum())
    return total


class TestPoissonChannelSpec:
    @pytest.mark.parametrize("gain", [0.5 * _A_MIN, 1.0])
    @pytest.mark.parametrize("build", [PoissonChannelSpec, mmpe, i_mmpe_integral])
    def test_rejects_zero_supported_input(self, build, gain):
        # one support check for every route, on both branches of the gain integral,
        # before anything takes a logarithm of the law
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"supported on \{1, 2, \.\.\.\}"):
                build(DiscretePmf.from_weights(0, [0.5, 0.5]), gain)

    def test_rejects_non_positive_gain(self):
        with pytest.raises(ValueError):
            PoissonChannelSpec(two_point_12(), 0.0)

    def test_output_window_hard_cap(self):
        with pytest.raises(RuntimeError, match="hard cap"):
            PoissonChannelSpec(point_mass(2_000_000), 1.0)

    def test_window_certifies_tail(self):
        spec = PoissonChannelSpec(truncated_rounded_input_pmf(20.0, 0.1), 0.5)
        assert np.exp(spec.log_pz).sum() >= 1.0 - 1e-11


def dense_tables(spec, z):
    """Every input row at every z: (log P_Z, KL route MI) with no band."""
    lam = spec.gain * spec.input.support.astype(float)
    logw = spec.input.log_weights

    def chunks():
        for lo in range(0, lam.size, 500):
            sl = slice(lo, lo + 500)
            lp = -lam[sl, None] + z[None, :] * np.log(lam[sl, None]) - log_factorial(z)[None, :]
            yield sl, lp

    log_pz = np.full(z.size, -np.inf)
    for sl, lp in chunks():
        log_pz = np.logaddexp(log_pz, logsumexp(lp + logw[sl, None], axis=0))
    mi = 0.0
    for sl, lp in chunks():
        mi += float(spec.input.probs[sl] @ (np.exp(lp) * (lp - log_pz[None, :])).sum(axis=1))
    return log_pz, mi


def far_two_point():
    weights = np.zeros(400)
    weights[[0, 399]] = 0.5
    return DiscretePmf.from_weights(1, weights)


def gapped_law():
    # {1: 0.2, 5: 0.3, 40: 0.5}: three rows among 37 points of zero weight
    weights = np.zeros(40)
    weights[[0, 4, 39]] = 0.2, 0.3, 0.5
    return DiscretePmf.from_weights(1, weights)


def recording_kernel(seen):
    """The banded-table walker's kernel, appending (counts, means, block) of each call to `seen`."""
    kernel = distributions._log_pmf_kernel

    def recording(k, lam, log_lam, log_k_factorial):
        out = kernel(k, lam, log_lam, log_k_factorial)
        seen.append((k, lam, out))
        return out

    return recording


BANDED_CASES = {
    "point-mass": (lambda: point_mass(3), 1.0),
    "two-point-1-3": (two_point_13, 1.0),
    "two-point-1-400": (far_two_point, 1.0),
    "gapped-1-5-40": (gapped_law, 0.7),
    "trunc-gamma-20": (lambda: truncated_rounded_input_pmf(20.0, 0.5), 0.4),
    "trunc-gamma-200": (lambda: truncated_rounded_input_pmf(200.0, 0.5), 0.4),
    "trunc-gamma-500": (lambda: truncated_rounded_input_pmf(500.0, 0.5), 0.4),
}


@pytest.mark.parametrize("case", sorted(BANDED_CASES))
def test_banded_spec_matches_dense_mixture(case):
    make, gain = BANDED_CASES[case]
    spec = PoissonChannelSpec(make(), gain)
    assert 0.0 <= spec.band_missed_mass <= mutual_info._BAND_ALLOWANCE
    dense, dense_mi = dense_tables(spec, np.arange(spec.z_max + 1))
    assert np.all(np.isfinite(spec.log_pz))
    visible = dense >= -60.0
    assert np.max(np.abs(spec.log_pz - dense)[visible]) <= 1e-12
    assert np.max(np.abs(np.exp(spec.log_pz) - np.exp(dense))) <= 1e-15
    assert abs(mutual_information(spec) - dense_mi) <= 1e-12

    beyond = np.arange(spec.z_max + 1, spec.z_max + 51)
    extended = spec.log_output_pmf_at(beyond)
    assert np.allclose(extended, dense_tables(spec, beyond)[0], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("case", sorted(BANDED_CASES))
def test_build_evaluates_each_band_cell_once(case, monkeypatch):
    make, gain = BANDED_CASES[case]
    pmf = make()
    tables = []
    monkeypatch.setattr(distributions, "_log_pmf_kernel", recording_kernel(tables))
    spec = PoissonChannelSpec(pmf, gain)
    sizes = [np.size(out) for _, _, out in tables]
    assert sizes == [(stop - start) * (hi - lo + 1) for start, stop, lo, hi in spec._bands]
    # the blocks' means are gain x each point of positive weight, once and in order
    means = gain * pmf.support[pmf.probs > 0.0]
    assert np.array_equal(np.concatenate([lam.ravel() for _, lam, _ in tables]), means)
    # the series route's `poisson_entropy` walks tables of its own; given its values,
    # the MI evaluates no cell
    entropy = poisson_entropy(means)
    tables.clear()
    with mock.patch.object(mutual_info, "poisson_entropy", lambda lam: entropy):
        mutual_information(spec)
    assert tables == []


@pytest.mark.parametrize("case", sorted(BANDED_CASES))
def test_band_conditional_entropy_matches_kl_walk(case):
    # the averaged-KL loop over the spec's bands that the build replaced, as oracle
    make, gain = BANDED_CASES[case]
    pmf = make()
    spec = PoissonChannelSpec(pmf, gain)
    keep = pmf.probs > 0.0
    lams, ws = gain * pmf.support[keep], pmf.probs[keep]
    log_pz = spec.log_pz
    kl = 0.0
    for start, stop, z_lo, z_hi in spec._bands:
        lp = poisson_log_pmf(np.arange(z_lo, z_hi + 1), lams[start:stop, None])
        ratio = lp - log_pz[None, z_lo : z_hi + 1]
        ratio *= np.exp(lp)
        kl += float(ws[start:stop] @ ratio.sum(axis=1))
    assert spec._bands[-1][1] == ws.size
    oracle = float(-(np.exp(log_pz) * log_pz).sum()) - kl
    assert abs(spec.band_conditional_entropy - oracle) <= 1e-14 * oracle


UNDERFLOW_CASES = {
    # one row: every column is its ln p + ln w, down to ln p = -755 at z = 52
    "point-gain-1e-5": (lambda: point_mass(1), 1e-5),
    # two rows in one run, no column below the floor
    "two-point-1-400-gain-1e-3": (far_two_point, 1e-3),
    # two rows in one run whose top columns' linear sums fall below _LINEAR_FLOOR
    "two-point-1-2-gain-1e-5": (two_point_12, 1e-5),
}


@pytest.mark.parametrize("case", sorted(UNDERFLOW_CASES))
def test_underflowing_columns_match_a_log_sum_over_every_row(case):
    make, gain = UNDERFLOW_CASES[case]
    spec = PoissonChannelSpec(make(), gain)
    dense = dense_tables(spec, np.arange(spec.z_max + 1))[0]
    far = dense <= -1.0
    assert np.allclose(spec.log_pz[far], dense[far], rtol=1e-14, atol=0.0)
    # ln of a sum near 1 keeps only its absolute digits
    assert np.max(np.abs(spec.log_pz - dense)[~far], initial=0.0) <= 1e-15
    below = np.sum(dense < math.log(mutual_info._LINEAR_FLOOR))
    assert below == {"point-gain-1e-5": 8, "two-point-1-400-gain-1e-3": 0,
                     "two-point-1-2-gain-1e-5": 6}[case]


@pytest.mark.parametrize("x0, gain", [(5, 0.7), (1, 1e-5), (50, 1.0)])
def test_point_mass_mi_is_exactly_zero(x0, gain):
    # a one-row run keeps ln p exactly, so H(Z) and H(Z|X) are the same sum
    assert mutual_information(PoissonChannelSpec(point_mass(x0), gain)) == 0.0


def test_route_and_mass_gates_refuse(monkeypatch):
    spec = PoissonChannelSpec(truncated_rounded_input_pmf(20.0, 0.5), 0.4)
    mutual_information(spec)
    monkeypatch.setattr(spec, "_band_entropy", spec.band_conditional_entropy + 2e-9)
    with pytest.raises(ArithmeticError, match="routes disagree"):
        mutual_information(spec)
    monkeypatch.setattr(spec, "_log_pz", spec.log_pz + 2e-9)
    with pytest.raises(ArithmeticError, match="sums to"):
        mutual_information(spec)


def test_far_output_tables_capped(monkeypatch):
    # 12,000 outputs past z_max: one table of every row would hold 400 x 12,000 cells
    spec = PoissonChannelSpec(far_two_point(), 1.0)
    tables = []
    monkeypatch.setattr(distributions, "_log_pmf_kernel", recording_kernel(tables))
    beyond = np.arange(spec.z_max + 1, spec.z_max + 12_001)
    extended = spec.log_output_pmf_at(beyond)
    sizes = [np.size(out) for _, _, out in tables]
    assert sizes and max(sizes) <= mutual_info._CHUNK_ELEMENTS
    assert np.allclose(extended, dense_tables(spec, beyond)[0], rtol=1e-14, atol=0.0)


def test_small_chunk_budget_keeps_values():
    # a budget of 300 cells puts nearly every row in a table of its own
    pmf = truncated_rounded_input_pmf(20.0, 0.5)
    lams = 0.4 * pmf.support.astype(float)
    entropy, spec = poisson_entropy(lams), PoissonChannelSpec(pmf, 0.4)
    with mock.patch.object(distributions, "_CHUNK_ELEMENTS", 300), \
            mock.patch.object(mutual_info, "_CHUNK_ELEMENTS", 300):
        small_entropy, small = poisson_entropy(lams), PoissonChannelSpec(pmf, 0.4)
        small_mi = mutual_information(small)
    assert len(small._bands) > 10 * len(spec._bands)
    assert np.all(np.abs(small_entropy - entropy) <= 4 * np.spacing(entropy))
    assert np.max(np.abs(np.exp(small.log_pz) - np.exp(spec.log_pz))) <= 1e-15
    assert abs(small_mi - mutual_information(spec)) <= 1e-15


# one block of float64 cells, the budget of every streamed table
BLOCK_BYTES = 8 * distributions._CHUNK_ELEMENTS


def traced_peak(run):
    """Peak bytes allocated during `run()`, traced after one untraced call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", ["spec", "mmpe"])
def test_g500_tables_stay_within_a_few_blocks(build):
    # 11,181 rows and 5,316 outputs: one table of every row would hold 59M cells
    pmf = truncated_rounded_input_pmf(500.0, 0.5)
    run = {"spec": lambda: PoissonChannelSpec(pmf, 0.4), "mmpe": lambda: mmpe(pmf, 0.3)}[build]
    # a block fits a core's L2 cache, and the build streams its tables through a few
    assert BLOCK_BYTES <= 1 << 20
    assert traced_peak(run) <= 6 * BLOCK_BYTES


def test_band_certificate_refuses_a_tolerance_it_cannot_meet(monkeypatch):
    # the unit-mean row keeps z <= 57, whose tail (~1e-79) is far above 1e-303
    monkeypatch.setattr(mutual_info, "_BAND_ALLOWANCE", 1e-303)
    with pytest.raises(RuntimeError, match="row bands"):
        PoissonChannelSpec(two_point_12(), 1.0)


def test_band_certificate_refuses_nan(monkeypatch):
    monkeypatch.setattr(mutual_info, "_missed_mass",
                        lambda lam, lo, hi: np.full(np.shape(lam), np.nan))
    with pytest.raises(RuntimeError, match="row bands"):
        PoissonChannelSpec(two_point_12(), 1.0)


class TestOutputPmf:
    def test_point_mass_reduces_to_poisson(self):
        spec = PoissonChannelSpec(point_mass(3), 1.5)
        z = np.arange(spec.z_max + 1)
        direct = -4.5 + z * math.log(4.5) - gammaln(z + 1.0)
        assert np.allclose(spec.log_pz, direct, atol=1e-10)

    def test_normalization(self):
        spec = PoissonChannelSpec(two_point_12(), 1.0)
        assert np.exp(spec.log_pz).sum() == pytest.approx(1.0, abs=1e-11)

    def test_two_point_zero_output(self):
        spec = PoissonChannelSpec(two_point_12(), 1.0)
        expect = 0.5 * (math.exp(-1) + math.exp(-2))
        assert math.exp(spec.log_pz[0]) == pytest.approx(expect, abs=1e-13)


class TestMutualInformation:
    def test_point_mass_carries_nothing(self):
        spec = PoissonChannelSpec(point_mass(5), 0.7)
        assert abs(mutual_information(spec)) <= 1e-10

    def test_two_point_against_frozen_oracle(self):
        spec = PoissonChannelSpec(two_point_12(), 1.0)
        mi = mutual_information(spec)
        assert mi == pytest.approx(MI_TWO_POINT_12_GAIN1, abs=1e-11)
        assert mi == pytest.approx(direct_mi_oracle([1, 2], [0.5, 0.5], 1.0), abs=1e-11)

    def test_gain_monotonicity(self):
        pmf = two_point_12()
        assert mutual_information(PoissonChannelSpec(pmf, 2.0)) >= mutual_information(
            PoissonChannelSpec(pmf, 1.0)
        )

    def test_gain_monotonicity_on_grid(self):
        # more reads never hurt: thinning the output realizes the degradation
        pmf = truncated_rounded_input_pmf(10.0, 0.3)
        values = [mutual_information(PoissonChannelSpec(pmf, a)) for a in (0.2, 0.5, 1.0, 2.0)]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))

    def test_non_negative_on_shipped_inputs(self):
        for pmf in (point_mass(2), two_point_13(), truncated_rounded_input_pmf(20.0, 0.1)):
            assert mutual_information(PoissonChannelSpec(pmf, 0.5)) >= -1e-12

    def test_band_and_series_routes_agree_at_g500(self):
        # the routes cancel z ln lam - ln z! differently, over 11,181 rows with means up to 4,472
        spec = PoissonChannelSpec(truncated_rounded_input_pmf(500.0, 0.5), 0.4)
        pz = np.exp(spec.log_pz)
        keep = spec.input.probs > 0.0
        entropies = poisson_entropy(spec.gain * spec.input.support[keep])
        series = float(-(pz * spec.log_pz).sum()) - float(spec.input.probs[keep] @ entropies)
        assert abs(mutual_information(spec) - series) <= 2e-13

    def test_far_two_point_carries_one_bit(self):
        # the outputs of means 1 and 400 overlap by far less than 1e-80
        spec = PoissonChannelSpec(far_two_point(), 1.0)
        means = []

        def recording(lam):
            means.append(np.asarray(lam).tolist())
            return poisson_entropy(lam)

        with mock.patch.object(mutual_info, "poisson_entropy", recording):
            mi = mutual_information(spec)
        assert abs(mi - math.log(2.0)) <= 2e-13
        # the series route skips the 398 rows of zero weight between the two points
        assert means == [[1.0, 400.0]]


class TestInformationDensity:
    def test_point_mass_identically_zero(self):
        spec = PoissonChannelSpec(point_mass(4), 1.0)
        for z in (0, 1, 5, 20):
            assert information_density(4, z, spec) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_hand_value(self):
        spec = PoissonChannelSpec(two_point_12(), 1.0)
        expect = -2.0 - math.log(0.5 * (math.exp(-1) + math.exp(-2)))
        assert information_density(2, 0, spec) == pytest.approx(expect, abs=1e-12)

    def test_expectation_equals_mi(self):
        spec = PoissonChannelSpec(two_point_12(), 1.0)
        z = np.arange(spec.z_max + 1)
        total = 0.0
        for x, w in zip(spec.input.support, spec.input.probs):
            lam = spec.gain * x
            p = np.exp(-lam + z * math.log(lam) - gammaln(z + 1.0))
            dens = np.array([information_density(int(x), int(k), spec) for k in z])
            total += w * float((p * dens).sum())
        assert total == pytest.approx(mutual_information(spec), abs=1e-9)

    def test_exact_beyond_window(self):
        spec = PoissonChannelSpec(two_point_12(), 1.0)
        z = np.array([spec.z_max + 1, spec.z_max + 10, spec.z_max + 40])
        log_pz = dense_tables(spec, z)[0]
        for x in (1, 2):
            expect = z * math.log(x) - x - log_factorial(z) - log_pz
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = [information_density(x, int(k), spec) for k in z]
            assert np.max(np.abs(np.array(value) - expect)) <= 1e-12

    def test_rejects_off_support(self):
        spec = PoissonChannelSpec(two_point_13(), 1.0)
        for x in (2, 0, 4):  # the zero-weight middle point, and either side of the support
            with pytest.raises(ValueError, match="outside the support"):
                information_density(x, 0, spec)
        for z in (-1, 2.5):
            with pytest.raises(ValueError, match="non-negative integer"):
                information_density(1, z, spec)


class TestSpectrumMc:
    def test_point_mass_spectrum_degenerate(self):
        spec = PoissonChannelSpec(point_mass(3), 1.0)
        est = spectrum_mc(spec, 50, 200, RngStream(1), thresholds=[-0.1, 0.1])
        assert est.mean == pytest.approx(0.0, abs=1e-12)
        assert est.variance == pytest.approx(0.0, abs=1e-12)
        assert est.cdf == (0.0, 1.0)

    def test_mean_matches_mi(self):
        spec = PoissonChannelSpec(two_point_12(), 1.0)
        mi = mutual_information(spec)
        est = spectrum_mc(spec, 100, 4000, RngStream(2))
        se = math.sqrt(est.variance / est.num_samples)
        assert abs(est.mean - mi) <= 4.0 * se

    def test_concentration_with_blocklength(self):
        spec = PoissonChannelSpec(two_point_12(), 1.0)
        mi = mutual_information(spec)
        cdfs = []
        for n in (100, 400, 1600):
            est = spectrum_mc(spec, n, 4000, RngStream(13), thresholds=[mi - 0.02])
            cdfs.append(est.cdf[0])
        assert cdfs[0] > cdfs[1] > cdfs[2]

    def test_reproducible_for_fixed_seed(self):
        spec = PoissonChannelSpec(two_point_12(), 1.0)
        a = spectrum_mc(spec, 50, 300, RngStream(5), thresholds=[0.05])
        b = spectrum_mc(spec, 50, 300, RngStream(5), thresholds=[0.05])
        assert a == b

    def test_table_and_transformed_rejection_rows_together(self):
        # lam = 1 is drawn from the letter table, lam = 400 by Generator.poisson.
        # Both rows' densities equal ln 2 up to rounding, so the standard error
        # nearly vanishes; the slack covers the exact MI's rounding, about 4e-14.
        spec = PoissonChannelSpec(far_two_point(), 1.0)
        mi = mutual_information(spec)
        est = spectrum_mc(spec, 100, 4000, RngStream(21))
        se = math.sqrt(est.variance / est.num_samples)
        assert abs(est.mean - mi) <= 4.0 * se + 1e-12
        assert abs(est.mean - math.log(2.0)) <= 1e-12

    def test_mixed_rows_at_large_budget_match_mi(self):
        # 24 table rows and 11,157 transformed-rejection rows with overlapping outputs
        spec = PoissonChannelSpec(truncated_rounded_input_pmf(500.0, 0.5), 0.4)
        mi = mutual_information(spec)
        est = spectrum_mc(spec, 50, 2000, RngStream(3))
        se = math.sqrt(est.variance / est.num_samples)
        assert abs(est.mean - mi) <= 4.0 * se

    def test_point_mass_on_the_rejection_path_is_degenerate(self):
        spec = PoissonChannelSpec(point_mass(50), 1.0)
        est = spectrum_mc(spec, 200, 300, RngStream(4), thresholds=[-0.1, 0.1])
        assert est.mean == pytest.approx(0.0, abs=1e-12)
        assert est.variance == pytest.approx(0.0, abs=1e-12)
        assert est.cdf == (0.0, 1.0)

    def test_letter_table_certificate_refuses(self, monkeypatch):
        spec = PoissonChannelSpec(two_point_12(), 1.0)

        def narrow(lam, tail):
            lo = np.maximum(0.0, np.ceil(lam - 10.0)).astype(np.int64)
            return lo, np.floor(lam + 10.0).astype(np.int64)

        monkeypatch.setattr(mutual_info, "_chernoff_window", narrow)
        with pytest.raises(RuntimeError, match="letter table"):
            spectrum_mc(spec, 10, 10, RngStream(1))

    def test_letter_table_certificate_refuses_nan(self, monkeypatch):
        spec = PoissonChannelSpec(two_point_12(), 1.0)
        monkeypatch.setattr(mutual_info, "_missed_mass",
                            lambda lam, lo, hi: np.full(np.shape(lam), np.nan))
        with pytest.raises(RuntimeError, match="letter table"):
            spectrum_mc(spec, 10, 10, RngStream(1))

    def test_chunk_edges(self):
        spec = PoissonChannelSpec(two_point_12(), 1.0)
        mi = mutual_information(spec)
        chunk = mutual_info._SPECTRUM_LETTERS
        # three chunks, the last one partial
        n = 1000
        per_chunk = chunk // n
        num = 2 * per_chunk + 7
        est = spectrum_mc(spec, n, num, RngStream(9), thresholds=[mi])
        assert est.num_samples == num
        assert est.cdf[0] * num == pytest.approx(round(est.cdf[0] * num), abs=1e-9)
        assert abs(est.mean - mi) <= 4.0 * math.sqrt(est.variance / num)
        # a chunk holds whole samples: one more sample leaves the first chunk as it
        # was, so below every threshold the count grows by at most that sample
        grid = np.linspace(mi - 0.05, mi + 0.05, 41)
        head = spectrum_mc(spec, n, per_chunk, RngStream(9), thresholds=grid)
        more = spectrum_mc(spec, n, per_chunk + 1, RngStream(9), thresholds=grid)
        grown = np.round(np.array(more.cdf) * (per_chunk + 1) - np.array(head.cdf) * per_chunk)
        assert set(grown) == {0.0, 1.0}
        # and the second chunk draws from its own stream, not a replay of the first
        two = spectrum_mc(spec, n, 2 * per_chunk, RngStream(9), thresholds=grid)
        assert not np.allclose(two.cdf, head.cdf)
        # a blocklength above the chunk size still gets one sample per chunk
        long = spectrum_mc(PoissonChannelSpec(point_mass(3), 1.0), chunk + 1, 2, RngStream(2))
        assert long.num_samples == 2 and long.mean == pytest.approx(0.0, abs=1e-12)
        est = spectrum_mc(spec, chunk + 1, 2, RngStream(2))
        assert abs(est.mean - mi) <= 0.01

    def test_memory_does_not_grow_with_blocklength(self):
        spec = PoissonChannelSpec(truncated_rounded_input_pmf(8.0, 0.5), 0.4)
        mi = mutual_information(spec)
        letters = mutual_info._SPECTRUM_LETTERS
        for n in (4 * letters + 3, 16 * letters + 3):
            assert traced_peak(lambda: spectrum_mc(spec, n, 2, RngStream(8))) <= 3 * BLOCK_BYTES
            assert abs(spectrum_mc(spec, n, 2, RngStream(8)).mean - mi) <= 0.01

    def test_long_sample_adds_up_its_pieces(self):
        # a sample longer than one block is chunk 0 alone, drawn from substream 0 in
        # pieces of one block, the last one partial
        spec = PoissonChannelSpec(truncated_rounded_input_pmf(8.0, 0.5), 0.4)
        letters = mutual_info._SPECTRUM_LETTERS
        n = 2 * letters + 5
        table = mutual_info._LetterTable.build(spec)
        gen = RngStream(5).substream(0).generator
        total = 0.0
        for size in (letters, letters, 5):
            total += table.draw_density(spec, gen, size).sum()
        assert spectrum_mc(spec, n, 1, RngStream(5)).mean == total / n


@st.composite
def guided_cases(draw):
    """A CDF over random masses (zeros allowed) and uniforms on its breakpoints and edges."""
    masses = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=1, max_size=40))
    )
    if masses.sum() == 0.0:
        masses[draw(st.integers(0, masses.size - 1))] = 1.0
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    extra = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    u = np.concatenate((cdf[cdf < 1.0], [0.0, np.nextafter(1.0, 0.0)], extra))
    return masses, cdf, u


def bucket_table(cdf, density=None, ptrs=None):
    """`_bucket_table` of `cdf`, by default with zero densities and no PTRS cell; checks
    that its guide is plain searchsorted at every bucket's left end, and its size."""
    density = np.zeros(cdf.size) if density is None else density
    ptrs = np.zeros(cdf.size, dtype=bool) if ptrs is None else ptrs
    guide, bucket = mutual_info._bucket_table(cdf, density, ptrs)
    # 8 times the power of two at or above the cell count, capped at one block but
    # never coarser than that power of two
    power = 1 << (cdf.size - 1).bit_length()
    assert guide.size == bucket.size == max(power, min(8 * power, mutual_info._CHUNK_ELEMENTS))
    edges = np.arange(guide.size) / guide.size
    assert np.array_equal(guide, np.searchsorted(cdf, edges, side="right"))
    return guide, bucket


@settings(max_examples=200, deadline=None)
@given(guided_cases())
def test_guided_search_equals_searchsorted(case):
    masses, cdf, u = case
    guide = bucket_table(cdf)[0]
    idx = mutual_info._guided_search(cdf, guide, u)
    assert np.array_equal(idx, np.searchsorted(cdf, u, side="right"))
    assert np.all(masses[idx] > 0.0)


def test_guided_search_equals_searchsorted_across_a_long_bucket():
    # cells 1..100 are tiny and all lie in the guide bucket [1/2, 1/2 + 1/1024), whose
    # entry is cell 0, so a letter there is up to 100 cells past its guide entry
    masses = np.concatenate(([1.0 + 1e-9], np.full(100, 1e-12), [1.0]))
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    guide = bucket_table(cdf)[0]
    assert guide.size == 1024 and cdf[0] > 0.5 and cdf[100] < 0.5 + 1 / 1024
    assert guide[int(cdf[100] * guide.size)] == 0
    u = np.concatenate((cdf[:-1], 0.5 * (cdf[:-2] + cdf[1:-1]), [0.0, np.nextafter(1.0, 0.0)]))
    idx = mutual_info._guided_search(cdf, guide, u)
    assert np.array_equal(idx, np.searchsorted(cdf, u, side="right"))
    assert np.array_equal(np.unique(idx), np.arange(masses.size))


def test_guided_search_past_one_block_of_cells():
    # 100,000 cells take 2^17 buckets, more than one block: the guide is never coarser
    # than the power of two at or above the cell count
    rng = np.random.default_rng(2)
    cdf = np.cumsum(rng.random(100_000))
    cdf /= cdf[-1]
    guide = bucket_table(cdf)[0]
    assert guide.size == 1 << 17
    u = np.concatenate((cdf[:-1], rng.random(10_000)))
    assert np.array_equal(mutual_info._guided_search(cdf, guide, u),
                          np.searchsorted(cdf, u, side="right"))


def searchsorted_draw(table, spec, gen, size):
    """The letter draw with a plain searchsorted on the whole CDF, as oracle."""
    cell = np.searchsorted(table.cdf, gen.random(size), side="right")
    out = table.density[cell]
    hit = np.flatnonzero(table.ptrs[cell])
    lam = table.lam[cell[hit]]
    z = gen.poisson(lam)
    out[hit] = z * table.log_lam[cell[hit]] - lam - spec.density_offset(z)
    return out


@pytest.mark.parametrize("g", [8.0, 500.0])
def test_bucket_draw_equals_searchsorted_draw(g):
    # g=500 has 11,157 transformed-rejection rows, so most letters miss their bucket
    spec = PoissonChannelSpec(truncated_rounded_input_pmf(g, 0.5), 0.4)
    table = mutual_info._LetterTable.build(spec)
    guide, bucket = bucket_table(table.cdf, table.density, table.ptrs)
    assert np.array_equal(table.guide, guide)
    assert np.array_equal(table.bucket, bucket, equal_nan=True)
    fast, slow = RngStream(4).generator, RngStream(4).generator
    for size in (1, 1000, mutual_info._SPECTRUM_LETTERS):
        assert np.array_equal(table.draw_density(spec, fast, size),
                              searchsorted_draw(table, spec, slow, size))
        # and both generators are left in the same state
        assert np.array_equal(fast.random(4), slow.random(4))
    pure = ~np.isnan(table.bucket)
    assert pure.mean() > {8.0: 0.9, 500.0: 0.0}[g]


@settings(max_examples=200, deadline=None)
@given(guided_cases(), st.integers(0, 2**32 - 1))
def test_pure_buckets_hold_their_searchsorted_cell(case, seed):
    # a pure bucket's density is that of the cell every u in it finds, and never a PTRS cell's
    masses, cdf, u = case
    rng = np.random.default_rng(seed)
    density = rng.standard_normal(cdf.size)
    ptrs = rng.random(cdf.size) < 0.3
    bucket = bucket_table(cdf, density, ptrs)[1]
    # every bucket's two ends and the case's uniforms
    edges = np.arange(bucket.size) / bucket.size
    u = np.concatenate((u, edges, np.nextafter(edges + 1.0 / bucket.size, 0.0)))
    value = bucket[(u * bucket.size).astype(np.int64)]
    cell = np.searchsorted(cdf, u, side="right")
    pure = ~np.isnan(value)
    assert np.array_equal(value[pure], density[cell[pure]])
    assert not np.any(ptrs[cell[pure]])


def dense_lipschitz_seminorm(spec):
    """max over positive-weight x and z <= z_max + 300 of |i(x, z+1) - i(x, z)|, as one table.

    log P_Z is an exact log-sum-exp over every positive-weight row, not
    `spec.log_pz`, whose cells near z_max the row bands leave short.
    """
    rows = spec.input.probs > 0.0
    lam = spec.gain * spec.input.support[rows].astype(float)
    z = np.arange(spec.z_max + 302)
    log_cond = z[None, :] * np.log(lam)[:, None] - lam[:, None] - gammaln(z + 1.0)[None, :]
    log_pz = logsumexp(log_cond + spec.input.log_weights[rows][:, None], axis=0)
    jumps = np.log(lam)[:, None] - np.log(z[1:])[None, :] - np.diff(log_pz)[None, :]
    return float(np.abs(jumps).max())


@st.composite
def laws_with_zero_rows(draw):
    """Input laws with zero-weight rows anywhere, the support ends included."""
    size = draw(st.integers(1, 25))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 1.0, 3.0]), min_size=size,
                                     max_size=size)))
    weights[draw(st.integers(0, size - 1))] = 1.0
    pmf = DiscretePmf.from_weights(draw(st.integers(1, 40)), weights)
    return pmf, draw(st.floats(0.02, 30.0))


@settings(max_examples=80, deadline=None)
@given(laws_with_zero_rows(), st.floats(1.0, 10.0))
def test_mi_between_zero_and_input_entropy_and_non_decreasing_in_gain(case, factor):
    # Poi(a x) is a binomial thinning of Poi(a' x) for a <= a', so by data
    # processing I(a) <= I(a') <= H(X); no oracle needed
    pmf, gain = case
    probs = pmf.probs[pmf.probs > 0]
    h_x = float(-(probs * np.log(probs)).sum())
    low = mutual_information(PoissonChannelSpec(pmf, gain))
    high = mutual_information(PoissonChannelSpec(pmf, gain * factor))
    assert -1e-12 <= low <= high + 1e-12
    assert high <= h_x + 1e-12


@settings(max_examples=80, deadline=None)
@given(laws_with_zero_rows(), st.floats(-4.0, 2.0))
def test_output_law_mass_is_one_within_its_certificate(case, log_gain):
    # 1 - sum P_Z is the mass the bands drop, at most `band_missed_mass`, up to the
    # kernel's rounding: 3.4e-14 was seen on {1, 10} at gain 30, where the bands drop
    # about 2e-38, so the slack covers rounding, not bands. Near the mode the kernel
    # z ln lam - lam - ln z! rounds terms of about lam ln lam, and the point mass at
    # lam = 4576 is off by 8.5e-12 = 1.0 eps lam ln lam, so the slack is 1e-12 plus
    # 4 eps lam ln(1 + lam) at the largest mean: about 1,000 times tighter than the
    # 1e-9 mass gate of `mutual_information` at small means, 20 times at lam = 6500
    pmf = case[0]
    spec = PoissonChannelSpec(pmf, 10.0**log_gain)
    lam = spec.gain * pmf.support[pmf.probs > 0.0][-1]
    slack = 1e-12 + 4 * np.finfo(float).eps * lam * math.log1p(lam)
    deficit = 1.0 - float(np.exp(spec.log_pz).sum())
    assert -slack <= deficit <= spec.band_missed_mass + slack


class TestLipschitzSeminorm:
    @settings(max_examples=60, deadline=None)
    @given(laws_with_zero_rows())
    def test_matches_dense_reference(self, case):
        pmf, gain = case
        spec = PoissonChannelSpec(pmf, gain)
        assert dense_lipschitz_seminorm(spec) <= lipschitz_seminorm(spec) + 1e-9

    @pytest.mark.parametrize("pmf, gain", [
        (DiscretePmf.from_weights(1, np.ones(8)), 0.5),  # the appendix check's law
        (truncated_rounded_input_pmf(8.0, 0.5), 0.4),
        (two_point_13(), 1.0),
        (DiscretePmf.from_weights(1, [0.0, 1.0, 0.0, 1.0, 0.0]), 1.0),  # zero-weight ends
    ])
    def test_dense_scan_reaches_closed_form(self, pmf, gain):
        # the supremum is approached as z grows; 300 past z_max it is within 1e-6
        spec = PoissonChannelSpec(pmf, gain)
        assert dense_lipschitz_seminorm(spec) >= lipschitz_seminorm(spec) - 1e-6

    def test_point_mass_is_flat(self):
        spec = PoissonChannelSpec(point_mass(5), 1.0)
        assert lipschitz_seminorm(spec) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_log_support(self):
        pmf = DiscretePmf.from_weights(1, np.ones(8))
        spec = PoissonChannelSpec(pmf, 0.5)
        value = lipschitz_seminorm(spec)
        assert 0.0 <= value <= math.log(8) + 1e-12

    def test_bound_also_holds_for_skewed_weights(self):
        pmf = DiscretePmf.from_weights(1, [0.7, 0.1, 0.1, 0.05, 0.05])
        spec = PoissonChannelSpec(pmf, 1.5)
        assert lipschitz_seminorm(spec) <= math.log(5) + 1e-12


class TestBobkovLedoux:
    def test_vacuous_at_zero_deviation(self):
        assert bobkov_ledoux_bound(1.0, 1.0, 10, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_doubling_n_squares(self):
        b1 = bobkov_ledoux_bound(math.log(8), 4.0, 2000, 0.5)
        b2 = bobkov_ledoux_bound(math.log(8), 4.0, 4000, 0.5)
        assert b2 == pytest.approx(b1 * b1, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            bobkov_ledoux_bound(0.0, 1.0, 10, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("slot", ["beta", "lambda_max", "delta"])
    def test_non_finite_inputs_refused(self, slot, bad):
        args = {"beta": 1.0, "lambda_max": 1.0, "n": 10, "delta": 0.1, slot: bad}
        with pytest.raises(ValueError, match="finite"):
            bobkov_ledoux_bound(**args)

    def test_hand_computed_value(self):
        # the appendix check's inputs: n delta^2 = 49, 16 beta^2 lambda_max = 64 beta^2
        # and 3 beta delta = 1.05 beta
        ln8 = math.log(8)
        expected = math.exp(-49.0 / (64.0 * ln8**2 + 1.05 * ln8))
        assert expected == pytest.approx(0.8388906841093432, rel=1e-15)
        assert bobkov_ledoux_bound(ln8, 4.0, 400, 0.35) == pytest.approx(expected, rel=1e-15)


class TestLeastOverTilts:
    """The certified tails take their least tilt by bisection, not by scanning the grid."""

    @staticmethod
    def counted(objective):
        calls = []

        def wrapped(s):
            calls.append(s)
            return objective(s)

        return wrapped, calls

    @pytest.mark.parametrize("gap", [-0.5, 0.0, 0.05, 0.3, 1.0, 5.0])
    def test_finds_the_grid_minimum_of_the_spectrum_tail(self, gap):
        # the coding configs' law and gain, z_max 97; the minimum moves from s = 0.01 to s = 1
        law = truncated_rounded_input_pmf(8.0, 0.5)
        rows = mutual_info._TiltedRows(spec_with_z_max(law, 0.4, 97))
        log_threshold = 2000 * (mutual_information(PoissonChannelSpec(law, 0.4)) - gap)

        def objective(s):
            return 2000 * np.log(rows.sums(s) @ law.probs) + s * log_threshold

        wrapped, calls = self.counted(objective)
        grid = [float(objective(s)) for s in mutual_info._CHERNOFF_S]
        assert mutual_info._least_over_tilts(wrapped) == min(grid)
        assert len(set(calls)) <= 14

    @pytest.mark.parametrize("slope", [1.0, -1.0, 0.0])
    def test_linear_objectives_end_at_a_grid_end(self, slope):
        wrapped, calls = self.counted(lambda s: slope * s)
        least = mutual_info._least_over_tilts(wrapped)
        assert least == min(slope * 0.01, slope * 1.0)
        assert len(set(calls)) <= 14

    def test_rows_match_the_table_they_replace(self):
        # one tilt's sums and the means against the whole (letters x outputs) table
        law = DiscretePmf.from_weights(1, np.array([0.5, 0.3, 0.2]))
        rows = mutual_info._TiltedRows(spec_with_z_max(law, 1.0, 40))
        log_p = poisson_log_pmf(np.arange(41), np.arange(1.0, 4.0)[:, None])
        log_pz = np.logaddexp.reduce(log_p + law.log_weights[:, None], axis=0)
        np.testing.assert_allclose(rows.means(), (np.exp(log_p) * (log_p - log_pz)).sum(axis=1),
                                   rtol=1e-14)
        tails = gammainc(41, np.arange(1.0, 4.0))
        expected = (np.exp(0.6 * log_p + 0.4 * log_pz).sum(axis=1)
                    + tails**0.6 * (law.probs @ tails)**0.4)
        np.testing.assert_allclose(rows.sums(0.4), expected, rtol=1e-14)

    @pytest.mark.parametrize("make, gain", [(far_two_point, 1.0),
                                            (lambda: truncated_rounded_input_pmf(20.0, 0.5), 0.4)])
    def test_rows_are_walker_blocks_of_positive_rows(self, monkeypatch, make, gain):
        # every cell through `_poisson_tables`, none through `poisson_log_pmf`; on the
        # {1, 400} law only its 2 positive rows take cells, not all 400
        def refuse(*args, **kwargs):
            raise AssertionError("poisson_log_pmf called")

        walker, blocks = mutual_info._poisson_tables, []

        def recording(*args, **kwargs):
            for rows, z_lo, z_hi, lp in walker(*args, **kwargs):
                blocks.append(lp.shape)
                yield rows, z_lo, z_hi, lp

        monkeypatch.setattr(distributions, "poisson_log_pmf", refuse)
        monkeypatch.setattr(mutual_info, "poisson_log_pmf", refuse, raising=False)
        monkeypatch.setattr(mutual_info, "_poisson_tables", recording)
        spec = PoissonChannelSpec(make(), gain)
        rows = mutual_info._TiltedRows(spec)
        blocks.clear()
        rows.sums(0.5)
        positive = np.count_nonzero(spec.input.probs)
        assert sum(r for r, _ in blocks) == positive
        assert sum(r * z for r, z in blocks) == positive * (spec.z_max + 1)
        assert max(r * z for r, z in blocks) <= mutual_info._CHUNK_ELEMENTS
        if make is far_two_point:
            assert positive == 2


def exact_tails(spec, rows=slice(None)):
    """P[Z > z_max | x] of the spec's rows, mpmath's regularized gammainc at 40 digits."""
    with mpmath.workdps(40):
        return np.array([float(mpmath.gammainc(spec.z_max + 1, 0, mpmath.mpf(float(lam)),
                                               regularized=True))
                         for lam in spec._lams[rows]])


def summed_rows(spec):
    """The rows whose tails past z_max are summed: their 1e-300 window ends past z_max."""
    ends = distributions._chernoff_window(spec._lams, mutual_info._TAIL_SUM_FLOOR)[1]
    return ends > spec.z_max


class TestTiltedRowTails:
    """T_x = P[Z > z_max | x], summed on the walker's blocks with a geometric remainder."""

    @pytest.mark.parametrize("g, rho, rtol", [(8.0, 0.5, 1e-12), (200.0, 0.1, 1e-12),
                                              (500.0, 0.5, 2e-11)])
    def test_summed_tails_match_mpmath(self, g, rho, rtol):
        # at g=500 the kernel's own rounding (scipy's gammainc reads 1.2e-11 off there too)
        spec = PoissonChannelSpec(truncated_rounded_input_pmf(g, rho), 0.4)
        tails = mutual_info._TiltedRows(spec)._tails
        summed = summed_rows(spec)
        assert summed.any()
        np.testing.assert_allclose(tails[summed], exact_tails(spec, summed), rtol=rtol, atol=0)

    def test_tails_match_mpmath_where_z_max_lies_below_the_largest_mean(self):
        # means 0.4..1000 against z_max 30: the top rows' tails are near 1, and the window
        # must reach past their means, not only 12 sqrt(1001) + 40 past z_max, for the
        # remainder to hold
        law = DiscretePmf.from_weights(1, np.ones(2500))
        spec = spec_with_z_max(law, 0.4, 30)
        assert spec._lams[-1] > spec.z_max + 1
        tails = mutual_info._TiltedRows(spec)._tails
        np.testing.assert_allclose(tails, exact_tails(spec), rtol=1e-12, atol=0)

    def test_other_rows_take_bennetts_bound(self):
        spec = PoissonChannelSpec(truncated_rounded_input_pmf(200.0, 0.1), 0.4)
        tails = mutual_info._TiltedRows(spec)._tails
        skipped = ~summed_rows(spec)
        assert 0 < np.count_nonzero(skipped) < skipped.size
        bennett = np.exp(-distributions._bennett_exponent(spec._lams[skipped], spec.z_max + 1))
        np.testing.assert_array_equal(tails[skipped], bennett)
        assert np.all(tails[skipped] <= 1e-300)
        assert np.all(tails[skipped] >= exact_tails(spec, skipped))

    def test_remainder_keeps_a_short_window_an_upper_bound(self, monkeypatch):
        # the tails' window cut to z_max + 1..z_max + 4: the geometric bound past its end
        # must carry the rest of the tail, about 1e-3 of it at the top row
        spec = PoissonChannelSpec(truncated_rounded_input_pmf(8.0, 0.5), 0.4)
        row_runs = mutual_info._row_runs

        def short(lo, hi, budget):
            if lo[0] == spec.z_max + 1:
                hi = lo + 3
            return row_runs(lo, hi, budget)

        monkeypatch.setattr(mutual_info, "_row_runs", short)
        tails = mutual_info._TiltedRows(spec)._tails
        exact = exact_tails(spec)
        assert np.all(tails >= exact * (1 - 1e-13))
        assert np.all(tails <= exact * (1 + 1e-6))


def mmpe_bruteforce(xs, ws, a, z_hi=400):
    """Oracle: posterior-mean estimator error by raw summation."""
    z = np.arange(z_hi)
    lp = np.array([-a * x + z * math.log(a * x) - gammaln(z + 1.0) for x in xs])
    p = np.exp(lp)
    pv = np.asarray(ws) @ p
    keep = pv > 0
    post = (np.asarray(ws) * np.asarray(xs, float)) @ p
    post = post[keep] / pv[keep]
    total = 0.0
    for i, u in enumerate(xs):
        au, av = a * u, a * post
        total += ws[i] * float((p[i][keep] * (av - au + au * np.log(au / av))).sum())
    return total


class TestMmpe:
    def test_point_mass_perfectly_estimated(self):
        assert mmpe(point_mass(4), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_against_oracle(self):
        value = mmpe(two_point_13(), 1.0)
        assert value == pytest.approx(MMPE_TWO_POINT_13_GAIN1, abs=1e-12)
        assert value == pytest.approx(mmpe_bruteforce([1, 3], [0.5, 0.5], 1.0), abs=1e-12)

    def test_gain_homogeneity(self):
        # l(a u, a v) = a l(u, v), so mmpe at gain a equals a times the
        # unit-loss error of the same gain-a posterior
        pmf = two_point_13()
        for a in (0.5, 2.0):
            direct = mmpe(pmf, a)
            rescaled = a * (mmpe_bruteforce([1, 3], [0.5, 0.5], a) / a)
            assert direct == pytest.approx(rescaled, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            mmpe(two_point_13(), 0.0)
        with pytest.raises(ValueError):
            mmpe(DiscretePmf.from_weights(0, [0.5, 0.5]), 1.0)
        for gain in (math.inf, math.nan, np.array([1.0, math.inf])):
            with pytest.raises(ValueError, match="positive and finite"):
                mmpe(two_point_13(), gain)

    @settings(max_examples=60, deadline=None)
    @given(laws_with_zero_rows(), st.floats(-10.0, math.log10(5.0)),
           st.sampled_from([mutual_info._CHUNK_ELEMENTS, 3000, 200]))
    def test_matches_bruteforce(self, case, log_gain, chunk_elements):
        # small chunk sizes split the rows, and the gains, over many tables
        pmf, _ = case
        gain = 10.0**log_gain
        lam = gain * float(pmf.support[-1])
        z_hi = int(lam + 12.0 * math.sqrt(lam) + 40.0)
        assert gammainc(z_hi, lam) < 1e-16
        expect = mmpe_bruteforce(pmf.support, pmf.probs, gain, z_hi)
        with mock.patch.object(mutual_info, "_CHUNK_ELEMENTS", chunk_elements):
            value = mmpe(pmf, gain)
            values = mmpe(pmf, gain * np.array([0.5, 1.0]))
        assert abs(value - expect) <= 1e-12 * max(1.0, expect)
        assert abs(values[1] - expect) <= 1e-12 * max(1.0, expect)

    @settings(max_examples=60, deadline=None)
    @given(laws_with_zero_rows(), st.lists(st.floats(-10.0, math.log10(5.0)), min_size=1,
                                           max_size=16))
    def test_array_gains_match_scalar_calls(self, case, log_gains):
        # mmpe = a sum_z (E[U ln U; V=z] - P_V m ln m) cancels terms that sum to
        # a E[U ln U], so rounding is relative to that or to the value, the larger
        pmf, _ = case
        gains = 10.0 ** np.array(log_gains)
        values = mmpe(pmf, gains)
        assert isinstance(values, np.ndarray) and values.shape == gains.shape
        assert isinstance(mmpe(pmf, gains[0]), float)
        single = np.array([mmpe(pmf, a) for a in gains])
        xs = pmf.support.astype(float)
        scale = np.maximum(np.abs(single), gains * float(pmf.probs @ (xs * np.log(xs))))
        assert np.all(np.abs(values - single) <= 1e-14 * scale)

    @settings(max_examples=60, deadline=None)
    @given(laws_with_zero_rows(), st.lists(st.floats(-10.0, math.log10(5.0)), min_size=1,
                                           max_size=16),
           st.sampled_from([mutual_info._CHUNK_ELEMENTS, 3000, 200]))
    def test_every_table_certifies_its_window(self, case, log_gains, chunk_elements):
        # each mean of each table leaves out less than 1e-16 below and above the table's z
        pmf, _ = case
        tables = []
        with mock.patch.object(distributions, "_log_pmf_kernel", recording_kernel(tables)), \
                mock.patch.object(mutual_info, "_CHUNK_ELEMENTS", chunk_elements):
            mmpe(pmf, 10.0 ** np.array(log_gains))
        assert tables
        for k, lam, _ in tables:
            assert np.all(gammaincc(k[0], lam) < 1e-16)
            assert np.all(gammainc(k[-1] + 1.0, lam) < 1e-16)

    def test_independent_of_blas_threads(self):
        # 11,181 input rows: a threaded BLAS product would split the run sums by thread count
        code = (
            "from freqcap.distributions import truncated_rounded_input_pmf as law\n"
            "from freqcap.mutual_info import i_mmpe_integral, mmpe\n"
            "print(repr(mmpe(law(500.0, 0.5), 0.3)), "
            "repr(float(i_mmpe_integral(law(20.0, 0.1), 0.4))))\n"
        )
        args = ["-c", code]
        assert python_at_blas_threads(args, "1") == python_at_blas_threads(args, "2")

    def test_output_window_hard_cap(self):
        with pytest.raises(RuntimeError, match="hard cap"):
            mmpe(point_mass(2_000_000), np.array([0.5, 1.0]))

    def test_tables_capped_at_large_budget(self, monkeypatch):
        # g=500, rho=0.5 at gain 5: one dense table would be 11,181 x ~58,000 cells
        pmf = truncated_rounded_input_pmf(500.0, 0.5)
        tables = []
        monkeypatch.setattr(distributions, "_log_pmf_kernel", recording_kernel(tables))
        value = mmpe(pmf, 5.0)
        sizes = [np.size(out) for _, _, out in tables]
        xs, ws = pmf.support.astype(float), pmf.probs
        mean = float(ws @ xs)
        assert sizes and max(sizes) <= mutual_info._CHUNK_ELEMENTS
        # the prior mean as estimator bounds the error: a (E[U ln U] - E[U] ln E[U])
        assert 0.0 <= value <= 5.0 * (float(ws @ (xs * np.log(xs))) - mean * math.log(mean))

    def test_gain_groups_match_scalar_calls(self):
        # gains from 1e-3 to 5 at g=200 fall in several groups of close means at the
        # largest row, and a block of 200 cells then splits every group into single gains
        pmf = truncated_rounded_input_pmf(200.0, 0.1)
        gains = np.geomspace(1e-3, 5.0, 12)
        single = np.array([mmpe(pmf, a) for a in gains])
        xs = pmf.support.astype(float)
        scale = np.maximum(np.abs(single), gains * float(pmf.probs @ (xs * np.log(xs))))
        values = mmpe(pmf, gains)
        with mock.patch.object(mutual_info, "_CHUNK_ELEMENTS", 200):
            split = mmpe(pmf, gains)
        assert np.all(np.abs(values - single) <= 1e-14 * scale)
        assert np.all(np.abs(split - single) <= 1e-14 * scale)

    def test_panel_of_close_means_is_one_group_of_joined_runs(self, monkeypatch):
        # at gains near 1e-8 every row's cut window is a few cells while its band is about
        # 50: the band plan has several runs, and they join into one table
        pmf = truncated_rounded_input_pmf(200.0, 0.1)
        tables = []
        monkeypatch.setattr(distributions, "_log_pmf_kernel", recording_kernel(tables))
        gains = 1e-8 * (1.5 + 0.5 * np.polynomial.legendre.leggauss(16)[0])
        mmpe(pmf, gains)
        assert [np.shape(lam) for _, lam, _ in tables] == [(16, pmf.size, 1)]


class TestIMmpeIntegral:
    def test_point_mass_zero(self):
        for gamma in (0.5, 2.0):
            assert abs(i_mmpe_integral(point_mass(3), gamma)) <= 1e-12

    def test_matches_mutual_information(self):
        pmf = two_point_13()
        for gamma in (0.5, 2.0):
            mi = mutual_information(PoissonChannelSpec(pmf, gamma))
            assert abs(i_mmpe_integral(pmf, gamma) - mi) <= 1e-3

    def test_each_quadrature_level_is_summed_once(self, monkeypatch):
        # {1, 2, 7} at gain 4 misses the gate between 32 and 64 panels and meets it
        # between 64 and 128; each panel is one mmpe call, so 32 + 64 + 128 calls
        pmf = DiscretePmf.from_weights(1, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 3.0])
        calls = []

        def counted(law, a):
            calls.append(a)
            return mmpe(law, a)

        monkeypatch.setattr(mutual_info, "mmpe", counted)
        assert i_mmpe_integral(pmf, 4.0) == 0.7626681484734367
        assert len(calls) == 32 + 64 + 128

    def test_monotone_in_gamma(self):
        pmf = two_point_13()
        v1 = i_mmpe_integral(pmf, 0.5)
        v2 = i_mmpe_integral(pmf, 1.5)
        assert v1 <= v2 + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            i_mmpe_integral(two_point_13(), 0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_refused(self, gamma):
        with pytest.raises(ValueError, match="positive and finite"):
            i_mmpe_integral(two_point_13(), gamma)

    @pytest.mark.parametrize("gamma", [0.5 * _A_MIN, _A_MIN, 0.5])
    def test_returns_a_python_float_on_both_branches(self, gamma):
        # at or below _A_MIN the analytic limit, above it the quadrature
        assert type(i_mmpe_integral(two_point_13(), gamma)) is float

    @pytest.mark.parametrize(
        "pmf, gamma",
        [
            (truncated_rounded_input_pmf(20.0, 0.1), 0.4),
            (truncated_rounded_input_pmf(200.0, 0.1), 0.4),
            (two_point_13(), 0.5),
            (two_point_13(), 1.0),
            (two_point_13(), 2.0),
            # 3 panels per decade miss the gate here; 6 do not
            (DiscretePmf.from_weights(1, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 3.0]), 4.0),
            (DiscretePmf.from_weights(1, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 3.0]), 10.0),
        ],
    )
    def test_agrees_with_mutual_information_to_1e12(self, pmf, gamma):
        mi = mutual_information(PoissonChannelSpec(pmf, gamma))
        assert abs(i_mmpe_integral(pmf, gamma) - mi) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(laws_with_zero_rows())
    def test_agrees_with_mutual_information_on_random_laws(self, case):
        # two independent routes: the band sum over z, and the gain integral of mmpe
        pmf, gain = case
        mi = mutual_information(PoissonChannelSpec(pmf, gain))
        assert abs(i_mmpe_integral(pmf, gain) - mi) <= 1e-9


class TestTruncationLoss:
    def test_small_value_term_certified_and_shrinking(self):
        values = []
        for g in (1e2, 1e3, 1e4):
            loss = truncation_loss_terms(g, 0.1)
            assert loss.t1 <= loss.t1_bound
            values.append(loss.t1)
        assert values[0] > values[1] > values[2]

    def test_tail_terms_certified_at_large_scale(self):
        # the e^(-g^rho/4) certificates for the upper-tail terms require a
        # very large budget at rho = 0.1; they hold (and shrink) from ~1e24 up
        previous = None
        for g in (1e24, 1e26, 1e28):
            loss = truncation_loss_terms(g, 0.1)
            assert loss.t2 <= loss.t2_bound
            assert loss.t3 <= loss.t3_bound
            if previous is not None:
                assert loss.t2 < previous.t2
                assert loss.t3 < previous.t3
            previous = loss

    def test_tail_terms_certified_at_moderate_scale_for_larger_rho(self):
        for g in (1e4, 1e5):
            loss = truncation_loss_terms(g, 0.5)
            assert loss.t2 <= loss.t2_bound
            assert loss.t3 <= loss.t3_bound

    @pytest.mark.parametrize("g, rho", [(1e2, 0.1), (1e4, 0.5), (1e24, 0.1), (1e28, 0.1)])
    def test_tail_terms_match_mpmath(self, g, rho):
        # u = g^rho / 2 runs from 0.79 to 316
        window = distributions.TruncationInterval.for_budget(g, rho)
        loss = truncation_loss_terms(g, rho)
        with mpmath.workdps(40):
            u = mpmath.mpf(window.s_max) / (2 * mpmath.mpf(g))
            scale = 2 * mpmath.mpf(g) / mpmath.sqrt(mpmath.pi)
            upper = mpmath.gammainc(1.5, u)
            # d/da Gamma(a, u) at a = 3/2 is int_u^inf sqrt(s) ln(s) e^-s ds
            j_u = mpmath.diff(lambda a: mpmath.gammainc(a, u), 1.5)
            t2 = scale * (mpmath.log(2 * mpmath.mpf(g)) * upper + j_u)
            t3 = scale * mpmath.log(1 / mpmath.mpf(window.s_min)) * upper
            assert abs((loss.t2 - t2) / t2) <= 1e-13
            assert abs((loss.t3 - t3) / t3) <= 1e-13

    @pytest.mark.parametrize("g, rho", [(1e2, 0.1), (1e4, 0.5), (1e24, 0.1), (1e24, 0.5),
                                        (1e28, 0.1)])
    def test_small_value_term_matches_mpmath(self, g, rho):
        # P(1/2, x) at x = s_min / (2g) down to 5e-85, where scipy's gammainc(0.5, x)
        # is 9.2e-15 relative off and erf(sqrt(x)) within 1e-16
        window = distributions.TruncationInterval.for_budget(g, rho)
        with mpmath.workdps(40):
            x = mpmath.mpf(window.s_min) / (2 * mpmath.mpf(g))
            t1 = mpmath.mpf(window.s_max) * mpmath.gammainc(0.5, 0, x, regularized=True)
        assert abs((truncation_loss_terms(g, rho).t1 - t1) / t1) <= 5e-16

    def test_domain(self):
        with pytest.raises(ValueError):
            truncation_loss_terms(1.0, 0.1)
        with pytest.raises(ValueError):
            truncation_loss_terms(100.0, 1.5)


def test_rounding_loss_gap_shrinks_with_budget():
    # exact I(X;Z) under the integer input law approaches the asymptotic
    # form 0.5 ln(r) - Psi(r/g); the shortfall c(g) must shrink in g
    for gain in (0.4, 1.0):
        gaps = []
        for g in (50.0, 200.0):
            pmf = truncated_rounded_input_pmf(g, 0.1)
            mi = mutual_information(PoissonChannelSpec(pmf, gain))
            gaps.append(0.5 * math.log(gain * g) - psi_max_entropy(gain) - mi)
        assert gaps[1] < gaps[0]


def test_rounding_loss_gap_keeps_shrinking_at_large_budgets():
    # the deficit 0.5 ln(r) - Psi(r/g) - I at rho = 0.1 past criterion 08's
    # g <= 800; mutual_information raises if its entropy and KL routes disagree
    gain = 0.4
    deficits = []
    for g in (800.0, 3200.0, 12800.0):
        pmf = truncated_rounded_input_pmf(g, 0.1)
        mi = mutual_information(PoissonChannelSpec(pmf, gain))
        deficits.append(0.5 * math.log(gain * g) - psi_max_entropy(gain) - mi)
    assert all(a >= b for a, b in zip(deficits, deficits[1:]))


def test_conditional_log_likelihood_bracket_diagnostic():
    # with reads-per-type s * gain >= 12 pi e^2, the expected conditional
    # log-likelihood -H(Poisson(gain * x)) stays inside [-ln(gain * s), 0]
    s, gain = 8, 35.0
    assert gain * s >= 12 * math.pi * math.e**2
    for x in range(1, s + 1):
        j = -poisson_entropy(gain * x)
        assert -math.log(gain * s) <= j <= 0.0
