import math

import mpmath as mp
import numpy as np
import pytest

from freqcap.capacity_bounds import (
    achievability_bound,
    bound_report,
    converse_bound,
    dna_log_cardinality_lower_bound,
    dna_pseudo_rate,
    figure2_csv,
    figure2_rows,
    optimal_sampling_ratio,
    stars_and_bars_log_count,
)
from freqcap.special_math import NATS_PER_BIT, psi_max_entropy


class TestConverseBound:
    def test_square_point(self):
        assert converse_bound(100.0, 100.0) == pytest.approx(0.5 * math.log(100), abs=1e-12)

    def test_clamp_beyond_eg(self):
        g = 7.0
        assert converse_bound(g, 10 * math.e * g) == pytest.approx(
            0.5 * math.log(math.e * g), abs=1e-12
        )

    def test_monotone_in_r(self):
        assert converse_bound(10.0, 20.0) >= converse_bound(10.0, 5.0)

    def test_report_notes_clamp(self):
        report = bound_report(10.0, 100.0)
        assert any("clamped" in note for note in report.notes)
        report = bound_report(10.0, 10.0)
        assert not any("clamped" in note for note in report.notes)


class TestAchievabilityBound:
    def test_equal_budgets(self):
        g = 50.0
        expect = 0.5 * math.log(g) - 1.386294
        assert achievability_bound(g, g) == pytest.approx(expect, abs=1e-5)

    def test_optimized_ratio(self):
        g = 50.0
        value = achievability_bound(g, 0.398 * g)
        assert value == pytest.approx(0.5 * math.log(g) - 1.295, abs=1e-3)

    def test_never_exceeds_converse_on_grid(self):
        for g in np.linspace(2.0, 500.0, 20):
            for r in np.linspace(0.1 * g, math.e * g, 20):
                assert achievability_bound(g, r) <= converse_bound(g, r) + 1e-12

    def test_gap_identity_below_clamp(self):
        # for r <= e g the converse is 0.5 ln r, so the gap is exactly Psi(r/g)
        g, r = 40.0, 16.0
        report = bound_report(g, r)
        assert report.gap == pytest.approx(psi_max_entropy(r / g), abs=1e-12)
        assert report.gap >= 0.0

    def test_budget_capacity_margin_positive(self):
        # Psi(mu) - 0.5 ln(mu) >= 0: the rate never beats the 0.5 ln(g) proxy
        for mu in np.linspace(0.05, math.e, 40):
            assert psi_max_entropy(mu) - 0.5 * math.log(mu) >= 0.0


class TestOptimalSamplingRatio:
    def test_location_and_value(self):
        mu, value = optimal_sampling_ratio()
        assert mu == pytest.approx(0.398, abs=0.002)
        assert value == pytest.approx(-1.295, abs=0.002)

    def test_stationarity(self):
        mu, _ = optimal_sampling_ratio()
        assert abs(1.0 / (2.0 * mu) - math.log1p(1.0 / mu)) <= 1e-12

    def test_closed_form_against_mpmath(self):
        with mp.workdps(40):
            mu_exact = 1 / (-2 * mp.lambertw(-1 / (2 * mp.sqrt(mp.e)), -1) - 1)
            psi = (mu_exact + 1) * mp.log(mu_exact + 1) - mu_exact * mp.log(mu_exact)
            value_exact = float(0.5 * mp.log(mu_exact) - psi)
        mu, value = optimal_sampling_ratio()
        assert abs(mu - float(mu_exact)) <= 1e-16
        assert abs(value - value_exact) <= 1e-15

    def test_unit_ratio_value(self):
        # the objective at mu=1 is -2 ln 2, the historical -1.386 nats
        assert 0.5 * math.log(1.0) - psi_max_entropy(1.0) == pytest.approx(-1.386294, abs=1e-6)

    def test_offset_consistent_with_achievability(self):
        mu, offset = optimal_sampling_ratio()
        for g in (10.0, 100.0, 1000.0):
            assert achievability_bound(g, mu * g) - 0.5 * math.log(g) == pytest.approx(
                offset, abs=1e-9
            )


class TestStarsAndBars:
    def test_tiny_case(self):
        # vectors over 2 types summing to 2: (0,2), (1,1), (2,0)
        assert stars_and_bars_log_count(2, 1) == pytest.approx(math.log(3), abs=1e-12)

    def test_single_type(self):
        assert stars_and_bars_log_count(1, 17) == 0.0

    def test_normalized_limit(self):
        n, g = 1000, 10
        value = stars_and_bars_log_count(n, g) / n
        assert abs(value - math.log(math.e * g)) <= 0.05
        assert value <= math.log(math.e * g) + 0.05

    def test_domain(self):
        with pytest.raises(ValueError):
            stars_and_bars_log_count(0, 5)
        with pytest.raises(ValueError):
            stars_and_bars_log_count(5, -1)


class TestDnaPseudoRate:
    def test_reference_point(self):
        beta = 0.76 / math.log(4)
        assert dna_pseudo_rate(beta, 4) == pytest.approx(0.21889, abs=1e-5)

    def test_vanishes_at_upper_edge(self):
        beta = (1.0 - 1e-9) / math.log(4)
        assert dna_pseudo_rate(beta, 4) == pytest.approx(0.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            dna_pseudo_rate(0.3 / math.log(4), 4)
        with pytest.raises(ValueError):
            dna_pseudo_rate(1.2 / math.log(4), 4)
        with pytest.raises(ValueError):
            dna_pseudo_rate(0.5, 1)


class TestDnaLowerBound:
    def test_five_gram_example(self):
        beta = 0.76 / math.log(4)
        scenario = dna_log_cardinality_lower_bound(4e21, beta, 4)
        assert abs(scenario.log_m_lower - 1.253e16) <= 0.01 * 1.253e16
        assert scenario.molecule_length == 26
        assert scenario.lambert_length == pytest.approx(25.4936, abs=1e-3)
        assert scenario.log_m_lower_bits == pytest.approx(
            scenario.log_m_lower / NATS_PER_BIT, rel=1e-12
        )
        assert round(scenario.log_m_lower_bits / 1e15) == 18  # the 1.8e16-bit figure

    def test_optimized_ratio_strictly_improves_corrected_bound(self):
        beta = 0.76 / math.log(4)
        plain = dna_log_cardinality_lower_bound(4e21, beta, 4, use_optimized_ratio=False)
        tuned = dna_log_cardinality_lower_bound(4e21, beta, 4, use_optimized_ratio=True)
        assert tuned.log_m_lower_corrected > plain.log_m_lower_corrected
        assert tuned.correction_constant == 2.59
        assert plain.correction_constant == 2.773
        # the leading-order bound does not depend on the read-count choice
        assert tuned.log_m_lower == plain.log_m_lower

    def test_geometry_self_consistent(self):
        beta = 0.76 / math.log(4)
        scenario = dna_log_cardinality_lower_bound(4e21, beta, 4)
        assert scenario.molecule_length * scenario.strand_count == pytest.approx(4e21, rel=1e-12)

    def test_domain(self):
        beta = 0.76 / math.log(4)
        with pytest.raises(ValueError):
            dna_log_cardinality_lower_bound(-1.0, beta, 4)
        with pytest.raises(ValueError):
            dna_log_cardinality_lower_bound(1e20, 0.9, 4)


class TestFigure2:
    def test_monotone_in_kl_per_beta(self):
        betas = [0.6 / math.log(4), 0.76 / math.log(4)]
        kls = [1e18, 1e20, 4e21, 1e24]
        rows, warnings = figure2_rows(betas, kls)
        assert not warnings
        for beta in betas:
            bounds = [row["bound_nats"] for row in rows if row["beta"] == beta]
            assert bounds == sorted(bounds)
            assert bounds[0] < bounds[-1]

    def test_reproduces_example_point(self):
        rows, _ = figure2_rows([0.76 / math.log(4)], [4e21])
        assert abs(rows[0]["bound_nats"] - 1.253e16) <= 0.01 * 1.253e16

    def test_empty_grid(self):
        rows, warnings = figure2_rows([], [1e20])
        assert rows == [] and warnings == []
        assert figure2_csv(rows) == "beta,KL,bound_nats,bound_bits\n"

    def test_invalid_beta_warned_and_skipped(self):
        rows, warnings = figure2_rows([0.9, 0.76 / math.log(4)], [1e20])
        assert len(rows) == 1
        assert len(warnings) == 1 and "0.9" in warnings[0]
        text = figure2_csv(rows, warnings)
        assert text.splitlines()[0] == "beta,KL,bound_nats,bound_bits"
        assert text.splitlines()[1].startswith("# skipped beta=0.9")
