"""Acceptance gate: one test per shipped criterion, each printing a verdict line.

Criterion 7's upper-tail certificates are asymptotic in the budget and are
provably violated at the stated desk-scale grid (see the failure message);
that test states the criterion faithfully and is expected to stay red.
"""

import math
import time

import numpy as np
import pytest

import freqcap as fc
from freqcap.special_math import NATS_PER_BIT


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_optimal_sampling_ratio():
    start = time.perf_counter()
    mu, value = fc.optimal_sampling_ratio()
    residual = abs(1.0 / (2.0 * mu) - math.log1p(1.0 / mu))
    elapsed = time.perf_counter() - start
    _verdict(1, True, f"mu*={mu:.5f}, offset={value:.5f}, stationarity={residual:.1e}, {elapsed:.2f}s")
    assert abs(mu - 0.398) <= 0.002
    assert abs(value - (-1.295)) <= 0.002
    assert residual <= 1e-6
    assert elapsed < 1.0


def test_criterion_02_max_entropy_anchor():
    start = time.perf_counter()
    value = fc.psi_max_entropy(1.0)
    elapsed = time.perf_counter() - start
    _verdict(2, True, f"Psi(1)={value:.9f}, 2*Psi(1)={2 * value:.4f}, {elapsed:.2f}s")
    assert value == pytest.approx(2 * math.log(2), abs=1e-9)
    # the 2.773 constant in the explicit storage bound is 2*Psi(1)
    assert abs(2 * value - 2.773) <= 1e-3
    assert elapsed < 1.0


def test_criterion_03_dna_example():
    start = time.perf_counter()
    beta = 0.76 / math.log(4)
    scenario = fc.dna_log_cardinality_lower_bound(4e21, beta, 4)
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        True,
        f"log M >= {scenario.log_m_lower:.4e} nats "
        f"({scenario.log_m_lower / NATS_PER_BIT:.3e} bits), L={scenario.molecule_length}, "
        f"{elapsed:.2f}s",
    )
    assert abs(scenario.log_m_lower - 1.253e16) <= 0.01 * 1.253e16
    assert round(scenario.molecule_length) == 26
    assert elapsed < 1.0


def test_criterion_04_poissonization_identity():
    start = time.perf_counter()
    worst = 0.0
    for mean, probs in (
        (5.0, [0.5, 0.5]),
        (12.0, [0.25, 0.25, 0.25, 0.25]),
        (20.0, [0.1, 0.2, 0.3, 0.4]),
        (1.0, [1.0]),
    ):
        worst = max(worst, fc.poissonization_identity_check(mean, probs))

    # event inequality P[G in E] <= sqrt(eM) P[G~ in E] on enumerated events
    m1 = 6
    k = np.arange(m1 + 1)
    binom = np.array([math.comb(m1, int(i)) for i in k]) * 0.5**m1
    p_fixed = binom[k >= 5].sum()
    z = np.arange(150)
    p_poisson = np.exp(fc.poisson_log_pmf(z, m1 / 2))[z >= 5].sum()
    event1 = p_fixed <= fc.event_poissonization_factor(m1) * p_poisson

    m2 = 20
    p_fixed2 = math.comb(m2, m2 // 2) * 0.5**m2
    poi = np.exp(fc.poisson_log_pmf(z, m2 / 2))
    event2 = p_fixed2 <= fc.event_poissonization_factor(m2) * float((poi * poi).sum())
    elapsed = time.perf_counter() - start
    _verdict(4, True, f"max pmf discrepancy {worst:.2e}, event checks {event1 and event2}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert event1 and event2
    assert elapsed < 10.0


def test_criterion_05_stirling_bracket():
    start = time.perf_counter()
    ms = np.arange(1, 100_001)
    ratio = fc.log_factorial(ms) - ms * np.log(ms) + ms
    low = 0.5 * np.log(2 * np.pi * ms)
    high = 0.5 * np.log(6 * np.pi * ms)
    inside = np.all(ratio >= low) and np.all(ratio <= high)
    # the scalar operation agrees with the vectorized sweep
    spot = np.random.default_rng(0).integers(1, 100_001, size=500)
    agrees = all(
        fc.multinomial_poisson_ratio_log(int(m)) == pytest.approx(float(ratio[m - 1]), rel=1e-12)
        for m in spot
    )
    elapsed = time.perf_counter() - start
    _verdict(5, bool(inside and agrees), f"bracket holds on [1, 1e5], {elapsed:.2f}s")
    assert inside
    assert agrees
    assert elapsed < 5.0


def test_criterion_06_i_mmpe_identity():
    start = time.perf_counter()
    inputs = {
        "point": fc.DiscretePmf(3, np.array([0.0])),
        "two-point": fc.DiscretePmf.from_weights(1, [0.5, 0.0, 0.5]),
        "trunc-gamma-20": fc.truncated_rounded_input_pmf(20.0, 0.1),
    }
    worst = 0.0
    for name, pmf in inputs.items():
        for gamma in (0.5, 1.0, 2.0):
            mi = fc.mutual_information(fc.PoissonChannelSpec(pmf, gamma))
            gap = abs(fc.i_mmpe_integral(pmf, gamma) - mi)
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _verdict(6, worst <= 1e-3, f"max |integral - MI| = {worst:.2e} nats, {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 60.0


def test_criterion_07_truncation_loss_certificates():
    start = time.perf_counter()
    grid = (1e2, 1e3, 1e4)
    losses = [fc.truncation_loss_terms(g, 0.1) for g in grid]
    violations = []
    for g, loss in zip(grid, losses):
        if loss.t1 > loss.t1_bound:
            violations.append(f"t1={loss.t1:.3g} > {loss.t1_bound:.3g} at g={g:g}")
        if loss.t2 > loss.t2_bound:
            violations.append(f"t2={loss.t2:.3g} > {loss.t2_bound:.3g} at g={g:g}")
        if loss.t3 > loss.t3_bound:
            violations.append(f"t3={loss.t3:.3g} > {loss.t3_bound:.3g} at g={g:g}")
    for field in ("t1", "t2", "t3"):
        series = [getattr(loss, field) for loss in losses]
        if not all(a > b for a, b in zip(series, series[1:])):
            violations.append(f"{field} not decreasing on the grid: {series}")
    elapsed = time.perf_counter() - start
    _verdict(7, not violations, f"{len(violations)} violations, {elapsed:.1f}s")
    assert not violations, (
        "upper-tail truncation terms violate their e^(-g^rho/4) certificates at "
        f"rho=0.1 on g in {grid}: {violations}. The certificates are asymptotic "
        "in g and at rho=0.1 first hold near g ~ 1e24 (where the library "
        "verifies them; see tests/test_mutual_info.py)."
    )
    assert elapsed < 30.0


def test_criterion_08_achievability_gap_property():
    start = time.perf_counter()
    deficits = []
    for g in (50.0, 200.0, 800.0):
        r = 0.4 * g
        pmf = fc.truncated_rounded_input_pmf(g, 0.1)
        mi = fc.mutual_information(fc.PoissonChannelSpec(pmf, 0.4))
        target = 0.5 * math.log(r) - fc.psi_max_entropy(0.4)
        deficits.append(target - mi)
        assert mi <= 0.5 * math.log(min(r, math.e * g)) + 0.05  # converse sanity
    monotone = all(a >= b for a, b in zip(deficits, deficits[1:]))
    elapsed = time.perf_counter() - start
    _verdict(8, monotone, f"deficits c(g) = {[f'{c:.4f}' for c in deficits]}, {elapsed:.1f}s")
    assert monotone
    assert elapsed < 300.0


def test_criterion_09_concentration_suite():
    start = time.perf_counter()
    rng = fc.RngStream(90)

    # Bobkov-Ledoux left tail of the conditional density sum at n=2000, s=8
    support = fc.DiscretePmf.from_weights(1, np.ones(8))
    spec = fc.PoissonChannelSpec(support, 0.5)  # per-type means up to 4
    n, samples, delta = 2000, 10_000, 0.5
    beta = math.log(8)
    bound = fc.bobkov_ledoux_bound(beta, 4.0, n, delta)
    xs = support.sample(rng.substream(1), size=n).astype(float)
    lam = spec.gain * xs
    z = np.arange(spec.z_max + 1)
    pmf_rows = np.exp(
        -lam[:, None] + z[None, :] * np.log(lam)[:, None] - fc.log_factorial(z)[None, :]
    )
    dens_rows = (
        -lam[:, None] + z[None, :] * np.log(lam)[:, None] - fc.log_factorial(z)[None, :]
    ) - spec.log_pz[None, :]
    exact_mean = float((pmf_rows * dens_rows).sum())
    zs = rng.substream(2).generator.poisson(lam, size=(samples, n))
    dens = (
        -lam + zs * np.log(lam) - fc.log_factorial(zs.ravel()).reshape(zs.shape)
    ) - spec.log_pz[zs]
    freq_bl = float((dens.sum(axis=1) < exact_mean - n * delta).mean())
    slack_bl = 3.0 * math.sqrt(bound * (1 - bound) / samples)
    ok_bl = freq_bl <= bound + slack_bl

    # Hoeffding on the conditional log-likelihood sums at reads-per-type 35
    gain = 35.0
    assert gain * 8 >= 12 * math.pi * math.e**2
    j_table = np.array([-fc.poisson_entropy(gain * x) for x in range(1, 9)])
    bracket = math.log(gain * 8)
    ok_bracket = bool(np.all(j_table >= -bracket) and np.all(j_table <= 0.0))
    xs_idx = rng.substream(3).generator.integers(0, 8, size=(samples, n))
    j_sums = j_table[xs_idx].sum(axis=1)
    mean_j = n * j_table.mean()
    ok_hoeffding = True
    for t in (0.05 * n, 0.1 * n):
        freq = float((j_sums - mean_j >= t).mean())
        hbound = math.exp(-2.0 * t * t / (n * bracket * bracket))
        ok_hoeffding &= freq <= hbound + 3.0 * math.sqrt(hbound * (1 - hbound) / samples)

    # Poisson Chernoff and gamma tails against exact CDFs
    ok_tails = True
    for lam_c, alpha in ((20.0, 0.5), (50.0, 0.2)):
        k = np.arange(0, int(alpha * lam_c) + 1)
        exact = float(np.exp(fc.poisson_log_pmf(k, lam_c)).sum())
        ok_tails &= exact <= fc.poisson_chernoff_lower_tail(lam_c, alpha)
    for g, eta, rho in ((100.0, 0.0, 0.5), (1000.0, 0.2, 0.3)):
        lower, upper = fc.gamma_half_tail_bounds(g, eta, rho)
        ok_tails &= fc.regularized_gamma_p(0.5, g**eta / (2 * g)) <= lower
        ok_tails &= 1.0 - fc.regularized_gamma_p(0.5, g ** (1 + rho) / (2 * g)) <= upper

    elapsed = time.perf_counter() - start
    _verdict(
        9,
        ok_bl and ok_bracket and ok_hoeffding and ok_tails,
        f"BL freq {freq_bl:.4f} <= {bound:.4f}+slack, J-bracket {ok_bracket}, "
        f"Hoeffding {ok_hoeffding}, exact tails {ok_tails}, {elapsed:.1f}s",
    )
    assert ok_bl
    assert ok_bracket
    assert ok_hoeffding
    assert ok_tails
    assert elapsed < 120.0


def test_criterion_10_end_to_end_experiment():
    start = time.perf_counter()
    base = fc.ExperimentConfig(
        n=500, g=8.0, r=3.2, rho=0.5, delta=0.3, decoder="threshold",
        trials=200, seed=11, spectrum_samples=1000,
    )
    threshold_report = fc.run_experiment(base)
    again = fc.run_experiment(base)
    ml_report = fc.run_experiment(
        fc.ExperimentConfig(**{**base.to_dict(), "decoder": "ml"})
    )

    rhs = threshold_report.feinstein_value
    slack = 3.0 * math.sqrt(max(rhs * (1 - rhs), 0.25 / base.trials) / base.trials)
    ok_bound = threshold_report.error_rate <= rhs + slack
    p_t = threshold_report.error_rate
    sigma = math.sqrt(max(p_t * (1 - p_t), 0.25 / base.trials) / base.trials)
    ok_ml = ml_report.error_rate <= p_t + 3.0 * sigma
    ok_repro = threshold_report.to_json() == again.to_json()
    elapsed = time.perf_counter() - start
    _verdict(
        10,
        ok_bound and ok_ml and ok_repro,
        f"threshold err {threshold_report.errors}/{base.trials} vs rhs {rhs:.3f} "
        f"(saturated={threshold_report.feinstein_saturated}), ml err {ml_report.errors}, "
        f"reproducible={ok_repro}, {elapsed:.1f}s",
    )
    assert base.m is None and threshold_report.m >= 2  # sized by the bound formula
    assert ok_bound
    assert ok_ml
    assert ok_repro
    assert elapsed < 300.0


def test_criterion_11_bound_grid_and_cardinality():
    start = time.perf_counter()
    ok_grid = True
    for g in np.linspace(2.0, 400.0, 20):
        for r in np.linspace(0.1 * g, math.e * g, 20):
            ok_grid &= fc.achievability_bound(g, r) <= fc.converse_bound(g, r) + 1e-12
    n, g_int = 1000, 10
    normalized = fc.stars_and_bars_log_count(n, g_int) / n
    ok_cardinality = abs(normalized - math.log(math.e * g_int)) <= 0.05
    elapsed = time.perf_counter() - start
    _verdict(
        11,
        ok_grid and ok_cardinality,
        f"grid ok={ok_grid}, |stars-and-bars/n - ln(e g)| = "
        f"{abs(normalized - math.log(math.e * g_int)):.4f}, {elapsed:.2f}s",
    )
    assert ok_grid
    assert ok_cardinality
    assert elapsed < 5.0
