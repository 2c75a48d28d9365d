"""The appendix suite behind `freqcap verify`: it passes, no check takes a
seed or draws a random number, its tail checks are exact, the Bobkov-Ledoux
tail is a certified Chernoff value that fails under a lowered bound, and the
suite runs in a working set of a few MB."""

import inspect
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from conftest import spec_with_z_max

from freqcap import diagnostics, mutual_info
from freqcap.channel import poissonization_identity_check
from freqcap.diagnostics import SUITES, run_suite
from freqcap.distributions import DiscretePmf, poisson_log_pmf
from freqcap.mutual_info import PoissonChannelSpec

# The Poissonization box at M = 20 in four dimensions holds 1.25M points; a
# 1.97M-point box built whole took about 285 MB, walked slab by slab about 5 MB.
CEILING_MB = 16.0


def traced_peak_mb(fn, *args):
    """Peak of the memory Python and numpy allocate while fn(*args) runs, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("seed", range(5))
def test_appendix_suite_passes(seed):
    """The suite passes, and reads the same, whatever state the process's
    global random streams are in."""
    numpy_state, stdlib_state = np.random.get_state(), random.getstate()
    try:
        np.random.seed(seed)
        random.seed(seed)
        results = run_suite("appendix")
    finally:
        np.random.set_state(numpy_state)
        random.setstate(stdlib_state)
    assert [result for result in results if not result.ok] == []
    assert results == run_suite("appendix")


def test_poissonization_identity_memory_ceiling():
    assert traced_peak_mb(poissonization_identity_check, 20.0, [0.1, 0.2, 0.3, 0.4]) <= CEILING_MB


def test_appendix_suite_memory_ceiling():
    assert traced_peak_mb(run_suite, "appendix") <= CEILING_MB


def test_no_check_takes_a_parameter():
    assert list(inspect.signature(run_suite).parameters) == ["name"]
    for check in SUITES["appendix"]:
        assert inspect.signature(check).parameters == {}


def test_no_check_draws(monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("built a random generator")

    for name in ("SeedSequence", "default_rng", "Generator", "RandomState"):
        monkeypatch.setattr(np.random, name, no_generator)
    # the global streams are already built: their states must not move
    _, keys, *rest = np.random.get_state()
    stdlib = random.getstate()
    for check in SUITES["appendix"]:
        first = check()
        assert first.ok and first == check(), first
    _, keys_after, *rest_after = np.random.get_state()
    assert np.array_equal(keys_after, keys) and rest_after == rest
    assert random.getstate() == stdlib


def exact_binomial_tail(n, p, t):
    """P[X / n - p >= t] for X ~ Bin(n, p), p and t rationals, the event
    decided in exact arithmetic."""
    with mp.workdps(40):
        q = mp.mpf(p.numerator) / p.denominator
        return float(mp.fsum(
            mp.binomial(n, j) * q**j * (1 - q) ** (n - j)
            for j in range(n + 1) if Fraction(j, n) - p >= t
        ))


@pytest.mark.parametrize(
    "n, p, t",
    [
        (400, Fraction(3, 10), Fraction(3, 100)),
        (400, Fraction(3, 10), Fraction(6, 100)),
        (500, Fraction(1, 20), Fraction(1, 40)),
        # xi = 1: the cut-off n (p + p) = 50 sits exactly on an integer
        (500, Fraction(1, 20), Fraction(1, 20)),
        # in floats n (p + t) reads 3.0000000000000004: the cut-off is still 3
        (10, Fraction(1, 10), Fraction(1, 5)),
    ],
)
def test_binomial_tail_is_exact(n, p, t):
    tail = diagnostics._binomial_tail(n, float(p), float(t))
    assert tail == pytest.approx(exact_binomial_tail(n, p, t), rel=1e-12)


def test_tail_check_fails_above_the_bound():
    assert diagnostics._tail_check("x", [(0.05, 0.1), (0.1, 0.1)]).ok
    assert not diagnostics._tail_check("x", [(0.05, 0.1), (0.2, 0.1)]).ok


def test_bobkov_ledoux_shows_the_certified_tail_and_the_bound():
    result = diagnostics._check_bobkov_ledoux()
    assert result.ok
    assert result.detail == "certified ln tail -57.62 vs ln bound -0.1757"


def test_bobkov_ledoux_fails_under_a_lowered_bound(monkeypatch):
    monkeypatch.setattr(diagnostics, "bobkov_ledoux_bound", lambda *args: math.exp(-60.0))
    result = diagnostics._check_bobkov_ledoux()
    assert not result.ok
    assert result.detail == "certified ln tail -57.62 vs ln bound -60.0000"


def mp_chernoff_log_tail(xs, gain, copies, delta, z_max):
    """The grid minimum of `_chernoff_log_tail` for the uniform law on xs, in
    50-digit arithmetic: P_Z and the tails T_x straight from their definitions."""
    with mp.workdps(50):
        lams = [mp.mpf(gain) * x for x in xs]
        log_p = [[-lam + z * mp.log(lam) - mp.loggamma(z + 1) for z in range(z_max + 1)]
                 for lam in lams]
        log_pz = [mp.log(mp.fsum(mp.exp(row[z]) for row in log_p) / len(xs))
                  for z in range(z_max + 1)]
        a = copies * mp.fsum(mp.exp(lp) * (lp - lpz) for row in log_p
                             for lp, lpz in zip(row, log_pz)) - copies * len(xs) * delta
        tails = [mp.gammainc(z_max + 1, 0, lam, regularized=True) for lam in lams]
        tail = mp.fsum(tails) / len(xs)
        values = []
        for s in map(mp.mpf, mutual_info._CHERNOFF_S):
            sums = [mp.fsum(mp.exp((1 - s) * lp + s * lpz) for lp, lpz in zip(row, log_pz))
                    + t ** (1 - s) * tail**s for row, t in zip(log_p, tails)]
            values.append(copies * mp.fsum(map(mp.log, sums)) + s * a)
        return float(min(values))


@pytest.mark.parametrize("z_max", [None, 4])
def test_certified_exponent_matches_mpmath(z_max):
    # z_max = 4 leaves up to 37% of a row's mass to the Hölder term
    law = DiscretePmf.from_weights(1, np.ones(8))
    spec = PoissonChannelSpec(law, 0.5) if z_max is None else spec_with_z_max(law, 0.5, z_max)
    value = diagnostics._chernoff_log_tail(spec, 50, 0.35)
    assert value == pytest.approx(mp_chernoff_log_tail(range(1, 9), 0.5, 50, 0.35, spec.z_max),
                                  abs=1e-9)


@pytest.mark.parametrize("delta", [0.2, 0.4, 0.6])
def test_certified_tail_bounds_the_exact_tail(delta):
    # one input of each letter of {1, 2, 3} at gain 1: P[S <= a] by enumerating
    # every (z1, z2, z3) up to 40, where each row misses less than 1e-30
    law, z_max = DiscretePmf.from_weights(1, np.ones(3)), 40
    log_p = poisson_log_pmf(np.arange(z_max + 1), np.arange(1.0, 4.0)[:, None])
    density = log_p - np.logaddexp.reduce(log_p + law.log_weights[:, None], axis=0)
    a = float((np.exp(log_p) * density).sum()) - 3 * delta
    sums = density[0][:, None, None] + density[1][None, :, None] + density[2]
    p = np.exp(log_p)
    exact = (p[0][:, None, None] * p[1][None, :, None] * p[2])[sums <= a].sum()
    spec = spec_with_z_max(law, 1.0, z_max)
    assert 0.01 < exact <= math.exp(diagnostics._chernoff_log_tail(spec, 1, delta))
