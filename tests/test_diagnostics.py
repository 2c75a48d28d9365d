"""The appendix suite behind `freqcap verify`: it passes at several seeds,
its tail checks are exact and draw nothing, and it runs in a working set
of a few MB."""

import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest

from freqcap import diagnostics
from freqcap.channel import poissonization_identity_check
from freqcap.diagnostics import SUITES, run_suite

# The Poissonization box at M = 20 in four dimensions holds 1.97M points;
# built whole it took about 285 MB, walked slab by slab about 5 MB.
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
    failed = [result for result in run_suite("appendix", seed) if not result.ok]
    assert failed == []


def test_poissonization_identity_memory_ceiling():
    assert traced_peak_mb(poissonization_identity_check, 20.0, [0.1, 0.2, 0.3, 0.4]) <= CEILING_MB


def test_appendix_suite_memory_ceiling():
    assert traced_peak_mb(run_suite, "appendix") <= CEILING_MB


def test_only_bobkov_ledoux_draws(monkeypatch):
    def no_stream(*args):
        raise AssertionError("drew a random stream")

    monkeypatch.setattr(diagnostics, "RngStream", no_stream)
    for check in SUITES["appendix"]:
        if check is diagnostics._check_bobkov_ledoux:
            with pytest.raises(AssertionError, match="random stream"):
                check(0)
        else:
            assert check(0).ok and check(0) == check(7)


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


def test_bobkov_ledoux_says_it_checks_the_direction_only():
    # its frequency reads 0 at every seed against a bound near 0.84
    detail = diagnostics._check_bobkov_ledoux(0).detail
    assert detail.startswith("freq=0.0000 bound=0.8389 ")
    assert "direction only" in detail and "cannot fail" in detail
