"""The appendix suite behind `freqcap verify`: it passes at several seeds,
and it runs in a working set of a few MB."""

import tracemalloc

import pytest

from freqcap.channel import poissonization_identity_check
from freqcap.diagnostics import run_suite

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
