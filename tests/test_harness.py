"""The benchmark scripts' shared harness, `scripts/_harness.py`: the order in
which `alternate` runs the trees and what `summarize` reports of their rounds."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "_harness.py"
_SPEC = importlib.util.spec_from_file_location("_harness", _PATH)
harness = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(harness)

TREES = {"parent": "/a/src", "change": "/b/src", "third": "/c/src"}


def test_alternate_reverses_the_order_on_odd_rounds():
    calls = []

    def sample(label, src):
        calls.append(label)
        return (len(calls), src)

    runs = harness.alternate(TREES, 5, sample)
    order = ["parent", "change", "third"]
    assert calls == (order + order[::-1]) * 2 + order
    assert list(runs) == order
    for label, samples in runs.items():
        assert len(samples) == 5
        assert all(src == TREES[label] for _, src in samples)
        # each tree's samples in the order they were taken
        assert [n for n, _ in samples] == [i + 1 for i, call in enumerate(calls) if call == label]


def test_summary_quartiles_are_statistics_quantiles():
    values = {"parent": [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0],
              "change": [2.5, 7.0, 1.0, 8.0, 2.0, 8.5, 1.2]}
    runs = {label: [{"cpu_s": v, "other": 0} for v in rounds] for label, rounds in values.items()}
    summary = harness.summarize(runs, "cpu_s")
    for label, rounds in values.items():
        q1, median, q3 = statistics.quantiles(rounds, n=4)
        assert summary[label]["median"] == median == statistics.median(rounds)
        assert summary[label]["quartiles"] == [q1, q3]
        assert summary[label]["rounds"] == rounds
    assert "paired_wins" not in summary["parent"]


@pytest.mark.parametrize("later, wins", [
    ([1.0, 3.0, 3.0, 0.5, 2.0], {"change": 2, "parent": 2}),
    ([2.0, 2.0, 3.0, 4.0, 1.0], {"change": 0, "parent": 0}),
], ids=["one-tie", "all-ties"])
def test_paired_wins_count_strictly_lower_rounds_only(later, wins):
    # a tie counts for neither tree
    base = [2.0, 2.0, 3.0, 4.0, 1.0]
    runs = {"parent": [{"s": v} for v in base], "change": [{"s": v} for v in later]}
    ties = sum(a == b for a, b in zip(base, later))
    summary = harness.summarize(runs, "s")
    assert summary["change"]["paired_wins"] == wins
    assert sum(wins.values()) + ties == len(base)
