"""Tests for the benchmark's own code: rebinding, self time, traced outputs, checks."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402
from freqcap import cli  # noqa: E402


def _bound_objects():
    objs = {}
    for owner, key, _, _ in spans.BINDINGS:
        obj = spans._resolve(owner)
        objs[(owner, key)] = spans._get(obj, key)
    return objs


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    assert code == 0
    return out.getvalue()


@pytest.fixture
def experiment_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text("n=200\ng=8\nr=3.2\nrho=0.5\nm=16\ndecoder=ml\ntrials=20\nseed=5\n"
                    "spectrum_samples=200\n")
    return str(path)


MI_ARGV = ["mi", "--g", "20", "--rho", "0.1", "--gain", "0.4"]


def test_every_rebound_name_is_restored(experiment_cfg):
    before = _bound_objects()
    recorder = spans.Recorder()
    with recorder.installed():
        assert all(_bound_objects()[k] is not v for k, v in before.items())
        _run(MI_ARGV)
        _run(["experiment", "--config", experiment_cfg])
        _run(["bounds", "--g", "100", "--r", "40"])
    assert recorder.missing == []
    assert recorder.spans
    after = _bound_objects()
    assert all(after[k] is v for k, v in before.items())


def test_names_are_restored_when_the_traced_block_raises():
    before = _bound_objects()
    with pytest.raises(ZeroDivisionError):
        with spans.Recorder().installed():
            1 / 0
    after = _bound_objects()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 3.0, 0),
        spans.Span("b", 4.0, 8.0, 0),
        spans.Span("c", 5.0, 6.0, 2),
        spans.Span("d", 5.5, 7.0, 2),  # overlaps c: covered once, not twice
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 2.0, 1.0, 1.5])


def test_layer_metrics_count_nested_calls_once():
    tree = [
        spans.Span("coding_experiment.run_experiment", 0.0, 10.0, None,
                   {"score_elements": 7}),
        spans.Span("channel.transmit", 1.0, 2.0, 0),
        spans.Span("channel.transmit", 2.0, 4.0, 0),
        spans.Span(spans._LOG_FACT, 5.0, 6.0, 0, {"elements": 3}),
        spans.Span(spans._LOG_FACT, 5.2, 5.4, 3, {"elements": 2}),
    ]
    m = spans.layer_metrics(tree)
    assert m["coding_experiment.self_s"] == pytest.approx(6.0)
    assert m["coding_experiment.score_elements"] == 7
    assert m["channel.transmit.calls"] == 2
    assert m["channel.transmit.s"] == pytest.approx(3.0)
    assert m["special_math.log_factorial.s"] == pytest.approx(1.0)
    assert m["special_math.log_factorial.elements"] == 5
    assert m["mutual_info.mmpe.calls"] == 0


def test_traced_run_prints_what_the_untraced_run_prints(experiment_cfg):
    plain_mi = _run(MI_ARGV)
    plain_report = _run(["experiment", "--config", experiment_cfg])
    recorder = spans.Recorder()
    with recorder.installed():
        traced_mi = _run(MI_ARGV)
        traced_report = _run(["experiment", "--config", experiment_cfg])
    assert json.loads(traced_mi)["mi_nats"] == json.loads(plain_mi)["mi_nats"]
    assert traced_report == plain_report
    m = spans.layer_metrics(recorder.spans)
    assert m["coding_experiment.decode_ml.calls"] == 20
    assert m["mutual_info.mutual_information.s"] > 0.0


def test_checks_reject_wrong_outputs(tmp_path):
    surrogate = {op.label: op for op in workloads.build("surrogate", 1, str(tmp_path)).ops}
    good = json.dumps({"mi_nats": workloads.MI_G500})
    assert surrogate["mi"].check(good) is None
    bad = json.dumps({"mi_nats": workloads.MI_G500 + 1e-8})
    assert surrogate["mi"].check(bad) is not None

    coding = workloads.build("coding", 1, str(tmp_path)).ops[0]
    report = {"trials": 1000, "m": 256, "errors": 0, "mean_true_density": 0.61,
              "mutual_information": 0.62}
    assert coding.check(json.dumps(report)) is None
    assert coding.check(json.dumps({**report, "errors": 1})) is not None

    fresh = {op.label: op for op in workloads.build("cli-fresh", 1, str(tmp_path)).ops}
    assert fresh["verify"].check("PASS x\n10/10 checks passed\n") is None
    assert fresh["verify"].check("FAIL x\n9/10 checks passed\n") is not None
