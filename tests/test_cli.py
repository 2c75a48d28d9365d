import contextlib
import io
import json
import math
import shlex
import sys
from pathlib import Path

import pytest
from conftest import python_at_blas_threads

from freqcap import cli
from freqcap.cli import run
from freqcap.special_math import NATS_PER_BIT


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestBoundsCommand:
    def test_values(self):
        code, out, _ = invoke(["bounds", "--g", "100", "--r", "40"])
        assert code == 0
        doc = json.loads(out)
        assert doc["converse_nats"] == pytest.approx(0.5 * math.log(40), abs=1e-12)
        assert doc["achievability_nats"] == pytest.approx(
            0.5 * math.log(40) - 0.8375774, abs=1e-6
        )
        assert doc["config"] == {"g": 100.0, "r": 40.0}

    def test_byte_identical_rerun(self):
        a = invoke(["bounds", "--g", "12", "--r", "5"])
        b = invoke(["bounds", "--g", "12", "--r", "5"])
        assert a == b

    def test_bits_conversion(self):
        _, nats_out, _ = invoke(["bounds", "--g", "100", "--r", "40"])
        _, bits_out, _ = invoke(["bounds", "--g", "100", "--r", "40", "--bits"])
        nats = json.loads(nats_out)
        bits = json.loads(bits_out)
        assert bits["converse_bits"] == pytest.approx(
            nats["converse_nats"] / NATS_PER_BIT, rel=1e-12
        )
        assert bits["achievability_bits"] == pytest.approx(
            nats["achievability_nats"] / NATS_PER_BIT, rel=1e-12
        )


class TestDnaCommand:
    def test_example_scenario(self):
        code, out, _ = invoke(["dna", "--alphabet", "4", "--beta-log-a", "0.76", "--kl", "4e21"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["log_m_lower_nats"] - 1.253e16) <= 0.01 * 1.253e16
        assert doc["molecule_length"] == 26

    def test_requires_exactly_one_beta_form(self):
        code, _, err = invoke(["dna", "--alphabet", "4", "--kl", "1e20"])
        assert code == 2 and "--beta-log-a" in err

    def test_domain_error_exit_code(self):
        # beta * ln|A| >= 1 leaves the short-molecule regime
        code, _, err = invoke(["dna", "--alphabet", "4", "--beta-log-a", "1.3", "--kl", "1e20"])
        assert code == 1
        assert "error:" in err


class TestUsageErrors:
    def test_missing_required_flag(self):
        code, _, err = invoke(["bounds", "--g", "100"])
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_flag(self):
        code, _, err = invoke(["bounds", "--g", "1", "--r", "1", "--frobnicate"])
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = invoke(["warp"])
        assert code == 2

    @pytest.mark.parametrize("argv, code", [(["bounds", "--g", "100", "--r", "40"], 0),
                                            (["bounds", "--g", "100"], 2)])
    def test_console_entry_point_exits_with_the_run_code(self, monkeypatch, capsys, argv, code):
        # `freqcap` runs `cli.main`, which reads sys.argv and exits with `run`'s code
        monkeypatch.setattr(sys, "argv", ["freqcap", *argv])
        with pytest.raises(SystemExit) as done:
            cli.main()
        assert done.value.code == code
        assert capsys.readouterr().out == invoke(argv)[1]


# a NaN or an infinity passes a plain `x <= 0` check, so each positivity check also asks for finite
@pytest.mark.parametrize("argv", [
    ["bounds", "--g", "1", "--r", "inf"],
    ["bounds", "--g", "nan", "--r", "2"],
    ["simulate", "--g", "nan", "--r", "3", "--codeword", "3,4,1,0,2,2", "--seed", "7"],
    ["simulate", "--g", "2", "--r", "inf", "--codeword", "3,4,1,0,2,2", "--seed", "7"],
    ["mi", "--input", "trunc-gamma", "--g", "20", "--rho", "0.1", "--gain", "nan"],
    ["spectrum", "--input", "point", "--value", "3", "--gain", "inf", "--n", "10",
     "--samples", "10", "--seed", "1"],
    ["dna", "--alphabet", "4", "--beta-log-a", "0.76", "--kl", "inf"],
], ids=lambda argv: next(
    f"{argv[0]} {flag}={value}" for flag, value in zip(argv, argv[1:]) if value in ("nan", "inf")
))
def test_non_finite_value_is_domain_error(argv):
    code, out, err = invoke(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "positive and finite" in err


class TestSimulateCommand:
    def test_reads_total_and_determinism(self):
        argv = ["simulate", "--g", "2", "--r", "3", "--codeword", "3,4,1,0,2,2", "--seed", "7"]
        code, out, _ = invoke(argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["output_total"] == 18
        assert sum(doc["output"]) == 18
        assert invoke(argv) == invoke(argv)

    def test_poissonized(self):
        code, out, _ = invoke(
            ["simulate", "--g", "2", "--r", "3", "--codeword", "0,12,0,0,0,0",
             "--poissonized", "--seed", "1"]
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["output"][0] == 0 and doc["output"][2:] == [0, 0, 0, 0]

    def test_kernel_file(self, tmp_path):
        kernel = tmp_path / "kernel.json"
        kernel.write_text("[[0.0, 1.0], [1.0, 0.0]]")  # always-flip reading
        code, out, _ = invoke(
            ["simulate", "--g", "4", "--r", "2", "--codeword", "8,0",
             "--kernel", str(kernel), "--seed", "2"]
        )
        assert code == 0
        assert json.loads(out)["output"] == [0, 4]

    def test_kernel_output_is_frozen(self, tmp_path):
        # the kernel path draws one multinomial, as it did before noiseless reads
        # became object indices: these bytes are that code's
        kernel = tmp_path / "kernel.json"
        kernel.write_text("[[0.9, 0.05, 0.0], [0.1, 0.9, 0.2], [0.0, 0.05, 0.8]]")
        code, out, _ = invoke(
            ["simulate", "--g", "3", "--r", "4", "--codeword", "3,4,2",
             "--kernel", str(kernel), "--seed", "0"]
        )
        assert code == 0
        assert out.replace(str(kernel), "K") == (
            '{\n  "config": {\n    "codeword": "3,4,2",\n    "g": 3.0,\n    "kernel": "K",\n'
            '    "n": 3,\n    "poissonized": false,\n    "r": 4.0,\n    "seed": 0\n  },\n'
            '  "output": [\n    1,\n    9,\n    2\n  ],\n  "output_total": 12\n}\n'
        )

    def test_fractional_read_count_is_domain_error(self):
        code, _, err = invoke(
            ["simulate", "--g", "2", "--r", "3.0001", "--codeword", "3,4,1,0,2,2"]
        )
        assert code == 1 and "integer read count" in err


class TestMiCommand:
    def test_two_point_value(self):
        code, out, _ = invoke(
            ["mi", "--input", "two-point", "--points", "1:0.5,2:0.5", "--gain", "1"]
        )
        assert code == 0
        assert json.loads(out)["mi_nats"] == pytest.approx(0.0787091997945, abs=1e-9)

    def test_i_mmpe_agreement(self):
        code, out, _ = invoke(
            ["mi", "--input", "two-point", "--points", "1:0.5,3:0.5", "--gain", "1",
             "--i-mmpe"]
        )
        doc = json.loads(out)
        assert abs(doc["i_mmpe_nats"] - doc["mi_nats"]) <= 1e-3

    def test_dump_input_law(self):
        code, out, _ = invoke(
            ["mi", "--input", "two-point", "--points", "1:0.5,2:0.5", "--gain", "1",
             "--dump-input"]
        )
        doc = json.loads(out)
        assert doc["input_pmf"]["offset"] == 1
        assert len(doc["input_pmf"]["log_weights"]) == 2

    def test_repeated_point_is_domain_error(self):
        code, out, err = invoke(
            ["mi", "--input", "two-point", "--points", "1:0.3,1:0.2,3:0.5", "--gain", "1"]
        )
        assert code == 1 and out == ""
        assert "repeats the point 1" in err

    @pytest.mark.parametrize("argv", [
        # ceil(46500^1.5) = 10,027,195 support points
        ["mi", "--g", "46500", "--rho", "0.5", "--gain", "0.4"],
        ["mi", "--input", "two-point", "--points", "1:0.5,10000001:0.5", "--gain", "1"],
    ], ids=["trunc-gamma", "two-point"])
    def test_support_above_cap_is_domain_error(self, argv):
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "cap 10000000" in err

    def test_independent_of_blas_threads(self):
        # 11,181 input rows: past the size from which OpenBLAS splits a dot product
        argv = ["-m", "freqcap.cli", "mi", "--g", "500", "--rho", "0.5", "--gain", "0.4"]
        assert python_at_blas_threads(argv, "1") == python_at_blas_threads(argv, "2")


class TestSpectrumCommand:
    def test_deterministic(self):
        argv = ["spectrum", "--input", "two-point", "--points", "1:0.5,2:0.5", "--gain", "1",
                "--n", "50", "--samples", "200", "--thresholds", "0.05", "--seed", "3"]
        assert invoke(argv) == invoke(argv)
        code, out, _ = invoke(argv)
        doc = json.loads(out)
        assert code == 0
        assert 0.0 <= doc["cdf"][0] <= 1.0

    def test_json_shape(self):
        # every letter of a point mass carries density 0
        code, out, _ = invoke(["spectrum", "--input", "point", "--value", "2", "--gain", "1",
                               "--n", "10", "--samples", "50", "--thresholds=-0.5,0.5",
                               "--seed", "6"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"n", "num_samples", "mean", "variance", "thresholds", "cdf", "config"}
        assert (doc["n"], doc["num_samples"]) == (10, 50)
        assert doc["mean"] == pytest.approx(0.0, abs=1e-12)
        assert doc["variance"] == pytest.approx(0.0, abs=1e-12)
        assert (doc["thresholds"], doc["cdf"]) == ([-0.5, 0.5], [0.0, 1.0])

    def test_nan_threshold_is_domain_error(self):
        # NaN <= value is False for every sample, so its cdf would read 0.0
        code, out, err = invoke(["spectrum", "--input", "point", "--value", "2", "--gain", "1",
                                 "--n", "10", "--samples", "50", "--thresholds", "nan,0.5",
                                 "--seed", "6"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "NaN" in err

    def test_threads_flag_is_gone(self):
        argv = ["spectrum", "--input", "point", "--value", "3", "--gain", "1",
                "--n", "10", "--samples", "20", "--seed", "1"]
        code, out, _ = invoke(argv)
        assert code == 0
        assert "threads" not in json.loads(out)["config"]
        assert invoke([*argv, "--threads", "2"])[0] == 2


def test_format_beta_and_env_seed_are_gone(monkeypatch):
    assert invoke(["bounds", "--g", "4", "--r", "4", "--format", "json"])[0] == 2
    # not even as an abbreviation of --beta-log-a
    assert invoke(["dna", "--alphabet", "4", "--beta", "0.5", "--kl", "1e20"])[0] == 2
    argv = ["simulate", "--g", "2", "--r", "3", "--codeword", "3,4,1,0,2,2"]
    monkeypatch.delenv("FREQCAP_SEED", raising=False)
    without = invoke(argv)
    monkeypatch.setenv("FREQCAP_SEED", "7")
    assert invoke(argv) == without
    assert without != invoke([*argv, "--seed", "7"])


def readme_commands():
    """Every `freqcap ...` line of the README's CLI block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("freqcap ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "bounds", "dna", "mi", "spectrum", "spectrum", "simulate", "experiment", "verify",
        "figure2",
    ]
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a usage error raises SystemExit


def test_golden_manifest_commands_parse():
    # `scripts/golden.py` records the outputs of these commands; the manifest holds every
    # README command, and a flag the parser no longer takes would leave it stale
    doc = json.loads((Path(__file__).resolve().parents[1] / "GOLDEN.json").read_text())
    commands = [entry["argv"] for entry in doc["commands"].values()]
    assert all(argv in commands for argv in readme_commands())
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a usage error raises SystemExit


class TestExperimentCommand:
    def config_text(self):
        return (
            "n=24\ng=8.0\nr=0.5\nrho=0.5\ndelta=0.1\nm=32\ndecoder=ml\n"
            "trials=60\nseed=9\nspectrum_samples=400\n"
        )

    def test_runs_and_reproduces(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.config_text())
        argv = ["experiment", "--config", str(cfg)]
        code, out, _ = invoke(argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 60
        assert invoke(argv) == invoke(argv)

    def test_nan_delta_is_domain_error(self, tmp_path):
        # a NaN delta makes log_gamma NaN, and the run would report a Feinstein bound of 1.0
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.config_text().replace("delta=0.1", "delta=nan"))
        code, out, err = invoke(["experiment", "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "delta" in err

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.config_text())
        _, base, _ = invoke(["experiment", "--config", str(cfg)])
        _, other, _ = invoke(["experiment", "--config", str(cfg), "--seed", "10"])
        assert json.loads(base)["config"]["seed"] == 9
        assert json.loads(other)["config"]["seed"] == 10

    @pytest.mark.parametrize("decoder", ["threshold", "ml"])
    def test_independent_of_blas_threads(self, tmp_path, decoder):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"n=200\ng=8\nr=3.2\nrho=0.5\ndelta=0.3\nm=16\ndecoder={decoder}\n"
            "trials=50\nseed=1\nspectrum_samples=400\n"
        )
        outputs = []
        for threads in ("1", "2"):
            trace = tmp_path / f"trace-{threads}.csv"
            argv = ["-m", "freqcap.cli", "experiment", "--config", str(cfg), "--trace", str(trace)]
            outputs.append((python_at_blas_threads(argv, threads), trace.read_text()))
        assert json.loads(outputs[0][0])["trials"] == 50
        assert outputs[0] == outputs[1]

    def test_long_block_independent_of_blas_threads(self, tmp_path):
        # n=20,000: past the size from which OpenBLAS splits a dot product
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "n=20000\ng=8\nr=3.2\nrho=0.5\ndelta=0.3\nm=16\ndecoder=threshold\n"
            "trials=20\nseed=1\nspectrum_samples=200\n"
        )
        outputs = []
        for threads in ("1", "2"):
            trace = tmp_path / f"trace-{threads}.csv"
            argv = ["-m", "freqcap.cli", "experiment", "--config", str(cfg), "--trace", str(trace)]
            outputs.append((python_at_blas_threads(argv, threads), trace.read_text()))
        assert json.loads(outputs[0][0])["trials"] == 20
        assert outputs[0] == outputs[1]


class TestVerifyCommand:
    def test_appendix_suite_passes(self):
        code, out, _ = invoke(["verify", "--suite", "appendix"])
        assert code == 0
        assert "10/10 checks passed" in out
        assert "FAIL" not in out

    def test_independent_of_blas_threads(self):
        argv = ["-m", "freqcap.cli", "verify", "--suite", "appendix"]
        assert python_at_blas_threads(argv, "1") == python_at_blas_threads(argv, "2")

    def test_seed_flag_is_gone(self):
        # no check samples, so there is no seed to take
        code, out, err = invoke(["verify", "--suite", "appendix", "--seed", "3"])
        assert code == 2 and out == "" and "--seed" in err

    def test_unknown_suite(self):
        for name in ("nope", "all"):
            code, _, err = invoke(["verify", "--suite", name])
            assert code == 1 and "unknown suite" in err


class TestFigure2Command:
    def test_default_grid_reproduces_example(self, tmp_path):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = invoke(["figure2", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "beta,KL,bound_nats,bound_bits"
        example = [
            line for line in lines
            if line.startswith("0.548224115538,4e+21")
        ]
        assert len(example) == 1
        bound = float(example[0].split(",")[2])
        assert abs(bound - 1.253e16) <= 0.01 * 1.253e16

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        invoke(["figure2", "--out", str(a)])
        invoke(["figure2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_empty_beta_list_header_only(self, tmp_path):
        out_path = tmp_path / "empty.csv"
        code, _, _ = invoke(["figure2", "--out", str(out_path), "--beta-log-a", ""])
        assert code == 0
        assert out_path.read_text() == "beta,KL,bound_nats,bound_bits\n"

    def test_io_error_surfaced_with_path(self):
        code, _, err = invoke(["figure2", "--out", "/nonexistent-dir/f.csv"])
        assert code == 1
        assert "/nonexistent-dir/f.csv" in err
