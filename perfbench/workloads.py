"""The three benchmark workloads: their operations, inputs and output checks.

An operation is one `freqcap.cli.run` call or one `python -m freqcap.cli`
process. It fails on a nonzero exit code, an exception, or a failed check.
A check receives the captured standard output of a run that exited with 0
and returns None when the output is right, or a message saying what is
wrong. Inputs depend only on the workload seed.
"""

import json
import math
import os
from dataclasses import dataclass

# Exact surrogate MI recorded with the benchmark; trunc-gamma input, rho=0.5, gain=0.4.
MI_G500 = 2.658952316242058
MI_G8 = 0.5145403242922388
# The library's own tolerance between its two MI routes.
MI_TOL = 1e-9
# i_mmpe_integral's quadrature converges to a relative 1e-6.
I_MMPE_TOL = 1e-6
SPECTRUM_SE = 5.0
# Fixed-sum codewords and multinomial reads shift the mean true density off
# the IID surrogate MI by a few 1e-3 nats at n=2000 (0.001-0.006 on seeds
# 3, 11, 12); 0.02 nats is about 3% of I.
DENSITY_TOL = 0.02


@dataclass
class Op:
    label: str
    argv: list
    check: object  # stdout text -> None or a failure message


@dataclass
class Workload:
    name: str
    fresh_processes: bool
    ops: list
    sizes: dict




def _close(value, expected, tol, what):
    if not abs(value - expected) <= tol:
        return f"{what} = {value!r}, expected {expected!r} within {tol:g}"
    return None


def _check_mi(reference):
    def check(out):
        doc = json.loads(out)
        return _close(doc["mi_nats"], reference, MI_TOL, "mi_nats")

    return check


def _check_i_mmpe(out):
    doc = json.loads(out)
    return _close(doc["i_mmpe_nats"], doc["mi_nats"], I_MMPE_TOL, "i_mmpe_nats - mi_nats")


def _check_spectrum(samples):
    def check(out):
        doc = json.loads(out)
        if doc["num_samples"] != samples:
            return f"num_samples = {doc['num_samples']}, expected {samples}"
        cdf = doc["cdf"]
        if any(not 0.0 <= c <= 1.0 for c in cdf) or cdf != sorted(cdf):
            return f"spectrum CDF {cdf} is not a nondecreasing list of probabilities"
        se = math.sqrt(doc["variance"] / samples)
        return _close(doc["mean"], MI_G8, SPECTRUM_SE * se, "spectrum mean")

    return check


def _check_experiment(trials):
    def check(out):
        doc = json.loads(out)
        if doc["trials"] != trials or doc["m"] != 256:
            return f"ran {doc['trials']} trials with M={doc['m']}, expected {trials} and 256"
        if doc["errors"] != 0:
            return f"{doc['errors']} decoding errors, expected 0"
        return _close(
            doc["mean_true_density"], doc["mutual_information"], DENSITY_TOL,
            "mean_true_density",
        )

    return check


def _check_bounds(out):
    doc = json.loads(out)
    return _close(doc["converse_nats"], 0.5 * math.log(40.0), 1e-12, "converse_nats")


def _check_dna(out):
    doc = json.loads(out)
    nats = doc["log_m_lower_nats"]
    if not (math.isfinite(nats) and nats > 0.0):
        return f"log_m_lower_nats = {nats!r}"
    return _close(doc["log_m_lower_bits"] * math.log(2.0), nats, 1e-12 * nats,
                  "log_m_lower_bits * ln 2")


def _check_simulate(out):
    doc = json.loads(out)
    output = doc["output"]
    if len(output) != 6 or sum(output) != 18 or doc["output_total"] != 18:
        return f"output {output} is not 6 counts summing to 18 reads"
    return None


def _check_figure2(path):
    def check(out):
        rows = int(out.split()[1])
        with open(path) as fh:
            lines = fh.read().splitlines()
        data = [line for line in lines[1:] if not line.startswith("#")]
        if lines[0] != "beta,KL,bound_nats,bound_bits" or len(data) != rows or rows != 32:
            return f"table has {len(data)} rows, printed {rows}, expected 32"
        return None

    return check


def _check_verify(out):
    last = out.strip().splitlines()[-1] if out.strip() else ""
    if last != "10/10 checks passed":
        return f"last line {last!r}, expected '10/10 checks passed'"
    return None


def _write_config(path, decoder, trials, seed):
    with open(path, "w") as fh:
        fh.write(
            f"n=2000\ng=8\nr=3.2\nrho=0.5\ndelta=0.3\nm=256\n"
            f"decoder={decoder}\ntrials={trials}\nseed={seed}\n"
        )


def build(name, seed, workdir):
    """The workload `name` for `seed`; files it needs are written under workdir."""
    if name == "surrogate":
        ops = [
            Op("mi", ["mi", "--input", "trunc-gamma", "--g", "500", "--rho", "0.5",
                      "--gain", "0.4"], _check_mi(MI_G500)),
            Op("i_mmpe", ["mi", "--g", "200", "--rho", "0.1", "--gain", "0.4", "--i-mmpe"],
               _check_i_mmpe),
            Op("spectrum", ["spectrum", "--g", "8", "--rho", "0.5", "--gain", "0.4",
                            "--n", "2000", "--samples", "4000", "--thresholds", "0.5,0.6",
                            "--seed", str(seed)], _check_spectrum(4000)),
        ]
        sizes = {"mi_g": 500, "i_mmpe_g": 200, "spectrum_letters": 2000 * 4000}
        return Workload(name, False, ops, sizes)
    if name == "coding":
        ops = []
        for decoder, trials in (("threshold", 1000), ("ml", 500)):
            path = os.path.join(workdir, f"experiment-{decoder}.cfg")
            _write_config(path, decoder, trials, seed)
            ops.append(Op(f"experiment_{decoder}", ["experiment", "--config", path],
                          _check_experiment(trials)))
        sizes = {"n": 2000, "g": 8, "r": 3.2, "m": 256, "trials_threshold": 1000,
                 "trials_ml": 500}
        return Workload(name, False, ops, sizes)
    if name == "cli-fresh":
        table = os.path.join(workdir, "bounds.csv")
        ops = [
            Op("bounds", ["bounds", "--g", "100", "--r", "40"], _check_bounds),
            Op("dna", ["dna", "--alphabet", "4", "--beta-log-a", "0.76", "--kl", "4e21"],
               _check_dna),
            Op("mi", ["mi", "--input", "trunc-gamma", "--g", "20", "--rho", "0.1",
                      "--gain", "0.4", "--i-mmpe"], _check_i_mmpe),
            Op("spectrum", ["spectrum", "--input", "trunc-gamma", "--g", "8", "--rho", "0.5",
                            "--gain", "0.4", "--n", "500", "--samples", "2000",
                            "--thresholds", "0.3,0.5", "--seed", str(seed)],
               _check_spectrum(2000)),
            Op("simulate", ["simulate", "--g", "2", "--r", "3", "--codeword", "3,4,1,0,2,2",
                            "--seed", str(seed)], _check_simulate),
            Op("figure2", ["figure2", "--out", table], _check_figure2(table)),
            # The appendix suite keeps its default seed: its Monte-Carlo checks
            # carry 3-sigma slack, so an arbitrary seed could fail one by chance.
            Op("verify", ["verify", "--suite", "appendix"], _check_verify),
        ]
        sizes = {"commands": len(ops)}
        return Workload(name, True, ops, sizes)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("surrogate", "coding", "cli-fresh")
