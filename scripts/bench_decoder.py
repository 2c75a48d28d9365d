"""Micro-benchmark of the decoder's per-trial scoring, with and without BLAS.

Times STEPS draw+score steps on the seed-1 `coding` benchmark codebook
(n=2000, g=8, r=3.2, rho=0.5, M=256): each step draws one trial's output
through `channel.transmit` and scores all 256 codewords, by one of three
methods: `matmul`, the BLAS matrix-vector product `log_frequencies @ y`;
`einsum`, the float64 einsum of `Codebook._log_likelihoods`; and `screen`,
the float32 einsum plus its rounding bound, `Codebook._screen`, which the
decoders run first. At 2 BLAS threads the `matmul` rows show why scoring
stays out of BLAS: the idle worker spins through every draw, so CPU time
rises well above wall time. Each (BLAS threads, method) pair runs in its
own fresh process, since OpenBLAS reads its thread count at start-up.

    python scripts/bench_decoder.py > BENCH_decoder.json

The children import freqcap from the `src/` next to this script.
"""

import json
import os
import statistics
import subprocess
import sys
import time

from _harness import SRC, child_env, environment

STEPS = 1000
REPEATS = 5
THREADS = ("1", "2")
METHODS = ("matmul", "einsum", "screen")
CONFIG = dict(n=2000, g=8.0, r=3.2, rho=0.5, delta=0.3, m=256, seed=1)


def _child(method):
    import numpy as np

    from freqcap.channel import ChannelParams, transmit
    from freqcap.coding_experiment import ExperimentConfig, generate_codebook, select_tau
    from freqcap.distributions import RngStream, truncated_rounded_input_pmf

    # the codebook `run_experiment` builds for this config
    config = ExperimentConfig(**CONFIG)
    rng = RngStream(config.seed)
    pmf = truncated_rounded_input_pmf(config.g, config.rho)
    tau, _ = select_tau(pmf, config.n)
    codebook = generate_codebook(config.m, config.n, pmf, tau, rng.substream(2))
    params = ChannelParams(config.n, config.g, config.r)
    log_freq = codebook.log_frequencies
    if method == "matmul":
        def score(y):
            return log_freq @ y
    elif method == "einsum":
        def score(y):
            return np.einsum("mi,i->m", log_freq, y.astype(float))
    else:
        def score(y):
            return codebook._screen(y)[0]

    def steps():
        channel_root = rng.substream(4)
        correct = 0
        for t in range(STEPS):
            m = t % config.m
            y = transmit(codebook.codeword(m), params, channel_root.substream(t)).counts
            correct += int(score(y).argmax()) == m
        return correct

    steps()  # warm-up: BLAS threads started, caches filled
    cpu, wall = [], []
    for _ in range(REPEATS):
        c0, w0 = time.process_time(), time.perf_counter()
        correct = steps()
        cpu.append(time.process_time() - c0)
        wall.append(time.perf_counter() - w0)
    return {"cpu_s": cpu, "wall_s": wall, "correct": correct}


def _blas_version():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def main():
    runs = []
    for threads in THREADS:
        for method in METHODS:
            done = subprocess.run(
                [sys.executable, __file__, "--child", method],
                env=child_env(SRC, threads), capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout)
            runs.append({
                "blas_threads": int(threads),
                "method": method,
                "cpu_s_median": statistics.median(result["cpu_s"]),
                "wall_s_median": statistics.median(result["wall_s"]),
                **result,
            })
    if len({run["correct"] for run in runs}) != 1:
        raise RuntimeError("the scoring methods decoded differently")
    doc = {
        "benchmark": f"{STEPS} draw+score steps, median of {REPEATS} repeats after one warm-up",
        "codebook": {**CONFIG, "shape": [CONFIG["m"], CONFIG["n"]]},
        "environment": environment(
            cpus_usable=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            blas=_blas_version(),
        ),
        "runs": runs,
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(_child(sys.argv[2])))
    else:
        main()
