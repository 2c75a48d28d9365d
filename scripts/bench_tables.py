"""Layer benchmark of the banded Poisson tables behind the exact surrogate MI,
and of the decoder's per-trial scoring.

Times fourteen fixed cases, for one or more source trees:

- `poisson_entropy` over the means of g=500, rho=0.5, gain 0.4;
- the `PoissonChannelSpec` build for that law;
- `mutual_information` of that spec (built once, outside the timing);
- the spec build plus `mutual_information` for that law, and for g=1e4,
  rho=0.1, gain 0.4: what a `mi` command spends on the exact MI, however
  the work is split between the two;
- `i_mmpe_integral` at g=200, rho=0.1, gain 0.4;
- the `_chernoff_window` calls of that `i_mmpe_integral` (180 of them),
  replayed: the child records them through a wrapper on `mutual_info`'s
  name, so each tree times the calls its own run makes, and the value, the
  sum of every window end, shows whether any end moved;
- one top `mmpe` panel at g=500, rho=0.5: the 16 Gauss-Legendre gains in
  [0.2, 0.4];
- `mmpe` at g=500, rho=0.5 and the single gain 0.3;
- the `spectrum` operation of the end-to-end `surrogate` workload: the
  spec for g=8, rho=0.5, gain 0.4, then `spectrum_mc` at n=2000 with 4000
  samples (8M letters) and thresholds 0.5, 0.6;
- the certified spectrum tail of `experiment` (`_spectrum_log_cdf_bound`)
  at g=200, rho=0.5, gain 0.4, n=2000 and theta = I - 0.1, with the spec
  and I computed once, outside the timing;
- `decode_matmul`, `decode_einsum` and `decode_screen`: DECODE_STEPS
  draw+score steps on the seed-1 `coding` benchmark codebook (n=2000, g=8,
  r=3.2, rho=0.5, M=256). Each step draws one trial's output through
  `channel.transmit` and scores all 256 codewords: by the BLAS
  matrix-vector product `log_frequencies @ y`, by the float64 einsum of
  `Codebook._log_likelihoods`, or by the float32 einsum plus its rounding
  bound, `Codebook._screen`, which the decoders run first. At 2 BLAS
  threads the `matmul` rows show why scoring stays out of BLAS: the idle
  worker spins through every draw, so CPU time rises above wall time. The
  value is the number of steps decoded right, and a run in which the
  three differ is refused.

    python scripts/bench_tables.py                       # this checkout's src/
    python scripts/bench_tables.py parent=/path/to/other/src change=src > BENCH_tables.json

Each argument is `label=path` to a directory that holds the `freqcap`
package. Every case runs at 2 BLAS threads (the cap of the end-to-end
benchmark on its 2-CPU machine) and at 1, set through
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS in the child, since OpenBLAS
reads its thread count at start-up; results are keyed by that count, then
by label. A case runs in ROUNDS fresh children per tree, the trees taking
turns child by child (`_harness.alternate`), so drift over the run falls
on every tree alike. Each child builds only its case's inputs, runs the
case once to warm up, then REPEATS times, and reports the median CPU and
wall seconds of those runs, the `tracemalloc` peak of one more run, and
the value the case computed, so a value that moves with the thread count
or the tree shows. Per tree, the CPU and wall seconds give the median,
the quartiles and the per-round values over the children, and each tree
after the first its paired wins against the first. The peak counts the
bytes numpy and Python allocate during the run, not the interpreter and
the imported modules.
"""

import json
import statistics
import subprocess
import sys
import time
import tracemalloc

from _harness import alternate, child_env, environment, parse_trees, summarize

ROUNDS = 11
REPEATS = 3
BLAS_THREADS = ("2", "1")
DECODE_STEPS = 1000
DECODE_CONFIG = dict(n=2000, g=8.0, r=3.2, rho=0.5, delta=0.3, m=256, seed=1)


def _law(g, rho):
    from freqcap.distributions import truncated_rounded_input_pmf

    return truncated_rounded_input_pmf(g, rho)


def _poisson_entropy(g, rho, gain):
    from freqcap.distributions import poisson_entropy

    means = gain * _law(g, rho).support.astype(float)
    return lambda: float(poisson_entropy(means).sum())


def _spec_build(g, rho, gain):
    import numpy as np

    from freqcap.mutual_info import PoissonChannelSpec

    law = _law(g, rho)
    return lambda: float(np.exp(PoissonChannelSpec(law, gain).log_pz).sum())


def _mutual_information(g, rho, gain):
    from freqcap.mutual_info import PoissonChannelSpec, mutual_information

    spec = PoissonChannelSpec(_law(g, rho), gain)
    return lambda: mutual_information(spec)


def _spec_and_mi(g, rho, gain):
    from freqcap.mutual_info import PoissonChannelSpec, mutual_information

    law = _law(g, rho)
    return lambda: mutual_information(PoissonChannelSpec(law, gain))


def _i_mmpe_integral(g, rho, gain):
    from freqcap.mutual_info import i_mmpe_integral

    law = _law(g, rho)
    return lambda: i_mmpe_integral(law, gain)


def _window_replay(g, rho, gain):
    """Replay of the `_chernoff_window` calls of one `i_mmpe_integral(law, gain)`, recorded
    through a wrapper on the name `mutual_info` calls; returns the sum of every end."""
    from freqcap import distributions, mutual_info

    window, calls = distributions._chernoff_window, []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return window(*args, **kwargs)

    mutual_info._chernoff_window = record
    try:
        mutual_info.i_mmpe_integral(_law(g, rho), gain)
    finally:
        mutual_info._chernoff_window = window
    return lambda: sum(int(end.sum()) for args, kwargs in calls for end in window(*args, **kwargs))


def _mmpe_panel(g, rho):
    """`mmpe` at the 16 Gauss-Legendre gains of the panel [0.2, 0.4]."""
    import numpy as np

    from freqcap.mutual_info import mmpe

    law = _law(g, rho)
    gains = 0.3 + 0.1 * np.polynomial.legendre.leggauss(16)[0]
    return lambda: float(mmpe(law, gains).sum())


def _mmpe_gain(g, rho, gain):
    from freqcap.mutual_info import mmpe

    law = _law(g, rho)
    return lambda: mmpe(law, gain)


def _spectrum(g, rho, gain):
    from freqcap.distributions import RngStream
    from freqcap.mutual_info import PoissonChannelSpec, spectrum_mc

    law = _law(g, rho)
    return lambda: spectrum_mc(PoissonChannelSpec(law, gain), 2000, 4000, RngStream(1),
                               (0.5, 0.6)).mean


def _spectrum_tail(g, rho, gain, n, gap):
    """The certified ln P[sum of n densities <= n (I - gap)], timed without its spec and I."""
    from freqcap.coding_experiment import _spectrum_log_cdf_bound
    from freqcap.mutual_info import PoissonChannelSpec, mutual_information

    spec = PoissonChannelSpec(_law(g, rho), gain)
    log_threshold = n * (mutual_information(spec) - gap)
    return lambda: _spectrum_log_cdf_bound(spec, n, log_threshold)


def _decode(method):
    """DECODE_STEPS draw+score steps on the codebook `run_experiment` builds for
    DECODE_CONFIG, scored by `method`; returns the steps decoded right."""
    import numpy as np

    from freqcap.channel import ChannelParams, transmit
    from freqcap.coding_experiment import ExperimentConfig, generate_codebook, select_tau
    from freqcap.distributions import RngStream

    config = ExperimentConfig(**DECODE_CONFIG)
    rng = RngStream(config.seed)
    pmf = _law(config.g, config.rho)
    tau, _ = select_tau(pmf, config.n)
    codebook = generate_codebook(config.m, config.n, pmf, tau, rng.substream(2))
    params = ChannelParams(config.n, config.g, config.r)
    log_freq = codebook.log_frequencies
    score = {
        "matmul": lambda y: log_freq @ y,
        "einsum": lambda y: np.einsum("mi,i->m", log_freq, y.astype(float)),
        "screen": lambda y: codebook._screen(y)[0],
    }[method]

    def steps():
        channel_root = rng.substream(4)
        correct = 0
        for t in range(DECODE_STEPS):
            m = t % config.m
            y = transmit(codebook.codeword(m), params, channel_root.substream(t)).counts
            correct += int(score(y).argmax()) == m
        return correct

    return steps


# each builder makes its case's inputs and returns the run to time
CASES = {
    "poisson_entropy_g500": lambda: _poisson_entropy(500.0, 0.5, 0.4),
    "spec_build_g500": lambda: _spec_build(500.0, 0.5, 0.4),
    "mutual_information_g500": lambda: _mutual_information(500.0, 0.5, 0.4),
    "spec_and_mi_g500": lambda: _spec_and_mi(500.0, 0.5, 0.4),
    "spec_and_mi_g1e4": lambda: _spec_and_mi(1e4, 0.1, 0.4),
    "i_mmpe_integral_g200": lambda: _i_mmpe_integral(200.0, 0.1, 0.4),
    "chernoff_windows_g200": lambda: _window_replay(200.0, 0.1, 0.4),
    "mmpe_panel_g500": lambda: _mmpe_panel(500.0, 0.5),
    "mmpe_gain_g500": lambda: _mmpe_gain(500.0, 0.5, 0.3),
    "spectrum_g8": lambda: _spectrum(8.0, 0.5, 0.4),
    "spectrum_tail_g200": lambda: _spectrum_tail(200.0, 0.5, 0.4, 2000, 0.1),
    "decode_matmul": lambda: _decode("matmul"),
    "decode_einsum": lambda: _decode("einsum"),
    "decode_screen": lambda: _decode("screen"),
}


def _child(case):
    run = CASES[case]()
    run()  # warm-up: imports, tables, caches and BLAS threads
    cpu, wall = [], []
    for _ in range(REPEATS):
        c0, w0 = time.process_time(), time.perf_counter()
        value = run()
        cpu.append(time.process_time() - c0)
        wall.append(time.perf_counter() - w0)
    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"cpu_s": statistics.median(cpu), "wall_s": statistics.median(wall),
            "peak_traced_bytes": peak, "value": value}


def _run_child(src, threads, case):
    done = subprocess.run([sys.executable, __file__, "--child", case],
                          env=child_env(src, threads), capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(trees):
    results = {threads: {label: {} for label in trees} for threads in BLAS_THREADS}
    for threads in BLAS_THREADS:
        for case in CASES:
            runs = alternate(trees, ROUNDS, lambda label, src: _run_child(src, threads, case))
            cpu, wall = summarize(runs, "cpu_s"), summarize(runs, "wall_s")
            for label, samples in runs.items():
                results[threads][label][case] = {
                    "cpu_s": cpu[label],
                    "wall_s": wall[label],
                    "peak_traced_bytes_median":
                        statistics.median(s["peak_traced_bytes"] for s in samples),
                    "values": sorted({s["value"] for s in samples}),
                }
        for label, cases in results[threads].items():
            decoded = {value for case, row in cases.items() if case.startswith("decode_")
                       for value in row["values"]}
            if len(decoded) != 1:
                raise RuntimeError(f"{label} at {threads} BLAS threads: the scoring methods "
                                   f"decoded differently, {sorted(decoded)}")
    doc = {
        "benchmark": f"CPU and wall s per case, in {ROUNDS} fresh children per tree with the "
                     "trees alternating child by child; each child reports the median of "
                     f"{REPEATS} runs after one warm-up and the tracemalloc peak of one more "
                     "run. Per tree: median, quartiles and per-round values, and paired wins "
                     "against the first tree",
        "decode_codebook": {**DECODE_CONFIG, "shape": [DECODE_CONFIG["m"], DECODE_CONFIG["n"]],
                            "steps": DECODE_STEPS},
        "environment": environment("scipy"),
        "results_by_blas_threads": results,
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(_child(sys.argv[2])))
    else:
        main(parse_trees(sys.argv[1:]))
