"""Layer benchmark of the banded Poisson tables behind the exact surrogate MI.

Times eleven fixed cases, each in its own fresh process, for one or more
source trees, and prints the median CPU and wall seconds of REPEATS runs
after one warm-up run, and the `tracemalloc` peak of one more, untimed run:

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
  and I computed once, outside the timing; the case calls whichever
  signature the tree has, `(spec, n, ...)` or the older `(spec, z_max, n, ...)`.

    python scripts/bench_tables.py                       # this checkout's src/
    python scripts/bench_tables.py parent=/path/to/other/src change=src > BENCH_tables.json

Each argument is `label=path` to a directory that holds the `freqcap`
package. Every case runs at 2 BLAS threads (the cap of the end-to-end
benchmark on its 2-CPU machine) and at 1, set through
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS in the child; results are keyed
by that count, then by label. The trees take turns case by case, so drift
over the run falls on every tree alike. Each case also records the value
it computed, so a value that moves with the thread count shows. The peak
counts the bytes numpy and Python allocate during the run, not the
interpreter and the imported modules.
"""

import json
import statistics
import subprocess
import sys
import time
import tracemalloc

from _harness import child_env, environment, parse_trees

REPEATS = 5
BLAS_THREADS = ("2", "1")
CASES = ("poisson_entropy_g500", "spec_build_g500", "mutual_information_g500",
         "spec_and_mi_g500", "spec_and_mi_g1e4", "i_mmpe_integral_g200",
         "chernoff_windows_g200", "mmpe_panel_g500",
         "mmpe_gain_g500", "spectrum_g8", "spectrum_tail_g200")


def _spectrum_tail(law, gain, n, gap):
    """The certified ln P[sum of n densities <= n (I - gap)], timed without its spec and I."""
    import inspect

    from freqcap.coding_experiment import _spectrum_log_cdf_bound
    from freqcap.mutual_info import PoissonChannelSpec, mutual_information

    spec = PoissonChannelSpec(law, gain)
    log_threshold = n * (mutual_information(spec) - gap)
    if "z_max" in inspect.signature(_spectrum_log_cdf_bound).parameters:
        return lambda: _spectrum_log_cdf_bound(spec, spec.z_max, n, log_threshold)
    return lambda: _spectrum_log_cdf_bound(spec, n, log_threshold)


def _window_replay(law, gain):
    """Replay of the `_chernoff_window` calls of one `i_mmpe_integral(law, gain)`, recorded
    through a wrapper on the name `mutual_info` calls; returns the sum of every end."""
    from freqcap import distributions, mutual_info

    window, calls = distributions._chernoff_window, []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return window(*args, **kwargs)

    mutual_info._chernoff_window = record
    try:
        mutual_info.i_mmpe_integral(law, gain)
    finally:
        mutual_info._chernoff_window = window
    return lambda: sum(int(end.sum()) for args, kwargs in calls for end in window(*args, **kwargs))


def _child(case):
    import numpy as np

    from freqcap.distributions import RngStream, poisson_entropy, truncated_rounded_input_pmf
    from freqcap.mutual_info import (PoissonChannelSpec, i_mmpe_integral, mmpe,
                                     mutual_information, spectrum_mc)

    g8 = truncated_rounded_input_pmf(8.0, 0.5)
    g500 = truncated_rounded_input_pmf(500.0, 0.5)
    g200 = truncated_rounded_input_pmf(200.0, 0.1)
    g1e4 = truncated_rounded_input_pmf(1e4, 0.1)
    means = 0.4 * g500.support.astype(float)
    gains = 0.3 + 0.1 * np.polynomial.legendre.leggauss(16)[0]
    spec = PoissonChannelSpec(g500, 0.4) if case == "mutual_information_g500" else None
    tail = (_spectrum_tail(truncated_rounded_input_pmf(200.0, 0.5), 0.4, 2000, 0.1)
            if case == "spectrum_tail_g200" else None)
    replay = _window_replay(g200, 0.4) if case == "chernoff_windows_g200" else None
    run = {
        "poisson_entropy_g500": lambda: float(poisson_entropy(means).sum()),
        "spec_build_g500": lambda: float(np.exp(PoissonChannelSpec(g500, 0.4).log_pz).sum()),
        "mutual_information_g500": lambda: mutual_information(spec),
        "spec_and_mi_g500": lambda: mutual_information(PoissonChannelSpec(g500, 0.4)),
        "spec_and_mi_g1e4": lambda: mutual_information(PoissonChannelSpec(g1e4, 0.4)),
        "i_mmpe_integral_g200": lambda: i_mmpe_integral(g200, 0.4),
        "chernoff_windows_g200": replay,
        "mmpe_panel_g500": lambda: float(mmpe(g500, gains).sum()),
        "mmpe_gain_g500": lambda: mmpe(g500, 0.3),
        "spectrum_g8": lambda: spectrum_mc(PoissonChannelSpec(g8, 0.4), 2000, 4000,
                                           RngStream(1), (0.5, 0.6)).mean,
        "spectrum_tail_g200": tail,
    }[case]
    run()  # warm-up: imports, tables and caches
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
    return {"cpu_s": cpu, "wall_s": wall, "peak_traced_bytes": peak, "value": value}


def main(trees):
    results = {threads: {label: {} for label in trees} for threads in BLAS_THREADS}
    for threads in BLAS_THREADS:
        for case in CASES:
            for label, src in trees.items():
                done = subprocess.run(
                    [sys.executable, __file__, "--child", case],
                    env=child_env(src, threads), capture_output=True, text=True, check=True,
                )
                run = json.loads(done.stdout)
                results[threads][label][case] = {
                    "cpu_s_median": statistics.median(run["cpu_s"]),
                    "wall_s_median": statistics.median(run["wall_s"]), **run}
    doc = {
        "benchmark": f"CPU and wall s per case, median of {REPEATS} runs after one warm-up, "
                     "and the tracemalloc peak of one more run, each case in its own process",
        "environment": environment("scipy"),
        "results_by_blas_threads": results,
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(_child(sys.argv[2])))
    else:
        main(parse_trees(sys.argv[1:]))
