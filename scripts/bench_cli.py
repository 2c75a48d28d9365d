"""End-to-end CLI benchmark: every command of the README as a fresh process.

Runs each command of the README's CLI section, and a bare
`import freqcap.cli` (the row `import`), in SAMPLES fresh processes per
source tree and records, per tree and row, the median, quartiles and
per-process values of the process's CPU seconds (user + system), its
median wall seconds and its median peak RSS (`ru_maxrss`); each tree after
the first also gets its paired wins against the first. One more, untimed,
process per tree and row runs under `python -X importtime` and records
whether it loads `scipy.special` and whether it loads numpy:

    python scripts/bench_cli.py                       # this checkout's src/
    python scripts/bench_cli.py parent=/path/to/other/src change=src > BENCH_cli.json

Each argument is `label=path` to a directory that holds the `freqcap`
package; results are keyed by label. Row by row, the trees take turns
process by process (`_harness.alternate`), the first tree alternating, so
drift over the run falls on every tree alike. Files the commands read or
write (the experiment config, its trace, the figure table) live in a
temporary directory.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from _harness import alternate, child_env, environment, parse_trees, summarize

SAMPLES = 11
# the README's CLI examples, in its order; `verify` draws nothing and takes no seed
COMMANDS = {
    "bounds": ["bounds", "--g", "100", "--r", "40"],
    "dna": ["dna", "--alphabet", "4", "--beta-log-a", "0.76", "--kl", "4e21"],
    "mi": ["mi", "--input", "trunc-gamma", "--g", "20", "--rho", "0.1", "--gain", "0.4",
           "--i-mmpe"],
    "spectrum": ["spectrum", "--input", "trunc-gamma", "--g", "8", "--rho", "0.5",
                 "--gain", "0.4", "--n", "500", "--samples", "2000",
                 "--thresholds", "0.3,0.5", "--seed", "7"],
    "simulate": ["simulate", "--g", "2", "--r", "3", "--codeword", "3,4,1,0,2,2",
                 "--seed", "7"],
    "experiment": ["experiment", "--config", "experiment.cfg", "--trace", "trials.csv"],
    "verify": ["verify", "--suite", "appendix"],
    "figure2": ["figure2", "--out", "bounds.csv"],
}
EXPERIMENT_CFG = (
    "n=500\ng=8.0\nr=3.2\nrho=0.5\ndelta=0.3\ndecoder=threshold\ntrials=200\nseed=11\n"
)


# the interpreter arguments of each row: the cold import, then every README command
ROWS = {"import": ["-c", "import freqcap.cli"],
        **{name: ["-m", "freqcap.cli", *argv] for name, argv in COMMANDS.items()}}


def _run_once(src, args, workdir):
    """CPU s, wall s and ru_maxrss (KiB) of one `python args` process."""
    with tempfile.TemporaryFile() as log:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *args], cwd=workdir, env=child_env(src),
                                 stdout=log, stderr=log)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would fold in every earlier one
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            log.seek(0)
            raise RuntimeError(f"{' '.join(args)} exited {child.returncode}: {log.read().decode()}")
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "wall_s": wall,
            "ru_maxrss_kb": usage.ru_maxrss}


def _imports(src, args, workdir):
    """Whether a `python args` process imports `scipy.special` and whether it imports
    `numpy`, read from the interpreter's import log (`-X importtime`, one line per module)."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=workdir,
                          env=child_env(src), capture_output=True, text=True, check=True)
    modules = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()}
    # a module loaded through `importlib.import_module`, as the CLI loads numpy, gets no
    # line of its own, so any numpy submodule counts
    return {"loads_scipy_special": "scipy.special" in modules,
            "loads_numpy": any(m.partition(".")[0] == "numpy" for m in modules)}


def main(trees):
    results = {label: {} for label in trees}
    with tempfile.TemporaryDirectory() as workdir:
        with open(os.path.join(workdir, "experiment.cfg"), "w") as fh:
            fh.write(EXPERIMENT_CFG)
        for name, args in ROWS.items():
            runs = alternate(trees, SAMPLES, lambda label, src: _run_once(src, args, workdir))
            cpu = summarize(runs, "cpu_s")
            for label, samples in runs.items():
                results[label][name] = {
                    "cpu_s": cpu[label],
                    "wall_s_median": statistics.median(s["wall_s"] for s in samples),
                    "ru_maxrss_kb_median": statistics.median(s["ru_maxrss_kb"] for s in samples),
                    **_imports(trees[label], args, workdir),
                }
    doc = {
        "benchmark": f"`import freqcap.cli` and each README CLI command in {SAMPLES} fresh "
                     "processes per tree, the trees alternating process by process: CPU s "
                     "(user + system; median, quartiles, per process, paired wins against "
                     "the first tree) and wall s of the process, its ru_maxrss (KiB); whether "
                     "it loads scipy.special and numpy, from one more untimed process",
        "rows": {name: " ".join(args) for name, args in ROWS.items()},
        "environment": environment("scipy"),
        "results": results,
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main(parse_trees(sys.argv[1:]))
