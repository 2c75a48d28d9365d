"""What the benchmark scripts share: the source trees they compare, the
environment of a child process that imports freqcap from one of them, the
alternation of the trees round by round, the summary of each tree's rounds,
and the record of the machine they ran on."""

import importlib
import os
import platform
import statistics

# the `src/` of this checkout
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def parse_trees(args):
    """{label: path} from `label=path` arguments; this checkout's `src/` as "src" without any."""
    pairs = [arg.partition("=") for arg in args] or [("src", "", SRC)]
    return {label: path for label, _, path in pairs}


def child_env(src, blas_threads=None):
    """os.environ with `src` first on PYTHONPATH and, if given, the BLAS and OpenMP thread count."""
    path = os.pathsep.join(filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    if blas_threads is not None:
        env.update(OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads)
    return env


def alternate(trees, rounds, sample):
    """{label: [sample(label, src) of each round]} over the {label: src} `trees`.

    Round r runs every tree once, in the given order on even rounds and
    reversed on odd ones, so drift over the run falls on every tree alike
    and the trees' samples of one round are taken side by side.
    """
    runs = {label: [] for label in trees}
    for r in range(rounds):
        for label, src in list(trees.items())[:: -1 if r % 2 else 1]:
            runs[label].append(sample(label, src))
    return runs


def summarize(runs, key):
    """{label: the median, quartiles and per-round values of `key`} over `alternate`'s runs.

    The quartiles are `statistics.quantiles(n=4)`, whose middle cut is the
    median. Each tree after the first also gets its paired wins against the
    first: the rounds in which its value is the lower one, and those in
    which the first tree's is; a tie counts for neither.
    """
    values = {label: [sample[key] for sample in samples] for label, samples in runs.items()}
    (first, base), *later = values.items()
    out = {}
    for label, rounds in values.items():
        q1, median, q3 = statistics.quantiles(rounds, n=4)
        out[label] = {"median": median, "quartiles": [q1, q3], "rounds": rounds}
    for label, rounds in later:
        out[label]["paired_wins"] = {label: sum(v < b for v, b in zip(rounds, base)),
                                     first: sum(b < v for v, b in zip(rounds, base))}
    return out


def _blas():
    """numpy's BLAS as "name version", or "unknown" where numpy cannot say."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment(*packages, **extra):
    """CPU count, machine, Python, numpy's BLAS, the versions of numpy and `packages`,
    then `extra`."""
    doc = {"cpus": os.cpu_count(), "machine": platform.machine(),
           "python": platform.python_version(), "blas": _blas()}
    for name in ("numpy", *packages):
        doc[name] = importlib.import_module(name).__version__
    return {**doc, **extra}
