"""What the benchmark scripts share: the source trees they compare, the
environment of a child process that imports freqcap from one of them, and
the record of the machine they ran on."""

import importlib
import os
import platform

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


def environment(*packages, **extra):
    """CPU count, machine, Python, the versions of numpy and `packages`, then `extra`."""
    doc = {"cpus": os.cpu_count(), "machine": platform.machine(),
           "python": platform.python_version()}
    for name in ("numpy", *packages):
        doc[name] = importlib.import_module(name).__version__
    return {**doc, **extra}
