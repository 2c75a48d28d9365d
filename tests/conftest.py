import os
import subprocess
import sys
from pathlib import Path

import freqcap
from freqcap.mutual_info import PoissonChannelSpec


def python_at_blas_threads(args, threads):
    """stdout of `python *args` in a child process that imports this freqcap with `threads`
    BLAS threads; `args` is `["-m", "freqcap.cli", ...]` or `["-c", code]`."""
    src = str(Path(freqcap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path,
           "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    done = subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def spec_with_z_max(input_pmf, gain, z_max):
    """A throwaway channel spec whose certified tails (`_TiltedRows`) sum their tables on
    0..z_max instead of 0..its own z_max; a lower z_max leaves more mass to the Hölder term."""
    spec = PoissonChannelSpec(input_pmf, gain)
    spec.z_max = z_max
    return spec
