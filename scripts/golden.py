"""Golden-output manifest: what each of a fixed list of CLI commands prints and writes.

Runs every command of COMMANDS as a fresh `python -m freqcap.cli` process at
one BLAS thread, each in its own temporary directory that holds the
experiment configs of INPUTS, and records its exit code and the sha256 of
its stdout, its stderr and every file it writes there:

    python scripts/golden.py > GOLDEN.json                  # this checkout's src/
    python scripts/golden.py --against /path/to/other/checkout

With `--against`, both trees run the list, and the script prints one line
per command whose exit code or any digest differs (nothing when all agree)
and exits 1 if any does. The list is the README form of every command
(`bench_cli.COMMANDS`, and the README's second `spectrum` form); `mi` at
g=500, `mi --i-mmpe` at g=200 and three two-point edge laws; `spectrum` at
g=50; and `experiment` with each decoder and its trace, the ML run at g=50.
Digests of float output may differ on another numpy or libm, so this
compares trees on one machine; the tier-1 suite checks only that each
command still parses.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

from _harness import SRC, child_env, environment
from bench_cli import COMMANDS as README_COMMANDS
from bench_cli import EXPERIMENT_CFG

# the README's experiment config, and an ML run at a larger budget and a fixed codebook size
INPUTS = {
    "experiment.cfg": EXPERIMENT_CFG,
    "experiment-ml.cfg": "n=500\ng=50.0\nr=3.2\nrho=0.5\ndelta=0.3\ndecoder=ml\nm=64\n"
                         "trials=200\nseed=11\n",
}
COMMANDS = {
    **README_COMMANDS,
    "spectrum-negative-thresholds": ["spectrum", "--g", "8", "--rho", "0.5", "--gain", "0.4",
                                     "--n", "500", "--samples", "2000",
                                     "--thresholds=-0.5,0.5"],
    "mi-g500": ["mi", "--input", "trunc-gamma", "--g", "500", "--rho", "0.5", "--gain", "0.4"],
    "mi-i-mmpe-g200": ["mi", "--input", "trunc-gamma", "--g", "200", "--rho", "0.1",
                       "--gain", "0.4", "--i-mmpe"],
    "mi-two-point-9": ["mi", "--input", "two-point", "--points", "1:0.2,5:0.3,9:0.5",
                       "--gain", "0.7", "--i-mmpe"],
    "mi-two-point-40-small-gain": ["mi", "--input", "two-point", "--points",
                                   "1:0.2,5:0.3,40:0.5", "--gain", "1e-11", "--i-mmpe"],
    "mi-two-point-400": ["mi", "--input", "two-point", "--points", "1:0.5,400:0.5",
                         "--gain", "1", "--i-mmpe"],
    "spectrum-g50": ["spectrum", "--input", "trunc-gamma", "--g", "50", "--rho", "0.5",
                     "--gain", "0.4", "--n", "500", "--samples", "500",
                     "--thresholds", "0.3,0.5", "--seed", "7"],
    "experiment-ml": ["experiment", "--config", "experiment-ml.cfg", "--trace", "trials.csv"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(src, argv) -> dict:
    """Exit code and the digests of stdout, stderr and each written file of one fresh process."""
    with tempfile.TemporaryDirectory(prefix="freqcap-golden-") as workdir:
        for name, text in INPUTS.items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(text)
        done = subprocess.run([sys.executable, "-m", "freqcap.cli", *argv], cwd=workdir,
                              env=child_env(src, blas_threads="1"), capture_output=True)
        files = {}
        for name in sorted(set(os.listdir(workdir)) - set(INPUTS)):
            with open(os.path.join(workdir, name), "rb") as fh:
                files[name] = _sha256(fh.read())
    return {"argv": argv, "exit": done.returncode, "stdout": _sha256(done.stdout),
            "stderr": _sha256(done.stderr), "files": files}


def manifest(src) -> dict:
    return {name: run_command(src, argv) for name, argv in COMMANDS.items()}


def main(args):
    if not args:
        doc = {"environment": environment(
                   "scipy", blas_threads=1,
                   command="PYTHONPATH=src python -m freqcap.cli <argv>, one fresh process each"),
               "inputs": INPUTS, "commands": manifest(SRC)}
        print(json.dumps(doc, indent=2))
        return 0
    if len(args) != 2 or args[0] != "--against":
        raise SystemExit("usage: golden.py [--against <checkout>]")
    ours, theirs = manifest(SRC), manifest(os.path.join(args[1], "src"))
    moved = [name for name in COMMANDS if ours[name] != theirs[name]]
    for name in moved:
        fields = [key for key in ("exit", "stdout", "stderr", "files")
                  if ours[name][key] != theirs[name][key]]
        print(f"{name}: {', '.join(fields)} differ ({' '.join(COMMANDS[name])})")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
