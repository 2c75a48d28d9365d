"""Benchmark entry point: run one freqcap workload and print its metrics.

    python3 perfbench/run.py --workload surrogate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Each workload runs in fresh worker processes (worker.py), one after the
other, with BLAS and OpenMP threads capped at the number of CPUs this
process may use. Set-up time is the median over SETUP_SAMPLES fresh
workers of the CPU seconds each spends from its start to READY.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The line before it is a report with the environment, the per-operation
times and every failed check. The exit code is 1 when a check failed, and
2 when the run could not be made at all, in which case nothing is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170


def _child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("FREQCAP_SEED", None)
    return env


def _run_worker(args, extra, deadline):
    """Start a worker and wait for it.

    Returns the wall seconds from its start to READY, the CPU seconds it
    reported at READY, and its last line of output.
    """
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=_child_env(),
                            cwd=ROOT)
    lines = []

    def pump():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=pump)
    reader.start()
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {' '.join(extra)} overran the time limit") from None
    finally:
        reader.join()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    ready = [(t, line.split()[1]) for t, line in lines if line.startswith("READY ")]
    if not ready:
        raise RuntimeError("worker never reported READY")
    return ready[0][0] - start, float(ready[0][1]), lines[-1][1]


def _git_commit():
    try:
        # the ceiling keeps git from reporting a repository that merely encloses ROOT
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "freqcap" / "cli.py").is_file():
        print(f"no freqcap sources under {ROOT / 'src'}; run from a freqcap checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(_run_worker(args, ["--setup-only"], deadline)[:2])
        ready_s, ready_cpu_s, last = _run_worker(args, [], deadline)
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            (ROOT / ".perfbench-tmp").rmdir()
        except OSError:
            pass
    setup.append((ready_s, ready_cpu_s))
    result = json.loads(last)

    if args.trace:
        wanted = spec["per_layer"]
    else:
        result["metrics"]["setup_s"] = statistics.median(cpu for _, cpu in setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = len(result["failures"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "environment": result["environment"],
        "sizes": result["sizes"],
        "setup_samples_s": [{"wall": wall, "cpu": cpu} for wall, cpu in setup],
        "pass_s": result["pass_s"],
        "batch_wall_s": result.get("batch_wall_s"),
        "untraced_pass_s": result.get("untraced_pass_s"),
        "op_s": result.get("op_s"),
        "unbound_names": result.get("unbound_names"),
        "failed_share": failed / result["attempted"],
        "failures": result["failures"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
