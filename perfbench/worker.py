"""One benchmark worker process: set up a workload, run it, check it, report.

Started by run.py with PYTHONPATH pointing at the checkout's `src/`. The
worker imports `freqcap.cli` and writes the workload's inputs, then
prints READY with the CPU seconds it has used so far (its set-up time).
It then runs passes over the workload's operations until `--seconds` is
spent and prints one JSON result line. Times are kept as wall and CPU
seconds; CPU seconds count every thread and, for fresh processes, the
child's own usage.

With `--trace 0` every pass is untraced and the program is driven exactly
as a user drives it: in-process `cli.run` calls, or fresh
`python -m freqcap.cli` processes for `cli-fresh`. With `--trace 1` half
the time goes to untraced in-process passes and half to passes under the
span recorder; each traced output must equal the untraced one.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench-tmp"
PROCESS_TIMEOUT_S = 120
IMPORT_SAMPLES = 3
MIN_PASSES = 2


class Timing(NamedTuple):
    wall: float
    cpu: float

    def __add__(self, other):
        return Timing(self.wall + other.wall, self.cpu + other.cpu)


def _cpu_seconds(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _run_in_process(cli, op, recorder=None):
    out, err = io.StringIO(), io.StringIO()
    span = recorder.span("cli.command", subcommand=op.argv[0]) if recorder else (
        contextlib.nullcontext())
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        start, cpu = time.perf_counter(), _cpu_seconds(resource.RUSAGE_SELF)
        code = cli.run(op.argv)
        elapsed = time.perf_counter() - start
        cpu = _cpu_seconds(resource.RUSAGE_SELF) - cpu
    return Timing(elapsed, cpu), code, out.getvalue()


def _run_fresh(op):
    start, cpu = time.perf_counter(), _cpu_seconds(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "freqcap.cli", *op.argv],
        capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, cwd=ROOT,
    )
    elapsed = time.perf_counter() - start
    cpu = _cpu_seconds(resource.RUSAGE_CHILDREN) - cpu
    return Timing(elapsed, cpu), proc.returncode, proc.stdout


class Tally:
    """Runs a workload's operations, checks each output and counts the failures."""

    def __init__(self, workload, reference=None):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failures = []
        self.outputs = {}
        self.times = {}

    def run(self, runner):
        """One pass over the operations with `runner`; returns their summed times."""
        total = Timing(0.0, 0.0)
        for op in self.workload.ops:
            self.attempted += 1
            out, timing = None, None
            try:
                timing, code, out = runner(op)
                total += timing
                if code != 0:
                    problem = f"exit code {code}"
                else:
                    problem = op.check(out)
                if problem is None and self.reference is not None and (
                    out != self.reference[op.label]
                ):
                    problem = "output differs from the untraced run's"
            except Exception:  # an operation's failure is counted, the run goes on
                traceback.print_exc()
                problem = "raised an exception"
            if problem is not None:
                self.failures.append(f"{op.label}: {problem}")
                print(f"check failed: {op.label}: {problem}", file=sys.stderr)
            self.outputs[op.label] = out
            self.times.setdefault(op.label, []).append(timing)
        return total


def _measure(seconds, run_pass):
    """Run passes until starting another would overrun `seconds`; at least MIN_PASSES."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(run_pass())
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_PASSES and elapsed + _median([t.wall for t in times]) > seconds:
            return times


def _import_cpu_seconds():
    code = (
        "import time; t = time.process_time(); import freqcap.cli; "
        "print(time.process_time() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S, cwd=ROOT, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _median(values):
    return statistics.median(values) if values else None


def _untraced(cli, workload, seconds):
    tally = Tally(workload)
    if workload.fresh_processes:
        times = _measure(seconds, lambda: tally.run(_run_fresh))
        usage = resource.RUSAGE_CHILDREN
    else:
        times = _measure(seconds, lambda: tally.run(lambda op: _run_in_process(cli, op)))
        usage = resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    op_s = {}
    for label, values in tally.times.items():
        values = [v for v in values if v is not None]
        op_s[f"{label}_s"] = _median([v.wall for v in values])
        op_s[f"{label}_cpu_s"] = _median([v.cpu for v in values])
    return [tally], {
        "pass_s": [t._asdict() for t in times],
        "batch_wall_s": _median([t.wall for t in times]),
        "op_s": op_s,
        "metrics": {"batch_cpu_s": _median([t.cpu for t in times]), "peak_rss_mb": peak_mb},
    }


def _traced(cli, workload, seconds):
    untraced = Tally(workload)
    untraced_times = _measure(
        seconds / 2, lambda: untraced.run(lambda op: _run_in_process(cli, op)))
    traced = Tally(workload, untraced.outputs)
    tallies = [untraced, traced]
    if workload.fresh_processes:
        # the in-process replay must print what the fresh processes print
        fresh = Tally(workload, untraced.outputs)
        fresh.run(_run_fresh)
        tallies.append(fresh)

    per_pass = []
    missing = set()

    def traced_pass():
        recorder = spans.Recorder()
        with recorder.installed():
            elapsed = traced.run(lambda op: _run_in_process(cli, op, recorder))
        per_pass.append(spans.layer_metrics(recorder.spans))
        missing.update(recorder.missing)
        return elapsed

    traced_times = _measure(seconds / 2, traced_pass)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["cli.import_s"] = _import_cpu_seconds()
    metrics["trace.overhead_s"] = (_median([t.cpu for t in traced_times])
                                   - _median([t.cpu for t in untraced_times]))
    return tallies, {
        "pass_s": [t._asdict() for t in traced_times],
        "untraced_pass_s": [t._asdict() for t in untraced_times],
        "unbound_names": sorted(missing),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import freqcap.cli as cli

    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        print(f"freqcap was imported from {cli.__file__}, not from this checkout's src/",
              file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        print(f"READY {_cpu_seconds(resource.RUSAGE_SELF)}", flush=True)
        if args.setup_only:
            return 0
        measure = _traced if args.trace else _untraced
        tallies, result = measure(cli, workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["attempted"] = sum(t.attempted for t in tallies)
    result["failures"] = [f for t in tallies for f in t.failures]
    result["sizes"] = workload.sizes
    result["environment"] = _environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
