"""Mutation check: does the tier-1 suite notice one-line faults in `src/`?

Each mutation below swaps one line of one file under `src/freqcap/` for a
faulty one. Per mutation the script copies this checkout, without `.git`,
to a temporary directory, applies the mutation there (the checkout itself
is never touched) and runs the tier-1 command on the copy:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

A test kills a mutation when it fails on the mutant and passed on an
unmutated copy, which runs first. A mutation that no test kills is a
survivor: it needs a new test, or a note of why none can tell.

    python scripts/mutate.py > MUTATION.json            # every mutation
    python scripts/mutate.py tau-one-off-the-mode       # only the named ones

Each run takes about as long as the tier-1 suite (50 s on 2 CPUs).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from _harness import child_env, environment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "-rfE"]

# name: (file under src/freqcap, the line as it stands, the faulty line)
MUTATIONS = {
    "band-half-width-halved": (
        "distributions.py",
        "    half = 12.0 * np.sqrt(lam + 1.0) + 40.0",
        "    half = 0.5 * (12.0 * np.sqrt(lam + 1.0) + 40.0)",
    ),
    "entropy-series-last-coefficient-dropped": (
        "distributions.py",
        "    -1 / 12, -1 / 24, -19 / 360, -9 / 80, -863 / 2520, -1375 / 1008, -33953 / 5040, "
        "-57281 / 1440",
        "    -1 / 12, -1 / 24, -19 / 360, -9 / 80, -863 / 2520, -1375 / 1008, -33953 / 5040",
    ),
    "band-tails-sides-swapped": (
        "distributions.py",
        "    below, above = lo - 1.0, hi + 1.0",
        "    above, below = lo - 1.0, hi + 1.0",
    ),
    "window-lower-tail-dropped": (
        "distributions.py",
        "    return np.where(below < 0.0, 0.0, np.exp(-lower)) + np.exp(-upper)",
        "    return np.exp(-upper)",
    ),
    "band-gate-lets-nan-through": (
        "mutual_info.py",
        "        if not self.band_missed_mass <= _BAND_ALLOWANCE:",
        "        if self.band_missed_mass > _BAND_ALLOWANCE:",
    ),
    "chernoff-window-upper-end-one-short": (
        "distributions.py",
        "    return lo.astype(np.int64), np.floor(hi).astype(np.int64)",
        "    return lo.astype(np.int64), np.floor(hi).astype(np.int64) - 1",
    ),
    "chernoff-window-lower-end-one-long": (
        "distributions.py",
        "    lo[far] = np.ceil(n)",
        "    lo[far] = np.ceil(n) + 1",
    ),
    "chernoff-window-newton-cut-to-one-step": (
        "distributions.py",
        "_WINDOW_STEPS = 6",
        "_WINDOW_STEPS = 1",
    ),
    "chernoff-window-upper-end-starts-at-the-mean": (
        "distributions.py",
        "    hi = top + log_inv / 3.0 + np.sqrt(log_inv * log_inv / 9.0 + 2.0 * top * log_inv)",
        "    hi = top + 0.0 * log_inv",
    ),
    "lambert-w-halley-cut-to-one-step": (
        "special_math.py",
        "_W_STEP_TOL = 1e-8",
        "_W_STEP_TOL = math.inf",
    ),
    "poissonization-box-only-slab-y0-0": (
        "channel.py",
        "    for y0 in grids[0]:",
        "    for y0 in grids[0][:1]:",
    ),
    "row-runs-window-end-one-short": (
        "distributions.py",
        "        runs.append((a, b, int(lo[a]), int(hi[b - 1])))",
        "        runs.append((a, b, int(lo[a]), int(hi[b - 1]) - 1))",
    ),
    "tau-one-off-the-mode": (
        "coding_experiment.py",
        "    mode = int(np.argmax(law >= law.max() * (1.0 - 1e-12)))",
        "    mode = int(np.argmax(law >= law.max() * (1.0 - 1e-12))) + 1",
    ),
    "sum-law-fft-one-bin-short": (
        "coding_experiment.py",
        "    length = 1 << (size - 1).bit_length()",
        "    length = 1 << (size - 2).bit_length()",
    ),
    "screen-factor-gamma64-dropped": (
        "coding_experiment.py",
        "    c = _U32 + gamma32 * (1.0 + _U32) + gamma64",
        "    c = _U32 + gamma32 * (1.0 + _U32)",
    ),
    "bobkov-ledoux-exponent-times-100": (
        "diagnostics.py",
        "    return _least_over_tilts(lambda s: copies * np.log(rows.sums(s)).sum() + s * a)",
        "    return 100 * _least_over_tilts(lambda s: copies * np.log(rows.sums(s)).sum() + s * a)",
    ),
    "spec-keeps-zero-weight-rows": (
        "mutual_info.py",
        "    rows = input_pmf.probs > 0.0",
        "    rows = input_pmf.probs >= 0.0",
    ),
    "rows-support-check-off-by-one": (
        "mutual_info.py",
        "    if input_pmf.support_offset < 1:",
        "    if input_pmf.support_offset < 0:",
    ),
    "quadrature-ladder-keeps-base-level": (
        "mutual_info.py",
        "        coarse = fine",
        "",
    ),
    "chernoff-holder-tail-dropped": (
        "mutual_info.py",
        "        return out + self._tails ** (1 - s) * self._tail**s",
        "        return out",
    ),
    "tails-geometric-remainder-dropped": (
        "mutual_info.py",
        "                np.exp(lp[:, :-1]).sum(axis=1) + np.exp(lp[:, -1]) * (z + 1) "
        "/ (z + 1 - lams[rows])",
        "                np.exp(lp[:, :-1]).sum(axis=1)",
    ),
    "tails-window-starts-at-z-max": (
        "mutual_info.py",
        "        k = spec.z_max + 1",
        "        k = spec.z_max",
    ),
    "feinstein-exponent-times-2": (
        "coding_experiment.py",
        "    return _least_over_tilts(",
        "    return 2 * _least_over_tilts(",
    ),
    "least-tilt-bisection-reversed": (
        "mutual_info.py",
        "        if at(mid + 1) < at(mid):",
        "        if at(mid + 1) > at(mid):",
    ),
    "feinstein-threshold-correction-dropped": (
        "coding_experiment.py",
        "    log_threshold = log_gamma + correction",
        "    log_threshold = log_gamma",
    ),
    "log-factorial-table-uncompensated": (
        "special_math.py",
        "        values[k] = total + error",
        "        values[k] = total",
    ),
    "input-law-upper-cells-from-erf": (
        "distributions.py",
        "    sf = np.fromiter(map(math.erfc, roots[split:]), float)",
        "    sf = 1.0 - np.fromiter(map(math.erf, roots[split:]), float)",
    ),
}


def mutate(tree, name):
    """Apply mutation `name` to the copy at `tree`; the line must occur exactly once."""
    filename, before, after = MUTATIONS[name]
    path = os.path.join(tree, "src", "freqcap", filename)
    with open(path) as fh:
        lines = fh.read().split("\n")
    hits = [i for i, line in enumerate(lines) if line == before]
    if len(hits) != 1:
        raise SystemExit(f"{name}: {filename} holds the line {len(hits)} times, not once")
    lines[hits[0]] = after
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def failures(name=None):
    """The test ids that fail or error on a fresh copy, mutated by `name` if given,
    and the run's wall seconds."""
    with tempfile.TemporaryDirectory(prefix="freqcap-mutant-") as parent:
        tree = os.path.join(parent, "checkout")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        if name is not None:
            mutate(tree, name)
        start = time.perf_counter()
        done = subprocess.run(TIER1, cwd=tree, env=child_env(os.path.join(tree, "src")),
                              capture_output=True, text=True, timeout=1800)
        seconds = time.perf_counter() - start
    failed = sorted({line.split(" ", 1)[1].split(" - ", 1)[0]
                     for line in done.stdout.splitlines()
                     if line.startswith(("FAILED ", "ERROR "))})
    return failed, seconds


def main(names):
    unknown = [name for name in names if name not in MUTATIONS]
    if unknown:
        raise SystemExit(f"unknown mutations {unknown}; known: {sorted(MUTATIONS)}")
    baseline, seconds = failures()
    print(f"unmutated: {len(baseline)} failing, {seconds:.0f} s: {baseline}", file=sys.stderr)
    results = {}
    for name in names or MUTATIONS:
        failed, seconds = failures(name)
        killed_by = [test for test in failed if test not in baseline]
        print(f"{name}: killed by {len(killed_by)}, {seconds:.0f} s", file=sys.stderr)
        filename, before, after = MUTATIONS[name]
        results[name] = {"file": f"src/freqcap/{filename}", "line": before.strip(),
                         "mutant": after.strip(), "killed_by": killed_by}
    doc = {
        "environment": environment("scipy", "pytest", "hypothesis"),
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "failing_unmutated": baseline,
        "mutations": results,
        "survivors": [name for name, result in results.items() if not result["killed_by"]],
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
