"""Cold-start benchmark: what `import freqcap.cli` costs a fresh process.

Imports the CLI in SAMPLES fresh processes per source tree and records,
per tree, the median and quartiles of the CPU seconds the import takes,
the peak RSS (`ru_maxrss`) once it is done, and the `scipy.*` modules it
has loaded:

    python scripts/bench_import.py                       # this checkout's src/
    python scripts/bench_import.py parent=/path/to/other/src change=src > BENCH_import.json

Each argument is `label=path` to a directory that holds the `freqcap`
package; results are keyed by label. The trees take turns process by
process, so drift over the run falls on every tree alike.
"""

import json
import statistics
import subprocess
import sys

from _harness import child_env, environment, parse_trees

SAMPLES = 21
CHILD = (
    "import resource, sys, time\n"
    "c0 = time.process_time()\n"
    "import freqcap.cli\n"
    "cpu = time.process_time() - c0\n"
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "scipy = sorted(m for m in sys.modules if m.startswith('scipy.'))\n"
    "print(cpu, rss, len(scipy), *{'.'.join(m.split('.')[:2]) for m in scipy})\n"
)


def _import_once(src):
    done = subprocess.run([sys.executable, "-c", CHILD], env=child_env(src),
                          capture_output=True, text=True, check=True)
    cpu, rss, count, *packages = done.stdout.split()
    return float(cpu), int(rss), int(count), sorted(packages)


def main(trees):
    runs = {label: [] for label in trees}
    for _ in range(SAMPLES):
        for label, src in trees.items():
            runs[label].append(_import_once(src))
    results = {}
    for label, samples in runs.items():
        cpu = [s[0] for s in samples]
        q1, median, q3 = statistics.quantiles(cpu, n=4)
        results[label] = {
            "import_cpu_s_median": median,
            "import_cpu_s_quartiles": [q1, q3],
            "import_cpu_s": cpu,
            "ru_maxrss_kb_median": statistics.median(s[1] for s in samples),
            "scipy_modules": samples[0][2],
            "scipy_subpackages": samples[0][3],
        }
    doc = {
        "benchmark": f"`import freqcap.cli` in {SAMPLES} fresh processes per tree: CPU s of "
                     "the import, ru_maxrss after it (KiB), scipy.* modules loaded",
        "environment": environment("scipy"),
        "results": results,
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main(parse_trees(sys.argv[1:]))
