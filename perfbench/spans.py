"""Span recorder that traces freqcap's layers from outside the package.

The recorder rebinds, for the length of a traced pass, the names through
which one freqcap module calls another (for example
`freqcap.mutual_info.poisson_entropy`), plus a few public methods such as
`PoissonChannelSpec.__init__`. Each wrapped call becomes a span with a
name, a start, an end, its parent span and a few counts. Spans stay in
memory until the pass ends, when `layer_metrics` folds them into the
per-layer metrics listed in BENCHMARK.json. Everything rebound is put
back when the `Recorder.installed()` block exits, also on error.

Classes are never replaced, only their methods: library code checks
`isinstance(..., PoissonChannelSpec)`.
"""

import contextlib
import functools
import importlib
import time

import numpy as np

# A binding is (owner, attribute, span name, annotate). The owner is
# "module" or "module:Member", where the member is a class whose method is
# wrapped or a dict whose entry is rebound. annotate(result, args, kwargs)
# returns the counts a span adds. Owners or attributes that the program no
# longer has are skipped and listed in Recorder.missing.


def _elements(result, args, kwargs):
    return {"elements": int(np.size(args[0] if args else kwargs["k"]))}


def _support(result, args, kwargs):
    return {"support": int(result.size)}


def _spec_cells(result, args, kwargs):
    spec = args[0]
    return {"cells": int(spec.input.size) * (int(spec.z_max) + 1)}


def _letters(result, args, kwargs):
    return {"letters": int(result.n) * int(result.num_samples)}


def _codebook(result, args, kwargs):
    return {"attempts": int(result.attempts), "words": len(result)}


def _scores(result, args, kwargs):
    return {"score_elements": int(result.trials) * int(result.m) * int(result.config["n"])}


def _check_name(result, args, kwargs):
    return {"check": result.name}


_GAMMA_P = "special_math.regularized_gamma_p"
_LOG_FACT = "special_math.log_factorial"

BINDINGS = (
    ("freqcap.distributions", "regularized_gamma_p", _GAMMA_P, None),
    ("freqcap.mutual_info", "regularized_gamma_p", _GAMMA_P, None),
    ("freqcap.diagnostics", "regularized_gamma_p", _GAMMA_P, None),
    # diagnostics imports log_factorial inside a function, from the module itself
    ("freqcap.special_math", "log_factorial", _LOG_FACT, _elements),
    ("freqcap.distributions", "log_factorial", _LOG_FACT, _elements),
    ("freqcap.mutual_info", "log_factorial", _LOG_FACT, _elements),
    ("freqcap.channel", "log_factorial", _LOG_FACT, _elements),
    ("freqcap.capacity_bounds", "log_factorial", _LOG_FACT, _elements),
    ("freqcap.coding_experiment", "log_factorial", _LOG_FACT, _elements),
    ("freqcap.cli", "truncated_rounded_input_pmf", "distributions.input_law", _support),
    ("freqcap.coding_experiment", "truncated_rounded_input_pmf", "distributions.input_law",
     _support),
    ("freqcap.mutual_info", "poisson_entropy", "distributions.poisson_entropy", None),
    ("freqcap.diagnostics", "poisson_entropy", "distributions.poisson_entropy", None),
    ("freqcap.distributions:DiscretePmf", "sample", "distributions.pmf_sample", None),
    ("freqcap.mutual_info:PoissonChannelSpec", "__init__", "mutual_info.spec_build",
     _spec_cells),
    ("freqcap.cli", "mutual_information", "mutual_info.mutual_information", None),
    ("freqcap.coding_experiment", "mutual_information", "mutual_info.mutual_information",
     None),
    ("freqcap.mutual_info", "mmpe", "mutual_info.mmpe", None),
    ("freqcap.cli", "i_mmpe_integral", "mutual_info.i_mmpe_integral", None),
    ("freqcap.cli", "spectrum_mc", "mutual_info.spectrum_mc", _letters),
    ("freqcap.coding_experiment", "spectrum_mc", "mutual_info.spectrum_mc", _letters),
    ("freqcap.cli", "transmit", "channel.transmit", None),
    ("freqcap.coding_experiment", "transmit", "channel.transmit", None),
    ("freqcap.coding_experiment", "select_tau", "coding_experiment.select_tau", None),
    ("freqcap.coding_experiment", "generate_codebook", "coding_experiment.codebook",
     _codebook),
    ("freqcap.coding_experiment", "decode_ml", "coding_experiment.decode_ml", None),
    ("freqcap.cli", "run_experiment", "coding_experiment.run_experiment", _scores),
    ("freqcap.capacity_bounds", "bound_report", "capacity_bounds.bound_report", None),
    ("freqcap.capacity_bounds", "figure2_rows", "capacity_bounds.figure2_rows", None),
    # `run_suite` iterates the check functions held in this dict entry
    ("freqcap.diagnostics:SUITES", "appendix", "diagnostics.check", _check_name),
)

CHECK_NAMES = (
    "poissonization-identity",
    "event-poissonization",
    "poisson-entropy",
    "poisson-v-log-v",
    "poisson-chernoff",
    "gamma-half-tails",
    "hoeffding-mc",
    "relative-chernoff-mc",
    "bobkov-ledoux-mc",
    "sub-gamma-right-tail-mc",
)

SUBCOMMANDS = ("bounds", "dna", "mi", "spectrum", "simulate", "experiment", "verify", "figure2")


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, end, parent, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.counts = counts or {}

    @property
    def duration(self):
        return self.end - self.start


def _resolve(owner):
    module_name, _, member = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, member) if member else obj


def _get(obj, key):
    return obj[key] if isinstance(obj, dict) else getattr(obj, key)


def _set(obj, key, value):
    if isinstance(obj, dict):
        obj[key] = value
    else:
        setattr(obj, key, value)


class Recorder:
    """In-memory span store plus the rebinding that feeds it."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), None, parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, **counts):
        """Span around a block of the benchmark's own code."""
        span = self._open(name)
        span.counts.update(counts)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                # a method's counts may read `self`, which __init__ filled in
                try:
                    span.counts.update(annotate(result, args, kwargs))
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.missing.append(f"counts of {name}")
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, key, name, annotate in BINDINGS:
                try:
                    obj = _resolve(owner)
                    original = _get(obj, key)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{owner}.{key}")
                    continue
                saved.append((obj, key, original))
                if isinstance(obj, dict):  # an entry holding a tuple of functions
                    wrapped = tuple(self.wrap(fn, name, annotate) for fn in original)
                else:
                    wrapped = self.wrap(original, name, annotate)
                _set(obj, key, wrapped)
            yield self
        finally:
            for obj, key, original in reversed(saved):
                _set(obj, key, original)


def self_times(spans):
    """Each span's duration minus the part of it that its direct children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        edge = span.start
        for child in sorted((spans[c] for c in children[index]), key=lambda s: s.start):
            lo = max(child.start, edge)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(span.duration - covered)
    return out


def _outermost(spans):
    """Spans with no ancestor of the same name, so nested calls are not counted twice."""
    keep = []
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        keep.append(parent is None)
    return keep


def _percentile_ms(durations, q):
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def layer_metrics(spans):
    """Fold one pass's spans into the per-layer metrics (0 where a layer never ran)."""
    outer = _outermost(spans)
    own = self_times(spans)
    seconds, calls, durations, totals = {}, {}, {}, {}
    selfs = {}
    for span, is_outer, self_s in zip(spans, outer, own):
        name = span.name
        if name == "diagnostics.check":
            name = f"diagnostics.check.{span.counts.get('check', 'unknown')}"
        elif name == "cli.command":
            name = f"cli.command.{span.counts.get('subcommand', 'unknown')}"
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(span.duration)
        selfs[name] = selfs.get(name, 0.0) + self_s
        if is_outer:
            seconds[name] = seconds.get(name, 0.0) + span.duration
        for key, value in span.counts.items():
            if isinstance(value, (int, float)):
                totals[(name, key)] = totals.get((name, key), 0) + value

    def s(name):
        return seconds.get(name, 0.0)

    def total(name, key):
        return totals.get((name, key), 0)

    cells = total("mutual_info.spec_build", "cells")
    letters = total("mutual_info.spectrum_mc", "letters")
    attempts = total("coding_experiment.codebook", "attempts")
    metrics = {
        "special_math.regularized_gamma_p.calls": calls.get(_GAMMA_P, 0),
        "special_math.regularized_gamma_p.s": s(_GAMMA_P),
        "special_math.log_factorial.elements": total(_LOG_FACT, "elements"),
        "special_math.log_factorial.s": s(_LOG_FACT),
        "distributions.input_law.s": s("distributions.input_law"),
        "distributions.input_law.support": total("distributions.input_law", "support"),
        "distributions.poisson_entropy.calls": calls.get("distributions.poisson_entropy", 0),
        "distributions.poisson_entropy.s": s("distributions.poisson_entropy"),
        "distributions.pmf_sample.s": s("distributions.pmf_sample"),
        "mutual_info.spec_build.s": s("mutual_info.spec_build"),
        "mutual_info.spec_cells": cells,
        "mutual_info.spec_bytes_computed": cells * 8,
        "mutual_info.mutual_information.s": s("mutual_info.mutual_information"),
        "mutual_info.mmpe.calls": calls.get("mutual_info.mmpe", 0),
        "mutual_info.mmpe.s": s("mutual_info.mmpe"),
        "mutual_info.i_mmpe_integral.s": s("mutual_info.i_mmpe_integral"),
        "mutual_info.spectrum_mc.s": s("mutual_info.spectrum_mc"),
        "mutual_info.spectrum_letters": letters,
        "mutual_info.spectrum_letters_per_s": (
            letters / s("mutual_info.spectrum_mc") if letters else 0.0
        ),
        "channel.transmit.calls": calls.get("channel.transmit", 0),
        "channel.transmit.s": s("channel.transmit"),
        "channel.transmit.p50_ms": _percentile_ms(durations.get("channel.transmit", []), 50),
        "channel.transmit.p99_ms": _percentile_ms(durations.get("channel.transmit", []), 99),
        "coding_experiment.select_tau.s": s("coding_experiment.select_tau"),
        "coding_experiment.codebook.s": s("coding_experiment.codebook"),
        "coding_experiment.codebook.attempts": attempts,
        "coding_experiment.codebook.accept_rate": (
            total("coding_experiment.codebook", "words") / attempts if attempts else 0.0
        ),
        "coding_experiment.decode_ml.calls": calls.get("coding_experiment.decode_ml", 0),
        "coding_experiment.decode_ml.s": s("coding_experiment.decode_ml"),
        "coding_experiment.decode_ml.p50_ms": _percentile_ms(
            durations.get("coding_experiment.decode_ml", []), 50
        ),
        "coding_experiment.decode_ml.p98_ms": _percentile_ms(
            durations.get("coding_experiment.decode_ml", []), 98
        ),
        "coding_experiment.self_s": selfs.get("coding_experiment.run_experiment", 0.0),
        "coding_experiment.score_elements": total(
            "coding_experiment.run_experiment", "score_elements"
        ),
        "capacity_bounds.bound_report.s": s("capacity_bounds.bound_report"),
        "capacity_bounds.figure2_rows.s": s("capacity_bounds.figure2_rows"),
    }
    for check in CHECK_NAMES:
        metrics[f"diagnostics.check.{check}.s"] = s(f"diagnostics.check.{check}")
    for sub in SUBCOMMANDS:
        metrics[f"cli.command.{sub}.s"] = s(f"cli.command.{sub}")
    return metrics
