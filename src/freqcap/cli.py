"""Command-line front end: every computation as a reproducible subcommand.

All numeric output is in nats unless --bits is given on subcommands that
support it. Every command prints JSON, except `verify` (one line per check)
and `figure2` (a CSV file); identical arguments always produce
byte-identical output. Seeds come from --seed (else 0) or an experiment config.

The capacity commands (`bounds`, `dna`, `figure2`) run on the standard
library alone. numpy and the numeric modules load when a command that needs
them runs: each such handler binds the names of `_NUMERIC` as module globals
first, and reads them from there.
"""

import argparse
import dataclasses
import functools
import importlib
import json
import math
import sys

from . import capacity_bounds as cb
from .special_math import NATS_PER_BIT

__all__ = ["run", "main"]

# module -> the names its handlers read as globals of this module; numpy is bound as `np`.
# A name that is bound already keeps its value: perfbench/spans.py rebinds some of them
# here to trace them.
_NUMERIC = {
    ".channel": ("ChannelParams", "CountVector", "transmit", "transmit_poissonized"),
    ".coding_experiment": ("ExperimentConfig", "run_experiment"),
    ".diagnostics": ("run_suite",),
    ".distributions": ("_SUPPORT_CAP", "DiscretePmf", "RngStream", "truncated_rounded_input_pmf"),
    ".mutual_info": ("PoissonChannelSpec", "i_mmpe_integral", "mutual_information",
                     "spectrum_mc"),
}


def _bind_numeric():
    """Import numpy and the modules of `_NUMERIC`, and bind each of their names that is not
    bound yet."""
    bound = globals()
    bound.setdefault("np", importlib.import_module("numpy"))
    for module, names in _NUMERIC.items():
        source = importlib.import_module(module, __package__)
        for name in names:
            bound.setdefault(name, getattr(source, name))


def __getattr__(name):
    if name == "np" or any(name in names for names in _NUMERIC.values()):
        _bind_numeric()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _numeric(handler):
    """`handler`, run after `_bind_numeric`."""

    @functools.wraps(handler)
    def bound(args):
        _bind_numeric()
        return handler(args)

    return bound


def _to_bits(payload):
    """Copy a payload with every *_nats field divided by ln 2 and renamed *_bits."""
    if isinstance(payload, dict):
        out = {}
        for key, value in payload.items():
            if key.endswith("_nats") and isinstance(value, (int, float)):
                out[key[: -len("_nats")] + "_bits"] = value / NATS_PER_BIT
            else:
                out[key] = _to_bits(value)
        return out
    if isinstance(payload, list):
        return [_to_bits(v) for v in payload]
    return payload


def _emit(payload, args):
    if getattr(args, "bits", False):
        payload = _to_bits(payload)
    print(json.dumps(payload, sort_keys=True, indent=2))


def _parse_input_law(args):
    if args.input == "trunc-gamma":
        if args.g is None:
            raise ValueError("--input trunc-gamma needs --g")
        return truncated_rounded_input_pmf(args.g, args.rho)
    if args.input == "point":
        if args.value is None or args.value < 1:
            raise ValueError("--input point needs --value >= 1")
        return DiscretePmf(int(args.value), np.array([0.0]))
    if args.input == "two-point":
        pairs = []
        for item in (args.points or "1:0.5,3:0.5").split(","):
            point, _, weight = item.partition(":")
            pairs.append((int(point), float(weight)))
        pairs.sort()
        for (point, _), (following, _) in zip(pairs, pairs[1:]):
            if point == following:
                raise ValueError(f"--points repeats the point {point}")
        lo, hi = pairs[0][0], pairs[-1][0]
        if hi - lo + 1 > _SUPPORT_CAP:
            raise ValueError(f"--points spans {hi - lo + 1} points, above the cap {_SUPPORT_CAP}")
        weights = np.zeros(hi - lo + 1)
        for point, weight in pairs:
            weights[point - lo] = weight
        return DiscretePmf.from_weights(lo, weights)
    raise ValueError(f"unknown input law {args.input!r}")


def _cmd_bounds(args):
    report = cb.bound_report(args.g, args.r)
    payload = report.to_dict()
    payload["config"] = {"g": args.g, "r": args.r}
    _emit(payload, args)
    return 0


def _cmd_dna(args):
    beta = args.beta_log_a / math.log(args.alphabet)
    scenario = cb.dna_log_cardinality_lower_bound(
        args.kl, beta, args.alphabet, use_optimized_ratio=args.optimized_ratio
    )
    payload = scenario.to_dict()
    payload["config"] = {
        "alphabet": args.alphabet,
        "beta": beta,
        "kl": args.kl,
        "optimized_ratio": args.optimized_ratio,
    }
    _emit(payload, args)
    return 0


@_numeric
def _cmd_mi(args):
    input_pmf = _parse_input_law(args)
    spec = PoissonChannelSpec(input_pmf, args.gain)
    payload = {
        "mi_nats": mutual_information(spec),
        "support_size": input_pmf.size,
        "support_offset": input_pmf.support_offset,
        "z_max": spec.z_max,
        "config": {
            "input": args.input,
            "gain": args.gain,
            "g": args.g,
            "rho": args.rho,
            "value": args.value,
            "points": args.points,
        },
    }
    if args.i_mmpe:
        payload["i_mmpe_nats"] = i_mmpe_integral(input_pmf, args.gain)
    if args.dump_input:
        payload["input_pmf"] = {
            "offset": input_pmf.support_offset,
            "log_weights": input_pmf.log_weights.tolist(),
        }
    _emit(payload, args)
    return 0


@_numeric
def _cmd_spectrum(args):
    input_pmf = _parse_input_law(args)
    spec = PoissonChannelSpec(input_pmf, args.gain)
    thresholds = [float(t) for t in args.thresholds.split(",")] if args.thresholds else []
    estimate = spectrum_mc(spec, args.n, args.samples, RngStream(args.seed), thresholds)
    payload = dataclasses.asdict(estimate)
    payload["config"] = {
        "input": args.input, "gain": args.gain, "g": args.g, "rho": args.rho,
        "n": args.n, "samples": args.samples, "seed": args.seed, "thresholds": thresholds,
    }
    _emit(payload, args)
    return 0


@_numeric
def _cmd_simulate(args):
    counts = CountVector([int(c) for c in args.codeword.split(",")])
    kernel = None
    if args.kernel:
        with open(args.kernel) as fh:
            kernel = np.asarray(json.load(fh), dtype=float)
    params = ChannelParams(counts.n, args.g, args.r, kernel)
    rng = RngStream(args.seed)
    if args.poissonized:
        out = transmit_poissonized(counts, params, rng)
    else:
        out = transmit(counts, params, rng)
    payload = {
        "output": out.counts.tolist(),
        "output_total": out.total,
        "config": {
            "n": counts.n, "g": args.g, "r": args.r, "codeword": args.codeword,
            "poissonized": args.poissonized, "seed": args.seed, "kernel": args.kernel,
        },
    }
    _emit(payload, args)
    return 0


@_numeric
def _cmd_experiment(args):
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = run_experiment(config, trace_path=args.trace)
    print(report.to_json())
    return 0


@_numeric
def _cmd_verify(args):
    results = run_suite(args.suite)
    failed = 0
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        failed += 0 if result.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


_DEFAULT_BETA_LOG_A = "0.6,0.7,0.76,0.9"
_DEFAULT_KL = "1e18,1e19,1e20,1e21,4e21,1e22,1e23,1e24"


def _cmd_figure2(args):
    ln_a = math.log(args.alphabet)
    betas = [float(b) / ln_a for b in args.beta_log_a.split(",")] if args.beta_log_a else []
    kls = [float(k) for k in args.kl.split(",")]
    rows, warnings = cb.figure2_rows(betas, kls, args.alphabet)
    try:
        with open(args.out, "w") as fh:
            fh.write(cb.figure2_csv(rows, warnings))
    except OSError as exc:
        raise OSError(f"cannot write figure table to {args.out}: {exc}") from exc
    for warning in warnings:
        print(warning, file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="freqcap",
        description="Frequency-based channel: capacity bounds, information quantities, "
        "simulation, and random-coding experiments.",
    )
    # no abbreviated flags: each flag has one spelling, so `--beta` is no `--beta-log-a`
    exact = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=exact)

    def common(p, bits=False, seed=False):
        if bits:
            p.add_argument("--bits", action="store_true", help="emit *_nats fields in bits")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bounds", help="converse/achievability rate bounds at (g, r)")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    common(p, bits=True)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("dna", help="short-molecule DNA storage bound")
    p.add_argument("--alphabet", type=int, default=4)
    p.add_argument("--beta-log-a", type=float, required=True, dest="beta_log_a",
                   help="beta expressed as the product beta * ln|A|")
    p.add_argument("--kl", type=float, required=True, help="total symbol count K*L")
    p.add_argument("--optimized-ratio", action="store_true", dest="optimized_ratio")
    common(p, bits=True)
    p.set_defaults(handler=_cmd_dna)

    def input_flags(p):
        p.add_argument("--input", choices=("trunc-gamma", "point", "two-point"),
                       default="trunc-gamma")
        p.add_argument("--g", type=float, default=None)
        p.add_argument("--rho", type=float, default=0.1)
        p.add_argument("--value", type=int, default=None, help="point-mass location")
        p.add_argument("--points", type=str, default=None, help="two-point law 'x1:w1,x2:w2'")
        p.add_argument("--gain", type=float, required=True)

    p = sub.add_parser("mi", help="exact mutual information of the surrogate channel")
    input_flags(p)
    p.add_argument("--i-mmpe", action="store_true", dest="i_mmpe",
                   help="also evaluate the estimation-error integral form")
    p.add_argument("--dump-input", action="store_true", dest="dump_input",
                   help="include the input law as {offset, log_weights}")
    common(p, bits=True)
    p.set_defaults(handler=_cmd_mi)

    p = sub.add_parser("spectrum", help="Monte-Carlo information-spectrum estimate")
    input_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--thresholds", type=str, default=None)
    common(p, seed=True)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("simulate", help="one channel transmission")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--codeword", type=str, required=True, help="comma-separated counts")
    p.add_argument("--poissonized", action="store_true")
    p.add_argument("--kernel", type=str, default=None, help="JSON file with an n x n kernel")
    common(p, seed=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("experiment", help="full random-coding experiment from a config file")
    p.add_argument("--config", type=str, required=True, help="flat key=value file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--trace", type=str, default=None, help="per-trial CSV trace path")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("verify", help="run the certified property checks")
    p.add_argument("--suite", type=str, default="appendix")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("figure2", help="emit the storage-bound CSV table")
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--alphabet", type=int, default=4)
    p.add_argument("--beta-log-a", type=str, default=_DEFAULT_BETA_LOG_A, dest="beta_log_a",
                   help="comma-separated beta*ln|A| values")
    p.add_argument("--kl", type=str, default=_DEFAULT_KL, help="comma-separated KL values")
    p.set_defaults(handler=_cmd_figure2)

    return parser


def run(argv) -> int:
    """Dispatch argv; exit code 0 on success, 1 on domain error, 2 on usage error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, RuntimeError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
