"""Frequency-based (molecular-concentration) channel toolkit.

Simulation of the multinomial sampling channel and its Poisson surrogate,
exact and Monte-Carlo information quantities, closed-form capacity bounds
with the DNA-storage translation, and desk-scale random-coding
experiments, all behind a reproducible seeded CLI.

The public names below are imported from their modules on first use (PEP
562), so `import freqcap` loads neither numpy nor scipy, and the capacity
bounds never need either.
"""

import importlib

# module -> the public names the package re-exports from it
_EXPORTS = {
    "capacity_bounds": (
        "BoundReport", "DnaScenario", "achievability_bound", "bound_report", "converse_bound",
        "dna_log_cardinality_lower_bound", "dna_pseudo_rate", "figure2_rows",
        "optimal_sampling_ratio", "stars_and_bars_log_count",
    ),
    "channel": (
        "ChannelParams", "CountVector", "event_poissonization_factor",
        "multinomial_poisson_ratio_log", "poissonization_identity_check", "transmit",
        "transmit_poissonized", "validate_codeword",
    ),
    "coding_experiment": (
        "Codebook", "ExperimentConfig", "ExperimentReport", "decode_ml", "decode_threshold",
        "feinstein_rhs", "generate_codebook", "run_experiment", "select_tau",
    ),
    "distributions": (
        "DiscretePmf", "RngStream", "TruncationInterval", "gamma_half_tail_bounds",
        "multinomial_sample", "poisson_band", "poisson_chernoff_lower_tail", "poisson_entropy",
        "poisson_log_pmf", "truncated_rounded_input_pmf",
    ),
    "mutual_info": (
        "PoissonChannelSpec", "SpectrumEstimate", "bobkov_ledoux_bound", "i_mmpe_integral",
        "information_density", "lipschitz_seminorm", "mmpe", "mutual_information",
        "spectrum_mc", "truncation_loss_terms",
    ),
    "special_math": (
        "binary_entropy", "lambert_w0", "log_factorial", "psi_max_entropy",
        "regularized_gamma_p",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__version__ = "0.1.0"


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
