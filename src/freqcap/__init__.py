"""Frequency-based (molecular-concentration) channel toolkit.

Simulation of the multinomial sampling channel and its Poisson surrogate,
exact and Monte-Carlo information quantities, closed-form capacity bounds
with the DNA-storage translation, and desk-scale random-coding
experiments, all behind a reproducible seeded CLI.
"""

from .capacity_bounds import (
    BoundReport,
    DnaScenario,
    achievability_bound,
    bound_report,
    converse_bound,
    dna_log_cardinality_lower_bound,
    dna_pseudo_rate,
    figure2_rows,
    optimal_sampling_ratio,
    stars_and_bars_log_count,
)
from .channel import (
    ChannelParams,
    CountVector,
    event_poissonization_factor,
    multinomial_poisson_ratio_log,
    poissonization_identity_check,
    transmit,
    transmit_poissonized,
    validate_codeword,
)
from .coding_experiment import (
    Codebook,
    ExperimentConfig,
    ExperimentReport,
    decode_ml,
    decode_threshold,
    feinstein_rhs,
    generate_codebook,
    run_experiment,
    select_tau,
)
from .distributions import (
    DiscretePmf,
    RngStream,
    TruncationInterval,
    gamma_half_tail_bounds,
    multinomial_sample,
    poisson_band,
    poisson_chernoff_lower_tail,
    poisson_entropy,
    poisson_log_pmf,
    truncated_rounded_input_pmf,
)
from .mutual_info import (
    PoissonChannelSpec,
    SpectrumEstimate,
    bobkov_ledoux_bound,
    i_mmpe_integral,
    information_density,
    lipschitz_seminorm,
    mmpe,
    mutual_information,
    spectrum_mc,
    truncation_loss_terms,
)
from .special_math import (
    binary_entropy,
    lambert_w0,
    log_factorial,
    psi_max_entropy,
    regularized_gamma_p,
)

__version__ = "0.1.0"
