"""Closed-form capacity bounds, the optimal sampling ratio, and DNA-storage translation.

The channel rate bounds are per object type, in nats:

  converse       0.5 * ln(min(r, e*g))
  achievability  0.5 * ln(r) - psi_max_entropy(r / g)

Finite-size corrections vanishing with the number of types are omitted
everywhere and recorded in the report notes. The DNA translation works in
the short-molecule regime where the strand count K, strand length L, and
nucleotide total K*L are tied through L solving L = beta * W(K L / beta).
"""

import math
from dataclasses import dataclass, field

from .special_math import NATS_PER_BIT, _lambert_w, lambert_w0, log_factorial, psi_max_entropy

__all__ = [
    "BoundReport",
    "DnaScenario",
    "converse_bound",
    "achievability_bound",
    "bound_report",
    "optimal_sampling_ratio",
    "stars_and_bars_log_count",
    "dna_pseudo_rate",
    "dna_log_cardinality_lower_bound",
    "figure2_rows",
    "figure2_csv",
]

# Correction constants in the explicit finite-K lower bound: twice the
# max-entropy offset at the plain (r = g) and the optimized (r = 0.4 g)
# sampling ratios.
PLAIN_RATIO_CONSTANT = 2.773
OPTIMIZED_RATIO_CONSTANT = 2.59
OPTIMIZED_READ_FRACTION = 0.4


def converse_bound(g: float, r: float) -> float:
    """Upper bound on the per-type rate: 0.5 * ln(min(r, e*g)) nats.

    Sampling more than e*g times per type cannot help; the input-count
    cardinality caps the rate at 0.5 * ln(e*g).
    """
    if not (0.0 < g < math.inf and 0.0 < r < math.inf):
        raise ValueError("g and r must be positive and finite")
    return 0.5 * math.log(min(r, math.e * g))


def achievability_bound(g: float, r: float) -> float:
    """Lower bound on the per-type rate: 0.5 * ln(r) - Psi(r/g) nats.

    The Psi term is the integer-input penalty: the max entropy of the
    rounding residue at mean read-to-budget ratio r/g.
    """
    if not (0.0 < g < math.inf and 0.0 < r < math.inf):
        raise ValueError("g and r must be positive and finite")
    return 0.5 * math.log(r) - psi_max_entropy(r / g)


@dataclass(frozen=True)
class BoundReport:
    """Converse/achievability pair for one (g, r), with bookkeeping notes."""

    g: float
    r: float
    converse: float
    achievability: float
    gap: float
    notes: tuple = field(default=())

    def to_dict(self) -> dict:
        return {
            "g": self.g,
            "r": self.r,
            "converse_nats": self.converse,
            "achievability_nats": self.achievability,
            "gap_nats": self.gap,
            "notes": list(self.notes),
        }


def bound_report(g: float, r: float) -> BoundReport:
    """Evaluate both bounds at (g, r) and package them with notes."""
    conv = converse_bound(g, r)
    ach = achievability_bound(g, r)
    notes = ["finite-size o(1) corrections omitted"]
    if r > math.e * g:
        notes.append("converse clamped at r = e*g")
    return BoundReport(
        g=g, r=r, converse=conv, achievability=ach, gap=conv - ach, notes=tuple(notes)
    )


def optimal_sampling_ratio():
    """Best read-to-budget ratio mu* for the achievability bound.

    mu -> 0.5 * ln(mu) - Psi(mu) is stationary where 1/(2 mu) = ln(1 + 1/mu).
    With u = 1 + 1/mu that reads (-u/2) e^(-u/2) = -1/(2 sqrt(e)), so
    u = -2 W_{-1}(-1/(2 sqrt(e))) and mu* = 1 / (u - 1) = 0.39795...
    Returns (mu*, 0.5 * ln(mu*) - Psi(mu*)); the stationarity residual is
    gated at 1e-12.
    """
    mu = 1.0 / (-2.0 * _lambert_w(-0.5 / math.sqrt(math.e), -1) - 1.0)
    residual = abs(1.0 / (2.0 * mu) - math.log1p(1.0 / mu))
    if residual > 1e-12:
        raise ArithmeticError(f"stationarity residual {residual:g} exceeds 1e-12")
    return mu, 0.5 * math.log(mu) - psi_max_entropy(mu)


def stars_and_bars_log_count(n: int, g_int: int) -> float:
    """log of the number of n-vectors of non-negative integers summing to n*g.

    This is C(n*g + n - 1, n - 1), the cardinality behind the converse;
    per type it approaches ln(e*g) from below as n grows.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if int(g_int) != g_int or g_int < 0:
        raise ValueError(f"g_int must be a non-negative integer, got {g_int}")
    n, g_int = int(n), int(g_int)
    total = n * g_int + n - 1
    return float(log_factorial(total) - log_factorial(n - 1) - log_factorial(total - (n - 1)))


def _check_beta(beta: float, alphabet_size: int) -> float:
    if int(alphabet_size) != alphabet_size or alphabet_size < 2:
        raise ValueError(f"alphabet size must be an integer >= 2, got {alphabet_size}")
    ln_a = math.log(alphabet_size)
    if not (1.0 / (2.0 * ln_a) < beta < 1.0 / ln_a):
        raise ValueError(
            f"beta={beta:g} outside ({1/(2*ln_a):.6f}, {1/ln_a:.6f}): the achievability "
            "construction requires beta > 1/(2 ln|A|), and beta >= 1/ln|A| leaves the "
            "zero-capacity short-molecule regime"
        )
    return ln_a


def dna_pseudo_rate(beta: float, alphabet_size: int) -> float:
    """Pseudo-rate (1 - beta ln|A|) / (2 beta) of short-molecule DNA storage.

    Valid for beta strictly between 1/(2 ln|A|) and 1/ln|A|; the rate is in
    nats per normalized symbol L * K^(beta ln|A|).
    """
    ln_a = _check_beta(beta, alphabet_size)
    return (1.0 - beta * ln_a) / (2.0 * beta)


@dataclass(frozen=True)
class DnaScenario:
    """Derived geometry and storage bound for one DNA-storage configuration.

    `log_m_lower` is the leading-order bound pseudo_rate * L * K^(beta ln|A|)
    in nats; `log_m_lower_corrected` additionally subtracts the explicit
    1/ln(K) penalty (constant 2.773, or 2.59 when the read count is set to
    0.4 * K^(1 - beta ln|A|) instead of K^(1 - beta ln|A|)).
    """

    alphabet_size: int
    beta: float
    beta_log_a: float
    kl_total: float
    lambert_length: float
    molecule_length: int
    strand_count: float
    reads: float
    pseudo_rate: float
    log_m_lower: float
    log_m_lower_bits: float
    log_m_lower_corrected: float
    correction_constant: float
    notes: tuple

    def to_dict(self) -> dict:
        mantissa, exponent = _mantissa_exponent(self.log_m_lower)
        return {
            "alphabet_size": self.alphabet_size,
            "beta": self.beta,
            "beta_log_a": self.beta_log_a,
            "kl_total": self.kl_total,
            "lambert_length": self.lambert_length,
            "molecule_length": self.molecule_length,
            "strand_count": self.strand_count,
            "reads": self.reads,
            "pseudo_rate_nats": self.pseudo_rate,
            "log_m_lower_nats": self.log_m_lower,
            "log_m_lower_bits": self.log_m_lower_bits,
            "log_m_lower_mantissa": mantissa,
            "log_m_lower_exponent": exponent,
            "log_m_lower_corrected_nats": self.log_m_lower_corrected,
            "correction_constant": self.correction_constant,
            "notes": list(self.notes),
        }


def _mantissa_exponent(value: float):
    if value <= 0.0 or not math.isfinite(value):
        return value, 0
    exponent = math.floor(math.log10(value))
    return value / 10.0**exponent, exponent


def dna_log_cardinality_lower_bound(
    kl_total: float,
    beta: float,
    alphabet_size: int,
    use_optimized_ratio: bool = False,
) -> DnaScenario:
    """Lower bound on the stored nats for a pool of kl_total nucleotides.

    The strand length solves L = beta * W(KL / beta) (rounded up to a whole
    number of symbols) and K = KL / L. The headline bound is the
    leading-order value pseudo_rate * L * K^(beta ln|A|); the corrected
    field subtracts the explicit c / (2 beta ln K) penalty with c = 2.773,
    improved to 2.59 under the optimized read count 0.4 * K^(1 - beta ln|A|).
    Terms of order o(1/ln K) are omitted throughout. A kl_total that leaves
    K <= 1 strand is refused, since the penalty divides by ln K.
    """
    if not 0.0 < kl_total < math.inf:
        raise ValueError(f"kl_total must be positive and finite, got {kl_total}")
    pseudo_rate = dna_pseudo_rate(beta, alphabet_size)
    beta_log_a = beta * math.log(alphabet_size)

    lambert_length = beta * lambert_w0(kl_total / beta)
    molecule_length = max(1, math.ceil(lambert_length))
    strand_count = kl_total / molecule_length
    if not strand_count > 1.0:
        # ln K = 0 at one strand, and the corrected bound divides by it
        raise ValueError(f"kl_total {kl_total:g} leaves K = {strand_count:g} strands of "
                         f"length {molecule_length}; the bound needs K > 1")
    ln_k = math.log(strand_count)

    # log-domain normalizer L * K^(beta ln|A|); huge inputs stay finite here
    ln_normalizer = math.log(molecule_length) + beta_log_a * ln_k
    log_m_lower = math.exp(ln_normalizer) * pseudo_rate

    constant = OPTIMIZED_RATIO_CONSTANT if use_optimized_ratio else PLAIN_RATIO_CONSTANT
    read_fraction = OPTIMIZED_READ_FRACTION if use_optimized_ratio else 1.0
    corrected = math.exp(ln_normalizer) * (pseudo_rate - constant / (2.0 * beta * ln_k))
    reads = read_fraction * math.exp((1.0 - beta_log_a) * ln_k)

    notes = [
        "finite-size o(1/ln K) terms omitted",
        "strand length rounded up to a whole number of symbols",
        "headline bound keeps the leading pseudo-rate term; the corrected field "
        "subtracts the explicit 1/ln(K) penalty",
    ]
    return DnaScenario(
        alphabet_size=int(alphabet_size),
        beta=beta,
        beta_log_a=beta_log_a,
        kl_total=kl_total,
        lambert_length=lambert_length,
        molecule_length=molecule_length,
        strand_count=strand_count,
        reads=reads,
        pseudo_rate=pseudo_rate,
        log_m_lower=log_m_lower,
        log_m_lower_bits=log_m_lower / NATS_PER_BIT,
        log_m_lower_corrected=corrected,
        correction_constant=constant,
        notes=tuple(notes),
    )


def figure2_rows(beta_list, kl_grid, alphabet_size: int = 4):
    """Storage-bound table rows (beta, KL, bound nats, bound bits).

    Invalid beta values are skipped and reported in the returned warning
    list; within each beta the bound is monotone increasing in KL.
    """
    rows = []
    warnings = []
    for beta in beta_list:
        try:
            _check_beta(beta, alphabet_size)
        except ValueError as exc:
            warnings.append(f"skipped beta={beta:g}: {exc}")
            continue
        for kl in kl_grid:
            scenario = dna_log_cardinality_lower_bound(kl, beta, alphabet_size)
            rows.append(
                {
                    "beta": beta,
                    "KL": float(kl),
                    "bound_nats": scenario.log_m_lower,
                    "bound_bits": scenario.log_m_lower_bits,
                }
            )
    return rows, warnings


def figure2_csv(rows, warnings=()) -> str:
    """Render figure2 rows as CSV with a stable column order."""
    lines = ["beta,KL,bound_nats,bound_bits"]
    lines.extend(f"# {w}" for w in warnings)
    for row in rows:
        lines.append(
            f"{row['beta']:.12g},{row['KL']:.12g},{row['bound_nats']:.12g},{row['bound_bits']:.12g}"
        )
    return "\n".join(lines) + "\n"
