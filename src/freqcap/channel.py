"""The frequency-based channel.

A codeword is a pool of objects described by a count vector x (x_i objects
of type i, total at most n*g). Reading draws n*r objects uniformly with
replacement from the pool, optionally perturbs each read through a
column-stochastic kernel, and reports the histogram of read types. The
Poissonized surrogate replaces the fixed read total with independent
Poisson counts of mean (r/g) * x_i, which is what makes the exact
mutual-information computations tractable.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import RngStream, _chernoff_window, multinomial_sample, poisson_log_pmf
from .special_math import log_factorial

__all__ = [
    "ChannelParams",
    "CountVector",
    "validate_codeword",
    "transmit",
    "transmit_poissonized",
    "multinomial_poisson_ratio_log",
    "poissonization_identity_check",
    "event_poissonization_factor",
]

_DENSE_LIMIT = 10**6
# transmit draws noiseless reads as object indices while the pool holds at most _POOL_LIMIT
# objects (8 bytes each when listed) and there are at most _READS_PER_TYPE reads per type.
# Past either, one multinomial draw over the types costs less (about 0.1 us a type) and
# lists no pool, so memory does not grow with g.
_POOL_LIMIT = 1 << 16
_READS_PER_TYPE = 4


@dataclass(frozen=True)
class ChannelParams:
    """One channel instance: n object types, input budget n*g, read budget n*r.

    The kernel, when present, is column-stochastic with kernel[j, i] the
    probability that a read of a type-i object is recorded as type j;
    absent means noiseless reading. n*r must be an integer number of reads:
    a fractional read count is rejected rather than silently rounded.
    """

    n: int
    g: float
    r: float
    kernel: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not 0.0 < self.g < math.inf:
            raise ValueError(f"g must be positive and finite, got {self.g}")
        if not 0.0 < self.r < math.inf:
            raise ValueError(f"r must be positive and finite, got {self.r}")
        reads = self.n * self.r
        if abs(reads - round(reads)) > 1e-9:
            raise ValueError(f"n*r = {reads} does not round to an integer read count")
        if self.kernel is not None:
            w = np.asarray(self.kernel, dtype=float)
            if w.shape != (self.n, self.n):
                raise ValueError(f"kernel must be {self.n}x{self.n}, got {w.shape}")
            # NaN compares False, so each check asks that every entry pass it
            if not np.all(w >= 0):
                raise ValueError("kernel entries must be non-negative")
            if not np.all(np.abs(w.sum(axis=0) - 1.0) <= 1e-9):
                raise ValueError("kernel columns must each sum to 1 within 1e-9")
            w = w.copy()
            w.setflags(write=False)
            object.__setattr__(self, "kernel", w)

    @property
    def reads(self) -> int:
        """Total number of reads n*r, as an exact integer."""
        return int(round(self.n * self.r))

    @property
    def budget(self) -> int:
        """Largest admissible object total, floor(n*g)."""
        return math.floor(self.n * self.g + 1e-9)

    def is_noiseless(self) -> bool:
        return self.kernel is None


class CountVector:
    """Non-negative integer counts per object type (codeword or channel output)."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        if np.any(arr < 0):
            raise ValueError("counts must be non-negative")
        self.counts = arr

    @property
    def n(self) -> int:
        return self.counts.size

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def frequencies(self) -> np.ndarray:
        """Counts normalized to pool concentrations; needs a non-empty pool."""
        total = self.total
        if total <= 0:
            raise ValueError("cannot normalize an empty count vector")
        return self.counts / total

    def __repr__(self):
        return f"CountVector(n={self.n}, total={self.total})"


def validate_codeword(x: CountVector, params: ChannelParams):
    """None if x is an admissible codeword, else a violation message.

    Admissible means: positive object total not exceeding the budget n*g.
    A dimension mismatch is a usage error and raises instead.
    """
    if x.n != params.n:
        raise ValueError(f"codeword has {x.n} types, channel expects {params.n}")
    total = x.total
    if total <= 0:
        return "empty pool: codeword must contain at least one object"
    if total > params.budget:
        return f"object total {total} exceeds the budget n*g = {params.n * params.g:g}"
    return None


def _read_counts(counts: np.ndarray, objects: np.ndarray) -> np.ndarray:
    """Histogram of the types of the pool's objects at indices `objects`.

    The pool lists counts[i] objects of type i, in type order; each read is
    one index into it.
    """
    pool = np.repeat(np.arange(counts.size), counts)
    return np.bincount(pool[objects], minlength=counts.size)


def transmit(x: CountVector, params: ChannelParams, rng: RngStream) -> CountVector:
    """One channel use: sample n*r reads with replacement from the pool of x.

    Noiseless reading from a small pool (at most _POOL_LIMIT objects, at
    most _READS_PER_TYPE reads per type) draws n*r object indices uniformly
    from the x.total objects and counts their types (`_read_counts`): the
    multinomial law with probabilities x / x.total, at the cost of one
    integer per read. Any other pool takes one multinomial draw from the
    same law. With a kernel, the reads' law is the kernel applied to the
    pool concentrations, drawn as one multinomial. The output always sums
    to exactly n*r.
    """
    violation = validate_codeword(x, params)
    if violation is not None:
        raise ValueError(violation)
    if params.n > _DENSE_LIMIT:
        raise NotImplementedError(
            f"dense outputs are limited to n <= {_DENSE_LIMIT}; larger n needs a sparse path"
        )
    total = x.total
    if (params.kernel is None and total <= _POOL_LIMIT
            and params.reads <= _READS_PER_TYPE * params.n):
        objects = rng.generator.integers(0, total, params.reads)
        return CountVector(_read_counts(x.counts, objects))
    probs = x.frequencies()
    if params.kernel is not None:
        probs = params.kernel @ probs
    return CountVector(multinomial_sample(params.reads, probs, rng))


def transmit_poissonized(x: CountVector, params: ChannelParams, rng: RngStream) -> CountVector:
    """Poisson surrogate channel: independent z_i ~ Poisson((r/g) * x_i).

    Only the noiseless kernel is supported; the surrogate for a noisy
    kernel is not uniquely determined by the sampling model, so it is
    rejected rather than guessed.
    """
    violation = validate_codeword(x, params)
    if violation is not None:
        raise ValueError(violation)
    if not params.is_noiseless():
        raise NotImplementedError("the Poissonized surrogate is defined only for noiseless reading")
    lam = (params.r / params.g) * x.counts
    return CountVector(rng.generator.poisson(lam).astype(np.int64))


def multinomial_poisson_ratio_log(total_samples: int) -> float:
    """Exact log-ratio between the fixed-total and Poissonized read likelihoods.

    For any feasible output, the conditional multinomial likelihood with M
    reads exceeds the product-Poisson one by exactly M!/(M^M e^-M); this
    returns its log, which Stirling brackets inside
    [0.5 ln(2 pi M), 0.5 ln(6 pi M)].
    """
    m = int(total_samples)
    if m < 1:
        raise ValueError(f"total_samples must be >= 1, got {total_samples}")
    return float(log_factorial(m) - m * math.log(m) + m)


def poissonization_identity_check(total_mean: float, probs) -> float:
    """Max absolute PMF discrepancy in the multinomial Poissonization identity.

    For G with a Poisson(M) number of trials split multinomially along p,
    the per-type counts are independent Poisson(M p_j). Enumerates all
    outputs y in a box that holds the mass, 0 to the 2^-53 `_chernoff_window`
    end on axis j, and compares Poi(sum y; M) * Mul(y; sum y, p) against
    prod_j Poi(y_j; M p_j); the discrepancy is pure floating-point noise.

    The box is walked one slab y_0 = const at a time. The 1-D tables
    (ln y!, y ln p_j and Poi(y; M p_j) per axis, Poi(t; M) and ln t! for t
    up to the largest total) are built once, the other axes are broadcast
    over a slab, and a running maximum of |lhs - rhs| is kept. The working
    set is a few slab-sized arrays, about 0.4 MB each at M = 20 in four
    dimensions, instead of the 1.25M-point box. Raises ArithmeticError unless
    both sides sum to within 1e-12 of 1 over the box, so a box that leaves
    mass out cannot pass.
    """
    if total_mean <= 0.0 or total_mean > 30.0:
        raise ValueError("exact enumeration is limited to total_mean in (0, 30]")
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size > 4:
        raise ValueError("exact enumeration is limited to dimension <= 4")
    if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probs must be positive and sum to 1")

    means = total_mean * p
    highs = _chernoff_window(means, 2.0**-53)[1]
    grids = [np.arange(h + 1) for h in highs]
    # per axis: the multinomial's y ln p_j - ln y! and the Poisson pmf
    log_mult_terms = [grid * math.log(pj) - log_factorial(grid) for grid, pj in zip(grids, p)]
    pmfs = [np.exp(poisson_log_pmf(grid, mean)) for grid, mean in zip(grids, means)]
    totals_grid = np.arange(sum(highs) + 1)
    log_poi_total = poisson_log_pmf(totals_grid, total_mean)
    log_fact_total = log_factorial(totals_grid)

    # a slab's axes 1..d-1 as open meshes, combined once; plain scalars when d = 1
    rest_totals = sum(np.ix_(*grids[1:]))
    rest_log_mult = sum(np.ix_(*log_mult_terms[1:]))
    rest_pmf = math.prod(np.ix_(*pmfs[1:]))

    worst = mass_lhs = mass_rhs = 0.0
    for y0 in grids[0]:
        totals = y0 + rest_totals
        # joint law through the conditional multinomial, all in log space
        log_mult = log_fact_total[totals] + (log_mult_terms[0][y0] + rest_log_mult)
        lhs = np.exp(log_poi_total[totals] + log_mult)
        rhs = pmfs[0][y0] * rest_pmf
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        mass_lhs += float(np.sum(lhs))
        mass_rhs += float(np.sum(rhs))
    if max(abs(mass_lhs - 1.0), abs(mass_rhs - 1.0)) > 1e-12:
        raise ArithmeticError(
            f"the box holds mass {mass_lhs!r} (lhs) and {mass_rhs!r} (rhs), not 1 within 1e-12"
        )
    return worst


def event_poissonization_factor(total_samples: int) -> float:
    """Price of moving an event probability to the Poissonized channel: sqrt(e*M).

    P[G in E] <= sqrt(e M) * P[G~ in E] for every event E, where G has a
    fixed total of M reads and G~ is its product-Poisson counterpart.
    """
    m = int(total_samples)
    if m < 1:
        raise ValueError(f"total_samples must be >= 1, got {total_samples}")
    return math.sqrt(math.e * m)
