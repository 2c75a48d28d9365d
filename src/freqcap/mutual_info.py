"""Exact and Monte-Carlo information quantities for the integer-input Poisson channel.

The channel is scalar: Z | X=x ~ Poisson(gain * x) with X supported on
{1, ..., s}. Everything exact is computed by finite summation over one
band per input row, lam +- (12 sqrt(lam + 1) + 40) (`poisson_band`),
stretched to meet its neighbours so that every output value has a row.
The output window 0..z_max ends at the band end of the largest mean. The
mass the bands drop, below each band and above it (past z_max too), is
certified by Bennett's Poisson tail bound at the band ends, the inequality
that picks every other Poisson window (`distributions._missed_mass`;
`band_missed_mass`, at most _BAND_ALLOWANCE = 1e-15), which keeps
truncation errors in entropies and mutual information below 1e-9 nats.
The bands change log P_Z only where it is far below any mass that matters
(in the tested laws, below e^-60). Where P_Z(0) passes 1/2, as at small
gains, log P_Z(0) is log1p(sum_x w_x expm1(-lam_x)), the same mixture with
the 1 that cancels taken out, so it keeps its relative digits where the ln
of a sum near 1 would keep only absolute ones. The spec's rows are the
input points of positive weight alone, filtered once when it is built.
Every Poisson table (the output law, also past z_max, `mmpe`, and the
tilted rows of the spectrum tail with their tails past z_max) walks one
row planner, `distributions._row_runs`, under one cell budget,
_CHUNK_ELEMENTS = 2^16 cells: a 512 KiB block that stays in a core's L2
cache, so the working set is a few blocks at any support size.
Rows plan on the spec's bands, on one window shared by every row, or
(`mmpe`) on `distributions._chernoff_window`, joining neighbouring runs
whose tables fit one block together. The blocks come from one walker,
`distributions._poisson_tables`, which takes the planner's (start, stop,
z_lo, z_hi) runs as they come; each caller keeps its reduction. The spectrum
draws its letters in blocks of _SPECTRUM_LETTERS = 2^15, also at any
blocklength. Sums over the input support are einsum reductions, not BLAS
products, so neither the exact MI nor `mmpe` (nor `i_mmpe_integral`)
depends on the BLAS thread count.

The exact MI has two routes that share H(Z). The band route subtracts the
band conditional entropy sum_x w_x sum_z -p ln p over each row's window,
which the spec's build sums from the very tables that give log P_Z, so
each band cell is evaluated and exponentiated once. Because
sum_x w_x p(z|x) over those windows is exactly P_Z(z), this route equals
the averaged KL divergence of the conditional laws from the marginal; it
is the one returned. The series route subtracts the average of
`poisson_entropy`, the asymptotic series of the Poisson entropy from mean
150 on, and evaluates no table there. The two cancel z ln lam - ln z!
differently at large means, so their residual (about 5e-14 at g=500,
9e-13 at g=1e4) measures the kernel's rounding; it must stay below 1e-9.
Blocklength enters only through the information spectrum: the channel is
memoryless under product inputs, so single-letter quantities scale. The
spectrum is sampled (`spectrum_mc`), and its left tail is certified by
the Chernoff-Hölder row sums of `_TiltedRows`: every positive-weight row
dense on 0..z_max, from the same walker and the spec's own mixture sum,
and each row's exact tail past z_max summed on the walker's blocks with a
geometric bound on the rest, or Bennett's bound where that tail is below
1e-300. No function of this module calls `scipy.special`.

Every information density is z ln lam - lam - T[z], with T[z] = ln z! +
log P_Z(z) tabulated once per spec on 0..z_max and extended exactly past
it. The spectrum draws letters (X, Z) from one letter table per call: each
positive-weight row with lam < 10 gets one cell per z from 0 to its 2^-53
`_chernoff_window` end, each row with lam >= 10 one cell whose z is drawn
afterwards by numpy's transformed-rejection Poisson sampler (10 is where
numpy switches to it). One uniform per letter picks a bucket of one lookup
table; a bucket that lands in one non-PTRS cell holds its density, so most
letters take one gather. Each bucket also holds the first cell its range
reaches, so the table is a Chen-Asau guide too: the other letters start
there, and search the CDF only where their bucket spans more than one cell.
The mass the small rows' cells leave out is certified by Bennett's bound
(`distributions._missed_mass`) and must be at most 2^-53, one step of the
uniform draw.

Two integrals are quadratures, on one composite 16-point Gauss-Legendre
panel rule (`_panel_rule`): the gain integral of `i_mmpe_integral` and the
tail integral J(u) = int_u^inf sqrt(s) ln(s) e^-s ds of the truncation-loss
term t2. One call of the rule sums one level of panels, and each caller
gates the residual between a level and the one of half as many panels, so
every level is summed once: `i_mmpe_integral` doubles its panels until two
levels in a row agree, and t2 sums 60 and 120 panels. The term t3 and the
rest of t2 are closed forms in `math.erfc` and `math.exp`.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import (
    _CHUNK_ELEMENTS,
    DiscretePmf,
    RngStream,
    TruncationInterval,
    _bennett_exponent,
    _chernoff_window,
    _missed_mass,
    _poisson_tables,
    _row_runs,
    poisson_band,
    poisson_entropy,
)
from .special_math import log_factorial
from .special_math import regularized_gamma_p  # noqa: F401  (perfbench/spans.py traces this name)

__all__ = [
    "PoissonChannelSpec",
    "SpectrumEstimate",
    "TruncationLoss",
    "mutual_information",
    "information_density",
    "spectrum_mc",
    "lipschitz_seminorm",
    "bobkov_ledoux_bound",
    "mmpe",
    "i_mmpe_integral",
    "truncation_loss_terms",
]

_Z_HARD_CAP = 10**6
# letters per spectrum piece, half a table block: a letter holds a uniform, a cell
# index and a density, 24 bytes, so a piece's arrays stay within two blocks
_SPECTRUM_LETTERS = _CHUNK_ELEMENTS // 2
# numpy's Generator.poisson uses transformed rejection (PTRS) from this mean on
_PTRS_MIN_MEAN = 10.0
# Gauss-Legendre nodes per panel of `_panel_rule`
_QUAD_POINTS = 16
# i_mmpe_integral: the smallest gain, log-spaced panels per decade
_A_MIN = 1e-10
_PANELS_PER_DECADE = 3
# truncation_loss_terms: the tail integral runs over s - u in [0, 60] on panels of width 1
_TAIL_SPAN = 60
# mmpe: mass each input row may leave out of its table on either side, at every gain
_MMPE_TAIL = 1e-16
# PoissonChannelSpec: mixture mass the row bands may drop, 1e-3 of a 1e-12 tail budget
_BAND_ALLOWANCE = 1e-15
# tilts s in (0, 1] of the certified Chernoff tails (`_least_over_tilts`); each gives a
# valid bound, and the least of them is taken
_CHERNOFF_S = np.arange(1, 101) / 100
# PoissonChannelSpec: a linear mixture sum below this is redone in log space; the cells that
# underflow or are subnormal in it lose at most 2^-1074 each, far below its last digit
_LINEAR_FLOOR = 1e-280
# _TiltedRows: a row sums its exact tail past z_max where its window at this tail ends there
_TAIL_SUM_FLOOR = 1e-300


def _rows(input_pmf: DiscretePmf):
    """(x, w, ln w) of the input law's points of positive weight, x as floats.

    The one view of an input law that the spec, `mmpe` and `i_mmpe_integral`
    read; a law whose support reaches below 1 is refused here.
    """
    if input_pmf.support_offset < 1:
        raise ValueError("input law must be supported on {1, 2, ...}")
    rows = input_pmf.probs > 0.0
    return (input_pmf.support[rows].astype(float), input_pmf.probs[rows],
            input_pmf.log_weights[rows])


class PoissonChannelSpec:
    """Input law plus gain, with a certified output-support cutoff.

    Each input row with positive weight keeps its `poisson_band` [lo, hi],
    stretched to meet its neighbours' bands so every z in 0..z_max has a
    row. z_max is the band end of the largest mean with positive weight,
    hard-capped at 1e6 with an explicit failure. The mixture mass that the
    bands drop, below each band and above it (past z_max too),
    `band_missed_mass`, is certified by Bennett's bound at the band ends
    (`distributions._missed_mass`) and must be at most _BAND_ALLOWANCE =
    1e-15; a NaN certificate is refused too. The raw
    (unnormalized) log output PMF is tabulated once, one `_row_runs` run of
    rows at a time, and from the same tables the build sums
    `band_conditional_entropy`; past z_max the log output PMF and every
    density are extended exactly on demand by the same mixture sum over
    every row. The rows are the input points of positive weight alone
    (`_rows`), kept as `_xs`, `_ws`, `_log_ws` and `_lams`, and every run is
    a slice of them.
    """

    def __init__(self, input_pmf: DiscretePmf, gain: float):
        if not 0.0 < gain < math.inf:
            raise ValueError(f"gain must be positive and finite, got {gain}")
        self._xs, self._ws, self._log_ws = _rows(input_pmf)
        self.input = input_pmf
        self.gain = float(gain)
        self._lams = self.gain * self._xs
        lo, hi = poisson_band(self._lams)
        self.z_max = int(hi[-1])
        if self.z_max > _Z_HARD_CAP:
            raise RuntimeError(f"output support cutoff exceeded the hard cap {_Z_HARD_CAP}")
        self._bands = self._choose_bands(lo, hi)
        row_entropy = np.zeros(self._ws.size)
        self._log_pz = self._log_mixture(self._bands, 0, self.z_max, row_entropy)
        self._band_entropy = float(np.einsum("i,i->", self._ws, row_entropy))
        if self._log_pz[0] > -math.log(2.0):
            # only P_Z(0) can pass 1/2 (P_Z(1) <= 1/e), and ln of a sum near 1 keeps only
            # its absolute digits; the weights sum to 1, so P_Z(0) - 1 is
            # sum_x w_x expm1(-lam_x), a sum of terms of one sign, and log1p keeps them all
            self._log_pz[0] = math.log1p(
                float(np.einsum("i,i->", self._ws, np.expm1(-self._lams))))

    def _choose_bands(self, lo, hi):
        """Certify the row bands and group the rows into `_row_runs` runs.

        Returns its (start, stop, z_lo, z_hi) runs; a run's window is the
        union of its rows' bands.
        """
        lo[0] = 0
        # rows are sorted by mean, so stretching neighbours across each gap covers 0..z_max
        lo[1:], hi[:-1] = np.minimum(lo[1:], hi[:-1] + 1), np.maximum(hi[:-1], lo[1:] - 1)

        missed = _missed_mass(self._lams, lo, hi)
        self.band_missed_mass = float(np.einsum("i,i->", self._ws, missed))
        if not self.band_missed_mass <= _BAND_ALLOWANCE:
            raise RuntimeError(
                f"row bands drop mass {self.band_missed_mass:g}, "
                f"above the allowance {_BAND_ALLOWANCE:g}"
            )

        return _row_runs(lo, hi, _CHUNK_ELEMENTS)

    def _runs_on(self, z_lo: int, z_hi: int) -> list:
        """Every row on all of z_lo..z_hi, in `_row_runs` runs."""
        size = self._lams.size
        return _row_runs(np.full(size, z_lo), np.full(size, z_hi), _CHUNK_ELEMENTS)

    def _log_mixture(self, runs, z_lo: int, z_hi: int, row_entropy=None) -> np.ndarray:
        """Raw log P_Z on z_lo..z_hi, each run of rows summed over its own window.

        Each cell is exponentiated once, p = exp(ln p). A run of several rows
        adds sum_x w_x p(z|x) to a linear sum; its columns where that falls
        below _LINEAR_FLOOR, and every column of a one-row run, are summed as a
        max-shifted log-sum of ln p + ln w instead, so no column loses its
        digits to underflow and a lone row keeps ln p + ln w exactly. With
        `row_entropy`, also writes each row's -sum p ln p over its run's
        window into row_entropy[row], from the same p.
        """
        linear = np.zeros(z_hi - z_lo + 1)
        logs = np.full(z_hi - z_lo + 1, -np.inf)
        for rows, lo, hi, lp in _poisson_tables(self._lams, runs):
            window = slice(lo - z_lo, hi - z_lo + 1)
            p = np.exp(lp)
            low = np.ones(hi - lo + 1, dtype=bool)
            if len(p) > 1:
                mix = np.einsum("r,rz->z", self._ws[rows], p)
                low = mix < _LINEAR_FLOOR
                linear[window] += np.where(low, 0.0, mix)
            if low.any():
                part = lp[:, low] + self._log_ws[rows, None]
                top = part.max(axis=0)
                part -= top
                np.exp(part, out=part)
                cols = logs[window]
                cols[low] = np.logaddexp(cols[low], top + np.log(part.sum(axis=0)))
            if row_entropy is not None:
                p *= lp
                row_entropy[rows] = -p.sum(axis=1)
            del p, lp  # two blocks, not three, while the walker builds the next
        with np.errstate(divide="ignore"):
            return np.logaddexp(np.log(linear), logs)

    def log_output_pmf_at(self, z) -> np.ndarray:
        """Raw log P_Z at arbitrary z, extending past the table exactly on demand."""
        z = np.atleast_1d(np.asarray(z, dtype=np.int64))
        out = np.empty(z.size, dtype=float)
        inside = z <= self.z_max
        out[inside] = self._log_pz[z[inside]]
        if np.any(~inside):
            z_lo, z_hi = int(z[~inside].min()), int(z[~inside].max())
            runs = self._runs_on(z_lo, z_hi)
            out[~inside] = self._log_mixture(runs, z_lo, z_hi)[z[~inside] - z_lo]
        return out

    @property
    def log_pz(self) -> np.ndarray:
        return self._log_pz

    @property
    def band_conditional_entropy(self) -> float:
        """H(Z|X) over the row bands: sum_x w_x sum_z -p(z|x) ln p(z|x) on each row's run window.

        Summed by the build from the tables that give `log_pz`, so
        H(Z) - band_conditional_entropy is the averaged KL divergence of the
        conditional output laws from the marginal over the same windows.
        """
        return self._band_entropy

    @cached_property
    def _offsets(self) -> np.ndarray:
        """T[z] = ln z! + log P_Z(z) on 0..z_max; a density is z ln lam - lam - T[z]."""
        return log_factorial(np.arange(self.z_max + 1)) + self._log_pz

    def density_offset(self, z: np.ndarray) -> np.ndarray:
        """T(z) = ln z! + log P_Z(z) for an array of z >= 0, exact past z_max."""
        out = self._offsets[np.minimum(z, self.z_max)]
        far = z > self.z_max
        if far.any():
            out[far] = log_factorial(z[far]) + self.log_output_pmf_at(z[far])
        return out

    def __repr__(self):
        return (
            f"PoissonChannelSpec(support={self.input.support_offset}.."
            f"{self.input.support_offset + self.input.size - 1}, gain={self.gain}, "
            f"z_max={self.z_max})"
        )


def mutual_information(spec: PoissonChannelSpec) -> float:
    """I(X; Z) in nats, as H(Z) minus the spec's band conditional entropy.

    Over the row bands, sum_x w_x sum_z p(z|x) ln(p(z|x) / P_Z(z)) equals
    H(Z) - `spec.band_conditional_entropy`, because sum_x w_x p(z|x) over
    those windows is exactly P_Z(z); so this band route is the averaged KL
    divergence and needs no table of its own. It is returned. The series
    route, H(Z) minus the average of `poisson_entropy` (its asymptotic
    series for large means), shares only H(Z) with it; the two must agree
    within 1e-9, and the output law must sum to one within 1e-9.
    """
    log_pz = spec.log_pz
    pz = np.exp(log_pz)
    mass = float(pz.sum())
    if abs(mass - 1.0) > 1e-9:
        raise ArithmeticError(f"output law sums to {mass!r}, not 1 within 1e-9")
    h_z = float(-(pz * log_pz).sum())
    mi = h_z - spec.band_conditional_entropy
    series = h_z - float(np.einsum("i,i->", spec._ws, poisson_entropy(spec._lams)))
    if abs(mi - series) > 1e-9:
        raise ArithmeticError(
            f"mutual information routes disagree: band {mi} vs series {series}"
        )
    return mi


def information_density(x: int, z: int, spec: PoissonChannelSpec) -> float:
    """Single-letter information density log P[Z=z|X=x] / P_Z(z) in nats.

    Requires P_X(x) > 0, that is x among the spec's rows. Exact past z_max, where the output law is summed
    on demand (`PoissonChannelSpec.density_offset`), and within the band
    certificate below it; near z_max, where P_Z is far below the mass the
    bands may drop, the tabulated log P_Z can be off.
    """
    if x not in spec._xs:
        raise ValueError(f"x={x} is outside the support of the input law")
    if not (z >= 0 and z % 1 == 0):
        raise ValueError(f"z must be a non-negative integer, got {z}")
    lam = spec.gain * x
    return z * math.log(lam) - lam - float(spec.density_offset(np.array([z], np.int64))[0])


@dataclass(frozen=True)
class SpectrumEstimate:
    """Monte-Carlo summary of the per-letter information density mean."""

    n: int
    num_samples: int
    mean: float
    variance: float
    thresholds: tuple
    cdf: tuple


def _guided_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") for u in [0, 1) and cdf[-1] == 1.

    guide[k] is the first cell whose CDF exceeds k / K, K = guide.size (a
    Chen-Asau guide), so the entry of u's bucket is never past the answer,
    and it is the answer unless that cell's CDF is at most u; only those
    letters are searched in the whole CDF.
    """
    idx = guide[(u * guide.size).astype(np.int64)]
    todo = np.flatnonzero(cdf[idx] <= u)
    idx[todo] = np.searchsorted(cdf, u[todo], side="right")
    return idx


def _bucket_table(cdf: np.ndarray, density: np.ndarray, ptrs: np.ndarray):
    """(cells, densities) of the buckets [k / K, (k + 1) / K) of the uniform.

    Cell k = searchsorted(cdf, k / K, "right") is the first cell that bucket k
    reaches, a Chen-Asau guide for `_guided_search`. K is 8 times the power of
    two at or above the number of cells, capped at _CHUNK_ELEMENTS but never
    below that power of two, so it is a power of two and u * K and k / K are
    exact. Bucket k is pure when every u in it finds cell k, that is
    cdf[cell] >= (k + 1) / K, and that cell is not a PTRS cell; its density is
    the cell's, and NaN otherwise.
    """
    size = 1 << (cdf.size - 1).bit_length()
    size = max(size, min(8 * size, _CHUNK_ELEMENTS))
    edges = np.arange(size + 1) / size
    cell = np.searchsorted(cdf, edges[:-1], side="right")
    pure = (cdf[cell] >= edges[1:]) & ~ptrs[cell]
    return cell, np.where(pure, density[cell], np.nan)


@dataclass(frozen=True)
class _LetterTable:
    """Cells of the letter law (X, Z), with each cell's density.

    A cell of a row with lam < 10 is one z; a row with lam >= 10 is a single
    cell (`ptrs`) whose z is drawn by Generator.poisson once the row is known.
    `bucket` holds the density of every bucket of the uniform that lands in
    one non-PTRS cell, so most letters take one gather, and `guide` the first
    cell of every bucket (`_bucket_table`), where the others start to search.
    """

    cdf: np.ndarray
    guide: np.ndarray
    bucket: np.ndarray
    density: np.ndarray
    ptrs: np.ndarray
    lam: np.ndarray
    log_lam: np.ndarray

    @classmethod
    def build(cls, spec: PoissonChannelSpec) -> "_LetterTable":
        lam, w = spec._lams, spec._ws
        small = lam < _PTRS_MIN_MEAN
        top = _chernoff_window(lam[small], 2.0**-53)[1]
        missed = float(w[small] @ _missed_mass(lam[small], 0, top))
        if not missed <= 2.0**-53:
            raise RuntimeError(
                f"letter table drops mass {missed:g}, above one step 2^-53 of the uniform draw"
            )

        width = np.ones(lam.size, dtype=np.int64)
        width[small] = top + 1
        row = np.repeat(np.arange(lam.size), width)
        z = np.arange(row.size) - np.repeat(np.cumsum(width) - width, width)
        ptrs = ~small[row]
        lam_c = lam[row]
        log_lam = np.log(lam_c)
        kernel = z * log_lam - lam_c
        mass = w[row] * np.where(ptrs, 1.0, np.exp(kernel - log_factorial(z)))
        cdf = np.cumsum(mass)
        cdf /= cdf[-1]
        density = np.where(ptrs, 0.0, kernel - spec.density_offset(z))
        guide, bucket = _bucket_table(cdf, density, ptrs)
        return cls(cdf, guide, bucket, density, ptrs, lam_c, log_lam)

    def draw_density(self, spec: PoissonChannelSpec, gen: np.random.Generator, size: int):
        """Densities of `size` letters: one uniform each, then Z for the PTRS rows.

        A letter whose bucket is pure takes its density from `bucket`; the
        others find their cell by `_guided_search` from their bucket's `guide`
        cell, in letter order, so every letter gets the cell and the
        Generator.poisson draw of a plain searchsorted on the CDF.
        """
        u = gen.random(size)
        out = self.bucket[(u * self.bucket.size).astype(np.int64)]
        miss = np.flatnonzero(np.isnan(out))
        if miss.size:
            cell = _guided_search(self.cdf, self.guide, u[miss])
            out[miss] = self.density[cell]
            hit = np.flatnonzero(self.ptrs[cell])
            if hit.size:
                cell = cell[hit]
                lam = self.lam[cell]
                z = gen.poisson(lam)
                out[miss[hit]] = z * self.log_lam[cell] - lam - spec.density_offset(z)
        return out


def spectrum_mc(
    spec: PoissonChannelSpec,
    n: int,
    num_samples: int,
    rng: RngStream,
    thresholds=(),
) -> SpectrumEstimate:
    """Sample (1/n) * sum_i density(X_i, Z_i) under the product input law.

    Letters come from the spec's letter table (see the module docstring).
    Samples are processed in chunks of whole samples, at most
    _SPECTRUM_LETTERS = 2^15 letters each and at least one sample; chunk c
    draws from rng.substream(c). A sample longer than that is a chunk of
    its own, drawn from its substream in pieces of 2^15 letters whose
    density sums add up, so memory does not grow with n. The result is
    therefore bit-reproducible for a fixed seed. A NaN threshold, whose cdf
    would read 0, is refused.
    """
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    thresholds = tuple(float(t) for t in thresholds)
    if any(math.isnan(t) for t in thresholds):
        raise ValueError(f"thresholds must not be NaN, got {thresholds}")

    table = _LetterTable.build(spec)
    per_chunk = max(1, _SPECTRUM_LETTERS // n)
    # letters of each sample per piece: all n of them, or one block of a long sample
    width = min(n, _SPECTRUM_LETTERS)
    values = np.empty(num_samples)
    for c, first in enumerate(range(0, num_samples, per_chunk)):
        count = min(per_chunk, num_samples - first)
        gen = rng.substream(c).generator
        sums = np.zeros(count)
        for done in range(0, n, width):
            size = min(width, n - done)
            sums += table.draw_density(spec, gen, count * size).reshape(count, size).sum(axis=1)
        values[first : first + count] = sums / n

    variance = float(values.var(ddof=1)) if values.size > 1 else 0.0
    cdf = tuple(float((values <= t).mean()) for t in thresholds)
    return SpectrumEstimate(
        n=int(n),
        num_samples=int(num_samples),
        mean=float(values.mean()),
        variance=variance,
        thresholds=thresholds,
        cdf=cdf,
    )


def lipschitz_seminorm(spec: PoissonChannelSpec) -> float:
    """Supremum of |i(x, z+1) - i(x, z)| over every z >= 0 and every x with positive weight.

    The jump is ln lam_x - ln E[lam_X | Z=z], and the conditional mean lies
    above the smallest positive-weight mean and below the largest, tending to
    the largest as z grows. So the supremum is ln(x_max / x_min) over the
    positive-weight rows, in closed form, and 0 for a point mass.
    """
    return math.log(spec._xs[-1] / spec._xs[0])


def bobkov_ledoux_bound(beta: float, lambda_max: float, n: int, delta: float) -> float:
    """Left-tail bound for Lipschitz functions of independent Poisson coordinates.

    exp(-n delta^2 / (16 beta^2 lambda_max + 3 beta delta)), where beta is
    the discrete Lipschitz semi-norm and lambda_max dominates every
    coordinate mean. Doubling n squares the bound.
    """
    if not all(0.0 < v < math.inf for v in (beta, lambda_max, delta)) or n < 1:
        raise ValueError("needs finite beta > 0, lambda_max > 0, delta > 0 and n >= 1")
    return math.exp(-n * delta**2 / (16.0 * beta**2 * lambda_max + 3.0 * beta * delta))


class _TiltedRows:
    """Per input row x with positive weight, the sums behind a certified left tail of
    the information density i(x, Z) = ln(p(Z|x) / P_Z(Z)), Z | x ~ Poisson(gain x).

    `sums(s)` bounds E[exp(-s i(x, Z))] per row: sum_{z <= z_max} p^(1-s)
    P_Z^s, plus T_x^(1-s) T^s, which by Hölder's inequality bounds the terms
    past z_max; T_x = P[Z > z_max | x] and T = sum_x w_x T_x. T_x is part of
    the reported bound, where Bennett's looser bound on it would weaken the
    Hölder term wherever it counts, so a row whose `_chernoff_window` at
    _TAIL_SUM_FLOOR = 1e-300 ends past z_max sums it exactly: the walker's
    blocks on k..n, k = z_max + 1 and n = max(k, ceil(lam_max)) + ceil(12
    sqrt(lam_max + 1) + 40), give sum_{z=k}^{n-1} p(z|x) plus p(n|x) (n + 1)
    / (n + 1 - lam), the geometric bound on P[Z >= n | x], which holds as n +
    1 > lam. Every other row takes Bennett's e^-E(lam, k)
    (`distributions._bennett_exponent`), at most 1e-300, so no T_x falls below
    the tail it bounds, and no T_x calls scipy. `means()` is sum_{z <= z_max}
    p ln(p / P_Z) per row. Every row is dense on all of
    0..z_max (`PoissonChannelSpec._runs_on`), so P_Z is the spec's mixture
    sum over every row with no band, and each call reduces the rows of the
    walker's blocks, at most _CHUNK_ELEMENTS cells each.
    """

    def __init__(self, spec: PoissonChannelSpec):
        self._lams = spec._lams
        self._runs = spec._runs_on(0, spec.z_max)
        self._log_pz = spec._log_mixture(self._runs, 0, spec.z_max)
        self.weights = spec._ws
        k = spec.z_max + 1
        self._tails = np.exp(-_bennett_exponent(self._lams, k))
        ends = _chernoff_window(self._lams, _TAIL_SUM_FLOOR)[1]
        first = int(np.searchsorted(ends, spec.z_max, side="right"))
        if first < self._lams.size:
            lams, top = self._lams[first:], float(self._lams[-1])
            n = max(k, math.ceil(top)) + math.ceil(12.0 * math.sqrt(top + 1.0) + 40.0)
            runs = _row_runs(np.full(lams.size, k), np.full(lams.size, n), _CHUNK_ELEMENTS)
            self._tails[first:] = np.concatenate([
                np.exp(lp[:, :-1]).sum(axis=1) + np.exp(lp[:, -1]) * (z + 1) / (z + 1 - lams[rows])
                for rows, _, z, lp in _poisson_tables(lams, runs)])
        self._tail = float(np.einsum("x,x->", self.weights, self._tails))

    def _reduce(self, row_sum) -> np.ndarray:
        return np.concatenate([row_sum(lp) for *_, lp in _poisson_tables(self._lams, self._runs)])

    def sums(self, s: float) -> np.ndarray:
        out = self._reduce(lambda lp: np.exp((1 - s) * lp + s * self._log_pz).sum(axis=1))
        return out + self._tails ** (1 - s) * self._tail**s

    def means(self) -> np.ndarray:
        return self._reduce(lambda lp: (np.exp(lp) * (lp - self._log_pz)).sum(axis=1))


def _least_over_tilts(objective) -> float:
    """The least of objective(s) over s in _CHERNOFF_S, for an objective convex in s.

    Each objective here is a certified log tail: log-sum-exps of functions
    affine in s, plus a term linear in s, so it is convex and its steps
    along the grid never decrease. Bisection on their sign finds the grid
    minimum in at most 14 evaluations instead of 100. Every tilt gives a
    valid bound, so where rounding blurs a flat minimum, landing next to it
    costs the last digits, never validity.
    """
    values = {}

    def at(k):
        if k not in values:
            values[k] = float(objective(_CHERNOFF_S[k]))
        return values[k]

    lo, hi = 0, _CHERNOFF_S.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if at(mid + 1) < at(mid):
            lo = mid + 1
        else:
            hi = mid
    return at(lo)


def _jensen_gap_sums(xs, moments, gains) -> np.ndarray:
    """Per gain, sum_z (E[U ln U; V=z] - P_V(z) m(z) ln m(z)) with m(z) = E[U | V=z].

    The rows, sorted by u, go in `_row_runs` runs planned on their
    `_chernoff_window` at _MMPE_TAIL, lower ends at the smallest gain and
    upper ends at the largest, with a budget of _CHUNK_ELEMENTS / len(gains)
    cells, so every row at every gain misses at most _MMPE_TAIL on each side;
    neighbouring runs whose tables fit that budget together are joined. The columns
    (P_V, E[U | V], E[U ln U; V]) of all gains are one einsum reduction of
    `moments` = (w, w u, w u ln u) with each run's gains x rows x z table.
    """
    lo, hi = _chernoff_window(gains.min() * xs, _MMPE_TAIL, gains.max() * xs)

    # at small means `_row_runs` ends a run long before its table fills the budget
    budget = _CHUNK_ELEMENTS // gains.size
    runs = []
    for a, b, z_lo, z_hi in _row_runs(lo, hi, budget):
        if runs and (b - runs[-1][0]) * (z_hi - runs[-1][2] + 1) <= budget:
            a, _, z_lo, _ = runs.pop()
        runs.append((a, b, z_lo, z_hi))

    cols = np.zeros((gains.size, 3, int(hi[-1]) + 1))
    for rows, lo, hi, cond in _poisson_tables(xs, runs, gains):
        np.exp(cond, out=cond)
        cols[:, :, lo : hi + 1] += np.einsum("kr,grz->gkz", moments[:, rows], cond)
    pv, mean_mass, xlogx_mass = cols.transpose(1, 0, 2)
    seen = pv > 0.0
    gap = np.zeros_like(pv)
    gap[seen] = xlogx_mass[seen] - mean_mass[seen] * np.log(mean_mass[seen] / pv[seen])
    return gap.sum(axis=1)


def mmpe(input_pmf: DiscretePmf, a: float | np.ndarray) -> float | np.ndarray:
    """Minimum mean Poisson error of estimating a*U from V ~ Poisson(a*U).

    The optimum is the posterior mean, computed exactly from the mixture;
    the error functional is the Poisson Bregman loss
    l(u, v) = v - u + u ln(u / v). Homogeneous of degree one in the gain.
    Under the posterior mean m(z) the loss sums to a per-z Jensen gap:
    mmpe = a * sum_z (E[U ln U; V=z] - P_V(z) m(z) ln m(z)).

    `a` is a scalar gain or an array of gains; a scalar returns a float.
    Gains whose means at the largest row lie close together form a group,
    and a group's gains share one gains x rows x z table per `_row_runs` run
    of rows, planned on each row's `_chernoff_window` at 1e-16: its lower
    end at the group's smallest gain, its upper end at the largest, so no
    row leaves out more than 1e-16 on either side at any gain. Each table of
    more than one row holds at most one block, _CHUNK_ELEMENTS = 2^16 cells,
    and a group takes as many gains as keep its columns on 0..the window end
    of the largest mean within 16 blocks (at least one), so memory stays
    bounded at any support size. A window end past the hard cap of 1e6 at
    the largest mean raises, before any table is built. The sums over the
    rows are einsum reductions, so the result does not depend on the BLAS
    thread count.
    """
    gains = np.asarray(a, dtype=float)
    if not np.all((0.0 < gains) & (gains < np.inf)):
        raise ValueError(f"gain must be positive and finite, got {a}")
    xs, w = _rows(input_pmf)[:2]
    moments = np.stack((w, w * xs, w * xs * np.log(xs)))

    flat = gains.ravel()
    # A row's table spans the means of every gain of its group, so gains are grouped by
    # floor(sqrt(lam) / 3) of the mean lam they give the largest row: there a group's
    # means spread by about 6 sqrt(lam), less than a row window's half-width there,
    # sqrt(2 ln(1e16) lam) = 8.6 sqrt(lam), and a quadrature panel splits only where its
    # means spread apart. A group holds its columns on 0..z_end while it streams its
    # tables; they may take one block per Gauss-Legendre node.
    lam_top = flat * xs[-1]
    key = np.sqrt(lam_top) // 3.0
    z_end = _chernoff_window(lam_top.max(), _MMPE_TAIL)[1]
    if z_end > _Z_HARD_CAP:
        raise RuntimeError(f"output support cutoff exceeded the hard cap {_Z_HARD_CAP}")
    step = max(1, _QUAD_POINTS * _CHUNK_ELEMENTS // int(3 * (z_end + 1)))
    out = np.empty(flat.size)
    for part in np.split(np.arange(flat.size), np.flatnonzero(np.diff(key)) + 1):
        for i in range(0, part.size, step):
            idx = part[i : i + step]
            out[idx] = _jensen_gap_sums(xs, moments, flat[idx])
    out *= flat
    if gains.ndim == 0:
        return float(out[0])
    return out.reshape(gains.shape)


def _panel_rule(f, cuts, start: float = 0.0) -> float:
    """Composite 16-point Gauss-Legendre integral of f over the panels between `cuts`.

    f maps an array of nodes to its values there; each panel's sum is added
    in turn to `start`. One call sums one level; the callers compare levels
    of doubled panels and gate the residual.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    total = start
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(weights @ f(mid + half * nodes))
    return total


def i_mmpe_integral(input_pmf: DiscretePmf, gamma: float) -> float:
    """Mutual information at gain `gamma` as the integral of mmpe(a U) da / a.

    Composite 16-point Gauss-Legendre quadrature (`_panel_rule`) on
    log-spaced panels, 3 per decade, over [a_min, gamma] with a_min = 1e-10;
    each panel is one `mmpe` call on all of its nodes. Below a_min the
    integrand is replaced by its analytic gain-to-zero limit
    E[U ln U] - E[U] ln E[U] (the singularity at zero is removable); the
    error of that is of order a_min^2. Convergence is verified by panel doubling
    to a relative 1e-10: the levels of 3, 6, 12, 24 and 48 panels per decade
    are summed once each, in turn, until one is within 1e-10 of the one
    before it; a miss at 48 raises.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")

    xs, ws = _rows(input_pmf)[:2]
    mean = float(np.einsum("i,i->", ws, xs))
    limit0 = float(np.einsum("i,i->", ws, xs * np.log(xs))) - mean * math.log(mean)

    if gamma <= _A_MIN:
        return limit0 * gamma

    def level(panels):
        cuts = np.logspace(math.log10(_A_MIN), math.log10(gamma), panels + 1)
        return _panel_rule(lambda aa: mmpe(input_pmf, aa) / aa, cuts, limit0 * _A_MIN)

    base = max(1, math.ceil(math.log10(max(gamma / _A_MIN, 10.0)) * _PANELS_PER_DECADE))
    coarse = level(base)
    # {1, 2, 7} at gains 4 to 10 needs 6 per decade
    for panels in (2 * base, 4 * base, 8 * base, 16 * base):
        fine = level(panels)
        residual = abs(fine - coarse)
        if residual <= 1e-10 * max(1.0, abs(fine)):
            return float(fine)
        coarse = fine
    raise RuntimeError(f"gain quadrature did not converge; residual estimate {residual:g}")


@dataclass(frozen=True)
class TruncationLoss:
    """Values and certified bounds of the three truncation-loss terms.

    t1 = s_max * P[X < s_min], t2 = E[X ln X; X > s_max],
    t3 = E[X ln(1/s_min); X > s_max] for X ~ Gamma(1/2, 2g) and the window
    [s_min, s_max] = [g^-(1+3 rho), g^(1+rho)]. The certified bounds
    (g^(-rho/2), e^(-g^rho/4), e^(-g^rho/4)) are asymptotic: they hold once
    g is large enough for the given rho.
    """

    t1: float
    t2: float
    t3: float
    t1_bound: float
    t2_bound: float
    t3_bound: float


def _upper_gamma_three_halves(u: float) -> float:
    """Q(3/2, u), the regularized upper incomplete gamma function at 3/2, in closed form.

    Q(3/2, u) = erfc(sqrt(u)) + 2 sqrt(u/pi) e^-u. Both terms are positive, and
    erfc's share is about 1/(2u) at large u, which cancels the 2u by which the
    rounding of sqrt(u) moves it; within 3.3e-16 of mpmath on [1e-12, 700].
    """
    return math.erfc(math.sqrt(u)) + 2.0 * math.sqrt(u / math.pi) * math.exp(-u)


def truncation_loss_terms(g: float, rho: float) -> TruncationLoss:
    """Evaluate the three mutual-information truncation-loss terms (see `TruncationLoss`).

    With u = s_max / (2g) = g^rho / 2 and Q(3/2, u) = erfc(sqrt(u)) + 2 sqrt(u/pi) e^-u
    (`_upper_gamma_three_halves`):
    t1 = s_max * P(1/2, s_min / (2g)), with P(1/2, x) = erf(sqrt(x));
    t3 = g ln(1/s_min) Q(3/2, u) in closed form; t2 = g ln(2g) Q(3/2, u) +
    (2g/sqrt(pi)) J(u), where J(u) = int_u^inf sqrt(s) ln(s) e^-s ds =
    e^-u int_0^60 sqrt(u+t) ln(u+t) e^-t dt up to a relative e^-60. The
    integral runs on `_panel_rule` with 60 unit panels, doubled to 120, and
    raises if the two differ by more than a relative 1e-12. A tail that
    underflows is 0.
    """
    if g < 2.0:
        raise ValueError(f"needs g >= 2, got {g}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    window = TruncationInterval.for_budget(g, rho)
    # P(1/2, x) = erf(sqrt(x)): exact to an ulp or two where scipy's gammainc(0.5, x)
    # loses about 40 ulps at tiny x (9.2e-15 relative at x = 5e-85); likewise Q(3/2, u),
    # where scipy's gammaincc(1.5, u) reaches 6.4e-14
    t1 = window.s_max * math.erf(math.sqrt(window.s_min / (2.0 * g)))

    # With s = x / (2g) the integrals over (s_max, inf) become
    # (2g/sqrt(pi)) * int sqrt(s) (...) e^-s ds starting at u = g^rho / 2,
    # and (2g/sqrt(pi)) * int_u^inf sqrt(s) e^-s ds = g * Q(3/2, u).
    u = window.s_max / (2.0 * g)
    scale = 2.0 * g / math.sqrt(math.pi)
    upper = g * _upper_gamma_three_halves(u)
    # J(u) = e^-u * inner; the factor keeps `inner` itself from underflowing
    coarse, inner = (
        _panel_rule(lambda t: np.sqrt(u + t) * np.log(u + t) * np.exp(-t),
                    np.linspace(0.0, _TAIL_SPAN, panels + 1))
        for panels in (_TAIL_SPAN, 2 * _TAIL_SPAN)
    )
    residual = abs(inner - coarse)
    if residual > 1e-12 * abs(inner):
        raise RuntimeError(f"tail quadrature did not converge; residual estimate {residual:g}")
    t2 = math.log(2.0 * g) * upper + scale * math.exp(-u) * inner
    t3 = math.log(1.0 / window.s_min) * upper
    bound23 = math.exp(-(g**rho) / 4.0)
    return TruncationLoss(
        t1=float(t1),
        t2=float(t2),
        t3=float(t3),
        t1_bound=g ** (-rho / 2.0),
        t2_bound=bound23,
        t3_bound=bound23,
    )
