"""Seeded random streams, finite PMFs, Poisson tables, and certified tail bounds.

The laws here are the ones the channel machinery needs: finite integer
laws held in log space (`DiscretePmf`), the truncated-and-rounded
Gamma(1/2, 2g) integer input law, Poisson log-pmfs and entropies, and
multinomial reads. Every banded Poisson table, here and in `mutual_info`,
is built one `_row_runs` run of rows at a time, each run at most one block
of _CHUNK_ELEMENTS = 2^16 cells (512 KiB of float64), by one walker,
`_poisson_tables`, on the one kernel `_log_pmf_kernel`. Every Poisson window
but the channel spec's (`poisson_band`) is `_chernoff_window` at its caller's
tolerance. One function picks and certifies them all: the exponent E =
`_bennett_exponent` of Bennett's Poisson tail bound e^-E, whose root at the
tolerance Newton's method finds for each window end, and which `_missed_mass`
evaluates at the ends to certify the mass the window leaves out.
`poisson_chernoff_lower_tail` is the same bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special_math import log_factorial
from .special_math import regularized_gamma_p  # noqa: F401  (perfbench/spans.py traces this name)

__all__ = [
    "RngStream",
    "DiscretePmf",
    "TruncationInterval",
    "poisson_log_pmf",
    "poisson_band",
    "poisson_entropy",
    "truncated_rounded_input_pmf",
    "multinomial_sample",
    "poisson_chernoff_lower_tail",
    "gamma_half_tail_bounds",
]

_U32, _U64 = 2**32, 2**64
# cells per block of every streamed table, the one budget of `_row_runs`' callers:
# 2^16 float64 cells are 512 KiB, so a block and its few temporaries fit a 1-2 MiB L2 cache
_CHUNK_ELEMENTS = 1 << 16
# largest input support a law may have: 10^7 float64 weights are 80 MB
_SUPPORT_CAP = 10**7
# erf(t) = 1/2: the input law's median is 2g t^2
_ERF_MEDIAN = 0.4769362762044699
# `poisson_entropy` sums its asymptotic series from this mean on, where the
# first term it drops, 3250433/11880 / lam^9, is below 1e-17
_SERIES_MIN_MEAN = 150.0
# c_1..c_8 of H(lam) = 1/2 ln(2 pi e lam) + sum_k c_k / lam^k. The c_8 term is at most
# 1.55e-16 (at lam = 150), a third of an ulp of H there, so no float64 test can tell it
# is kept. It stays so that the series' truncation error is the c_9 term, below 1e-17,
# and not c_8's own 1.55e-16, which moves the last bit of H at 472 of 20,001 even-spaced
# means in [150, 400]
_ENTROPY_SERIES = (
    -1 / 12, -1 / 24, -19 / 360, -9 / 80, -863 / 2520, -1375 / 1008, -33953 / 5040, -57281 / 1440
)
_TWO_PI_E = 2.0 * math.pi * math.e
# `poisson_entropy` refuses a band sum whose band leaves out this much mass or more, times
# min(1, lam): H is about lam ln(1/lam) at small means, so the gate keeps its relative digits
_ENTROPY_TAIL_TOL = 1e-14
# Newton steps `_chernoff_window` takes toward each end: four already give every end on a
# log grid of means from 1e-12 to 1e6 at tails from 1e-300 to 1/2, and the rest are margin
_WINDOW_STEPS = 6


class RngStream:
    """Seeded random stream (Philox) at a path of stream indices.

    The key comes from `np.random.SeedSequence(seed, spawn_key=path)`, so
    streams at different paths are independent and identical (seed, path)
    pairs replay identical draw sequences, regardless of how many other
    streams exist; this is what makes experiment results reproducible across
    worker counts. Every index is one 32-bit word of the key's entropy, so
    two different paths never feed it the same words. A single stream is
    stateful and must not be shared between concurrent workers.
    """

    def __init__(self, seed: int, *path: int):
        self.seed = int(seed) % _U64
        self.path = tuple(int(i) for i in path)
        if not all(0 <= i < _U32 for i in self.path):
            raise ValueError(f"stream indices must lie in [0, 2**32), got {self.path}")
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._generator = np.random.Generator(np.random.Philox(seq))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def substream(self, index: int) -> "RngStream":
        """Independent child stream at this stream's path extended by index."""
        return RngStream(self.seed, *self.path, index)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


class DiscretePmf:
    """Probability mass function on consecutive integers, held in log space.

    The support is {support_offset, ..., support_offset + s - 1}. Weights
    are normalized at construction; exp(log_weights) sums to one within
    1e-12 by construction.
    """

    def __init__(self, support_offset: int, log_weights):
        lw = np.asarray(log_weights, dtype=float)
        if lw.ndim != 1 or lw.size == 0:
            raise ValueError("log_weights must be a non-empty 1-D array")
        if np.any(np.isnan(lw)) or np.any(lw == np.inf):
            raise ValueError("log_weights must be finite or -inf")
        m = lw.max()
        if m == -np.inf:
            raise ValueError("PMF has no mass")
        lw = lw - (m + math.log(np.exp(lw - m).sum()))
        self.support_offset = int(support_offset)
        self.log_weights = lw
        self._probs = np.exp(lw)

    @classmethod
    def from_weights(cls, support_offset: int, weights) -> "DiscretePmf":
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        with np.errstate(divide="ignore"):
            return cls(support_offset, np.log(w))

    @property
    def size(self) -> int:
        return self.log_weights.size

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.support_offset, self.support_offset + self.size)

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    def mean(self) -> float:
        return float(np.einsum("i,i->", self._probs, self.support))

    def sample(self, rng: RngStream, size=None):
        return rng.generator.choice(self.support, p=self._probs, size=size)

    def __repr__(self):
        return f"DiscretePmf(offset={self.support_offset}, size={self.size})"


@dataclass(frozen=True)
class TruncationInterval:
    """Support window [s_min, s_max] used to restrict the pool-size law.

    The window must straddle 1 (s_min < 1 < s_max); the integer-rounded
    construction relies on that.
    """

    s_min: float
    s_max: float

    def __post_init__(self):
        if not (0.0 < self.s_min < 1.0 < self.s_max):
            raise ValueError(
                f"truncation interval needs s_min < 1 < s_max, got [{self.s_min}, {self.s_max}]"
            )

    @classmethod
    def for_budget(cls, g: float, rho: float) -> "TruncationInterval":
        """The window [g^-(1+3 rho), g^(1+rho)] used by the input construction."""
        return cls(g ** -(1.0 + 3.0 * rho), g ** (1.0 + rho))


def poisson_log_pmf(k, lam):
    """log P[Z = k] = -lam + k ln lam - ln k! for Z ~ Poisson(lam).

    `k` and `lam` broadcast against each other, so a (rows, 1) column of
    means against a row of counts gives the whole table; two scalars give
    a float. Every mean must be positive and every count non-negative.
    """
    lam = np.asarray(lam, dtype=float)
    bad = lam[~(lam > 0.0)]
    if bad.size:
        raise ValueError(f"poisson_log_pmf needs lambda > 0, got {bad.flat[0]}")
    k = np.asarray(k)
    if np.any(k < 0):
        raise ValueError("poisson_log_pmf needs k >= 0")
    out = _log_pmf_kernel(k, lam, np.log(lam), log_factorial(k))
    if np.ndim(out) == 0:
        return float(out)
    return out


def _log_pmf_kernel(k, lam, log_lam, log_k_factorial):
    """k ln lam - lam - ln k!, broadcast, from ln lam and ln k! that the caller holds.

    The one Poisson log-pmf kernel: `poisson_log_pmf` and every banded table
    (`_poisson_tables`) evaluate their cells with it.
    """
    out = np.multiply(k, log_lam)
    out -= lam
    out -= log_k_factorial
    return out


def _poisson_tables(means, runs, gains=1.0):
    """Yield (rows, z_lo, z_hi, ln p) per run of a banded Poisson table, one block at a time.

    Each run is a `_row_runs` tuple (start, stop, z_lo, z_hi): rows
    start..stop - 1 of `means` share the counts z_lo..z_hi, and `rows` is
    slice(start, stop). The block ln p is the log-pmf of every gain times
    every mean of the run's rows at every count, shaped np.shape(gains) +
    (rows, z_hi - z_lo + 1). This is the one walker of the banded tables: it
    checks the means, gains and counts once per call, takes ln z! from one
    table over every run's window and passes the counts as float64, so each
    cell costs one multiply and two subtractions.
    """
    if not runs:
        return
    means, gains = np.asarray(means, dtype=float), np.asarray(gains, dtype=float)
    if not (np.all(means > 0.0) and np.all(gains > 0.0)):
        raise ValueError("_poisson_tables needs positive means and gains")
    z_min, z_max = min(run[2] for run in runs), max(run[3] for run in runs)
    if z_min < 0:
        raise ValueError(f"_poisson_tables needs counts >= 0, got {z_min}")
    counts = np.arange(z_min, z_max + 1, dtype=float)
    log_fact = log_factorial(counts)
    for start, stop, z_lo, z_hi in runs:
        rows, window = slice(start, stop), slice(z_lo - z_min, z_hi - z_min + 1)
        lam = np.multiply.outer(gains, means[rows])[..., None]
        yield rows, z_lo, z_hi, _log_pmf_kernel(counts[window], lam, np.log(lam), log_fact[window])


def poisson_band(lam):
    """Integer band (lo, hi) = lam -+ (12 sqrt(lam + 1) + 40) of Poisson(lam), lo clipped at 0.

    The row bands of `mutual_info.PoissonChannelSpec`, and so its z_max, as
    int64 arrays shaped like `lam`; every other window is `_chernoff_window`.
    Its two-sided tail P[Z < lo] + P[Z > hi] stays below 1e-30 for every
    mean from 1e-9 to 1e6. The spec certifies what it drops with Bennett's
    bound on that tail (`_missed_mass`), below 1e-31 at every mean from 1e-300.
    """
    half = 12.0 * np.sqrt(lam + 1.0) + 40.0
    lo = np.maximum(0.0, np.ceil(lam - half)).astype(np.int64)
    return lo, np.floor(lam + half).astype(np.int64)


def _chernoff_window(lam, tail, lam_hi=None):
    """Integer window (lo, hi) of Z ~ Poisson(lam) with P[Z < lo] <= tail and P[Z > hi] <= tail.

    int64 arrays of lam, tail (in (0, 1)) and lam_hi broadcast, never decreasing in lam.
    With lam_hi, hi is taken there, so the window holds for every mean in [lam, lam_hi]: Z
    grows stochastically with its mean. Each end solves E(lam, n) = L, L = ln(1 / tail),
    with E = `_bennett_exponent`, the function `_missed_mass` certifies the window with:
    _WINDOW_STEPS Newton steps n <- (n + L - lam) / ln(n / lam), hi rounded down and lo
    rounded up, where lam > L (lo = 0 elsewhere). E is convex in n and each end starts
    where E >= L: hi at Bernstein's end lam + L/3 + sqrt(L^2/9 + 2 lam L), lo at the larger
    of lam - sqrt(2 lam L) and (lam - L)^2 / (4 lam). So every iterate stays on its side
    of the root, and every step count gives a window that Bennett's bound certifies.
    """
    lam = np.asarray(lam, dtype=float)
    top = lam if lam_hi is None else np.asarray(lam_hi, dtype=float)
    log_inv = -np.log(tail)
    hi = top + log_inv / 3.0 + np.sqrt(log_inv * log_inv / 9.0 + 2.0 * top * log_inv)
    lam, log_inv_lo = np.broadcast_arrays(lam, log_inv)
    far = lam > log_inv_lo
    mean, log_inv_far = lam[far], log_inv_lo[far]
    n = np.maximum(mean - np.sqrt(2.0 * mean * log_inv_far),
                   (mean - log_inv_far) ** 2 / (4.0 * mean))
    # at a subnormal top, hi / top overflows and hi falls to 0, which such a mean certifies
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(_WINDOW_STEPS):
            hi = (hi + log_inv - top) / np.log(hi / top)
            n = (n + log_inv_far - mean) / np.log(n / mean)
    lo = np.zeros(far.shape)
    lo[far] = np.ceil(n)
    return lo.astype(np.int64), np.floor(hi).astype(np.int64)


def _bennett_exponent(lam, n):
    """E(lam, n) = n ln(n / lam) - (n - lam), and lam at n = 0: Bennett's bound e^-E
    on P[Z >= n] for n at or above the mean of Z ~ Poisson(lam), and on P[Z <= n] for
    n at or below it.

    ln(n / lam) is log1p((n - lam) / lam) below twice the mean, so E keeps its digits
    where it is small, and ln n - ln lam from there on, where n / lam could overflow at
    a subnormal mean. So E is finite or +inf, never NaN, at every finite lam > 0 and
    n >= 0; lam and n broadcast.
    """
    lam, n = np.asarray(lam, dtype=float), np.asarray(n, dtype=float)
    d = n - lam
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.where(np.abs(d) < lam, np.log1p(d / lam), np.log(n) - np.log(lam))
        return np.where(n == 0.0, lam, n * log_ratio - d)


def _missed_mass(lam, lo, hi):
    """Bennett's bound on P[Z < lo] + P[Z > hi] for Z ~ Poisson(lam): e^-E(lam, lo - 1)
    + e^-E(lam, hi + 1), with E = `_bennett_exponent`.

    The one certificate of every Poisson window, from the function whose root
    `_chernoff_window` finds to pick them. A term whose count lies on the
    mean's own side bounds nothing tighter than 1, and is 1; lo = 0 leaves
    P[Z > hi] alone, as P[Z < 0] = 0. lam, lo and hi broadcast.
    """
    below, above = lo - 1.0, hi + 1.0
    lower = np.where(below < lam, _bennett_exponent(lam, np.maximum(below, 0.0)), 0.0)
    upper = np.where(above > lam, _bennett_exponent(lam, above), 0.0)
    return np.where(below < 0.0, 0.0, np.exp(-lower)) + np.exp(-upper)


def _row_runs(lo, hi, budget: int) -> list:
    """Split rows with windows [lo, hi], both never decreasing, into runs of consecutive rows.

    Returns (start, stop, z_lo, z_hi) per run, in row order: rows
    start..stop - 1 share the window z_lo..z_hi = lo[start]..hi[stop - 1].
    A run of more than one row has a window at most 5/4 as wide as its first
    row's, and its rows times that window hold at most `budget` cells. This
    is the one chunk rule of every banded Poisson table.
    """
    runs, a = [], 0
    while a < len(lo):
        span = int(hi[a] - lo[a] + 1) * 5 // 4
        b = int(np.searchsorted(hi, lo[a] + span - 1, side="right"))
        b = max(a + 1, min(b, a + budget // span))
        runs.append((a, b, int(lo[a]), int(hi[b - 1])))
        a = b
    return runs


def poisson_entropy(lam):
    """Entropy of Poisson(lam) in nats: its asymptotic series from lam >= 150, else a band sum.

    `lam` is a scalar or an array of means; a scalar is the one-element case
    and returns a float. From `_SERIES_MIN_MEAN` = 150 up, the entropy is
    1/2 ln(2 pi e lam) + sum_{k=1}^{8} c_k / lam^k with c_1..c_8 = -1/12,
    -1/24, -19/360, -9/80, -863/2520, -1375/1008, -33953/5040, -57281/1440
    (Evans, Boersma, Blachman and Jagers 1988, "The entropy of a Poisson
    distribution", SIAM Review 30(2); the coefficients follow from Stirling's
    series and the Poisson central moments). The first dropped term,
    3250433/11880 / lam^9, is below 7.2e-18 there, and the series takes no
    table. Below 150, the sorted means go in `_row_runs` runs, and each mean
    is summed over its run's window, which contains its band: its
    `_chernoff_window` at 1e-20 min(1, lam) a side, so H keeps its relative
    digits where it is tiny. The mass left outside the band is certified in
    closed form by the bound that picked the band, Bennett's (`_missed_mass`),
    rather than by 1 - sum(p), which drowns in float rounding; a mean whose
    certificate is not at most _ENTROPY_TAIL_TOL min(1, lam), that is
    1e-14 min(1, lam), raises, and so does a NaN certificate.
    """
    lams = np.asarray(lam, dtype=float)
    if np.any(~(lams > 0.0)):
        raise ValueError(f"poisson_entropy needs lambda > 0, got {lam}")
    flat = lams.ravel()
    out = np.empty(flat.size)

    far = flat >= _SERIES_MIN_MEAN
    inv = 1.0 / flat[far]
    tail = np.zeros(inv.size)
    for c in reversed(_ENTROPY_SERIES):
        tail += c
        tail *= inv
    out[far] = 0.5 * np.log(_TWO_PI_E * flat[far]) + tail

    near = np.flatnonzero(~far)
    lam_near = flat[near]
    lo, hi = _chernoff_window(lam_near, 1e-20 * np.minimum(1.0, lam_near))
    missed = _missed_mass(lam_near, lo, hi)
    refused = ~(missed <= _ENTROPY_TAIL_TOL * np.minimum(1.0, lam_near))
    if refused.any():
        i = int(np.argmax(refused))
        raise RuntimeError(
            f"poisson_entropy band misses mass {missed[i]:g} at lambda={lam_near[i]}"
        )
    order = np.argsort(lam_near, kind="stable")
    runs = _row_runs(lo[order], hi[order], _CHUNK_ELEMENTS)
    for rows, _, _, logp in _poisson_tables(lam_near[order], runs):
        out[near[order[rows]]] = -(np.exp(logp) * logp).sum(axis=1)
    if np.ndim(lam) == 0:
        return float(out[0])
    return out.reshape(lams.shape)


def truncated_rounded_input_pmf(g: float, rho: float) -> DiscretePmf:
    """Integer input law: Gamma(1/2, 2g) restricted to a window, then rounded up.

    The window is [g^-(1+3 rho), g^(1+rho)]. For integer k >= 1 the mass is
    (F(min(k, s_max)) - F(max(k-1, s_min)))+ renormalized by the window mass,
    with F the Gamma(1/2, 2g) CDF, F(s) = erf(sqrt(s / 2g)). Below the median the
    cells are differences of `math.erf`, above it of `math.erfc`, so that the
    smallest cells, at the top, keep their relative digits. The support is
    {1, ..., ceil(g^(1+rho))} and there is never mass at zero; a support above
    _SUPPORT_CAP points is refused before anything is allocated.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if g < 2.0:
        raise ValueError(f"need g >= 2 so the truncation window keeps solid mass, got {g}")
    window = TruncationInterval.for_budget(g, rho)
    s_min, s_max = window.s_min, window.s_max
    top = math.ceil(s_max)
    if top > _SUPPORT_CAP:
        raise ValueError(f"input support {top} exceeds the cap {_SUPPORT_CAP}")

    # sqrt(s / 2g) at the clipped cell boundaries 0..top. The window straddles the median
    # (s_min < 1 and s_max / 2g = g^rho / 2 > 1/2), so both sides hold a boundary, and
    # each boundary takes the one of F and 1 - F that is below 1/2; the window mass
    # 1 - (1 - F(s_max)) - F(s_min) is then above 0 too.
    roots = np.sqrt(np.clip(np.arange(0, top + 1, dtype=float), s_min, s_max) / (2.0 * g))
    split = int(np.searchsorted(roots, _ERF_MEDIAN))
    cdf = np.fromiter(map(math.erf, roots[:split]), float)
    sf = np.fromiter(map(math.erfc, roots[split:]), float)
    cells = np.concatenate((np.diff(cdf), [(1.0 - sf[0]) - cdf[-1]], -np.diff(sf)))
    mass = (1.0 - sf[-1]) - cdf[0]
    return DiscretePmf.from_weights(1, np.clip(cells, 0.0, None) / mass)


def multinomial_sample(trials: int, probs, rng: RngStream) -> np.ndarray:
    """Histogram of `trials` categorical draws; one pass of conditional binomials.

    Returns an integer vector with the exact total `trials`.
    """
    if trials < 0:
        raise ValueError(f"multinomial_sample needs trials >= 0, got {trials}")
    p = np.asarray(probs, dtype=float)
    # NaN compares False, so each check asks that every probability pass it
    if not np.all(p >= 0):
        raise ValueError("probabilities must be non-negative")
    total = p.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"probabilities must sum to 1 within 1e-9, got {total}")
    return rng.generator.multinomial(int(trials), p / total).astype(np.int64)


def poisson_chernoff_lower_tail(lam: float, alpha: float) -> float:
    """Chernoff bound on P[Z <= alpha * lam] for Z ~ Poisson(lam), alpha <= 1.

    Returns Bennett's bound exp(-E(lam, alpha lam)) = exp(-lam (1 - alpha ln(e/alpha)))
    (`_bennett_exponent`), never above the looser exp(-lam (1-alpha)^2 / 2), as
    1 - alpha + alpha ln alpha >= (1 - alpha)^2 / 2 on (0, 1].
    """
    if lam <= 0.0:
        raise ValueError(f"needs lambda > 0, got {lam}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"needs alpha in (0, 1], got {alpha}")
    return float(np.exp(-_bennett_exponent(lam, alpha * lam)))


def gamma_half_tail_bounds(g: float, eta: float, rho: float):
    """Certified tail bounds for X ~ Gamma(1/2, 2g).

    Returns (lower, upper): P[X <= g^eta] <= g^-((1-eta)/2) for eta < 1, and
    P[X >= g^(1+rho)] <= 2 exp(-g^rho / 2) for rho > 0.
    """
    if g <= 0.0:
        raise ValueError(f"needs g > 0, got {g}")
    if eta >= 1.0:
        raise ValueError(f"needs eta < 1, got {eta}")
    if rho <= 0.0:
        raise ValueError(f"needs rho > 0, got {rho}")
    lower = g ** (-(1.0 - eta) / 2.0)
    upper = 2.0 * math.exp(-(g**rho) / 2.0)
    return lower, upper
