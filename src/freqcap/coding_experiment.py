"""Desk-scale random-coding experiments on the frequency channel.

Pipeline: build the integer input law, take the common codeword sum as the
exact mode of a block sum, sample a fixed-sum random codebook (rejection on
n - 8 letters, the last 8 drawn from their exact law given their sum),
push codewords through the channel (`transmit`; from a small pool each
read is an object index drawn uniformly from it), and decode either by
scan-order threshold on the Poisson-surrogate information density or by
exact maximum likelihood.
Both decoders share one statistic, S(y) = sum_i y_i ln(x_i / tau); the
surrogate (gain n r / tau) adds a term in y alone. A trial first scores
all codewords with one float32 einsum over a float32 copy of
ln(x / tau), with a certified bound on its distance
to the float64 score (`Codebook._screen`); only a trial whose decision
falls inside that bound is rescored in float64 (`Codebook._log_likelihoods`),
so every decision is the float64 one. No score enters BLAS, so no idle BLAS
worker spins between trials and no output depends on the BLAS thread
count. Reports compare the empirical error against the Feinstein bound,
whose spectrum term is a certified Chernoff-Hölder bound
(`_spectrum_log_cdf_bound`), not a sampled frequency; a config with
spectrum_samples > 0 also samples that term and fails if the sample
exceeds the bound by more than 5 standard errors.
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import get_args

import numpy as np

from .capacity_bounds import achievability_bound, converse_bound
from .channel import ChannelParams, CountVector, transmit
from .distributions import _CHUNK_ELEMENTS, DiscretePmf, RngStream, truncated_rounded_input_pmf
from .mutual_info import (
    PoissonChannelSpec,
    _least_over_tilts,
    _TiltedRows,
    mutual_information,
    spectrum_mc,
)
from .special_math import log_factorial  # noqa: F401  (perfbench/spans.py traces this name)

__all__ = [
    "Codebook",
    "ExperimentConfig",
    "ExperimentReport",
    "FeinsteinBound",
    "select_tau",
    "generate_codebook",
    "decode_ml",
    "decode_threshold",
    "feinstein_rhs",
    "run_experiment",
    "density_correction",
]

# letters of each codeword drawn from their exact law given the rest's sum
_COMPLETED_LETTERS = 8

# `generate_codebook` raises once its candidates pass this many per codeword
_MAX_ATTEMPTS_PER_WORD = 200_000

# unit roundoffs of float32 and float64
_U32 = 2.0**-24
_U64 = 2.0**-53


def _screen_factor(k: int) -> float:
    """c / (1 - c), c = u32 + gamma32_k (1 + u32) + gamma64_k, padded by 2^-20.

    |S32 - S64| <= c A for a k-term score whose terms all share one sign,
    A = sum_i y_i |L_i| = |S|: the table's rounding to float32 costs u32 A,
    the float32 sum gamma32_k A (1 + u32) and the float64 one gamma64_k A,
    gamma_k = k u / (1 - k u) for any summation order (Higham, "Accuracy and
    Stability of Numerical Algorithms", 3.1 and 3.5). As A <= |S32| + c A,
    the bound is c |S32| / (1 - c). The pad is far above the float64
    roundings of the bound and of the comparisons made against it.
    """
    gamma32 = k * _U32 / (1.0 - k * _U32)
    gamma64 = k * _U64 / (1.0 - k * _U64)
    c = _U32 + gamma32 * (1.0 + _U32) + gamma64
    return c / (1.0 - c) * (1.0 + 2.0**-20)


def density_correction(reads: int) -> float:
    """Additive surrogate-density correction 0.5 * ln(6 pi n r).

    Bridges the fixed-read-total likelihood and the product-Poisson one;
    the threshold decoder subtracts it from every surrogate density sum.
    """
    if reads < 1:
        raise ValueError(f"reads must be >= 1, got {reads}")
    return 0.5 * math.log(6.0 * math.pi * reads)


class Codebook:
    """Fixed-sum random codebook: M integer codewords, each summing to tau."""

    def __init__(self, matrix, tau, attempts):
        self.matrix = np.asarray(matrix, dtype=np.int64)
        self.tau = int(tau)
        self.attempts = int(attempts)
        if np.any(self.matrix.sum(axis=1) != self.tau):
            raise ValueError("every codeword must sum to tau")
        self._zero_free = bool(np.all(self.matrix > 0))

    def __len__(self):
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def accept_rate(self) -> float:
        return len(self) / self.attempts if self.attempts else 0.0

    def codeword(self, m: int) -> CountVector:
        return CountVector(self.matrix[m])

    @property
    def log_frequencies(self) -> np.ndarray:
        """ln(x_mi / tau) in float64, computed on each access; the codebook keeps
        only its float32 copy."""
        return self._log_rows(slice(None))

    def _log_rows(self, rows) -> np.ndarray:
        """ln(x_mi / tau) in float64 for `rows`, a row index or a slice of rows.

        Each entry depends on its letter alone, so a row computed here is
        bit for bit the same row of `log_frequencies`.
        """
        out = self.matrix[rows].astype(float)  # cast first: a mixed divide buffers the cast
        out /= self.tau
        with np.errstate(divide="ignore"):
            return np.log(out, out=out)

    @cached_property
    def _score_table(self) -> np.ndarray:
        """`log_frequencies` rounded to float32, built a quarter block of letters
        (_CHUNK_ELEMENTS / 4, or one row) at a time: their float64 quotients stay
        within a quarter block, and no whole float64 table is ever held."""
        table = np.empty(self.matrix.shape, dtype=np.float32)
        step = max(1, _CHUNK_ELEMENTS // 4 // self.n)
        for start in range(0, len(self), step):
            rows = slice(start, start + step)
            table[rows] = self._log_rows(rows)
        return table

    @cached_property
    def _first_copy(self) -> np.ndarray:
        """Each row's first copy: duplicate rows score alike only up to rounding.

        Rows are keyed in the narrowest unsigned type that holds every letter,
        so the keys take a fraction of the matrix's memory.
        """
        first = {}
        compact = self.matrix.astype(np.min_scalar_type(self.matrix.max()))
        return np.array([first.setdefault(row.tobytes(), m) for m, row in enumerate(compact)])

    def _log_likelihoods(self, y: np.ndarray) -> np.ndarray:
        """S(y) = sum_i y_i ln(x_mi / tau) for every codeword m; -inf where x_mi = 0 < y_i.

        The exact scores: one float64 einsum reduction over `log_frequencies`.
        Not a BLAS matrix-vector product: a threaded BLAS leaves its idle
        workers spinning through the caller's next trial, and einsum's own
        loop gives the same scores at any BLAS thread count. The decoders
        call it only for a trial that `_screen` leaves undecided.
        """
        log_frequencies = self.log_frequencies
        if not self._zero_free:
            # 0 * ln 0 would be nan: drop the outputs that are zero
            mask = y > 0
            log_frequencies, y = log_frequencies[:, mask], y[mask]
        return np.einsum("mi,i->m", log_frequencies, y.astype(float))

    def _screen(self, y: np.ndarray):
        """(S32, b): S(y) scored in float32, as float64, and a bound per row,
        |S32_m - S64_m| <= b_m, S64 being `_log_likelihoods(y)`.

        One einsum over the float32 table, masked as `_log_likelihoods` is, so
        every term is <= 0 and `_screen_factor` applies. A row at -inf is -inf
        in both precisions, with b = 0. None where the bound does not hold:
        a count of 2^24 or more, which float32 does not hold exactly, or so
        many terms that (k + 2) u32 > 0.1.
        """
        table = self._score_table
        if not self._zero_free:
            mask = y > 0
            table, y = table[:, mask], y[mask]
        k = y.size
        if (k + 2) * _U32 > 0.1 or y.max(initial=0) >= 2**24:
            return None
        scores = np.einsum("mi,i->m", table, y.astype(np.float32)).astype(float)
        bound = np.abs(scores) * _screen_factor(k)
        if not self._zero_free:
            bound[np.isneginf(scores)] = 0.0
        return scores, bound


def _sum_law(probs: np.ndarray, n: int) -> np.ndarray:
    """Law of the sum of n IID letters: entry s is the probability that they
    sum to n * offset + s, offset being the support's lowest value.

    The n-fold convolution of the letter pmf, computed whole with one real
    FFT of length L = 2^ceil(log2(n (len(probs) - 1) + 1)), long enough that
    the circular convolution does not wrap. Its error is absolute and grows with
    n: 5.1e-15 at n = 269 for {0, 1, 0}, 1.5e-15 at n = 295 for (1/31, 30/31).
    """
    size = n * (probs.size - 1) + 1
    length = 1 << (size - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(probs, length) ** n, length)[:size]


def select_tau(input_pmf: DiscretePmf, n: int):
    """The modal block sum tau and its probability P[F] = P[X_1 + ... + X_n = tau].

    Both are read off the exact law of the block sum (`_sum_law`). On a law
    symmetric about its mode, the FFT's noise must not choose between tied
    bins, so tau is the first bin within a relative 1e-12 of the maximum.
    The mode maximizes the codebook's acceptance rate downstream. Returns
    (tau, P[F]).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    law = _sum_law(input_pmf.probs, n)
    mode = int(np.argmax(law >= law.max() * (1.0 - 1e-12)))
    return n * int(input_pmf.support[0]) + mode, float(law[mode])


def _completion_laws(probs: np.ndarray, k: int) -> list:
    """P_0, ..., P_k, the j-fold convolutions of the letter pmf: P_j[s] is the
    probability that j IID letters sum to j * offset + s, offset being the
    support's lowest value."""
    laws = [np.ones(1)]
    for _ in range(k):
        laws.append(np.convolve(laws[-1], probs))
    return laws


def _at(law: np.ndarray, index: np.ndarray) -> np.ndarray:
    """law[index], and 0 where index falls outside law."""
    inside = (index >= 0) & (index < law.size)
    return np.where(inside, law[np.where(inside, index, 0)], 0.0)


def _complete(index, laws, probs, gen) -> np.ndarray:
    """Support indices of k = len(laws) - 1 letters per row, drawn from their
    law given that their sum sits at `index` in P_k.

    Letters go backwards: letter j is drawn from i ∝ p(i) P_{j-1}(index - i),
    and index - i is what it leaves for the j - 1 letters before it. Every
    row needs P_k(index) > 0; one uniform per row per letter.
    """
    k = len(laws) - 1
    letters = np.empty((index.size, k), dtype=np.int64)
    for j in range(k, 0, -1):
        weights = probs * _at(laws[j - 1], index[:, None] - np.arange(probs.size))
        cdf = np.cumsum(weights, axis=1)
        # a uniform below 1 times the total stays below it, so i has weight
        u = gen.random(index.size) * cdf[:, -1]
        i = (cdf <= u[:, None]).sum(axis=1)
        letters[:, j - 1] = i
        index = index - i
    return letters


def generate_codebook(
    M: int,
    n: int,
    input_pmf: DiscretePmf,
    tau: int,
    rng: RngStream,
) -> Codebook:
    """Sample M IID codewords from the product law conditioned on sum tau.

    A candidate draws the multiset of n - k letters (multinomial over the
    support), k = min(8, n), leaving t = tau minus its sum for the last k
    letters. It is kept with probability P_k(t) / max_s P_k(s), where P_k
    is the law of a sum of k letters. A kept candidate's k letters are
    drawn from their exact law given sum t, prod_j p(x_j) / P_k(t), and
    the whole multiset is arranged uniformly at random.

    Why this is exact: read a candidate as n - k IID letters, whose order
    the final shuffle discards, drawn with probability prod_i p(x_i).
    Keeping it multiplies that by P_k(t) / max_s P_k(s), and the completion
    by prod_j p(x_j) / P_k(t). P_k(t) cancels, so a codeword comes out with
    probability proportional to prod p(x_i) over all n letters, restricted
    to sum tau: the IID law conditioned on the sum, the same target as
    rejection on the full sum, at 1 / max_s P_k(s) times its acceptance
    rate. Duplicates are allowed. `attempts` counts candidates. Raises with
    the observed acceptance rate past _MAX_ATTEMPTS_PER_WORD per codeword.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    support = input_pmf.support
    probs = input_pmf.probs
    k = min(_COMPLETED_LETTERS, n)
    laws = _completion_laws(probs, k)
    tail = laws[k]
    tail_max = tail.max()
    gen = rng.generator
    budget = _MAX_ATTEMPTS_PER_WORD * M
    batch = 4096
    words = np.empty((M, n), dtype=np.int64)
    filled = attempts = 0
    while filled < M:
        counts = gen.multinomial(n - k, probs, size=batch)
        # index into P_k of what the last k letters must add up to
        index = tau - counts @ support - k * support[0]
        hits = np.flatnonzero(gen.random(batch) * tail_max < _at(tail, index))
        needed = M - filled
        if hits.size >= needed:
            # stop counting attempts at the draw that completed the codebook
            attempts += int(hits[needed - 1]) + 1
            hits = hits[:needed]
        else:
            attempts += batch
        completions = support[_complete(index[hits], laws, probs, gen)]
        for row, last in zip(hits, completions):
            word = np.concatenate([np.repeat(support, counts[row]), last])
            words[filled] = gen.permutation(word)
            filled += 1
        if filled < M and attempts > budget:
            raise RuntimeError(
                f"codebook rejection budget exhausted: {filled}/{M} words after "
                f"{attempts} attempts (acceptance rate ~{(filled + 1) / attempts:.2e})"
            )
    return Codebook(words, tau, attempts)


def _checked_counts(y, params: ChannelParams) -> np.ndarray:
    y = y.counts if isinstance(y, CountVector) else np.asarray(y, dtype=np.int64)
    if int(y.sum()) != params.reads:
        raise ValueError(f"output total {y.sum()} differs from the read count {params.reads}")
    return y


def _density_offset(y: np.ndarray, spec: PoissonChannelSpec, tau: int) -> float:
    """c(y) = -gain tau + reads ln(gain tau) - sum_i T(y_i), T(z) = ln z! + log P_Z(z).

    T is the spec's per-output table (`density_offset`). As lam_i = gain * x_i
    sums to gain * tau, S(y) + c(y) is the surrogate density sum,
    sum_i -lam_i + y_i ln lam_i - ln y_i! - log P_Z(y_i).
    """
    counts = np.bincount(y)
    z = np.flatnonzero(counts)
    lam_total = spec.gain * tau
    per_value = spec.density_offset(z)
    return -lam_total + int(y.sum()) * math.log(lam_total) - float(counts[z] @ per_value)


def decode_ml(y, codebook: Codebook, params: ChannelParams):
    """Maximum-likelihood message under the multinomial read model.

    Scores each codeword by S(y) = sum_i y_i * ln(x_i(m) / tau), the
    statistic the threshold decoder shares; a codeword with a zero where y
    is positive scores -inf. Ties, copies of one codeword included, break
    to the lowest index; None signals that every codeword is impossible.

    The float64 argmax lies among the screen's contenders, the rows whose
    S32 + b reaches the largest S32 - b; when they are all copies of one
    codeword, that codeword is the answer, else the trial is rescored in
    float64.
    """
    y = _checked_counts(y, params)
    screen = codebook._screen(y)
    if screen is not None:
        scores, bound = screen
        if not np.any(scores > -np.inf):
            return None
        contenders = codebook._first_copy[scores + bound >= (scores - bound).max()]
        if np.all(contenders == contenders[0]):
            return int(contenders[0])
    scores = codebook._log_likelihoods(y)
    if not np.any(scores > -np.inf):
        return None
    return int(codebook._first_copy[scores.argmax()])


def decode_threshold(
    y,
    codebook: Codebook,
    log_gamma: float,
    spec: PoissonChannelSpec,
    params: ChannelParams,
):
    """Scan-order threshold decoder on the corrected Poisson-surrogate density.

    Returns the first message whose density sum minus 0.5 * ln(6 pi n r)
    clears log_gamma, or None (an erasure, counted as an error by callers).
    The density sum is S(y) of `decode_ml` plus a term in y alone, so a
    codeword with a zero where y is positive never passes. The surrogate is
    `spec`, whose gain is used; `run_experiment` builds it once per run at
    gain params.reads / codebook.tau.

    A row's verdict is read off the screen's S32 where its margin to the
    threshold exceeds its bound b plus 8 float64 ulps of the terms added to
    it, which covers the two roundings of the float64 verdict. The first
    row that may pass decides the trial if its verdict is sure; otherwise
    the trial is rescored in float64.
    """
    y = _checked_counts(y, params)
    return _decode_threshold(y, codebook, log_gamma, _density_offset(y, spec, codebook.tau),
                             params.reads)


def _decode_threshold(y, codebook: Codebook, log_gamma: float, offset: float, reads: int):
    """`decode_threshold` on checked counts y, given c(y) = `_density_offset`."""
    correction = density_correction(reads)
    screen = codebook._screen(y) if math.isfinite(offset) else None
    passing = None
    if screen is not None:
        scores, bound = screen
        if not math.isfinite(log_gamma):
            # a finite density clears -inf and nothing clears +inf
            passing = scores > log_gamma
        else:
            margin = scores + (offset - correction - log_gamma)
            bound = bound + 8 * _U64 * (abs(offset) + correction + abs(log_gamma))
            sure = margin > bound
            first_open = int(np.argmax(margin >= -bound))
            if sure[first_open] or margin[first_open] < -bound[first_open]:
                passing = sure
    if passing is None:
        densities = codebook._log_likelihoods(y) + offset
        passing = densities - correction > log_gamma
    if not np.any(passing):
        return None
    return int(codebook._first_copy[np.argmax(passing)])


def _spectrum_log_cdf_bound(spec: PoissonChannelSpec, n: int, log_threshold: float) -> float:
    """Certified ln P[i(X_1, Z_1) + ... + i(X_n, Z_n) <= log_threshold] for n IID
    letters X_k of the input law of `spec`, Z_k ~ Poisson(gain X_k).

    Chernoff at tilt -s, then Hölder past spec.z_max (`_TiltedRows`): the least
    over _CHERNOFF_S of n ln sum_x w_x sums(s)[x] + s log_threshold.
    """
    rows = _TiltedRows(spec)
    return _least_over_tilts(
        lambda s: n * np.log(np.einsum("x,x->", rows.sums(s), rows.weights)) + s * log_threshold
    )


def _check_spectrum_bound(spec: PoissonChannelSpec, n: int, samples: int, rng: RngStream,
                          theta: float, bound: float) -> None:
    """Sample the spectrum CDF at theta (`spectrum_mc`) and raise ArithmeticError if the
    frequency exceeds the certified `bound` by more than 5 standard errors.

    The standard error is that of a frequency with mean min(bound, 1/2), the
    largest of any frequency whose mean is at most the bound.
    """
    frequency = spectrum_mc(spec, n, samples, rng, thresholds=[theta]).cdf[0]
    q = min(bound, 0.5)
    if frequency > bound + 5.0 * math.sqrt(q * (1.0 - q) / samples):
        raise ArithmeticError(
            f"sampled spectrum CDF {frequency!r} at {theta!r} exceeds the certified "
            f"bound {bound!r} by more than 5 standard errors ({samples} samples)"
        )


@dataclass(frozen=True)
class FeinsteinBound:
    """Threshold-decoding error bound (CDF term + M/gamma term) / P[F]."""

    value: float
    raw: float
    saturated: bool


def feinstein_rhs(
    spectrum_cdf_at_gamma: float, M: int, log_gamma: float, p_F: float
) -> FeinsteinBound:
    """(P[density <= log_gamma] + M * exp(-log_gamma)) / p_F, clamped to [0, 1].

    p_F is the probability that a random block lands in the fixed-sum input
    set; it must be positive. log_gamma may be infinite but not NaN, which
    would otherwise pass as a bound of 1. Saturation (raw value above one) is
    flagged.
    """
    if p_F <= 0.0:
        raise ValueError("p_F must be positive")
    if not 0.0 <= spectrum_cdf_at_gamma <= 1.0:
        raise ValueError("spectrum CDF value must lie in [0, 1]")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if math.isnan(log_gamma):
        raise ValueError("log_gamma must not be NaN")
    try:
        union_term = M * math.exp(-log_gamma)
    except OverflowError:
        union_term = math.inf
    raw = (spectrum_cdf_at_gamma + union_term) / p_F
    return FeinsteinBound(value=min(1.0, raw), raw=raw, saturated=raw > 1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; flat and file-loadable."""

    n: int
    g: float
    r: float
    rho: float = 0.5
    delta: float = 0.3
    m: int | None = None  # None: use the threshold-bound sizing rule
    decoder: str = "threshold"
    trials: int = 200
    seed: int = 0
    spectrum_samples: int = 0  # > 0: cross-check the certified spectrum CDF by sampling

    def __post_init__(self):
        if self.decoder not in ("threshold", "ml"):
            raise ValueError(f"decoder must be 'threshold' or 'ml', got {self.decoder!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.spectrum_samples < 0:
            raise ValueError("spectrum_samples must be >= 0")
        if self.m is not None and self.m < 2:
            raise ValueError("M must be >= 2")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Read a flat key=value config file (blank lines and # comments ignored)."""
        values = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, raw = line.partition("=")
                values[key.strip()] = raw.strip()
        # each key is parsed with its field's type; `int | None` reads as int
        types = {
            f.name: next((t for t in get_args(f.type) if t is not type(None)), f.type)
            for f in fields(cls)
        }
        unknown = set(values) - set(types)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{name: types[name](raw) for name, raw in values.items()})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment, with the bound values it should be read against."""

    config: dict
    decoder: str
    m: int
    m_clamped: bool
    tau: int
    p_f: float
    rate: float
    mutual_information: float
    achievability: float
    converse: float
    log_gamma: float
    spectrum_cdf_at_gamma: float
    feinstein_value: float
    feinstein_saturated: bool
    trials: int
    errors: int
    correct: int
    error_rate: float
    wilson_low: float
    wilson_high: float
    mean_true_density: float
    notes: tuple = field(default=())

    def to_json(self) -> str:
        doc = {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.__dict__.items()}
        return json.dumps(doc, sort_keys=True)


def _wilson_interval(errors: int, trials: int):
    z = 1.959963984540054  # the two-sided 95% normal quantile
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_experiment(config: ExperimentConfig, trace_path: str | None = None) -> ExperimentReport:
    """Run one full encode-transmit-decode experiment.

    Deterministic for a fixed config (the stream layout hangs off
    config.seed); identical configs produce byte-identical reports.
    Stage failures propagate with a stage label on the message.
    """
    rng = RngStream(config.seed)
    params = ChannelParams(config.n, config.g, config.r)

    def stage(name, fn):
        try:
            return fn()
        except Exception as exc:
            raise RuntimeError(f"experiment stage '{name}' failed: {exc}") from exc

    input_pmf = stage("input-law", lambda: truncated_rounded_input_pmf(config.g, config.rho))
    tau, p_f = stage("tau-selection", lambda: select_tau(input_pmf, config.n))
    # The codebook realizes the normalized budget tau/n, so the matched
    # Poisson surrogate has gain n*r/tau; it tends to r/g as g grows.
    gain = params.reads / tau
    spec = stage("channel-spec", lambda: PoissonChannelSpec(input_pmf, gain))
    mi = stage("mutual-information", lambda: mutual_information(spec))

    correction = density_correction(params.reads)
    m_clamped = False
    if config.m is not None:
        m = config.m
    else:
        # Codebook sizing from the threshold bound: ln M = n I - 3 n delta - corr.
        log_m = config.n * mi - 3.0 * config.n * config.delta - correction
        if log_m > math.log(2**20):
            raise RuntimeError(
                f"bound-sized codebook would need e^{log_m:.1f} codewords; "
                "set m explicitly for a materializable experiment"
            )
        m = max(2, int(round(math.exp(log_m))))
        m_clamped = log_m < math.log(2.0)
    log_gamma = config.n * mi - 2.0 * config.n * config.delta - correction

    codebook = stage(
        "codebook",
        lambda: generate_codebook(m, config.n, input_pmf, tau, rng.substream(2)),
    )

    # the densities are compared with log_gamma after the correction is taken off
    log_threshold = log_gamma + correction
    log_cdf = stage(
        "spectrum",
        lambda: _spectrum_log_cdf_bound(spec, config.n, log_threshold),
    )
    spectrum_cdf = math.exp(min(0.0, log_cdf))
    if config.spectrum_samples > 0:
        stage(
            "spectrum-check",
            lambda: _check_spectrum_bound(spec, config.n, config.spectrum_samples,
                                          rng.substream(5), log_threshold / config.n, spectrum_cdf),
        )
    feinstein = feinstein_rhs(spectrum_cdf, m, log_gamma, p_f)

    message_stream = rng.substream(3)
    channel_root = rng.substream(4)
    true_messages = message_stream.generator.integers(0, m, size=config.trials)

    errors = 0
    density_sum = 0.0
    trace_rows = []
    for t in range(config.trials):
        true_m = int(true_messages[t])
        x = codebook.codeword(true_m)
        if x.total != tau:
            raise RuntimeError(f"fixed-sum invariant violated at trial {t}")
        y = transmit(x, params, channel_root.substream(t)).counts
        offset = _density_offset(y, spec, tau)
        if config.decoder == "threshold":
            decoded = _decode_threshold(y, codebook, log_gamma, offset, params.reads)
        else:
            decoded = decode_ml(y, codebook, params)
        # finite: codewords drawn from the input law have no zero entry
        score = np.einsum("i,i->", codebook._log_rows(true_m), y.astype(float))
        density = (score + offset) / config.n
        density_sum += density
        if decoded != true_m:
            errors += 1
        if trace_path is not None:
            trace_rows.append((t, true_m, -1 if decoded is None else decoded, density))

    if trace_path is not None:
        with open(trace_path, "w") as fh:
            fh.write("trial,true_msg,decoded,density_value\n")
            for row in trace_rows:
                fh.write(f"{row[0]},{row[1]},{row[2]},{row[3]:.12g}\n")

    low, high = _wilson_interval(errors, config.trials)
    notes = []
    if m_clamped:
        notes.append("codebook size from the bound fell below 2 and was clamped")
    if feinstein.saturated:
        notes.append("threshold error bound saturated at 1")
    return ExperimentReport(
        config=config.to_dict(),
        decoder=config.decoder,
        m=m,
        m_clamped=m_clamped,
        tau=tau,
        p_f=p_f,
        rate=math.log(m) / config.n,
        mutual_information=mi,
        achievability=achievability_bound(config.g, config.r),
        converse=converse_bound(config.g, config.r),
        log_gamma=log_gamma,
        spectrum_cdf_at_gamma=spectrum_cdf,
        feinstein_value=feinstein.value,
        feinstein_saturated=feinstein.saturated,
        trials=config.trials,
        errors=errors,
        correct=config.trials - errors,
        error_rate=errors / config.trials,
        wilson_low=low,
        wilson_high=high,
        mean_true_density=float(density_sum / config.trials),
        notes=tuple(notes),
    )
