"""Special functions.

Everything here is a pure function of its arguments. Lambert W and the
log-gamma tail of `log_factorial` are scipy's; `regularized_gamma_p` stays
hand-rolled (series and continued fraction) because tests use it as an
independent reference for scipy's `gammainc`; the truncation-loss term t1
and the `gamma-half-tails` check call it too. All entropic quantities are
in nats; conversion to bits happens only at the presentation layer.

The scipy functions, here and in every other module, are imported inside
the function that calls them, so `scipy.special` loads on the first such
call and not at import: it would cost more than half of what
`import freqcap.cli` takes, and commands such as `bounds` and `simulate`
never call it.
"""

import math

import numpy as np

__all__ = [
    "Nats",
    "NATS_PER_BIT",
    "binary_entropy",
    "psi_max_entropy",
    "lambert_w0",
    "regularized_gamma_p",
    "log_factorial",
]

# Entropies, information densities and bounds are plain floats in nats.
Nats = float

NATS_PER_BIT = math.log(2.0)

_TABLE_MAX = 1024
# log k! for k = 0..1024 as a cumulative sum of logs; exact to double rounding.
_LOG_FACT_TABLE = np.concatenate(
    ([0.0], np.cumsum(np.log(np.arange(1, _TABLE_MAX + 1))))
)


def binary_entropy(p: float) -> Nats:
    """Binary entropy -p*ln(p) - (1-p)*ln(1-p) with the 0*ln(0) = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy needs p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def psi_max_entropy(mu: float) -> Nats:
    """Largest entropy of a non-negative integer random variable with mean <= mu.

    The maximizer is the geometric law with success probability 1/(mu+1),
    giving (mu+1) * binary_entropy(1/(mu+1)). Non-decreasing and concave in mu.
    """
    if mu < 0.0:
        raise ValueError(f"psi_max_entropy needs mu >= 0, got {mu}")
    if mu == 0.0:
        return 0.0
    return (mu + 1.0) * binary_entropy(1.0 / (mu + 1.0))


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function: w with w*exp(w) = x.

    Defined for x >= -1/e; the real part of scipy's `lambertw` on branch 0.
    Near -1/e the value is ill-conditioned: 1 + e*x cancels, so the error
    grows like eps / sqrt(x + 1/e).
    """
    if x < -1.0 / math.e:
        raise ValueError(f"lambert_w0 needs x >= -1/e, got {x}")
    if x == -1.0 / math.e:
        return -1.0  # the branch point; the double nearest -1/e makes scipy return nan
    from scipy.special import lambertw

    return float(lambertw(x).real)


def regularized_gamma_p(k: float, x: float) -> float:
    """Lower regularized incomplete gamma function P(k, x) = gamma(k, x)/Gamma(k).

    Power series for x < k + 1, Lentz continued fraction otherwise;
    absolute error below 1e-12 over the supported domain.
    """
    if k <= 0.0:
        raise ValueError(f"regularized_gamma_p needs k > 0, got k={k}")
    if x < 0.0:
        raise ValueError(f"regularized_gamma_p needs x >= 0, got x={x}")
    if x == 0.0:
        return 0.0

    log_prefactor = k * math.log(x) - x - math.lgamma(k)
    if x < k + 1.0:
        # gamma(k,x) = x^k e^-x sum_n x^n / (k (k+1) ... (k+n))
        ap = k
        term = 1.0 / k
        total = term
        for _ in range(10_000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                return total * math.exp(log_prefactor)
        raise RuntimeError(f"incomplete gamma series failed for k={k}, x={x}")

    # Continued fraction for the upper function Q(k, x), modified Lentz.
    tiny = 1e-300
    b = x + 1.0 - k
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - k)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            q = math.exp(log_prefactor) * h
            return 1.0 - q
    raise RuntimeError(f"incomplete gamma continued fraction failed for k={k}, x={x}")


def log_factorial(k):
    """log(k!) for non-negative integers, scalar or array.

    Exact cumulative-sum table for k <= 1024, log-gamma beyond; monotone in k.
    The table is looked up first and log-gamma runs only on the entries above it.
    """
    arr = np.asarray(k)
    if np.any(arr < 0):
        raise ValueError("log_factorial needs k >= 0")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise ValueError("log_factorial needs integer k")
        arr = arr.astype(np.int64)
    flat = arr.ravel()
    out = _LOG_FACT_TABLE[np.minimum(flat, _TABLE_MAX)]
    big = flat > _TABLE_MAX
    if big.any():
        from scipy.special import gammaln

        out[big] = gammaln(flat[big] + 1.0)
    if np.isscalar(k) or np.ndim(k) == 0:
        return float(out[0])
    return out.reshape(arr.shape)
