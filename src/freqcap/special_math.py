"""Special functions.

Everything here is a pure function of its arguments. Lambert W, ln k! and
the regularized incomplete gamma function are scipy's (`lambertw`,
`gammaln`, `gammainc`) behind domain checks; the tests hold them to
mpmath. All entropic quantities are in nats; conversion to bits happens
only at the presentation layer.

The scipy functions, here and in every other module, are imported inside
the function that calls them, so `scipy.special` loads on the first such
call and not at import: it would cost more than half of what
`import freqcap.cli` takes, and commands such as `bounds` and `simulate`
never call it.
"""

import math

import numpy as np

__all__ = [
    "NATS_PER_BIT",
    "binary_entropy",
    "psi_max_entropy",
    "lambert_w0",
    "regularized_gamma_p",
    "log_factorial",
]

NATS_PER_BIT = math.log(2.0)


def binary_entropy(p: float) -> float:
    """Binary entropy -p*ln(p) - (1-p)*ln(1-p) with the 0*ln(0) = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy needs p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def psi_max_entropy(mu: float) -> float:
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

    scipy's `gammainc`, behind the domain checks k > 0 and x >= 0.
    """
    if k <= 0.0:
        raise ValueError(f"regularized_gamma_p needs k > 0, got k={k}")
    if x < 0.0:
        raise ValueError(f"regularized_gamma_p needs x >= 0, got x={x}")
    from scipy.special import gammainc

    return float(gammainc(k, x))


def log_factorial(k):
    """log(k!) = gammaln(k + 1) for non-negative integers, scalar or array.

    scipy's `gammaln` is within 2 ulps of the exact value (mpmath in the
    tests) and monotone in k. A scalar or 0-d input gives a float, an
    array or list an array of its shape.
    """
    arr = np.asarray(k)
    if np.any(arr < 0):
        raise ValueError("log_factorial needs k >= 0")
    if not np.issubdtype(arr.dtype, np.integer) and not np.all(arr == np.floor(arr)):
        raise ValueError("log_factorial needs integer k")
    from scipy.special import gammaln

    out = gammaln(arr + 1.0)
    return float(out) if out.ndim == 0 else out
