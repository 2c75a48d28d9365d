"""Special functions.

Everything here is a pure function of its arguments. Lambert W is Halley's
iteration in real arithmetic (Corless, Gonnet, Hare, Jeffrey and Knuth
1996), on floats and on numpy arrays; ln k! and the regularized incomplete
gamma function are scipy's (`gammaln`, `gammainc`) behind domain checks;
the tests hold them all to mpmath. All entropic quantities are in nats;
conversion to bits happens only at the presentation layer.

The capacity bounds (`bounds`, `dna`, `figure2`) need nothing here but
`math`, so this module imports numpy only inside the functions that take
arrays. The scipy functions, here and in every other module, are imported
inside the function that calls them, so `scipy.special` loads on the first
such call and not at import, where it would cost more CPU time than numpy's
own import.
"""

import math

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


# 1/e; both real branches of W start at their branch point -1/e
_INV_E = math.exp(-1.0)
# Halley's iteration stops at the first step below this fraction of the iterate; the
# error left is about its cube, far below an ulp
_W_STEP_TOL = 1e-8
_W_MAX_STEPS = 100


def _w_branch_point_series(p):
    """-1 + p - p^2/3: W near its branch point -1/e, with p = sqrt(2 (e x + 1)) for W0 and
    p = -sqrt(2 (e x + 1)) for W-1 (Corless et al. 4.22)."""
    return (-1.0 / 3.0 * p + 1.0) * p - 1.0


def _w_pade(x):
    """The (3, 2) Pade approximant of W0 around 0."""
    num = (12.85106382978723404255 * x + 12.34042553191489361902) * x + 1.0
    den = (32.53191489361702127660 * x + 14.34042553191489361702) * x + 1.0
    return x * num / den


def _halley_step(w, x, shift, exp):
    """Halley's step for w e^w = x (Corless et al. 5.9), on floats or arrays, with both
    sides divided by e^shift: shift = w where w >= 0, so that nothing overflows, else 0."""
    a, b = exp(w - shift), x * exp(-shift)
    f = w * a - b
    return w - f / (w * a + a - (w + 2.0) * f / (2.0 * w + 2.0))


def _lambert_w(x: float, branch: int = 0) -> float:
    """Real branch 0 or -1 of Lambert W at a float x, by Halley's iteration.

    W0 is defined for x >= -1/e and W-1 for -1/e <= x < 0; W-1 is refused above
    -1e-300 too, where e^W would be subnormal and lose its digits. The starting guess is
    the branch-point series within 0.3 of -1/e, the Pade approximant elsewhere on
    (-1, 1.5) for W0, and the asymptotic ln|x| - ln|ln|x|| beyond (Corless et al. 4.20).
    For W0 these are the guesses of scipy's `lambertw`, so the two agree bit for bit
    beyond 1.5; below it scipy evaluates them with fused multiply-adds, and the values can
    part in the last bits, or by more next to -1/e. At the branch point the guess is -1
    itself, where the step would divide by zero.
    """
    if x < -_INV_E or branch == -1 and not x <= -1e-300:
        domain = "-1/e <= x" if branch == 0 else "-1/e <= x <= -1e-300"
        raise ValueError(f"Lambert W on branch {branch} needs {domain}, got x={x}")
    if not x < math.inf:
        return x  # W0(inf) = inf, and nan stays nan
    if abs(x + _INV_E) < 0.3:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = _w_branch_point_series(p if branch == 0 else -p)
    elif branch == 0 and -1.0 < x < 1.5:
        w = _w_pade(x)
    else:
        w = math.log(abs(x))
        w -= math.log(abs(w))
    if w == -1.0:
        return w
    divided = w >= 0.0
    for _ in range(_W_MAX_STEPS):
        following = _halley_step(w, x, w if divided else 0.0, math.exp)
        if abs(following - w) <= _W_STEP_TOL * abs(following):
            return following
        w = following
    raise ArithmeticError(f"Lambert W iteration did not converge at x={x}")


def _lambert_w_array(x, branch: int = 0):
    """`_lambert_w` on every element of an array x in the branch's domain, unchecked: the
    same guesses and Halley steps, each element stopping at its own step. numpy's exp
    may round otherwise than `math.exp`, so an element can differ in its last bit."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):  # each guess is also evaluated outside its own region
        p = np.sqrt(2.0 * (math.e * x + 1.0))
        log_x = np.log(np.abs(x))
        w = log_x - np.log(np.abs(log_x))
        if branch == 0:
            w = np.where((-1.0 < x) & (x < 1.5), _w_pade(x), w)
        near = np.abs(x + _INV_E) < 0.3
        w = np.where(near, _w_branch_point_series(p if branch == 0 else -p), w)
        divided = w >= 0.0
        done = w == -1.0
        for _ in range(_W_MAX_STEPS):
            if done.all():
                return w
            following = _halley_step(w, x, w * divided, np.exp)
            converged = np.abs(following - w) <= _W_STEP_TOL * np.abs(following)
            np.copyto(w, following, where=~done)
            done |= converged
    raise ArithmeticError("Lambert W iteration did not converge")


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function: w with w*exp(w) = x.

    Defined for x >= -1/e; `_lambert_w` on branch 0, which is also what scipy's
    `lambertw` computes, in real arithmetic. Near -1/e the value is
    ill-conditioned: 1 + e*x cancels, so the error grows like eps / sqrt(x + 1/e).
    """
    return _lambert_w(x)


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
    import numpy as np

    arr = np.asarray(k)
    if np.any(arr < 0):
        raise ValueError("log_factorial needs k >= 0")
    if not np.issubdtype(arr.dtype, np.integer) and not np.all(arr == np.floor(arr)):
        raise ValueError("log_factorial needs integer k")
    from scipy.special import gammaln

    out = gammaln(arr + 1.0)
    return float(out) if out.ndim == 0 else out
