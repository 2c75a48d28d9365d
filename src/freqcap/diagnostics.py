"""Self-contained property checks runnable from the command line.

Each check validates one certified identity, bound, or concentration
inequality against exact enumeration or exact CDFs (scipy's `bdtrc` for
binomial tails, `gammainc` and `gammaincc` for Poisson and gamma tails,
`math.erf` and `math.erfc` for Gamma(1/2) tails, a Chernoff bound summed
over the output law for the Bobkov-Ledoux tail), with no slack; no check
draws a random number or takes a seed. These back `freqcap verify`; the
pytest suite covers the same ground more finely.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import event_poissonization_factor, poissonization_identity_check
from .distributions import (
    _SERIES_MIN_MEAN,
    DiscretePmf,
    _chernoff_window,
    gamma_half_tail_bounds,
    poisson_chernoff_lower_tail,
    poisson_entropy,
    poisson_log_pmf,
)
from .mutual_info import (
    PoissonChannelSpec,
    _least_over_tilts,
    _TiltedRows,
    bobkov_ledoux_bound,
    lipschitz_seminorm,
)
from .special_math import regularized_gamma_p  # noqa: F401  (perfbench/spans.py traces this name)

__all__ = ["CheckResult", "run_suite", "SUITES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_poissonization_identity():
    worst = 0.0
    for mean, probs in ((5.0, [0.5, 0.5]), (10.0, [0.2, 0.3, 0.5]), (20.0, [0.1, 0.2, 0.3, 0.4])):
        worst = max(worst, poissonization_identity_check(mean, probs))
    return CheckResult("poissonization-identity", worst <= 1e-10, f"max pmf discrepancy {worst:.2e}")


def _check_event_poissonization():
    from scipy.special import bdtrc, gammainc

    # two uniform types, M = 6 reads, event {y1 >= 5}: Bin(6, 1/2) against Poisson(3)
    m = 6
    p_mul = float(bdtrc(4, m, 0.5))
    p_poi = float(gammainc(5, m / 2))
    ok = p_mul <= event_poissonization_factor(m) * p_poi
    return CheckResult(
        "event-poissonization", bool(ok), f"P_mul={p_mul:.5f} vs sqrt(eM)*P_poi={event_poissonization_factor(m)*p_poi:.5f}"
    )


def _check_poisson_entropy():
    # band sums below the switch-over mean, the asymptotic series from it on
    lam0 = _SERIES_MIN_MEAN
    grid = [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 60.0]
    grid += [lam0 * (1.0 - 1e-9), lam0, lam0 * (1.0 + 1e-9), 1e4, 1e6]
    values = poisson_entropy(np.array(grid))
    mono = all(a <= b + 1e-10 for a, b in zip(values, values[1:]))
    upper = all(
        h <= 0.5 * math.log(2 * math.pi * math.e * (lam + 1.0 / 12.0))
        for h, lam in zip(values, grid)
    )
    return CheckResult("poisson-entropy", mono and upper, f"monotone={mono} upper-bound={upper}")


def _check_v_log_v():
    worst = -math.inf
    for lam in (0.1, 1.0, 5.0, 20.0):
        k = np.arange(1, _chernoff_window(lam, 1e-30)[1] + 1)
        p = np.exp(poisson_log_pmf(k, lam))
        value = float((p * k * np.log(k)).sum())
        worst = max(worst, value - lam * math.log1p(lam))
    return CheckResult("poisson-v-log-v", worst <= 0.0, f"max E[VlnV]-bound gap {worst:.3e}")


def _check_poisson_chernoff():
    from scipy.special import gammaincc

    ok = True
    for lam, alpha in ((20.0, 0.5), (50.0, 0.2), (8.0, 0.9)):
        # P[N <= floor(alpha lam)] for N ~ Poisson(lam)
        exact = float(gammaincc(math.floor(alpha * lam) + 1, lam))
        ok = ok and exact <= poisson_chernoff_lower_tail(lam, alpha)
    return CheckResult("poisson-chernoff", ok, "exact lower-tail CDF under the bound")


def _check_gamma_tails():
    ok = True
    for g, eta, rho in ((100.0, 0.0, 0.5), (1000.0, 0.3, 0.3)):
        lower, upper = gamma_half_tail_bounds(g, eta, rho)
        # X ~ Gamma(1/2, 2g): P[X <= x] = erf(sqrt(x / (2g))), P[X >= x] = erfc(sqrt(x / (2g)))
        exact_low = math.erf(math.sqrt(g**eta / (2 * g)))
        exact_up = math.erfc(math.sqrt(g ** (1 + rho) / (2 * g)))
        ok = ok and exact_low <= lower and exact_up <= upper
    return CheckResult("gamma-half-tails", ok, "exact CDF tails under the certified bounds")


def _tail_check(name, pairs):
    """Pass when no exact tail exceeds its bound; pairs are (tail, bound)."""
    ratio = max(tail / bound for tail, bound in pairs)
    return CheckResult(name, ratio <= 1.0, f"max exact tail / bound {ratio:.4f}")


def _binomial_tail(n, p, t):
    """P[X / n - p >= t] for X ~ Bin(n, p). The cut-off n (p + t) is rounded to
    9 decimals first, so that one a hair above an integer does not skip it."""
    from scipy.special import bdtrc

    return float(bdtrc(math.ceil(round(n * (p + t), 9)) - 1, n, p))


def _check_hoeffding():
    n, p = 400, 0.3
    pairs = [(_binomial_tail(n, p, t), math.exp(-2 * n * t * t)) for t in (0.03, 0.06)]
    return _tail_check("hoeffding-mc", pairs)


def _check_relative_chernoff():
    n, p = 500, 0.05
    pairs = [(_binomial_tail(n, p, xi * p), math.exp(-xi * xi * p * n / (2 + xi)))
             for xi in (0.5, 1.0)]
    return _tail_check("relative-chernoff-mc", pairs)


def _chernoff_log_tail(spec, copies, delta):
    """Certified ln P[S <= a] for the information density S of `copies` of each letter
    x of the input law of `spec`, Z ~ Poisson(gain x): the least over _CHERNOFF_S of
    s a + copies sum_x ln(sum_{z <= z_max} p^(1-s) P_Z^s + T_x^(1-s) T^s) (Chernoff,
    then Hölder past spec.z_max; `_TiltedRows`), a = E S - n delta summed on 0..z_max."""
    rows = _TiltedRows(spec)
    means = rows.means()
    a = copies * float(means.sum()) - copies * means.size * delta
    return _least_over_tilts(lambda s: copies * np.log(rows.sums(s)).sum() + s * a)


def _check_bobkov_ledoux():
    support = DiscretePmf.from_weights(1, np.ones(8))
    spec = PoissonChannelSpec(support, 0.5)
    copies, delta = 50, 0.35
    bound = bobkov_ledoux_bound(lipschitz_seminorm(spec), spec.gain * 8, copies * 8, delta)
    log_tail = _chernoff_log_tail(spec, copies, delta)
    return CheckResult("bobkov-ledoux-mc", log_tail <= math.log(bound),
                       f"certified ln tail {log_tail:.2f} vs ln bound {math.log(bound):.4f}")


def _check_sub_gamma():
    from scipy.special import gammaincc

    # X ~ Gamma(k, theta): P[X >= k theta + t] = Q(k, k + t / theta)
    k, theta = 50.0, 2.0
    pairs = [(float(gammaincc(k, k + t / theta)),
              math.exp(-t / (2 * theta)) + math.exp(-t * t / (4 * k * theta * theta)))
             for t in (25.0, 50.0)]
    return _tail_check("sub-gamma-right-tail-mc", pairs)


_APPENDIX = (
    _check_poissonization_identity,
    _check_event_poissonization,
    _check_poisson_entropy,
    _check_v_log_v,
    _check_poisson_chernoff,
    _check_gamma_tails,
    _check_hoeffding,
    _check_relative_chernoff,
    _check_bobkov_ledoux,
    _check_sub_gamma,
)

SUITES = {"appendix": _APPENDIX}


def run_suite(name: str):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return [check() for check in SUITES[name]]
