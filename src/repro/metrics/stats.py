"""Small, dependency-light statistics helpers.

numpy is available, but these helpers accept plain sequences, define edge
cases (empty input) explicitly, and always return Python floats so metric
dataclasses stay serialization-friendly.
"""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for empty input."""
    values = list(values)
    if not values:
        return 0.0
    return float(sum(values)) / len(values)


def sample_variance(values: Sequence[float]) -> float:
    """Unbiased (n-1) sample variance; 0.0 for fewer than two values."""
    values = list(values)
    n = len(values)
    if n < 2:
        return 0.0
    mu = mean(values)
    return sum((v - mu) ** 2 for v in values) / (n - 1)


#: Two-sided 95% critical values of Student's t distribution.  The paper's
#: evaluation uses n = 10 repetitions (df = 9, t = 2.262); the normal
#: z = 1.96 understates the half-width by ~13% at that sample size.
_T_CRITICAL_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}

#: Large-sample (df -> infinity) limit: the normal z value.
_T_CRITICAL_95_INF = 1.960


def t_critical_95(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` degrees of freedom.

    Exact table values for df <= 30 and the standard anchors 40/60/120;
    in between, linear interpolation in 1/df (the conventional table
    interpolation); beyond 120, the normal limit 1.960.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    exact = _T_CRITICAL_95.get(df)
    if exact is not None:
        return exact
    if df > 120:
        return _T_CRITICAL_95_INF
    lo = max(anchor for anchor in _T_CRITICAL_95 if anchor < df)
    hi = min(anchor for anchor in _T_CRITICAL_95 if anchor > df)
    frac = (1.0 / lo - 1.0 / df) / (1.0 / lo - 1.0 / hi)
    return _T_CRITICAL_95[lo] + frac * (_T_CRITICAL_95[hi] - _T_CRITICAL_95[lo])


def confidence_interval_95(values: Sequence[float]) -> float:
    """Half-width of the Student-t 95% CI of the mean.

    The t critical value (not the normal z = 1.96) is required at the
    paper's sample sizes: with 10 repetitions the correct multiplier is
    t(9) = 2.262.
    """
    values = list(values)
    n = len(values)
    if n < 2:
        return 0.0
    return t_critical_95(n - 1) * math.sqrt(sample_variance(values) / n)


# ---------------------------------------------------------------------------
# Exact binomial (Clopper–Pearson) machinery — scipy-free.
# ---------------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 300
    eps = 3e-14
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ValueError(f"incomplete beta failed to converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b): the Beta(a, b) CDF at ``x``, for a, b > 0, x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"need a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    # The continued fraction converges fast for x < (a+1)/(a+b+2);
    # otherwise use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def beta_quantile(q: float, a: float, b: float) -> float:
    """Inverse Beta(a, b) CDF by bisection on the regularized beta."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def clopper_pearson(successes: int, trials: int,
                    alpha: float = 0.05) -> "tuple[float, float]":
    """Exact two-sided (1 - alpha) binomial CI for ``successes/trials``.

    The Clopper–Pearson interval via beta quantiles:
    ``lo = Beta(alpha/2; k, n-k+1)``, ``hi = Beta(1-alpha/2; k+1, n-k)``,
    with the conventional closed forms at k = 0 and k = n.  Exact (never
    under-covers), which is what makes it safe for deterministic
    conformance tests: a true p outside the interval is a real defect,
    not a tolerance artifact.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got "
                         f"{successes}/{trials}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    k, n = successes, trials
    if k == 0:
        lo = 0.0
    else:
        lo = beta_quantile(alpha / 2.0, k, n - k + 1)
    if k == n:
        hi = 1.0
    else:
        hi = beta_quantile(1.0 - alpha / 2.0, k + 1, n - k)
    return lo, hi


#: Upper-tail chi-square critical values by degrees of freedom, for the
#: conformance suite's uniformity checks (standard table values).
_CHI2_CRITICAL = {
    0.05: {1: 3.841, 2: 5.991, 3: 7.815, 4: 9.488, 5: 11.070},
    0.01: {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086},
    0.001: {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515},
}


def chi_square_critical(df: int, alpha: float = 0.001) -> float:
    """Upper-tail chi-square critical value (tabulated small df)."""
    try:
        return _CHI2_CRITICAL[alpha][df]
    except KeyError:
        raise ValueError(
            f"no chi-square table entry for df={df}, alpha={alpha}"
        ) from None


def chi_square_uniform_stat(counts: Sequence[int]) -> float:
    """Pearson chi-square statistic against the uniform distribution.

    Degenerate inputs (fewer than two cells, or no observations at all)
    raise rather than returning 0: a conformance test fed an empty
    histogram should fail loudly, not conclude "perfectly uniform".
    """
    counts = list(counts)
    total = sum(counts)
    if len(counts) < 2 or total == 0:
        raise ValueError(
            f"need >= 2 cells and >= 1 observation, got {counts}")
    expected = total / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)


__all__ = [
    "mean",
    "sample_variance",
    "t_critical_95",
    "confidence_interval_95",
    "regularized_incomplete_beta",
    "beta_quantile",
    "clopper_pearson",
    "chi_square_critical",
    "chi_square_uniform_stat",
]
