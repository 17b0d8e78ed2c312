"""Statistical utilities for the experiment harness.

Self-contained on purpose: the test suite uses scipy as an independent
oracle for these routines, so none of them may call scipy themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x):
    """Standard normal CDF, elementwise."""
    arr = np.asarray(x, dtype=float)
    flat = np.array([0.5 * (1.0 + math.erf(v / _SQRT2)) for v in arr.ravel()])
    return flat.reshape(arr.shape) if arr.shape else float(flat[0])


# Acklam's rational approximation of the inverse normal CDF plus one
# Halley refinement step, accurate to about 1e-9 over (0, 1).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must be in (0, 1)")
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
            (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    # one Halley step against the exact CDF
    e = 0.5 * math.erfc(-x / _SQRT2) - p
    u = e * _SQRT2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


# ---------------------------------------------------------------------------
# One-sample Kolmogorov-Smirnov test against a normal law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KSResult:
    d_stat: float
    p_value: float
    n: int


def _kolmogorov_cdf_exact(n: int, d: float) -> float:
    """P(D_n <= d) by the matrix method of Marsaglia, Tsang and Wang.

    Keeps their right-tail shortcut: beyond n d^2 > 7.24 the returned
    value differs from exact only past the 7th digit, where the p-value
    is far below any usable significance level anyway.
    """
    if d <= 0.0:
        return 0.0
    if d >= 1.0:
        return 1.0
    s = d * d * n
    if s > 7.24 or (s > 3.76 and n > 99):
        return 1.0 - 2.0 * math.exp(-(2.000071 + 0.331 / math.sqrt(n) + 1.409 / n) * s)
    k = int(n * d) + 1
    m = 2 * k - 1
    h = k - n * d
    H = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i - j + 1 >= 0:
                H[i, j] = 1.0
    for i in range(m):
        H[i, 0] -= h ** (i + 1)
        H[m - 1, i] -= h ** (m - i)
    H[m - 1, 0] += (2.0 * h - 1.0) ** m if 2.0 * h - 1.0 > 0.0 else 0.0
    for i in range(m):
        for j in range(m):
            if i - j + 1 > 0:
                for g in range(1, i - j + 2):
                    H[i, j] /= g

    def power(A, eA, steps):
        if steps == 1:
            return A.copy(), eA
        B, eB = power(A, eA, steps // 2)
        C, eC = B @ B, 2 * eB
        if C[k - 1, k - 1] > 1e140:
            C *= 1e-140
            eC += 140
        if steps % 2:
            C, eC = C @ A, eC + eA
            if C[k - 1, k - 1] > 1e140:
                C *= 1e-140
                eC += 140
        return C, eC

    Q, eQ = power(H, 0, n)
    val = Q[k - 1, k - 1]
    for i in range(1, n + 1):
        val = val * i / n
        if val < 1e-140:
            val *= 1e140
            eQ -= 140
    return float(min(max(val * 10.0 ** eQ, 0.0), 1.0))


def _kolmogorov_sf_asymptotic(n: int, d: float) -> float:
    # Stephens' small-sample correction of the limiting distribution
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return float(min(max(total, 0.0), 1.0))


def ks_normal_test(samples, mu: float, sigma: float) -> KSResult:
    """One-sample KS test of the samples against N(mu, sigma^2).

    D uses both one-sided sup terms.  The p-value is exact (matrix
    method) for n <= 10^4 and asymptotic with finite-n correction
    beyond.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 1:
        raise ValueError("need at least one sample")
    F = normal_cdf((x - mu) / sigma)
    ks_plus = (np.arange(1, n + 1) / n - F).max()
    ks_minus = (F - np.arange(0, n) / n).max()
    d = float(max(ks_plus, ks_minus, 0.0))
    if n <= 10_000:
        p = 1.0 - _kolmogorov_cdf_exact(n, d)
    else:
        p = _kolmogorov_sf_asymptotic(n, d)
    return KSResult(d_stat=d, p_value=float(min(max(p, 0.0), 1.0)), n=n)


def qq_points(samples, mu: float, sigma: float) -> np.ndarray:
    """(n, 2) array of (theoretical, empirical) quantile pairs at positions
    (k - 1/2)/n."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 2:
        raise ValueError("need at least two samples")
    z = np.array([normal_quantile((k + 0.5) / n) for k in range(n)])
    return np.column_stack((mu + sigma * z, x))


# ---------------------------------------------------------------------------
# Replication summaries and rate fits
# ---------------------------------------------------------------------------


def summarize_reps(values) -> tuple[float, float]:
    """Sample mean and standard error sd/sqrt(k) with unbiased sd."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("no replications to summarize")
    if v.size == 1:
        return float(v[0]), 0.0
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(v.size))


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float


def fit_rate(points) -> RateFit:
    """OLS fit of log(error) on log(t) over (t, error) pairs."""
    pts = [(float(t), float(e)) for t, e in points]
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if any(t <= 0 or e <= 0 for t, e in pts):
        raise ValueError("rate fits need positive t and error values")
    lt = np.log([t for t, _ in pts])
    le = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(lt, le, 1)
    resid = le - (slope * lt + intercept)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((le - le.mean()) ** 2).sum())
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res < 1e-20 else 0.0
    return RateFit(slope=float(slope), intercept=float(intercept), r2=r2)


__all__ = [
    "normal_cdf",
    "normal_quantile",
    "KSResult",
    "ks_normal_test",
    "qq_points",
    "summarize_reps",
    "RateFit",
    "fit_rate",
]
