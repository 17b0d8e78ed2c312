"""Order statistics and the comparison rules the benchmark reports with.

Standard library only, so the rules can be tested and applied to stored
result sets without importing numpy or the package under test.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# Percentiles a timing may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
# A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
# A gain needs the change to win at least this share of all pairs run.
PAIR_WIN_SHARE = Fraction(9, 10)


def percentile(values, q: float) -> float:
    """q-th percentile by linear interpolation between order statistics
    (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the rank of the q-th percentile of n samples."""
    return n - math.ceil(Fraction(str(q)) * n / 100)


def tail_percentile(n: int) -> float | None:
    """Highest reportable percentile: the highest one with MIN_BEYOND
    samples beyond it, or None when even the median has too few."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def pair_wins(parent, change, better: str) -> tuple[int, int, int]:
    """(wins, losses, ties) of the change over the parent, pair by pair."""
    if len(parent) != len(change):
        raise ValueError("pairs need equal-length sides")
    sign = 1 if better == "higher" else -1
    wins = losses = ties = 0
    for p, c in zip(parent, change):
        d = sign * (c - p)
        if d > 0:
            wins += 1
        elif d < 0:
            losses += 1
        else:
            ties += 1
    return wins, losses, ties


def verdict(parent, change, better: str, bound: float) -> str:
    """Classify one metric on one workload from paired runs.

    "gain": the change wins at least 9/10 of all pairs (ties count for
    neither side) and its median beats the parent's by more than the
    parent's interquartile range.  "regressed": the change's median is
    worse than the parent's by more than bound times the parent's median.
    "unresolved": the parent's own spread exceeds the bound, unless every
    change run beats every parent run.  Otherwise "within bound".
    """
    if not parent or len(parent) != len(change):
        raise ValueError("need the same positive number of runs on both sides")
    sign = 1 if better == "higher" else -1
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    wins, _, _ = pair_wins(parent, change, better)
    if wins >= PAIR_WIN_SHARE * len(parent) and sign * (cmed - pmed) > p3 - p1:
        return "gain"
    if sign * (pmed - cmed) > bound * abs(pmed):
        return "regressed"
    if all(sign * (c - p) > 0 for c in change for p in parent):
        return "within bound"
    if spread(parent) > bound:
        return "unresolved"
    return "within bound"
