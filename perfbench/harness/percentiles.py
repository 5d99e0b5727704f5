"""Percentile and sample-count arithmetic.

Every timing is reported as a median and a p90 with its sample count.
A percentile is *supported* when at least :data:`MIN_BEYOND` samples
lie strictly beyond its nearest-rank position; the p90 therefore needs
100 samples, and the benchmark sizes its runs so that it gets them.

The reported value is the Harrell-Davis estimate (:func:`quantile`), a
weighted mean of all order statistics centred on that rank. A workload
repeats a fixed set of queries, so its latencies come in clusters, one
per query; the nearest-rank value is a single sample and jumps a whole
gap between clusters when a count shifts by one, the Harrell-Davis
estimate moves by a fraction of it.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value
    (1-based), so ``q = 0.5`` of ``[1, 2, 3, 4]`` is 2 and ``q = 0.9``
    of 100 values is the 90th. Raises on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile fraction {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank ``q`` one."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q * n - 1e-9))


def supported(n: int, q: float) -> bool:
    """True when *n* samples leave at least :data:`MIN_BEYOND` beyond
    the ``q`` percentile."""
    return samples_beyond(n, q) >= MIN_BEYOND


def min_samples_for(q: float) -> int:
    """Smallest sample count that supports percentile *q*."""
    n = 1
    while not supported(n, q):
        n += 1
    return n


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: the order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) distribution
    over ``[0, 1]``, sample *i* (1-based, ascending) getting the mass
    between ``(i-1)/n`` and ``i/n``. Raises on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile fraction {q} outside (0, 1)")
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    total = below = 0.0
    for i, value in enumerate(ordered, 1):
        upto = _beta_cdf(a, b, i / n)
        total += (upto - below) * value
        below = upto
    return total


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz), converging fast for ``x < (a + 1) / (a + b + 2)``."""
    tiny = 1e-300

    def guard(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c = 1.0
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / guard(1.0 + numerator * d)
            c = guard(1.0 + numerator / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def median(values: Sequence[float]) -> float:
    """The nearest-rank median (a sample value, never an average)."""
    return nearest_rank(values, 0.5)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``p50``, ``p90`` (Harrell-Davis), the sample count and whether
    the p90 is supported by it."""
    n = len(values)
    return {
        "p50": quantile(values, 0.5),
        "p90": quantile(values, 0.9),
        "n": n,
        "p90_supported": supported(n, 0.9),
    }


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
