"""Order statistics shared by the benchmark and its tests.

Percentiles are nearest-rank, the definition ``repro.obs.windows`` and
the serve engine use, so a benchmark figure and the service's own
``metrics`` op agree on the same samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

from repro.obs.windows import nearest_rank

#: A tail percentile is reported only when at least this many samples
#: lie beyond it (p99 needs 1000 samples, p90 needs 100).
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``; 0.0
    for no samples (a layer that did not run)."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q!r} outside (0, 1]")
    return nearest_rank(sorted(samples), q)


def min_samples_for(q: float) -> int:
    """Samples needed so that ``MIN_TAIL_SAMPLES`` lie beyond ``q``."""
    return math.ceil(round(MIN_TAIL_SAMPLES / (1.0 - q), 9))


def supported_tail(n: int) -> int:
    """The highest of p99/p90/p50 that ``n`` samples support.

    Returns the percentile as a whole number: 99 or 90 when at least
    ``MIN_TAIL_SAMPLES`` lie beyond it, else 50 (a median needs only
    one sample), and 0 for no samples at all.
    """
    for pct in (99, 90):
        if n >= min_samples_for(pct / 100.0):
            return pct
    return 50 if n else 0


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle pair for an even count)."""
    return statistics.median(values)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartile spread, as the benchmark's gate computes it.

    ``iqr_frac`` is the distance between the first and third quartile
    (``statistics.quantiles(values, n=4)``) as a share of the median.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / mid if mid else math.inf,
    }
