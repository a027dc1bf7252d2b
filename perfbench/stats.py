"""Pure summary statistics used by the benchmark."""

from __future__ import annotations

import math
import statistics

MIN_TAIL = 10  # a percentile is reported only with this many samples beyond it


def _rank(n: int, p: float) -> int:
    # rounded first so that 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def time_to_target(best_scores, wall_ms, target: float) -> float:
    """Seconds of cumulative ``wall_ms`` up to and including the first row
    whose best score reaches ``target``; +inf (censored) if none does."""
    elapsed = 0.0
    for best, ms in zip(best_scores, wall_ms):
        elapsed += ms
        if best >= target:
            return elapsed / 1e3
    return math.inf


def epochs_to_target(best_scores, target: float, epochs: int) -> int:
    """First epoch whose best score reaches ``target``; ``epochs + 1`` if
    none does, the censoring the acceptance suite uses."""
    for epoch, best in enumerate(best_scores):
        if best >= target:
            return epoch
    return epochs + 1


def median(values) -> float:
    """Median that keeps +inf entries (a censored median stays +inf)."""
    return float(statistics.median(values))
