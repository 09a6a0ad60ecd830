"""Summary statistics for timing samples.

Tail latencies follow one rule: report the highest percentile, up to
``TAIL_PERCENTILE``, that still has at least ``MIN_BEYOND`` samples above it, and state
which percentile and how many samples were used.
"""

from __future__ import annotations

TAIL_PERCENTILE = 99
MIN_BEYOND = 10


def tail_percentile(n: int) -> int:
    """Highest whole percentile p <= TAIL_PERCENTILE with at least MIN_BEYOND of n samples beyond it.

    Needs n * (100 - p) / 100 >= MIN_BEYOND, i.e. p <= 100 - 100 * MIN_BEYOND / n.
    """
    p = min(TAIL_PERCENTILE, 100 - -(-100 * MIN_BEYOND // n)) if n > 0 else 0
    if p < 1:
        raise ValueError(f"{n} samples leave no percentile with {MIN_BEYOND} samples beyond it")
    return p


def percentile(samples, p: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = -(-p * len(ordered) // 100)  # ceil(p * n / 100)
    return ordered[max(rank, 1) - 1]


def latency_summary(samples_s) -> dict:
    """Median and tail of per-call latencies in seconds, reported in milliseconds."""
    n = len(samples_s)
    tail = tail_percentile(n)
    return {
        "p50_ms": percentile(samples_s, 50) * 1e3,
        "tail_ms": percentile(samples_s, tail) * 1e3,
        "tail_percentile": tail,
        "samples": n,
    }
