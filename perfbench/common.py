"""Shared result record and statistics for the benchmark workloads."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field


@dataclass
class Result:
    attempted: int
    failed: int
    setup_s: float = 0.0
    #: :func:`latency_summary` of the untraced window.
    latency: dict = field(default_factory=dict)
    jobs_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Set-ups performed (per-set-up layer totals are divided by this).
    setups: int = 1
    #: Requests completed in the traced window (per-request divisor).
    requests: int = 0
    #: Per-layer metrics that are not wrapped-call totals.
    derived: dict = field(default_factory=dict)


def latency_summary(samples: list) -> dict:
    """Median plus the highest percentile with at least 10 samples beyond it.

    With ``n`` samples that is the value at rank ``n - 10`` (percentile
    ``100 * (n - 10) / n``).  A tail is never taken below the median: with
    fewer than 21 samples the rule cannot place one above it, so the median
    is reported as the tail (``tail_pct`` 50, ``beyond`` the samples past
    it).  The two definitions meet at ``n = 21``, so the value does not jump
    when a faster program completes more requests in a run.
    """
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    if n >= 21:
        tail, pct, beyond = ordered[n - 11], 100.0 * (n - 10) / n, 10
    else:
        tail, pct, beyond = median, 50.0, n // 2
    return {"p50": median, "tail": tail, "tail_pct": pct, "beyond": beyond, "n": n}


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
