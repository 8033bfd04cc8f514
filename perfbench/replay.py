"""``replay_fair_rho80``: repeated sharded replays of one seeded Poisson trace.

Why it exists: no crypto runs here.  Only shard routing, the weighted-fair
policy queue's heaps, ``BoardIndex`` placement and the simulator's pricing
cache do work, at about 15-20 us per job on a 2-core box -- so it exercises
the scheduling core that the ``serve_*`` workloads barely touch, and a crypto
change must leave it unmoved.

The trace has ``JOBS`` jobs at ``RATE`` jobs/s over 8 shards x 8 boards.
``RATE`` is where the simulator's own pricing gives about 0.8 mean modelled
utilisation over the shards with the default profile pool (measured 0.80 at
seed 1; the busiest shard saturates, the idlest sits near 0.55), so waits
reflect contention rather than trace length.

Noise control: replays run on the ``serial`` executor (threads only add GIL
contention on 2 cores), the collector runs after set-up and before every
timed replay, and the run reports the median over all replays that fit in
the window rather than a single one.  After set-up the trace is frozen out
of the collector's view (``gc.freeze``): it is the benchmark's input, held
for the whole run, and without this every full collection during a replay
would walk its 10^5 jobs again.
"""

from __future__ import annotations

import gc
import statistics
import time

from perfbench.common import Result, latency_summary, peak_rss_mb
from repro.cloud import shard
from repro.sim import traces

JOBS = 100_000
RATE = 12.0
SHARDS = 8
BOARDS_PER_SHARD = 8
POLICY = "fair"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 11


def _setup(seed: int) -> list:
    pool = traces.default_profile_pool()
    return traces.generate_trace(
        JOBS, seed=seed, arrival="poisson", rate_jobs_per_s=RATE, profile_pool=pool
    )


def _fingerprint(report) -> list:
    """Every modelled statistic of a replay, for exact run-to-run comparison."""
    return [
        (shard, stats.jobs, stats.makespan_s, stats.warm_hits, stats.capacity_board_seconds,
         stats.final_boards, stats.board_busy_s, stats.waits)
        for shard, stats in sorted(report.shard_stats.items())
    ]


def _replayed_once(report, jobs: int) -> bool:
    """Every trace job was routed to exactly one shard and replayed there."""
    return (
        sum(report.shard_jobs.values()) == jobs
        and report.jobs == jobs
        and all(report.shard_stats[shard].jobs == n for shard, n in report.shard_jobs.items())
    )


class _Window:
    def __init__(self):
        self.latencies: list = []
        self.failed = 0
        self.first = None

    def replay(self, trace: list, reference, tracer=None) -> list:
        """One timed request: replay the whole trace and verify the result."""
        gc.collect()
        if tracer is not None:
            tracer.request = len(self.latencies)
        sent = time.perf_counter()
        report = shard.replay_sharded(
            trace, num_shards=SHARDS, boards_per_shard=BOARDS_PER_SHARD,
            policy=POLICY, executor="serial",
        )
        fingerprint = _fingerprint(report)
        ok = _replayed_once(report, len(trace)) and (
            reference is None or fingerprint == reference
        )
        self.latencies.append(time.perf_counter() - sent)
        if self.first is None:
            self.first = report
        if not ok:
            self.failed += 1
        return fingerprint if reference is None else reference

    def run(self, trace: list, seconds: float, reference, tracer=None) -> list:
        deadline = time.perf_counter() + seconds
        while True:
            reference = self.replay(trace, reference, tracer)
            if time.perf_counter() >= deadline:
                return reference


def run(workload: str, seed: int, seconds: float, tracer=None) -> Result:
    if tracer is not None:
        tracer.install()
        tracer.phase = "setup"
    setups = []
    trace = None
    for _ in range(SETUPS):
        trace = None
        gc.collect()
        start = time.perf_counter()
        trace = _setup(seed)
        setups.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.uninstall()
    gc.collect()
    gc.freeze()

    untraced = _Window()
    reference = untraced.run(trace, seconds, None)
    traced = None
    if tracer is not None:
        tracer.install()
        tracer.phase = "window"
        traced = _Window()
        traced.run(trace, seconds, reference, tracer)
        tracer.uninstall()

    windows = [w for w in (untraced, traced) if w is not None]
    result = Result(
        attempted=sum(len(w.latencies) for w in windows),
        failed=sum(w.failed for w in windows),
        setups=SETUPS,
    )
    result.setup_s = statistics.median(setups)
    result.latency = latency_summary(untraced.latencies)
    result.jobs_per_s = len(trace) / result.latency["p50"]
    result.peak_rss_mb = peak_rss_mb()
    if traced is not None:
        result.requests = len(traced.latencies)
        result.derived["obs.trace_overhead_ratio"] = (
            statistics.median(traced.latencies) / result.latency["p50"]
        )
        _replay_derived(tracer, untraced.first, result)
    return result


def _replay_derived(tracer, report, result: Result) -> None:
    per_request: dict = {}
    for span in tracer.spans():
        if span.phase == "window" and span.name == "sim.replay_shard":
            per_request.setdefault(span.request, []).append(span.duration)
    utilization = report.utilization_by_shard.values()
    result.derived.update({
        "sim.replay_shard_max_s": statistics.median(max(v) for v in per_request.values()),
        "sim.replay_shard_min_s": statistics.median(min(v) for v in per_request.values()),
        "sim.wait_p50_s": report.wait_percentile(50.0),
        "sim.wait_p99_s": report.wait_percentile(99.0),
        "sim.wait_p999_s": report.wait_percentile(99.9),
        "sim.warm_hit_ratio": report.affinity_hit_rate,
        "sim.util_min": min(utilization),
        "sim.util_max": max(utilization),
        "sim.makespan_s": report.makespan_s,
    })
