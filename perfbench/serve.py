"""The ``serve_*`` workloads: closed-loop tenants through AsyncShieldFrontend.

One process, one :class:`~repro.cloud.ShieldCloudService` with ``BOARDS``
boards (the front-end's executor runs one thread per board, so no more
threads than the 2 cores this benchmark was tuned on), and one client per
session with exactly one job outstanding.  Every job uploads sealed inputs,
runs, downloads its outputs and is checked against
``run_unshielded_baseline`` before the client sends the next one.

Why each workload exists:

* ``serve_small_warm`` -- 2 sessions (8 KiB vector add, 32x32 matmul) on 2
  boards.  Affinity keeps every Shield warm; regions are streaming and not
  replay-protected.  The per-job fixed host cost dominates: Load-Key
  unwrap, data-key rotation, HKDF sub-keys, batched-HMAC set-up.  Shield
  construction, replay counters and the simulator do almost nothing.
* ``serve_dnn_churn`` -- 4 DnnWeaver sessions on 2 boards.  With more
  sessions than boards affinity rarely hits (about 1 placement in 10), so
  almost every placement evicts and constructs a Shield; each job moves
  20 KiB of weights and 8 KiB of replay-protected, random-access feature
  maps (read and written).  Per-byte sealing and the wait for a board
  dominate -- the same layers as ``serve_small_warm`` used the opposite way.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import time
from dataclasses import dataclass, field

from perfbench.common import Result, latency_summary, peak_rss_mb
from repro.accelerators import DnnWeaverAccelerator, MatMulAccelerator, VectorAddAccelerator
from repro.cloud import JobState, ShieldCloudService
from repro.serve import AsyncShieldFrontend
from repro.sim.simulator import outputs_equal, run_unshielded_baseline

BOARDS = 2
#: Distinct seeded input sets per session; clients alternate between them,
#: so an output left over from a session's previous job cannot pass the check.
INPUT_POOL = 2
#: Probe stride of the plaintext audit: every 64-byte chunk that leaked, at
#: any alignment, still contains a whole probe.  (The default stride of 16
#: costs 2x more -- the audit scans the whole host ledger once per probe set,
#: which grows with the jobs run.)
AUDIT_WINDOW = 32


@dataclass
class SessionPlan:
    tenant: str
    accelerator: object
    #: region -> length downloaded after every job.
    outputs: dict
    inputs: list = field(default_factory=list)
    expected: list = field(default_factory=list)
    expected_downloads: list = field(default_factory=list)
    session_id: str = ""


def _plans(workload: str) -> list:
    if workload == "serve_small_warm":
        vector = VectorAddAccelerator(8 * 1024)
        matmul = MatMulAccelerator(32)
        return [
            SessionPlan("tenant-vec", vector,
                        {f"c{part}": vector.partition_bytes for part in range(4)}),
            SessionPlan("tenant-mm", matmul, {"c": matmul.matrix_bytes}),
        ]
    if workload == "serve_dnn_churn":
        plans = []
        for index in range(4):
            dnn = DnnWeaverAccelerator()
            # The network writes its logits at the start of feature_maps.
            plans.append(SessionPlan(f"tenant-dnn{index}", dnn, {"feature_maps": 4 * dnn.classes}))
        return plans
    raise ValueError(workload)


def _expected_download(plan: SessionPlan, outputs: dict) -> dict:
    if "feature_maps" in plan.outputs:
        return {"feature_maps": outputs["logits"].tobytes()}
    return {region: outputs[region].tobytes() for region in plan.outputs}


def _prepare(workload: str, seed: int) -> list:
    """Seeded inputs and their unshielded reference results (untimed)."""
    plans = _plans(workload)
    for index, plan in enumerate(plans):
        config = plan.accelerator.build_shield_config()
        for k in range(INPUT_POOL):
            inputs = plan.accelerator.prepare_inputs(seed=seed * 1000 + index * INPUT_POOL + k)
            baseline = run_unshielded_baseline(plan.accelerator, config, inputs)
            plan.inputs.append(inputs)
            plan.expected.append(baseline.outputs)
            plan.expected_downloads.append(_expected_download(plan, baseline.outputs))
    return plans


def _job_ok(plan: SessionPlan, k: int, job) -> bool:
    if job.state is not JobState.COMPLETED or job.result is None:
        return False
    if not outputs_equal(plan.expected[k], job.result.outputs):
        return False
    return all(
        job.region_outputs.get(region) == data
        for region, data in plan.expected_downloads[k].items()
    )


class _Window:
    """One closed-loop measurement window.

    A job counts as a measured request if it was sent before the deadline.
    A client that reaches the deadline keeps sending uncounted filler jobs
    until every client has reached it, so each measured job ran against the
    same number of competing clients as the rest of the window.
    """

    def __init__(self, clients: int, seconds: float):
        #: (session index, input slot, verified) per job, completion order.
        self.jobs: list = []
        self.latencies: list = []
        self.counted = [0] * clients
        #: Completion time of each client's last measured job.
        self.last = [0.0] * clients
        self.passed: set = set()
        self.start = time.perf_counter()
        self.deadline = self.start + seconds

    @property
    def jobs_per_s(self) -> float:
        """Sum over clients of measured jobs / time until their last one."""
        return sum(n / (last - self.start) for n, last in zip(self.counted, self.last))


async def _client(frontend, plan: SessionPlan, index: int, window: _Window, k: int) -> int:
    while True:
        if time.perf_counter() >= window.deadline:
            window.passed.add(index)
            if len(window.passed) == len(window.counted):
                return k
        slot = k % INPUT_POOL
        sent = time.perf_counter()
        job = await frontend.submit(
            plan.session_id, inputs=plan.inputs[slot], output_regions=plan.outputs
        )
        ok = _job_ok(plan, slot, job)
        done = time.perf_counter()
        window.jobs.append((index, slot, ok))
        if index not in window.passed:
            window.latencies.append(done - sent)
            window.counted[index] += 1
            window.last[index] = done
        k += 1


async def _run_window(frontend, plans, seconds: float, cursors: list) -> _Window:
    gc.collect()
    window = _Window(len(plans), seconds)
    cursors[:] = await asyncio.gather(*(
        _client(frontend, plan, index, window, cursors[index])
        for index, plan in enumerate(plans)
    ))
    return window


def _fleet_counts(service) -> tuple:
    summary = service.fleet_summary()
    boards = summary["boards"].values()
    placements = sum(board["placements_total"] for board in boards)
    evictions = sum(board["evictions"] for board in boards)
    return placements, summary["affinity_hits"], evictions


def _exposed(service, plans, jobs: list) -> set:
    """(session index, input slot) pairs whose plaintext reached the host."""
    exposed = set()
    for index, slot in {(index, slot) for index, slot, _ in jobs}:
        for plaintext in plans[index].inputs[slot].values():
            if service.plaintext_exposures(plaintext, window=AUDIT_WINDOW):
                exposed.add((index, slot))
                break
    return exposed


def run(workload: str, seed: int, seconds: float, tracer=None) -> Result:
    plans = _prepare(workload, seed)
    if tracer is not None:
        tracer.install()
        tracer.phase = "setup"

    async def main():
        setup_start = time.perf_counter()
        service = ShieldCloudService(num_boards=BOARDS, fast_crypto=True)
        for plan in plans:
            plan.session_id = service.admit_tenant(plan.tenant, plan.accelerator).session_id
        async with AsyncShieldFrontend(service) as frontend:
            warmups = await asyncio.gather(*(
                frontend.submit(plan.session_id, inputs=plan.inputs[0], output_regions=plan.outputs)
                for plan in plans
            ))
            setup_s = time.perf_counter() - setup_start
            warmup = [(index, 0, _job_ok(plan, 0, job))
                      for index, (plan, job) in enumerate(zip(plans, warmups))]
            cursors = [1] * len(plans)
            if tracer is not None:
                tracer.uninstall()
            untraced = await _run_window(frontend, plans, seconds, cursors)
            traced = fleet = None
            if tracer is not None:
                before = _fleet_counts(service)
                for stamps in (tracer.submitted, tracer.placed, tracer.body_started):
                    stamps.clear()
                tracer.install()
                tracer.phase = "window"
                traced = await _run_window(frontend, plans, seconds, cursors)
                tracer.uninstall()
                fleet = (before, _fleet_counts(service))
        return service, setup_s, warmup, untraced, traced, fleet

    service, setup_s, warmup, untraced, traced, fleet = asyncio.run(main())
    jobs = warmup + untraced.jobs + (traced.jobs if traced is not None else [])
    # Audited after the windows: an exposure fails every job that sent the input.
    exposed = _exposed(service, plans, jobs)
    failed = sum(not ok or (index, slot) in exposed for index, slot, ok in jobs)
    result = Result(attempted=len(jobs), failed=failed)
    result.setup_s = setup_s
    result.latency = latency_summary(untraced.latencies)
    result.jobs_per_s = untraced.jobs_per_s
    result.peak_rss_mb = peak_rss_mb()
    if traced is not None:
        # Spans cover filler jobs too, so per-request totals divide by all jobs.
        result.requests = len(traced.jobs)
        result.derived["obs.trace_overhead_ratio"] = (
            statistics.median(traced.latencies) / result.latency["p50"]
        )
        _serve_derived(tracer, traced, fleet, result)
    return result


def _serve_derived(tracer, window: _Window, fleet, result: Result) -> None:
    jobs = [job for job, placed in tracer.placed.items() if job in tracer.body_started]
    waits = [tracer.placed[job] - tracer.submitted[job] for job in jobs if job in tracer.submitted]
    handoffs = [tracer.body_started[job] - tracer.placed[job] for job in jobs]
    (placements0, hits0, evictions0), (placements1, hits1, evictions1) = fleet
    placements = placements1 - placements0
    result.derived.update({
        "cloud.queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
        "serve.handoff_s": sum(handoffs) / len(handoffs) if handoffs else 0.0,
        "cloud.warm_hit_ratio": (hits1 - hits0) / placements if placements else 0.0,
        "cloud.evictions": (evictions1 - evictions0) / len(window.jobs),
    })
