"""The layer table: what the traced run wraps, and what each layer should move.

Every entry names the public functions a layer is entered through, which
per-layer metrics the traced run reports for it, and -- written down before
any optimisation is attempted -- which end-to-end metric on which workload a
change to that layer should move (``moves``) and where it should not
(``steady``).  Performance changes cite these names.  Two examples:

* Backing the SHA-256/HMAC fast path with the standard library acts on
  ``crypto.sha256_batch``, ``crypto.hmac_scalar`` and ``crypto.kdf``: it
  predicts a lower ``request_latency_p50_s`` (and a higher ``jobs_per_s``)
  on both ``serve_*`` workloads and no move on ``replay_fair_rho80``.
* Merging the service's and the simulator's scheduling cores acts on
  ``policies.*``, ``shard.route`` and ``sim.replay_shard``: it predicts a
  higher ``jobs_per_s`` on ``replay_fair_rho80`` and no move on ``serve_*``.

Per-request metrics (unit ``s/req``, ``count/req``, ``B/req``) are totals
over the traced window divided by the requests completed in it: tenant jobs
on ``serve_*``, whole ``replay_sharded`` calls on the replay workload.
Set-up layers report their total over one set-up (``s``, ``count``).

No layer predicts a move of ``request_latency_tail_s``: at the benchmark's
run length every workload completes fewer than 21 requests, so the tail
equals the median (see :func:`perfbench.common.latency_summary`).  Board
queueing (``cloud.queue_wait_s``, ``serve.handoff_s``, ``cloud.place``,
``cloud.finish``) is part of every closed-loop request, so it is predicted
to move the median on ``serve_dnn_churn`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

SERVE = ("serve_small_warm", "serve_dnn_churn")
DNN = ("serve_dnn_churn",)
SMALL = ("serve_small_warm",)
REPLAY = ("replay_fair_rho80",)
WORKLOADS = SERVE + REPLAY


@dataclass(frozen=True)
class Layer:
    """One wrapped layer boundary."""

    name: str
    targets: tuple
    #: Which totals become metrics: ``s``, ``self_s``, ``calls``,
    #: ``messages``, ``bytes`` (suffixed to ``name``) or ``count`` (``name``).
    emit: tuple = ("s", "self_s", "calls")
    #: ``request``: per request of the traced window; ``setup``: per set-up.
    phase: str = "request"
    #: Fold into the enclosing span instead of recording a span per call.
    #: Only for leaves: a folded call's own callees are not subtracted.
    folded: bool = False
    #: ``size(args, kwargs, result) -> (messages, bytes)``.
    size: object = None
    #: ``hook(tracer, args, result, span)`` called after each call.
    hook: object = None
    #: ``request(args) -> request id`` for spans that start a request.
    request: object = None
    #: end-to-end metric -> workloads a change to this layer should move.
    moves: tuple = ()
    #: workloads on which a change to this layer should move nothing.
    steady: tuple = ()


def _rows(array):
    return array.shape[0], array.nbytes


def _record_submit(tracer, args, job, span):
    tracer.submitted[job.job_id] = span.start


def _record_place(tracer, args, placed, span):
    if placed is not None:
        tracer.placed[placed.job.job_id] = span.end


def _record_body(tracer, args, result, span):
    tracer.body_started[args[1].job.job_id] = span.start


_SERVE_P50 = (("request_latency_p50_s", SERVE), ("jobs_per_s", SERVE))
_DNN_P50 = (("request_latency_p50_s", DNN),)
_REPLAY_RATE = (("jobs_per_s", REPLAY), ("request_latency_p50_s", REPLAY))
_SERVE_SETUP = (("setup_s", SERVE),)

LAYERS = (
    # -- crypto ------------------------------------------------------------------
    Layer("crypto.sha256_batch", ("repro.crypto.fasthash:sha256_many_array",),
          emit=("s", "calls", "messages", "bytes"),
          size=lambda a, k, r: _rows(a[0]), moves=_SERVE_P50, steady=REPLAY),
    Layer("crypto.hmac_scalar", ("repro.crypto.mac:hmac_sha256",),
          emit=("s", "calls", "messages", "bytes"),
          size=lambda a, k, r: (1, len(a[1])), moves=_SERVE_P50, steady=REPLAY),
    Layer("crypto.kdf", ("repro.crypto.kdf:derive_subkey",),
          emit=("s", "self_s", "calls", "messages", "bytes"),
          size=lambda a, k, r: (1, len(r)), moves=_SERVE_P50, steady=REPLAY),
    Layer("crypto.aes_ctr", ("repro.crypto.fastaes:VectorAes.encrypt_blocks",),
          emit=("s", "calls", "messages", "bytes"),
          size=lambda a, k, r: _rows(a[1]), moves=_SERVE_P50, steady=REPLAY),
    Layer("crypto.rsa_keygen", ("repro.crypto.rsa:RsaPrivateKey.from_seed",),
          phase="setup", moves=_SERVE_SETUP, steady=REPLAY),
    # -- core (the Shield datapath) ----------------------------------------------
    Layer("core.provision_load_key", ("repro.core.shield:Shield.provision_load_key",),
          moves=_SERVE_P50, steady=REPLAY),
    Layer("core.mem_read", ("repro.core.shield:Shield.memory_read",),
          emit=("s", "self_s", "calls", "bytes"),
          size=lambda a, k, r: (1, len(r)), moves=_SERVE_P50, steady=REPLAY),
    Layer("core.mem_write", ("repro.core.shield:Shield.memory_write",),
          emit=("s", "self_s", "calls", "bytes"),
          size=lambda a, k, r: (1, len(a[2])), moves=_SERVE_P50, steady=REPLAY),
    Layer("core.flush", ("repro.core.shield:Shield.flush",),
          moves=_SERVE_P50, steady=REPLAY),
    Layer("core.sealers_built", ("repro.core.sealing:RegionSealer.__init__",),
          emit=("count",), moves=_SERVE_P50, steady=REPLAY),
    # The service's replay protection is the on-chip counter store (the Bonsai
    # Merkle tree is never built by the service, so it is not wrapped).  The
    # nested read inside ``increment`` is not counted again: calls are
    # increments plus reads made from outside the store.
    Layer("core.replay_counters",
          ("repro.core.counters:IntegrityCounterStore.read",
           "repro.core.counters:IntegrityCounterStore.increment"),
          emit=("s", "calls"), folded=True, moves=_DNN_P50, steady=SMALL + REPLAY),
    Layer("core.shield_construct", ("repro.core.shield:Shield.__init__",),
          moves=_DNN_P50, steady=SMALL + REPLAY),
    Layer("core.shield_unload", ("repro.core.shield:Shield.unload",),
          moves=_DNN_P50, steady=SMALL + REPLAY),
    # -- attestation (the tenant's Data Owner) -------------------------------------
    Layer("attestation.seal_input", ("repro.attestation.data_owner:DataOwner.seal_input",),
          emit=("s", "self_s", "calls", "bytes"),
          size=lambda a, k, r: (1, len(a[3])), moves=_SERVE_P50, steady=REPLAY),
    Layer("attestation.unseal_output",
          ("repro.attestation.data_owner:DataOwner.unseal_output",
           "repro.attestation.data_owner:DataOwner.unseal_output_with_versions"),
          emit=("s", "self_s", "calls", "bytes"),
          size=lambda a, k, r: (1, len(r)), moves=_SERVE_P50, steady=REPLAY),
    Layer("attestation.rekey",
          ("repro.attestation.data_owner:DataOwner.generate_data_key",
           "repro.attestation.data_owner:DataOwner.wrap_load_key"),
          moves=_SERVE_P50, steady=REPLAY),
    # -- host (the untrusted runtime) ------------------------------------------------
    Layer("host.deliver_load_key", ("repro.host.runtime:ShefHostRuntime.deliver_load_key",),
          moves=_SERVE_P50, steady=REPLAY),
    Layer("host.upload", ("repro.host.runtime:ShefHostRuntime.upload_region",),
          emit=("s", "self_s", "calls", "bytes"),
          size=lambda a, k, r: (1, a[1].region.chunk_size * len(a[1].sealed_chunks)),
          moves=_SERVE_P50, steady=REPLAY),
    Layer("host.download", ("repro.host.runtime:ShefHostRuntime.download_region",),
          emit=("s", "self_s", "calls", "bytes"),
          size=lambda a, k, r: (1, len(r[0])), moves=_SERVE_P50, steady=REPLAY),
    # -- accelerators ------------------------------------------------------------------
    Layer("accel.run",
          ("repro.accelerators.vector_add:VectorAddAccelerator.run",
           "repro.accelerators.matmul:MatMulAccelerator.run",
           "repro.accelerators.dnnweaver:DnnWeaverAccelerator.run"),
          moves=_SERVE_P50, steady=REPLAY),
    # -- cloud service and async front-end -----------------------------------------------
    Layer("cloud.admit", ("repro.cloud.service:ShieldCloudService.admit_tenant",),
          phase="setup", moves=_SERVE_SETUP, steady=REPLAY),
    Layer("cloud.submit", ("repro.cloud.service:ShieldCloudService.submit_job",),
          emit=(), hook=_record_submit),
    Layer("cloud.place", ("repro.cloud.service:ShieldCloudService.begin_next_job",),
          hook=_record_place, moves=_DNN_P50, steady=REPLAY),
    Layer("cloud.job_body", ("repro.cloud.service:ShieldCloudService.execute_placed",),
          hook=_record_body, request=lambda a: a[1].job.job_id,
          moves=_SERVE_P50, steady=REPLAY),
    Layer("cloud.finish", ("repro.cloud.service:ShieldCloudService.finish_placed",),
          moves=_DNN_P50, steady=REPLAY),
    # -- sharded replay --------------------------------------------------------------------
    Layer("traces.generate", ("repro.sim.traces:generate_trace",),
          phase="setup", moves=(("setup_s", REPLAY),), steady=SERVE),
    Layer("shard.route", ("repro.cloud.shard:partition_trace",),
          moves=_REPLAY_RATE, steady=SERVE),
    Layer("sim.replay_shard", ("repro.sim.cloud:CloudSimulator.replay_stats",),
          moves=_REPLAY_RATE, steady=SERVE),
    Layer("policies.push", ("repro.cloud.policies:FairShareQueue.push",),
          emit=("s", "calls"), folded=True, moves=_REPLAY_RATE, steady=SERVE),
    Layer("policies.pop", ("repro.cloud.policies:FairShareQueue.pop",),
          emit=("s", "calls"), folded=True, moves=_REPLAY_RATE, steady=SERVE),
    Layer("policies.place", ("repro.cloud.policies:BoardIndex.place",),
          emit=("s", "calls"), folded=True, moves=_REPLAY_RATE, steady=SERVE),
    Layer("policies.release", ("repro.cloud.policies:BoardIndex.release",),
          emit=("s", "calls"), folded=True, moves=_REPLAY_RATE, steady=SERVE),
    Layer("sim.price", ("repro.sim.cloud:CloudSimulator.execution_seconds",),
          emit=("calls",), folded=True, moves=_REPLAY_RATE, steady=SERVE),
)

#: Per-layer metrics that are not a wrapped call's totals:
#: (name, unit, better, moves, steady, meaning).
DERIVED = (
    ("cloud.queue_wait_s", "s/req", "lower", _DNN_P50, REPLAY,
     "submit_job -> begin_next_job placed the job"),
    ("serve.handoff_s", "s/req", "lower", _DNN_P50, REPLAY,
     "placement on the event loop -> job body starts on a board thread"),
    ("cloud.warm_hit_ratio", "ratio", "higher", _SERVE_P50, REPLAY,
     "warm placements / placements in the window (fleet_summary)"),
    ("cloud.evictions", "count/req", "lower", _DNN_P50, REPLAY,
     "warm Shields evicted per job (fleet_summary)"),
    ("sim.replay_shard_max_s", "s", "lower", _REPLAY_RATE, SERVE,
     "slowest shard's replay_stats call, median over traced replays"),
    ("sim.replay_shard_min_s", "s", "lower", _REPLAY_RATE, SERVE,
     "fastest shard's replay_stats call, median over traced replays"),
    ("sim.wait_p50_s", "s_model", "lower", (), WORKLOADS, "modelled wait, exact"),
    ("sim.wait_p99_s", "s_model", "lower", (), WORKLOADS, "modelled wait, exact"),
    ("sim.wait_p999_s", "s_model", "lower", (), WORKLOADS, "modelled wait, exact"),
    ("sim.warm_hit_ratio", "ratio", "higher", (), WORKLOADS, "modelled, exact"),
    ("sim.util_min", "ratio", "higher", (), WORKLOADS, "modelled, least-used shard"),
    ("sim.util_max", "ratio", "higher", (), WORKLOADS, "modelled, most-used shard"),
    ("sim.makespan_s", "s_model", "lower", (), WORKLOADS, "modelled, exact"),
    ("obs.trace_overhead_ratio", "ratio", "lower", (), (),
     "traced median request time / untraced, same process"),
)

_SUFFIX = {"s": "_s", "self_s": "_self_s", "calls": "_calls",
           "messages": "_messages", "bytes": "_bytes", "count": ""}
_UNIT = {"s": "s", "self_s": "s", "calls": "count", "messages": "count",
         "bytes": "B", "count": "count"}


def layer_metric_specs():
    """Every per-layer metric in report order: (name, unit, better, layer, key)."""
    specs = []
    for layer in LAYERS:
        for key in layer.emit:
            unit = _UNIT[key] + ("/req" if layer.phase == "request" else "")
            specs.append((layer.name + _SUFFIX[key], unit, "lower", layer, key))
    for name, unit, better, *_ in DERIVED:
        specs.append((name, unit, better, None, None))
    return specs
