"""Benchmark entry point: one workload, one fresh process, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_small_warm --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with nothing wrapped and reports the end-to-end
metrics; ``--trace 1`` installs the span wrappers of
:mod:`perfbench.layers` and reports the per-layer metrics, writing the
spans to ``.perfbench/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; every metric name and
unit is checked against ``BENCHMARK.json`` before it is printed.  The
workloads and why each exists are documented in :mod:`perfbench.serve` and
:mod:`perfbench.replay`; the layer -> metric -> workload predictions in
:mod:`perfbench.layers`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_small_warm", "serve_dnn_churn", "replay_fair_rho80")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _end_to_end(result) -> dict:
    latency = result.latency
    print(
        f"request_latency_tail_s = {latency['tail']:.6f} s at p{latency['tail_pct']:.1f} "
        f"of {latency['n']} samples ({latency['beyond']} beyond)"
    )
    return {
        "setup_s": (result.setup_s, "s"),
        "request_latency_p50_s": (latency["p50"], "s"),
        "request_latency_tail_s": (latency["tail"], "s"),
        "jobs_per_s": (result.jobs_per_s, "1/s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
    }


def _per_layer(result, tracer) -> dict:
    from perfbench.layers import layer_metric_specs

    totals = {phase: tracer.layer_totals(phase) for phase in ("setup", "window")}
    divisor = {"setup": result.setups, "window": max(1, result.requests)}
    metrics = {}
    for name, unit, _, layer, key in layer_metric_specs():
        if layer is None:
            # Metrics of layers the workload does not run read 0.
            value = result.derived.get(name, 0.0)
        else:
            phase = "setup" if layer.phase == "setup" else "window"
            entry = totals[phase].get(layer.name)
            value = entry["calls" if key == "count" else key] / divisor[phase] if entry else 0.0
        metrics[name] = (value, unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        _fail(f"no src/repro or BENCHMARK.json under {ROOT}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    declared = _declared(bool(args.trace))

    # The workload modules import everything they touch here, before any
    # timer starts and before the tracer scans for modules holding wrapped names.
    from perfbench import replay, serve
    from perfbench.layers import LAYERS
    from perfbench.tracer import LayerTracer

    tracer = LayerTracer(LAYERS) if args.trace else None
    module = replay if args.workload.startswith("replay") else serve
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    result = module.run(args.workload, args.seed, args.seconds, tracer)

    if tracer is None:
        metrics = _end_to_end(result)
    else:
        metrics = _per_layer(result, tracer)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        print(f"spans: {tracer.write_jsonl(path)} written to {path.relative_to(ROOT)}")
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        _fail(f"metrics differ from BENCHMARK.json: {sorted(set(produced) ^ set(declared))} "
              f"or units {[(n, u, declared.get(n)) for n, u in produced.items() if declared.get(n) != u]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted >= 1,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
