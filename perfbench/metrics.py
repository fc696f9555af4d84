"""What the benchmark reports, and why.

Every workload reports every end-to-end metric: one workload is served
over the wire and one runs batches in process, so each metric is
defined per workload below.  ``BENCHMARK.json`` is generated from these
tables (``python3 perfbench/metrics.py``) and a test keeps the two in
step.
"""

from __future__ import annotations

import json
import sys

#: name -> (why, ROADMAP item it serves)
WORKLOADS = {
    "serve-hot": (
        "Shared windows and hot pairs: the micro-batcher coalesces and "
        "the result cache answers most queries, so the wire dominates; "
        "periodic reloads bump the cache.",
        "Vectorize the engine's front half, then batch the wire",
    ),
    "batch-cold": (
        "Paper Section VI protocol at batch scale (4,096 uniform pairs, "
        "fresh window each): dedup, prefilter and kernel do all the "
        "work; wire and batcher are bypassed.",
        "Shrink the kernel ladder to what the bench shows pays",
    ),
}

SERVE = ("serve-hot",)
ALL = tuple(WORKLOADS)

#: End-to-end metrics: name -> (unit, better, bound, {workload: meaning}).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, {
        w: "median of 3 set-ups, each from dataset generation through "
           "build, compact, flatten('auto') and format-3 save to "
           + ("the first answered ping of a freshly started server"
              if w in SERVE else "a QueryEngine over the index")
        for w in ALL}),
    "qps": ("queries/s", "higher", 0.25, {
        **{w: "highest open-loop Poisson rate with p99 <= 50 ms from "
              "scheduled send, no failures and no backlog growth "
              "(serve_max_qps)" for w in SERVE},
        "batch-cold": "span + theta queries answered per second of "
                      "engine time at 4,096 pairs per call "
                      "(batch_span_qps and batch_theta_qps combined)",
    }),
    "p50_ms": ("ms", "lower", 0.25, {
        **{w: "median over the reference phase's seconds of the median "
              "latency at the reference rate, from scheduled send "
              "(serve_p50_ms)" for w in SERVE},
        "batch-cold": "median time of one round: span_many then "
                      "theta_many over one window's 4,096 pairs",
    }),
    "tail_ms": ("ms", "lower", 0.25, {
        **{w: "median over the same seconds of the p95 latency "
              "(serve_p95_ms); the phase's p99 is in the result "
              "document as serve_p99_ms, with its sample count"
           for w in SERVE},
        "batch-cold": "p90 of the round times; a run makes >= 150 "
                      "rounds, so >= 15 lie beyond it",
    }),
    "rss_mb": ("MB", "lower", 0.1, {
        **{w: "peak RSS of the server worker" for w in SERVE},
        "batch-cold": "peak RSS of the process that builds and "
                      "queries the index (a fresh one per pass)",
    }),
    "index_bytes": ("bytes", "lower", 0.05, {
        w: "size of the saved format-3 index (deterministic; Fig 5)"
        for w in ALL}),
}

#: Per-layer metrics: name -> (unit, better, what should move, where).
#: Layers a workload does not exercise report 0 on it.
PER_LAYER = {
    "graph.load_s": ("s", "lower", "setup_s (small share)", ALL),
    "construction.build_s": ("s", "lower", "setup_s (dominant)", ALL),
    "construction.label_entries": ("count", "lower", "index_bytes", ALL),
    "flatstore.flatten_s": ("s", "lower", "setup_s", ALL),
    "serialization.save_s": ("s", "lower", "setup_s", ALL),
    "serialization.open_s": (
        "s", "lower", "setup_s; serve-hot tail_ms through reloads", ALL),
    "setup.unattributed_s": (
        "s", "lower", "setup_s (imports, server start, fork)", ALL),
    "protocol.decode_us": ("us", "lower", "serve-hot qps", SERVE),
    "protocol.encode_us": ("us", "lower", "serve-hot qps", SERVE),
    "protocol.frames": ("count", "higher", "none (count)", SERVE),
    "admission.admit_us": ("us", "lower", "qps", SERVE),
    "admission.rejected": ("count", "lower", "failures; qps", SERVE),
    "batching.coalesce_ratio": ("ratio", "higher", "serve-hot qps", SERVE),
    "batching.wait_us": ("us", "lower", "p50_ms", SERVE),
    "batching.wait_ms_p50": ("ms", "lower", "p50_ms", SERVE),
    "batching.wait_ms_p99": ("ms", "lower", "p50_ms", SERVE),
    "engine.us_per_query": ("us", "lower", "batch-cold qps", ALL),
    "engine.span_us_per_query": ("us", "lower", "batch-cold qps", ALL),
    "engine.theta_us_per_query": ("us", "lower", "batch-cold qps", ALL),
    "engine.self_us": ("us", "lower", "batch-cold qps", ALL),
    "engine.call_ms_p99": ("ms", "lower", "batch-cold qps", ALL),
    "engine.cache_hit_rate": ("ratio", "higher", "serve-hot qps", ALL),
    "engine.prefilter_share": ("ratio", "higher", "none (outcome share)",
                               ALL),
    "engine.kernel_share": ("ratio", "lower", "none (outcome share)", ALL),
    "kernel.pairs": ("count", "higher", "none (count)", ALL),
    "kernel.us_per_pair": ("us", "lower", "batch-cold qps; ~0 on serve",
                           ALL),
    "kernel.us_per_request": ("us", "lower", "batch-cold qps", ALL),
    "kernel.busy_share": ("ratio", "higher", "batch-cold qps", ALL),
    "server.cpu_us_per_request": ("us", "lower", "qps", SERVE),
    "server.unattributed_us_per_request": (
        "us", "lower", "serve-hot qps", SERVE),
    "server.request_wall_us": ("us", "lower", "p50_ms", SERVE),
    "server.reload_ms": ("ms", "lower", "serve-hot tail_ms", ("serve-hot",)),
    "loadgen.late_ms_p99": ("ms", "lower", "validity of qps", SERVE),
    "loadgen.cpu_share": ("ratio", "lower", "validity of qps", SERVE),
    "loadgen.invalid_steps": ("count", "lower", "validity of qps", SERVE),
}
for _name, (_unit, _better, _bound, _) in END_TO_END.items():
    PER_LAYER[f"overhead.{_name}"] = (
        _unit, _better, f"tracing cost on {_name} (traced - untraced)", ALL)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": name, "why": why}
                      for name, (why, _) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _) in END_TO_END.items()],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _) in PER_LAYER.items()],
    }


def report_lines(doc: dict):
    """Human-readable lines: every metric by name, value and unit."""
    yield (f"perfbench {doc['workload']} seed={doc['seed']} "
           f"trace={doc['trace']} correct={doc['result']['correct']} "
           f"attempted={doc['result']['attempted']} "
           f"failed={doc['result']['failed']} "
           f"failed_frac={doc['failed_frac']:.6f} "
           f"cpu_steal_share={doc['host']['cpu_steal_share']:.3f}")
    for name, metric in doc["result"]["metrics"].items():
        yield f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}"
    for name, (value, unit) in doc["named"].items():
        yield f"  {name:40s} {value:>16.6g} {unit}"


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
