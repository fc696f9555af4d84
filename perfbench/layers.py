"""Per-layer numbers from recorded spans.

Spans arrive as the lists :class:`instrument.Recorder` keeps:
``[name, start, end, sid, parent, attrs]``.  Self time is each span's
duration minus what its children cover (:mod:`spans`), taken along the
blocking path of a request: the request's own span is the root, and
what its children leave uncovered is the unattributed time.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from spans import Span, self_time_by_name, tail_percentile

#: Setup layers: metric name -> span names whose self time it sums.
SETUP_LAYERS = {
    "graph.load_s": ("graph.load",),
    "construction.build_s": ("construction.build",),
    "flatstore.flatten_s": ("flatstore.compact", "flatstore.flatten"),
    "serialization.save_s": ("serialization.save",),
}

#: Request waterfall: metric -> span name, in blocking-path order.
WATERFALL = (
    ("protocol.decode_us", "protocol.decode"),
    ("admission.admit_us", "admission.admit"),
    ("batching.wait_us", "batching.wait"),
    ("engine.self_us", "engine"),
    ("kernel.us_per_request", "kernel"),
    ("protocol.encode_us", "protocol.encode"),
    ("server.unattributed_us_per_request", "request"),
)


def to_spans(raw: Sequence[list]) -> List[Span]:
    return [Span(name, start, end, sid, parent, attrs)
            for name, start, end, sid, parent, attrs in raw]


def within(raw: Sequence[list], start: float, end: float) -> List[list]:
    return [s for s in raw if start <= s[1] and s[2] <= end]


def setup_layers(reps: Sequence[Tuple[float, float, float]],
                 raw: Sequence[list]) -> Dict[str, float]:
    """Median over set-ups of each setup layer's self time (seconds),
    and the set-up time no layer span covers.  *reps* holds each
    set-up's ``(start, end, setup_s)``."""
    per_rep: Dict[str, List[float]] = {name: [] for name in SETUP_LAYERS}
    per_rep["setup.unattributed_s"] = []
    for start, end, setup_s in reps:
        spans = to_spans(within(raw, start, end))
        selfs = self_time_by_name(spans)
        covered = 0.0
        for metric, names in SETUP_LAYERS.items():
            value = sum(selfs.get(n, 0.0) for n in names)
            per_rep[metric].append(value)
            covered += value
        per_rep["setup.unattributed_s"].append(setup_s - covered)
    return {k: statistics.median(v) for k, v in per_rep.items()}


def engine_layers(raw: Sequence[list]) -> Dict[str, float]:
    """Engine and kernel numbers from engine/kernel spans."""
    engine = [s for s in raw if s[0] == "engine"]
    kernel = [s for s in raw if s[0] == "kernel"]
    engine_s = sum(s[2] - s[1] for s in engine)
    kernel_s = sum(s[2] - s[1] for s in kernel)
    queries = sum(s[5].get("n", 0) for s in engine)
    pairs = sum(s[5].get("n", 0) for s in kernel)
    out = {
        "engine.calls": len(engine),
        "engine.us_per_query": 1e6 * engine_s / queries if queries else 0.0,
        "engine.call_ms_p99": (
            tail_percentile([1e3 * (s[2] - s[1]) for s in engine])[0]
            if engine else 0.0),
        "kernel.pairs": pairs,
        "kernel.us_per_pair": 1e6 * kernel_s / pairs if pairs else 0.0,
        "kernel.busy_share": kernel_s / engine_s if engine_s else 0.0,
        # Per query; on serve-hot request_waterfall() replaces
        # these two with per-request blocking-path values.
        "engine.self_us": 1e6 * (engine_s - kernel_s) / queries
        if queries else 0.0,
        "kernel.us_per_request": 1e6 * kernel_s / queries
        if queries else 0.0,
    }
    for op in ("span", "theta"):
        calls = [s for s in engine if s[5].get("op") == op]
        n = sum(s[5].get("n", 0) for s in calls)
        seconds = sum(s[2] - s[1] for s in calls)
        out[f"engine.{op}_us_per_query"] = 1e6 * seconds / n if n else 0.0
    return out


def outcome_shares(before: Dict, after: Dict) -> Dict[str, float]:
    """Cache-hit, prefilter and kernel shares of the queries the engine
    answered between two ``EngineStats.as_dict()`` snapshots."""
    def delta(key):
        return after["outcomes"].get(key, 0) - before["outcomes"].get(key, 0)

    queries = after["queries"] - before["queries"]
    hits = after["cache_hits"] - before["cache_hits"]
    lookups = hits + after["cache_misses"] - before["cache_misses"]
    return {
        "engine.cache_hit_rate": hits / lookups if lookups else 0.0,
        "engine.prefilter_share": delta("prefilter") / queries
        if queries else 0.0,
        "engine.kernel_share": (delta("reachable") + delta("unreachable"))
        / queries if queries else 0.0,
    }


def request_waterfall(raw: Sequence[list],
                      requests: Dict[int, Tuple[float, float]]
                      ) -> Dict[str, float]:
    """Mean self time per query request of each wire layer.

    *requests* maps request id to the client's ``(sent, received)``
    times; that interval is the request's root span.  Its children are
    the decode, admission and encode spans carrying its id, the wait
    from ``MicroBatcher.submit`` to the engine call that answered it,
    and that engine call (shared by the whole batch) with its kernel
    calls.  The root's self time is the unattributed remainder: event
    loop, executor hops and socket I/O.  By construction the metrics
    sum to ``server.request_wall_us``.
    """
    by_rid: Dict[int, List[list]] = {rid: [] for rid in requests}
    kernels_of: Dict[int, List[list]] = {}
    for s in raw:
        if s[0] == "kernel" and s[4] is not None:
            kernels_of.setdefault(s[4], []).append(s)
    waits: List[float] = []
    batch_sizes: List[int] = []
    for s in raw:
        name, start, end, sid, parent, attrs = s
        if name == "engine":
            rids = attrs.get("rids", ())
            if any(r in by_rid for r in rids):
                batch_sizes.append(len(rids))
            for rid, submitted in zip(rids, attrs.get("submits", ())):
                if rid in by_rid:
                    by_rid[rid].append(["batching.wait", submitted, start,
                                        None, None, {}])
                    by_rid[rid].append(s)
                    by_rid[rid].extend(kernels_of.get(sid, ()))
                    waits.append(1e3 * (start - submitted))
        elif name in ("protocol.decode", "admission.admit",
                      "protocol.encode"):
            rid = attrs.get("rid")
            if rid in by_rid:
                by_rid[rid].append(s)
    totals = {metric: 0.0 for metric, _ in WATERFALL}
    wall = 0.0
    for rid, children in by_rid.items():
        sent, received = requests[rid]
        tree = [Span("request", sent, received, 0)]
        engine_sid = 0
        for name, start, end, *_ in children:
            # Fresh ids: one engine span appears under many requests.
            sid = len(tree)
            tree.append(Span(name, start, end, sid,
                             engine_sid if name == "kernel" else 0))
            if name == "engine":
                engine_sid = sid
        selfs = self_time_by_name(tree)
        for metric, name in WATERFALL:
            totals[metric] += selfs.get(name, 0.0)
        wall += received - sent
    n = len(requests)
    out = {metric: 1e6 * total / n if n else 0.0
           for metric, total in totals.items()}
    out["server.request_wall_us"] = 1e6 * wall / n if n else 0.0
    out["batching.coalesce_ratio"] = (
        statistics.mean(batch_sizes) if batch_sizes else 0.0)
    out["batching.wait_ms_p50"] = (
        statistics.median(waits) if waits else 0.0)
    out["batching.wait_ms_p99"] = (
        tail_percentile(waits)[0] if waits else 0.0)
    decodes = [s for s in raw if s[0] == "protocol.decode"
               and s[5].get("rid") in by_rid]
    admits = [s for s in raw if s[0] == "admission.admit"
              and s[5].get("rid") in by_rid]
    out["protocol.frames"] = len(decodes)
    out["admission.rejected"] = sum(1 for s in admits if s[5]["rejected"])
    return out
