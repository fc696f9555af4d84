"""Set-up, measurement and correctness for each workload."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import instrument
import layers
import loadgen
import metrics
import workloads
from oracle import Oracle
from spans import percentile, tail_percentile

now = time.perf_counter

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
DATASETS = {"serve-hot": "email-eu", "batch-cold": "enron"}
#: Offered rate (requests/s) of the reference phase: about 40% of what
#: one worker sustains on a 2-core host, so latency there is mostly
#: service time and queueing barely amplifies a slower host.
REFERENCE_RATE = 400.0
SEARCH_GROWTH = 1.25
#: Reference phase: ~4,000 queries at the reference rate, so its p99
#: has ~40 samples beyond it.
REFERENCE_S = 10.0
#: tail_ms of serve-hot.  On a 2-core host the worker stalls for
#: 15-30 ms a few times in an 8 s phase, which puts p99 right at the
#: edge of the stalled requests: three back-to-back 8 s phases of
#: uniform traffic at 300 req/s against one server read p99 = 12.6,
#: 21.0 and 23.5 ms.  p95 lies clear of the stalls; p99 is still
#: reported as serve_p99_ms.  Both p50_ms and
#: tail_ms are medians over the phase's seconds, so a host hiccup that
#: spoils one second does not move them.
SERVE_TAIL_PERCENTILE = 95.0
WARMUP_S = 0.5
STEP_S = 2.5
#: Settle time after each rate step.
STEP_GAP_S = 0.2
#: Answers checked against the BFS oracle per pass.
SAMPLE = 500
#: batch-cold: rounds whose answers are kept for the oracle sample, and
#: span / θ answers checked in each.
KEPT_ROUNDS = 12
SPAN_CHECKS, THETA_CHECKS = 32, 10
#: batch-cold's tail_ms: a run makes >= 100 rounds, so >= 10 lie beyond.
BATCH_TAIL_PERCENTILE = 90.0
SERVER_START_TIMEOUT_S = 120.0
#: serve-hot pins the server (worker included) and the load generator
#: to different CPUs, so the two never trade places run to run.
CPUS = sorted(os.sched_getaffinity(0))
PINNING = ({"server": CPUS[-1], "loadgen": CPUS[0]} if len(CPUS) > 1
           else None)
PASS_TIMEOUT_S = 170.0


def host_record() -> Dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def cpu_ticks() -> tuple:
    """(all, steal) jiffies of the host's CPUs, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return sum(fields[:8]), fields[7]


def steal_share(before: tuple, after: tuple) -> float:
    """Share of CPU time the hypervisor gave to other guests."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total else 0.0


def vm_hwm_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def build_index(dataset: str, index_path: str):
    """The set-up shared by all workloads, through the public API."""
    from repro.core.index import TILLIndex
    from repro.datasets import registry

    graph = registry.load_dataset(dataset, cache=False)
    index = TILLIndex.build(graph).compact().flatten("auto")
    index.save(index_path)
    return graph, index


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------


class Host:
    """The server in a child process (``serve_host.py``)."""

    def __init__(self, dataset, index_path, socket_path, log_path,
                 spans_path=None):
        self.socket_path = socket_path
        argv = [sys.executable, os.path.join(os.path.dirname(
            os.path.abspath(__file__)), "serve_host.py"),
            dataset, index_path, socket_path]
        if spans_path:
            argv.append(spans_path)
        self.log = open(log_path, "ab")
        pin = None
        if PINNING is not None:
            def pin():
                os.sched_setaffinity(0, {PINNING["server"]})
        self.proc = subprocess.Popen(argv, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     preexec_fn=pin)

    def wait_ready(self) -> None:
        deadline = now() + SERVER_START_TIMEOUT_S
        while now() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} at start")
            try:
                with socket.socket(socket.AF_UNIX) as sock:
                    sock.connect(self.socket_path)
                    sock.sendall(b'{"op":"ping"}\n')
                    if sock.makefile("rb").readline():
                        return
            except OSError:
                time.sleep(0.002)
        raise RuntimeError("server did not answer a ping in time")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.log.close()
        return code


def control(gen: loadgen.LoadGenerator, op: str) -> Dict:
    """A control op on the first load connection, between phases."""
    sock = gen.socks[0]
    sock.sendall(b'{"op":"%s","id":0}\n' % op.encode())
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    doc = json.loads(buf)
    if not doc.get("ok"):
        raise RuntimeError(f"{op} failed: {doc}")
    return doc["result"]


def serve_pass(workload: str, seed: int, seconds: int, traced: bool,
               run_dir: str, tag: str) -> Dict:
    dataset = DATASETS[workload]
    index_path = os.path.join(run_dir, f"{tag}.till")
    socket_path = os.path.join(run_dir, f"{tag}.sock")
    spans_path = os.path.join(run_dir, f"{tag}-worker-spans.json")
    recorder = instrument.Recorder() if traced else None
    if traced:
        instrument.install(recorder)
    reps = []
    host: Optional[Host] = None
    code = None
    try:
        for rep in range(SETUPS):
            started = now()
            graph, index = build_index(dataset, index_path)
            host = Host(dataset, index_path, socket_path,
                        os.path.join(run_dir, f"{tag}-server.log"),
                        spans_path if traced else None)
            host.wait_ready()
            ended = now()
            reps.append((started, ended, ended - started))
            if rep < SETUPS - 1:
                host.stop()
                host = None
        if traced:
            instrument.uninstall()
        workloads.check_fingerprint(dataset, graph)
        label_entries = index.labels.total_entries()
        backend = index.flat_backend
        del index
        out = measure_serve(seed, seconds, host, graph)
    finally:
        if traced:
            instrument.uninstall()
        if host is not None:
            code = host.stop()
    out["server_exit"] = code
    out["setup_s"] = [r[2] for r in reps]
    out["e2e"]["setup_s"] = statistics.median(out["setup_s"])
    out["e2e"]["index_bytes"] = os.path.getsize(index_path)
    out["flat_backend"] = backend
    out["layers"] = {"construction.label_entries": label_entries}
    if traced:
        with open(spans_path) as fh:
            worker = json.load(fh)
        out["layers"].update(serve_layers(out, reps, recorder.spans, worker))
    else:
        ref = out.pop("ref_phase")
        out["layers"].update({
            "server.cpu_us_per_request": out.pop("cpu_us_per_request"),
            "loadgen.late_ms_p99": tail_percentile(ref.late_ms())[0],
            "loadgen.cpu_share": ref.cpu_share,
            "loadgen.invalid_steps": sum(
                1 for s in out["steps"] if not s["valid"]),
        })
    out.pop("ref_phase", None)
    out.pop("cpu_us_per_request", None)
    return out


def measure_serve(seed: int, seconds: int, host: Host, graph) -> Dict:
    shape = workloads.GraphShape.of(graph)
    stream = workloads.hot_queries(shape, seed)
    arrivals = workloads.rng_for(seed, "arrivals")
    counter = [0]
    phases: List[loadgen.PhaseResult] = []
    affinity = os.sched_getaffinity(0)
    if PINNING is not None:
        os.sched_setaffinity(0, {PINNING["loadgen"]})
    gen = loadgen.LoadGenerator(host.socket_path)

    def phase(rate, duration, abort=False):
        offsets = loadgen.poisson_schedule(arrivals, rate, duration)
        items = loadgen.interleave(stream, len(offsets),
                                   workloads.RELOAD_EVERY, counter)
        result = gen.run(items, offsets, rate, duration, abort=abort)
        phases.append(result)
        return result

    def step(rate):
        result = phase(rate, STEP_S, abort=True)
        time.sleep(STEP_GAP_S)
        return loadgen.summarize(result)

    try:
        ref_rate = REFERENCE_RATE
        phase(ref_rate, WARMUP_S)
        stats = control(gen, "stats")
        worker_pid, before = stats["pid"], stats["engine"]
        cpu0 = cpu_seconds(worker_pid)
        ref = phase(ref_rate, REFERENCE_S)
        cpu1 = cpu_seconds(worker_pid)
        after = control(gen, "stats")["engine"]
        cpu_per_request = (cpu1 - cpu0) / len(ref.requests)
        steps = max(3, int((seconds - WARMUP_S - REFERENCE_S)
                           / (STEP_S + STEP_GAP_S)))
        # Start where the worker's CPU would saturate, so the first
        # steps bracket the answer and the rest bisect it.
        start = max(1.2 * ref_rate, 1.0 / max(cpu_per_request, 1e-6))
        best, history = loadgen.search_max_rate(
            step, start, steps, SEARCH_GROWTH,
            passed=ref_rate if ref.passes() else None)
        rss = vm_hwm_mb(worker_pid)
    finally:
        gen.close()
        os.sched_setaffinity(0, affinity)
    latencies = ref.latencies_ms()
    p99, q, n = tail_percentile(latencies)
    tail = statistics.median(ref.per_second(
        lambda values: percentile(values, SERVE_TAIL_PERCENTILE)))
    checked, wrong = check_serve(graph, phases, seed)
    attempted = sum(len(p.requests) for p in phases)
    failed = sum(p.failed for p in phases) + wrong
    reloads = [1e3 * (s.received - s.sent) for p in phases
               for s in p.reloads() if s.ok]
    return {
        "e2e": {
            "qps": best,
            "p50_ms": statistics.median(
                ref.per_second(statistics.median)),
            "tail_ms": tail,
            "rss_mb": rss,
        },
        "serve_p99_ms": p99,
        "p99_percentile": q,
        "samples": n,
        "reference_rate": ref_rate,
        "steps": [s.as_dict() for s in history],
        "engine_before": before,
        "engine_after": after,
        "ref_phase": ref,
        "cpu_us_per_request": 1e6 * cpu_per_request,
        "reload_ms": statistics.median(reloads) if reloads else 0.0,
        "reloads": len(reloads),
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "checked": checked,
    }


def check_serve(graph, phases, seed) -> tuple:
    """Check a seeded sample of answered queries against the oracle."""
    answered = sorted(
        (rid, s) for p in phases for rid, s in p.requests.items()
        if s.query is not None and s.ok)
    rng = workloads.rng_for(seed, "sample")
    sample = rng.sample(answered, min(SAMPLE, len(answered)))
    oracle = Oracle(graph)
    wrong = sum(1 for _, s in sample
                if s.answer is not oracle.answer(*s.query))
    return len(sample), wrong


def serve_layers(out: Dict, reps, setup_spans, worker_spans) -> Dict:
    ref = out["ref_phase"]
    requests = {rid: (s.sent, s.received)
                for rid, s in ref.requests.items()
                if s.query is not None and s.ok}
    window = layers.within(worker_spans, ref.started, ref.ended)
    result = layers.setup_layers(reps, setup_spans)
    opens = [s[2] - s[1] for s in worker_spans
             if s[0] == "serialization.open"]
    result["serialization.open_s"] = statistics.median(opens)
    result.update(layers.engine_layers(window))
    result.update(layers.outcome_shares(out["engine_before"],
                                        out["engine_after"]))
    result.update(layers.request_waterfall(window, requests))
    result["server.reload_ms"] = out["reload_ms"]
    return result


# ----------------------------------------------------------------------
# batch workload
# ----------------------------------------------------------------------


def batch_pass(workload: str, seed: int, seconds: int, traced: bool,
               run_dir: str, tag: str) -> Dict:
    from repro.core.index import TILLIndex
    from repro.serve.engine import QueryEngine

    dataset = DATASETS[workload]
    index_path = os.path.join(run_dir, f"{tag}.till")
    recorder = instrument.Recorder() if traced else None
    if traced:
        instrument.install(recorder)
    try:
        reps = []
        for _ in range(SETUPS):
            started = now()
            graph, index = build_index(dataset, index_path)
            engine = QueryEngine(index)
            ended = now()
            reps.append((started, ended, ended - started))
        workloads.check_fingerprint(dataset, graph)
        if traced:
            # No server opens the index here; time the open a server
            # would make, outside set-up and measurement.
            for _ in range(SETUPS):
                TILLIndex.load(index_path, graph, mmap=True,
                               require_mmap=True).flatten("auto")
        out = measure_batch(seed, seconds, engine, graph)
    finally:
        if traced:
            instrument.uninstall()
    out["setup_s"] = [r[2] for r in reps]
    out["e2e"]["setup_s"] = statistics.median(out["setup_s"])
    out["e2e"]["index_bytes"] = os.path.getsize(index_path)
    out["flat_backend"] = index.flat_backend
    out["layers"] = {
        "construction.label_entries": index.labels.total_entries()}
    if traced:
        result = layers.setup_layers(reps, recorder.spans)
        result["serialization.open_s"] = statistics.median(
            s[2] - s[1] for s in recorder.spans
            if s[0] == "serialization.open")
        window = layers.within(recorder.spans, out["measure_start"],
                               out["measure_end"])
        result.update(layers.engine_layers(window))
        result.update(layers.outcome_shares(out["engine_before"],
                                            out["engine_after"]))
        out["layers"].update(result)
    return out


def measure_batch(seed: int, seconds: int, engine, graph) -> Dict:
    shape = workloads.GraphShape.of(graph)
    for batch in workloads.take(
            workloads.cold_batches(shape, seed, "batch-warmup"), 2):
        engine.span_many(list(batch.pairs), (batch.t1, batch.t2))
        engine.theta_many(list(batch.pairs), (batch.t1, batch.t2),
                          batch.theta)
    warm_queries = 4 * workloads.BATCH_PAIRS
    before = engine.stats().as_dict()
    stream = workloads.cold_batches(shape, seed)
    span_s: List[float] = []
    theta_s: List[float] = []
    kept = []
    start = now()
    while now() - start < seconds:
        batch = next(stream)
        pairs = list(batch.pairs)
        window = (batch.t1, batch.t2)
        t0 = now()
        span = engine.span_many(pairs, window)
        t1 = now()
        theta = engine.theta_many(pairs, window, batch.theta)
        t2 = now()
        span_s.append(t1 - t0)
        theta_s.append(t2 - t1)
        if len(kept) < KEPT_ROUNDS:
            kept.append((batch, span, theta))
    end = now()
    rss = vm_hwm_mb("self")
    after = engine.stats().as_dict()
    rounds_ms = [1e3 * (a + b) for a, b in zip(span_s, theta_s)]
    tail = percentile(rounds_ms, BATCH_TAIL_PERCENTILE)
    per_call = workloads.BATCH_PAIRS
    checked, wrong = check_batch(graph, kept, seed)
    return {
        "e2e": {
            "qps": 2 * per_call * len(rounds_ms) / (sum(span_s)
                                                    + sum(theta_s)),
            "p50_ms": statistics.median(rounds_ms),
            "tail_ms": tail,
            "rss_mb": rss,
        },
        "tail_percentile": BATCH_TAIL_PERCENTILE,
        "tail_samples": len(rounds_ms),
        "batch_span_qps": per_call * len(span_s) / sum(span_s),
        "batch_theta_qps": per_call * len(theta_s) / sum(theta_s),
        "rounds": len(rounds_ms),
        "engine_before": before,
        "engine_after": after,
        "measure_start": start,
        "measure_end": end,
        "attempted": warm_queries + 2 * per_call * len(rounds_ms),
        "failed": wrong,
        "wrong": wrong,
        "checked": checked,
    }


def check_batch(graph, kept, seed) -> tuple:
    rng = workloads.rng_for(seed, "sample")
    oracle = Oracle(graph)
    checked = wrong = 0
    for batch, span, theta in kept:
        for k in rng.sample(range(len(batch.pairs)), SPAN_CHECKS):
            u, v = batch.pairs[k]
            checked += 1
            wrong += span[k] is not oracle.span(u, v, batch.t1, batch.t2)
        for k in rng.sample(range(len(batch.pairs)), THETA_CHECKS):
            u, v = batch.pairs[k]
            checked += 1
            wrong += theta[k] is not oracle.theta(u, v, batch.t1, batch.t2,
                                                  batch.theta)
    return checked, wrong


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def batch_pass_in_child(workload: str, seed: int, seconds: int,
                        traced: bool, run_dir: str, tag: str) -> Dict:
    """Run :func:`batch_pass` in a fresh interpreter, so its peak RSS is
    its own and not the high-water mark of an earlier pass."""
    out_path = os.path.join(run_dir, f"{tag}-pass.json")
    src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), workload, str(seed),
         str(seconds), str(int(traced)), run_dir, tag, out_path],
        check=True, timeout=PASS_TIMEOUT_S, env=env)
    with open(out_path) as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: int, traced: bool,
        run_dir: str) -> Dict:
    ticks = cpu_ticks()
    serve = workload in metrics.SERVE
    passes = []
    for tag in ("plain", "traced") if traced else ("plain",):
        args = (workload, seed, seconds, tag == "traced", run_dir, tag)
        if serve:
            passes.append(serve_pass(*args))
        else:
            passes.append(batch_pass_in_child(*args))
    plain = passes[0]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = all(p["wrong"] == 0 and p["failed"] == 0 for p in passes)
    if traced:
        layer_values = dict(passes[1]["layers"])
        layer_values.update(plain["layers"])
        for name, value in plain["e2e"].items():
            layer_values[f"overhead.{name}"] = (
                passes[1]["e2e"][name] - value)
        reported = {
            name: {"value": float(layer_values.get(name, 0.0)),
                   "unit": unit}
            for name, (unit, *_rest) in metrics.PER_LAYER.items()}
    else:
        reported = {
            name: {"value": float(plain["e2e"][name]), "unit": unit}
            for name, (unit, *_rest) in metrics.END_TO_END.items()}
    from repro.serve.server import ServerConfig

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "dataset": DATASETS[workload],
        "fingerprint": workloads.FINGERPRINTS[DATASETS[workload]],
        "why": metrics.WORKLOADS[workload][0],
        "roadmap_item": metrics.WORKLOADS[workload][1],
        "host": dict(host_record(),
                     cpu_steal_share=steal_share(ticks, cpu_ticks())),
        "inputs_sha256": inputs_digest(workload, seed),
        "config": {
            "server_config": dataclasses.asdict(ServerConfig()),
            "flat_backend": plain["flat_backend"],
            "p99_limit_ms": loadgen.P99_LIMIT_MS,
            "reference_rate": REFERENCE_RATE if serve else None,
            "rate_search": {
                "start": "1 / worker CPU seconds per request in the "
                         "reference phase, >= 1.2 x the reference rate",
                "growth": SEARCH_GROWTH, "step_s": STEP_S,
                "then": "geometric bisection; report the bracket's "
                        "geometric middle",
                "rates": [s["rate"] for s in plain["steps"]],
            } if serve else None,
            "setups": SETUPS,
            "cpu_pinning": PINNING if serve else None,
        },
        "failed_frac": failed / attempted,
        "named": issue_names(workload, plain),
        "passes": [
            {k: v for k, v in p.items()
             if k not in ("engine_before", "engine_after")}
            for p in passes],
        "metric_definitions": {
            name: spec[3][workload]
            for name, spec in metrics.END_TO_END.items()},
        "layer_map": {
            name: {"moves": moves, "exercised": workload in where}
            for name, (_u, _b, moves, where) in metrics.PER_LAYER.items()},
        "result": {"correct": correct, "attempted": attempted,
                   "failed": failed, "metrics": reported},
    }


def inputs_digest(workload: str, seed: int) -> str:
    """SHA-256 of the first inputs the seed generates: 1,000 queries,
    or 3 batches."""
    from repro.datasets import registry

    shape = workloads.GraphShape.of(
        registry.load_dataset(DATASETS[workload]))
    if workload == "batch-cold":
        return workloads.digest_batches(
            workloads.take(workloads.cold_batches(shape, seed), 3))
    return workloads.digest_queries(
        workloads.take(workloads.hot_queries(shape, seed), 1000))


def issue_names(workload: str, plain: Dict) -> Dict[str, list]:
    """The end-to-end numbers under workload-specific names, with units."""
    e2e = plain["e2e"]
    if workload in metrics.SERVE:
        return {"serve_max_qps": [e2e["qps"], "req/s"],
                "serve_p50_ms": [e2e["p50_ms"], "ms"],
                "serve_p95_ms": [e2e["tail_ms"], "ms"],
                "serve_p99_ms": [plain["serve_p99_ms"], "ms"]}
    return {"batch_span_qps": [plain["batch_span_qps"], "queries/s"],
            "batch_theta_qps": [plain["batch_theta_qps"], "queries/s"]}


if __name__ == "__main__":
    # batch_pass_in_child: workload seed seconds traced run_dir tag out
    _w, _seed, _secs, _traced, _dir, _tag, _out = sys.argv[1:]
    _result = batch_pass(_w, int(_seed), int(_secs), _traced == "1",
                         _dir, _tag)
    with open(_out, "w") as _fh:
        json.dump(_result, _fh)
