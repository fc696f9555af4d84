"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

import json
import math
import os
import re

import pytest

import layers
import loadgen
import metrics
import workloads
from spans import (
    Span,
    percentile,
    self_time,
    self_time_by_name,
    self_times,
    tail_percentile,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# --- the highest percentile with >= 10 samples beyond it --------------


@pytest.mark.parametrize("n, expected", [
    (5000, 99.0),
    (1000, 99.0),   # 10 beyond p99
    (999, 95.0),    # only 9 beyond p99
    (200, 95.0),    # 10 beyond p95
    (199, 90.0),
    (100, 90.0),
    (40, 75.0),
    (20, 50.0),
])
def test_tail_percentile_picks_highest_supported(n, expected):
    values = list(range(1, n + 1))
    value, q, count = tail_percentile(values)
    assert (q, count) == (expected, n)
    assert value == percentile(values, q)
    assert sum(1 for v in values if v > value) >= 10


def test_tail_percentile_of_too_small_a_sample_is_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail_percentile(list(range(19)))[1:] == (100.0, 19)


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([7], 99) == 7


# --- self time ---------------------------------------------------------


def test_self_time_subtracts_nested_children():
    parent = Span("engine", 0.0, 10.0, 1)
    kernel = Span("kernel", 2.0, 5.0, 2, parent=1)
    assert self_time(parent, [kernel]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    parent = Span("request", 0.0, 10.0, 1)
    children = [Span("a", 1.0, 4.0, 2, 1), Span("b", 3.0, 6.0, 3, 1),
                Span("c", 8.0, 9.0, 4, 1)]
    # Covered: [1, 6] and [8, 9] -> 6 of 10.
    assert self_time(parent, children) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    parent = Span("request", 0.0, 10.0, 1)
    child = Span("engine", 8.0, 14.0, 2, 1)
    assert self_time(parent, [child]) == pytest.approx(8.0)


def test_self_times_follow_parent_links_one_level():
    spans = [
        Span("request", 0.0, 10.0, 1),
        Span("engine", 2.0, 8.0, 2, parent=1),
        Span("kernel", 3.0, 7.0, 3, parent=2),
        Span("kernel", 6.0, 7.5, 4, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 4.0, 2: 1.5, 3: 4.0, 4: 1.5})
    by_name = self_time_by_name(spans)
    assert by_name == pytest.approx(
        {"request": 4.0, "engine": 1.5, "kernel": 5.5})


def test_request_waterfall_adds_up_to_wall_time():
    # Two requests answered by one engine call with one kernel call.
    raw = [
        ["protocol.decode", 1.0, 1.5, 1, None, {"rid": 7}],
        ["admission.admit", 1.5, 1.6, 2, None, {"rid": 7, "rejected": False}],
        ["protocol.decode", 2.0, 2.4, 3, None, {"rid": 8}],
        ["admission.admit", 2.4, 2.5, 4, None, {"rid": 8, "rejected": False}],
        ["engine", 4.0, 6.0, 5, None,
         {"rids": [7, 8], "submits": [1.6, 2.5], "n": 2, "op": "span"}],
        ["kernel", 4.5, 5.5, 6, 5, {"n": 2}],
        ["protocol.encode", 6.5, 6.6, 7, None, {"rid": 7}],
        ["protocol.encode", 6.6, 6.8, 8, None, {"rid": 8}],
    ]
    requests = {7: (0.5, 7.0), 8: (1.8, 7.5)}
    out = layers.request_waterfall(raw, requests)
    parts = sum(out[metric] for metric, _ in layers.WATERFALL)
    assert parts == pytest.approx(out["server.request_wall_us"])
    assert out["server.request_wall_us"] == pytest.approx(1e6 * 12.2 / 2)
    assert out["kernel.us_per_request"] == pytest.approx(1e6)
    assert out["engine.self_us"] == pytest.approx(1e6)
    assert out["batching.wait_us"] == pytest.approx(1e6 * (2.4 + 1.5) / 2)
    assert out["batching.coalesce_ratio"] == 2
    assert out["protocol.frames"] == 2


# --- the max-rate search -----------------------------------------------


def curve(capacity, generator_limit=float("inf")):
    """A synthetic server: p99 is flat below capacity, explodes above."""
    calls = []

    def run_step(rate):
        calls.append(rate)
        return loadgen.Step(
            rate=rate, passed=rate <= capacity,
            valid=rate <= generator_limit,
            p99_ms=5.0 if rate <= capacity else 500.0,
            late_p99_ms=0.1, cpu_share=0.1, aborted=rate > capacity,
            backlog_grew=False, failed=0, requests=int(rate))
    return run_step, calls


@pytest.mark.parametrize("capacity", [130.0, 300.0, 451.0, 2000.0])
def test_search_brackets_the_capacity(capacity):
    run_step, calls = curve(capacity)
    best, history = loadgen.search_max_rate(run_step, 300.0, 9)
    assert len(history) == len(calls) == 9
    lo = max(r for r in calls if r <= capacity)
    hi = min(r for r in calls if r > capacity)
    assert best == pytest.approx(math.sqrt(lo * hi))
    # Growing then bisecting leaves a bracket a few percent wide.
    assert hi / lo < 1.06


def test_search_never_credits_an_invalid_generator_step():
    run_step, calls = curve(capacity=1000.0, generator_limit=500.0)
    best, history = loadgen.search_max_rate(run_step, 300.0, 8)
    invalid = [s.rate for s in history if not s.valid]
    assert invalid and best < min(invalid) and best <= 500.0 * 1.06
    # An invalid step is neither pass nor failure: its rate is retried.
    assert len(set(invalid)) == 1 and len(invalid) > 1


def test_search_without_a_failure_reports_the_highest_pass():
    run_step, _ = curve(capacity=1e9)
    best, _ = loadgen.search_max_rate(run_step, 300.0, 3, growth=2.0)
    assert best == 1200.0


def test_search_starts_from_a_rate_known_to_pass():
    run_step, calls = curve(capacity=100.0)
    best, _ = loadgen.search_max_rate(run_step, 300.0, 3, passed=90.0)
    assert all(r > 100.0 for r in calls)
    assert 90.0 < best < min(calls)


def test_search_halves_until_something_passes():
    run_step, calls = curve(capacity=50.0)
    best, _ = loadgen.search_max_rate(run_step, 800.0, 6, growth=1.25)
    assert calls[:5] == [800.0, 400.0, 200.0, 100.0, 50.0]
    assert 50.0 <= best < 62.5


def test_search_reports_zero_when_nothing_passes():
    run_step, _ = curve(capacity=0.0)
    best, _ = loadgen.search_max_rate(run_step, 300.0, 4)
    assert best == 0.0


def test_backlog_growth_detection():
    steady = loadgen.PhaseResult(
        100.0, 1.0, {}, 0.0, 1.0, 0.0, False,
        [(t / 50, 5) for t in range(50)])
    growing = loadgen.PhaseResult(
        100.0, 1.0, {}, 0.0, 1.0, 0.0, False,
        [(t / 50, 2 * t) for t in range(50)])
    assert not steady.backlog_grew()
    assert growing.backlog_grew()


# --- pinned inputs -------------------------------------------------------


SHAPE = workloads.GraphShape(tuple(range(300)), 1, 150)


def test_query_stream_is_byte_identical_for_a_seed():
    first = workloads.take(workloads.hot_queries(SHAPE, 5), 2000)
    again = workloads.take(workloads.hot_queries(SHAPE, 5), 2000)
    other = workloads.take(workloads.hot_queries(SHAPE, 6), 2000)
    assert workloads.digest_queries(first) == workloads.digest_queries(again)
    assert b"".join(workloads.encode_query(q, i) for i, q in
                    enumerate(first)) == b"".join(
        workloads.encode_query(q, i) for i, q in enumerate(again))
    assert workloads.digest_queries(first) != workloads.digest_queries(other)


def test_batches_are_identical_for_a_seed_and_never_repeat_a_key():
    first = workloads.take(workloads.cold_batches(SHAPE, 5), 5)
    again = workloads.take(workloads.cold_batches(SHAPE, 5), 5)
    assert workloads.digest_batches(first) == workloads.digest_batches(again)
    windows = [(b.t1, b.t2) for b in first]
    assert len(set(windows)) == len(windows)
    for batch in first:
        assert len(batch.pairs) == len(set(batch.pairs)) == 4096
        assert 1 <= batch.t1 <= batch.t2 <= 150
        assert 1 <= batch.theta <= batch.t2 - batch.t1 + 1


def test_hot_traffic_fits_the_server_cache():
    queries = workloads.take(workloads.hot_queries(SHAPE, 1), 20000)
    keys = {q for q in queries}
    assert len(keys) <= 4096
    theta_share = sum(q[0] == "theta" for q in queries) / len(queries)
    assert 0.22 < theta_share < 0.28


def test_dataset_fingerprints_are_pinned():
    from repro.datasets import registry

    for name in workloads.FINGERPRINTS:
        graph = registry.load_dataset(name, cache=False)
        assert workloads.check_fingerprint(name, graph)


def test_fingerprint_drift_is_refused():
    from repro.graph.temporal_graph import TemporalGraph

    graph = TemporalGraph.from_edges([(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError, match="drifted"):
        workloads.check_fingerprint("enron", graph)


# --- the oracle ----------------------------------------------------------


def test_oracle_matches_the_brute_force_functions():
    from repro.datasets import registry
    from repro.graph.projection import (
        span_reaches_bruteforce,
        theta_reaches_bruteforce,
    )
    from oracle import Oracle

    graph = registry.load_dataset("chess", cache=False)
    oracle = Oracle(graph)
    shape = workloads.GraphShape.of(graph)
    rng = workloads.rng_for(0, "oracle-test")
    for _ in range(60):
        u, v = rng.choice(shape.vertices), rng.choice(shape.vertices)
        t1, t2 = workloads.random_window(rng, shape)
        theta = workloads.theta_for(t1, t2)
        assert oracle.span(u, v, t1, t2) == span_reaches_bruteforce(
            graph, u, v, (t1, t2))
        assert oracle.theta(u, v, t1, t2, theta) == theta_reaches_bruteforce(
            graph, u, v, (t1, t2), theta)


# --- BENCHMARK.json --------------------------------------------------------


def test_benchmark_json_is_generated_from_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == metrics.benchmark_json()


def test_benchmark_json_meets_the_format_limits():
    doc = metrics.benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    for m in doc["end_to_end"]:
        assert unit.match(m["unit"]) and 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(unit.match(m["unit"]) for m in doc["per_layer"])
    assert 1 <= len(doc["per_layer"]) <= 128
