"""Tests for the network serving tier (:mod:`repro.serve.server`).

Covers the wire protocol, admission control, the micro-batcher, the
end-to-end server over a Unix socket, index hot swap (cache
invalidation, in-flight safety, no mapping/fd leak), the thread-safety
contract of the engine under the coalescer, and the strict ``--mmap``
format check.
"""

import asyncio
import contextlib
import gc
import logging
import os
import socket
import struct
import sys
import tempfile
import threading
import time

import pytest

from repro import TILLIndex
from repro.errors import IndexFormatError
from repro.serve import QueryEngine
from repro.serve.admission import AdmissionController, TokenBucket, parse_quota
from repro.serve.batching import MicroBatcher
from repro.serve.client import ServeClient, run_loadgen
from repro.serve.protocol import (
    BAD_REQUEST,
    FRAME_TOO_LARGE,
    INTERNAL,
    OVERLOADED,
    QUOTA_EXCEEDED,
    ProtocolError,
    decode_response,
    encode_answer,
    encode_error,
    parse_request,
)
from repro.serve.server import (
    IndexProvider,
    ReachabilityServer,
    ServerConfig,
    bind_socket,
)

from tests.conftest import random_graph


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_span_request_round_trip(self):
        r = parse_request(
            b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,"id":"q7"}\n'
        )
        assert (r.op, r.u, r.v, r.window, r.id) == ("span", 1, 2, (0, 9), "q7")
        assert r.tenant == "default"

    def test_theta_request_carries_theta_and_tenant(self):
        r = parse_request(
            b'{"op":"theta","u":"a","v":"b","t1":1,"t2":5,"theta":2,'
            b'"tenant":"acme"}'
        )
        assert r.theta == 2 and r.tenant == "acme"

    @pytest.mark.parametrize("line", [
        b"not json at all",
        b"[1,2,3]",
        b'{"op":"frobnicate"}',
        b'{"op":"span","u":1,"v":2,"t1":0}',          # missing t2
        b'{"op":"span","u":1,"v":2,"t1":true,"t2":9}',  # bool timestamp
        b'{"op":"span","u":1,"v":2,"t1":"0","t2":9}',   # string timestamp
        b'{"op":"theta","u":1,"v":2,"t1":0,"t2":9}',    # theta missing
        b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,"tenant":""}',
    ])
    def test_bad_requests_raise_bad_request(self, line):
        with pytest.raises(ProtocolError) as info:
            parse_request(line)
        assert info.value.code == BAD_REQUEST

    def test_control_ops_need_no_query_fields(self):
        assert parse_request(b'{"op":"ping"}').op == "ping"
        assert parse_request(b'{"op":"stats"}').op == "stats"
        assert parse_request(b'{"op":"reload"}').op == "reload"
        assert parse_request(b'{"op":"metrics"}').op == "metrics"

    def test_trace_field_is_optional_and_validated(self):
        r = parse_request(b'{"op":"span","u":1,"v":2,"t1":0,"t2":9}')
        assert r.trace_id is None and r.parent_span is None
        r = parse_request(
            b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,'
            b'"trace":{"id":"req-7","span":"client"}}'
        )
        assert r.trace_id == "req-7" and r.parent_span == "client"
        for bad in (b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,"trace":7}',
                    b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,'
                    b'"trace":{"id":""}}',
                    b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,'
                    b'"trace":{"span":"x"}}'):
            with pytest.raises(ProtocolError) as info:
                parse_request(bad)
            assert info.value.code == BAD_REQUEST

    def test_encode_decode(self):
        doc = decode_response(encode_answer(3, True))
        assert doc == {"id": 3, "ok": True, "answer": True}
        doc = decode_response(encode_error("x", OVERLOADED, "busy"))
        assert doc["ok"] is False and doc["code"] == OVERLOADED

    def test_encoded_lines_are_newline_terminated(self):
        assert encode_answer(None, False).endswith(b"\n")
        assert b"\n" not in encode_answer(None, False)[:-1]


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------


class TestAdmission:
    def test_token_bucket_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert [bucket.allow(0.0) for _ in range(4)] == [
            True, True, True, False
        ]
        assert bucket.allow(0.5)  # 1 token refilled at 2/s
        assert not bucket.allow(0.5)

    def test_quota_gate_is_deterministic_with_fake_clock(self):
        clock = lambda: 100.0  # frozen: no refill ever
        controller = AdmissionController(
            max_inflight=0, quotas={"acme": (1.0, 2.0)}, clock=clock
        )
        codes = [controller.try_admit("acme") for _ in range(4)]
        assert codes == [None, None, QUOTA_EXCEEDED, QUOTA_EXCEEDED]
        # unmetered tenant is untouched by acme's empty bucket
        assert controller.try_admit("other") is None

    def test_inflight_bound_rejects_overloaded(self):
        controller = AdmissionController(max_inflight=2)
        assert controller.try_admit("t") is None
        assert controller.try_admit("t") is None
        assert controller.try_admit("t") == OVERLOADED
        controller.release()
        assert controller.try_admit("t") is None
        assert controller.stats()["rejected"] == {OVERLOADED: 1}
        assert controller.stats()["peak_inflight"] == 2

    def test_default_quota_applies_to_unlisted_tenants(self):
        controller = AdmissionController(
            max_inflight=0, default_quota=(0.0, 1.0), clock=lambda: 0.0
        )
        assert controller.try_admit("anyone") is None
        assert controller.try_admit("anyone") == QUOTA_EXCEEDED

    def test_parse_quota(self):
        assert parse_quota("acme=5") == ("acme", (5.0, 5.0))
        assert parse_quota("acme=5:20") == ("acme", (5.0, 20.0))
        assert parse_quota("*=0.5") == ("*", (0.5, 1.0))
        for bad in ("acme", "=5", "acme=fast"):
            with pytest.raises(ValueError):
                parse_quota(bad)


# ----------------------------------------------------------------------
# micro-batcher
# ----------------------------------------------------------------------


class TestMicroBatcher:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_coalesces_same_key_flushes_on_timer(self):
        calls = []

        async def execute(key, pairs):
            calls.append((key, list(pairs)))
            return [True] * len(pairs)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=100, max_delay=0.01)
            futures = [batcher.submit("span", (0, i), 1, 9, None)
                       for i in range(5)]
            answers = await asyncio.gather(*futures)
            await batcher.drain()
            return answers

        answers = self._run(scenario())
        assert answers == [True] * 5
        assert len(calls) == 1  # one coalesced engine call
        assert calls[0][0] == ("span", 1, 9, None)
        assert len(calls[0][1]) == 5

    def test_size_trigger_flushes_before_timer(self):
        sizes = []

        async def execute(key, pairs):
            sizes.append(len(pairs))
            return [False] * len(pairs)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=3, max_delay=60.0)
            futures = [batcher.submit("span", (0, i), 1, 9, None)
                       for i in range(3)]
            # max_delay is a minute: only the size trigger can flush.
            await asyncio.wait_for(asyncio.gather(*futures), timeout=5)
            await batcher.drain()

        self._run(scenario())
        assert sizes == [3]

    def test_distinct_keys_do_not_coalesce(self):
        keys = []

        async def execute(key, pairs):
            keys.append(key)
            return [True] * len(pairs)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=10, max_delay=0.005)
            a = batcher.submit("span", (0, 1), 1, 9, None)
            b = batcher.submit("span", (0, 1), 1, 5, None)   # other window
            c = batcher.submit("theta", (0, 1), 1, 9, 2)     # other op
            await asyncio.gather(a, b, c)
            await batcher.drain()

        self._run(scenario())
        assert sorted(keys) == [
            ("span", 1, 5, None), ("span", 1, 9, None), ("theta", 1, 9, 2)
        ]

    def test_executor_exception_delivered_per_future(self):
        async def execute(key, pairs):
            raise RuntimeError("kernel exploded")

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=10, max_delay=0.001)
            futures = [batcher.submit("span", (0, i), 1, 9, None)
                       for i in range(3)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            await batcher.drain()
            return results

        results = self._run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_meta_and_traces_reach_a_3arg_executor(self):
        seen = []

        async def execute(key, pairs, meta):
            seen.append(dict(meta))
            return [True] * len(pairs)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=100, max_delay=0.005)
            metas = [{}, {}, None]
            futures = [
                batcher.submit("span", (0, 0), 1, 9, None,
                               trace="t-0", meta=metas[0]),
                batcher.submit("span", (0, 1), 1, 9, None,
                               trace="t-1", meta=metas[1]),
                batcher.submit("span", (0, 2), 1, 9, None),  # untraced
            ]
            await asyncio.gather(*futures)
            await batcher.drain()
            return metas

        metas = self._run(scenario())
        # one coalesced flush: the executor saw the batch label and
        # every member trace id
        assert len(seen) == 1
        assert seen[0]["traces"] == ["t-0", "t-1"]
        assert seen[0]["batch"].startswith("b")
        # the caller-owned meta dicts were filled in place at flush
        for meta in metas[:2]:
            assert meta["batch"] == seen[0]["batch"]
            assert meta["size"] == 3
            assert meta["cause"] in ("timer", "size", "drain")

    def test_2arg_executor_gets_no_meta(self):
        calls = []

        async def execute(key, pairs):
            calls.append(len(pairs))
            return [True] * len(pairs)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=10, max_delay=0.005)
            meta = {}
            future = batcher.submit("span", (0, 1), 1, 9, None,
                                    trace="t-9", meta=meta)
            assert await future is True
            await batcher.drain()
            return meta

        meta = self._run(scenario())
        assert calls == [1]
        assert meta["size"] == 1  # meta still filled for the slow log

    def test_drain_flushes_pending(self):
        flushed = []

        async def execute(key, pairs):
            flushed.extend(pairs)
            return [True] * len(pairs)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=100, max_delay=60.0)
            future = batcher.submit("span", (7, 8), 1, 9, None)
            assert batcher.pending_queries == 1
            await batcher.drain()
            assert batcher.pending_queries == 0
            assert await future is True

        self._run(scenario())
        assert flushed == [(7, 8)]


# ----------------------------------------------------------------------
# end-to-end server over a Unix socket
# ----------------------------------------------------------------------


@contextlib.contextmanager
def running_server(provider, config=None, telemetry=None, tcp=False):
    """A live server on a scratch Unix socket, torn down on exit.

    With ``tcp=True`` it listens on a loopback TCP port instead and
    yields ``(server, (host, port))``.
    """
    with tempfile.TemporaryDirectory(prefix="repro-serve-test-") as scratch:
        socket_path = os.path.join(scratch, "serve.sock")
        listen = {"socket_path": socket_path}
        if tcp:
            sock = bind_socket(host="127.0.0.1", port=0)
            socket_path = sock.getsockname()
            listen = {"sock": sock}
        server = ReachabilityServer(
            provider, config or ServerConfig(max_batch=32,
                                             batch_delay=0.001),
            telemetry=telemetry,
        )
        ready = threading.Event()
        failure = []

        def run():
            try:
                asyncio.run(server.serve(ready=ready, **listen))
            except Exception as exc:  # surfaced in the main thread below
                failure.append(exc)
                ready.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(20), "server never became ready"
        if failure:
            raise failure[0]
        try:
            yield server, socket_path
        finally:
            server.stop()
            thread.join(20)
            assert not thread.is_alive(), "server did not shut down"
            if tcp:
                sock.close()
            if failure:
                raise failure[0]


@pytest.fixture(scope="module")
def served_graph():
    return random_graph(3, num_vertices=10, num_edges=45)


@pytest.fixture(scope="module")
def served_index(served_graph):
    return TILLIndex.build(served_graph).compact()


class TestServerEndToEnd:
    def test_answers_match_index(self, served_graph, served_index):
        provider = IndexProvider(served_graph, flat_backend=None)
        provider.open = lambda: served_index  # serve the prebuilt index
        pairs = [(u, v) for u in range(6) for v in range(6)]
        with running_server(provider) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                for u, v in pairs:
                    got = client.span(u, v, 1, 10)
                    assert got["ok"], got
                    assert got["answer"] == served_index.span_reachable(
                        u, v, (1, 10)
                    )
                    got = client.theta(u, v, 1, 9, 3)
                    assert got["ok"], got
                    assert got["answer"] == served_index.theta_reachable(
                        u, v, (1, 9), 3
                    )

    def test_pipelined_responses_in_request_order(self, served_graph,
                                                  served_index):
        provider = IndexProvider(served_graph, flat_backend=None)
        provider.open = lambda: served_index
        with running_server(provider) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                sent = []
                for u in range(8):
                    sent.append(client.send(
                        {"op": "span", "u": u, "v": (u + 1) % 8,
                         "t1": 1, "t2": 10}
                    ))
                client.flush()
                for expected_id in sent:
                    assert client.recv()["id"] == expected_id

    def test_control_ops_and_error_codes(self, served_graph, served_index):
        provider = IndexProvider(served_graph, flat_backend=None)
        provider.open = lambda: served_index
        with running_server(provider) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                assert client.ping()["result"]["pong"] is True
                stats = client.stats()["result"]
                assert stats["engine"]["queries"] >= 0
                assert "admission" in stats and "batcher" in stats
                # malformed line -> per-request error, connection survives
                bad = client.call({"op": "warp"})
                assert bad["code"] == BAD_REQUEST
                # unknown vertex rejected before batching
                missing = client.span(999, 0, 1, 10)
                assert missing["code"] == "unknown-vertex"
                # inverted window -> bad-window for that batch only
                inverted = client.span(0, 1, 10, 1)
                assert inverted["code"] == "bad-window"
                # and the connection still answers real queries
                assert client.span(0, 1, 1, 10)["ok"]

    def test_vartheta_cap_maps_to_unsupported(self, served_graph):
        provider = IndexProvider(served_graph, vartheta=2, flat_backend=None)
        with running_server(provider) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                over_cap = client.span(0, 1, 1, 10)  # length 10 > cap 2
                assert over_cap["code"] == "unsupported"
                assert client.span(0, 1, 1, 2)["ok"]  # length 2 == cap

    def test_quota_exhaustion_rejects_only_that_tenant(self, served_graph,
                                                       served_index):
        provider = IndexProvider(served_graph, flat_backend=None)
        provider.open = lambda: served_index
        config = ServerConfig(
            max_batch=32, batch_delay=0.001,
            quotas={"metered": (0.0, 3.0)},  # 3 queries, ever
        )
        with running_server(provider, config) as (_server, socket_path):
            with ServeClient(socket_path=socket_path,
                             tenant="metered") as client:
                outcomes = [client.span(0, 1, 1, 10) for _ in range(5)]
            allowed = [r for r in outcomes if r["ok"]]
            rejected = [r for r in outcomes if not r["ok"]]
            assert len(allowed) == 3
            assert {r["code"] for r in rejected} == {QUOTA_EXCEEDED}
            with ServeClient(socket_path=socket_path) as client:
                assert client.span(0, 1, 1, 10)["ok"]

    def test_loadgen_against_live_server(self, served_graph, served_index):
        provider = IndexProvider(served_graph, flat_backend=None)
        provider.open = lambda: served_index
        queries = [(u % 10, (u * 3 + 1) % 10, 1, 10, None if u % 2 else 3)
                   for u in range(120)]
        with running_server(provider) as (_server, socket_path):
            result = run_loadgen(queries, socket_path=socket_path,
                                 concurrency=3, pipeline=5)
        assert result["ok"] == 120
        assert result["errors"] == 0 and not result["failures"]
        assert result["qps"] > 0
        for key in ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms"):
            assert result[key] >= 0.0


# ----------------------------------------------------------------------
# hot swap
# ----------------------------------------------------------------------


@pytest.fixture()
def saved_index_path(served_graph, served_index, tmp_path):
    path = str(tmp_path / "serve.till")
    served_index.save(path, format=3)
    return path


class TestHotSwap:
    def test_swap_bumps_generation_and_invalidates_cache(self, served_graph,
                                                         served_index):
        engine = QueryEngine(served_index)
        pairs = [(u, (u + 1) % 8) for u in range(8)]
        engine.span_many(pairs, (1, 10))
        engine.reset_stats()
        engine.span_many(pairs, (1, 10))
        assert engine.stats().cache_hits == len(pairs)  # primed
        generation = engine.stats().generation
        engine.swap_index(served_index)
        assert engine.stats().generation > generation
        engine.reset_stats()
        engine.span_many(pairs, (1, 10))
        stats = engine.stats()
        assert stats.cache_hits == 0  # every pre-swap answer is stale
        assert stats.cache_misses == len(pairs)

    def test_in_flight_queries_on_old_mmap_complete(self, served_graph,
                                                    saved_index_path):
        provider = IndexProvider(served_graph, saved_index_path, mmap=True,
                                 flat_backend=None)
        engine = QueryEngine(provider.open(), thread_safe=True)
        old_index = engine.index
        assert old_index.flat.is_mmap
        expected = old_index.span_reachable(0, 1, (1, 10))
        engine.swap_index(provider.open())
        # The old mapping stays valid while anything references it: a
        # batch that bound `index` before the swap finishes correctly.
        assert old_index.span_reachable(0, 1, (1, 10)) == expected
        assert engine.span_many([(0, 1)], (1, 10)) == [expected]

    @pytest.mark.skipif(not os.path.exists("/proc/self/fd"),
                        reason="needs /proc (Linux)")
    def test_repeated_swaps_leak_no_fds_or_mappings(self, served_graph,
                                                    saved_index_path):
        provider = IndexProvider(served_graph, saved_index_path, mmap=True,
                                 flat_backend=None)
        engine = QueryEngine(provider.open())
        basename = os.path.basename(saved_index_path)

        def fd_count():
            return len(os.listdir("/proc/self/fd"))

        def mapping_count():
            with open("/proc/self/maps") as fh:
                return sum(basename in line for line in fh)

        gc.collect()
        fds_before = fd_count()
        for _ in range(8):
            old = engine.swap_index(provider.open())
            del old
            engine.span_many([(0, 1), (1, 2)], (1, 10))
        gc.collect()
        assert fd_count() <= fds_before  # loads close their fd post-mmap
        # Only the live index's mapping remains after 8 swaps.
        assert mapping_count() <= 1

    def test_server_hot_swap_under_load_zero_failures(self, served_graph,
                                                      saved_index_path):
        provider = IndexProvider(served_graph, saved_index_path, mmap=True,
                                 flat_backend=None)
        queries = [(u % 10, (u * 7 + 2) % 10, 1, 10, None)
                   for u in range(300)]
        with running_server(provider) as (server, socket_path):
            swap_results = []

            def swapper():
                with ServeClient(socket_path=socket_path) as client:
                    for _ in range(3):
                        swap_results.append(client.reload())

            swap_thread = threading.Thread(target=swapper)
            swap_thread.start()
            result = run_loadgen(queries, socket_path=socket_path,
                                 concurrency=3, pipeline=4)
            swap_thread.join(30)
            assert server.hot_swaps >= 3
        assert result["errors"] == 0 and not result["failures"]
        assert result["ok"] == len(queries)
        assert all(r["ok"] for r in swap_results)
        generations = [r["result"]["generation"] for r in swap_results]
        assert generations == sorted(generations)  # monotone


# ----------------------------------------------------------------------
# bad clients and failed reloads
# ----------------------------------------------------------------------


def _asyncio_logs(caplog):
    return [r for r in caplog.records if r.name == "asyncio"
            and r.levelno >= logging.WARNING]


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestHostileClients:
    @pytest.mark.parametrize("tcp", [False, True])
    def test_oversized_line_gets_frame_too_large_then_close(
            self, served_graph, served_index, caplog, tcp):
        provider = IndexProvider(served_graph, flat_backend=None)
        provider.open = lambda: served_index
        line = b'{"op":"ping","pad":"' + b"x" * 100_000 + b'"}\n'
        with running_server(provider, tcp=tcp) as (_server, address):
            family = socket.AF_INET if tcp else socket.AF_UNIX
            with socket.socket(family, socket.SOCK_STREAM) as raw:
                raw.settimeout(10)
                raw.connect(address)
                raw.sendall(line)
                reader = raw.makefile("rb")
                reply = decode_response(reader.readline())
                assert reply["ok"] is False
                assert reply["code"] == FRAME_TOO_LARGE
                assert reader.readline() == b""  # server closed
            # The server itself is unaffected.
            kwargs = ({"host": address[0], "port": address[1]} if tcp
                      else {"socket_path": address})
            with ServeClient(**kwargs) as client:
                assert client.span(0, 1, 1, 10)["ok"]
        assert _asyncio_logs(caplog) == []

    def test_peer_reset_mid_read_closes_quietly(self, served_graph,
                                                served_index, caplog):
        provider = IndexProvider(served_graph, flat_backend=None)
        provider.open = lambda: served_index
        with running_server(provider, tcp=True) as (server, address):
            raw = socket.create_connection(address, timeout=10)
            # Pipelined queries, then an RST (linger on, timeout 0)
            # before reading a single answer.
            raw.sendall(b"".join(
                b'{"op":"span","u":%d,"v":%d,"t1":1,"t2":10}\n'
                % (u, (u + 1) % 10) for u in range(10)
            ))
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                           struct.pack("ii", 1, 0))
            raw.close()
            _wait_for(lambda: server.admission.inflight == 0
                      and server.describe()["batcher"]["flushed_queries"]
                      == 10)
            with ServeClient(host=address[0], port=address[1]) as client:
                assert client.span(0, 1, 1, 10)["ok"]
        assert server.admission.inflight == 0
        assert _asyncio_logs(caplog) == []


class TestFailedReload:
    @staticmethod
    def _corrupt(path):
        """Replace the index file (new inode, so live mappings of the
        old one stay intact) with bytes that are no index at all."""
        garbage = path + ".tmp"
        with open(garbage, "wb") as fh:
            fh.write(b"this is not a TILL index\n" * 8)
        os.replace(garbage, path)

    def test_reload_op_failure_keeps_old_index(self, served_graph,
                                               served_index,
                                               saved_index_path, caplog):
        provider = IndexProvider(served_graph, saved_index_path, mmap=True,
                                 flat_backend=None)
        want = served_index.span_reachable(0, 1, (1, 10))
        with running_server(provider) as (server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                assert client.reload()["ok"]
                generation = server.generation
                self._corrupt(saved_index_path)
                reply = client.reload()
                assert reply["ok"] is False
                assert reply["code"] == INTERNAL
                assert reply["error"].startswith("hot swap failed")
                assert server.generation == generation
                got = client.span(0, 1, 1, 10)
                assert got["ok"] and got["answer"] == want
        assert _asyncio_logs(caplog) == []

    def test_signalled_swap_failure_keeps_old_index(self, served_graph,
                                                    served_index,
                                                    saved_index_path,
                                                    caplog, capsys):
        provider = IndexProvider(served_graph, saved_index_path, mmap=True,
                                 flat_backend=None)
        want = served_index.span_reachable(0, 1, (1, 10))
        with running_server(provider) as (server, socket_path):
            generation = server.generation
            self._corrupt(saved_index_path)
            # What the SIGHUP handler does, on the server's loop.
            server._loop.call_soon_threadsafe(server.request_hot_swap)
            err = []
            _wait_for(lambda: err.append(capsys.readouterr().err)
                      or "hot swap failed" in "".join(err))
            assert server.generation == generation
            with ServeClient(socket_path=socket_path) as client:
                got = client.span(0, 1, 1, 10)
                assert got["ok"] and got["answer"] == want
        logged = "".join(err)
        assert logged.count("hot swap failed") == 1
        assert f"keeping generation {generation}" in logged
        gc.collect()  # an unretrieved task exception logs on collection
        assert _asyncio_logs(caplog) == []


# ----------------------------------------------------------------------
# engine thread-safety (the coalescer's contract)
# ----------------------------------------------------------------------


class TestThreadSafety:
    def test_threaded_hammer_keeps_answers_and_stats_consistent(self):
        g = random_graph(11, num_vertices=10, num_edges=50)
        engine = QueryEngine(TILLIndex.build(g), thread_safe=True)
        pairs = [(u, v) for u in range(10) for v in range(10)]
        windows = [(1, 10), (2, 8), (3, 7)]
        expected = {w: engine.span_many(pairs, w) for w in windows}
        engine.reset_stats()
        threads, rounds = 8, 12
        mismatches = []
        barrier = threading.Barrier(threads)

        def hammer(seed):
            barrier.wait()
            for i in range(rounds):
                window = windows[(seed + i) % len(windows)]
                if engine.span_many(pairs, window) != expected[window]:
                    mismatches.append((seed, i, window))

        workers = [threading.Thread(target=hammer, args=(t,))
                   for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
        assert not mismatches
        stats = engine.stats()
        total = threads * rounds * len(pairs)
        assert stats.queries == total
        assert stats.batches == threads * rounds
        # every query is either answered or a cache hit -- none lost
        assert stats.cache_hits + stats.cache_misses == total

    def test_cache_hammer_with_concurrent_generation_bumps(self):
        from repro.serve import GenerationalLRUCache

        cache = GenerationalLRUCache(capacity=64, thread_safe=True)
        errors = []

        def worker(seed):
            try:
                for i in range(2000):
                    key = (seed, i % 100)
                    cache.put(key, bool(i % 2))
                    cache.get(key)
                    cache.get((seed, (i + 50) % 100))
                    if i % 500 == 499:
                        cache.bump_generation()
            except Exception as exc:
                errors.append(exc)

        workers = [threading.Thread(target=worker, args=(t,))
                   for t in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
        assert not errors
        assert len(cache) <= 64
        assert cache.hits + cache.misses > 0

    def test_unsafe_engine_has_no_lock(self):
        g = random_graph(12, num_vertices=6, num_edges=20)
        engine = QueryEngine(TILLIndex.build(g))
        assert engine._lock is None  # default pays zero locking cost
        safe = QueryEngine(engine.index, thread_safe=True)
        assert safe._lock is not None


# ----------------------------------------------------------------------
# strict --mmap format check
# ----------------------------------------------------------------------


class TestStrictMmap:
    @pytest.fixture()
    def format2_path(self, served_graph, served_index, tmp_path):
        path = str(tmp_path / "legacy.till")
        served_index.save(path, format=2)
        return path

    def test_require_mmap_rejects_format2(self, served_graph, format2_path):
        with pytest.raises(IndexFormatError) as info:
            TILLIndex.load(format2_path, served_graph, mmap=True,
                           require_mmap=True)
        message = str(info.value)
        assert "format-3" in message and "repro build" in message

    def test_plain_mmap_still_falls_back(self, served_graph, format2_path):
        index = TILLIndex.load(format2_path, served_graph, mmap=True)
        assert index.span_reachable(0, 1, (1, 10)) in (True, False)

    def test_cli_query_mmap_rejects_format2(self, format2_path, capsys,
                                            monkeypatch):
        from repro.cli import main

        monkeypatch.setattr(
            "repro.cli._load_source",
            lambda source, directed=True: random_graph(
                3, num_vertices=10, num_edges=45
            ),
        )
        code = main(["query", "chess", "0", "1", "1", "10",
                     "--index", format2_path, "--mmap"])
        assert code == 2
        err = capsys.readouterr().err
        assert "format-3" in err and "--format 3" in err

    def test_cli_serve_mmap_rejects_format2(self, format2_path, capsys,
                                            monkeypatch):
        from repro.cli import main

        monkeypatch.setattr(
            "repro.cli._load_source",
            lambda source, directed=True: random_graph(
                3, num_vertices=10, num_edges=45
            ),
        )
        code = main(["serve", "chess", "--index", format2_path, "--mmap",
                     "--socket", format2_path + ".sock"])
        assert code == 2
        assert "format-3" in capsys.readouterr().err
        # rejected before the socket was ever bound
        assert not os.path.exists(format2_path + ".sock")
