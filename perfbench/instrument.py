"""Outside-in tracing: wrap the public functions of each layer.

Nothing under ``src/`` is edited.  :func:`install` replaces public
functions and methods of the ``repro`` modules with timing wrappers
for the life of one process (a forked server worker inherits them)
and :func:`uninstall` restores the originals.  Spans stay in memory in
a :class:`Recorder` and are written out once, when the run ends.

The wire layers carry no request id below ``parse_request``, so the
wrappers link spans to requests themselves: the id parsed last is the
request being admitted and submitted (the server handles one line at a
time on its event loop), and the pair tuple handed to
``MicroBatcher.submit`` is the same object the engine receives in its
batch, which links each request to the engine call that answered it.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from typing import Any, Dict, List, Optional

now = time.perf_counter

class Recorder:
    """Spans of one process: ``[name, start, end, sid, parent, attrs]``."""

    def __init__(self):
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        #: Id of the request whose line was parsed last (event loop).
        self.current_rid: Any = None
        #: ``id(pair) -> (pair, rid, submit_time)`` until the engine call.
        self.submitted: Dict[int, tuple] = {}

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.submitted = {}
            self.current_rid = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple:
        with self._lock:
            self._next += 1
            sid = self._next
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, now()

    def end(self, name: str, token: tuple, attrs: Optional[dict] = None):
        sid, parent, start = token
        finished = now()
        self._stack().pop()
        self.spans.append([name, start, finished, sid, parent, attrs or {}])

    def event(self, name: str, start: float, end: float, **attrs) -> None:
        """A span with no children, recorded after the fact."""
        with self._lock:
            self._next += 1
            sid = self._next
        self.spans.append([name, start, end, sid, None, attrs])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


_installed: List[tuple] = []


def _patch(owner, attr: str, replacement) -> None:
    _installed.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def _timed(recorder: Recorder, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = recorder.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(name, token, attrs(args) if attrs else None)
    return wrapper


def _timed_classmethod(recorder: Recorder, owner, attr: str, name: str):
    fn = owner.__dict__[attr].__func__
    _patch(owner, attr, classmethod(_timed(recorder, name, fn)))


def install(recorder: Recorder, serve: bool = False,
            dump_path: Optional[str] = None) -> None:
    """Wrap every measured layer.  ``serve=True`` adds the wire layers
    and makes ``ReachabilityServer.serve`` reset the recorder when it
    starts and write it to *dump_path* when it stops."""
    from repro.core import flatkernels, queries
    from repro.core.index import TILLIndex
    from repro.datasets import registry
    from repro.serve.engine import QueryEngine

    _patch(registry, "load_dataset",
           _timed(recorder, "graph.load", registry.load_dataset))
    _timed_classmethod(recorder, TILLIndex, "build", "construction.build")
    _timed_classmethod(recorder, TILLIndex, "load", "serialization.open")
    _patch(TILLIndex, "compact",
           _timed(recorder, "flatstore.compact", TILLIndex.compact))
    _patch(TILLIndex, "flatten",
           _timed(recorder, "flatstore.flatten", TILLIndex.flatten))
    _patch(TILLIndex, "save",
           _timed(recorder, "serialization.save", TILLIndex.save))

    def pairs_of(position):
        return lambda args: {"n": len(args[position])}

    for attr in ("span_batch", "theta_batch", "theta_naive_batch"):
        _patch(flatkernels.NumPyFlatKernels, attr, _timed(
            recorder, "kernel",
            getattr(flatkernels.NumPyFlatKernels, attr), pairs_of(1)))
    for attr in ("flat_span_batch", "flat_theta_batch"):
        _patch(queries, attr,
               _timed(recorder, "kernel", getattr(queries, attr),
                      pairs_of(2)))

    def engine_call(op: str, fn):
        @functools.wraps(fn)
        def wrapper(self, pairs, *args, **kwargs):
            token = recorder.begin()
            attrs: Dict[str, Any] = {"op": op}
            submitted = recorder.submitted
            if submitted and isinstance(pairs, list):
                links = [submitted.pop(id(p), None) for p in pairs]
                attrs["rids"] = [x[1] for x in links if x is not None]
                attrs["submits"] = [x[2] for x in links if x is not None]
            try:
                result = fn(self, pairs, *args, **kwargs)
                attrs["n"] = len(result)
                return result
            finally:
                recorder.end("engine", token, attrs)
        return wrapper

    _patch(QueryEngine, "span_many",
           engine_call("span", QueryEngine.span_many))
    _patch(QueryEngine, "theta_many",
           engine_call("theta", QueryEngine.theta_many))
    if serve:
        _install_wire(recorder, dump_path)


def _install_wire(recorder: Recorder, dump_path: Optional[str]) -> None:
    from repro.serve import protocol, server
    from repro.serve.admission import AdmissionController
    from repro.serve.batching import MicroBatcher
    from repro.serve.protocol import QUERY_OPS

    parse = protocol.parse_request

    @functools.wraps(parse)
    def parse_request(line):
        start = now()
        request = parse(line)
        if request.op in QUERY_OPS:
            recorder.current_rid = request.id
            recorder.event("protocol.decode", start, now(), rid=request.id)
        else:
            recorder.current_rid = None
        return request

    try_admit = AdmissionController.try_admit

    @functools.wraps(try_admit)
    def admit(self, tenant):
        start = now()
        code = try_admit(self, tenant)
        recorder.event("admission.admit", start, now(),
                       rid=recorder.current_rid, rejected=code is not None)
        return code

    submit = MicroBatcher.submit

    @functools.wraps(submit)
    def batcher_submit(self, op, pair, *args, **kwargs):
        recorder.submitted[id(pair)] = (pair, recorder.current_rid, now())
        return submit(self, op, pair, *args, **kwargs)

    def encoder(fn):
        @functools.wraps(fn)
        def wrapper(request_id, *args):
            start = now()
            line = fn(request_id, *args)
            recorder.event("protocol.encode", start, now(), rid=request_id)
            return line
        return wrapper

    encoders = {attr: encoder(getattr(protocol, attr))
                for attr in ("encode_answer", "encode_error")}
    for module in (protocol, server):
        _patch(module, "parse_request", parse_request)
        for attr, wrapper in encoders.items():
            _patch(module, attr, wrapper)
    _patch(AdmissionController, "try_admit", admit)
    _patch(MicroBatcher, "submit", batcher_submit)

    serve = server.ReachabilityServer.serve
    if not inspect.iscoroutinefunction(serve):
        raise TypeError("ReachabilityServer.serve is no longer a coroutine")

    @functools.wraps(serve)
    async def serve_wrapper(self, *args, **kwargs):
        recorder.reset()
        try:
            return await serve(self, *args, **kwargs)
        finally:
            if dump_path is not None:
                recorder.dump(dump_path)

    _patch(server.ReachabilityServer, "serve", serve_wrapper)


def uninstall() -> None:
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
