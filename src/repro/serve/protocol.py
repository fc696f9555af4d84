"""The serving tier's wire protocol: newline-delimited JSON.

One request per line, one response line per request, over TCP or a
Unix socket.  The framing is deliberately boring — every language has
a line reader and a JSON parser, a ``netcat`` session is a usable
debugging client, and the server's coalescer can cheaply peel
thousands of pipelined lines off one connection before flushing a
micro-batch.

Request::

    {"op": "span",  "u": 5, "v": 40, "t1": 0, "t2": 900}
    {"op": "theta", "u": 5, "v": 40, "t1": 0, "t2": 900, "theta": 3}
    {"op": "ping"}
    {"op": "stats"}
    {"op": "reload"}

Optional request fields: ``"id"`` (any JSON scalar, echoed verbatim in
the response so pipelined clients can match answers out of order),
``"tenant"`` (a string, used for per-tenant quota accounting; requests
without one share the :data:`DEFAULT_TENANT` bucket) and ``"trace"``
(distributed-tracing context: ``{"id": "...", "span": ...}`` — the
client's trace id plus its parent span reference, carried through
admission, the micro-batcher and the engine so per-worker trace
streams can be reassembled into one end-to-end timeline; see
:mod:`repro.obs.fleet`).

The ``metrics`` control op answers the **fleet-aggregated** metrics
view (every worker's spooled snapshot merged), unlike ``stats`` which
reports the answering worker alone.

Response::

    {"id": ..., "ok": true,  "answer": true}
    {"id": ..., "ok": false, "code": "overloaded", "error": "..."}

``code`` is machine-readable (one of :data:`ERROR_CODES`); ``error``
is the human-readable message.  ``stats``/``ping``/``reload`` replies
carry their payload under ``"result"`` instead of ``"answer"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ReproError

#: Tenant bucket used when a request carries no ``"tenant"`` field.
DEFAULT_TENANT = "default"

#: Machine-readable rejection/failure codes.
BAD_REQUEST = "bad-request"
UNKNOWN_VERTEX = "unknown-vertex"
BAD_WINDOW = "bad-window"
UNSUPPORTED = "unsupported"
OVERLOADED = "overloaded"
QUOTA_EXCEEDED = "quota-exceeded"
SHUTTING_DOWN = "shutting-down"
INTERNAL = "internal"
#: A request line longer than :data:`MAX_FRAME_BYTES`; the server
#: replies once and closes the connection (the rest of the line cannot
#: be told apart from the next request).
FRAME_TOO_LARGE = "frame-too-large"

ERROR_CODES = (
    BAD_REQUEST, UNKNOWN_VERTEX, BAD_WINDOW, UNSUPPORTED,
    OVERLOADED, QUOTA_EXCEEDED, SHUTTING_DOWN, INTERNAL, FRAME_TOO_LARGE,
)

#: Request lines longer than this many bytes are refused with
#: :data:`FRAME_TOO_LARGE` (the server's stream-reader buffer limit).
MAX_FRAME_BYTES = 1 << 16

#: Query operations (coalesced into micro-batches) vs. control
#: operations (answered immediately, never queued behind a batch).
QUERY_OPS = ("span", "theta")
CONTROL_OPS = ("ping", "stats", "reload", "metrics")


class ProtocolError(ReproError):
    """A request line that cannot be served; carries a wire code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class Request:
    """One parsed request line."""

    op: str
    u: Any = None
    v: Any = None
    t1: Optional[int] = None
    t2: Optional[int] = None
    theta: Optional[int] = None
    id: Any = None
    tenant: str = DEFAULT_TENANT
    trace_id: Optional[str] = None
    parent_span: Any = None

    @property
    def window(self):
        return (self.t1, self.t2)


def parse_request(line: bytes) -> Request:
    """Parse one wire line into a validated :class:`Request`.

    Raises :class:`ProtocolError` (code ``bad-request``) on malformed
    JSON, a non-object payload, an unknown ``op``, or missing/mistyped
    fields; the server turns that into a per-request error response
    without dropping the connection.
    """
    try:
        doc = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(BAD_REQUEST, f"request is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ProtocolError(
            BAD_REQUEST, f"request must be a JSON object, got {type(doc).__name__}"
        )
    op = doc.get("op")
    if op not in QUERY_OPS and op not in CONTROL_OPS:
        known = ", ".join(QUERY_OPS + CONTROL_OPS)
        raise ProtocolError(
            BAD_REQUEST, f"unknown op {op!r}; known ops: {known}"
        )
    tenant = doc.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError(
            BAD_REQUEST, "tenant must be a non-empty string"
        )
    request = Request(op=op, id=doc.get("id"), tenant=tenant)
    trace = doc.get("trace")
    if trace is not None:
        if not isinstance(trace, dict) or not isinstance(
            trace.get("id"), str
        ) or not trace["id"]:
            raise ProtocolError(
                BAD_REQUEST,
                "trace must be an object with a non-empty string 'id'",
            )
        request.trace_id = trace["id"]
        request.parent_span = trace.get("span")
    if op in CONTROL_OPS:
        return request
    for field in ("u", "v", "t1", "t2"):
        if field not in doc:
            raise ProtocolError(
                BAD_REQUEST, f"{op} request is missing field {field!r}"
            )
    for field in ("t1", "t2"):
        if not isinstance(doc[field], int) or isinstance(doc[field], bool):
            raise ProtocolError(
                BAD_REQUEST, f"{field} must be an integer timestamp"
            )
    request.u, request.v = doc["u"], doc["v"]
    request.t1, request.t2 = doc["t1"], doc["t2"]
    if op == "theta":
        theta = doc.get("theta")
        if not isinstance(theta, int) or isinstance(theta, bool):
            raise ProtocolError(
                BAD_REQUEST, "theta request needs an integer 'theta' field"
            )
        request.theta = theta
    return request


def encode_answer(request_id: Any, answer: bool) -> bytes:
    return (json.dumps(
        {"id": request_id, "ok": True, "answer": bool(answer)},
        separators=(",", ":"),
    ) + "\n").encode("utf-8")


def encode_result(request_id: Any, result: Dict[str, Any]) -> bytes:
    return (json.dumps(
        {"id": request_id, "ok": True, "result": result},
        separators=(",", ":"), sort_keys=True, default=str,
    ) + "\n").encode("utf-8")


def encode_error(request_id: Any, code: str, message: str) -> bytes:
    return (json.dumps(
        {"id": request_id, "ok": False, "code": code, "error": message},
        separators=(",", ":"),
    ) + "\n").encode("utf-8")


def decode_response(line: bytes) -> Dict[str, Any]:
    """Client-side parse of one response line (raises on non-JSON)."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or "ok" not in doc:
        raise ProtocolError(INTERNAL, f"malformed response line: {line!r}")
    return doc
