"""Wire protocol of the scheduling service.

Newline-delimited JSON over a TCP or Unix-domain stream, one object per
line, UTF-8.  Chosen over a binary framing because every tool in the repo
already speaks the :mod:`repro.core.wire` JSON forms, a human can drive the
daemon with ``nc``, and framing by ``\\n`` needs no length prefix — a frame
size limit on the stream reader bounds memory instead.

Request frame::

    {"id": 7, "op": "schedule", "params": {...}, "deadline_ms": 250.0}

``id`` is an opaque int/string echoed back (clients correlate pipelined
responses by it; ``null``/absent is allowed for strictly serial clients).
``deadline_ms`` is a relative deadline; the server converts it to an
absolute deadline at admission and refuses to *start* (or to *return*) work
past it with :data:`DEADLINE` — the service-level analogue of the suite
runner's per-call ``--timeout`` (PR 3): overruns are reported, never
silently served late.

Ops: ``schedule``, ``classify``, ``simulate``, ``batch`` (queued, batched,
deadline-checked) and ``health``, ``stats``, ``metrics``, ``control``
(answered inline, never queued, so they stay responsive under overload).
``stats`` accepts ``{"full": true}`` to also return the complete
metrics-registry snapshot, which is how the router merges worker
registries exactly.  The campaign verbs ``campaign.register``,
``campaign.lease``, ``campaign.heartbeat``, ``campaign.result`` and
``campaign.status`` (:data:`CAMPAIGN_OPS`) use the same framing.

Every tier serves ``health``, ``stats`` and ``metrics``.  :data:`VERB_TIERS`
names the tier that serves each other op: the queued ops a scheduling
daemon (``repro serve``; the sharded router forwards them to its
daemons), ``control`` the sharded router (rolling shard restarts), the
campaign verbs a campaign coordinator (``repro campaign run``).  Each tier
answers a known op it does not serve with a 400 naming the tier that does
(:mod:`repro.service.endpoint`).

Frames may carry a W3C-style ``traceparent`` string
(``00-<32 hex>-<16 hex>-<2 hex>``, see :mod:`repro.obs.telemetry`); the
server adopts it as the parent trace context for every span the request
produces, which is what stitches client, admission, batch and compile
spans into one trace id across the process boundary.  Malformed values
are dropped at decode rather than rejected — tracing is advisory and must
never fail a request.

Response frame::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": {"code": 503, "status": "shed",
                                     "message": "admission queue full"}}

Error codes follow HTTP where an analogue exists, so operators can reuse
their intuition: 400 invalid request, 413 frame too large, 500 internal,
503 shed/draining, 504 deadline exceeded.

The op result builders (:func:`schedule_result`, :func:`classify_result`,
:func:`simulate_result`) are shared with the CLI's ``schedule --json`` /
``submit --json`` output, which is what makes "byte-identical through the
service" a one-line assertion; :func:`metrics_result` builds every tier's
``metrics`` payload.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from ..core import wire
from ..core.metrics import anchor_out_degree, granularity, node_weight_range
from ..obs.prom import to_prometheus
from ..obs.telemetry import TRACEPARENT_KEY, parse_traceparent
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph

__all__ = [
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "QUEUED_OPS",
    "INLINE_OPS",
    "CAMPAIGN_OPS",
    "VERB_TIERS",
    "INVALID",
    "TOO_LARGE",
    "INTERNAL",
    "SHED",
    "DEADLINE",
    "UNAVAILABLE",
    "ProtocolError",
    "Request",
    "decode_request",
    "encode_request",
    "ok_response",
    "error_response",
    "encode_response",
    "decode_response",
    "schedule_result",
    "classify_result",
    "metrics_result",
    "simulate_result",
]

#: Default TCP port of ``repro serve`` (unassigned range, "RS" = 0x7253).
DEFAULT_PORT = 29267

#: Default per-frame byte limit (request and response lines).
MAX_FRAME_BYTES = 1 << 20

#: Ops that go through admission control, batching and deadlines.
QUEUED_OPS = frozenset({"schedule", "classify", "simulate", "batch"})

#: Ops answered directly on the connection handler, never queued.
INLINE_OPS = frozenset({"health", "stats", "metrics", "control"})

#: Campaign-coordinator verbs.
CAMPAIGN_OPS = frozenset(
    {
        "campaign.register",
        "campaign.lease",
        "campaign.heartbeat",
        "campaign.result",
        "campaign.status",
    }
)

#: The tier that serves each op not every tier serves, as the 400 from a
#: tier that does not serve it names it: ``"<op> requires <tier>"``.
VERB_TIERS = {
    **dict.fromkeys(QUEUED_OPS, "a scheduling daemon (`repro serve`)"),
    "control": "the sharded router (`repro serve --workers N`)",
    **dict.fromkeys(CAMPAIGN_OPS, "a campaign coordinator (`repro campaign run`)"),
}

# Error codes (HTTP-flavoured).
INVALID = 400
TOO_LARGE = 413
INTERNAL = 500
SHED = 503
DEADLINE = 504
#: Client-side only: could not reach the daemon at all.
UNAVAILABLE = 0

_STATUS = {
    INVALID: "invalid",
    TOO_LARGE: "too-large",
    INTERNAL: "internal",
    SHED: "shed",
    DEADLINE: "deadline",
    UNAVAILABLE: "unavailable",
}


class ProtocolError(Exception):
    """A malformed or rejected frame; carries the response error code."""

    def __init__(self, message: str, *, code: int = INVALID) -> None:
        super().__init__(message)
        self.code = code
        self.status = _STATUS.get(code, "error")


@dataclass
class Request:
    """A decoded request frame."""

    id: int | str | None
    op: str
    params: dict
    deadline_ms: float | None = None
    #: Validated ``traceparent`` header carried by the frame (or ``None``).
    traceparent: str | None = None


def decode_request(line: bytes | str) -> Request:
    """Parse one request line; raises :class:`ProtocolError` (code 400) on
    anything malformed — bad JSON, wrong shapes, unknown op."""
    try:
        obj = wire.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("request frame must be a JSON object")
    req_id = obj.get("id")
    if req_id is not None and not isinstance(req_id, (int, str)):
        raise ProtocolError("id must be an int, string or null")
    op = obj.get("op")
    if op not in QUEUED_OPS and op not in INLINE_OPS and op not in CAMPAIGN_OPS:
        known = ", ".join(sorted(QUEUED_OPS | INLINE_OPS | CAMPAIGN_OPS))
        raise ProtocolError(f"unknown op {op!r}; known: {known}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("params must be a JSON object")
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or isinstance(deadline_ms, bool):
            raise ProtocolError("deadline_ms must be a number")
        if deadline_ms <= 0:
            raise ProtocolError("deadline_ms must be > 0")
    # Tracing is advisory: a malformed traceparent is dropped, not a 400.
    traceparent = obj.get(TRACEPARENT_KEY)
    ctx = parse_traceparent(traceparent) if isinstance(traceparent, str) else None
    return Request(
        id=req_id,
        op=op,
        params=params,
        deadline_ms=deadline_ms,
        traceparent=ctx.to_traceparent() if ctx is not None else None,
    )


def encode_request(
    op: str,
    params: Mapping[str, Any] | None = None,
    *,
    id: int | str | None = None,
    deadline_ms: float | None = None,
    traceparent: str | None = None,
) -> bytes:
    """One request frame, newline-terminated."""
    obj: dict[str, Any] = {"id": id, "op": op, "params": dict(params or {})}
    if deadline_ms is not None:
        obj["deadline_ms"] = deadline_ms
    if traceparent is not None:
        obj[TRACEPARENT_KEY] = traceparent
    return wire.dumps(obj).encode("utf-8") + b"\n"


def ok_response(req_id: int | str | None, result: Any) -> dict:
    """A success response object echoing the request id."""
    return {"id": req_id, "ok": True, "result": result}


def error_response(
    req_id: int | str | None, code: int, message: str, *, status: str | None = None
) -> dict:
    """An error response object; ``status`` defaults from the code table."""
    return {
        "id": req_id,
        "ok": False,
        "error": {
            "code": code,
            "status": status or _STATUS.get(code, "error"),
            "message": message,
        },
    }


def encode_response(obj: Mapping[str, Any]) -> bytes:
    """One response frame, newline-terminated."""
    return wire.dumps(obj).encode("utf-8") + b"\n"


def decode_response(line: bytes | str) -> dict:
    """Parse one response line; raises :class:`ProtocolError` if it is not
    a well-formed response object."""
    try:
        obj = wire.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"bad JSON in response: {exc}") from None
    if not isinstance(obj, dict) or "ok" not in obj:
        raise ProtocolError("response frame must be an object with an 'ok' key")
    return obj


# ----------------------------------------------------------------------
# op result builders (shared by the daemon and the CLI's --json output)
# ----------------------------------------------------------------------


def schedule_result(heuristic: str, graph: TaskGraph, schedule: Schedule) -> dict:
    """The ``schedule`` op's result payload."""
    return {
        "heuristic": heuristic,
        "makespan": schedule.makespan,
        "n_processors": schedule.n_processors,
        "serial_time": graph.serial_time(),
        "schedule": wire.schedule_to_wire(schedule),
    }


def classify_result(graph: TaskGraph) -> dict:
    """The ``classify`` op's result payload (mirrors ``repro classify``)."""
    lo, hi = node_weight_range(graph)
    return {
        "n_tasks": graph.n_tasks,
        "n_edges": graph.n_edges,
        "granularity": granularity(graph),
        "anchor_out_degree": anchor_out_degree(graph),
        "weight_range": [lo, hi],
        "serial_time": graph.serial_time(),
    }


def metrics_result(snapshot: Mapping[str, Any]) -> dict:
    """The ``metrics`` op's result payload: a registry snapshot in
    Prometheus text exposition format (version 0.0.4)."""
    return {
        "content_type": "text/plain; version=0.0.4; charset=utf-8",
        "text": to_prometheus(snapshot),
    }


def simulate_result(graph: TaskGraph, schedule: Schedule) -> dict:
    """The ``simulate`` op's result payload."""
    return {
        "makespan": schedule.makespan,
        "n_processors": schedule.n_processors,
        "serial_time": graph.serial_time(),
        "schedule": wire.schedule_to_wire(schedule),
    }
