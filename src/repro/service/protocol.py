"""Wire protocol of the sweep service: newline-delimited JSON over TCP.

One message per line, UTF-8 JSON objects, ``\\n`` terminated — trivially
debuggable with ``nc`` and language-agnostic on the client side.  The full
frame-by-frame specification (both listeners, size limits, version rules)
lives in ``docs/protocol.md``; this docstring is the summary.

Client → server messages carry an ``op``:

``{"op": "submit", "id": <str>, "workload": <name>, "params": {...}}``
    Run a sweep workload.  ``id`` is a client-chosen request id echoed on
    every event the server emits for this request.  An optional string
    ``trace`` proposes the observability id.  Any other field, or a
    ``trace`` that is not a string, is answered with a ``bad-request``
    error.
``{"op": "cancel", "id": <str>}``
    Abort the in-flight submit with the same ``id`` on this connection.
    The submit terminates with an ``error`` event (``code="cancelled"``);
    the underlying sweep stops at the next job/chunk boundary once its
    *last* subscribed client has cancelled (single-flighted requests keep
    running while anyone is still waiting).  Closing the connection implies
    cancelling every in-flight submit on it.
``{"op": "status", "id": <str>}``
    Engine / cache / journal / in-flight statistics.
``{"op": "ping", "id": <str>}``
    Liveness probe.
``{"op": "watch", "id": <str>}``
    Subscribe to the live :mod:`repro.obs` event stream (protocol v3).
    Answered with ``watching`` and then one ``obs`` event per
    observability event — submits, cache hits/misses/evictions, chunk
    dispatch/done, cancellations, journal replays — until the
    client cancels the id, disconnects, or the server stops.  A slow
    watcher drops its oldest frames rather than stalling the server.

Server → client messages carry an ``event`` and the originating ``id``:

``accepted``   — submit validated; ``key`` is the request fingerprint,
                 ``deduplicated`` tells whether the request piggybacks on
                 an identical in-flight sweep (single-flight), and
                 ``trace`` is the server-minted observability id that
                 every metric sample and ``obs`` event of this sweep
                 carries across all tiers (see :mod:`repro.obs`).
``progress``   — one engine progress tick: ``done`` / ``total`` / ``label``.
``result``     — terminal success; ``payload`` is the workload's return
                 value, ``elapsed_seconds`` the server-side wall time.
``error``      — terminal failure (or protocol-level complaint when ``id``
                 is null).  Carries a stable ``code``:

                 * ``bad-request`` — the request itself was invalid
                   (unknown workload, malformed fields, cancel of an
                   unknown id);
                 * ``busy``       — rejected by per-client backpressure
                   (in-flight cap or queued-bytes cap);
                 * ``cancelled``  — the sweep was cancelled (by this
                   client, the last subscriber, or server shutdown);
                 * ``failed``     — the workload raised or its result
                   could not be serialised.

``watching``   — watch subscription acknowledged; ``obs`` events follow.
``obs``        — one observability event: ``data`` is the event dict
                 (``seq`` / ``ts`` / ``type`` / optional ``trace`` plus
                 type-specific fields; see :data:`repro.obs.EVENT_TYPES`).
``pong`` / ``status`` — replies to the matching ops.

The protocol is intentionally schema-light: :func:`read_message` enforces
only framing (line length, valid JSON, top-level object); per-op field
validation lives with the server, which answers violations with ``error``
events instead of dropping the connection.

The framing itself (``encode_message`` / ``decode_message`` /
``read_message``, the line-length guard and :class:`ProtocolError`) lives in
:mod:`repro.wire` and is shared with the cluster protocol
(:mod:`repro.cluster.protocol`); this module re-exports it so existing
imports keep working and adds the service's message constructors.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

# Shared NDJSON framing, re-exported for backwards compatibility.
from repro.wire import (  # noqa: F401  (re-exports)
    MAX_BINARY_BYTES,
    MAX_MESSAGE_BYTES,
    PAYLOAD_KEY,
    ProtocolError,
    decode_message,
    encode_binary,
    encode_message,
    open_connection,
    read_message,
)

#: Bumped on incompatible wire changes; the server reports it in ``status``.
#: Version 2 added the ``cancel`` op, the ``busy`` backpressure rejection
#: and the stable ``code`` field on ``error`` events.  Version 3 added the
#: ``watch`` op (``watching`` ack + ``obs`` event stream) and the ``trace``
#: observability id on ``accepted`` events and ``submit`` requests.
#: Version 4 added an optional scheduling-tag field on ``submit``.
#: Version 5 added binary ``result`` frames for large payloads: the event
#: header declares ``{"binary": N}`` and the JSON-encoded payload follows
#: as N raw bytes with its own :data:`repro.wire.MAX_BINARY_BYTES` bound
#: (the cluster protocol jumped 3 -> 5 in the same release so both tiers
#: advertise one version for the shared binary-frame substrate).
#: Version 6 removes the scheduling tag: a ``submit`` carries exactly the
#: fields in :data:`SUBMIT_FIELDS`, and any other is a ``bad-request``.
PROTOCOL_VERSION = 6

#: Stable machine-readable failure classes carried by ``error`` events.
ERROR_CODES = ("bad-request", "busy", "cancelled", "failed")

#: Every client -> server ``op`` the service understands.  These tuples
#: are the protocol's *vocabulary*: ``docs/protocol.md`` documents each
#: member (pinned by ``tests/test_docs.py``) and the ``REPRO-PROTO01``
#: lint rule pins every frame-type literal in the codebase against them,
#: so an op can only be added here, in the docs, and in the code together.
SERVICE_OPS = ("submit", "cancel", "status", "ping", "watch")

#: Every field a ``submit`` message may carry.
SUBMIT_FIELDS = ("op", "id", "workload", "params", "trace")

#: Every server -> client ``event`` the service emits.
SERVICE_EVENTS = (
    "accepted",
    "progress",
    "result",
    "error",
    "watching",
    "obs",
    "pong",
    "status",
)


# ----------------------------------------------------------------------
# Message constructors (shared by server and client so field names can
# never drift apart)
# ----------------------------------------------------------------------
def submit_request(
    request_id: str,
    workload: str,
    params: Optional[Dict[str, Any]] = None,
    trace: Optional[str] = None,
) -> Dict[str, Any]:
    """Submit a workload.  ``trace`` (optional, v3) proposes a client-side
    observability id; the server echoes it on ``accepted`` when the request
    starts a fresh flight, or answers with the first submitter's id when
    the request deduplicates onto an in-flight sweep."""
    message = {
        "op": "submit",
        "id": request_id,
        "workload": workload,
        "params": dict(params or {}),
    }
    if trace is not None:
        message["trace"] = trace
    return message


def cancel_request(request_id: str) -> Dict[str, Any]:
    """Abort the in-flight submit with this ``id`` on this connection."""
    return {"op": "cancel", "id": request_id}


def status_request(request_id: str) -> Dict[str, Any]:
    return {"op": "status", "id": request_id}


def ping_request(request_id: str) -> Dict[str, Any]:
    return {"op": "ping", "id": request_id}


def accepted_event(
    request_id: str, key: str, deduplicated: bool, trace: str = ""
) -> Dict[str, Any]:
    return {
        "event": "accepted",
        "id": request_id,
        "key": key,
        "deduplicated": deduplicated,
        "trace": trace,
    }


def watch_request(request_id: str) -> Dict[str, Any]:
    """Subscribe to the service's live observability event stream (v3)."""
    return {"op": "watch", "id": request_id}


def watching_event(request_id: str) -> Dict[str, Any]:
    return {"event": "watching", "id": request_id}


def obs_event(request_id: str, data: Dict[str, Any]) -> Dict[str, Any]:
    """One streamed observability event (see :data:`repro.obs.EVENT_TYPES`)."""
    return {"event": "obs", "id": request_id, "data": data}


def progress_event(request_id: str, done: int, total: int, label: str) -> Dict[str, Any]:
    return {"event": "progress", "id": request_id, "done": done, "total": total, "label": label}


def result_event(request_id: str, payload: Any, elapsed_seconds: float) -> Dict[str, Any]:
    return {
        "event": "result",
        "id": request_id,
        "payload": payload,
        "elapsed_seconds": elapsed_seconds,
    }


#: Results whose JSON encoding exceeds this leave the JSON line for a
#: binary frame (v5): header + raw payload bytes, bounded by
#: :data:`repro.wire.MAX_BINARY_BYTES` instead of the line limit.
RESULT_BINARY_BYTES = 256 * 1024


def result_header(request_id: str, elapsed_seconds: float) -> Dict[str, Any]:
    """Header of a binary ``result`` frame (v5): no inline ``payload`` —
    the JSON-encoded payload follows the line as declared raw bytes."""
    return {
        "event": "result",
        "id": request_id,
        "elapsed_seconds": elapsed_seconds,
    }


def error_event(
    request_id: Optional[str], message: str, code: str = "failed"
) -> Dict[str, Any]:
    """Terminal failure for one request (``code`` from :data:`ERROR_CODES`)."""
    return {"event": "error", "id": request_id, "error": message, "code": code}


def busy_event(request_id: Optional[str], message: str) -> Dict[str, Any]:
    """Backpressure rejection: the per-client budget is exhausted."""
    return error_event(request_id, message, code="busy")
