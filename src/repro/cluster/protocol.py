"""Wire protocol of the distributed executor: coordinator <-> workers.

Messages ride the shared newline-delimited-JSON framing of
:mod:`repro.wire` (one JSON object per line, 8 MB frame guard) over plain
TCP, the same substrate the sweep service speaks.  Two kinds of peers talk
to a :class:`~repro.cluster.coordinator.Coordinator`:

**Workers** (``python -m repro worker --connect HOST:PORT``):

``{"op": "hello", "name": ..., "pid": ..., "slots": N,
   "protocol": 1, "code_version": ...}``
    Registration.  The coordinator answers ``welcome`` (assigning the
    worker id and the heartbeat interval) or ``error`` (protocol or code
    version mismatch — a worker running different code must never compute
    shards, the results would not be bit-identical — or a ``slots`` that
    is not an integer >= 1, or a ``pid`` that is not an integer >= 0).
``{"op": "heartbeat", "worker": <id>}``
    Periodic liveness beacon; a worker silent for longer than the
    coordinator's heartbeat timeout is declared dead and its chunks are
    reassigned.
``{"op": "chunk_done", "chunk": <id>, "count": N, "values": <skeleton>,
   "arrays": [...], "binary": B, ["trace": <id>]}``
    One finished chunk, as one :mod:`repro.wire` binary frame: the
    result list is packed by :func:`repro.wire.pack_values` — ``values``
    is its JSON skeleton, ``arrays`` the dtype/shape specs of the ``B``
    raw payload bytes that follow the header line — and ``count`` is its
    length.  After a granted ``split`` this is a **partial-completion
    ack**: ``count`` equals the ``kept`` value of the preceding
    ``split_ack`` and the results cover only the kept prefix of the
    chunk's jobs.  ``trace`` echoes the optional observability id the
    chunk was dispatched with.
``{"op": "split_ack", "chunk": <id>, "kept": K}``
    Answer to a coordinator ``split`` event (protocol v3).  ``K`` is the
    number of leading jobs the worker keeps (already started jobs can
    never be handed back, so ``K >= jobs started``); the coordinator
    reassigns the chunk's unstarted tail.  ``kept: null`` declines the
    split — the chunk already finished or was never held.
``{"op": "chunk_failed", "chunk": <id>, "type": <name>, "message": <text>}``
    A job *raised* on the worker (distinct from the worker dying), or the
    chunk's results cannot cross the wire (an unsupported type, or a
    payload over :data:`repro.wire.MAX_BINARY_BYTES`).  The coordinator
    fails the whole sweep: a built-in exception type is re-raised by
    name, anything else as ``RuntimeError("Type: message")``.

**Control clients** (``python -m repro cluster status``):

``{"op": "status", "id": ...}``
    Answered with a ``status`` event: workers, queue depths, dispatch /
    steal / retry counters.
``{"op": "ping", "id": ...}``
    Answered with ``pong``.
``{"op": "watch", "id": ...}``
    Answered with ``{"event": "watching", "id": ...}`` and then a live
    stream of ``{"event": "obs", "id": ..., "data": {...}}`` frames, one
    per :mod:`repro.obs` event (``python -m repro cluster status
    --watch`` drives its table from this stream).  The stream ends when
    the client disconnects or the coordinator shuts down.

Coordinator -> worker events:

``welcome``   — registration accepted; carries ``worker`` (assigned id) and
                ``heartbeat_seconds``.
``chunk``     — one chunk of jobs to run: ``chunk`` (id) plus ``jobs``
                (:func:`pack_jobs` blob), plus an optional ``trace``
                observability id (absent when the run has none — old
                workers simply never see the field, so v3 stays
                wire-compatible).
``split``     — give back the unstarted tail of one in-flight chunk
                (``chunk`` id, ``keep`` floor): the adaptive scheduler
                detected a straggler and wants to reassign the tail to an
                idle worker.  Always answered with ``split_ack``; the
                worker then finishes only the kept prefix and reports it
                via a partial ``chunk_done``.
``cancel``    — drop one in-flight chunk (``chunk`` id): its run was
                cancelled.  The worker stops at the next job boundary and
                reports nothing; a result that still arrives is counted as
                a harmless duplicate and discarded.
``shutdown``  — drain and exit; also implied by end-of-stream.

Job chunks cross the wire as base64-wrapped pickles inside the JSON
frame, which lets arbitrary job arguments — technology cards, multiplier
objects, NumPy seeds — travel to the workers.  Pickle implies *trusted
peers only* on the worker side: the coordinator binds loopback by
default, and deployments that spread workers across hosts are expected
to run inside one trust domain (the same stance ``multiprocessing``
takes).  The coordinator itself never unpickles a worker's bytes:
results and errors come back pickle-free.  Cache codecs (``encode`` /
``decode``) are stripped before pickling: artifact caching is resolved
coordinator-side (see :class:`repro.runtime.SweepEngine`), so workers
only ever see cache misses and lambda codecs never break job transport.
"""

from __future__ import annotations

import base64
import builtins
import dataclasses
import pickle
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import wire
from repro.runtime.jobs import Job

#: Bumped on incompatible cluster-wire changes; checked during ``hello``.
#: Version 2 added the ``cancel`` event (coordinator -> worker chunk
#: revocation for cancelled runs).  Version 3 added the adaptive-scheduler
#: frames: the ``split`` event, the ``split_ack`` / partial ``chunk_done``
#: acks, and the ``count`` field on ``chunk_done``.  Version 5 added binary
#: ``chunk_done`` completions for all-array results.  Version 6 makes every
#: ``chunk_done`` one pickle-free binary frame (:func:`repro.wire.pack_values`)
#: and ``chunk_failed`` a typed ``{type, message}`` error.
CLUSTER_PROTOCOL_VERSION = 6

#: Worker -> coordinator ``op`` vocabulary.  Like the service tuples in
#: :mod:`repro.service.protocol`, these are pinned three ways: documented
#: frame-by-frame in ``docs/protocol.md`` (checked by
#: ``tests/test_docs.py``) and enforced at every send/match site by the
#: ``REPRO-PROTO01`` lint rule — a frame type not listed here cannot ship.
WORKER_OPS = ("hello", "heartbeat", "chunk_done", "split_ack", "chunk_failed")

#: Control-client -> coordinator ``op`` vocabulary (``cluster status``).
CONTROL_OPS = ("status", "ping", "watch")

#: Coordinator -> peer ``event`` vocabulary (workers and control clients).
COORDINATOR_EVENTS = (
    "welcome",
    "chunk",
    "split",
    "cancel",
    "shutdown",
    "error",
    "status",
    "pong",
    "watching",
    "obs",
)


# ----------------------------------------------------------------------
# Job transport (the one pickle on the wire: coordinator -> worker)
# ----------------------------------------------------------------------
def pack_jobs(jobs: Sequence[Job]) -> str:
    """Serialise a chunk of jobs for the wire.

    Cache codecs are stripped (workers never touch the artifact cache), so
    jobs whose ``encode`` / ``decode`` are closures or lambdas — legal for
    every in-process executor — remain transportable.  ``fn`` itself must
    be a module-level callable, the same constraint the process-pool
    executor imposes.
    """
    stripped = [dataclasses.replace(job, key=None, encode=None, decode=None) for job in jobs]
    blob = pickle.dumps(stripped, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(blob).decode("ascii")


def unpack_jobs(blob: str) -> List[Job]:
    """Deserialise a :func:`pack_jobs` chunk."""
    return list(pickle.loads(base64.b64decode(blob.encode("ascii"))))


# ----------------------------------------------------------------------
# Message constructors (shared by coordinator and worker so field names
# can never drift apart)
# ----------------------------------------------------------------------
def hello_request(name: str, pid: int, slots: int, code_version: str) -> Dict[str, Any]:
    return {
        "op": "hello",
        "name": name,
        "pid": pid,
        "slots": slots,
        "protocol": CLUSTER_PROTOCOL_VERSION,
        "code_version": code_version,
    }


def welcome_event(worker_id: str, heartbeat_seconds: float) -> Dict[str, Any]:
    return {"event": "welcome", "worker": worker_id, "heartbeat_seconds": heartbeat_seconds}


def heartbeat_request(worker_id: str) -> Dict[str, Any]:
    return {"op": "heartbeat", "worker": worker_id}


def chunk_event(
    chunk_id: str, jobs: Sequence[Job], trace: Optional[str] = None
) -> Dict[str, Any]:
    """One chunk of work.  ``trace`` (optional, protocol v3 stays
    wire-compatible: absent on the wire when ``None``) is the originating
    request's observability id; workers echo it on ``chunk_done`` so a
    completion stays attributable across tiers."""
    message = {"event": "chunk", "chunk": chunk_id, "jobs": pack_jobs(jobs)}
    if trace is not None:
        message["trace"] = trace
    return message


def chunk_done_frame(
    chunk_id: str, results: Sequence[Any], trace: Optional[str] = None
) -> Tuple[Dict[str, Any], bytes]:
    """Header and payload of one completion (send with :func:`repro.wire.encode_binary`).

    ``count`` < the dispatched job count after a split.  ``trace`` echoes
    the optional trace id of the ``chunk`` event that dispatched this
    work (omitted from the frame when ``None``).  Raises
    :class:`repro.wire.ProtocolError` for a result the value codec cannot
    carry.
    """
    skeleton, specs, payload = wire.pack_values(list(results))
    message: Dict[str, Any] = {
        "op": "chunk_done",
        "chunk": chunk_id,
        "count": len(results),
        "values": skeleton,
        "arrays": specs,
    }
    if trace is not None:
        message["trace"] = trace
    return message, payload


def chunk_done_results(message: Dict[str, Any]) -> List[Any]:
    """Decode a received ``chunk_done`` frame back into its result list.

    Raises :class:`repro.wire.ProtocolError` when the frame carries no
    payload, the codec rejects it, or it disagrees with its ``count``.
    """
    payload = message.get(wire.PAYLOAD_KEY)
    if not isinstance(payload, bytes):
        raise wire.ProtocolError("chunk_done without a binary payload")
    results = wire.unpack_values(message.get("values"), message.get("arrays"), payload)
    if type(results) is not list or message.get("count") != len(results):
        raise wire.ProtocolError(
            f"chunk_done declared count={message.get('count')!r} but carried "
            f"{len(results) if type(results) is list else 'no'} results"
        )
    return results


def split_event(chunk_id: str, keep: int) -> Dict[str, Any]:
    """Ask a worker to hand back the unstarted tail of an in-flight chunk.

    ``keep`` is the floor on how many leading jobs the worker keeps; the
    scheduler's straggler split passes ``keep=0`` ("keep only what you
    already started").
    """
    return {"event": "split", "chunk": chunk_id, "keep": int(keep)}


def split_ack_request(chunk_id: str, kept: Optional[int]) -> Dict[str, Any]:
    """Worker's answer to ``split``: ``kept`` jobs retained, or ``None``
    when the split is declined (chunk finished or unknown)."""
    return {"op": "split_ack", "chunk": chunk_id, "kept": kept}


def chunk_failed_request(chunk_id: str, error: BaseException) -> Dict[str, Any]:
    return {
        "op": "chunk_failed",
        "chunk": chunk_id,
        "type": type(error).__name__,
        "message": str(error),
    }


def chunk_failed_error(message: Dict[str, Any]) -> Exception:
    """The exception a ``chunk_failed`` frame re-raises at the call site.

    Built-in exception types come back by name; anything else (or a type
    that cannot be built from one message) as ``RuntimeError("Type:
    message")``.  Nothing is unpickled.

    >>> chunk_failed_error(chunk_failed_request("c1", ValueError("bad seed")))
    ValueError('bad seed')
    >>> chunk_failed_error({"type": "ClusterError", "message": "lost"})
    RuntimeError('ClusterError: lost')
    """
    name, text = str(message.get("type")), str(message.get("message"))
    cls = getattr(builtins, name, None)
    # asyncio futures refuse StopIteration-family exceptions.
    if (
        isinstance(cls, type)
        and issubclass(cls, Exception)
        and not issubclass(cls, (StopIteration, StopAsyncIteration))
    ):
        try:
            return cls(text)
        except TypeError:  # e.g. UnicodeDecodeError takes five arguments
            pass
    return RuntimeError(f"{name}: {text}")


def cancel_event(chunk_id: str) -> Dict[str, Any]:
    return {"event": "cancel", "chunk": chunk_id}


def shutdown_event() -> Dict[str, Any]:
    return {"event": "shutdown"}


def error_event(message: str) -> Dict[str, Any]:
    return {"event": "error", "error": message}
