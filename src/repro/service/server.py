"""The asyncio sweep service: one engine, one cache, many clients.

:class:`SweepService` is the long-lived front door on top of
:class:`repro.runtime.SweepEngine`.  It accepts newline-delimited-JSON
requests over TCP (:mod:`repro.service.protocol`), runs the requested
workload (:mod:`repro.service.workloads`) on a worker thread via
``loop.run_in_executor`` — the event loop never blocks on a sweep — and
streams per-job progress events back to every client that asked for it
(:mod:`repro.service.progress`).

Two layers of work deduplication compose:

* **single-flight** — identical requests (same workload + params, compared
  by :func:`repro.runtime.fingerprint`) that overlap in time share one
  execution; late joiners subscribe to the same progress stream and
  receive the same result.
* **artifact cache** — the engine's content-addressed cache serves repeat
  (non-overlapping) requests without re-running the solver, exactly as in
  batch mode.

On top of that sits the **resilience layer** (see ``docs/architecture.md``
for the full data flow):

* **cancellation** — a ``cancel`` op (or a client disconnect, which
  implies one) detaches that client from its flight; when the *last*
  subscriber of a flight is gone, the flight's cooperative cancel event
  fires and the engine aborts the sweep at the next job/chunk boundary
  (:class:`repro.runtime.SweepCancelled`), revoking distributed chunks
  through the coordinator.  Single-flighted requests keep running while
  anyone still waits.
* **per-client backpressure** — each connection has an in-flight-submit
  cap and a queued-bytes cap; a request over budget is answered with a
  structured ``busy`` error instead of being queued unboundedly.  Admission happens synchronously in the read loop,
  so a pipelined burst cannot overshoot the limits.
* **job journal** — accepted jobs are recorded in a persistent NDJSON
  journal (:mod:`repro.journal`); :meth:`SweepService.resume` re-enqueues
  the jobs a killed server left interrupted, so their artifacts land in
  the cache and returning clients are served bit-identical results.

Every flight runs against a shallow copy of the shared engine whose
``progress`` callback is that flight's broadcaster and whose
``cancel_event`` is that flight's; executor, cache and the stats counters
are shared, so ``status`` reports fleet-wide totals.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import json
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Set, Tuple

from repro import obs
from repro.journal import JobJournal
from repro.runtime import ArtifactCache, SweepCancelled, SweepEngine, fingerprint
from repro.service import progress as progress_mod
from repro.service import protocol
from repro.service.workloads import WorkloadFn, get_workload, workload_names

#: Sentinel injected into a subscriber queue when its request is cancelled
#: (explicit ``cancel`` op or client disconnect).
_CANCELLED = object()

#: Requests served, labelled by op (unknown ops collapse to ``other`` so
#: client-controlled strings can never explode the label cardinality).
_REQUESTS_TOTAL = obs.counter(
    "repro_service_requests_total", "Service requests served, by op.", labels=("op",)
)
_KNOWN_OPS = ("ping", "status", "submit", "cancel", "watch")

#: Worker threads running blocking sweeps: how many *distinct* sweeps make
#: progress concurrently (identical ones single-flight onto one thread).
SWEEP_THREADS = 4

#: Help strings of the service counters; each backs a registry metric and
#: the per-instance view ``status`` reports (:class:`repro.obs.CounterGroup`).
#: ``status_cluster_errors`` keeps the ``repro_status_`` prefix: it counts
#: failures of the ``status`` op's off-loop cluster gather, not serving.
_COUNTER_METRICS = {
    "busy_rejections": (
        "repro_service_busy_rejections_total",
        "Submits rejected by per-client backpressure.",
    ),
    "jobs_cancelled": (
        "repro_service_jobs_cancelled_total",
        "Flights aborted after their last subscriber left.",
    ),
    "resumed_jobs": (
        "repro_service_resumed_jobs_total",
        "Journal-pending jobs replayed by resume().",
    ),
    "status_cluster_errors": (
        "repro_status_cluster_errors_total",
        "status-op cluster gathers that raised (timeouts included).",
    ),
    "watch_dropped": (
        "repro_service_watch_dropped_total",
        "Events dropped from slow watch subscribers (oldest first).",
    ),
}

#: Registered at import time so the scrape surface (and the naming lint)
#: sees the service counters before any SweepService is constructed.
_COUNTERS = {
    key: obs.counter(name, help_text)
    for key, (name, help_text) in _COUNTER_METRICS.items()
}


def _put_drop_oldest(queue: "asyncio.Queue", item: Any) -> int:
    """Enqueue, evicting the oldest entries on overflow; returns the count
    evicted.  Live streams (watch subscribers, cancel wake-ups) prefer
    losing history to stalling the event loop or raising ``QueueFull``."""
    dropped = 0
    while True:
        try:
            queue.put_nowait(item)
            return dropped
        except asyncio.QueueFull:
            try:
                queue.get_nowait()
                dropped += 1
            except asyncio.QueueEmpty:
                pass


class _PendingRequest:
    """Book-keeping of one admitted submit on one connection."""

    __slots__ = ("queue", "cancelled", "cost")

    def __init__(self, cost: int):
        self.queue: Optional["asyncio.Queue"] = None
        self.cancelled = False
        self.cost = cost

    def cancel(self) -> None:
        self.cancelled = True
        if self.queue is not None:
            # Drop-oldest: a bounded queue (watch streams) must accept the
            # wake-up sentinel even when full.
            _put_drop_oldest(self.queue, _CANCELLED)


async def _send_result(
    connection: "_Connection", request_id: str, payload: Any, elapsed: float
) -> bool:
    """Send the terminal ``result``, spilling large payloads to a binary frame.

    Payloads whose JSON encoding stays under
    :data:`repro.service.protocol.RESULT_BINARY_BYTES` ride inline in the
    event as before (protocol <= v4 clients keep working); larger ones take
    the v5 binary frame — a payload-free header plus the JSON bytes —
    whose bound is :data:`repro.wire.MAX_BINARY_BYTES` rather than the
    8 MB line limit.  ``TypeError`` / ``ValueError`` propagate for payloads
    that cannot be serialised at all; the caller answers with an error
    event.
    """
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(encoded) > protocol.RESULT_BINARY_BYTES:
        return await connection.send_bytes(
            protocol.encode_binary(
                protocol.result_header(request_id, elapsed), encoded
            )
        )
    return await connection.send(protocol.result_event(request_id, payload, elapsed))


class _Connection:
    """One client link with writes serialised behind an asyncio lock."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.closed = False
        self._send_lock = asyncio.Lock()
        # Backpressure state, mutated synchronously on the event loop.
        self.pending: Dict[str, _PendingRequest] = {}
        self.queued_bytes = 0

    async def send(self, message: Dict[str, Any]) -> bool:
        """Write one message; returns ``False`` once the peer is gone."""
        return await self.send_bytes(protocol.encode_message(message))

    async def send_bytes(self, data: bytes) -> bool:
        """Write pre-encoded frame bytes (also binary frames, whose payload
        follows the header line); returns ``False`` once the peer is gone."""
        if self.closed:
            return False
        async with self._send_lock:
            if self.closed:
                return False
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                self.closed = True
                return False
        return True

    async def close(self) -> None:
        self.closed = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclasses.dataclass
class _Flight:
    """One in-flight sweep shared by every identical concurrent request."""

    key: str
    workload: str
    broadcaster: progress_mod.ProgressBroadcaster
    cancel_event: threading.Event
    task: Optional["asyncio.Task"] = None
    subscribers: int = 0
    #: Pinned flights (journal replays) survive losing their subscribers.
    pinned: bool = False
    #: Observability id minted at flight creation (first submitter wins on
    #: dedup); every metric sample and watch event of this sweep carries it.
    trace: str = ""


class SweepService:
    """Serve sweep requests from many concurrent clients over TCP.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.runtime.SweepEngine`; defaults to a
        serial engine with an :class:`~repro.runtime.ArtifactCache` at the
        default location.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`
        after :meth:`start`).
    max_inflight:
        Per-connection cap on concurrently in-flight submits; the cap-th
        + 1 submit is answered ``busy``.  ``None`` disables the cap.
    max_queued_bytes:
        Per-connection cap on the summed wire size of in-flight submit
        requests (a rough proxy for queued work); over-budget submits are
        answered ``busy``.  ``None`` disables the cap.
    journal:
        Optional :class:`repro.journal.JobJournal`.  Accepted jobs are
        recorded ``submitted`` and finished ones ``completed`` /
        ``failed`` / ``cancelled``; :meth:`resume` replays the pending
        remainder after a crash.

    Raises
    ------
    ValueError
        For non-positive limit values.
    """

    def __init__(
        self,
        engine: Optional[SweepEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: Optional[int] = 8,
        max_queued_bytes: Optional[int] = None,
        journal: Optional[JobJournal] = None,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1 (or None to disable)")
        if max_queued_bytes is not None and max_queued_bytes < 1:
            raise ValueError("max_queued_bytes must be positive (or None to disable)")
        self.engine = engine if engine is not None else SweepEngine(cache=ArtifactCache())
        self.max_inflight = max_inflight
        self.max_queued_bytes = max_queued_bytes
        self.journal = journal
        self._host = host
        self._port = port
        self._pool = ThreadPoolExecutor(max_workers=SWEEP_THREADS, thread_name_prefix="sweep")
        self._flights: Dict[str, _Flight] = {}
        self._connections: Set[_Connection] = set()
        self._handler_tasks: Set["asyncio.Task"] = set()
        self._request_tasks: Set["asyncio.Task"] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        # Journal writes (open + fsync per record) must never stall the
        # event loop: they run ordered on a dedicated single-writer thread.
        # The pending count is tracked in memory so `status` does not
        # re-parse the journal file per request.
        self._journal_pool = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="journal")
            if journal is not None
            else None
        )
        self._journal_pending: Set[str] = (
            {entry.key for entry in journal.pending()} if journal is not None else set()
        )
        # Resilience counters, surfaced through `status` *and* mirrored to
        # the process-wide metrics registry: the per-instance view starts
        # at zero, the Prometheus endpoint sees process-lifetime totals.
        self._counters = obs.CounterGroup(_COUNTERS)
        self._watch_entries: Set[_PendingRequest] = set()
        self._cluster_status_error: Optional[str] = None

    # Read-only attribute views kept for tests and callers that predate the
    # registry-backed counters.
    @property
    def busy_rejections(self) -> int:
        return self._counters["busy_rejections"]

    @property
    def jobs_cancelled(self) -> int:
        return self._counters["jobs_cancelled"]

    @property
    def resumed_jobs(self) -> int:
        return self._counters["resumed_jobs"]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound; valid after :meth:`start`."""
        return self._host, self._port

    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket; returns the bound ``(host, port)``."""
        if self._server is not None:
            return self.address
        self._loop = asyncio.get_running_loop()
        if self.journal is not None:
            # One-time startup compaction keeps the append-only file from
            # growing forever across restarts; run off-loop like all
            # journal I/O.
            await self._loop.run_in_executor(self._journal_pool, self.journal.compact)
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=protocol.MAX_MESSAGE_BYTES,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def resume(self) -> int:
        """Re-enqueue journal-pending jobs; returns how many were started.

        Call after :meth:`start`.  Every job the journal records as
        ``submitted`` but not finished — the set a ``SIGKILL`` or power
        loss leaves behind — is re-run as a subscriber-less *pinned*
        flight: its artifacts land in the shared cache (and the journal
        marks it ``completed``), so a returning client that resubmits the
        same request is served warm, bit-identically to an uninterrupted
        run.  Jobs whose workload is no longer registered are marked
        ``failed`` instead of being replayed forever.
        """
        if self.journal is None:
            return 0
        assert self._loop is not None, "call resume() after start()"
        entries = await self._loop.run_in_executor(
            self._journal_pool, self.journal.pending
        )
        started = 0
        for entry in entries:
            try:
                workload_fn = get_workload(entry.workload)
            except KeyError:
                self._journal_finished(entry.key, "failed")
                continue
            # The journal already holds these entries' `submitted` records
            # (that is how they got here), so replays skip re-recording.
            flight, deduplicated = self._get_or_create_flight(
                entry.key,
                entry.workload,
                workload_fn,
                entry.params,
                pinned=True,
                journal_record=False,
            )
            if not deduplicated:
                started += 1
                obs.EVENTS.emit(
                    "journal_replay",
                    trace=flight.trace,
                    key=entry.key,
                    workload=entry.workload,
                )
        self._counters.inc("resumed_jobs", started)
        return started

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled or :meth:`stop`-ped."""
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            if not self._stopping:
                raise

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain flights, close clients.

        In-flight sweeps run to completion (their artifacts land in the
        cache, the journal records them ``completed`` and their waiters
        receive results) — blocking work on a thread cannot be cancelled
        mid-solve anyway.
        """
        self._stopping = True
        # End every live watch stream first: a watcher is a request task
        # that never finishes on its own, and the request-task drain below
        # would otherwise wait on it forever.
        for entry in list(self._watch_entries):
            entry.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._flights:
            await asyncio.gather(
                *(flight.task for flight in list(self._flights.values()) if flight.task),
                return_exceptions=True,
            )
        # Let in-flight request handlers deliver their terminal result /
        # error events before their connections are torn down.
        while self._request_tasks:
            await asyncio.gather(*list(self._request_tasks), return_exceptions=True)
        for connection in list(self._connections):
            await connection.close()
        if self._handler_tasks:
            await asyncio.gather(*list(self._handler_tasks), return_exceptions=True)
        self._pool.shutdown(wait=True)
        if self._journal_pool is not None:
            # Flush the queued journal records before declaring the stop
            # complete (terminal records of the just-drained flights).
            self._journal_pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(reader, writer)
        self._connections.add(connection)
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        requests: Set["asyncio.Task"] = set()
        try:
            while True:
                try:
                    message = await protocol.read_message(reader)
                except protocol.ProtocolError as error:
                    # Framing is broken; the stream cannot be re-synchronised.
                    await connection.send(
                        protocol.error_event(None, str(error), code="bad-request")
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if message is None:
                    break
                # Admission control runs synchronously *here* so a pipelined
                # burst of submits is counted before any of them executes.
                rejection = self._admit(connection, message)
                request = asyncio.create_task(
                    self._dispatch(connection, message, rejection)
                )
                requests.add(request)
                self._request_tasks.add(request)
                request.add_done_callback(requests.discard)
                request.add_done_callback(self._request_tasks.discard)
        finally:
            # Disconnect implies cancel: wake every in-flight submit of this
            # connection so it detaches (and, as last subscriber, aborts the
            # sweep) instead of burning CPU for a client that is gone.
            for entry in list(connection.pending.values()):
                entry.cancel()
            if requests:
                await asyncio.gather(*list(requests), return_exceptions=True)
            self._connections.discard(connection)
            await connection.close()
            if task is not None:
                self._handler_tasks.discard(task)

    # ------------------------------------------------------------------
    # Backpressure admission (synchronous: called from the read loop)
    # ------------------------------------------------------------------
    def _admit(
        self, connection: _Connection, message: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Reserve budget for one submit; returns a rejection event or None.

        Non-submit ops are always admitted.  For submits the method either
        reserves the per-connection budget (registering the request id in
        ``connection.pending``) or returns the ``busy`` / ``bad-request``
        event the dispatcher should answer with.  The reservation is
        released by :meth:`_release`.
        """
        if message.get("op") != "submit":
            return None
        request_id = message.get("id")
        if not isinstance(request_id, str):
            return protocol.error_event(
                None, "submit requires a string id", code="bad-request"
            )
        if request_id in connection.pending:
            return protocol.error_event(
                request_id,
                f"request id {request_id!r} is already in flight on this connection",
                code="bad-request",
            )
        if (
            self.max_inflight is not None
            and len(connection.pending) >= self.max_inflight
        ):
            self._counters.inc("busy_rejections")
            return protocol.busy_event(
                request_id,
                f"too many in-flight requests on this connection "
                f"(limit {self.max_inflight}); wait for one to finish",
            )
        cost = 0
        if self.max_queued_bytes is not None:
            try:
                cost = len(protocol.encode_message(message))
            except protocol.ProtocolError:
                # The inbound frame fit under the limit but re-encoding
                # does not (ensure_ascii expands non-ASCII text): it could
                # never be admitted, so reject terminally.
                return protocol.error_event(
                    request_id,
                    "request re-encodes over the frame limit",
                    code="bad-request",
                )
            if cost > self.max_queued_bytes:
                # This request alone exceeds the budget: it could never be
                # admitted, so a retryable `busy` would loop a compliant
                # client forever.  Reject terminally instead.
                return protocol.error_event(
                    request_id,
                    f"request of {cost} bytes exceeds the per-connection budget "
                    f"of {self.max_queued_bytes} bytes",
                    code="bad-request",
                )
            if connection.queued_bytes + cost > self.max_queued_bytes:
                self._counters.inc("busy_rejections")
                return protocol.busy_event(
                    request_id,
                    f"queued request bytes over budget "
                    f"({connection.queued_bytes + cost} > {self.max_queued_bytes})",
                )
        connection.pending[request_id] = _PendingRequest(cost)
        connection.queued_bytes += cost
        return None

    def _release(self, connection: _Connection, request_id: str) -> None:
        entry = connection.pending.pop(request_id, None)
        if entry is not None:
            connection.queued_bytes -= entry.cost

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        connection: _Connection,
        message: Dict[str, Any],
        rejection: Optional[Dict[str, Any]] = None,
    ) -> None:
        if rejection is not None:
            await connection.send(rejection)
            return
        request_id = message.get("id")
        if request_id is not None and not isinstance(request_id, str):
            await connection.send(
                protocol.error_event(None, "request id must be a string", code="bad-request")
            )
            return
        op = message.get("op")
        _REQUESTS_TOTAL.inc(op=op if op in _KNOWN_OPS else "other")
        if op == "ping":
            await connection.send({"event": "pong", "id": request_id})
        elif op == "status":
            status = self._status_event(request_id)
            # The distributed executor's scheduler stats come from the
            # coordinator's own event loop (a blocking round-trip), so they
            # are gathered off this loop.  The key is only present under a
            # distributed engine — its presence is the documented signal.
            cluster = await self._cluster_status()
            if cluster is not None:
                status["cluster"] = cluster
            await connection.send(status)
        elif op == "cancel":
            await self._handle_cancel(connection, request_id)
        elif op == "submit":
            assert isinstance(request_id, str)  # _admit() guaranteed it
            try:
                await self._handle_submit(connection, message, request_id)
            finally:
                self._release(connection, request_id)
        elif op == "watch":
            await self._handle_watch(connection, request_id)
        else:
            await connection.send(
                protocol.error_event(
                    request_id,
                    f"unknown op {op!r} (ping/status/submit/cancel/watch)",
                    code="bad-request",
                )
            )

    async def _handle_cancel(
        self, connection: _Connection, request_id: Optional[str]
    ) -> None:
        """Wake the matching in-flight submit; it answers ``cancelled``."""
        entry = connection.pending.get(request_id) if request_id else None
        if entry is None:
            # Nothing in flight under this id (never was, or its terminal
            # event already went out — a cancel can lose that race).  The
            # client skips frames for ids it is no longer waiting on.
            await connection.send(
                protocol.error_event(
                    request_id,
                    f"no in-flight submit with id {request_id!r} to cancel",
                    code="bad-request",
                )
            )
            return
        entry.cancel()

    async def _handle_watch(
        self, connection: _Connection, request_id: Optional[str]
    ) -> None:
        """Stream :mod:`repro.obs` events to one subscriber until cancelled.

        The bus delivers synchronously on whatever thread emitted (sweep
        worker threads, the cluster loop, this loop), so a subscriber
        bridges events onto the service loop into a bounded per-watcher
        queue; a slow watcher drops its *oldest* frames (counted in
        ``repro_service_watch_dropped_total``) and can never stall the
        server.  The stream is a pending request like a submit: a
        ``cancel`` op with the same id ends it with ``code="cancelled"``,
        and disconnect / :meth:`stop` do too.
        """
        if not isinstance(request_id, str):
            await connection.send(
                protocol.error_event(
                    None, "watch requires a string id", code="bad-request"
                )
            )
            return
        if request_id in connection.pending:
            await connection.send(
                protocol.error_event(
                    request_id,
                    f"request id {request_id!r} is already in flight on this connection",
                    code="bad-request",
                )
            )
            return
        assert self._loop is not None, "service not started"
        loop = self._loop
        queue: "asyncio.Queue" = asyncio.Queue(maxsize=1024)
        entry = _PendingRequest(cost=0)
        entry.queue = queue
        connection.pending[request_id] = entry
        self._watch_entries.add(entry)

        def enqueue(event: Dict[str, Any]) -> None:
            dropped = _put_drop_oldest(queue, event)
            if dropped:
                self._counters.inc("watch_dropped", dropped)

        def bridge(event: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(enqueue, event)

        obs.EVENTS.subscribe(bridge)
        try:
            await connection.send(protocol.watching_event(request_id))
            while True:
                item = await queue.get()
                if item is _CANCELLED or entry.cancelled:
                    await connection.send(
                        protocol.error_event(
                            request_id, "watch cancelled", code="cancelled"
                        )
                    )
                    return
                if not await connection.send(protocol.obs_event(request_id, item)):
                    return  # peer gone mid-stream
        finally:
            obs.EVENTS.unsubscribe(bridge)
            self._watch_entries.discard(entry)
            self._release(connection, request_id)

    async def _cluster_status(self) -> Optional[Dict[str, Any]]:
        """Scheduler statistics of a distributed engine executor, or None.

        Surfaces the coordinator's status document — per-worker load,
        dispatch / steal / retry counters — through the service's own
        ``status`` op, so an operator watching the front door sees the
        scheduling tier without opening a second connection to the cluster
        endpoint.
        """
        executor_status = getattr(self.engine.executor, "status", None)
        if not callable(executor_status):
            return None
        assert self._loop is not None

        def _fetch():
            try:
                # Short timeout: a wedged coordinator costs a `status` op
                # two seconds, not the executor's default ten per poll.
                return executor_status(timeout=2.0)
            except TypeError:
                return executor_status()

        try:
            document = await self._loop.run_in_executor(None, _fetch)
        except Exception as error:
            # A wedged coordinator must not take `status` down — but the
            # failure must not vanish either: count it and surface the
            # last error string through the status document.
            self._counters.inc("status_cluster_errors")
            self._cluster_status_error = f"{type(error).__name__}: {error}"
            return None
        # The executor's serial-fallback / not-started placeholders carry
        # no scheduler content; the spec promises the key only appears
        # with the coordinator's full document.
        if not isinstance(document, dict) or "stats" not in document:
            return None
        return document

    def _status_event(self, request_id: Optional[str]) -> Dict[str, Any]:
        import repro

        cache = self.engine.cache
        journal_info = None
        if self.journal is not None:
            journal_info = {
                "path": str(self.journal.path),
                "pending": len(self._journal_pending),
                "resumed": self.resumed_jobs,
            }
        return {
            "event": "status",
            "id": request_id,
            "protocol": protocol.PROTOCOL_VERSION,
            "version": repro.__version__,
            "engine": self.engine.describe(),
            "engine_stats": dataclasses.asdict(self.engine.stats),
            "cache_stats": dataclasses.asdict(cache.stats) if cache is not None else None,
            "workloads": workload_names(),
            "in_flight": len(self._flights),
            "connections": len(self._connections),
            "limits": {
                "max_inflight": self.max_inflight,
                "max_queued_bytes": self.max_queued_bytes,
            },
            "busy_rejections": self.busy_rejections,
            "jobs_cancelled": self.jobs_cancelled,
            "status_cluster_errors": self._counters["status_cluster_errors"],
            "cluster_status_error": self._cluster_status_error,
            "watchers": len(self._watch_entries),
            "journal": journal_info,
        }

    # ------------------------------------------------------------------
    # Submit / single-flight / cancellation
    # ------------------------------------------------------------------
    async def _handle_submit(
        self, connection: _Connection, message: Dict[str, Any], request_id: str
    ) -> None:
        unknown = sorted(set(message) - set(protocol.SUBMIT_FIELDS))
        if unknown:
            await connection.send(
                protocol.error_event(
                    request_id,
                    f"unknown submit field(s): {', '.join(unknown)} "
                    f"(allowed: {', '.join(protocol.SUBMIT_FIELDS)})",
                    code="bad-request",
                )
            )
            return
        workload_name = message.get("workload")
        params = message.get("params", {})
        client_trace = message.get("trace")
        if client_trace is not None and not isinstance(client_trace, str):
            await connection.send(
                protocol.error_event(
                    request_id, "trace must be a string", code="bad-request"
                )
            )
            return
        if not isinstance(workload_name, str):
            await connection.send(
                protocol.error_event(
                    request_id, "submit requires a workload name", code="bad-request"
                )
            )
            return
        if not isinstance(params, dict):
            await connection.send(
                protocol.error_event(
                    request_id, "params must be a JSON object", code="bad-request"
                )
            )
            return
        try:
            workload_fn = get_workload(workload_name)
        except KeyError as error:
            await connection.send(
                protocol.error_event(request_id, str(error), code="bad-request")
            )
            return

        key = fingerprint("service-submit", workload_name, params)
        flight, deduplicated = self._get_or_create_flight(
            key,
            workload_name,
            workload_fn,
            params,
            trace=client_trace or None,
        )
        flight.subscribers += 1
        queue = flight.broadcaster.subscribe()
        entry = connection.pending.get(request_id)
        if entry is not None:
            entry.queue = queue
            if entry.cancelled:
                # The cancel (or disconnect) raced ahead of subscription.
                queue.put_nowait(_CANCELLED)
        cancelled = False
        obs.EVENTS.emit(
            "submit_accepted",
            trace=flight.trace,
            workload=workload_name,
            key=key,
            deduplicated=deduplicated,
        )
        try:
            await connection.send(
                protocol.accepted_event(request_id, key, deduplicated, trace=flight.trace)
            )
            while True:
                item = await queue.get()
                if item is progress_mod.CLOSED:
                    break
                if item is _CANCELLED:
                    cancelled = True
                    break
                sent = await connection.send(
                    protocol.progress_event(
                        request_id, item["done"], item["total"], item["label"]
                    )
                )
                if not sent:
                    # Peer is gone mid-stream: disconnect implies cancel.
                    cancelled = True
                    break
            if cancelled:
                await connection.send(
                    protocol.error_event(
                        request_id, "request cancelled", code="cancelled"
                    )
                )
                return
            try:
                payload, elapsed = await asyncio.shield(flight.task)
            except asyncio.CancelledError:
                raise
            except SweepCancelled:
                await connection.send(
                    protocol.error_event(request_id, "sweep cancelled", code="cancelled")
                )
                return
            except Exception as error:  # workload failure -> terminal error event
                await connection.send(
                    protocol.error_event(
                        request_id, f"{type(error).__name__}: {error}", code="failed"
                    )
                )
                return
            try:
                await _send_result(connection, request_id, payload, elapsed)
            except (TypeError, ValueError) as error:
                # A payload json cannot encode (or that overflows even the
                # binary bound) must still terminate the request with an
                # event — a silent death here would hang the client forever.
                await connection.send(
                    protocol.error_event(
                        request_id,
                        f"result payload not serialisable: {error}",
                        code="failed",
                    )
                )
        finally:
            flight.broadcaster.unsubscribe(queue)
            flight.subscribers -= 1
            if cancelled:
                self._maybe_cancel_flight(flight)

    def _maybe_cancel_flight(self, flight: _Flight) -> None:
        """Abort a flight whose last subscriber cancelled or disconnected.

        Pinned flights (journal replays) are exempt: they exist precisely
        to finish without a client watching.
        """
        if (
            flight.pinned
            or flight.subscribers > 0
            or flight.task is None
            or flight.task.done()
        ):
            return
        flight.cancel_event.set()
        self._counters.inc("jobs_cancelled")
        # Drop it from the single-flight table immediately so an identical
        # resubmit starts a fresh sweep instead of joining a dying one.
        if self._flights.get(flight.key) is flight:
            del self._flights[flight.key]

    def _get_or_create_flight(
        self,
        key: str,
        workload_name: str,
        workload_fn: WorkloadFn,
        params: Dict[str, Any],
        pinned: bool = False,
        journal_record: bool = True,
        trace: Optional[str] = None,
    ) -> Tuple[_Flight, bool]:
        flight = self._flights.get(key)
        if flight is not None:
            if pinned:
                flight.pinned = True
            # Single-flight implies single trace: the first submitter's id
            # stays on the sweep; late joiners learn it via `accepted`.
            return flight, True
        assert self._loop is not None, "service not started"
        broadcaster = progress_mod.ProgressBroadcaster(self._loop)
        # Per-flight engine view: shared executor / cache / stats, private
        # progress sink, cancel event and trace id, so
        # concurrent sweeps cannot cross their streams and cancelling one
        # never aborts another.
        cancel_event = threading.Event()
        engine_view = copy.copy(self.engine)
        engine_view.progress = broadcaster.callback
        engine_view.cancel_event = cancel_event
        engine_view.trace_id = trace or uuid.uuid4().hex
        flight = _Flight(
            key=key,
            workload=workload_name,
            broadcaster=broadcaster,
            cancel_event=cancel_event,
            pinned=pinned,
            trace=engine_view.trace_id,
        )
        if journal_record:
            self._journal_submitted(key, workload_name, params)
        flight.task = asyncio.ensure_future(
            self._run_flight(flight, workload_fn, params, engine_view, broadcaster)
        )
        flight.task.add_done_callback(
            lambda task, flight=flight: self._on_flight_done(flight, task)
        )
        self._flights[key] = flight
        return flight, False

    def _on_flight_done(self, flight: _Flight, task: "asyncio.Task") -> None:
        """Journal the terminal status; also retrieves the exception so a
        flight whose every waiter disconnected never warns about an
        unretrieved exception (the failure stays visible in ``status``)."""
        if task.cancelled():
            status = "cancelled"
        else:
            error = task.exception()
            if error is None:
                status = "completed"
            elif isinstance(error, SweepCancelled):
                status = "cancelled"
            else:
                status = "failed"
        event_type = {
            "completed": "run_result",
            "cancelled": "run_cancelled",
            "failed": "run_failed",
        }[status]
        obs.EVENTS.emit(
            event_type, trace=flight.trace, key=flight.key, workload=flight.workload
        )
        if self._flights.get(flight.key) not in (None, flight):
            # A cancelled-then-resubmitted key: a newer flight now owns
            # this key's journal lifecycle, and our terminal record would
            # erase *its* pending entry — a crash before it finishes would
            # then not be replayed by --resume.  The newer flight writes
            # the lifecycle's terminal record instead.
            return
        self._journal_finished(flight.key, status)

    def _journal_submitted(
        self, key: str, workload: str, params: Dict[str, Any]
    ) -> None:
        self._journal_pending.add(key)
        self._journal_write("record_submitted", key, workload, params)

    def _journal_finished(self, key: str, status: str) -> None:
        self._journal_pending.discard(key)
        self._journal_write("record_finished", key, status)

    def _journal_write(self, method: str, *args: Any) -> None:
        """Ordered, off-loop journal append that can never break serving."""
        if self.journal is None or self._journal_pool is None:
            return

        def _write(journal=self.journal):
            try:
                getattr(journal, method)(*args)
            except OSError:
                # A full / read-only disk must not break serving; the
                # journal just loses this record.
                pass

        try:
            self._journal_pool.submit(_write)
        except RuntimeError:
            pass  # pool already shut down (late flight during stop)

    async def _run_flight(
        self,
        flight: _Flight,
        workload_fn: WorkloadFn,
        params: Dict[str, Any],
        engine_view: SweepEngine,
        broadcaster: progress_mod.ProgressBroadcaster,
    ) -> Tuple[Any, float]:
        assert self._loop is not None
        start = time.perf_counter()
        try:
            payload = await self._loop.run_in_executor(
                self._pool, lambda: workload_fn(params, engine_view)
            )
            return payload, time.perf_counter() - start
        finally:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
            broadcaster.close()
