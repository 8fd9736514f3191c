"""Control-plane client helpers: query a live cluster endpoint.

The coordinator answers ``status`` / ``ping`` / ``watch`` ops on the same
NDJSON port the workers use, so operational tooling needs no second
listener.  These helpers are what ``python -m repro cluster status`` and
the tests use; ``fetch_status`` / ``ping`` are synchronous one-shot calls
(connect, ask, disconnect), while :func:`watch_status` keeps the
connection open and redraws a live per-worker table from the coordinator's
:mod:`repro.obs` event stream instead of re-polling ``status``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional

from repro import wire
from repro.cluster.worker import parse_address


class ControlError(RuntimeError):
    """The coordinator rejected or failed a control request."""


async def _request(
    host: str, port: int, message: Dict[str, Any], timeout: float
) -> Dict[str, Any]:
    reader, writer = await wire.open_connection(host, port, timeout=timeout)
    try:
        writer.write(wire.encode_message(message))
        await writer.drain()
        reply = await wire.read_message(reader)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if reply is None:
        raise ControlError("coordinator closed the connection without replying")
    if reply.get("event") == "error":
        raise ControlError(str(reply.get("error")))
    return reply


def fetch_status(connect: str, timeout: float = 5.0) -> Dict[str, Any]:
    """Fetch the status document of the coordinator at ``connect``.

    ``connect`` is a ``HOST:PORT`` endpoint; connection failures are retried
    with backoff until ``timeout`` (the coordinator may still be binding).
    """
    host, port = parse_address(connect)
    return asyncio.run(
        asyncio.wait_for(
            _request(host, port, {"op": "status", "id": "cli"}, timeout), timeout + 5.0
        )
    )


def ping(connect: str, timeout: float = 5.0) -> bool:
    """Liveness probe; ``True`` when the coordinator answers ``pong``."""
    host, port = parse_address(connect)
    reply = asyncio.run(
        asyncio.wait_for(
            _request(host, port, {"op": "ping", "id": "cli"}, timeout), timeout + 5.0
        )
    )
    return reply.get("event") == "pong"


def format_status(status: Dict[str, Any]) -> str:
    """Render a status document as the human-readable ``cluster status`` text."""
    host, port = status.get("address", ["?", "?"])
    stats = status.get("stats", {})
    lines = [
        f"cluster at {host}:{port} — protocol {status.get('protocol')}, "
        f"repro {status.get('version')}",
        f"  workers: {status.get('alive_workers', 0)} alive, "
        f"{status.get('total_slots', 0)} slots, "
        f"{status.get('runs_in_flight', 0)} runs in flight, "
        f"{status.get('orphaned_chunks', 0)} orphaned chunks",
        f"  totals : {stats.get('jobs_done', 0)} jobs done, "
        f"{stats.get('chunks_completed', 0)}/{stats.get('chunks_dispatched', 0)} chunks, "
        f"{stats.get('chunks_stolen', 0)} stolen, "
        f"{stats.get('chunks_retried', 0)} retried, "
        f"{stats.get('workers_lost', 0)} workers lost",
    ]
    for worker in status.get("workers", []):
        state = "alive" if worker.get("alive") else "dead"
        # Queue depth is reported in *jobs*: since protocol v3 the queues
        # hold spans (arbitrarily large reservoirs), so a span count would
        # say nothing about load.
        lines.append(
            f"  worker {worker.get('id')} ({worker.get('name')}, pid {worker.get('pid')}): "
            f"{state}, {worker.get('slots')} slot(s), "
            f"{worker.get('jobs_done', 0)} jobs done, "
            f"{worker.get('inflight_jobs', 0)} in flight, "
            f"{worker.get('queued_jobs', 0)} queued"
        )
    return "\n".join(lines)


class ClusterWatchView:
    """Pure fold of :mod:`repro.obs` events over a cluster status snapshot.

    Seeded from one ``status`` document, then updated event by event from
    the coordinator's ``watch`` stream — the live ``cluster status
    --watch`` table redraws from these increments instead of re-polling
    the coordinator.  Pure accounting (no I/O, no clock), so the fold is
    directly testable:

    >>> view = ClusterWatchView({"address": ["127.0.0.1", 7465], "workers": [
    ...     {"id": "w1", "name": "local-0", "slots": 2, "alive": True,
    ...      "jobs_done": 0, "inflight_chunks": 0}]})
    >>> view.apply({"seq": 1, "ts": 0.0, "type": "chunk_dispatched",
    ...             "worker": "w1", "chunk": "run-1/c1", "jobs": 4,
    ...             "trace": "t-1"})
    True
    >>> view.apply({"seq": 2, "ts": 0.1, "type": "chunk_done",
    ...             "worker": "w1", "chunk": "run-1/c1", "jobs": 4,
    ...             "seconds": 0.1, "trace": "t-1"})
    True
    >>> view.workers["w1"]["jobs_done"], view.workers["w1"]["inflight_chunks"]
    (4, 0)
    >>> view.jobs_done, view.chunks_done, view.last_trace
    (4, 1, 't-1')
    >>> view.apply({"seq": 3, "ts": 0.2, "type": "cache_hit", "key": "k"})
    False
    >>> view.events_seen
    3
    >>> print(view.render())  # doctest: +ELLIPSIS
    cluster at 127.0.0.1:7465 — live (3 events, last: cache_hit)
      totals : 4 jobs done, 1 chunks, 0 stolen spans, 0 workers lost
      worker w1 (local-0): alive, 2 slot(s), 4 jobs done, 0 chunks in flight...
    """

    def __init__(self, status: Dict[str, Any]):
        host, port = status.get("address", ["?", "?"])
        self.address = f"{host}:{port}"
        self.workers: Dict[str, Dict[str, Any]] = {}
        for worker in status.get("workers", []):
            self.workers[str(worker.get("id"))] = {
                "name": worker.get("name", "?"),
                "slots": worker.get("slots", 1),
                "alive": bool(worker.get("alive", True)),
                "jobs_done": int(worker.get("jobs_done", 0)),
                "inflight_chunks": int(worker.get("inflight_chunks", 0)),
            }
        stats = status.get("stats", {})
        self.jobs_done = int(stats.get("jobs_done", 0))
        self.chunks_done = int(stats.get("chunks_completed", 0))
        self.stolen = int(stats.get("chunks_stolen", 0))
        self.workers_lost = int(stats.get("workers_lost", 0))
        self.events_seen = 0
        self.last_type: Optional[str] = None
        self.last_trace: Optional[str] = None

    def _worker(self, event: Dict[str, Any]) -> Dict[str, Any]:
        worker_id = str(event.get("worker"))
        return self.workers.setdefault(
            worker_id,
            {
                "name": event.get("name", worker_id),
                "slots": event.get("slots", 1),
                "alive": True,
                "jobs_done": 0,
                "inflight_chunks": 0,
            },
        )

    def apply(self, event: Dict[str, Any]) -> bool:
        """Fold one ``watch`` event in; ``True`` when the table changed."""
        self.events_seen += 1
        kind = event.get("type")
        self.last_type = kind
        if event.get("trace") is not None:
            self.last_trace = str(event["trace"])
        if kind == "worker_joined":
            worker = self._worker(event)
            worker["alive"] = True
            worker["slots"] = event.get("slots", worker["slots"])
            return True
        if kind == "worker_lost":
            self._worker(event)["alive"] = False
            self.workers_lost += 1
            return True
        if kind == "chunk_dispatched":
            self._worker(event)["inflight_chunks"] += 1
            return True
        if kind == "chunk_done":
            worker = self._worker(event)
            worker["inflight_chunks"] = max(0, worker["inflight_chunks"] - 1)
            worker["jobs_done"] += int(event.get("jobs", 0))
            self.jobs_done += int(event.get("jobs", 0))
            self.chunks_done += 1
            return True
        if kind == "chunk_stolen":
            self.stolen += int(event.get("spans", 1))
            return True
        return False

    def render(self) -> str:
        """The live table ``cluster status --watch`` redraws per change."""
        lines = [
            f"cluster at {self.address} — live ({self.events_seen} events, "
            f"last: {self.last_type})",
            f"  totals : {self.jobs_done} jobs done, {self.chunks_done} chunks, "
            f"{self.stolen} stolen spans, "
            f"{self.workers_lost} workers lost",
        ]
        for worker_id, worker in sorted(self.workers.items()):
            state = "alive" if worker["alive"] else "dead"
            lines.append(
                f"  worker {worker_id} ({worker['name']}): {state}, "
                f"{worker['slots']} slot(s), {worker['jobs_done']} jobs done, "
                f"{worker['inflight_chunks']} chunks in flight"
            )
        if self.last_trace is not None:
            lines.append(f"  last trace: {self.last_trace}")
        return "\n".join(lines)


async def _watch(
    host: str,
    port: int,
    duration: Optional[float],
    emit: Callable[[str], None],
    timeout: float,
) -> ClusterWatchView:
    reader, writer = await wire.open_connection(host, port, timeout=timeout)
    try:
        # Seed and subscribe on one connection; the coordinator answers in
        # stream order, so the status document always precedes the ack.
        writer.write(wire.encode_message({"op": "status", "id": "watch-seed"}))
        writer.write(wire.encode_message({"op": "watch", "id": "watch"}))
        await writer.drain()
        status = await asyncio.wait_for(wire.read_message(reader), timeout)
        if status is None or status.get("event") != "status":
            raise ControlError(f"expected a status document, got {status!r}")
        ack = await asyncio.wait_for(wire.read_message(reader), timeout)
        if ack is None or ack.get("event") != "watching":
            raise ControlError(f"coordinator did not ack the watch: {ack!r}")
        view = ClusterWatchView(status)
        emit(view.render())
        loop = asyncio.get_running_loop()
        deadline = None if duration is None else loop.time() + duration
        while True:
            remaining = None if deadline is None else deadline - loop.time()
            if remaining is not None and remaining <= 0:
                return view
            try:
                message = await asyncio.wait_for(wire.read_message(reader), remaining)
            except asyncio.TimeoutError:
                return view
            if message is None:
                return view  # coordinator shut down: the stream is over
            if message.get("event") != "obs":
                continue
            if view.apply(message.get("data") or {}):
                emit(view.render())
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def watch_status(
    connect: str,
    duration: Optional[float] = None,
    emit: Optional[Callable[[str], None]] = None,
    timeout: float = 5.0,
) -> ClusterWatchView:
    """Follow a coordinator's live event stream; returns the final view.

    Connects to ``connect`` (``HOST:PORT``), seeds a
    :class:`ClusterWatchView` from ``status`` and then redraws it through
    ``emit`` (default: ``print``) on every table-changing ``obs`` event —
    the engine behind ``python -m repro cluster status --watch``.
    ``duration`` bounds the session in seconds (``None`` = until the
    coordinator goes away or the user interrupts).
    """
    host, port = parse_address(connect)
    return asyncio.run(_watch(host, port, duration, emit or print, timeout))
