"""Control-plane client helpers: query a live cluster endpoint.

The coordinator answers ``status`` / ``ping`` ops on the same NDJSON port
the workers use, so operational tooling needs no second listener.  These
helpers are what ``python -m repro cluster status`` and the tests use:
synchronous one-shot calls (connect, ask, disconnect).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict

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


def format_status(status: Dict[str, Any]) -> str:
    """Render a status document as the human-readable ``cluster status`` text.

    >>> print(format_status({"address": ["127.0.0.1", 7465], "protocol": 8,
    ...     "version": "0.1", "alive_workers": 1, "total_slots": 2,
    ...     "stats": {"jobs_done": 4, "chunks_completed": 1, "chunks_dispatched": 1},
    ...     "workers": [{"id": "w1", "name": "local-0", "pid": 42, "alive": True,
    ...                  "slots": 2, "jobs_done": 4}]}))
    cluster at 127.0.0.1:7465 — protocol 8, repro 0.1
      workers: 1 alive, 2 slots, 0 runs in flight, 0 jobs queued
      totals : 4 jobs done, 1/1 chunks, 0 retried, 0 workers lost
      worker w1 (local-0, pid 42): alive, 2 slot(s), 4 jobs done, 0 in flight
    """
    host, port = status.get("address", ["?", "?"])
    stats = status.get("stats", {})
    lines = [
        f"cluster at {host}:{port} — protocol {status.get('protocol')}, "
        f"repro {status.get('version')}",
        f"  workers: {status.get('alive_workers', 0)} alive, "
        f"{status.get('total_slots', 0)} slots, "
        f"{status.get('runs_in_flight', 0)} runs in flight, "
        f"{status.get('queued_jobs', 0)} jobs queued",
        f"  totals : {stats.get('jobs_done', 0)} jobs done, "
        f"{stats.get('chunks_completed', 0)}/{stats.get('chunks_dispatched', 0)} chunks, "
        f"{stats.get('chunks_retried', 0)} retried, "
        f"{stats.get('workers_lost', 0)} workers lost",
    ]
    for worker in status.get("workers", []):
        state = "alive" if worker.get("alive") else "dead"
        lines.append(
            f"  worker {worker.get('id')} ({worker.get('name')}, pid {worker.get('pid')}): "
            f"{state}, {worker.get('slots')} slot(s), "
            f"{worker.get('jobs_done', 0)} jobs done, "
            f"{worker.get('inflight_jobs', 0)} in flight"
        )
    return "\n".join(lines)
