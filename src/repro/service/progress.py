"""Thread-safe fan-out of engine progress callbacks to asyncio consumers.

:class:`repro.runtime.SweepEngine` reports progress through a synchronous
callback that — inside the service — fires on a worker thread (sweeps run
behind ``loop.run_in_executor`` so the event loop stays responsive).  Every
client following the same single-flight sweep needs those ticks on the
event-loop side.  :class:`ProgressBroadcaster` bridges the two worlds:

* the worker thread calls :meth:`callback` (a valid
  :data:`repro.runtime.ProgressCallback`), which trampolines the tick onto
  the event loop with ``loop.call_soon_threadsafe``;
* each interested client :meth:`subscribe`-s an ``asyncio.Queue`` and reads
  ticks until the :data:`CLOSED` sentinel, published exactly once by
  :meth:`close` when the sweep finishes.

A subscriber that joins mid-sweep simply starts receiving ticks from that
point on — progress is monotonic, so the first tick it sees already carries
the correct ``done``/``total``.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Set

#: Terminal sentinel delivered to every subscriber queue when the sweep ends.
CLOSED = object()


class ProgressBroadcaster:
    """One sweep's progress hub: worker-thread producer, asyncio consumers."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._queues: Set[asyncio.Queue] = set()
        self._closed = False

    # -- event-loop side ------------------------------------------------
    def subscribe(self) -> "asyncio.Queue":
        """Register a consumer queue (event-loop thread only)."""
        queue: asyncio.Queue = asyncio.Queue()
        if self._closed:
            queue.put_nowait(CLOSED)
        else:
            self._queues.add(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue") -> None:
        """Detach a consumer; safe to call after :meth:`close`."""
        self._queues.discard(queue)

    def _publish(self, item: object) -> None:
        for queue in list(self._queues):
            queue.put_nowait(item)

    def _close_now(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._publish(CLOSED)
        self._queues.clear()

    # -- worker-thread side ---------------------------------------------
    def callback(self, done: int, total: int, label: str) -> None:
        """Engine :data:`~repro.runtime.ProgressCallback`; thread-safe."""
        tick: Dict[str, object] = {"done": int(done), "total": int(total), "label": str(label)}
        self._loop.call_soon_threadsafe(self._publish, tick)

    def close(self) -> None:
        """Publish :data:`CLOSED` to every subscriber (any thread)."""
        self._loop.call_soon_threadsafe(self._close_now)
