"""Structured event bus behind the service's ``watch`` op.

Every tier publishes what it *does* — submits accepted, chunks
dispatched / done / stolen, cache hits and evictions, workers joining
and dying — as small JSON-ready dicts on one process-wide bus
(:data:`EVENTS`).  Subscribers are plain callables; the service bridges
them onto asyncio queues to fan events out to ``watch`` clients
(NDJSON), and the coordinator does the same for
``python -m repro cluster status --watch``.

Ordering is a guarantee, not an accident: :meth:`EventBus.emit` assigns
a monotonically increasing ``seq`` and delivers to all subscribers under
the bus lock, so two events observed by any single subscriber can never
arrive out of ``seq`` order.  Subscriber callbacks must therefore be
quick and non-blocking (enqueue and return); a callback that raises is
dropped from that delivery, never propagated into the emitting tier.

Events carry the originating request's ``trace`` id whenever one exists,
which is what makes a single sweep followable across client → service →
coordinator → worker (see ``docs/observability.md``).

>>> bus = EventBus()
>>> seen = []
>>> unsubscribe_me = bus.subscribe(seen.append)
>>> event = bus.emit("run_started", trace="t-1", jobs=48)
>>> event["type"], event["trace"], event["jobs"]
('run_started', 't-1', 48)
>>> second = bus.emit("run_finished", trace="t-1", jobs=48)
>>> second["seq"] > event["seq"]
True
>>> [e["type"] for e in seen]
['run_started', 'run_finished']
>>> bus.emit("not_a_thing")
Traceback (most recent call last):
    ...
ValueError: unknown event type 'not_a_thing'
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import REGISTRY

__all__ = ["EVENT_TYPES", "EventBus", "EVENTS"]

#: Every event type any tier may emit; ``emit`` rejects anything else so
#: the documented vocabulary (docs/observability.md) cannot drift.
EVENT_TYPES = (
    # service tier
    "submit_accepted",
    "run_result",
    "run_failed",
    "run_cancelled",
    "journal_replay",
    # engine tier
    "run_started",
    "cache_resolved",
    "run_finished",
    # artifact cache
    "cache_hit",
    "cache_miss",
    "cache_write",
    "cache_evict",
    # cluster tier
    "chunk_dispatched",
    "chunk_done",
    "chunk_stolen",
    "worker_joined",
    "worker_lost",
)

_EVENTS_TOTAL = REGISTRY.counter(
    "repro_obs_events_total",
    "Structured observability events emitted, by type.",
    labels=("type",),
)

_SUBSCRIBER_ERRORS_TOTAL = REGISTRY.counter(
    "repro_obs_subscriber_errors_total",
    "Event-bus subscriber callbacks that raised (event delivered to the "
    "others; the failure is counted here instead of propagating).",
)

Subscriber = Callable[[Dict[str, Any]], None]


class EventBus:
    """Thread-safe publish/subscribe fan-out of observability events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._subscribers: List[Subscriber] = []

    def subscribe(self, callback: Subscriber) -> Subscriber:
        """Register ``callback`` for every future event; returns it back
        so ``bus.unsubscribe(bus.subscribe(cb))`` round-trips."""
        with self._lock:
            if callback not in self._subscribers:
                self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Subscriber) -> None:
        with self._lock:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def emit(self, type: str, trace: Optional[str] = None, **fields: Any) -> Dict[str, Any]:
        """Publish one event; returns the dict that subscribers saw.

        ``seq`` assignment and delivery happen under one lock, so any
        single subscriber observes events in strictly increasing ``seq``
        order.  ``trace`` is included only when the emitting tier knows
        the originating request id.
        """
        if type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {type!r}")
        _EVENTS_TOTAL.inc(type=type)
        with self._lock:
            self._seq += 1
            event: Dict[str, Any] = {"seq": self._seq, "ts": time.time(), "type": type}
            if trace is not None:
                event["trace"] = trace
            event.update(fields)
            for callback in list(self._subscribers):
                try:
                    callback(event)
                except Exception:
                    # Observability must never take the emitter down — but
                    # a raising subscriber must not vanish either (it means
                    # a watch bridge or status view is broken): count it.
                    _SUBSCRIBER_ERRORS_TOTAL.inc()
        return event


#: The process-wide bus every tier emits on (and ``watch`` streams from).
EVENTS = EventBus()
