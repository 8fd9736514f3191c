"""Deterministic discrete-event simulation kernel.

The kernel keeps a priority queue of timed events.  Components schedule
callbacks at absolute or relative times; the kernel pops events in time order
(with a monotonically increasing sequence number breaking ties, so two events
scheduled for the same instant execute in scheduling order, which keeps runs
reproducible).  This is the same execution model as an HDL simulator's event
wheel, which is the point: the OPTIMA models replace the analogue solver, not
the digital scheduling.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Callable, List, Optional


@dataclasses.dataclass(order=True)
class Event:
    """One scheduled event.

    Events order by time first and by scheduling sequence second; the
    callback and label do not participate in ordering.
    """

    time: float
    sequence: int
    callback: Callable[[], None] = dataclasses.field(compare=False)
    label: str = dataclasses.field(compare=False, default="")
    cancelled: bool = dataclasses.field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; the kernel will skip it."""
        self.cancelled = True


class SimulationKernel:
    """Event queue with simulation time.

    Parameters
    ----------
    time_resolution:
        Smallest representable time step in seconds.  Scheduled times are
        quantised to this resolution, mirroring the timescale setting of an
        HDL simulator and avoiding float-comparison surprises in tests.
    """

    def __init__(self, time_resolution: float = 1e-15) -> None:
        if time_resolution <= 0.0:
            raise ValueError("time_resolution must be positive")
        self.time_resolution = time_resolution
        self._now = 0.0
        self._queue: List[Event] = []
        self._sequence = itertools.count()
        self._executed_events = 0
        self._log: List[str] = []

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far."""
        return self._executed_events

    def _quantise(self, time: float) -> float:
        return round(time / self.time_resolution) * self.time_resolution

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        time = self._quantise(time)
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time:.3e} s before current time "
                f"{self._now:.3e} s"
            )
        event = Event(
            time=time, sequence=next(self._sequence), callback=callback, label=label
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at ``delay`` seconds after the current time."""
        if delay < 0.0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self._now + delay, callback, label=label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Execute the next pending event; return it, or ``None`` if idle."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            self._executed_events += 1
            if event.label:
                self._log.append(f"{event.time * 1e9:9.3f} ns  {event.label}")
            return event
        return None

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Run events until the queue drains or ``until`` is reached.

        Returns the number of events executed by this call.
        """
        executed = 0
        while self._queue and executed < max_events:
            next_event = self._queue[0]
            if next_event.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and next_event.time > until:
                break
            if self.step() is not None:
                executed += 1
        if until is not None and (not self._queue or self._queue[0].time > until):
            self._now = max(self._now, self._quantise(until))
        return executed

    def event_log(self) -> List[str]:
        """Human-readable log of the labelled events executed so far."""
        return list(self._log)
