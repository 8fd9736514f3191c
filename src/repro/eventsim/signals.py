"""Signals for the event-driven simulation framework.

A signal is a named value with a change history and optional change
callbacks.  Components communicate exclusively through signals, which gives
the testbench a waveform-style view of the simulation (every transition is
timestamped) — the same observability an HDL simulator provides.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np


class Signal:
    """A named value with change history.

    Parameters
    ----------
    name:
        Signal name used in traces.
    initial:
        Initial value at time zero.
    """

    def __init__(self, name: str, initial: object = None) -> None:
        self.name = name
        self._value = initial
        self._history: List[Tuple[float, object]] = [(0.0, initial)]
        self._listeners: List[Callable[["Signal", float], None]] = []

    def set(self, value: object, time: float) -> None:
        """Drive a new value at simulation time ``time``."""
        if time < self._history[-1][0]:
            raise ValueError(
                f"signal {self.name}: cannot drive value at {time:.3e} s, "
                f"earlier than last change {self._history[-1][0]:.3e} s"
            )
        self._value = value
        self._history.append((time, value))
        for listener in list(self._listeners):
            listener(self, time)

    def on_change(self, listener: Callable[["Signal", float], None]) -> None:
        """Register a callback invoked after every :meth:`set`."""
        self._listeners.append(listener)


class DigitalSignal(Signal):
    """Signal restricted to integer values (codes, flags, counters)."""

    def __init__(self, name: str, initial: int = 0) -> None:
        super().__init__(name, int(initial))

    def set(self, value: object, time: float) -> None:
        """Drive a new integer value at ``time``."""
        super().set(int(value), time)

    @property
    def value(self) -> int:
        """Current integer value."""
        return int(self._value)


class AnalogSignal(Signal):
    """Signal carrying a floating-point voltage."""

    def __init__(self, name: str, initial: float = 0.0) -> None:
        super().__init__(name, float(initial))

    def set(self, value: object, time: float) -> None:
        """Drive a new voltage at ``time``."""
        super().set(float(value), time)

    @property
    def value(self) -> float:
        """Current voltage."""
        return float(self._value)

    def as_waveform(self) -> Tuple[np.ndarray, np.ndarray]:
        """History as (times, values) arrays for plotting or assertions."""
        times = np.array([entry[0] for entry in self._history], dtype=float)
        values = np.array([entry[1] for entry in self._history], dtype=float)
        return times, values

    def max_value(self) -> float:
        """Largest voltage the signal ever held."""
        return float(max(entry[1] for entry in self._history))

    def min_value(self) -> float:
        """Smallest voltage the signal ever held."""
        return float(min(entry[1] for entry in self._history))
