"""Component library of the event-driven multiplier testbench.

Each component owns a handful of signals and schedules its behaviour on the
shared :class:`~repro.eventsim.kernel.SimulationKernel`.  The analogue
behaviour (how far a bit-line has discharged at its sampling instant) is
delegated to the calibrated OPTIMA model suite — the components only manage
*when* things happen, which is exactly the division of labour of the paper's
SystemVerilog framework.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.converters.adc import Adc
from repro.converters.dac import DacLike
from repro.core.model_suite import OptimaModelSuite
from repro.eventsim.kernel import SimulationKernel
from repro.eventsim.signals import AnalogSignal, DigitalSignal


class Component:
    """Base class wiring a component to the kernel."""

    def __init__(self, kernel: SimulationKernel, name: str) -> None:
        self.kernel = kernel
        self.name = name


class PrechargeUnit(Component):
    """Pre-charges a set of bit-lines to VDD.

    Parameters
    ----------
    kernel:
        Shared simulation kernel.
    bitlines:
        The analogue bit-line signals to pre-charge.
    vdd:
        Pre-charge target voltage.
    duration:
        Time the pre-charge phase takes.
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        bitlines: List[AnalogSignal],
        vdd: float,
        duration: float = 0.5e-9,
    ) -> None:
        super().__init__(kernel, "precharge")
        if duration <= 0.0:
            raise ValueError("duration must be positive")
        self.bitlines = bitlines
        self.vdd = vdd
        self.duration = duration
        self.done = DigitalSignal("precharge_done", 0)

    def start(self) -> None:
        """Begin the pre-charge phase at the current simulation time."""
        self.done.set(0, self.kernel.now)

        def finish() -> None:
            for bitline in self.bitlines:
                bitline.set(self.vdd, self.kernel.now)
            self.done.set(1, self.kernel.now)

        self.kernel.schedule_after(self.duration, finish, label=f"{self.name}: done")


class WordlineDriver(Component):
    """Drives the word line with the DAC output for the applied input code."""

    def __init__(self, kernel: SimulationKernel, dac: DacLike, settle_time: float = 0.2e-9) -> None:
        super().__init__(kernel, "wordline_driver")
        if settle_time <= 0.0:
            raise ValueError("settle_time must be positive")
        self.dac = dac
        self.settle_time = settle_time
        self.input_code = DigitalSignal("input_code", 0)
        self.wordline = AnalogSignal("v_wl", 0.0)
        self.settled = DigitalSignal("wordline_settled", 0)

    def apply(self, code: int) -> None:
        """Apply an input code; the word line settles after ``settle_time``."""
        self.input_code.set(code, self.kernel.now)
        self.settled.set(0, self.kernel.now)
        target = float(np.asarray(self.dac.voltage(code)))

        def settle() -> None:
            self.wordline.set(target, self.kernel.now)
            self.settled.set(1, self.kernel.now)

        self.kernel.schedule_after(
            self.settle_time, settle, label=f"{self.name}: settle to {target:.3f} V"
        )

    def release(self) -> None:
        """Pull the word line back to ground immediately."""
        self.wordline.set(0.0, self.kernel.now)
        self.settled.set(0, self.kernel.now)


class BitlineComponent(Component):
    """One bit-line-bar column driven by the OPTIMA discharge model.

    The component does not integrate anything; when its sampling instant
    arrives it asks the model suite for the discharge reached after the
    elapsed discharge time and updates its analogue signal in one event —
    exactly the event-based analogue modelling the paper describes.
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        suite: OptimaModelSuite,
        index: int,
        conditions: OperatingConditions,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(kernel, f"blb{index}")
        self.suite = suite
        self.index = index
        self.conditions = conditions
        self.rng = rng
        self.stored_bit = DigitalSignal(f"stored_bit{index}", 0)
        self.voltage = AnalogSignal(f"v_blb{index}", conditions.vdd)
        self._discharge_start: Optional[float] = None
        self._wordline_voltage = 0.0

    def write_bit(self, bit: int) -> None:
        """Store a bit into the cell this column exposes to the multiplier."""
        self.stored_bit.set(bit, self.kernel.now)

    def begin_discharge(self, wordline_voltage: float) -> None:
        """Mark the start of the discharge window."""
        self._discharge_start = self.kernel.now
        self._wordline_voltage = wordline_voltage

    def sample(self) -> float:
        """Evaluate the discharge at the current time and update the signal."""
        if self._discharge_start is None:
            raise RuntimeError(f"{self.name}: sample() before begin_discharge()")
        elapsed = self.kernel.now - self._discharge_start
        if elapsed <= 0.0:
            discharge = 0.0
        elif self.rng is None:
            discharge = float(
                self.suite.discharge_voltage(
                    elapsed,
                    self._wordline_voltage,
                    self.conditions,
                    stored_bit=self.stored_bit.value,
                )
            )
        else:
            discharge = float(
                self.suite.sample_discharge_voltage(
                    elapsed,
                    self._wordline_voltage,
                    self.rng,
                    self.conditions,
                    stored_bit=self.stored_bit.value,
                )
            )
        voltage = self.conditions.vdd - discharge
        self.voltage.set(voltage, self.kernel.now)
        return discharge


class SamplingSwitch(Component):
    """Sampling capacitor bank plus charge-sharing switch."""

    def __init__(self, kernel: SimulationKernel, branches: int) -> None:
        super().__init__(kernel, "sampling_switch")
        if branches <= 0:
            raise ValueError("branches must be positive")
        self.branches = branches
        self.captured: List[Optional[float]] = [None] * branches
        self.combined = AnalogSignal("v_combined", 0.0)

    def capture(self, branch: int, discharge: float) -> None:
        """Capture the discharge of one branch on its sampling capacitor."""
        if not 0 <= branch < self.branches:
            raise IndexError(f"branch {branch} out of range (have {self.branches})")
        self.captured[branch] = float(discharge)

    def share(self) -> float:
        """Short all capacitors together and drive the combined signal."""
        if any(value is None for value in self.captured):
            missing = [i for i, value in enumerate(self.captured) if value is None]
            raise RuntimeError(f"{self.name}: branches {missing} not captured yet")
        combined = float(np.mean([float(v) for v in self.captured]))
        self.combined.set(combined, self.kernel.now)
        return combined

    def clear(self) -> None:
        """Discard all captured values (start of a new operation)."""
        self.captured = [None] * self.branches


class AdcReadout(Component):
    """ADC plus digital product calibration."""

    def __init__(
        self,
        kernel: SimulationKernel,
        adc: Adc,
        scale: float,
        offset: float,
        product_levels: int,
        conversion_time: float = 1.0e-9,
    ) -> None:
        super().__init__(kernel, "adc_readout")
        if conversion_time <= 0.0:
            raise ValueError("conversion_time must be positive")
        self.adc = adc
        self.scale = scale
        self.offset = offset
        self.product_levels = product_levels
        self.conversion_time = conversion_time
        self.result = DigitalSignal("product", 0)
        self.result_valid = DigitalSignal("product_valid", 0)

    def convert(self, voltage: float) -> None:
        """Start a conversion of ``voltage``; the result appears later."""
        self.result_valid.set(0, self.kernel.now)

        def finish() -> None:
            code = int(np.asarray(self.adc.quantize(voltage)))
            product = int(np.clip(round(self.scale * code + self.offset), 0, self.product_levels))
            self.result.set(product, self.kernel.now)
            self.result_valid.set(1, self.kernel.now)

        self.kernel.schedule_after(
            self.conversion_time, finish, label=f"{self.name}: conversion done"
        )
