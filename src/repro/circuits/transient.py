"""Transient bit-line discharge solver (the Cadence Virtuoso stand-in).

The solver integrates the bit-line node equation

    C_BL * dV_BLB/dt = -I_cell(V_BLB, V_WL; PVT, mismatch)

with a fixed-step fourth-order Runge-Kutta scheme.  The cell current comes
from the series-stack solve in :mod:`repro.circuits.sram_cell`, so every
non-ideality the paper discusses in Section III (sub-threshold conduction,
alpha-power nonlinearity, saturation-to-triode transition, PVT and mismatch
dependence) shows up in the produced waveforms.

Because the word-line voltage is constant during one discharge window, the
node equation is autonomous in the bit-line voltage.  The solver therefore
tabulates the stack current over a dense bit-line-voltage grid once per run
(one vectorised series-stack solve) and interpolates that table inside the
RK4 loop.  This keeps the reference simulator accurate while making the
thousand-sample Monte-Carlo sweeps of the characterisation flow practical.
It is still orders of magnitude slower than evaluating the fitted OPTIMA
polynomials, which is exactly the comparison behind the paper's speed-up
claim (see :mod:`repro.core.speedup`).

Both halves are arranged for speed without changing a single output bit:

* The table solve (:meth:`DischargeStack.current`) computes the pull-down
  device's gate terms once, since its gate sits at VDD, and bisects the
  internal node over flat, cache-sized blocks of the broadcast
  (trace x grid) array rather than the whole array per step.
* The RK4 loop keeps one row per trace and interpolates with a flat
  ``take`` into the table and one into a precomputed slope table
  (``upper - lower``, the same subtraction the interpolation would do).

Every element still passes through the same float operations in the same
order; only where and when it is computed changes.  That is why the
waveforms are bit-identical to the direct whole-array evaluation, which
``tests/test_transient_oracle.py`` keeps as an oracle.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

import numpy as np

from repro.circuits.bitline import BitLine
from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchArrays, MismatchSample
from repro.circuits.mosfet import NmosDevice
from repro.circuits.sram_cell import CellState, DischargeStack, SramCell
from repro.circuits.technology import TechnologyCard
from repro.circuits.waveform import Waveform

ArrayLike = Union[float, np.ndarray]


@dataclasses.dataclass
class DischargeResult:
    """Outcome of one transient discharge simulation.

    Attributes
    ----------
    times:
        Simulation time grid in seconds (shared by all traces).
    voltages:
        Bit-line voltage traces; shape ``(..., len(times))`` where the
        leading dimensions follow the broadcast shape of the word-line
        voltage / mismatch inputs.
    conditions:
        PVT conditions of the run.
    wordline_voltage:
        The word-line voltage(s) that were applied.
    """

    times: np.ndarray
    voltages: np.ndarray
    conditions: OperatingConditions
    wordline_voltage: np.ndarray

    @property
    def final_voltage(self) -> np.ndarray:
        """Bit-line voltage at the end of the simulated window."""
        return self.voltages[..., -1]

    def voltage_at(self, time: float) -> np.ndarray:
        """Linearly interpolated bit-line voltage at ``time`` seconds."""
        if time < self.times[0] or time > self.times[-1]:
            raise ValueError(
                f"time {time:.3e} s outside simulated span "
                f"[{self.times[0]:.3e}, {self.times[-1]:.3e}] s"
            )
        flat = self.voltages.reshape(-1, self.times.shape[0])
        sampled = np.array([np.interp(time, self.times, row) for row in flat])
        if self.voltages.ndim == 1:
            return sampled[0]
        return sampled.reshape(self.voltages.shape[:-1])

    def delta_at(self, time: float) -> np.ndarray:
        """Discharge ``VDD - V_BLB(time)``."""
        return self.conditions.vdd - self.voltage_at(time)

    def waveform(self, index: int = 0) -> Waveform:
        """Extract one trace as a :class:`Waveform`."""
        flat = self.voltages.reshape(-1, self.times.shape[0])
        if not 0 <= index < flat.shape[0]:
            raise IndexError(f"trace index {index} out of range (have {flat.shape[0]})")
        return Waveform(times=self.times, values=flat[index], name="v(blb)")

    @property
    def trace_count(self) -> int:
        """Number of independent traces contained in the result."""
        if self.voltages.ndim == 1:
            return 1
        return int(np.prod(self.voltages.shape[:-1]))


class TransientSolver:
    """Fixed-step RK4 integrator of the bit-line discharge.

    Parameters
    ----------
    technology:
        Technology card (geometries, parasitics).
    bitline:
        Bit-line to discharge; defaults to the 64-row column of the card.
    time_step:
        Integration step in seconds.  The default (10 ps) resolves the
        nanosecond-scale discharge dynamics with RK4 error far below the
        millivolt scale that matters for the fitting experiments.
    voltage_grid_points:
        Resolution of the tabulated current-vs-voltage characteristic.
    """

    def __init__(
        self,
        technology: TechnologyCard,
        bitline: Optional[BitLine] = None,
        time_step: float = 10e-12,
        voltage_grid_points: int = 129,
    ) -> None:
        if time_step <= 0.0:
            raise ValueError("time_step must be positive")
        if voltage_grid_points < 16:
            raise ValueError("voltage_grid_points must be at least 16")
        self.technology = technology
        self.bitline = bitline or BitLine.from_technology(technology)
        self.time_step = time_step
        self.voltage_grid_points = voltage_grid_points

    # ------------------------------------------------------------------
    # Stack construction helpers
    # ------------------------------------------------------------------
    def _build_stack(
        self,
        conditions: OperatingConditions,
        mismatch: Union[MismatchSample, MismatchArrays, None],
    ) -> DischargeStack:
        """Build the discharge stack, possibly with vectorised mismatch."""
        if mismatch is None or isinstance(mismatch, MismatchSample):
            cell = SramCell(self.technology, CellState.ONE, mismatch)
            return cell.discharge_stack(conditions)

        # Vectorised Monte-Carlo: the threshold and gain offsets become
        # arrays inside the parameter set; the MOSFET equations broadcast.
        # Each offset gets a trailing axis so it broadcasts against the
        # voltage-grid axis the current table appends to the trace shape.
        base_cell = SramCell(self.technology, CellState.ONE)
        stack = base_cell.discharge_stack(conditions)
        vth_access = mismatch.vth_access[:, np.newaxis]
        beta_access = mismatch.beta_access[:, np.newaxis]
        vth_pulldown = mismatch.vth_pulldown[:, np.newaxis]
        beta_pulldown = mismatch.beta_pulldown[:, np.newaxis]
        access = dataclasses.replace(
            stack.access,
            threshold_voltage=stack.access.threshold_voltage + vth_access,
            gain=stack.access.gain * (1.0 + beta_access),
            leak_current=stack.access.leak_current * (1.0 + beta_access),
        )
        pulldown = dataclasses.replace(
            stack.pulldown,
            threshold_voltage=stack.pulldown.threshold_voltage + vth_pulldown,
            gain=stack.pulldown.gain * (1.0 + beta_pulldown),
            leak_current=stack.pulldown.leak_current * (1.0 + beta_pulldown),
        )
        return DischargeStack(access=access, pulldown=pulldown, vdd=conditions.vdd)

    def _current_table(
        self,
        stack: DischargeStack,
        wordline_voltage: np.ndarray,
        stored_bit: int,
        start_voltage: float,
        shape: tuple,
    ) -> tuple:
        """Tabulate the discharge current over a bit-line voltage grid.

        Returns ``(v_grid, currents)`` where ``v_grid`` descends from the
        pre-charge voltage to 0 V and ``currents`` has shape
        ``shape + (grid,)``.
        """
        grid = self.voltage_grid_points
        v_grid = np.linspace(start_voltage, 0.0, grid)
        if stored_bit == 0:
            table = stack.leakage_current(v_grid)
            table = np.broadcast_to(table, shape + (grid,)).copy()
        else:
            v_wl = np.broadcast_to(wordline_voltage, shape)[..., np.newaxis]
            v_bl = np.broadcast_to(v_grid, shape + (grid,))
            table = stack.current(v_bl, v_wl)
        return v_grid, np.maximum(table, 0.0)

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def simulate_discharge(
        self,
        wordline_voltage: ArrayLike,
        duration: float,
        conditions: Optional[OperatingConditions] = None,
        stored_bit: int = 1,
        mismatch: Union[MismatchSample, MismatchArrays, None] = None,
        initial_voltage: Optional[float] = None,
    ) -> DischargeResult:
        """Integrate the bit-line voltage for ``duration`` seconds.

        Parameters
        ----------
        wordline_voltage:
            Scalar or array of word-line voltages; the result broadcasts
            with the mismatch arrays, producing one trace per combination.
        duration:
            Simulated time window in seconds.
        conditions:
            PVT operating point; nominal conditions when omitted.
        stored_bit:
            The bit stored in the cell.  A stored '0' produces (almost) no
            discharge, reproducing the data dependence of paper Eq. 1.
        mismatch:
            A single mismatch sample, vectorised Monte-Carlo arrays or
            ``None`` for a matched cell.
        initial_voltage:
            Pre-charge voltage of the bit-line; defaults to VDD.
        """
        if duration <= 0.0:
            raise ValueError("duration must be positive")
        conditions = conditions or OperatingConditions.nominal(self.technology)
        if stored_bit not in (0, 1):
            raise ValueError("stored_bit must be 0 or 1")

        v_wl = np.asarray(wordline_voltage, dtype=float)
        if isinstance(mismatch, MismatchArrays):
            sample_shape = (len(mismatch),)
        else:
            sample_shape = ()
        shape = np.broadcast_shapes(v_wl.shape, sample_shape)

        steps = max(int(np.ceil(duration / self.time_step)), 2)
        times = np.linspace(0.0, duration, steps + 1)
        dt = times[1] - times[0]

        start_voltage = conditions.vdd if initial_voltage is None else float(initial_voltage)
        if start_voltage <= 0.0:
            raise ValueError("initial_voltage must be positive")

        stack = self._build_stack(conditions, mismatch)
        v_grid, table = self._current_table(
            stack, v_wl, stored_bit, start_voltage, shape
        )
        grid_step = float(v_grid[0] - v_grid[1])
        capacitance = self.bitline.capacitance

        # One row per trace.  Interpolation is ``lower + fraction * slope``
        # at a flat index into the row-major table; the slope table holds
        # the same ``upper - lower`` subtraction, computed once.  Clamping
        # the position to grid - 1.000001 caps the cell index at grid - 2,
        # so ``upper`` never leaves the row and the last slope column is
        # never read.
        grid = v_grid.size
        rows = int(np.prod(shape))
        table = table.reshape(rows, grid)
        slope = np.zeros_like(table)
        slope[:, :-1] = table[:, 1:] - table[:, :-1]
        table, slope = table.ravel(), slope.ravel()
        row_start = np.arange(rows) * grid
        top = grid - 1.000001

        def derivative(v: np.ndarray) -> np.ndarray:
            position = np.minimum(np.maximum((start_voltage - v) / grid_step, 0.0), top)
            index = position.astype(int)
            fraction = position - index
            flat_index = row_start + index
            current = table.take(flat_index) + fraction * slope.take(flat_index)
            return -current / capacitance

        voltage = np.full(rows, start_voltage)
        traces = np.empty((rows, steps + 1), dtype=float)
        traces[:, 0] = voltage

        for step in range(1, steps + 1):
            k1 = derivative(voltage)
            k2 = derivative(np.maximum(voltage + 0.5 * dt * k1, 0.0))
            k3 = derivative(np.maximum(voltage + 0.5 * dt * k2, 0.0))
            k4 = derivative(np.maximum(voltage + dt * k3, 0.0))
            voltage = voltage + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            voltage = np.maximum(voltage, 0.0)
            traces[:, step] = voltage

        return DischargeResult(
            times=times,
            voltages=traces.reshape(shape + (steps + 1,)),
            conditions=conditions,
            wordline_voltage=np.broadcast_to(v_wl, shape).copy() if shape else v_wl.copy(),
        )

    # ------------------------------------------------------------------
    # Convenience measurements
    # ------------------------------------------------------------------
    def discharge_at(
        self,
        wordline_voltage: ArrayLike,
        sampling_time: float,
        conditions: Optional[OperatingConditions] = None,
        stored_bit: int = 1,
        mismatch: Union[MismatchSample, MismatchArrays, None] = None,
    ) -> np.ndarray:
        """Discharge ``VDD - V_BLB`` at the ADC sampling instant.

        This is the quantity the OPTIMA models predict; characterisation
        sweeps call it directly instead of keeping full waveforms around.
        """
        result = self.simulate_discharge(
            wordline_voltage=wordline_voltage,
            duration=sampling_time,
            conditions=conditions,
            stored_bit=stored_bit,
            mismatch=mismatch,
        )
        return np.asarray(result.conditions.vdd - result.final_voltage)

    def saturation_time(
        self,
        wordline_voltage: float,
        conditions: Optional[OperatingConditions] = None,
        horizon: float = 4e-9,
    ) -> Optional[float]:
        """Time at which the access device leaves saturation (paper Eq. 2)."""
        conditions = conditions or OperatingConditions.nominal(self.technology)
        access = NmosDevice(
            self.technology,
            width=self.technology.access_width,
            length=self.technology.access_length,
        )
        limit = wordline_voltage - access.parameters(conditions).threshold_voltage
        if limit <= 0.0:
            return None
        result = self.simulate_discharge(wordline_voltage, horizon, conditions)
        return result.waveform().crossing_time(limit)
