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
and interpolates that table inside the RK4 loop.  This keeps the reference
simulator accurate while making the thousand-sample Monte-Carlo sweeps of
the characterisation flow practical.  It is still orders of magnitude slower
than evaluating the fitted OPTIMA polynomials, which is exactly the
comparison behind the paper's speed-up claim (see :mod:`repro.core.speedup`).

**Reach-bounded tables.**  A trace reads only the cells its voltage passes
through, and a short window leaves most of the grid unvisited.  So the
table is solved only where each trace can reach:

1. Column 0 (the start voltage) is bisected for every trace, giving ``I0``.
2. Every RK4 stage slope is at most the largest table current the stage
   reads.  If every solved cell of a row is at most ``I0 * (1 + slack)``,
   then by induction over the steps the trace falls by at most
   ``I0 * (1 + slack) * steps * dt / C`` and never leaves its solved cells.
3. The cells within that reach, plus the next cell the interpolation reads
   and one cell of margin, are bisected in one flat
   :meth:`DischargeStack.current` call.
4. A row with a solved cell above ``I0 * (1 + slack)`` breaks the induction
   and is solved whole in one more call.  The slack is set above the ~1e-6
   bisection noise of sub-threshold rows, so this stays rare.

Unsolved cells hold NaN, so a read past the bound would poison its trace
visibly instead of silently.  A table that fits in one
:data:`~repro.circuits.sram_cell.BISECTION_BLOCK` is solved whole in one
pass: a second pass would cost more in fixed overhead than it saves.

Both halves are arranged for speed without changing a single output bit:

* The table solve computes the pull-down device's gate terms once, since its
  gate sits at VDD, and bisects the internal node over flat, cache-sized
  blocks of cells.  Each cell is solved independently of every other, so
  which cells are solved, and in which call, does not change any value.
* The RK4 loop keeps one row per trace and interpolates with a flat
  ``take`` into the table and one into a precomputed slope table
  (``upper - lower``, the same subtraction the interpolation would do).

Every cell that is read still passes through the same float operations in
the same order; only where and when it is computed changes.  That is why
the waveforms are bit-identical to the direct whole-table evaluation, which
``tests/test_transient_oracle.py`` keeps as an oracle.

**One RK4 loop per batch.**  :meth:`TransientSolver.simulate_discharges`
integrates several runs (each a word-line voltage or voltages, operating
conditions and mismatch) over one window together.  Each run still builds
its own current table; the batch stacks the tables' rows, and the start
voltage and grid step become per-row arrays, while ``dt``, ``top`` and the
capacitance stay shared.  Most of the loop's cost is fixed per step, not
per row, so a batch pays it once instead of once per run.  :meth:`~TransientSolver.simulate_discharge` is the one-run case,
so there is exactly one RK4 loop.

Batching cannot change a bit: inside the loop a per-row value only passes
through elementwise ``+ - * /``, ``maximum`` / ``minimum``, ``astype(int)``
and ``take``.  These are exact IEEE operations whatever the vector length
and whether an operand is a scalar or an array, so every row comes out as
if its run had been integrated alone (``tests/test_transient_batch.py``).
"""

from __future__ import annotations

import dataclasses
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.circuits.bitline import BitLine
from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchArrays, MismatchSample
from repro.circuits.mosfet import NmosDevice
from repro.circuits.sram_cell import BISECTION_BLOCK, CellState, DischargeStack, SramCell
from repro.circuits.technology import TechnologyCard
from repro.circuits.waveform import Waveform

ArrayLike = Union[float, np.ndarray]

#: Relative headroom over a trace's start-voltage current in the reach
#: bound.  It covers the ~1e-6 bisection noise of sub-threshold rows, whose
#: current is flat in the bit-line voltage; a row with a solved cell above
#: it is solved whole.
_REACH_SLACK = 1e-4


def _stack_at_rows(stack: DischargeStack, shape: tuple, rows: np.ndarray) -> DischargeStack:
    """``stack`` with every array parameter taken at the given trace rows.

    Array parameters (Monte-Carlo mismatch) broadcast against ``shape +
    (grid,)`` with a trailing unit axis.  Flattened to one entry per trace
    and gathered at ``rows``, they give one parameter set per table cell;
    scalar parameters stay scalars.
    """

    def gather(record):
        arrays = {
            field.name: np.broadcast_to(getattr(record, field.name), shape + (1,)).ravel()[rows]
            for field in dataclasses.fields(record)
            if np.ndim(getattr(record, field.name)) > 0
        }
        return dataclasses.replace(record, **arrays)

    return dataclasses.replace(stack, access=gather(stack.access), pulldown=gather(stack.pulldown))


class DischargeRun(NamedTuple):
    """One transient of a :meth:`TransientSolver.simulate_discharges` batch.

    The fields are the per-run arguments of
    :meth:`TransientSolver.simulate_discharge`, in its order.
    """

    wordline_voltage: ArrayLike
    conditions: Optional[OperatingConditions] = None
    stored_bit: int = 1
    mismatch: Union[MismatchSample, MismatchArrays, None] = None
    initial_voltage: Optional[float] = None


class _PreparedRun(NamedTuple):
    """A validated run with its current table, ready to be stacked."""

    conditions: OperatingConditions
    shape: tuple
    wordline_voltage: np.ndarray
    start_voltage: float
    grid_step: float
    table: np.ndarray


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
        """Linearly interpolated bit-line voltage at ``time`` seconds.

        Every trace shares the time grid, so the bracketing interval is
        found once and ``np.interp``'s formula is applied to all rows at
        once, branches included: an exact grid point or the last point
        returns the sample itself, and a NaN from the lower end retries from
        the upper end.  The result is bit-identical to ``np.interp`` per row.
        """
        times = self.times
        if not times[0] <= time <= times[-1]:
            raise ValueError(
                f"time {time:.3e} s outside simulated span "
                f"[{times[0]:.3e}, {times[-1]:.3e}] s"
            )
        flat = self.voltages.reshape(-1, times.shape[0])
        j = int(np.searchsorted(times, time, side="right")) - 1
        if j == times.shape[0] - 1 or times[j] == time:
            sampled = flat[:, j].copy()
        else:
            lower, upper = flat[:, j], flat[:, j + 1]
            with np.errstate(invalid="ignore"):  # np.interp is quiet on inf - inf
                slope = (upper - lower) / (times[j + 1] - times[j])
                sampled = slope * (time - times[j]) + lower
                retry = np.isnan(sampled)
                if retry.any():
                    sampled[retry] = slope[retry] * (time - times[j + 1]) + upper[retry]
                    flat_line = np.isnan(sampled) & (lower == upper)
                    sampled[flat_line] = lower[flat_line]
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
        fall_per_amp: float,
    ) -> tuple:
        """Tabulate the discharge current over a bit-line voltage grid.

        Returns ``(v_grid, table)`` where ``v_grid`` descends from the
        pre-charge voltage to 0 V and ``table`` has one row per trace.  A
        trace whose start current is ``I0`` falls by at most
        ``I0 * fall_per_amp`` volts, so only the cells within that reach are
        solved; the others stay NaN (see the module docstring).
        """
        grid = self.voltage_grid_points
        v_grid = np.linspace(start_voltage, 0.0, grid)
        rows = int(np.prod(shape))
        if stored_bit == 0:
            leakage = np.broadcast_to(stack.leakage_current(v_grid), shape + (grid,))
            return v_grid, np.maximum(leakage, 0.0).reshape(rows, grid)

        v_wl = np.broadcast_to(wordline_voltage, shape)
        # Within one bisection block a single call over the whole table
        # costs less than the fixed cost of a second, partial one.
        if rows * grid <= BISECTION_BLOCK:
            table = stack.current(np.broadcast_to(v_grid, shape + (grid,)), v_wl[..., np.newaxis])
            return v_grid, np.maximum(table, 0.0).reshape(rows, grid)

        v_wl = v_wl.reshape(rows)
        table = np.full((rows, grid), np.nan)

        def solve(cell_rows: np.ndarray, first: ArrayLike, stop: ArrayLike) -> None:
            """Solve columns ``[first, stop)`` of each row, in one flat call."""
            first = np.broadcast_to(first, cell_rows.shape)
            counts = np.broadcast_to(stop, cell_rows.shape) - first
            offsets = first - (np.cumsum(counts) - counts)
            cell_rows = np.repeat(cell_rows, counts)
            columns = np.arange(counts.sum()) + np.repeat(offsets, counts)
            cells = _stack_at_rows(stack, shape, cell_rows)
            currents = cells.current(v_grid[columns], v_wl[cell_rows])
            table[cell_rows, columns] = np.maximum(currents, 0.0)

        every = np.arange(rows)
        solve(every, 0, 1)
        cap = table[:, 0] * (1.0 + _REACH_SLACK)
        reach = cap * fall_per_amp / float(v_grid[0] - v_grid[1])
        # RK4 reads the cell under the deepest stage point and the one after
        # it; one more cell absorbs rounding in the voltage updates.
        last = np.minimum(np.ceil(reach) + 2.0, grid - 1).astype(int)
        solve(every, 1, last + 1)
        over = np.fmax.reduce(table, axis=1) > cap
        if over.any():
            solve(every[over], last[over] + 1, grid)
        return v_grid, table

    # ------------------------------------------------------------------
    # Main entry points
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

        The one-run case of :meth:`simulate_discharges`.

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
        run = DischargeRun(wordline_voltage, conditions, stored_bit, mismatch, initial_voltage)
        return self.simulate_discharges([run], duration)[0]

    def simulate_discharges(
        self, runs: Sequence[DischargeRun], duration: float
    ) -> List[DischargeResult]:
        """Integrate several runs over one ``duration`` window in one RK4 loop.

        Each run is a :class:`DischargeRun` (or a tuple in its field order)
        and gets its own result, bit-identical to integrating it alone (see
        the module docstring).

        >>> from repro.circuits.technology import tsmc65_like
        >>> solver = TransientSolver(tsmc65_like())
        >>> hot = OperatingConditions(vdd=1.1, temperature=350.0)
        >>> together = solver.simulate_discharges([(0.9,), ([0.5, 0.7], hot)], 1e-9)
        >>> alone = [
        ...     solver.simulate_discharge(0.9, 1e-9),
        ...     solver.simulate_discharge([0.5, 0.7], 1e-9, hot),
        ... ]
        >>> [result.voltages.shape for result in together]
        [(102,), (2, 102)]
        >>> all(np.array_equal(a.voltages, b.voltages) for a, b in zip(together, alone))
        True
        """
        if duration <= 0.0:
            raise ValueError("duration must be positive")
        steps = max(int(np.ceil(duration / self.time_step)), 2)
        times = np.linspace(0.0, duration, steps + 1)
        dt = times[1] - times[0]
        capacitance = self.bitline.capacitance
        prepared = [self._prepare(DischargeRun(*run), steps * dt / capacitance) for run in runs]
        if not prepared:
            return []

        # One row per trace of every run.  Interpolation is ``lower +
        # fraction * slope`` at a flat index into the row-major table; the
        # slope table holds the same ``upper - lower`` subtraction, computed
        # once.  Clamping the position to grid - 1.000001 caps the cell index
        # at grid - 2, so ``upper`` never leaves the row and the last slope
        # column is never read.
        counts = [run.table.shape[0] for run in prepared]
        table = np.concatenate([run.table for run in prepared])
        start_voltage = np.repeat([run.start_voltage for run in prepared], counts)
        grid_step = np.repeat([run.grid_step for run in prepared], counts)
        rows, grid = table.shape
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

        voltage = start_voltage
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

        # A batch hands every run its own arrays, so no result pins the
        # stacked buffer or shares a time grid with another result.
        own = len(prepared) > 1
        results = []
        for run, stop in zip(prepared, np.cumsum(counts)):
            voltages = traces[stop - run.table.shape[0] : stop].copy() if own else traces
            results.append(
                DischargeResult(
                    times=times.copy() if own else times,
                    voltages=voltages.reshape(run.shape + (steps + 1,)),
                    conditions=run.conditions,
                    wordline_voltage=run.wordline_voltage,
                )
            )
        return results

    def _prepare(self, run: DischargeRun, fall_per_amp: float) -> _PreparedRun:
        """Validate one run and tabulate its current (see :meth:`_current_table`)."""
        conditions = run.conditions or OperatingConditions.nominal(self.technology)
        if run.stored_bit not in (0, 1):
            raise ValueError("stored_bit must be 0 or 1")

        v_wl = np.asarray(run.wordline_voltage, dtype=float)
        if isinstance(run.mismatch, MismatchArrays):
            sample_shape = (len(run.mismatch),)
        else:
            sample_shape = ()
        shape = np.broadcast_shapes(v_wl.shape, sample_shape)

        initial = run.initial_voltage
        start_voltage = conditions.vdd if initial is None else float(initial)
        if start_voltage <= 0.0:
            raise ValueError("initial_voltage must be positive")

        stack = self._build_stack(conditions, run.mismatch)
        v_grid, table = self._current_table(
            stack, v_wl, run.stored_bit, start_voltage, shape, fall_per_amp
        )
        return _PreparedRun(
            conditions=conditions,
            shape=shape,
            wordline_voltage=np.broadcast_to(v_wl, shape).copy() if shape else v_wl.copy(),
            start_voltage=start_voltage,
            grid_step=float(v_grid[0] - v_grid[1]),
            table=table,
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
