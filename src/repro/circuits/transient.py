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
tabulates the stack current over a dense bit-line-voltage grid once per
trace and interpolates that table inside the RK4 loop.  This keeps the
reference simulator accurate while making the thousand-sample Monte-Carlo
sweeps of the characterisation flow practical.  It is still orders of
magnitude slower than evaluating the fitted OPTIMA polynomials, which is
exactly the comparison behind the paper's speed-up claim (see
:mod:`repro.core.speedup`).

**One batch, one table solve, one RK4 loop.**
:meth:`TransientSolver.simulate_discharges` integrates several runs (each
a word-line voltage or voltages, operating conditions, stored bit and
mismatch) over one window together; :meth:`~TransientSolver.simulate_discharge`
is the one-run case, so there is exactly one table solve and one RK4 loop.
Every trace of every run is one row.  Most of the cost of a
:meth:`~repro.circuits.sram_cell.DischargeStack.current` call (24
bisection steps, each a few dozen array operations) and of an RK4 step is
fixed, not per row, so a batch pays it once instead of once per run.

* The stack parameters of all runs are stacked one value per row; a
  parameter every run shares as one scalar (the technology's ``alpha`` and
  channel-length modulation) stays a scalar.  Each cell carries its row
  index, and :meth:`DischargeStack.current` gathers the per-row values one
  :data:`~repro.circuits.sram_cell.BISECTION_BLOCK` at a time, so no
  per-cell parameter array outgrows a block.
* Stored-bit-0 rows hold their run's leakage table; only stored-bit-1 rows
  are bisected.
* In the RK4 loop the start voltage and grid step are per-row arrays, while
  ``dt``, ``top`` and the capacitance stay shared.

**Reach-bounded tables.**  A trace reads only the cells its voltage passes
through, and a short window leaves most of the grid unvisited.  So the
batch's table is solved only where each trace can reach, in at most three
flat :meth:`DischargeStack.current` calls over every stored-bit-1 row:

1. Column 0 (the start voltage) is bisected for every row, giving ``I0``.
2. Every RK4 stage slope is at most the largest table current the stage
   reads.  If every solved cell of a row is at most ``I0 * (1 + slack)``,
   then by induction over the steps the trace falls by at most
   ``I0 * (1 + slack) * steps * dt / C`` and never leaves its solved cells.
   The cells within that reach, plus the next cell the interpolation reads
   and one cell of margin, are bisected in the second call.
3. A row with a solved cell above ``I0 * (1 + slack)`` breaks the induction
   and the rest of it is solved in a third call.  The slack is set above
   the ~1e-6 bisection noise of sub-threshold rows, so this stays rare.

Unsolved cells hold NaN, so a read past the bound would poison its trace
visibly instead of silently.  When all the batch's stored-bit-1 rows fit
in one ``BISECTION_BLOCK`` of cells (one Fig. 5 panel, a 50-sample
Monte-Carlo shard), they are solved whole in one call: a second call would
cost more in fixed overhead than it saves.

None of this changes a single output bit:

* The table solve computes the pull-down device's gate terms once per row,
  since its gate sits at VDD, and bisects the internal node over flat,
  cache-sized blocks of cells.  Each cell is solved independently of every
  other, so which cells are solved, in which call and beside which run,
  does not change any value.
* The RK4 loop interpolates with a flat ``take`` into the table and one
  into a precomputed slope table (``upper - lower``, the same subtraction
  the interpolation would do).  Inside the loop a per-row value only passes
  through elementwise ``+ - * /``, ``maximum`` / ``minimum``,
  ``astype(int)`` and ``take``.

These are exact IEEE operations whatever the vector length and whether an
operand is a scalar or an array, and every cell that is read passes
through the same float operations in the same order; only where and when
it is computed changes.  So every row comes out as if its run had been
integrated alone (``tests/test_transient_batch.py``), and bit-identical to
the direct whole-table evaluation that ``tests/test_transient_oracle.py``
keeps as an oracle.
"""

from __future__ import annotations

import dataclasses
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.circuits.bitline import BitLine
from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchArrays, MismatchSample
from repro.circuits.sram_cell import BISECTION_BLOCK, CellState, DischargeStack, SramCell
from repro.circuits.technology import TechnologyCard
from repro.circuits.waveform import Waveform

ArrayLike = Union[float, np.ndarray]

#: Relative headroom over a trace's start-voltage current in the reach
#: bound.  It covers the ~1e-6 bisection noise of sub-threshold rows, whose
#: current is flat in the bit-line voltage; a row with a solved cell above
#: it is solved whole.
_REACH_SLACK = 1e-4


def _per_row(values: Sequence[ArrayLike], shapes: Sequence[tuple]) -> ArrayLike:
    """One stack parameter of every run of a batch, one entry per trace row.

    A run's array parameters (Monte-Carlo mismatch) broadcast against its
    ``shape + (grid,)`` with a trailing unit axis, so broadcast to ``shape +
    (1,)`` and flattened they give one entry per trace.  A parameter every
    run holds as the same scalar (a technology constant such as ``alpha``)
    stays a scalar: NumPy computes ``x ** 2.0`` or ``x ** 0.5`` with a
    scalar exponent through a different, not always bit-equal, routine
    than with an array of exponents.
    """
    if all(np.ndim(value) == 0 for value in values) and len(set(map(float, values))) == 1:
        return values[0]
    return np.concatenate(
        [np.broadcast_to(value, shape + (1,)).ravel() for value, shape in zip(values, shapes)]
    )


def _batch_stack(stacks: Sequence[DischargeStack], shapes: Sequence[tuple]) -> DischargeStack:
    """The discharge stacks of a batch's runs as one stack of per-row parameters."""

    def merge(records):
        per_row = {
            field.name: _per_row([getattr(record, field.name) for record in records], shapes)
            for field in dataclasses.fields(records[0])
        }
        return dataclasses.replace(records[0], **per_row)

    return DischargeStack(
        access=merge([stack.access for stack in stacks]),
        pulldown=merge([stack.pulldown for stack in stacks]),
        vdd=_per_row([stack.vdd for stack in stacks], shapes),
    )


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
    """A validated run with its discharge stack and voltage grid."""

    conditions: OperatingConditions
    shape: tuple
    wordline_voltage: np.ndarray
    stored_bit: int
    stack: DischargeStack
    v_grid: np.ndarray


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

    def waveform(self, index: int = 0) -> Waveform:
        """Extract one trace as a :class:`Waveform`."""
        flat = self.voltages.reshape(-1, self.times.shape[0])
        if not 0 <= index < flat.shape[0]:
            raise IndexError(f"trace index {index} out of range (have {flat.shape[0]})")
        return Waveform(times=self.times, values=flat[index], name="v(blb)")


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

    def _current_tables(
        self, prepared: Sequence[_PreparedRun], fall_per_amp: float
    ) -> np.ndarray:
        """Tabulate the discharge current of every trace of a batch.

        Returns one row per trace, run after run, over the run's voltage
        grid (its start voltage down to 0 V).  Stored-bit-0 rows hold the
        leakage.  The stored-bit-1 rows of every run are bisected together in
        at most three flat :meth:`DischargeStack.current` calls.  A trace
        whose start current is ``I0`` falls by at most ``I0 * fall_per_amp``
        volts, so only the cells within that reach are solved; the others
        stay NaN (see the module docstring).
        """
        grid = self.voltage_grid_points
        shapes = [run.shape for run in prepared]
        counts = [int(np.prod(shape)) for shape in shapes]
        run_of_row = np.repeat(np.arange(len(prepared)), counts)
        table = np.full((run_of_row.size, grid), np.nan)
        for run, stop, count in zip(prepared, np.cumsum(counts), counts):
            if run.stored_bit == 0:
                leakage = run.stack.leakage_current(run.v_grid)
                leakage = np.broadcast_to(leakage, run.shape + (grid,)).reshape(count, grid)
                table[stop - count : stop] = np.maximum(leakage, 0.0)
        every = np.flatnonzero(np.repeat([run.stored_bit for run in prepared], counts))
        if not every.size:
            return table

        stack = _batch_stack([run.stack for run in prepared], shapes)
        v_wl = np.concatenate([run.wordline_voltage.ravel() for run in prepared])
        v_grids = np.stack([run.v_grid for run in prepared])

        def solve(rows: np.ndarray, first: ArrayLike, stop: ArrayLike) -> None:
            """Solve columns ``[first, stop)`` of each row, in one flat call."""
            first = np.broadcast_to(first, rows.shape)
            counts = np.broadcast_to(stop, rows.shape) - first
            offsets = first - (np.cumsum(counts) - counts)
            cell_rows = np.repeat(rows, counts)
            columns = np.arange(counts.sum()) + np.repeat(offsets, counts)
            currents = stack.current(v_grids[run_of_row[cell_rows], columns], v_wl, cell_rows)
            table[cell_rows, columns] = np.maximum(currents, 0.0)

        # Within one bisection block a single call over every whole row
        # costs less than the fixed cost of a second, partial one.
        if every.size * grid <= BISECTION_BLOCK:
            solve(every, 0, grid)
            return table
        solve(every, 0, 1)
        cap = table[every, 0] * (1.0 + _REACH_SLACK)
        grid_step = v_grids[:, 0] - v_grids[:, 1]
        reach = cap * fall_per_amp / grid_step[run_of_row[every]]
        # RK4 reads the cell under the deepest stage point and the one after
        # it; one more cell absorbs rounding in the voltage updates.
        last = np.minimum(np.ceil(reach) + 2.0, grid - 1).astype(int)
        solve(every, 1, last + 1)
        over = np.fmax.reduce(table[every], axis=1) > cap
        if over.any():
            solve(every[over], last[over] + 1, grid)
        return table

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
        prepared = [self._prepare(DischargeRun(*run)) for run in runs]
        if not prepared:
            return []
        table = self._current_tables(prepared, steps * dt / capacitance)

        # One row per trace of every run.  Interpolation is ``lower +
        # fraction * slope`` at a flat index into the row-major table; the
        # slope table holds the same ``upper - lower`` subtraction, computed
        # once.  Clamping the position to grid - 1.000001 caps the cell index
        # at grid - 2, so ``upper`` never leaves the row and the last slope
        # column is never read.
        counts = [int(np.prod(run.shape)) for run in prepared]
        start_voltage = np.repeat([run.v_grid[0] for run in prepared], counts)
        grid_step = np.repeat([float(run.v_grid[0] - run.v_grid[1]) for run in prepared], counts)
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
        for run, stop, count in zip(prepared, np.cumsum(counts), counts):
            voltages = traces[stop - count : stop].copy() if own else traces
            results.append(
                DischargeResult(
                    times=times.copy() if own else times,
                    voltages=voltages.reshape(run.shape + (steps + 1,)),
                    conditions=run.conditions,
                    wordline_voltage=run.wordline_voltage,
                )
            )
        return results

    def _prepare(self, run: DischargeRun) -> _PreparedRun:
        """Validate one run and build its discharge stack and voltage grid."""
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

        return _PreparedRun(
            conditions=conditions,
            shape=shape,
            wordline_voltage=np.broadcast_to(v_wl, shape).copy() if shape else v_wl.copy(),
            stored_bit=run.stored_bit,
            stack=self._build_stack(conditions, run.mismatch),
            v_grid=np.linspace(start_voltage, 0.0, self.voltage_grid_points),
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
