"""Differential tests: the reference discharge solver against a plain oracle.

The solver hoists the pull-down gate terms out of the series-stack
bisection, runs the bisection over fixed-size flat blocks, and interpolates
the current table with flat gathers into a value and a slope table.  None
of that may change a single output bit.  The oracle below is the direct
form those optimisations replaced: one I-V function evaluated whole, a
bisection over the full broadcast array, and a ``take_along_axis``
interpolation inside the same RK4 loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import (
    MismatchArrays,
    MismatchParameters,
    MismatchSample,
    MismatchSampler,
)
from repro.circuits.mosfet import (
    access_device,
    drain_current_from_gate,
    drain_current_from_parameters,
    gate_terms,
    pulldown_device,
)
from repro.circuits import transient
from repro.circuits.sram_cell import BISECTION_BLOCK, DischargeStack
from repro.circuits.technology import ProcessCorner, tsmc65_like
from repro.circuits.transient import DischargeRun, TransientSolver
from repro.core.characterization import CharacterizationPlan, _mismatch_rows_job

TECHNOLOGY = tsmc65_like()
NOMINAL = OperatingConditions.nominal(TECHNOLOGY)


# ----------------------------------------------------------------------
# Oracle: the unhoisted, unblocked solver
# ----------------------------------------------------------------------
def _reference_drain_current(params, vgs, vds):
    """The alpha-power-law I-V equation evaluated in one piece."""
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    vgs, vds = np.broadcast_arrays(vgs, vds)

    vds_clipped = np.maximum(vds, 0.0)
    overdrive = vgs - params.threshold_voltage

    n_factor = params.subthreshold_swing / (np.log(10.0) * params.thermal_voltage)
    sub_exponent = np.clip(
        np.minimum(overdrive, 0.0) / (n_factor * params.thermal_voltage), -80.0, 0.0
    )
    i_sub = (
        params.leak_current
        * np.exp(sub_exponent)
        * (1.0 - np.exp(-vds_clipped / params.thermal_voltage))
    )

    overdrive_pos = np.maximum(overdrive, 0.0)
    vdsat = np.maximum(overdrive_pos, 0.0) ** (params.alpha / 2.0)
    i_sat = (
        params.gain
        * overdrive_pos**params.alpha
        * (1.0 + params.channel_length_modulation * vds_clipped)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(vdsat > 0.0, np.minimum(vds_clipped / np.maximum(vdsat, 1e-12), 1.0), 0.0)
    i_triode = i_sat * (2.0 - ratio) * ratio
    i_strong = np.where(vds_clipped >= vdsat, i_sat, i_triode)

    current = np.where(overdrive > 0.0, i_strong + i_sub, i_sub)
    return np.maximum(current, 0.0)


def _reference_stack_current(stack, v_bl, v_wl):
    """Series-stack bisection over the whole broadcast array at once."""
    v_bl = np.asarray(v_bl, dtype=float)
    v_wl = np.asarray(v_wl, dtype=float)
    v_bl, v_wl = np.broadcast_arrays(v_bl, v_wl)

    low = np.zeros_like(v_bl)
    high = np.maximum(v_bl, 0.0)

    def balance(v_x):
        i_access = _reference_drain_current(stack.access, v_wl - v_x, v_bl - v_x)
        i_pulldown = _reference_drain_current(stack.pulldown, stack.vdd, v_x)
        return i_access - i_pulldown

    for _ in range(24):
        mid = 0.5 * (low + high)
        positive = balance(mid) > 0.0
        low = np.where(positive, mid, low)
        high = np.where(positive, high, mid)
    v_x = 0.5 * (low + high)
    return _reference_drain_current(stack.access, v_wl - v_x, v_bl - v_x)


def _reference_interpolate(voltage, start_voltage, grid_step, table):
    """Per-axis gather of the two neighbouring table entries."""
    grid_points = table.shape[-1]
    position = (start_voltage - voltage) / grid_step
    position = np.clip(position, 0.0, grid_points - 1.000001)
    index = position.astype(int)
    fraction = position - index
    lower = np.take_along_axis(table, index[..., np.newaxis], axis=-1)[..., 0]
    upper = np.take_along_axis(
        table, np.minimum(index + 1, grid_points - 1)[..., np.newaxis], axis=-1
    )[..., 0]
    return lower + fraction * (upper - lower)


def _reference_voltages(
    solver,
    wordline_voltage,
    duration,
    conditions,
    stored_bit=1,
    mismatch=None,
    initial_voltage=None,
):
    """Bit-line traces from the oracle path, shaped like ``DischargeResult.voltages``."""
    v_wl = np.asarray(wordline_voltage, dtype=float)
    sample_shape = (len(mismatch),) if isinstance(mismatch, MismatchArrays) else ()
    shape = np.broadcast_shapes(v_wl.shape, sample_shape)
    steps = max(int(np.ceil(duration / solver.time_step)), 2)
    times = np.linspace(0.0, duration, steps + 1)
    dt = times[1] - times[0]
    start_voltage = conditions.vdd if initial_voltage is None else float(initial_voltage)

    stack = solver._build_stack(conditions, mismatch)
    grid = solver.voltage_grid_points
    v_grid = np.linspace(start_voltage, 0.0, grid)
    if stored_bit == 0:
        leak = _reference_drain_current(
            stack.access, 0.0, np.maximum(v_grid - stack.vdd, 0.0)
        )
        table = np.broadcast_to(leak, shape + (grid,)).copy()
    else:
        v_wl_grid = np.broadcast_to(v_wl, shape)[..., np.newaxis]
        v_bl_grid = np.broadcast_to(v_grid, shape + (grid,))
        table = _reference_stack_current(stack, v_bl_grid, v_wl_grid)
    table = np.maximum(table, 0.0)
    grid_step = float(v_grid[0] - v_grid[1])
    capacitance = solver.bitline.capacitance

    def derivative(v):
        return -_reference_interpolate(v, start_voltage, grid_step, table) / capacitance

    voltage = np.full(shape, start_voltage)
    traces = np.empty(shape + (steps + 1,))
    traces[..., 0] = voltage
    for step in range(1, steps + 1):
        k1 = derivative(voltage)
        k2 = derivative(np.maximum(voltage + 0.5 * dt * k1, 0.0))
        k3 = derivative(np.maximum(voltage + 0.5 * dt * k2, 0.0))
        k4 = derivative(np.maximum(voltage + dt * k3, 0.0))
        voltage = voltage + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        voltage = np.maximum(voltage, 0.0)
        traces[..., step] = voltage
    return traces


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
conditions_strategy = st.builds(
    OperatingConditions,
    vdd=st.floats(min_value=0.8, max_value=1.2),
    temperature=st.floats(min_value=233.0, max_value=398.0),
    corner=st.sampled_from(list(ProcessCorner)),
)


def _mismatch_arrays(count, seed):
    parameters = MismatchParameters.from_technology(TECHNOLOGY)
    return MismatchSampler(parameters, seed=seed).sample_arrays(count)


def _assert_same_traces(solver, wordline_voltage, duration, conditions, **kwargs):
    result = solver.simulate_discharge(wordline_voltage, duration, conditions, **kwargs)
    expected = _reference_voltages(solver, wordline_voltage, duration, conditions, **kwargs)
    assert result.voltages.shape == expected.shape
    assert np.array_equal(result.voltages, expected)


# ----------------------------------------------------------------------
# Solver vs oracle
# ----------------------------------------------------------------------
class TestSolverMatchesOracle:
    @given(
        conditions=conditions_strategy,
        v_wl=st.floats(min_value=0.0, max_value=1.2),
        stored_bit=st.sampled_from([0, 1]),
        duration=st.floats(min_value=0.05e-9, max_value=1.5e-9),
        start_fraction=st.one_of(st.none(), st.floats(min_value=0.3, max_value=1.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_scalar_wordline(self, conditions, v_wl, stored_bit, duration, start_fraction):
        initial = None if start_fraction is None else start_fraction * conditions.vdd
        _assert_same_traces(
            TransientSolver(TECHNOLOGY), v_wl, duration, conditions,
            stored_bit=stored_bit, initial_voltage=initial,
        )

    @given(
        conditions=conditions_strategy,
        v_wl=st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1, max_size=16),
        stored_bit=st.sampled_from([0, 1]),
        start_fraction=st.one_of(st.none(), st.floats(min_value=0.3, max_value=1.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_wordline_vector(self, conditions, v_wl, stored_bit, start_fraction):
        initial = None if start_fraction is None else start_fraction * conditions.vdd
        _assert_same_traces(
            TransientSolver(TECHNOLOGY), np.array(v_wl), 1.0e-9, conditions,
            stored_bit=stored_bit, initial_voltage=initial,
        )

    @given(
        conditions=conditions_strategy,
        v_wl=st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1, max_size=4),
        samples=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
        stored_bit=st.sampled_from([0, 1]),
        start_fraction=st.one_of(st.none(), st.floats(min_value=0.3, max_value=1.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_wordline_by_mismatch_arrays(
        self, conditions, v_wl, samples, seed, stored_bit, start_fraction
    ):
        initial = None if start_fraction is None else start_fraction * conditions.vdd
        _assert_same_traces(
            TransientSolver(TECHNOLOGY), np.array(v_wl)[:, np.newaxis], 0.8e-9, conditions,
            stored_bit=stored_bit, mismatch=_mismatch_arrays(samples, seed),
            initial_voltage=initial,
        )

    @given(
        conditions=conditions_strategy,
        offsets=st.tuples(*[st.floats(min_value=-0.05, max_value=0.05)] * 4),
    )
    @settings(max_examples=15, deadline=None)
    def test_single_mismatch_sample(self, conditions, offsets):
        _assert_same_traces(
            TransientSolver(TECHNOLOGY), np.array([0.4, 0.7, 1.0]), 1.0e-9, conditions,
            mismatch=MismatchSample(*offsets),
        )

    @pytest.mark.parametrize(
        "traces, grid_points",
        [(3, 2731), (25, 983)],  # 8193 = block + 1 and 24575 = 3 * block - 1 elements
    )
    def test_current_tables_straddling_the_block_size(self, traces, grid_points):
        assert traces * grid_points in (BISECTION_BLOCK + 1, 3 * BISECTION_BLOCK - 1)
        solver = TransientSolver(TECHNOLOGY, voltage_grid_points=grid_points)
        conditions = NOMINAL.with_corner(ProcessCorner.SLOW)
        _assert_same_traces(
            solver, np.linspace(0.2, 1.1, traces), 0.3e-9, conditions
        )
        _assert_same_traces(
            solver, 0.9, 0.3e-9, conditions, mismatch=_mismatch_arrays(traces, 7)
        )


# ----------------------------------------------------------------------
# Reach-bounded current tables vs oracle
# ----------------------------------------------------------------------
#: Traces of the widest table that is still solved whole in one block.
ONE_BLOCK_TRACES = BISECTION_BLOCK // 129


class TestReachBoundedTable:
    @given(
        conditions=conditions_strategy,
        v_wl=st.lists(st.floats(min_value=0.2, max_value=1.1), min_size=1, max_size=2),
        samples=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
        duration=st.floats(min_value=0.05e-9, max_value=4.0e-9),
        grid_points=st.integers(min_value=16, max_value=257),
        stored_bit=st.sampled_from([0, 1, 1]),
        start_fraction=st.one_of(st.none(), st.floats(min_value=0.3, max_value=1.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_mismatch_traces_match_the_oracle(
        self, conditions, v_wl, samples, seed, duration, grid_points, stored_bit, start_fraction
    ):
        initial = None if start_fraction is None else start_fraction * conditions.vdd
        solver = TransientSolver(TECHNOLOGY, voltage_grid_points=grid_points)
        v_wl = np.array(v_wl)[:, np.newaxis]
        kwargs = dict(
            stored_bit=stored_bit, mismatch=_mismatch_arrays(samples, seed), initial_voltage=initial
        )
        result = solver.simulate_discharge(v_wl, duration, conditions, **kwargs)
        expected = _reference_voltages(solver, v_wl, duration, conditions, **kwargs)
        assert np.all(np.isfinite(result.voltages))
        assert np.array_equal(result.voltages, expected)

    @pytest.mark.parametrize("samples, passes", [(ONE_BLOCK_TRACES, 1), (ONE_BLOCK_TRACES + 1, 2)])
    @pytest.mark.parametrize("duration", [0.3e-9, 4.0e-9])
    @pytest.mark.parametrize("v_wl", [0.25, 0.7, 1.1])
    def test_both_sides_of_the_one_block_cut_over(
        self, monkeypatch, samples, passes, duration, v_wl
    ):
        # 4 ns discharges the fast corner to the bottom of the grid, so the
        # reach covers every cell.
        calls = _count_stack_cells(monkeypatch)
        _assert_same_traces(
            TransientSolver(TECHNOLOGY), v_wl, duration, NOMINAL.with_corner(ProcessCorner.FAST),
            mismatch=_mismatch_arrays(samples, 11),
        )
        assert len(calls) == passes

    def test_rows_above_the_start_current_are_solved_whole(self, monkeypatch):
        # With no slack, the sub-threshold rows' bisection noise lifts some
        # solved cells above the start current; those rows take the
        # whole-row pass, and the traces still match the oracle.
        monkeypatch.setattr(transient, "_REACH_SLACK", 0.0)
        calls = _count_stack_cells(monkeypatch)
        _assert_same_traces(
            TransientSolver(TECHNOLOGY), 0.25, 2.0e-9, NOMINAL,
            mismatch=_mismatch_arrays(250, 2024),
        )
        assert len(calls) == 3

    def test_unreached_cells_stay_nan(self):
        solver = TransientSolver(TECHNOLOGY)
        mismatch = _mismatch_arrays(100, 5)
        v_wl = np.array([[0.4], [1.0]])
        fall_per_amp = 0.5e-9 / solver.bitline.capacitance
        run = solver._prepare(DischargeRun(v_wl, NOMINAL, 1, mismatch))
        table = solver._current_tables([run], fall_per_amp)
        _assert_solved_prefix_matches_oracle(
            table, solver._build_stack(NOMINAL, mismatch), v_wl, NOMINAL.vdd
        )

    def test_unreached_cells_stay_nan_across_two_runs(self):
        # One batch solve covers runs with their own supply (so their own
        # voltage grid and pull-down gate) and temperature.
        solver = TransientSolver(TECHNOLOGY)
        v_wl = np.array([[0.4], [1.0]])
        fall_per_amp = 0.5e-9 / solver.bitline.capacitance
        runs = [
            (NOMINAL, _mismatch_arrays(100, 5)),
            (OperatingConditions(vdd=0.9, temperature=358.15), _mismatch_arrays(80, 6)),
        ]
        prepared = [
            solver._prepare(DischargeRun(v_wl, conditions, 1, mismatch))
            for conditions, mismatch in runs
        ]
        table = solver._current_tables(prepared, fall_per_amp)
        assert table.shape == (360, 129)
        for (conditions, mismatch), rows in zip(runs, (slice(0, 200), slice(200, 360))):
            _assert_solved_prefix_matches_oracle(
                table[rows], solver._build_stack(conditions, mismatch), v_wl, conditions.vdd
            )

    def test_characterize_mismatch_job_solves_under_60_percent_of_the_table(
        self, monkeypatch
    ):
        plan = CharacterizationPlan()
        calls = _count_stack_cells(monkeypatch)
        sigma_rows = _mismatch_rows_job(TECHNOLOGY, plan, NOMINAL)
        assert np.all(np.isfinite(sigma_rows))
        full = len(plan.mismatch_wordline_voltages) * plan.mismatch_samples * 129
        assert sum(calls) < 0.6 * full


def _assert_solved_prefix_matches_oracle(table, stack, v_wl, vdd):
    """Some cells of every row, but not all, are solved, and they match the oracle."""
    solved = ~np.isnan(table)
    assert solved[:, 0].all() and not solved.all()
    # Solved cells are a prefix of each row and match the full table.
    assert np.array_equal(np.sort(solved, axis=1)[:, ::-1], solved)
    full = np.maximum(_reference_stack_current(
        stack, np.linspace(vdd, 0.0, 129), v_wl[..., np.newaxis]
    ), 0.0).reshape(table.shape)
    assert np.array_equal(table[solved], full[solved])


def _count_stack_cells(monkeypatch):
    """Record the cell count of every ``DischargeStack.current`` call."""
    calls = []
    current = DischargeStack.current

    def counting(stack, v_bl, v_wl, *rows):
        currents = current(stack, v_bl, v_wl, *rows)
        calls.append(np.size(currents))
        return currents

    monkeypatch.setattr(DischargeStack, "current", counting)
    return calls


# ----------------------------------------------------------------------
# Stack current vs oracle, block boundaries included
# ----------------------------------------------------------------------
class TestStackCurrentMatchesOracle:
    @pytest.mark.parametrize(
        "size",
        [1, BISECTION_BLOCK - 1, BISECTION_BLOCK, BISECTION_BLOCK + 1, 3 * BISECTION_BLOCK - 1],
    )
    def test_flat_sizes_around_the_block(self, size):
        rng = np.random.default_rng(size)
        mismatch = _mismatch_arrays(size, size)
        stack = TransientSolver(TECHNOLOGY)._build_stack(NOMINAL, mismatch)
        v_bl = rng.uniform(-0.1, 1.2, (size, 1))
        v_wl = rng.uniform(0.0, 1.2, (size, 1))
        currents = stack.current(v_bl, v_wl)
        assert currents.shape == (size, 1)
        assert np.array_equal(currents, _reference_stack_current(stack, v_bl, v_wl))

    def test_broadcast_parameters_against_a_grid(self):
        stack = TransientSolver(TECHNOLOGY)._build_stack(NOMINAL, _mismatch_arrays(50, 3))
        v_bl = np.linspace(1.0, 0.0, 129)
        v_wl = np.linspace(0.3, 1.0, 4)[:, np.newaxis, np.newaxis]
        currents = stack.current(v_bl, v_wl)
        assert currents.shape == (4, 50, 129)
        assert np.array_equal(currents, _reference_stack_current(stack, v_bl, v_wl))

    def test_scalar_inputs(self):
        stack = TransientSolver(TECHNOLOGY)._build_stack(NOMINAL, None)
        current = stack.current(0.6, 0.8)
        assert np.shape(current) == ()
        assert current == _reference_stack_current(stack, 0.6, 0.8)


# ----------------------------------------------------------------------
# Gate / drain split vs the one-piece I-V equation
# ----------------------------------------------------------------------
class TestGateDrainSplit:
    @staticmethod
    def _devices(conditions):
        return [
            access_device(TECHNOLOGY).parameters(conditions),
            pulldown_device(TECHNOLOGY, vth_offset=0.03, gain_offset=-0.02).parameters(
                conditions
            ),
        ]

    @given(
        conditions=conditions_strategy,
        vgs=st.floats(min_value=-0.5, max_value=1.5),
        vds=st.floats(min_value=-0.5, max_value=1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_composition_equals_one_piece(self, conditions, vgs, vds):
        for params in self._devices(conditions):
            split = drain_current_from_gate(params, gate_terms(params, vgs), vds)
            assert np.array_equal(split, _reference_drain_current(params, vgs, vds))
            assert np.array_equal(
                drain_current_from_parameters(params, vgs, vds),
                _reference_drain_current(params, vgs, vds),
            )

    def test_edge_regions(self):
        """Sub-threshold gates, negative drains and ``V_dsat == 0`` exactly."""
        for params in self._devices(NOMINAL):
            vth = float(params.threshold_voltage)
            vgs = np.array([-0.3, 0.0, vth - 0.2, vth - 1e-9, vth, vth + 1e-9, 1.0])
            vds = np.array([-0.4, -1e-12, 0.0, 1e-12, 0.05, 0.5, 1.2])
            grid_gs, grid_ds = np.meshgrid(vgs, vds, indexing="ij")
            gate = gate_terms(params, grid_gs)
            assert np.any(gate.saturation_voltage == 0.0)
            split = drain_current_from_gate(params, gate, grid_ds)
            assert np.array_equal(split, _reference_drain_current(params, grid_gs, grid_ds))

    def test_array_parameters_broadcast_like_the_one_piece_form(self):
        stack = TransientSolver(TECHNOLOGY)._build_stack(NOMINAL, _mismatch_arrays(9, 1))
        vds = np.linspace(-0.2, 1.2, 31)
        access_vgs = np.linspace(0.0, 1.2, 31)
        for params, vgs in ((stack.access, access_vgs), (stack.pulldown, NOMINAL.vdd)):
            split = drain_current_from_gate(params, gate_terms(params, vgs), vds)
            expected = _reference_drain_current(params, vgs, vds)
            assert split.shape == expected.shape == (9, 31)
            assert np.array_equal(split, expected)
