"""Differential tests: one RK4 loop per batch changes no output bit.

:meth:`TransientSolver.simulate_discharges` stacks the current tables of
several runs and integrates all their traces in one loop.  Each run must
come back exactly as if it had been integrated alone, and exactly as the
plain oracle of ``tests/test_transient_oracle.py`` computes it.  The
callers that batch their transients (``characterize`` and Fig. 5a-c under
the default engine, Fig. 4a over its voltage array) must match the
one-transient-per-job path field by field.  The batch solve's call counts
and block-sized parameter gathers are pinned here too.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import nonidealities, pvt_sweeps
from repro.circuits import sram_cell
from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchSample
from repro.circuits.sram_cell import BISECTION_BLOCK
from repro.circuits.technology import ProcessCorner
from repro.circuits.transient import DischargeRun, TransientSolver
from repro.core.characterization import CharacterizationPlan, characterize
from repro.runtime import SweepEngine, make_executor

from test_transient_oracle import (
    NOMINAL,
    TECHNOLOGY,
    _count_stack_cells,
    _mismatch_arrays,
    _reference_voltages,
    conditions_strategy,
)


@st.composite
def discharge_runs(draw):
    """One run: PVT point, mismatch kind, scalar or array V_WL, bit, start."""
    conditions = draw(conditions_strategy)
    kind = draw(st.sampled_from(["none", "sample", "arrays"]))
    voltages = draw(st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1, max_size=3))
    v_wl = voltages[0] if draw(st.booleans()) else np.array(voltages)
    mismatch = None
    if kind == "sample":
        offsets = draw(st.tuples(*[st.floats(min_value=-0.05, max_value=0.05)] * 4))
        mismatch = MismatchSample(*offsets)
    elif kind == "arrays":
        samples = draw(st.integers(min_value=1, max_value=120))
        mismatch = _mismatch_arrays(samples, draw(st.integers(min_value=0, max_value=2**16)))
        v_wl = np.atleast_1d(v_wl)[:, np.newaxis]
    start_fraction = draw(st.one_of(st.none(), st.floats(min_value=0.3, max_value=1.0)))
    initial = None if start_fraction is None else start_fraction * conditions.vdd
    return DischargeRun(v_wl, conditions, draw(st.sampled_from([0, 1, 1])), mismatch, initial)


class TestBatchMatchesEachRunAlone:
    @given(
        runs=st.lists(discharge_runs(), min_size=1, max_size=4),
        duration=st.floats(min_value=0.05e-9, max_value=1.5e-9),
    )
    @settings(max_examples=30, deadline=None)
    def test_mixed_runs(self, runs, duration):
        solver = TransientSolver(TECHNOLOGY)
        together = solver.simulate_discharges(runs, duration)
        assert len(together) == len(runs)
        for run, result in zip(runs, together):
            alone = solver.simulate_discharge(run.wordline_voltage, duration, *run[1:])
            assert result.voltages.shape == alone.voltages.shape
            assert np.array_equal(result.voltages, alone.voltages)
            assert np.array_equal(result.times, alone.times)
            assert np.array_equal(result.wordline_voltage, alone.wordline_voltage)
            assert result.conditions == alone.conditions
            oracle = _reference_voltages(
                solver,
                run.wordline_voltage,
                duration,
                run.conditions,
                stored_bit=run.stored_bit,
                mismatch=run.mismatch,
                initial_voltage=run.initial_voltage,
            )
            assert np.array_equal(result.voltages, oracle)

    def test_results_own_their_arrays(self):
        solver = TransientSolver(TECHNOLOGY)
        runs = [(0.9,), ([0.4, 0.8], NOMINAL), (0.7, NOMINAL, 1, _mismatch_arrays(30, 1))]
        results = solver.simulate_discharges(runs, 0.5e-9)
        for index, result in enumerate(results):
            for array in (result.voltages, result.times):
                assert array.base is None or array.base.size == array.size
            for other in results[index + 1 :]:
                assert not np.shares_memory(result.voltages, other.voltages)
                assert not np.shares_memory(result.times, other.times)

    def test_empty_batch_and_invalid_runs(self):
        solver = TransientSolver(TECHNOLOGY)
        assert solver.simulate_discharges([], 1e-9) == []
        with pytest.raises(ValueError, match="duration"):
            solver.simulate_discharges([(0.9,)], 0.0)
        with pytest.raises(ValueError, match="stored_bit"):
            solver.simulate_discharges([(0.9,), (0.9, None, 2)], 1e-9)
        with pytest.raises(ValueError, match="initial_voltage"):
            solver.simulate_discharges([(0.9, None, 1, None, -0.1)], 1e-9)


# ----------------------------------------------------------------------
# Batched callers vs the per-job path
# ----------------------------------------------------------------------
def _count_batches(monkeypatch):
    """Record the run count of every ``simulate_discharges`` call."""
    calls = []
    simulate = TransientSolver.simulate_discharges

    def counting(solver, runs, duration):
        calls.append(len(runs))
        return simulate(solver, runs, duration)

    monkeypatch.setattr(TransientSolver, "simulate_discharges", counting)
    return calls


def _assert_same_fields(batched, per_job):
    for field in dataclasses.fields(batched):
        left, right = getattr(batched, field.name), getattr(per_job, field.name)
        if dataclasses.is_dataclass(left) and not isinstance(left, type):
            if field.name in ("technology", "plan"):
                assert left == right
                continue
            for column in dataclasses.fields(left):
                a, b = getattr(left, column.name), getattr(right, column.name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), f"{field.name}.{column.name}"


class TestBatchedCallersMatchPerJob:
    def test_characterize_quick_plan(self, monkeypatch):
        plan = CharacterizationPlan.quick()
        calls = _count_batches(monkeypatch)
        batched = characterize(TECHNOLOGY, plan)
        assert calls == [len(plan.supply_voltages) + len(plan.temperatures_celsius) + 2]
        calls.clear()
        per_job = characterize(TECHNOLOGY, plan, engine=SweepEngine(make_executor("serial")))
        assert calls == [1] * (len(plan.supply_voltages) + len(plan.temperatures_celsius) + 2)
        _assert_same_fields(batched, per_job)

    @pytest.mark.parametrize(
        "panel, kwargs",
        [
            (pvt_sweeps.supply_sweep, {"supply_voltages": (0.9, 1.0, 1.1)}),
            (pvt_sweeps.temperature_sweep, {"temperatures_celsius": (-40.0, 27.0, 125.0)}),
            (pvt_sweeps.corner_sweep, {}),
        ],
    )
    def test_fig5_panels(self, monkeypatch, panel, kwargs):
        calls = _count_batches(monkeypatch)
        batched = panel(TECHNOLOGY, **kwargs)
        assert calls == [3]
        per_job = panel(TECHNOLOGY, engine=SweepEngine(make_executor("serial")), **kwargs)
        assert batched.keys() == per_job.keys()
        for key in batched:
            assert batched[key].shape == per_job[key].shape
            assert batched[key].tobytes() == per_job[key].tobytes(), key

    def test_fig4a_curves_match_one_transient_per_voltage(self):
        voltages = (0.3, 0.5, 0.7, 0.9, 1.0)
        curves = nonidealities.discharge_vs_time(TECHNOLOGY, wordline_voltages=voltages)
        solver = TransientSolver(TECHNOLOGY)
        assert [curve.wordline_voltage for curve in curves] == list(voltages)
        for curve, voltage in zip(curves, voltages):
            alone = solver.simulate_discharge(voltage, 2.0e-9, NOMINAL)
            assert np.array_equal(curve.times, alone.times)
            assert curve.voltages.shape == alone.voltages.shape
            assert np.array_equal(curve.voltages, alone.voltages)
            limit = curve.saturation_limit
            expected = alone.waveform().crossing_time(limit) if limit > 0.0 else None
            assert curve.saturation_time == expected


# ----------------------------------------------------------------------
# One table solve per batch
# ----------------------------------------------------------------------
class TestOneTableSolvePerBatch:
    def test_full_plan_characterize(self, monkeypatch):
        calls = _count_stack_cells(monkeypatch)
        characterize(TECHNOLOGY)
        # One call per run and pass would be 12 calls and 80,922 cells.
        assert len(calls) <= 3
        assert sum(calls) < 80922

    def test_fig5a_panel(self, monkeypatch):
        calls = _count_stack_cells(monkeypatch)
        pvt_sweeps.supply_sweep(TECHNOLOGY, supply_voltages=(0.9, 1.0, 1.1))
        assert calls == [3 * 129]

    def test_mixed_twenty_run_batch(self, monkeypatch):
        corners = list(ProcessCorner)
        runs = [
            DischargeRun(
                0.3 + 0.04 * index,
                OperatingConditions(
                    vdd=0.85 + 0.02 * index,
                    temperature=240.0 + 8.0 * index,
                    corner=corners[index % len(corners)],
                ),
                initial_voltage=None if index % 4 else 0.8,
            )
            for index in range(19)
        ]
        runs.append(DischargeRun(0.9, NOMINAL, 1, _mismatch_arrays(100, 3)))
        solver = TransientSolver(TECHNOLOGY)
        calls = _count_stack_cells(monkeypatch)
        together = solver.simulate_discharges(runs, 1.0e-9)
        assert 2 <= len(calls) <= 3
        monkeypatch.undo()
        for run, result in zip(runs, together):
            alone = solver.simulate_discharge(run.wordline_voltage, 1.0e-9, *run[1:])
            assert np.array_equal(result.voltages, alone.voltages)

    def test_square_law_card_keeps_its_shared_constants_scalar(self):
        # With alpha == 2 the I-V equation raises to the powers 2 and 1,
        # which NumPy computes differently for a scalar exponent than for
        # an array of them; a batch must keep shared constants scalar.
        technology = dataclasses.replace(TECHNOLOGY, alpha=2.0)
        solver = TransientSolver(technology)
        runs = [
            DischargeRun(np.linspace(0.3, 1.1, 40), OperatingConditions(vdd=1.1)),
            DischargeRun(0.8, NOMINAL, 1, _mismatch_arrays(200, 4)),
        ]
        together = solver.simulate_discharges(runs, 1.0e-9)
        for run, result in zip(runs, together):
            alone = solver.simulate_discharge(run.wordline_voltage, 1.0e-9, *run[1:])
            assert np.array_equal(result.voltages, alone.voltages)
            oracle = _reference_voltages(
                solver, run.wordline_voltage, 1.0e-9, run.conditions, mismatch=run.mismatch
            )
            assert np.array_equal(result.voltages, oracle)

    def test_parameters_are_gathered_one_block_at_a_time(self, monkeypatch):
        # Per-cell parameter arrays for a whole pass would grow with the
        # batch; gathered per block, none reaching the bisection (or the
        # buffer it views) outgrows a block.
        sizes = []
        solve_stack = sram_cell._solve_stack

        def recording(access, pulldown, pulldown_gate, v_bl, v_wl):
            for record in (access, pulldown, pulldown_gate):
                for field in dataclasses.fields(record):
                    value = getattr(record, field.name)
                    while isinstance(value, np.ndarray) and value.base is not None:
                        value = value.base
                    sizes.append(np.size(value))
            return solve_stack(access, pulldown, pulldown_gate, v_bl, v_wl)

        monkeypatch.setattr(sram_cell, "_solve_stack", recording)
        calls = _count_stack_cells(monkeypatch)
        characterize(TECHNOLOGY)
        assert max(calls) > BISECTION_BLOCK
        assert 1 < max(sizes) <= BISECTION_BLOCK
