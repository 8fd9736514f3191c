"""Unit tests for the reference transient discharge solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.nonidealities import discharge_vs_time
from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchParameters, MismatchSampler
from repro.circuits.technology import ProcessCorner, tsmc65_like
from repro.circuits.transient import DischargeResult, TransientSolver


class TestBasicDischarge:
    def test_voltage_monotonically_decreases(self, solver, nominal_conditions):
        result = solver.simulate_discharge(0.9, 1.5e-9, nominal_conditions)
        voltages = np.atleast_1d(result.voltages)
        assert np.all(np.diff(voltages) <= 1e-12)

    def test_starts_at_vdd(self, solver, nominal_conditions):
        result = solver.simulate_discharge(0.8, 1e-9, nominal_conditions)
        assert float(np.atleast_1d(result.voltages)[0]) == pytest.approx(
            nominal_conditions.vdd
        )

    def test_higher_wordline_voltage_discharges_faster(self, solver, nominal_conditions):
        deltas = solver.discharge_at(np.array([0.5, 0.7, 0.9]), 1.0e-9, nominal_conditions)
        assert deltas[0] < deltas[1] < deltas[2]

    def test_longer_time_discharges_more(self, solver, nominal_conditions):
        short = float(solver.discharge_at(0.8, 0.4e-9, nominal_conditions))
        long = float(solver.discharge_at(0.8, 1.6e-9, nominal_conditions))
        assert long > short

    def test_stored_zero_gives_negligible_discharge(self, solver, nominal_conditions):
        delta = float(solver.discharge_at(0.9, 1.6e-9, nominal_conditions, stored_bit=0))
        assert delta < 1e-3

    def test_subthreshold_wordline_gives_small_residual_discharge(
        self, solver, nominal_conditions, technology
    ):
        delta = float(
            solver.discharge_at(technology.vth_nominal - 0.1, 1.6e-9, nominal_conditions)
        )
        assert 0.0 <= delta < 20e-3

    def test_voltage_never_negative(self, solver, nominal_conditions):
        result = solver.simulate_discharge(1.0, 10e-9, nominal_conditions)
        assert np.all(result.voltages >= 0.0)

    def test_invalid_inputs_rejected(self, solver, nominal_conditions):
        with pytest.raises(ValueError):
            solver.simulate_discharge(0.8, -1e-9, nominal_conditions)
        with pytest.raises(ValueError):
            solver.simulate_discharge(0.8, 1e-9, nominal_conditions, stored_bit=2)
        with pytest.raises(ValueError):
            TransientSolver(tsmc65_like(), time_step=0.0)


class TestNumericalAccuracy:
    def test_time_step_convergence(self, technology, nominal_conditions):
        """Halving the step must not change the result at the mV level."""
        coarse = TransientSolver(technology, time_step=20e-12)
        fine = TransientSolver(technology, time_step=5e-12)
        delta_coarse = float(coarse.discharge_at(0.9, 1.28e-9, nominal_conditions))
        delta_fine = float(fine.discharge_at(0.9, 1.28e-9, nominal_conditions))
        assert delta_coarse == pytest.approx(delta_fine, abs=2e-3)

    def test_voltage_grid_convergence(self, technology, nominal_conditions):
        coarse = TransientSolver(technology, voltage_grid_points=33)
        fine = TransientSolver(technology, voltage_grid_points=257)
        delta_coarse = float(coarse.discharge_at(0.9, 1.28e-9, nominal_conditions))
        delta_fine = float(fine.discharge_at(0.9, 1.28e-9, nominal_conditions))
        assert delta_coarse == pytest.approx(delta_fine, abs=2e-3)


class TestPvtAndMismatch:
    def test_corner_ordering(self, solver, nominal_conditions):
        deltas = {
            corner: float(
                solver.discharge_at(0.9, 1.28e-9, nominal_conditions.with_corner(corner))
            )
            for corner in ProcessCorner
        }
        assert deltas[ProcessCorner.FAST] > deltas[ProcessCorner.TYPICAL] > deltas[ProcessCorner.SLOW]

    def test_supply_voltage_increases_discharge(self, solver, nominal_conditions):
        low = float(solver.discharge_at(0.9, 1.28e-9, nominal_conditions.with_vdd(0.9)))
        high = float(solver.discharge_at(0.9, 1.28e-9, nominal_conditions.with_vdd(1.1)))
        assert high > low

    def test_heating_slows_discharge(self, solver, nominal_conditions):
        cold = float(
            solver.discharge_at(0.9, 1.28e-9, nominal_conditions.with_temperature_celsius(0.0))
        )
        hot = float(
            solver.discharge_at(0.9, 1.28e-9, nominal_conditions.with_temperature_celsius(70.0))
        )
        assert hot < cold

    def test_mismatch_spread_grows_with_wordline_voltage(self, solver, nominal_conditions, technology):
        sampler = MismatchSampler(MismatchParameters.from_technology(technology), seed=3)
        arrays = sampler.sample_arrays(200)
        deltas = solver.discharge_at(
            np.array([[0.5], [0.9]]), 1.28e-9, nominal_conditions, mismatch=arrays
        )
        assert deltas.shape == (2, 200)
        assert np.std(deltas[1]) > np.std(deltas[0])

    def test_mismatch_broadcasting_single_sample(self, solver, nominal_conditions, technology):
        sampler = MismatchSampler(MismatchParameters.from_technology(technology), seed=4)
        sample = sampler.sample()
        delta = solver.discharge_at(0.9, 1.0e-9, nominal_conditions, mismatch=sample)
        assert np.shape(delta) == ()


class TestResultContainer:
    def test_voltage_at_interpolates(self, solver, nominal_conditions):
        result = solver.simulate_discharge(0.9, 2.0e-9, nominal_conditions)
        mid = float(result.voltage_at(1.0e-9))
        assert float(result.voltages[..., -1]) < mid < nominal_conditions.vdd

    def test_voltage_at_out_of_range_rejected(self, solver, nominal_conditions):
        result = solver.simulate_discharge(0.9, 1.0e-9, nominal_conditions)
        with pytest.raises(ValueError):
            result.voltage_at(2.0e-9)

    @given(
        data=st.data(),
        lead=st.sampled_from([(), (1,), (3,), (2, 4)]),
        steps=st.integers(min_value=2, max_value=40),
        where=st.sampled_from(["grid", "interior", "start", "end"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_voltage_at_equals_np_interp_per_row(self, data, lead, steps, where):
        times = np.linspace(0.0, 1.7e-9, steps + 1)
        elements = st.floats(min_value=-2.0, max_value=2.0) | st.sampled_from(
            [np.nan, np.inf, -np.inf]
        )
        voltages = data.draw(hnp.arrays(float, lead + (steps + 1,), elements=elements))
        index = data.draw(st.integers(min_value=0, max_value=steps - 1))
        fraction = data.draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
        time = {
            "grid": times[index],
            "interior": times[index] + fraction * (times[index + 1] - times[index]),
            "start": times[0],
            "end": times[-1],
        }[where]
        result = DischargeResult(times, voltages, OperatingConditions(), np.array(0.9))
        sampled = result.voltage_at(float(time))
        rows = voltages.reshape(-1, steps + 1)
        expected = np.array([np.interp(float(time), times, row) for row in rows])
        expected = expected[0] if voltages.ndim == 1 else expected.reshape(lead)
        assert np.shape(sampled) == np.shape(expected)
        assert np.array_equal(sampled, expected, equal_nan=True)

    def test_voltage_at_rejects_nan_time(self, solver, nominal_conditions):
        result = solver.simulate_discharge(0.9, 1.0e-9, nominal_conditions)
        with pytest.raises(ValueError):
            result.voltage_at(float("nan"))

    def test_waveform_extraction(self, solver, nominal_conditions):
        result = solver.simulate_discharge(np.array([0.6, 0.9]), 1.0e-9, nominal_conditions)
        wave = result.waveform(1)
        assert wave.initial_value == pytest.approx(nominal_conditions.vdd)
        assert np.array_equal(wave.values, result.voltages[1])
        with pytest.raises(IndexError):
            result.waveform(5)

    def test_saturation_time_only_above_threshold(self, nominal_conditions, technology):
        below, above = discharge_vs_time(
            technology,
            wordline_voltages=(technology.vth_nominal - 0.05, 1.0),
            duration=6e-9,
            conditions=nominal_conditions,
        )
        assert below.saturation_time is None
        assert above.saturation_time is not None and above.saturation_time > 0.0
