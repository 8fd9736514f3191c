"""Unit tests for the 6T SRAM cell and its discharge stack."""

import numpy as np
import pytest

from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchSample
from repro.circuits.mosfet import access_device, drain_current_from_parameters
from repro.circuits.sram_cell import CellState, SramCell
from repro.circuits.technology import tsmc65_like


@pytest.fixture(scope="module")
def tech():
    return tsmc65_like()


@pytest.fixture(scope="module")
def conditions(tech):
    return OperatingConditions.nominal(tech)


class TestCellState:
    def test_from_bit(self):
        assert CellState.from_bit(0) is CellState.ZERO
        assert CellState.from_bit(1) is CellState.ONE

    def test_invalid_bit_rejected(self):
        with pytest.raises(ValueError):
            CellState.from_bit(2)

    def test_bit_property(self):
        assert CellState.ONE.bit == 1
        assert CellState.ZERO.bit == 0


class TestDigitalBehaviour:
    def test_write_then_read(self, tech):
        cell = SramCell(tech)
        assert cell.read() == 0
        cell.write(1)
        assert cell.read() == 1
        assert cell.stored_bit == 1

    def test_invalid_write_rejected(self, tech):
        cell = SramCell(tech)
        with pytest.raises(ValueError):
            cell.write(3)


class TestDischargeCurrent:
    def test_stored_one_discharges_stored_zero_does_not(self, tech, conditions):
        stack = SramCell(tech).discharge_stack(conditions)
        i_one = float(stack.current(1.0, 0.9))
        i_zero = float(stack.leakage_current(1.0))
        assert i_one > 1e-6
        assert i_zero < i_one * 1e-3

    def test_current_grows_with_wordline_voltage(self, tech, conditions):
        stack = SramCell(tech).discharge_stack(conditions)
        currents = stack.current(1.0, np.linspace(0.4, 1.0, 7))
        assert np.all(np.diff(currents) > 0.0)

    def test_current_is_stack_limited(self, tech, conditions):
        """The series stack must conduct less than the access device alone."""
        stack_current = float(SramCell(tech).discharge_stack(conditions).current(1.0, 0.9))
        access = access_device(tech).parameters(conditions)
        access_only = float(drain_current_from_parameters(access, 0.9, 1.0))
        assert 0.0 < stack_current < access_only

    def test_mismatch_shifts_current(self, tech, conditions):
        nominal = SramCell(tech).discharge_stack(conditions)
        weak = SramCell(tech, mismatch=MismatchSample(vth_access=+0.06)).discharge_stack(conditions)
        assert float(weak.current(1.0, 0.8)) < float(nominal.current(1.0, 0.8))

    def test_saturation_limit_follows_eq2(self, tech, conditions):
        cell = SramCell(tech, CellState.ONE)
        limit = cell.saturation_limit(0.9, conditions)
        params_vth = tech.threshold_voltage(conditions.temperature)
        assert limit == pytest.approx(0.9 - params_vth, abs=1e-9)
        assert cell.saturation_limit(0.1, conditions) == 0.0

    def test_stack_current_vectorises_over_bitline_voltage(self, tech, conditions):
        stack = SramCell(tech).discharge_stack(conditions)
        v_bl = np.linspace(0.2, 1.0, 9)
        currents = stack.current(v_bl, 0.9)
        assert currents.shape == v_bl.shape
        # Deeply discharged bit-lines push the access device into triode,
        # so the current must drop for low bit-line voltages.
        assert currents[0] < currents[-1]
