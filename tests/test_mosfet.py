"""Unit tests for the alpha-power-law MOSFET model."""

import numpy as np
import pytest

from repro.circuits.conditions import OperatingConditions
from repro.circuits.mosfet import (
    NmosDevice,
    access_device,
    corner_description,
    drain_current_from_parameters,
    pulldown_device,
    saturation_voltage,
)
from repro.circuits.technology import ProcessCorner, tsmc65_like


@pytest.fixture(scope="module")
def device():
    return access_device(tsmc65_like())


@pytest.fixture(scope="module")
def conditions():
    return OperatingConditions.nominal(tsmc65_like())


@pytest.fixture(scope="module")
def params(device, conditions):
    return device.parameters(conditions)


class TestDrainCurrent:
    def test_current_increases_with_gate_voltage(self, params):
        gate_voltages = np.linspace(0.3, 1.0, 10)
        currents = drain_current_from_parameters(params, gate_voltages, 0.8)
        assert np.all(np.diff(currents) > 0.0)

    def test_current_increases_with_drain_voltage_in_triode(self, params):
        drain_voltages = np.linspace(0.01, 0.2, 8)
        currents = drain_current_from_parameters(params, 0.9, drain_voltages)
        assert np.all(np.diff(currents) > 0.0)

    def test_saturation_current_nearly_flat(self, params):
        vdsat = float(saturation_voltage(0.9 - params.threshold_voltage, params.alpha))
        low = float(drain_current_from_parameters(params, 0.9, vdsat * 1.1))
        high = float(drain_current_from_parameters(params, 0.9, vdsat * 2.0))
        # Only channel-length modulation separates the two points.
        assert high > low
        assert high < low * 1.2

    def test_subthreshold_current_is_small_but_positive(self, params):
        below = float(drain_current_from_parameters(params, params.threshold_voltage - 0.1, 0.8))
        above = float(drain_current_from_parameters(params, params.threshold_voltage + 0.2, 0.8))
        assert 0.0 < below < above / 20.0

    def test_zero_drain_voltage_gives_zero_current(self, params):
        current = float(drain_current_from_parameters(params, 1.0, 0.0))
        assert current == pytest.approx(0.0, abs=1e-15)

    def test_current_never_negative(self, params):
        gate = np.linspace(0.0, 1.1, 12)[:, None]
        drain = np.linspace(0.0, 1.1, 12)[None, :]
        currents = drain_current_from_parameters(params, gate, drain)
        assert np.all(currents >= 0.0)

    def test_broadcasting_shapes(self, params):
        currents = drain_current_from_parameters(params, np.ones((3, 1)), np.ones((1, 4)) * 0.5)
        assert currents.shape == (3, 4)


class TestPvtDependence:
    def test_fast_corner_gives_more_current(self, device):
        tech = tsmc65_like()
        nominal = OperatingConditions.nominal(tech)
        fast = nominal.with_corner(ProcessCorner.FAST)
        slow = nominal.with_corner(ProcessCorner.SLOW)
        i_fast = float(drain_current_from_parameters(device.parameters(fast), 0.8, 0.8))
        i_nom = float(drain_current_from_parameters(device.parameters(nominal), 0.8, 0.8))
        i_slow = float(drain_current_from_parameters(device.parameters(slow), 0.8, 0.8))
        assert i_fast > i_nom > i_slow

    def test_heating_reduces_strong_inversion_current(self, device):
        tech = tsmc65_like()
        nominal = OperatingConditions.nominal(tech)
        hot = nominal.with_temperature(350.0)
        # At high overdrive, mobility degradation dominates the Vth drop.
        i_hot = float(drain_current_from_parameters(device.parameters(hot), 1.0, 0.8))
        i_nom = float(drain_current_from_parameters(device.parameters(nominal), 1.0, 0.8))
        assert i_hot < i_nom

    def test_mismatch_offsets_shift_current(self):
        tech = tsmc65_like()
        conditions = OperatingConditions.nominal(tech)
        nominal_device = NmosDevice(tech, 120e-9, 65e-9)
        slow_device = NmosDevice(tech, 120e-9, 65e-9, vth_offset=+0.05)
        strong_device = NmosDevice(tech, 120e-9, 65e-9, gain_offset=+0.2)
        i_nom, i_slow, i_strong = (
            float(drain_current_from_parameters(device.parameters(conditions), 0.8, 0.8))
            for device in (nominal_device, slow_device, strong_device)
        )
        assert i_slow < i_nom < i_strong


class TestHelpers:
    def test_saturation_voltage_square_law_limit(self):
        assert float(saturation_voltage(0.5, 2.0)) == pytest.approx(0.5)

    def test_saturation_voltage_clamps_negative_overdrive(self):
        assert float(saturation_voltage(-0.2, 1.3)) == pytest.approx(0.0)

    def test_device_factories_use_card_geometry(self):
        tech = tsmc65_like()
        access = access_device(tech)
        pulldown = pulldown_device(tech)
        assert access.width == pytest.approx(tech.access_width)
        assert pulldown.width == pytest.approx(tech.pulldown_width)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            NmosDevice(tsmc65_like(), width=0.0, length=65e-9)

    def test_corner_description_strings(self):
        assert "fast" in corner_description(ProcessCorner.FAST)
        assert "slow" in corner_description(ProcessCorner.SLOW)
        assert corner_description(ProcessCorner.TYPICAL) == "typical"

    def test_parameters_from_conditions(self, device, conditions):
        params = device.parameters(conditions)
        assert params.gain > 0.0
        assert params.thermal_voltage == pytest.approx(0.0259, rel=0.05)
        assert float(drain_current_from_parameters(params, 0.9, 0.5)) > 0.0
