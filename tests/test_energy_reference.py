"""Unit tests for the reference energy accounting."""

import numpy as np
import pytest

from repro.circuits.conditions import OperatingConditions, celsius_to_kelvin
from repro.circuits.energy import EnergyBreakdown, EnergyModelReference
from repro.circuits.technology import tsmc65_like


@pytest.fixture(scope="module")
def energy_model():
    return EnergyModelReference(tsmc65_like())


@pytest.fixture(scope="module")
def conditions():
    return OperatingConditions.nominal(tsmc65_like())


class TestWriteEnergy:
    def test_positive_and_reasonable(self, energy_model, conditions):
        energy = float(energy_model.write_energy_table(conditions.vdd, conditions.temperature))
        assert 10e-15 < energy < 1e-12

    def test_grows_with_supply(self, energy_model, conditions):
        low, high = energy_model.write_energy_table(np.array([0.9, 1.1]), conditions.temperature)
        assert high > low

    def test_grows_with_temperature(self, energy_model, conditions):
        temperatures = celsius_to_kelvin(np.array([0.0, 75.0]))
        cold, hot = energy_model.write_energy_table(conditions.vdd, temperatures)
        assert hot > cold

    def test_word_write_energy_scales_with_bits(self, energy_model, conditions):
        one_bit = energy_model.write_energy(conditions)
        word = energy_model.word_write_energy(conditions, bits=4)
        assert word == pytest.approx(4.0 * one_bit)
        with pytest.raises(ValueError):
            energy_model.word_write_energy(conditions, bits=0)


class TestDischargeEnergy:
    @pytest.fixture()
    def energy(self, energy_model, conditions):
        """Discharge energy at word-line voltage 0.8 V and nominal conditions."""
        return lambda swing: energy_model.discharge_energy_table(
            swing, 0.8, conditions.vdd, conditions.temperature
        )

    def test_zero_swing_zero_energy(self, energy):
        assert float(energy(0.0)) == pytest.approx(0.0)

    def test_monotone_in_swing(self, energy):
        energies = energy(np.linspace(0.0, 0.5, 6))
        assert np.all(np.diff(energies) > 0.0)

    def test_superlinear_in_swing(self, energy):
        """The restore loss adds a quadratic term on top of C*VDD*dV."""
        assert float(energy(0.4)) > 2.0 * float(energy(0.2))

    def test_magnitude_matches_capacitance(self, energy, conditions):
        swing = 0.3
        expected_floor = tsmc65_like().bitline_capacitance * conditions.vdd * swing
        assert float(energy(swing)) >= expected_floor

    def test_negative_swing_clipped(self, energy):
        assert float(energy(-0.1)) == pytest.approx(0.0)


class TestBreakdown:
    def test_breakdown_totals(self, energy_model, conditions):
        breakdown = energy_model.breakdown(0.3, 0.8, conditions)
        assert isinstance(breakdown, EnergyBreakdown)
        assert breakdown.total == pytest.approx(breakdown.write + breakdown.discharge)
        assert breakdown.discharge == pytest.approx(
            breakdown.wordline + breakdown.precharge_restore + breakdown.sampling
        )
        assert "fJ" in breakdown.describe()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            EnergyModelReference(tsmc65_like(), write_overhead=-0.1)
