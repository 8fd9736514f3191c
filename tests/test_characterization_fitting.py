"""Tests for the characterisation sweeps and the model fitting flow."""

import numpy as np
import pytest

from repro.core.characterization import CharacterizationPlan, characterize
from repro.core.fitting import FitReport, ModelDegrees, fit_all_models
from repro.circuits.technology import tsmc65_like


class TestCharacterizationPlan:
    def test_default_plan_is_valid(self):
        plan = CharacterizationPlan()
        assert len(plan.times) >= 3
        assert len(plan.wordline_voltages) >= 4

    def test_quick_plan_is_smaller(self):
        quick = CharacterizationPlan.quick()
        default = CharacterizationPlan()
        assert len(quick.times) < len(default.times)
        assert quick.mismatch_samples < default.mismatch_samples

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            CharacterizationPlan(times=(1e-9, 2e-9))
        with pytest.raises(ValueError):
            CharacterizationPlan(mismatch_samples=3)


class TestCharacterizationData:
    def test_sweep_shapes_and_counts(self, quick_calibration):
        data = quick_calibration.data
        plan = data.plan
        expected_base = len(plan.times) * len(plan.wordline_voltages)
        assert len(data.base) == expected_base
        assert len(data.supply) == expected_base * len(plan.supply_voltages)
        assert len(data.temperature) == expected_base * len(plan.temperatures_celsius)
        assert len(data.mismatch) == len(plan.times) * len(plan.mismatch_wordline_voltages)
        assert data.record_count() > 0

    def test_discharges_are_physical(self, quick_calibration):
        data = quick_calibration.data
        assert np.all(data.base.bitline_voltage <= data.base.vdd + 1e-9)
        assert np.all(data.base.vdd - data.base.bitline_voltage >= -1e-9)
        assert np.all(data.mismatch.sigma >= 0.0)
        assert np.all(data.write_energy.energy > 0.0)
        assert np.all(data.discharge_energy.energy >= 0.0)

    def test_discharge_grows_with_wordline_voltage_at_fixed_time(self, quick_calibration):
        data = quick_calibration.data
        longest_time = max(data.plan.times)
        mask = np.isclose(data.base.time, longest_time, rtol=1e-9, atol=1e-15)
        voltages = data.base.wordline_voltage[mask]
        discharges = (data.base.vdd - data.base.bitline_voltage)[mask]
        order = np.argsort(voltages)
        assert np.all(np.diff(discharges[order]) >= -1e-6)


class TestFitting:
    def test_report_fields_positive_and_small(self, quick_calibration):
        report = quick_calibration.report
        assert isinstance(report, FitReport)
        for value in report.as_dict().values():
            assert value >= 0.0
        # Voltage models should be accurate to a few millivolt on the quick plan.
        voltage_rms = (
            report.rms_base_discharge,
            report.rms_supply,
            report.rms_temperature,
            report.rms_mismatch_sigma,
        )
        assert max(voltage_rms) < 10e-3
        # Energy models should be accurate to a fraction of a femtojoule.
        assert report.rms_write_energy < 1e-15
        assert report.rms_discharge_energy < 1e-15

    def test_describe_contains_units(self, quick_calibration):
        text = quick_calibration.report.describe()
        assert "mV" in text
        assert "fJ" in text

    def test_literal_supply_mode_is_less_accurate(self, quick_calibration):
        """The paper-literal Eq. 4 form cannot absorb the pre-charge offset."""
        data = quick_calibration.data
        default = fit_all_models(data, ModelDegrees(supply_mode="discharge"))
        literal = fit_all_models(data, ModelDegrees(supply_mode="voltage"))
        assert default.report.rms_supply <= literal.report.rms_supply

    def test_higher_base_degree_does_not_hurt(self, quick_calibration):
        data = quick_calibration.data
        low = fit_all_models(data, ModelDegrees(base_overdrive=2))
        high = fit_all_models(data, ModelDegrees(base_overdrive=5))
        assert high.report.rms_base_discharge <= low.report.rms_base_discharge * 1.05

    def test_invalid_supply_mode_rejected(self, quick_calibration):
        from repro.core.fitting import fit_base_discharge, fit_supply_correction

        data = quick_calibration.data
        degrees = ModelDegrees()
        base = fit_base_discharge(data, data.technology.vth_nominal, degrees)
        with pytest.raises(ValueError):
            fit_supply_correction(
                data, base, data.technology.vth_nominal, 1.0, 2, supply_mode="bogus"
            )
