"""Tests for the DAC / ADC / sampling-network periphery."""

import numpy as np
import pytest

from repro.converters.adc import Adc, effective_number_of_bits, required_adc_levels
from repro.converters.dac import LinearDac, NonlinearCompensatingDac, build_dac
from repro.converters.sampling import ChargeSharingCombiner, SamplingNetwork


class TestLinearDac:
    def test_endpoints(self):
        dac = LinearDac(bits=4, v_zero=0.3, v_full_scale=1.0)
        assert float(dac.voltage(0)) == pytest.approx(0.3)
        assert float(dac.voltage(15)) == pytest.approx(1.0)

    def test_monotonic_and_uniform(self):
        dac = LinearDac(bits=4, v_zero=0.3, v_full_scale=1.0)
        voltages = dac.voltage(np.arange(16))
        steps = np.diff(voltages)
        assert np.all(steps > 0.0)
        assert np.allclose(steps, steps[0])

    def test_out_of_range_codes_clipped(self):
        dac = LinearDac()
        assert float(dac.voltage(100)) == pytest.approx(dac.v_full_scale)
        assert float(dac.voltage(-3)) == pytest.approx(dac.v_zero)

    def test_inverse_transfer(self):
        dac = LinearDac(bits=4, v_zero=0.3, v_full_scale=1.0)
        codes = np.arange(16)
        assert np.array_equal(dac.code_for_voltage(dac.voltage(codes)), codes)

    def test_conversion_energy_grows_with_code(self):
        dac = LinearDac()
        energies = dac.conversion_energy(np.arange(16))
        assert np.all(np.diff(energies) > 0.0)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            LinearDac(v_zero=1.0, v_full_scale=0.5)
        with pytest.raises(ValueError):
            LinearDac(bits=0)


class TestNonlinearDac:
    def test_reduces_to_linear_at_exponent_one(self):
        linear = LinearDac(bits=4, v_zero=0.3, v_full_scale=1.0)
        shaped = NonlinearCompensatingDac(linear, exponent=1.0)
        codes = np.arange(16)
        assert np.allclose(shaped.voltage(codes), linear.voltage(codes))

    def test_predistortion_lifts_low_codes(self):
        linear = LinearDac(bits=4, v_zero=0.3, v_full_scale=1.0)
        shaped = NonlinearCompensatingDac(linear, exponent=1.5)
        # Pre-distortion pushes mid codes to higher voltages while keeping
        # the endpoints fixed.
        assert float(shaped.voltage(0)) == pytest.approx(0.3)
        assert float(shaped.voltage(15)) == pytest.approx(1.0)
        assert float(shaped.voltage(5)) > float(linear.voltage(5))

    def test_build_dac_factory(self):
        assert isinstance(build_dac(0.3, 1.0), LinearDac)
        assert isinstance(build_dac(0.3, 1.0, nonlinear_exponent=1.3), NonlinearCompensatingDac)

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            NonlinearCompensatingDac(LinearDac(), exponent=0.0)


class TestAdc:
    def test_quantize_and_reconstruct(self):
        adc = Adc(levels=225, gain=1e-3, offset=0.0)
        assert int(adc.quantize(0.1)) == 100
        assert int(adc.quantize(0.1004)) == 100

    def test_clipping(self):
        adc = Adc(levels=10, gain=1e-3)
        assert int(adc.quantize(1.0)) == 10
        assert int(adc.quantize(-1.0)) == 0

    def test_quantization_error_bounded_by_half_lsb(self):
        adc = Adc(levels=225, gain=1e-3)
        voltages = np.linspace(0.0, 0.2, 333)
        errors = adc.offset + adc.quantize(voltages) * adc.gain - voltages
        assert float(np.max(np.abs(errors))) <= adc.lsb / 2.0 + 1e-12

    def test_calibrated_fit(self):
        codes = np.arange(226, dtype=float)
        voltages = 2e-3 * codes + 5e-3
        adc = Adc.calibrated(voltages, codes, levels=225)
        assert adc.gain == pytest.approx(2e-3, rel=1e-6)
        assert adc.offset == pytest.approx(5e-3, abs=1e-9)
        assert np.array_equal(adc.quantize(voltages), codes.astype(int))

    def test_calibrated_degenerate_input(self):
        adc = Adc.calibrated(np.zeros(10), np.arange(10), levels=9)
        assert adc.gain > 0.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            Adc(levels=0)
        with pytest.raises(ValueError):
            Adc(gain=0.0)

    def test_helpers(self):
        assert required_adc_levels((4, 4)) == 225
        assert effective_number_of_bits(1.0, 1.0 / 2**8) > 7.0
        with pytest.raises(ValueError):
            required_adc_levels((0, 4))

    def test_describe(self):
        assert "levels" in Adc().describe()


class TestSamplingNetworks:
    def test_charge_sharing_is_average(self):
        combiner = ChargeSharingCombiner(branches=4)
        voltages = np.array([0.9, 0.8, 0.7, 0.6])
        assert float(combiner.combine(voltages)) == pytest.approx(0.75)

    def test_combined_sigma_reduces_with_branches(self):
        combiner = ChargeSharingCombiner(branches=4)
        sigma = float(combiner.combined_sigma(np.full(4, 10e-3)))
        assert sigma == pytest.approx(5e-3)

    def test_sampling_energy_positive(self):
        combiner = ChargeSharingCombiner(branches=4)
        energy = float(combiner.sampling_energy(np.array([0.9, 0.8, 0.7, 0.6]), vdd=1.0))
        assert energy > 0.0

    def test_wrong_branch_count_rejected(self):
        combiner = ChargeSharingCombiner(branches=4)
        with pytest.raises(ValueError):
            combiner.combine(np.ones(3))

    def test_weighted_network_matches_equal_case(self):
        equal = SamplingNetwork.equal(4)
        combiner = ChargeSharingCombiner(branches=4)
        voltages = np.array([0.9, 0.85, 0.8, 0.75])
        assert float(equal.combine(voltages)) == pytest.approx(float(combiner.combine(voltages)))

    def test_weighted_network_weights_normalised(self):
        network = SamplingNetwork(capacitances=(1e-15, 3e-15))
        assert np.allclose(network.weights, [0.25, 0.75])

    def test_mismatched_network_stays_close_to_nominal(self):
        rng = np.random.default_rng(0)
        network = SamplingNetwork.with_mismatch(4, 8e-15, relative_sigma=0.02, rng=rng)
        voltages = np.array([0.9, 0.8, 0.7, 0.6])
        assert float(network.combine(voltages)) == pytest.approx(0.75, abs=0.01)

    def test_invalid_networks_rejected(self):
        with pytest.raises(ValueError):
            SamplingNetwork(capacitances=())
        with pytest.raises(ValueError):
            SamplingNetwork(capacitances=(1e-15, -1e-15))
        with pytest.raises(ValueError):
            ChargeSharingCombiner(branches=0)
        with pytest.raises(ValueError):
            ChargeSharingCombiner(capacitance_per_branch=0.0)
