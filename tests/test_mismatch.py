"""Unit tests for Pelgrom mismatch sampling."""

import numpy as np
import pytest

from repro.circuits.mismatch import MismatchParameters, MismatchSample, MismatchSampler
from repro.circuits.technology import tsmc65_like


class TestMismatchParameters:
    def test_from_technology_positive(self):
        params = MismatchParameters.from_technology(tsmc65_like())
        assert params.sigma_vth_access > 0.0
        assert params.sigma_vth_pulldown > 0.0
        assert params.sigma_beta_access > 0.0

    def test_access_device_has_more_mismatch_than_pulldown(self):
        # The access transistor is smaller, so its Pelgrom sigma is larger.
        params = MismatchParameters.from_technology(tsmc65_like())
        assert params.sigma_vth_access > params.sigma_vth_pulldown

    def test_scaled(self):
        params = MismatchParameters.from_technology(tsmc65_like())
        doubled = params.scaled(2.0)
        assert doubled.sigma_vth_access == pytest.approx(2.0 * params.sigma_vth_access)
        with pytest.raises(ValueError):
            params.scaled(-1.0)


class TestMismatchSampler:
    def test_same_seed_same_samples(self):
        params = MismatchParameters.from_technology(tsmc65_like())
        first = MismatchSampler(params, seed=7).sample_arrays(5)
        second = MismatchSampler(params, seed=7).sample_arrays(5)
        assert np.array_equal(first.vth_access, second.vth_access)
        assert np.array_equal(first.beta_pulldown, second.beta_pulldown)

    def test_different_seed_different_samples(self):
        params = MismatchParameters.from_technology(tsmc65_like())
        first = MismatchSampler(params, seed=1).sample()
        second = MismatchSampler(params, seed=2).sample()
        assert first != second

    def test_sample_statistics_match_sigma(self):
        params = MismatchParameters.from_technology(tsmc65_like())
        arrays = MismatchSampler(params, seed=0).sample_arrays(4000)
        assert np.std(arrays.vth_access) == pytest.approx(params.sigma_vth_access, rel=0.1)
        assert abs(np.mean(arrays.vth_access)) < params.sigma_vth_access * 0.1

    def test_sample_arrays_indexing(self):
        params = MismatchParameters.from_technology(tsmc65_like())
        arrays = MismatchSampler(params, seed=0).sample_arrays(10)
        assert len(arrays) == 10
        assert arrays.vth_access.shape == arrays.beta_pulldown.shape == (10,)

    def test_negative_count_rejected(self):
        params = MismatchParameters.from_technology(tsmc65_like())
        with pytest.raises(ValueError):
            MismatchSampler(params).sample_arrays(-1)

    def test_nominal_sample_is_zero(self):
        nominal = MismatchSample.nominal()
        assert nominal.vth_access == 0.0
        assert nominal.beta_pulldown == 0.0
