"""Unit tests for the shared metric helpers."""

import numpy as np
import pytest

from repro.core.metrics import (
    error_in_lsb,
    figure_of_merit,
    lsb_voltage,
    max_absolute_error,
    mean_absolute_error,
    rms_error,
    signal_to_noise_ratio_db,
    speedup_ratio,
    top_k_hits,
    voltage_to_lsb,
)


class TestErrorMetrics:
    def test_rms_error(self):
        assert rms_error([1.0, 2.0], [1.0, 4.0]) == pytest.approx(np.sqrt(2.0))

    def test_mean_and_max_absolute_error(self):
        assert mean_absolute_error([1.0, 3.0], [2.0, 1.0]) == pytest.approx(1.5)
        assert max_absolute_error([1.0, 3.0], [2.0, 1.0]) == pytest.approx(2.0)

    def test_error_in_lsb(self):
        assert np.allclose(error_in_lsb([3, 5], [4, 5]), [1.0, 0.0])


class TestConverterMetrics:
    def test_lsb_voltage(self):
        assert lsb_voltage(0.225, 225) == pytest.approx(1e-3)
        with pytest.raises(ValueError):
            lsb_voltage(-1.0, 10)
        with pytest.raises(ValueError):
            lsb_voltage(1.0, 0)

    def test_voltage_to_lsb(self):
        assert float(voltage_to_lsb(5e-3, 1e-3)) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            voltage_to_lsb(1.0, 0.0)

    def test_snr(self):
        assert signal_to_noise_ratio_db(1.0, 0.1) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            signal_to_noise_ratio_db(0.0, 1.0)


class TestPerformanceMetrics:
    def test_speedup_ratio(self):
        assert speedup_ratio(10.0, 0.1) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            speedup_ratio(0.0, 1.0)
        with pytest.raises(ValueError):
            speedup_ratio(1.0, 0.0)

    def test_figure_of_merit_matches_eq9(self):
        assert figure_of_merit(4.78, 44e-15) == pytest.approx(1.0 / (4.78 * 44e-15))
        with pytest.raises(ValueError):
            figure_of_merit(0.0, 1.0)


class TestTopKAccuracy:
    def test_top1_and_topk(self):
        scores = np.array(
            [
                [0.1, 0.7, 0.2],
                [0.5, 0.3, 0.2],
                [0.2, 0.3, 0.5],
            ]
        )
        labels = np.array([1, 2, 2])
        assert top_k_hits(scores, labels, k=1) == 2
        assert top_k_hits(scores, labels, k=2) == 2
        assert top_k_hits(scores, labels, k=3) == 3

    def test_validation(self):
        scores = np.zeros((2, 3))
        with pytest.raises(ValueError):
            top_k_hits(scores, np.array([0]), k=1)
        with pytest.raises(ValueError):
            top_k_hits(scores, np.array([0, 1]), k=5)
        with pytest.raises(ValueError):
            top_k_hits(np.zeros(3), np.array([0, 1, 2]), k=1)
