"""End-to-end integration tests covering the whole OPTIMA flow.

These tests chain the layers the way the paper's experiments do:
reference characterisation -> model fitting -> multiplier -> design-space
exploration -> DNN injection, asserting the qualitative results the paper
reports (orderings and collapse behaviour, not absolute numbers).
"""

import numpy as np
import pytest

from repro.core.dse import DesignSpace, explore_design_space, select_corners
from repro.dnn.datasets import make_synthetic_image_dataset
from repro.dnn.evaluation import evaluate_backends
from repro.dnn.imc_injection import LutBackend
from repro.dnn.models import build_vgg16_like
from repro.dnn.quantization import load_quantized_network, quantize_network
from repro.dnn.training import TrainingConfig, train_network
from repro.multiplier.imac import InSramMultiplier
from repro.multiplier.lut import ProductLookupTable
from repro.multiplier.error_analysis import analyze_input_space


class TestModelAgainstReference:
    def test_model_suite_tracks_reference_across_pvt(self, suite, solver, nominal_conditions):
        """Model predictions stay within a few mV of the ODE reference."""
        test_points = [
            (0.4e-9, 0.6, nominal_conditions),
            (1.2e-9, 0.85, nominal_conditions.with_vdd(0.95)),
            (0.8e-9, 0.7, nominal_conditions.with_temperature_celsius(60.0)),
        ]
        for time, v_wl, conditions in test_points:
            reference = float(solver.discharge_at(v_wl, time, conditions))
            predicted = float(suite.discharge_voltage(time, v_wl, conditions))
            assert predicted == pytest.approx(reference, abs=20e-3)


class TestCornerStory:
    """The qualitative Table I / Fig. 7 / Fig. 8 story of the paper."""

    @pytest.fixture(scope="class")
    def exploration(self, suite):
        return explore_design_space(suite)

    def test_fom_corner_is_most_accurate_of_selected(self, exploration):
        corners = {c.name: c.point for c in exploration.selected_corners()}
        assert corners["fom"].mean_error_lsb <= corners["power"].mean_error_lsb
        assert corners["fom"].mean_error_lsb <= corners["variation"].mean_error_lsb

    def test_power_corner_is_cheapest(self, exploration):
        corners = {c.name: c.point for c in exploration.selected_corners()}
        assert corners["power"].energy_per_multiplication <= corners["fom"].energy_per_multiplication
        assert (
            corners["power"].energy_per_multiplication
            <= corners["variation"].energy_per_multiplication
        )

    def test_variation_corner_has_worst_small_operand_error(self, exploration):
        corners = {c.name: c.point for c in exploration.selected_corners()}
        variation_small = corners["variation"].analysis.small_operand_error()
        fom_small = corners["fom"].analysis.small_operand_error()
        assert variation_small > fom_small

    def test_energy_scale_matches_paper_order_of_magnitude(self, exploration):
        """E_mul lands in the tens of femtojoule, E_op around a picojoule."""
        for corner in exploration.selected_corners():
            energy_fj = corner.point.energy_per_multiplication * 1e15
            assert 10.0 < energy_fj < 200.0
            operation_pj = corner.point.analysis.energy_per_operation * 1e12
            assert 0.1 < operation_pj < 5.0


class TestDnnStory:
    """The qualitative Table II / III story on a tiny synthetic setup."""

    @pytest.fixture(scope="class")
    def dnn_results(self, suite):
        dataset = make_synthetic_image_dataset(
            classes=6, train_per_class=40, test_per_class=12, image_size=8, noise=0.12, seed=21
        )
        network = build_vgg16_like((8, 8, 3), classes=dataset.classes)
        train_network(
            network, dataset, TrainingConfig(epochs=7, batch_size=32, learning_rate=0.1, seed=2)
        )
        quantized = load_quantized_network(
            network, quantize_network(network, dataset.train_images[:96])
        )

        corners = select_corners(explore_design_space(suite))
        backends = {
            name: LutBackend(
                ProductLookupTable.from_multiplier(InSramMultiplier(suite, config)), name=name
            )
            for name, config in corners.items()
        }
        return evaluate_backends(network, quantized, backends, dataset)

    def test_all_modes_present(self, dnn_results):
        assert set(dnn_results) == {"float32", "int4", "fom", "power", "variation"}

    def test_float_and_int4_learn_the_task(self, dnn_results):
        assert dnn_results["float32"].top1 > 0.65
        assert dnn_results["int4"].top1 > 0.55

    def test_fom_corner_is_the_best_in_memory_corner(self, dnn_results):
        assert dnn_results["fom"].top1 >= dnn_results["variation"].top1
        assert dnn_results["fom"].top1 >= dnn_results["power"].top1 - 0.05
        # The fom corner stays within reach of the digital INT4 baseline
        # (the gap is larger than the paper's sub-percent one because our
        # substrate's fom corner has more small-operand error; see
        # EXPERIMENTS.md).
        assert dnn_results["fom"].top1 >= dnn_results["int4"].top1 - 0.4

    def test_variation_corner_collapses(self, dnn_results):
        """The paper's headline DNN observation: the variation corner loses
        a large fraction of the baseline top-1 accuracy."""
        assert dnn_results["variation"].top1 < dnn_results["int4"].top1 - 0.2
        assert dnn_results["variation"].top1 <= dnn_results["fom"].top1

    def test_mode_ordering(self, dnn_results):
        assert dnn_results["float32"].top1 >= dnn_results["int4"].top1 - 0.05
        assert dnn_results["fom"].top1 >= dnn_results["variation"].top1

    def test_top5_at_least_top1(self, dnn_results):
        for report in dnn_results.values():
            assert report.top5 >= report.top1


class TestMultiplierValidation:
    def test_optima_multiplier_matches_reference_multiplier_statistics(
        self, technology, suite, fom_config
    ):
        """Mean input-space error of fast vs reference models is comparable."""
        from repro.multiplier.reference import ReferenceMultiplier

        fast_analysis = analyze_input_space(InSramMultiplier(suite, fom_config))
        reference = ReferenceMultiplier(technology, fom_config)
        x_grid, d_grid = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        reference_error = np.mean(np.abs(reference.multiply(x_grid, d_grid) - x_grid * d_grid))
        assert fast_analysis.mean_error_lsb == pytest.approx(float(reference_error), abs=4.0)
