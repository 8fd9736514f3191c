"""Tests for the per-figure / per-table analysis drivers."""

import numpy as np
import pytest

from repro.analysis.design_space import (
    corner_summary_rows,
    figure7_slices,
    format_table1,
    paper_table1_reference,
)
from repro.analysis import dnn_tables
from repro.analysis.dnn_tables import (
    DnnExperimentConfig,
    format_accuracy_table,
    model_builders,
    paper_table2_reference,
    paper_table3_reference,
    run_dnn_accuracy_experiment,
)
from repro.analysis.model_evaluation import format_rms_table, paper_rms_reference
from repro.analysis.nonidealities import (
    discharge_vs_time,
    discharge_vs_wordline_voltage,
    saturation_limited_discharge,
)
from repro.analysis.pvt_sweeps import (
    corner_sweep,
    mismatch_monte_carlo,
    supply_sweep,
    temperature_sweep,
)
from repro.analysis.sota import format_sota_table, sota_design_points
from repro.core.dse import DesignSpace, explore_design_space
from repro.dnn.datasets import cifar10_like, imagenet_like
from repro.dnn.evaluation import AccuracyReport
from repro.dnn.imc_injection import LutBackend
from repro.multiplier.lut import ProductLookupTable
from repro.runtime import ArtifactCache, SweepEngine


class TestSota:
    def test_four_published_designs(self):
        points = sota_design_points()
        assert len(points) == 4
        references = {point.reference for point in points}
        assert references == {"[8]", "[14]", "[15]", "[16]"}

    def test_bit_width_range_matches_figure(self):
        widths = [point.bit_width for point in sota_design_points()]
        assert min(widths) == 4
        assert max(widths) == 8

    def test_energy_reduction_potential(self):
        point = sota_design_points()[0]
        assert point.mac_energy_reduction_potential() > 1.0
        with pytest.raises(ValueError):
            point.mac_energy_reduction_potential(baseline_pj=0.0)

    def test_table_formatting(self):
        text = format_sota_table(sota_design_points())
        assert "clock" in text
        assert "[15]" in text


class TestNonidealities:
    def test_discharge_vs_time_curves(self, technology):
        curves = discharge_vs_time(technology, wordline_voltages=(0.3, 0.7, 1.0), duration=1.5e-9)
        assert len(curves) == 3
        # Higher word-line voltage ends at a lower bit-line voltage.
        finals = [curve.final_voltage for curve in curves]
        assert finals[0] > finals[1] > finals[2]
        # The strongest discharge eventually leaves saturation.
        assert curves[2].saturation_limit > 0.0

    def test_discharge_vs_wordline_voltage_nonlinearity(self, technology):
        sweep = discharge_vs_wordline_voltage(technology, sampling_time=1.28e-9)
        assert sweep["wordline_voltage"].shape == sweep["discharge"].shape
        assert np.all(np.diff(sweep["discharge"]) >= -1e-6)
        # The transfer is visibly nonlinear (the paper's Fig. 4b point).
        assert float(np.max(np.abs(sweep["nonlinearity"]))) > 5e-3

    def test_saturation_limited_discharge(self, technology):
        info = saturation_limited_discharge(technology, wordline_voltage=1.0)
        assert info["saturation_limit_voltage"] > 0.0
        assert info["final_bitline_voltage"] < 1.0


class TestPvtSweeps:
    def test_supply_sweep_ordering(self, technology):
        traces = supply_sweep(technology, supply_voltages=(0.9, 1.1))
        assert traces[0.9][-1] > traces[1.1][-1] - 0.3  # both discharge
        assert (traces[0.9][0] - traces[0.9][-1]) < (traces[1.1][0] - traces[1.1][-1])

    def test_temperature_sweep_ordering(self, technology):
        traces = temperature_sweep(technology, temperatures_celsius=(0.0, 70.0))
        discharge_cold = traces[0.0][0] - traces[0.0][-1]
        discharge_hot = traces[70.0][0] - traces[70.0][-1]
        assert discharge_cold > discharge_hot

    def test_corner_sweep_ordering(self, technology):
        traces = corner_sweep(technology)
        assert traces["fast"][-1] < traces["typical"][-1] < traces["slow"][-1]

    def test_mismatch_monte_carlo_sigma_grows_with_time(self, technology):
        result = mismatch_monte_carlo(technology, samples=150, sampling_times=(0.5e-9, 1.5e-9))
        assert result["final_voltages"].shape == (150,)
        sigmas = result["sigma_at_sampling_times"]
        assert sigmas[1] > sigmas[0] > 0.0


class TestModelEvaluationDriver:
    def test_paper_reference_units(self):
        reference = paper_rms_reference()
        assert reference["rms_supply"] == pytest.approx(0.88e-3)
        assert reference["rms_discharge_energy"] == pytest.approx(0.74e-15)

    def test_format_rms_table(self):
        rows = [
            {"model": "demo", "paper_rms": 0.8, "measured_rms": 1.2, "unit": "mV"},
        ]
        text = format_rms_table(rows)
        assert "demo" in text
        assert "mV" in text


class TestDesignSpaceDriver:
    @pytest.fixture(scope="class")
    def exploration(self, suite):
        return explore_design_space(suite, DesignSpace.quick())

    def test_corner_summary_rows(self, exploration):
        rows = corner_summary_rows(exploration)
        assert len(rows) == 3
        assert {row["corner"] for row in rows} == {"fom", "power", "variation"}
        for row in rows:
            assert row["energy_fj"] > 0.0
            assert row["operating_frequency_mhz"] > 0.0

    def test_format_table1(self, exploration):
        text = format_table1(corner_summary_rows(exploration))
        assert "corner" in text
        assert "fom" in text

    def test_paper_table1_reference_values(self):
        rows = paper_table1_reference()
        assert rows[0]["eps_mul_lsb"] == pytest.approx(4.78)
        assert rows[2]["energy_fj"] == pytest.approx(69.8)

    def test_figure7_slices_structure(self, exploration):
        slices = figure7_slices(exploration)
        assert slices["versus_full_scale"]
        assert slices["versus_tau0"]
        assert {"v_dac_zero", "eps_mul_lsb", "energy_fj"} <= set(slices["versus_full_scale"][0])


class TestDnnTableDriver:
    def test_quick_config_is_smaller(self):
        quick = DnnExperimentConfig.quick()
        default = DnnExperimentConfig()
        assert quick.epochs < default.epochs
        assert quick.image_size <= default.image_size

    def test_paper_references_contain_all_models(self):
        table2 = paper_table2_reference()
        table3 = paper_table3_reference()
        for table in (table2, table3):
            assert set(table) == {"VGG16", "VGG19", "ResNet50", "ResNet101"}
        assert table2["VGG16"]["variation"][0] == pytest.approx(38.22)
        assert table3["ResNet50"]["fom"] == pytest.approx(92.83)

    def test_engine_job_graph_is_bit_identical_and_trains_once(self, tmp_path, monkeypatch):
        """Tables II + III, tiny: no engine == cold cache == warm cache."""
        trained_on = []
        train_network = dnn_tables.train_network

        def counting_train_network(network, dataset, config=None):
            trained_on.append(dataset.name)
            return train_network(network, dataset, config)

        monkeypatch.setattr(dnn_tables, "train_network", counting_train_network)
        config = DnnExperimentConfig(
            image_size=8,
            train_per_class=3,
            test_per_class=2,
            epochs=1,
            transfer_epochs=1,
            calibration_samples=16,
        )
        sizes = dict(image_size=8, train_per_class=3, test_per_class=2)
        imagenet = imagenet_like(**sizes)
        cifar = cifar10_like(**sizes)
        builders = model_builders(8, imagenet.classes)
        models = [builders[0], builders[2]]  # VGG16; ResNet50 has residual blocks
        exact = ProductLookupTable.exact()
        shifted = ProductLookupTable(exact.mean + 1.0, exact.sigma, name="shifted")
        backends = {"exact-lut": LutBackend(exact), "shifted": LutBackend(shifted)}

        def both_tables(engine):
            trained_on.clear()
            tables = {}
            trainings = []
            for table, (dataset, base) in ((2, (imagenet, None)), (3, (cifar, imagenet))):
                tables[table] = run_dnn_accuracy_experiment(
                    dataset, backends, config=config, models=models, base_dataset=base,
                    engine=engine,
                )
                trainings.append(list(trained_on))
                trained_on.clear()
            return tables, trainings

        plain, plain_trainings = both_tables(None)
        assert plain_trainings == [["imagenet-like"] * 2, ["imagenet-like", "cifar10-like"] * 2]
        assert set(plain[3]["ResNet50"]) == {"float32", "int4", "exact-lut", "shifted"}

        cold_engine = SweepEngine(cache=ArtifactCache(tmp_path))
        cold, cold_trainings = both_tables(cold_engine)
        assert cold == plain
        # Table III's base trainings are cache hits of Table II's
        assert cold_trainings == [["imagenet-like"] * 2, ["cifar10-like"] * 2]
        assert cold_engine.stats.cache_hits == 2

        warm_engine = SweepEngine(cache=ArtifactCache(tmp_path))
        warm, warm_trainings = both_tables(warm_engine)
        assert warm == plain
        assert warm_trainings == [[], []]
        assert warm_engine.stats.jobs_executed == 0

    def test_format_accuracy_table(self):
        reports = {
            "DemoNet": {
                "float32": AccuracyReport("DemoNet", "float32", 0.9, 1.0, 100),
                "int4": AccuracyReport("DemoNet", "int4", 0.85, 0.99, 100),
            }
        }
        text = format_accuracy_table(reports, paper_reference=None)
        assert "DemoNet" in text
        assert "float32" in text
