"""Tests for the design-space exploration, PVT robustness and speed-up flows."""

import numpy as np
import pytest

from repro.core.dse import DesignSpace, explore_design_space, select_corners
from repro.core.pvt import (
    analyze_corner_robustness,
    analyze_corners,
    monte_carlo_error_distribution,
)
from repro.core.speedup import measure_speedup
from repro.multiplier.config import MultiplierConfig


@pytest.fixture(scope="module")
def quick_exploration(suite):
    return explore_design_space(suite, DesignSpace.quick())


@pytest.fixture(scope="module")
def full_exploration(suite):
    return explore_design_space(suite)


class TestDesignSpace:
    def test_default_grid_has_48_corners(self):
        assert len(list(DesignSpace().configurations())) == 48

    def test_invalid_space_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace(tau0_values=())
        with pytest.raises(ValueError):
            DesignSpace(tau0_values=(-1e-9,))

    def test_inverted_dac_ranges_are_skipped(self):
        space = DesignSpace(
            tau0_values=(0.16e-9,),
            v_dac_zero_values=(0.3, 0.8),
            v_dac_full_scale_values=(0.7,),
        )
        configs = list(space.configurations())
        assert len(configs) == 1


class TestExploration:
    def test_every_corner_evaluated(self, quick_exploration):
        assert len(quick_exploration.points) == len(
            list(quick_exploration.space.configurations())
        )

    def test_selected_corners_have_expected_names(self, quick_exploration):
        corners = quick_exploration.selected_corners()
        assert [corner.name for corner in corners] == ["fom", "power", "variation"]

    def test_power_corner_minimises_energy(self, full_exploration):
        power = full_exploration.lowest_energy()
        energies = [p.energy_per_multiplication for p in full_exploration.points]
        assert power.energy_per_multiplication == pytest.approx(min(energies))

    def test_fom_corner_maximises_figure_of_merit(self, full_exploration):
        fom = full_exploration.best_fom()
        assert fom.figure_of_merit == pytest.approx(
            max(p.figure_of_merit for p in full_exploration.points)
        )

    def test_variation_corner_minimises_relative_sigma(self, full_exploration):
        variation = full_exploration.lowest_variation()
        assert variation.relative_sigma_at_max_discharge == pytest.approx(
            min(p.relative_sigma_at_max_discharge for p in full_exploration.points)
        )

    def test_fom_differs_from_power_on_full_grid(self, full_exploration):
        """The paper selects distinct fom and power corners; so do we."""
        fom = full_exploration.best_fom().config
        power = full_exploration.lowest_energy().config
        assert (fom.tau0, fom.v_dac_zero, fom.v_dac_full_scale) != (
            power.tau0,
            power.v_dac_zero,
            power.v_dac_full_scale,
        )

    def test_pareto_front_is_non_dominated(self, quick_exploration):
        front = quick_exploration.pareto_front()
        assert front
        for candidate in front:
            for other in quick_exploration.points:
                strictly_better = (
                    other.mean_error_lsb < candidate.mean_error_lsb
                    and other.energy_per_multiplication < candidate.energy_per_multiplication
                )
                assert not strictly_better

    def test_slices_filter_correctly(self, full_exploration):
        space = full_exploration.space
        slice_fs = full_exploration.slice_by_full_scale(
            space.tau0_values[0], space.v_dac_zero_values[0]
        )
        assert len(slice_fs) == len(space.v_dac_full_scale_values)
        assert all(
            point.config.tau0 == pytest.approx(space.tau0_values[0]) for point in slice_fs
        )
        slice_tau = full_exploration.slice_by_tau0(
            space.v_dac_zero_values[0], space.v_dac_full_scale_values[-1]
        )
        assert len(slice_tau) == len(space.tau0_values)

    def test_fig7_trends(self, full_exploration):
        """Energy grows with V_DAC,FS; accuracy does not get worse."""
        space = full_exploration.space
        points = full_exploration.slice_by_full_scale(
            space.tau0_values[0], space.v_dac_zero_values[0]
        )
        energies = [p.energy_per_multiplication for p in points]
        errors = [p.mean_error_lsb for p in points]
        assert np.all(np.diff(energies) > 0.0)
        assert errors[-1] <= errors[0] + 0.5

    def test_table_and_describe(self, quick_exploration):
        rows = quick_exploration.table()
        assert len(rows) == len(quick_exploration.points)
        assert "eps_mul_lsb" in rows[0]
        assert "fom" in quick_exploration.describe()

    def test_select_corners_mapping(self, quick_exploration):
        corners = select_corners(quick_exploration)
        assert set(corners) == {"fom", "power", "variation"}
        assert all(isinstance(config, MultiplierConfig) for config in corners.values())
        assert corners["fom"].name == "fom"


class TestCornerRobustness:
    def test_report_structure(self, suite, fom_config):
        report = analyze_corner_robustness(
            suite,
            fom_config,
            supply_voltages=(0.9, 1.0, 1.1),
            temperatures_celsius=(0.0, 27.0, 70.0),
        )
        assert report.transfer.expected.shape == report.transfer.mean_result.shape
        assert report.supply_sweep.values.shape == (3,)
        assert report.temperature_sweep.values.shape == (3,)
        assert report.nominal_error_lsb >= 0.0
        assert "eps" in report.describe()

    def test_off_nominal_conditions_increase_error(self, suite, fom_config):
        report = analyze_corner_robustness(
            suite,
            fom_config,
            supply_voltages=(0.9, 1.0, 1.1),
            temperatures_celsius=(0.0, 27.0, 70.0),
        )
        nominal_error = report.nominal_error_lsb
        assert max(report.supply_sweep.mean_error_lsb) >= nominal_error
        assert max(report.temperature_sweep.mean_error_lsb) >= nominal_error
        worst_value, worst_error = report.temperature_sweep.worst_case()
        assert worst_error == pytest.approx(max(report.temperature_sweep.mean_error_lsb))

    def test_analyze_corners_mapping(self, suite, fom_config):
        reports = analyze_corners(
            suite,
            {"a": fom_config, "b": fom_config.renamed("b")},
            supply_voltages=(1.0,),
            temperatures_celsius=(27.0,),
        )
        assert set(reports) == {"a", "b"}

    def test_monte_carlo_error_distribution(self, suite, fom_config):
        errors = monte_carlo_error_distribution(suite, fom_config, samples=20, seed=1)
        assert errors.shape == (20,)
        assert np.all(errors >= 0.0)
        assert float(np.std(errors)) > 0.0
        with pytest.raises(ValueError):
            monte_carlo_error_distribution(suite, fom_config, samples=0)


class TestSpeedup:
    def test_optima_is_faster_than_reference(self, technology, suite):
        report = measure_speedup(
            technology, suite, input_space_repetitions=1, monte_carlo_samples=30
        )
        assert report.input_space_speedup > 1.0
        assert report.monte_carlo_speedup > 1.0
        assert "x" in report.describe()
        assert report.describe().count(" ms") == 4

    def test_model_side_is_timed_over_the_minimum_duration(self, monkeypatch):
        from repro.core import speedup

        calls = []
        clock = iter(float(tick) for tick in range(100))
        monkeypatch.setattr(speedup.time, "perf_counter", lambda: next(clock))
        monkeypatch.setattr(speedup, "MIN_MODEL_SECONDS", 4.0)
        # start at t=0, one call per tick: the fourth call ends at t=4
        assert speedup._seconds_per_call(lambda: calls.append(1)) == 1.0
        assert len(calls) == 4

    @staticmethod
    def fake_rounds(monkeypatch, reference_ticks, model_ticks):
        """Drive ``_interleaved_medians`` with calls that advance a fake clock.

        Each reference / model call advances the clock by its next entry
        of ticks; a model-side timing is one call (the minimum duration is
        one tick).  Returns the log of calls, in order.
        """
        from repro.core import speedup

        now = [0.0]
        log = []

        def advance(name, ticks):
            def call():
                log.append(name)
                now[0] += ticks.pop(0)

            return call

        monkeypatch.setattr(speedup.time, "perf_counter", lambda: now[0])
        monkeypatch.setattr(speedup, "MIN_MODEL_SECONDS", 0.5)
        reference = advance("reference", list(reference_ticks))
        model = advance("model", list(model_ticks))
        return log, lambda scale: speedup._interleaved_medians(reference, model, scale)

    def test_reference_side_reports_the_median_run(self, monkeypatch):
        from repro.core import speedup

        # three runs lasting 1, 2 and 9 ticks: the median (2) differs from
        # the mean (4), the minimum, and the first and last runs
        log, medians = self.fake_rounds(monkeypatch, [1.0, 2.0, 9.0], [1.0, 1.0, 1.0])
        assert speedup.REFERENCE_RUNS == 3
        assert medians(1)[0] == 2.0
        assert log.count("reference") == 3

    def test_rounds_interleave_reference_and_model(self, monkeypatch):
        # model calls of 0.5, 3 and 1 ticks: median 1, scaled by 3 calls
        log, medians = self.fake_rounds(monkeypatch, [1.0, 2.0, 9.0], [0.5, 3.0, 1.0])
        assert medians(3) == (2.0, 3.0)
        assert log == ["reference", "model"] * 3

    def test_invalid_arguments_rejected(self, technology, suite):
        with pytest.raises(ValueError):
            measure_speedup(technology, suite, input_space_repetitions=0)
        with pytest.raises(ValueError):
            measure_speedup(technology, suite, monte_carlo_samples=0)
