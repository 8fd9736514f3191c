"""Cache keys of the Fig. 5 and Fig. 8 PVT sweeps.

Each deterministic sweep job is keyed when the engine has an artifact
cache: a warm re-run executes nothing and returns what the cold run did,
and changing any one input of a job changes its key.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.pvt_sweeps import (
    corner_sweep,
    mismatch_monte_carlo,
    supply_sweep,
    temperature_sweep,
)
from repro.core.dse import DesignSpace, explore_design_space
from repro.core.model_suite import OptimaModelSuite
from repro.core.pvt import CornerRobustnessReport, analyze_corner_robustness
from repro.runtime import ArtifactCache, SweepEngine

ROBUSTNESS_AXES = {"supply_voltages": (0.9, 1.1), "temperatures_celsius": (0.0, 70.0)}


class KeyRecorder(SweepEngine):
    """Cached engine that records the key of every job submitted to it."""

    def __init__(self, cache: ArtifactCache):
        super().__init__(cache=cache)
        self.keys = []

    def run(self, work, *args, **kwargs):
        self.keys.extend(job.key for job in work.jobs)
        return super().run(work, *args, **kwargs)


def keys_of(tmp_path, call):
    """The job keys ``call(engine)`` submits to a cached engine."""
    engine = KeyRecorder(ArtifactCache(tmp_path))
    call(engine)
    assert engine.keys and None not in engine.keys
    return engine.keys


def arrays_of(result):
    """Every array of a sweep result, in a fixed order."""
    if isinstance(result, CornerRobustnessReport):
        return [
            result.supply_sweep.mean_error_lsb,
            result.temperature_sweep.mean_error_lsb,
            result.transfer.mean_result,
            result.transfer.result_sigma_lsb,
        ]
    return [result[name] for name in sorted(result, key=str)]


SWEEPS = {
    "supply": lambda technology, suite, config, engine: supply_sweep(technology, engine=engine),
    "temperature": lambda technology, suite, config, engine: temperature_sweep(
        technology, engine=engine
    ),
    "corner": lambda technology, suite, config, engine: corner_sweep(technology, engine=engine),
    "robustness": lambda technology, suite, config, engine: analyze_corner_robustness(
        suite, config, engine=engine, **ROBUSTNESS_AXES
    ),
    "montecarlo": lambda technology, suite, config, engine: mismatch_monte_carlo(
        technology, samples=40, seed=3, shards=2, engine=engine
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_warm_call_executes_nothing(name, tmp_path, technology, quick_suite, fom_config):
    sweep = SWEEPS[name]
    engine = SweepEngine(cache=ArtifactCache(tmp_path))
    cold = sweep(technology, quick_suite, fom_config, engine)
    executed = engine.stats.jobs_executed
    assert executed > 0
    warm = sweep(technology, quick_suite, fom_config, engine)
    assert engine.stats.jobs_executed == executed
    cold_arrays, warm_arrays = arrays_of(cold), arrays_of(warm)
    assert len(cold_arrays) == len(warm_arrays)
    for left, right in zip(cold_arrays, warm_arrays):
        assert np.array_equal(left, right)


def test_fig5_keys_change_with_each_input(tmp_path, technology):
    def supply(**changes):
        arguments = {"wordline_voltage": 0.9, "duration": 2.0e-9, "supply_voltages": (1.0,)}
        arguments.update(changes)
        return keys_of(tmp_path, lambda engine: supply_sweep(engine=engine, **arguments))

    base = set(supply(technology=technology))
    variants = {
        "technology": supply(
            technology=dataclasses.replace(technology, vth_nominal=technology.vth_nominal + 0.01)
        ),
        "vdd": supply(technology=technology, supply_voltages=(1.1,)),
        "wordline_voltage": supply(technology=technology, wordline_voltage=0.8),
        "duration": supply(technology=technology, duration=1.5e-9),
        "temperature": keys_of(
            tmp_path,
            lambda engine: temperature_sweep(
                technology, temperatures_celsius=(70.0,), engine=engine
            ),
        ),
    }
    for name, keys in variants.items():
        assert base.isdisjoint(keys), name

    fast, typical, slow = keys_of(tmp_path, lambda engine: corner_sweep(technology, engine=engine))
    assert len({fast, typical, slow}) == 3
    # The panels share one kind tag, so the nominal point is one artifact.
    assert base == {typical}


def test_robustness_and_dse_keys_change_with_config_and_suite(
    tmp_path, quick_suite, fom_config
):
    data = quick_suite.to_dict()
    data["discharge"]["temperature_coefficient"]["coefficients"][0] *= 1.0 + 1e-12
    perturbed = OptimaModelSuite.from_dict(data)
    retuned = dataclasses.replace(fom_config, tau0=fom_config.tau0 * 1.01)

    def robustness(suite, config):
        return set(
            keys_of(
                tmp_path,
                lambda engine: analyze_corner_robustness(
                    suite, config, engine=engine, **ROBUSTNESS_AXES
                ),
            )
        )

    base = robustness(quick_suite, fom_config)
    assert len(base) == 4
    assert base.isdisjoint(robustness(perturbed, fom_config))
    assert base.isdisjoint(robustness(quick_suite, retuned))

    space = DesignSpace(tau0_values=(0.2e-9,), v_dac_zero_values=(0.3,), v_dac_full_scale_values=(0.9,))

    def corners(suite):
        return keys_of(tmp_path, lambda engine: explore_design_space(suite, space, engine=engine))

    assert set(corners(quick_suite)).isdisjoint(corners(perturbed))


def test_robustness_runs_each_distinct_key_once(tmp_path, quick_suite, fom_config):
    # The default axes hold the nominal point twice (1.00 V and 27 degC):
    # eleven jobs, ten distinct keys, ten executions.
    cache = ArtifactCache(tmp_path)
    engine = SweepEngine(cache=cache)
    report = analyze_corner_robustness(quick_suite, fom_config, engine=engine)
    assert engine.stats.jobs_submitted == 11
    assert engine.stats.jobs_executed == 10
    assert len(list(cache.keys())) == 10
    uncached = analyze_corner_robustness(quick_suite, fom_config, engine=SweepEngine())
    for got, expected in zip(arrays_of(report), arrays_of(uncached)):
        assert np.array_equal(got, expected)
