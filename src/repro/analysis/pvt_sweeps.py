"""PVT influence sweeps on the reference simulator (paper Fig. 5).

Fig. 5 shows how supply voltage, temperature, global process corners and
local transistor mismatch move the bit-line discharge.  Each function below
reproduces one panel and returns flat arrays ready for assertion or
plotting.

Every panel submits its reference transients as independent jobs through a
:class:`repro.runtime.SweepEngine`, so they run concurrently under the
distributed executor.  The default engine has no cache and hands panels a-c to
their ``batch_fn``, which integrates all of a panel's traces in one RK4 loop
(:meth:`~repro.circuits.transient.TransientSolver.simulate_discharges`);
the traces are bit-identical to one transient per job.  Panel d's shards
fuse the same way, in one solve per chunk.  Every job is
cached when the engine has an artifact cache: one ``fig5-trace`` artifact per
operating point of panels a-c (the three panels share the tag, so their
common nominal point is simulated once) and one ``pvt-montecarlo-shard``
artifact per sample range of panel d.  A warm re-run of the four panels
executes nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.circuits.conditions import OperatingConditions, celsius_to_kelvin
from repro.circuits.mismatch import MismatchArrays, MismatchParameters, MismatchSampler
from repro.circuits.technology import ProcessCorner, TechnologyCard
from repro.circuits.transient import DischargeResult, DischargeRun, TransientSolver
from repro.runtime import Job, SweepEngine, SweepSpec, fingerprint, job_key


def _trace_output(result: DischargeResult) -> Dict[str, np.ndarray]:
    """What one Fig. 5a-c job returns from its transient."""
    return {"times": result.times, "voltages": np.atleast_1d(result.voltages)}


def _discharge_trace(
    technology: TechnologyCard,
    wordline_voltage: float,
    duration: float,
    conditions: OperatingConditions,
) -> Dict[str, np.ndarray]:
    """One reference transient (module-level so executors can pickle it)."""
    solver = TransientSolver(technology)
    return _trace_output(solver.simulate_discharge(wordline_voltage, duration, conditions))


def _trace_batch(jobs: Sequence[Job]) -> List[Dict[str, np.ndarray]]:
    """Integrate a batch of :func:`_discharge_trace` jobs in one RK4 loop.

    Jobs are grouped by technology card and window length; each group is
    one :meth:`~repro.circuits.transient.TransientSolver.simulate_discharges`
    call, whose per-run traces are bit-identical to the per-job path's.
    """
    groups: Dict[tuple, List[int]] = {}
    for index, job in enumerate(jobs):
        technology, _, duration, _ = job.args
        groups.setdefault((id(technology), duration), []).append(index)
    results: List[Optional[Dict[str, np.ndarray]]] = [None] * len(jobs)
    for (_, duration), members in groups.items():
        runs = [DischargeRun(jobs[index].args[1], jobs[index].args[3]) for index in members]
        solver = TransientSolver(jobs[members[0]].args[0])
        for index, result in zip(members, solver.simulate_discharges(runs, duration)):
            results[index] = _trace_output(result)
    return results


def _trace_sweep(
    technology: TechnologyCard,
    wordline_voltage: float,
    duration: float,
    conditions: Sequence[OperatingConditions],
    name: str,
    engine: Optional[SweepEngine],
) -> List[Dict[str, np.ndarray]]:
    """One :func:`_discharge_trace` job per operating point, as one sweep.

    With a cache each job is keyed by ``fig5-trace``, the technology, the
    word-line voltage, the duration and its operating point; the shared
    part of the key is hashed once per sweep.  The sweep's ``batch_fn``
    (:func:`_trace_batch`) integrates the missed points together under the
    default engine and per chunk under ``distributed``;
    the explicit ``serial`` executor runs one transient per job.
    """
    engine = engine or SweepEngine()
    digest = (
        fingerprint(technology, wordline_voltage, duration)
        if engine.cache is not None
        else None
    )
    jobs = [
        Job(
            fn=_discharge_trace,
            args=(technology, wordline_voltage, duration, point),
            name=f"{name}[{index}]",
            key=job_key("fig5-trace", digest, point) if digest is not None else None,
        )
        for index, point in enumerate(conditions)
    ]
    return engine.run(SweepSpec(name, jobs, batch_fn=_trace_batch))


def supply_sweep(
    technology: TechnologyCard,
    wordline_voltage: float = 0.9,
    duration: float = 2.0e-9,
    supply_voltages: Sequence[float] = (0.9, 1.0, 1.1),
    engine: Optional[SweepEngine] = None,
) -> Dict[Union[float, str], np.ndarray]:
    """Fig. 5a: V_BLB(t) for several supply voltages.

    Returns a mapping from supply voltage to the voltage trace; the shared
    time axis is stored under the key ``"time"``.
    """
    conditions = [
        OperatingConditions(vdd=float(vdd), temperature=technology.temperature_nominal)
        for vdd in supply_voltages
    ]
    outputs = _trace_sweep(
        technology, wordline_voltage, duration, conditions, "fig5a-supply", engine
    )
    traces: Dict[Union[float, str], np.ndarray] = {
        float(vdd): output["voltages"] for vdd, output in zip(supply_voltages, outputs)
    }
    traces["time"] = outputs[-1]["times"] if outputs else np.array([])
    return traces


def temperature_sweep(
    technology: TechnologyCard,
    wordline_voltage: float = 0.9,
    duration: float = 2.0e-9,
    temperatures_celsius: Sequence[float] = (0.0, 27.0, 70.0),
    engine: Optional[SweepEngine] = None,
) -> Dict[Union[float, str], np.ndarray]:
    """Fig. 5b: V_BLB(t) for several junction temperatures.

    Returns a mapping from temperature in degC to the voltage trace; the
    shared time axis is stored under the key ``"time"``.
    """
    conditions = [
        OperatingConditions(
            vdd=technology.vdd_nominal,
            temperature=celsius_to_kelvin(float(temperature_c)),
        )
        for temperature_c in temperatures_celsius
    ]
    outputs = _trace_sweep(
        technology, wordline_voltage, duration, conditions, "fig5b-temperature", engine
    )
    traces: Dict[Union[float, str], np.ndarray] = {
        float(temperature_c): output["voltages"]
        for temperature_c, output in zip(temperatures_celsius, outputs)
    }
    traces["time"] = outputs[-1]["times"] if outputs else np.array([])
    return traces


def corner_sweep(
    technology: TechnologyCard,
    wordline_voltage: float = 0.9,
    duration: float = 2.0e-9,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, np.ndarray]:
    """Fig. 5c: V_BLB(t) for the fast / typical / slow process corners."""
    corners = (ProcessCorner.FAST, ProcessCorner.TYPICAL, ProcessCorner.SLOW)
    conditions = [
        OperatingConditions(
            vdd=technology.vdd_nominal,
            temperature=technology.temperature_nominal,
            corner=corner,
        )
        for corner in corners
    ]
    outputs = _trace_sweep(
        technology, wordline_voltage, duration, conditions, "fig5c-corners", engine
    )
    traces: Dict[str, np.ndarray] = {
        corner.value: output["voltages"] for corner, output in zip(corners, outputs)
    }
    traces["time"] = outputs[-1]["times"] if outputs else np.array([])
    return traces


def _draw_mismatch(
    technology: TechnologyCard, samples_total: int, seed: int
) -> MismatchArrays:
    """The full Fig. 5d mismatch sample set of one panel."""
    sampler = MismatchSampler(MismatchParameters.from_technology(technology), seed=seed)
    return sampler.sample_arrays(samples_total)


def _shard_run(
    technology: TechnologyCard,
    wordline_voltage: float,
    full: MismatchArrays,
    start: int,
    stop: int,
) -> DischargeRun:
    """The transient a Monte-Carlo shard integrates: rows ``[start, stop)``."""
    shard = MismatchArrays(
        vth_access=full.vth_access[start:stop],
        vth_pulldown=full.vth_pulldown[start:stop],
        beta_access=full.beta_access[start:stop],
        beta_pulldown=full.beta_pulldown[start:stop],
    )
    return DischargeRun(
        wordline_voltage, OperatingConditions.nominal(technology), mismatch=shard
    )


def _shard_output(
    result: DischargeResult, sampling_times: Sequence[float]
) -> Dict[str, np.ndarray]:
    """What one Monte-Carlo shard returns from its transient."""
    voltages_at = np.stack(
        [np.atleast_1d(result.voltage_at(float(t))) for t in sampling_times]
    )
    return {
        "times": result.times,
        "final_voltages": np.atleast_1d(result.final_voltage),
        "voltages_at": voltages_at,
    }


def _mismatch_monte_carlo_shard(
    technology: TechnologyCard,
    wordline_voltage: float,
    duration: float,
    samples_total: int,
    seed: int,
    start: int,
    stop: int,
    sampling_times: Sequence[float],
) -> Dict[str, np.ndarray]:
    """One contiguous sample range of the Fig. 5d Monte-Carlo panel.

    Every shard redraws the *full* ``samples_total`` mismatch set from the
    shared seed and slices its ``[start, stop)`` rows, so a sample's offsets
    are independent of how the panel is sharded.  The transient solver is
    elementwise across traces (fixed time grid, per-row current tables), so
    the shard's per-sample voltages are bit-identical to the corresponding
    rows of an unsharded run — which is what makes the merged panel
    independent of shard count, executor and dispatch schedule.  That holds
    with reach-bounded tables too: the solver applies its one-block cut-over
    to all the cells of a batch, so a small shard is solved whole where the
    unsharded run is reach-bounded, but each cell's value does not depend on
    which other cells are solved, or beside which rows.

    Module-level (and arguments picklable) so the cluster executor can
    ship it.
    """
    full = _draw_mismatch(technology, samples_total, seed)
    run = _shard_run(technology, wordline_voltage, full, start, stop)
    (result,) = TransientSolver(technology).simulate_discharges([run], duration)
    return _shard_output(result, sampling_times)


def _mismatch_monte_carlo_batch(jobs: Sequence[Job]) -> List[Dict[str, np.ndarray]]:
    """Integrate a batch of :func:`_mismatch_monte_carlo_shard` jobs in one solve.

    The full sample set is drawn once per panel (technology, sample count,
    seed), and the shards are grouped by technology card and window length;
    each group is one
    :meth:`~repro.circuits.transient.TransientSolver.simulate_discharges`
    call.  Each shard's rows are bit-identical to solving the shard alone,
    for the reason :func:`_mismatch_monte_carlo_shard` gives.  Any other job
    runs unchanged.
    """
    draws: Dict[tuple, MismatchArrays] = {}
    groups: Dict[tuple, List[int]] = {}
    results: List[Optional[Dict[str, np.ndarray]]] = [None] * len(jobs)
    for index, job in enumerate(jobs):
        if job.fn is _mismatch_monte_carlo_shard and not job.kwargs:
            technology, _, duration = job.args[:3]
            groups.setdefault((id(technology), duration), []).append(index)
        else:
            results[index] = job.run()
    for (_, duration), members in groups.items():
        runs = []
        for index in members:
            technology, wordline, _, samples, seed, start, stop, _ = jobs[index].args
            panel = (id(technology), samples, seed)
            if panel not in draws:
                draws[panel] = _draw_mismatch(technology, samples, seed)
            runs.append(_shard_run(technology, wordline, draws[panel], start, stop))
        solver = TransientSolver(jobs[members[0]].args[0])
        for index, result in zip(members, solver.simulate_discharges(runs, duration)):
            results[index] = _shard_output(result, jobs[index].args[7])
    return results


def mismatch_monte_carlo(
    technology: TechnologyCard,
    wordline_voltage: float = 0.9,
    duration: float = 2.0e-9,
    samples: int = 1000,
    seed: int = 2024,
    sampling_times: Sequence[float] = (0.5e-9, 1.0e-9, 1.5e-9, 2.0e-9),
    shards: int = 1,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, np.ndarray]:
    """Fig. 5d: Monte-Carlo mismatch spread of the discharge.

    Returns the per-sample final voltages plus the standard deviation of the
    discharge at several sampling instants (the sigma-versus-time behaviour
    that Eq. 6 models).

    The sample range is split into ``shards`` contiguous jobs submitted
    through ``engine``.  This is how the service and the distributed
    executor spread one large Monte-Carlo batch across cluster workers.
    The sweep's ``batch_fn`` integrates every shard of a chunk in one
    vectorised solver call: the default engine solves all the shards at
    once, and under ``distributed`` the shards on one
    worker fuse into one solve, so progress then ticks once per chunk
    rather than once per shard.  Only the ``serial`` executor runs one
    solve per shard.  With a
    cache each shard is keyed by its technology, panel parameters and
    sample range, so repeat runs are cache hits resolved engine-side and
    warm shards never reach a worker.

    The merge concatenates per-sample voltages in sample order and computes
    the sigma over the merged set, so the panel is bit-identical whatever
    ``shards`` or the executor (asserted in ``tests/test_cluster.py``).
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    engine = engine or SweepEngine()
    shards = min(shards, samples)
    times = tuple(float(t) for t in sampling_times)
    panel = (technology, float(wordline_voltage), float(duration), int(samples), int(seed))
    digest = fingerprint(*panel, times) if engine.cache is not None else None
    bounds = np.linspace(0, samples, shards + 1, dtype=int)
    jobs = []
    for index in range(shards):
        start, stop = int(bounds[index]), int(bounds[index + 1])
        jobs.append(
            Job(
                fn=_mismatch_monte_carlo_shard,
                args=(*panel, start, stop, times),
                name=f"montecarlo[{start}:{stop}]",
                key=(
                    job_key("pvt-montecarlo-shard", digest, start, stop)
                    if digest is not None
                    else None
                ),
            )
        )
    outputs = engine.run(
        SweepSpec(
            f"montecarlo[{samples}x{shards}]", jobs, batch_fn=_mismatch_monte_carlo_batch
        )
    )
    voltages_at = np.concatenate([output["voltages_at"] for output in outputs], axis=1)
    sigma_at = np.array([float(np.std(row)) for row in voltages_at])
    return {
        "times": outputs[0]["times"],
        "final_voltages": np.concatenate(
            [output["final_voltages"] for output in outputs]
        ),
        "sampling_times": np.asarray(sampling_times, dtype=float),
        "sigma_at_sampling_times": sigma_at,
    }
