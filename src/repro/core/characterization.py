"""Reference-simulator characterisation sweeps.

OPTIMA's behavioural models are fitted against "extensive simulation data"
(paper Section IV-C).  This module defines which sweeps make up that data and
runs them on the transistor-level reference simulator:

* a base discharge sweep over (time, word-line voltage) at nominal PVT,
* a supply sweep adding a V_DD axis,
* a temperature sweep adding a temperature axis,
* a mismatch Monte-Carlo sweep measuring the discharge sigma over
  (time, word-line voltage),
* write-energy and discharge-energy tables.

Every sweep is returned as flat, column-oriented NumPy arrays so the fitting
code can feed them straight into least-squares solvers.

The sweeps are submitted to a :class:`repro.runtime.SweepEngine` as
independent jobs (one per operating point / table), so the distributed
executor runs the per-V_DD and per-temperature reference simulations
concurrently and an attached artifact cache makes warm re-runs skip the
reference solver entirely.  The default engine is serial and cache-less, which reproduces the
historical inline behaviour bit-for-bit.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuits.conditions import OperatingConditions, celsius_to_kelvin
from repro.circuits.energy import EnergyModelReference
from repro.circuits.mismatch import MismatchParameters, MismatchSampler
from repro.circuits.technology import TechnologyCard
from repro.circuits.transient import DischargeResult, DischargeRun, TransientSolver
from repro.runtime import Job, SweepEngine, SweepSpec, job_key


@dataclasses.dataclass(frozen=True)
class CharacterizationPlan:
    """Definition of the characterisation sweeps.

    Attributes
    ----------
    times:
        Sampling instants of the discharge waveforms, in seconds.
    wordline_voltages:
        Word-line (DAC output) voltages to sweep.
    supply_voltages:
        Supply voltages of the V_DD sweep.
    temperatures_celsius:
        Junction temperatures of the temperature sweep, in degrees Celsius.
    mismatch_wordline_voltages:
        Word-line voltages at which the mismatch sigma is measured.
    mismatch_samples:
        Monte-Carlo sample count per mismatch measurement point.
    mismatch_seed:
        Seed of the mismatch sampler (keeps calibration deterministic).
    """

    times: tuple = tuple(np.linspace(0.1e-9, 2.0e-9, 12))
    wordline_voltages: tuple = tuple(np.linspace(0.25, 1.05, 13))
    supply_voltages: tuple = (0.90, 0.95, 1.00, 1.05, 1.10)
    temperatures_celsius: tuple = (0.0, 27.0, 50.0, 75.0)
    mismatch_wordline_voltages: tuple = (0.35, 0.5, 0.65, 0.8, 0.9, 1.0)
    mismatch_samples: int = 250
    mismatch_seed: int = 2024

    def __post_init__(self) -> None:
        if len(self.times) < 3:
            raise ValueError("need at least three sampling times")
        if len(self.wordline_voltages) < 4:
            raise ValueError("need at least four word-line voltages")
        if self.mismatch_samples < 10:
            raise ValueError("mismatch_samples must be at least 10")

    @classmethod
    def quick(cls) -> "CharacterizationPlan":
        """A reduced plan for unit tests (seconds instead of tens of seconds)."""
        return cls(
            times=tuple(np.linspace(0.2e-9, 2.0e-9, 6)),
            wordline_voltages=tuple(np.linspace(0.3, 1.0, 7)),
            supply_voltages=(0.9, 1.0, 1.1),
            temperatures_celsius=(0.0, 27.0, 70.0),
            mismatch_wordline_voltages=(0.5, 0.8, 1.0),
            mismatch_samples=60,
        )


@dataclasses.dataclass
class DischargeSweep:
    """Flat table of one bit-line discharge sweep."""

    time: np.ndarray
    wordline_voltage: np.ndarray
    vdd: np.ndarray
    temperature: np.ndarray
    bitline_voltage: np.ndarray

    def __len__(self) -> int:
        return int(self.time.size)


@dataclasses.dataclass
class MismatchSweep:
    """Flat table of the mismatch-sigma measurement."""

    time: np.ndarray
    wordline_voltage: np.ndarray
    sigma: np.ndarray

    def __len__(self) -> int:
        return int(self.time.size)


@dataclasses.dataclass
class WriteEnergySweep:
    """Flat table of the write-energy measurement."""

    vdd: np.ndarray
    temperature: np.ndarray
    energy: np.ndarray

    def __len__(self) -> int:
        return int(self.vdd.size)


@dataclasses.dataclass
class DischargeEnergySweep:
    """Flat table of the discharge-energy measurement."""

    vdd: np.ndarray
    temperature: np.ndarray
    delta_v_bl: np.ndarray
    wordline_voltage: np.ndarray
    energy: np.ndarray

    def __len__(self) -> int:
        return int(self.vdd.size)


@dataclasses.dataclass
class CharacterizationData:
    """All sweeps needed to fit the OPTIMA models."""

    base: DischargeSweep
    supply: DischargeSweep
    temperature: DischargeSweep
    mismatch: MismatchSweep
    write_energy: WriteEnergySweep
    discharge_energy: DischargeEnergySweep
    technology: TechnologyCard
    plan: CharacterizationPlan

    def record_count(self) -> int:
        """Total number of reference-simulation records across all sweeps."""
        return (
            len(self.base)
            + len(self.supply)
            + len(self.temperature)
            + len(self.mismatch)
            + len(self.write_energy)
            + len(self.discharge_energy)
        )


def _duration(plan: CharacterizationPlan) -> float:
    """Length of the discharge window every transient of ``plan`` integrates."""
    return float(max(plan.times))


# ----------------------------------------------------------------------
# Sweep jobs (module-level so the distributed executor can pickle them)
#
# Each transient job is "the run it integrates" plus "rows from its
# result", so a lone job and a batch of jobs integrated together share the
# sampling code.
# ----------------------------------------------------------------------
def _discharge_run(
    technology: TechnologyCard, plan: CharacterizationPlan, conditions: OperatingConditions
) -> DischargeRun:
    """The transient of one (time x V_WL) discharge sweep."""
    return DischargeRun(np.asarray(plan.wordline_voltages, dtype=float), conditions)


def _discharge_rows(
    plan: CharacterizationPlan, conditions: OperatingConditions, result: DischargeResult
) -> np.ndarray:
    """The discharge sweep's transient sampled at ``plan.times``, as a (n, 5) table."""
    times = np.asarray(plan.times, dtype=float)
    v_wl = np.asarray(plan.wordline_voltages, dtype=float)
    sampled = np.empty((v_wl.size, times.size))
    for column, time in enumerate(times):
        sampled[:, column] = np.atleast_1d(result.voltage_at(float(time)))
    grid_wl, grid_t = np.meshgrid(v_wl, times, indexing="ij")
    return np.column_stack(
        [
            grid_t.ravel(),
            grid_wl.ravel(),
            np.full(grid_t.size, conditions.vdd),
            np.full(grid_t.size, conditions.temperature),
            sampled.ravel(),
        ]
    )


def _mismatch_run(
    technology: TechnologyCard, plan: CharacterizationPlan, conditions: OperatingConditions
) -> DischargeRun:
    """The Monte-Carlo transient: every mismatch V_WL times every sample."""
    sampler = MismatchSampler(
        MismatchParameters.from_technology(technology), seed=plan.mismatch_seed
    )
    mc_v_wl = np.asarray(plan.mismatch_wordline_voltages, dtype=float)
    return DischargeRun(
        mc_v_wl[:, np.newaxis], conditions, mismatch=sampler.sample_arrays(plan.mismatch_samples)
    )


def _mismatch_rows(
    plan: CharacterizationPlan, conditions: OperatingConditions, result: DischargeResult
) -> np.ndarray:
    """The Monte-Carlo sigma of the discharge at ``plan.times``, as a (n, 3) table."""
    times = np.asarray(plan.times, dtype=float)
    mc_v_wl = np.asarray(plan.mismatch_wordline_voltages, dtype=float)
    sigma_table = np.empty((mc_v_wl.size, times.size))
    for column, time in enumerate(times):
        voltages = result.voltage_at(float(time))
        sigma_table[:, column] = np.std(voltages, axis=1)
    mc_grid_wl, mc_grid_t = np.meshgrid(mc_v_wl, times, indexing="ij")
    return np.column_stack(
        [mc_grid_t.ravel(), mc_grid_wl.ravel(), sigma_table.ravel()]
    )


def _discharge_rows_job(
    technology: TechnologyCard,
    plan: CharacterizationPlan,
    conditions: OperatingConditions,
    solver: Optional[TransientSolver] = None,
) -> np.ndarray:
    """One (time x V_WL) discharge sweep at fixed conditions, as a (n, 5) table."""
    solver = solver or TransientSolver(technology)
    run = _discharge_run(technology, plan, conditions)
    (result,) = solver.simulate_discharges([run], _duration(plan))
    return _discharge_rows(plan, conditions, result)


def _mismatch_rows_job(
    technology: TechnologyCard,
    plan: CharacterizationPlan,
    conditions: OperatingConditions,
    solver: Optional[TransientSolver] = None,
) -> np.ndarray:
    """The mismatch Monte-Carlo sigma sweep, as a (n, 3) table."""
    solver = solver or TransientSolver(technology)
    run = _mismatch_run(technology, plan, conditions)
    (result,) = solver.simulate_discharges([run], _duration(plan))
    return _mismatch_rows(plan, conditions, result)


#: The transient jobs, each with the run it integrates and its sampling.
_TRANSIENT_JOBS = {
    _discharge_rows_job: (_discharge_run, _discharge_rows),
    _mismatch_rows_job: (_mismatch_run, _mismatch_rows),
}


def _write_energy_rows_job(
    technology: TechnologyCard,
    plan: CharacterizationPlan,
    conditions: OperatingConditions,
    energy_reference: Optional[EnergyModelReference] = None,
) -> np.ndarray:
    """The (V_DD x temperature) write-energy table, as a (n, 3) table."""
    energy_reference = energy_reference or EnergyModelReference(technology)
    vdd_values = np.asarray(plan.supply_voltages, dtype=float)
    temperatures = np.asarray(
        [celsius_to_kelvin(t) for t in plan.temperatures_celsius], dtype=float
    )
    write_vdd, write_temp = np.meshgrid(vdd_values, temperatures, indexing="ij")
    # One NumPy pass over the whole (V_DD x T) grid; elementwise identical
    # to the historical per-point ``write_energy`` loop.
    energies = np.asarray(
        energy_reference.write_energy_table(write_vdd.ravel(), write_temp.ravel()),
        dtype=float,
    )
    return np.column_stack([write_vdd.ravel(), write_temp.ravel(), energies])


def _discharge_energy_rows_job(
    technology: TechnologyCard,
    plan: CharacterizationPlan,
    conditions: OperatingConditions,
    energy_reference: Optional[EnergyModelReference] = None,
    sources: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The discharge-energy table derived from the supply / temperature rows.

    ``sources`` is the stacked (n, 5) discharge table of the supply and
    temperature sweeps; the result appends the reference energy of every
    record as a (n, 5) table ``[vdd, temperature, delta_v, v_wl, energy]``.
    """
    if sources is None:
        raise ValueError("discharge-energy job needs the source discharge rows")
    energy_reference = energy_reference or EnergyModelReference(technology)
    vdd_column = sources[:, 2]
    temp_column = sources[:, 3]
    delta_column = sources[:, 2] - sources[:, 4]
    wl_column = sources[:, 1]
    # One NumPy pass over every record; elementwise identical to the
    # historical per-record ``discharge_energy`` loop.
    energy_column = np.asarray(
        energy_reference.discharge_energy_table(
            delta_column, wl_column, vdd_column, temp_column
        ),
        dtype=float,
    )
    return np.column_stack(
        [vdd_column, temp_column, delta_column, wl_column, energy_column]
    )


def _characterization_batch(jobs: Sequence[Job]) -> List[np.ndarray]:
    """Whole-group evaluator for the characterisation sweeps.

    The transient jobs of a batch (every discharge sweep and the mismatch
    Monte-Carlo) are grouped by technology card and window length, and
    each group is integrated in one
    :meth:`~repro.circuits.transient.TransientSolver.simulate_discharges`
    call: one current-table solve (at most three bisection calls over every
    job's reachable cells, instead of up to three per job) and one RK4 loop
    instead of one per job.  Every job then samples its own result with the
    same code as the per-job path, and the solver keeps each run's traces
    bit-identical to integrating it alone.

    The energy jobs share one
    :class:`~repro.circuits.energy.EnergyModelReference` per technology
    card.  Both reference engines are deterministic pure functions of the
    card (the mismatch Monte-Carlo seeds its own sampler per job), so
    sharing them is bit-identical to per-job construction — the same
    sharing :func:`characterize` already sanctions by accepting injected
    engines.  Jobs with an injected engine, and jobs this module does not
    recognise, run unchanged.
    """
    references: Dict[int, EnergyModelReference] = {}
    groups: Dict[tuple, List[int]] = {}
    results: List[Optional[np.ndarray]] = [None] * len(jobs)
    for index, job in enumerate(jobs):
        technology = job.args[0] if job.args else None
        if job.fn in _TRANSIENT_JOBS and job.kwargs.get("solver") is None:
            groups.setdefault((id(technology), _duration(job.args[1])), []).append(index)
        elif (
            job.fn in (_write_energy_rows_job, _discharge_energy_rows_job)
            and job.kwargs.get("energy_reference") is None
        ):
            key = id(technology)
            if key not in references:
                references[key] = EnergyModelReference(technology)
            kwargs = dict(job.kwargs, energy_reference=references[key])
            results[index] = job.fn(*job.args, **kwargs)
        else:
            results[index] = job.run()
    for (_, duration), members in groups.items():
        group = [jobs[index] for index in members]
        runs = [_TRANSIENT_JOBS[job.fn][0](*job.args) for job in group]
        solved = TransientSolver(group[0].args[0]).simulate_discharges(runs, duration)
        for index, job, result in zip(members, group, solved):
            _, plan, conditions = job.args
            results[index] = _TRANSIENT_JOBS[job.fn][1](plan, conditions, result)
    return results


def _discharge_sweep_from_rows(table: np.ndarray) -> DischargeSweep:
    return DischargeSweep(
        time=table[:, 0],
        wordline_voltage=table[:, 1],
        vdd=table[:, 2],
        temperature=table[:, 3],
        bitline_voltage=table[:, 4],
    )


def characterize(
    technology: TechnologyCard,
    plan: Optional[CharacterizationPlan] = None,
    solver: Optional[TransientSolver] = None,
    energy_reference: Optional[EnergyModelReference] = None,
    engine: Optional[SweepEngine] = None,
) -> CharacterizationData:
    """Run every characterisation sweep on the reference simulator.

    Parameters
    ----------
    technology:
        Technology card to characterise.
    plan:
        Sweep definition; the default plan matches the fitting ranges used
        for the paper-scale experiments, :meth:`CharacterizationPlan.quick`
        is for tests.
    solver, energy_reference:
        Optional pre-built reference engines (injected by tests).  When
        either is injected, artifact caching is disabled — the cache key
        cannot see inside a custom engine, so serving cached rows for it
        would be wrong.
    engine:
        Sweep-execution engine.  The default is a serial, cache-less
        :class:`~repro.runtime.SweepEngine`, which reproduces the historical
        inline behaviour exactly; the distributed executor runs the
        per-V_DD / per-temperature sweeps concurrently and an attached cache makes warm
        re-runs skip the reference solver entirely.
    """
    plan = plan or CharacterizationPlan()
    engine = engine or SweepEngine()
    injected = solver is not None or energy_reference is not None
    # Keys are only worth hashing when a cache can use them; injected
    # engines disable caching because the key cannot see inside them.
    cacheable = engine.cache is not None and not injected

    def sweep_job(tag: str, fn, conditions: OperatingConditions, **kwargs) -> Job:
        return Job(
            fn=fn,
            args=(technology, plan, conditions),
            kwargs=kwargs,
            name=f"characterize:{tag}",
            key=job_key(f"char-{tag}", technology, plan, conditions) if cacheable else None,
        )

    nominal = OperatingConditions.nominal(technology)
    vdd_values = [float(v) for v in plan.supply_voltages]
    temperatures = [celsius_to_kelvin(float(t)) for t in plan.temperatures_celsius]

    jobs = [sweep_job("base", _discharge_rows_job, nominal, solver=solver)]
    for vdd in vdd_values:
        jobs.append(
            sweep_job("supply", _discharge_rows_job, nominal.with_vdd(vdd), solver=solver)
        )
    for temperature in temperatures:
        jobs.append(
            sweep_job(
                "temperature",
                _discharge_rows_job,
                nominal.with_temperature(temperature),
                solver=solver,
            )
        )
    jobs.append(sweep_job("mismatch", _mismatch_rows_job, nominal, solver=solver))
    jobs.append(
        sweep_job(
            "write-energy", _write_energy_rows_job, nominal, energy_reference=energy_reference
        )
    )
    tables = engine.run(
        SweepSpec("characterization", jobs, batch_fn=_characterization_batch)
    )

    base = _discharge_sweep_from_rows(tables[0])
    supply_tables = tables[1 : 1 + len(vdd_values)]
    temperature_tables = tables[1 + len(vdd_values) : 1 + len(vdd_values) + len(temperatures)]
    supply = _discharge_sweep_from_rows(np.vstack(supply_tables))
    temperature_sweep = _discharge_sweep_from_rows(np.vstack(temperature_tables))

    mismatch_table = tables[-2]
    mismatch = MismatchSweep(
        time=mismatch_table[:, 0],
        wordline_voltage=mismatch_table[:, 1],
        sigma=mismatch_table[:, 2],
    )

    write_table = tables[-1]
    write_energy = WriteEnergySweep(
        vdd=write_table[:, 0],
        temperature=write_table[:, 1],
        energy=write_table[:, 2],
    )

    # Second phase: the discharge-energy table is derived from the supply /
    # temperature sweep outputs.  Its inputs are a pure function of
    # (technology, plan), so the cache key does not need to hash the rows.
    sources = np.vstack([np.vstack(supply_tables), np.vstack(temperature_tables)])
    energy_job = Job(
        fn=_discharge_energy_rows_job,
        args=(technology, plan, nominal),
        kwargs={"energy_reference": energy_reference, "sources": sources},
        name="characterize:discharge-energy",
        key=job_key("char-discharge-energy", technology, plan) if cacheable else None,
    )
    energy_table = engine.run(
        SweepSpec(
            "characterization-energy",
            [energy_job],
            batch_fn=_characterization_batch,
        )
    )[0]
    discharge_energy = DischargeEnergySweep(
        vdd=energy_table[:, 0],
        temperature=energy_table[:, 1],
        delta_v_bl=energy_table[:, 2],
        wordline_voltage=energy_table[:, 3],
        energy=energy_table[:, 4],
    )

    return CharacterizationData(
        base=base,
        supply=supply,
        temperature=temperature_sweep,
        mismatch=mismatch,
        write_energy=write_energy,
        discharge_energy=discharge_energy,
        technology=technology,
        plan=plan,
    )
