"""Design-space exploration of the in-SRAM multiplier (paper Section V).

The exploration sweeps the three circuit parameters ``tau0``, ``V_DAC,0`` and
``V_DAC,FS`` over a grid of corners (48 in the paper), evaluates every corner
with the fast OPTIMA-backed multiplier, and selects three corners of
interest:

* ``fom`` — maximises the figure of merit ``1 / (eps_mul * E_mul)`` (Eq. 9),
* ``power`` — minimises the energy per multiplication,
* ``variation`` — minimises the analogue standard deviation at the maximum
  discharge (least impacted by process variation).

The result object also exposes the Pareto front and the slices plotted in
paper Fig. 7 (error / energy versus ``V_DAC,FS`` and versus ``tau0``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.core.model_suite import OptimaModelSuite
from repro.multiplier.config import MultiplierConfig
from repro.multiplier.error_analysis import InputSpaceAnalysis, analyze_input_space
from repro.multiplier.imac import InSramMultiplier
from repro.runtime import Job, SweepEngine, SweepSpec, fingerprint, job_key


@dataclasses.dataclass(frozen=True)
class DesignSpace:
    """Grid of circuit parameters to explore.

    The default grid reproduces the paper's 48 corners: four ``tau0``
    values, three ``V_DAC,0`` values and four ``V_DAC,FS`` values.
    """

    tau0_values: Tuple[float, ...] = (0.16e-9, 0.19e-9, 0.22e-9, 0.25e-9)
    v_dac_zero_values: Tuple[float, ...] = (0.3, 0.4, 0.5)
    v_dac_full_scale_values: Tuple[float, ...] = (0.7, 0.8, 0.9, 1.0)
    bits: int = 4

    def __post_init__(self) -> None:
        if not self.tau0_values or not self.v_dac_zero_values or not self.v_dac_full_scale_values:
            raise ValueError("every parameter axis needs at least one value")
        if any(t <= 0.0 for t in self.tau0_values):
            raise ValueError("tau0 values must be positive")

    def configurations(self) -> Iterable[MultiplierConfig]:
        """Yield one :class:`MultiplierConfig` per corner.

        Corners whose DAC range would be empty or inverted (``V_DAC,FS <=
        V_DAC,0``) are skipped; the default grid contains none.
        """
        index = 0
        for tau0 in self.tau0_values:
            for v_zero in self.v_dac_zero_values:
                for v_full_scale in self.v_dac_full_scale_values:
                    if v_full_scale <= v_zero:
                        continue
                    yield MultiplierConfig(
                        tau0=tau0,
                        v_dac_zero=v_zero,
                        v_dac_full_scale=v_full_scale,
                        bits=self.bits,
                        name=f"corner-{index:02d}",
                    )
                    index += 1

    @classmethod
    def quick(cls) -> "DesignSpace":
        """A reduced grid for unit tests."""
        return cls(
            tau0_values=(0.16e-9, 0.24e-9),
            v_dac_zero_values=(0.3, 0.4),
            v_dac_full_scale_values=(0.7, 1.0),
        )


@dataclasses.dataclass
class DesignPoint:
    """One evaluated corner of the design space."""

    config: MultiplierConfig
    analysis: InputSpaceAnalysis

    @property
    def mean_error_lsb(self) -> float:
        """Average multiplication error in LSB (``eps_mul``)."""
        return self.analysis.mean_error_lsb

    @property
    def energy_per_multiplication(self) -> float:
        """Average multiply energy in joules (``E_mul``)."""
        return self.analysis.energy_per_multiplication

    @property
    def figure_of_merit(self) -> float:
        """Paper Eq. 9 figure of merit."""
        return self.analysis.figure_of_merit

    @property
    def sigma_at_max_discharge_lsb(self) -> float:
        """Analogue sigma at the maximum discharge, in LSB."""
        return self.analysis.sigma_at_max_discharge_lsb

    @property
    def relative_sigma_at_max_discharge(self) -> float:
        """Sigma at the maximum discharge relative to the full-scale signal."""
        return self.analysis.relative_sigma_at_max_discharge

    def row(self) -> Dict[str, float]:
        """Tabular representation used by reports and benchmarks."""
        return {
            "tau0_ns": self.config.tau0 * 1e9,
            "v_dac_zero": self.config.v_dac_zero,
            "v_dac_full_scale": self.config.v_dac_full_scale,
            "eps_mul_lsb": self.mean_error_lsb,
            "energy_fj": self.energy_per_multiplication * 1e15,
            "fom": self.figure_of_merit,
            "sigma_max_lsb": self.sigma_at_max_discharge_lsb,
        }


@dataclasses.dataclass(frozen=True)
class DesignCorner:
    """A named, selected corner (Table I row)."""

    name: str
    point: DesignPoint

    @property
    def config(self) -> MultiplierConfig:
        """The selected configuration, renamed after the corner."""
        return self.point.config.renamed(self.name)

    def table_row(self) -> Dict[str, object]:
        """Row of the Table I reproduction."""
        return {
            "corner": self.name,
            "tau0_ns": self.point.config.tau0 * 1e9,
            "v_dac_zero": self.point.config.v_dac_zero,
            "v_dac_full_scale": self.point.config.v_dac_full_scale,
            "eps_mul_lsb": self.point.mean_error_lsb,
            "energy_fj": self.point.energy_per_multiplication * 1e15,
        }


@dataclasses.dataclass
class ExplorationResult:
    """Outcome of one full design-space exploration."""

    points: List[DesignPoint]
    space: DesignSpace
    conditions: OperatingConditions

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("an exploration needs at least one evaluated corner")

    # ------------------------------------------------------------------
    # Corner selection (paper Section V)
    # ------------------------------------------------------------------
    def best_fom(self) -> DesignPoint:
        """Corner maximising the Eq. 9 figure of merit."""
        return max(self.points, key=lambda point: point.figure_of_merit)

    def lowest_energy(self) -> DesignPoint:
        """Corner with the minimum energy per multiplication."""
        return min(self.points, key=lambda point: point.energy_per_multiplication)

    def lowest_variation(self) -> DesignPoint:
        """Corner least impacted by process variation.

        Selected as the smallest mismatch sigma at the maximum discharge
        relative to the corner's full-scale signal (paper Section V's
        "smallest standard deviation at the maximum discharge").
        """
        return min(
            self.points, key=lambda point: point.relative_sigma_at_max_discharge
        )

    def selected_corners(self) -> List[DesignCorner]:
        """The three corners of paper Table I (fom, power, variation)."""
        return [
            DesignCorner("fom", self.best_fom()),
            DesignCorner("power", self.lowest_energy()),
            DesignCorner("variation", self.lowest_variation()),
        ]

    # ------------------------------------------------------------------
    # Pareto front and slices
    # ------------------------------------------------------------------
    def pareto_front(self) -> List[DesignPoint]:
        """Non-dominated corners in the (error, energy) plane."""
        front: List[DesignPoint] = []
        for candidate in self.points:
            dominated = False
            for other in self.points:
                if other is candidate:
                    continue
                better_or_equal = (
                    other.mean_error_lsb <= candidate.mean_error_lsb
                    and other.energy_per_multiplication
                    <= candidate.energy_per_multiplication
                )
                strictly_better = (
                    other.mean_error_lsb < candidate.mean_error_lsb
                    or other.energy_per_multiplication
                    < candidate.energy_per_multiplication
                )
                if better_or_equal and strictly_better:
                    dominated = True
                    break
            if not dominated:
                front.append(candidate)
        front.sort(key=lambda point: point.energy_per_multiplication)
        return front

    def slice_by_full_scale(
        self, tau0: float, v_dac_zero: float
    ) -> List[DesignPoint]:
        """Corners sharing ``tau0`` and ``V_DAC,0`` (Fig. 7 left sweep)."""
        matches = [
            point
            for point in self.points
            if np.isclose(point.config.tau0, tau0, rtol=1e-6, atol=1e-15)
            and np.isclose(point.config.v_dac_zero, v_dac_zero, rtol=1e-6, atol=1e-12)
        ]
        matches.sort(key=lambda point: point.config.v_dac_full_scale)
        return matches

    def slice_by_tau0(
        self, v_dac_zero: float, v_dac_full_scale: float
    ) -> List[DesignPoint]:
        """Corners sharing the DAC voltages (Fig. 7 right sweep)."""
        matches = [
            point
            for point in self.points
            if np.isclose(point.config.v_dac_zero, v_dac_zero, rtol=1e-6, atol=1e-12)
            and np.isclose(
                point.config.v_dac_full_scale, v_dac_full_scale, rtol=1e-6, atol=1e-12
            )
        ]
        matches.sort(key=lambda point: point.config.tau0)
        return matches

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def table(self) -> List[Dict[str, float]]:
        """All corner rows (one dictionary per corner)."""
        return [point.row() for point in self.points]

    def describe(self) -> str:
        """Human-readable summary of the selected corners."""
        lines = [f"design-space exploration: {len(self.points)} corners evaluated"]
        for corner in self.selected_corners():
            row = corner.table_row()
            lines.append(
                f"  {row['corner']:<10} tau0={row['tau0_ns']:.2f} ns "
                f"V0={row['v_dac_zero']:.2f} V FS={row['v_dac_full_scale']:.2f} V "
                f"eps={row['eps_mul_lsb']:.2f} LSB E={row['energy_fj']:.1f} fJ"
            )
        return "\n".join(lines)


def _evaluate_corner(
    suite: OptimaModelSuite,
    config: MultiplierConfig,
    conditions: OperatingConditions,
) -> DesignPoint:
    """Evaluate one design corner (module-level so executors can pickle it)."""
    multiplier = InSramMultiplier(suite, config, conditions=conditions)
    analysis = analyze_input_space(multiplier, conditions=conditions)
    return DesignPoint(config=config, analysis=analysis)


def _evaluate_corner_batch(jobs: Sequence[Job]) -> List[DesignPoint]:
    """Vectorised batch evaluator for the batch executor.

    All corners of one batch share the suite and operating conditions, so
    the batch reuses a single conditions/suite reference instead of
    re-pickling them per job; the evaluation itself is already fully
    vectorised over the 256-point input space inside each corner.
    """
    return [_evaluate_corner(*job.args) for job in jobs]


def explore_design_space(
    suite: OptimaModelSuite,
    space: Optional[DesignSpace] = None,
    conditions: Optional[OperatingConditions] = None,
    engine: Optional[SweepEngine] = None,
) -> ExplorationResult:
    """Evaluate every corner of ``space`` with the OPTIMA-backed multiplier.

    Each corner is one independent job submitted through ``engine``; the
    default serial engine reproduces the historical inline loop exactly,
    while the distributed executor evaluates corners concurrently (bit-identical
    results) and an attached artifact cache makes repeated explorations of
    the same suite near-instant.
    """
    space = space or DesignSpace()
    conditions = conditions or OperatingConditions(
        vdd=suite.vdd_nominal, temperature=suite.temperature_nominal
    )
    engine = engine or SweepEngine()
    # Content hashes are only worth computing when a cache can use them;
    # the suite is hashed once per sweep, not once per corner.
    digest = fingerprint(suite.to_dict()) if engine.cache is not None else None
    jobs = [
        Job(
            fn=_evaluate_corner,
            args=(suite, config, conditions),
            name=f"dse:{config.name}",
            key=(
                job_key("dse-corner", digest, config, conditions)
                if digest is not None
                else None
            ),
        )
        for config in space.configurations()
    ]
    points = engine.run(SweepSpec("design-space", jobs, batch_fn=_evaluate_corner_batch))
    return ExplorationResult(points=list(points), space=space, conditions=conditions)


def select_corners(
    result: ExplorationResult,
) -> Dict[str, MultiplierConfig]:
    """Convenience mapping from corner name to selected configuration."""
    return {corner.name: corner.config for corner in result.selected_corners()}
