"""One-call OPTIMA calibration flow.

``calibrate()`` chains the three steps of paper Section IV:

1. run the multi-corner characterisation sweeps on the reference simulator,
2. fit the polynomial behavioural models by (alternating) least squares,
3. bundle the fitted models into an :class:`~repro.core.model_suite.OptimaModelSuite`
   together with the residual report (the Fig. 6 RMS numbers).

Because the full characterisation takes a couple of seconds, the module also
provides a process-wide cache keyed by technology name and plan, which the
benchmarks and examples share.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.circuits.technology import TechnologyCard
from repro.core.characterization import (
    CharacterizationData,
    CharacterizationPlan,
    characterize,
)
from repro.core.fitting import FitReport, ModelDegrees, fit_all_models
from repro.core.model_suite import OptimaModelSuite
from repro.runtime import SweepEngine


@dataclasses.dataclass
class CalibrationResult:
    """Outcome of one calibration run."""

    suite: OptimaModelSuite
    report: FitReport
    data: CharacterizationData

    def describe(self) -> str:
        """Human-readable summary of the calibration quality."""
        header = (
            f"OPTIMA calibration for {self.suite.technology_name} "
            f"({self.data.record_count()} reference records)"
        )
        return f"{header}\n{self.report.describe()}"


def calibrate(
    technology: TechnologyCard,
    plan: Optional[CharacterizationPlan] = None,
    degrees: Optional[ModelDegrees] = None,
    engine: Optional[SweepEngine] = None,
) -> CalibrationResult:
    """Characterise ``technology`` and fit the full OPTIMA model suite.

    ``engine`` routes the characterisation sweeps through the runtime layer
    (distributed executor, artifact cache); the default is the auto engine.
    """
    plan = plan or CharacterizationPlan()
    degrees = degrees or ModelDegrees()
    data = characterize(technology, plan, engine=engine)
    fitted = fit_all_models(data, degrees)
    suite = OptimaModelSuite(
        discharge=fitted.discharge,
        write_energy=fitted.write_energy,
        discharge_energy=fitted.discharge_energy,
        technology_name=technology.name,
        metadata={
            "record_count": data.record_count(),
            "rms_errors": fitted.report.as_dict(),
            "times_ns": [t * 1e9 for t in plan.times],
            "wordline_voltages": list(plan.wordline_voltages),
            "supply_voltages": list(plan.supply_voltages),
            "temperatures_celsius": list(plan.temperatures_celsius),
        },
    )
    return CalibrationResult(suite=suite, report=fitted.report, data=data)


# ----------------------------------------------------------------------
# Shared cache
# ----------------------------------------------------------------------
_CACHE: Dict[Tuple[str, int], CalibrationResult] = {}


def calibrated_suite(
    technology: TechnologyCard,
    plan: Optional[CharacterizationPlan] = None,
    degrees: Optional[ModelDegrees] = None,
    engine: Optional[SweepEngine] = None,
) -> CalibrationResult:
    """Cached variant of :func:`calibrate`.

    The in-process cache key combines the technology name and the plan
    contents, so asking for the same calibration twice (as the benchmark
    suite does) re-uses the result instead of re-running the reference
    sweeps.  On top of that, passing an ``engine`` with an attached
    :class:`repro.runtime.ArtifactCache` persists the characterisation
    sweeps on disk, so even a *fresh process* skips the reference solver.
    """
    plan = plan or CharacterizationPlan()
    key = (technology.name, hash((plan, degrees)))
    if key not in _CACHE:
        _CACHE[key] = calibrate(technology, plan, degrees, engine=engine)
    return _CACHE[key]


def clear_calibration_cache() -> None:
    """Drop every cached calibration (used by tests)."""
    _CACHE.clear()
