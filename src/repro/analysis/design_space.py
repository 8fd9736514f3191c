"""Design-space exploration drivers (paper Fig. 7, Table I).

The functions here wrap :mod:`repro.core.dse` into the exact artefacts the
paper reports: the 48-corner sweep slices of Fig. 7 and the three selected
corners of Table I.  The Fig. 8 robustness curves come from
:func:`repro.core.pvt.analyze_corner_robustness`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.circuits.technology import TechnologyCard, tsmc65_like
from repro.core.calibration import calibrated_suite
from repro.core.dse import DesignSpace, ExplorationResult, explore_design_space
from repro.core.model_suite import OptimaModelSuite
from repro.runtime import SweepEngine


def paper_table1_reference() -> List[Dict[str, object]]:
    """Paper Table I: the selected corners and their reported metrics."""
    return [
        {
            "corner": "fom",
            "tau0_ns": 0.16,
            "v_dac_zero": 0.3,
            "v_dac_full_scale": 1.0,
            "eps_mul_lsb": 4.78,
            "energy_fj": 44.0,
        },
        {
            "corner": "power",
            "tau0_ns": 0.16,
            "v_dac_zero": 0.3,
            "v_dac_full_scale": 0.7,
            "eps_mul_lsb": 15.0,
            "energy_fj": 37.0,
        },
        {
            "corner": "variation",
            "tau0_ns": 0.24,
            "v_dac_zero": 0.4,
            "v_dac_full_scale": 1.0,
            "eps_mul_lsb": 9.6,
            "energy_fj": 69.8,
        },
    ]


def run_design_space_exploration(
    technology: Optional[TechnologyCard] = None,
    suite: Optional[OptimaModelSuite] = None,
    space: Optional[DesignSpace] = None,
    engine: Optional[SweepEngine] = None,
) -> ExplorationResult:
    """Calibrate (cached) and explore the default 48-corner design space.

    ``engine`` routes both the characterisation sweeps behind the cached
    calibration and the corner evaluations through the runtime layer, so
    cluster workers and an artifact cache accelerate the whole flow.
    """
    technology = technology or tsmc65_like()
    if suite is None:
        suite = calibrated_suite(technology, engine=engine).suite
    return explore_design_space(suite, space=space, engine=engine)


def corner_summary_rows(result: ExplorationResult) -> List[Dict[str, object]]:
    """Table I reproduction rows (one per selected corner)."""
    rows: List[Dict[str, object]] = []
    for corner in result.selected_corners():
        row = corner.table_row()
        analysis = corner.point.analysis
        row["energy_per_operation_pj"] = analysis.energy_per_operation * 1e12
        row["small_operand_error_lsb"] = analysis.small_operand_error()
        row["relative_sigma_percent"] = 100.0 * analysis.relative_sigma_at_max_discharge
        row["operating_frequency_mhz"] = corner.point.config.operating_frequency / 1e6
        rows.append(row)
    return rows


def format_table1(
    measured_rows: List[Dict[str, object]],
    paper_rows: Optional[List[Dict[str, object]]] = None,
) -> str:
    """Fixed-width text rendering of the Table I reproduction."""
    paper_rows = paper_rows if paper_rows is not None else paper_table1_reference()
    paper_by_name = {row["corner"]: row for row in paper_rows}
    header = (
        f"{'corner':<11}{'tau0[ns]':>9}{'V0[V]':>7}{'FS[V]':>7}"
        f"{'eps[LSB]':>10}{'E_mul[fJ]':>11}{'paper eps':>11}{'paper E':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in measured_rows:
        paper = paper_by_name.get(row["corner"], {})
        lines.append(
            f"{row['corner']:<11}{row['tau0_ns']:>9.2f}{row['v_dac_zero']:>7.2f}"
            f"{row['v_dac_full_scale']:>7.2f}{row['eps_mul_lsb']:>10.2f}"
            f"{row['energy_fj']:>11.1f}"
            f"{paper.get('eps_mul_lsb', float('nan')):>11.2f}"
            f"{paper.get('energy_fj', float('nan')):>9.1f}"
        )
    return "\n".join(lines)


def figure7_slices(result: ExplorationResult) -> Dict[str, List[Dict[str, float]]]:
    """The two Fig. 7 sweeps: versus ``V_DAC,FS`` and versus ``tau0``.

    The left panel of Fig. 7 sweeps ``V_DAC,FS`` for each ``V_DAC,0`` at the
    smallest ``tau0``; the right panel sweeps ``tau0`` for each ``V_DAC,0``
    at the largest ``V_DAC,FS``.
    """
    space = result.space
    smallest_tau0 = min(space.tau0_values)
    largest_fs = max(space.v_dac_full_scale_values)

    versus_full_scale: List[Dict[str, float]] = []
    for v_zero in space.v_dac_zero_values:
        for point in result.slice_by_full_scale(smallest_tau0, v_zero):
            versus_full_scale.append(
                {
                    "v_dac_zero": v_zero,
                    "v_dac_full_scale": point.config.v_dac_full_scale,
                    "eps_mul_lsb": point.mean_error_lsb,
                    "energy_fj": point.energy_per_multiplication * 1e15,
                }
            )

    versus_tau0: List[Dict[str, float]] = []
    for v_zero in space.v_dac_zero_values:
        for point in result.slice_by_tau0(v_zero, largest_fs):
            versus_tau0.append(
                {
                    "v_dac_zero": v_zero,
                    "tau0_ns": point.config.tau0 * 1e9,
                    "eps_mul_lsb": point.mean_error_lsb,
                    "energy_fj": point.energy_per_multiplication * 1e15,
                }
            )

    return {"versus_full_scale": versus_full_scale, "versus_tau0": versus_tau0}
