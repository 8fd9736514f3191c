#!/usr/bin/env python3
"""Design-space exploration of the 4-bit in-SRAM multiplier (paper Section V).

Sweeps the 48-corner design space over ``tau0``, ``V_DAC,0`` and
``V_DAC,FS`` with the fast OPTIMA-backed multiplier, prints the Fig. 7
trends, the Pareto front and the three selected corners of Table I, and runs
the Fig. 8 PVT robustness analysis for each selected corner.

All heavy work (characterisation sweeps, the 48 corner evaluations, the
robustness sweeps) is submitted through a :class:`repro.runtime.SweepEngine`
(the auto engine: vectorised batches for every sweep with a ``batch_fn``)
with a content-addressed artifact cache, so a second run of this example is
served from disk in milliseconds.  The same flow is available as
``python -m repro run dse``.

Run with ``python examples/design_space_exploration.py``.
"""

from __future__ import annotations

from repro.analysis.design_space import (
    corner_summary_rows,
    figure7_slices,
    format_table1,
    run_design_space_exploration,
)
from repro.circuits import tsmc65_like
from repro.core.calibration import calibrated_suite
from repro.core.pvt import analyze_corner_robustness
from repro.core.speedup import measure_speedup
from repro.runtime import ArtifactCache, SweepEngine


def main() -> None:
    technology = tsmc65_like()
    engine = SweepEngine(cache=ArtifactCache())
    print(f"sweep engine: {engine.describe()}")
    print("calibrating OPTIMA (characterisation sweeps via the engine) ...")
    suite = calibrated_suite(technology, engine=engine).suite

    print("exploring the 48-corner design space ...")
    result = run_design_space_exploration(technology, suite=suite, engine=engine)
    print(result.describe())
    print()

    # Fig. 7: error / energy trends.
    slices = figure7_slices(result)
    print("Fig. 7 (left): error and energy versus V_DAC,FS (smallest tau0)")
    for row in slices["versus_full_scale"]:
        print(
            f"  V0={row['v_dac_zero']:.1f} V  FS={row['v_dac_full_scale']:.1f} V  "
            f"eps={row['eps_mul_lsb']:5.2f} LSB  E={row['energy_fj']:5.1f} fJ"
        )
    print()

    # Pareto front.
    print("Pareto-optimal corners (energy vs error):")
    for point in result.pareto_front():
        print(
            f"  tau0={point.config.tau0 * 1e9:.2f} ns V0={point.config.v_dac_zero:.1f} "
            f"FS={point.config.v_dac_full_scale:.1f}: "
            f"eps={point.mean_error_lsb:5.2f} LSB, E={point.energy_per_multiplication * 1e15:5.1f} fJ"
        )
    print()

    # Table I.
    rows = corner_summary_rows(result)
    print("Table I reproduction (measured vs paper):")
    print(format_table1(rows))
    print()

    # Fig. 8: PVT robustness of the selected corners.
    print("Fig. 8: PVT robustness of the selected corners")
    for corner in result.selected_corners():
        report = analyze_corner_robustness(suite, corner.config, engine=engine)
        print("  " + report.describe())
    print()

    # Speed-up measurement (paper Section V).
    print("speed-up versus the reference circuit simulator:")
    report = measure_speedup(technology, suite, input_space_repetitions=2, monte_carlo_samples=200)
    print(report.describe())
    print()
    print(engine.describe())


if __name__ == "__main__":
    main()
