#!/usr/bin/env python3
"""PVT variation study of the bit-line discharge and the multiplier.

Reproduces the circuit-level sweeps of paper Fig. 5 (supply voltage,
temperature, process corners, transistor mismatch) on the reference
simulator, then shows how those variations translate into multiplication
errors for the selected fom corner (paper Fig. 8, right column) and how the
event-driven testbench executes one full multiply sequence.

The per-condition reference transients and the model-based sweeps are
submitted through a :class:`repro.runtime.SweepEngine` (auto engine +
artifact cache); the same flow is available as
``python -m repro run pvt``.

Run with ``python examples/pvt_robustness.py``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.pvt_sweeps import (
    corner_sweep,
    mismatch_monte_carlo,
    supply_sweep,
    temperature_sweep,
)
from repro.circuits import tsmc65_like
from repro.core.calibration import calibrated_suite
from repro.core.dse import explore_design_space
from repro.core.pvt import analyze_corner_robustness
from repro.eventsim import MultiplierTestbench
from repro.runtime import ArtifactCache, SweepEngine


def main() -> None:
    technology = tsmc65_like()
    engine = SweepEngine(cache=ArtifactCache())
    print(f"sweep engine: {engine.describe()}")

    print("Fig. 5a: supply-voltage influence on the discharge (V_WL = 0.9 V, 2 ns)")
    supply = supply_sweep(technology, engine=engine)
    for vdd, trace in sorted(item for item in supply.items() if item[0] != "time"):
        print(f"  VDD={vdd:.1f} V: final V_BLB = {trace[-1]:.3f} V")

    print("Fig. 5b: temperature influence")
    temperature = temperature_sweep(technology, engine=engine)
    for temp_c, trace in sorted(item for item in temperature.items() if item[0] != "time"):
        print(f"  T={temp_c:5.1f} degC: final V_BLB = {trace[-1]:.3f} V")

    print("Fig. 5c: process corners")
    corners = corner_sweep(technology, engine=engine)
    for name in ("fast", "typical", "slow"):
        print(f"  {name:<8}: final V_BLB = {corners[name][-1]:.3f} V")

    print("Fig. 5d: transistor mismatch (1000 Monte-Carlo samples)")
    monte_carlo = mismatch_monte_carlo(technology, samples=1000)
    for time, sigma in zip(
        monte_carlo["sampling_times"], monte_carlo["sigma_at_sampling_times"]
    ):
        print(f"  sigma(V_BLB) at {time * 1e9:.1f} ns = {sigma * 1e3:5.2f} mV")
    print()

    print("translating PVT variation into multiplication error (fom corner) ...")
    suite = calibrated_suite(technology, engine=engine).suite
    exploration = explore_design_space(suite, engine=engine)
    fom = exploration.best_fom().config.renamed("fom")
    report = analyze_corner_robustness(suite, fom, engine=engine)
    print(f"  nominal error: {report.nominal_error_lsb:.2f} LSB")
    print("  error versus supply voltage:")
    for vdd, error in zip(report.supply_sweep.values, report.supply_sweep.mean_error_lsb):
        print(f"    VDD={vdd:.2f} V -> {error:5.2f} LSB")
    print("  error versus temperature:")
    for temp_c, error in zip(
        report.temperature_sweep.values, report.temperature_sweep.mean_error_lsb
    ):
        print(f"    T={temp_c:5.1f} degC -> {error:5.2f} LSB")
    print()

    print("event-driven testbench: one full multiply sequence at the fom corner")
    testbench = MultiplierTestbench(suite, fom)
    result = testbench.run_multiply(9, 14)
    print(f"  result {result.product} (expected {result.expected}), "
          f"{result.executed_events} events, finished at {result.finish_time * 1e9:.2f} ns")
    for line in result.event_log[-6:]:
        print("   ", line)


if __name__ == "__main__":
    main()
