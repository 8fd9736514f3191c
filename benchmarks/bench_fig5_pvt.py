"""Paper Fig. 5 — influence of PVT variations on the BLB discharge.

Four panels: supply voltage, temperature, global process corners, and
transistor mismatch (1000 Monte-Carlo samples).  The benchmark regenerates
all four on the reference simulator and asserts the orderings the paper
describes (supply and process dominate, temperature is minor, mismatch
spread grows with time).
"""

from __future__ import annotations

import numpy as np
from conftest import write_result

from repro.analysis.pvt_sweeps import (
    corner_sweep,
    mismatch_monte_carlo,
    supply_sweep,
    temperature_sweep,
)


def test_fig5_pvt_influence(benchmark, technology):
    def run_all():
        return {
            "supply": supply_sweep(technology),
            "temperature": temperature_sweep(technology),
            "corner": corner_sweep(technology),
            "mismatch": mismatch_monte_carlo(technology, samples=1000),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # (a) supply: higher VDD discharges further below its own rail.
    supply = results["supply"]
    swing = {vdd: trace[0] - trace[-1] for vdd, trace in supply.items() if vdd != "time"}
    assert swing[1.1] > swing[1.0] > swing[0.9]

    # (b) temperature: minor effect, hot is slower.
    temperature = results["temperature"]
    temp_swing = {t: trace[0] - trace[-1] for t, trace in temperature.items() if t != "time"}
    assert temp_swing[0.0] > temp_swing[70.0]
    temperature_span = temp_swing[0.0] - temp_swing[70.0]

    # (c) process corners: fast > typical > slow, and the corner-to-corner
    # span exceeds the temperature span (paper: temperature is the minor axis).
    corners = results["corner"]
    corner_swing = {
        name: corners[name][0] - corners[name][-1] for name in ("fast", "typical", "slow")
    }
    assert corner_swing["fast"] > corner_swing["typical"] > corner_swing["slow"]
    assert (corner_swing["fast"] - corner_swing["slow"]) > temperature_span

    # (d) mismatch: Gaussian spread grows with elapsed discharge time.
    mismatch = results["mismatch"]
    sigmas = mismatch["sigma_at_sampling_times"]
    assert np.all(np.diff(sigmas) > 0.0)
    assert mismatch["final_voltages"].shape == (1000,)

    lines = ["Fig. 5: PVT influence on the BLB discharge (V_WL = 0.9 V, 2 ns window)"]
    lines.append("  (a) supply swing    : " + ", ".join(
        f"VDD={vdd:.1f} V -> {value * 1e3:.0f} mV" for vdd, value in sorted(swing.items())
    ))
    lines.append("  (b) temperature swing: " + ", ".join(
        f"T={temp:.0f} C -> {value * 1e3:.0f} mV" for temp, value in sorted(temp_swing.items())
    ))
    lines.append("  (c) corner swing     : " + ", ".join(
        f"{name} -> {value * 1e3:.0f} mV" for name, value in corner_swing.items()
    ))
    lines.append("  (d) mismatch sigma   : " + ", ".join(
        f"{t * 1e9:.1f} ns -> {s * 1e3:.1f} mV"
        for t, s in zip(mismatch["sampling_times"], sigmas)
    ))
    print("\n" + "\n".join(lines))
    write_result("fig5_pvt_influence", "\n".join(lines))
