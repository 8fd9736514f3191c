#!/usr/bin/env python3
"""Quickstart: calibrate OPTIMA, query the models, multiply two numbers.

This walks the three core steps of the framework on the default 65 nm-class
technology card:

1. characterise the reference (transistor-level) simulator and fit the
   OPTIMA behavioural models (paper Eq. 3-8),
2. query the fitted models for discharges, sigmas and energies,
3. run a 4-bit in-SRAM multiplication with the fast multiplier model and
   compare it against the slow reference simulation.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import OperatingConditions, tsmc65_like
from repro.core.calibration import calibrate
from repro.multiplier import InSramMultiplier, ReferenceMultiplier
from repro.multiplier.config import MultiplierConfig


def main() -> None:
    technology = tsmc65_like()
    print(f"technology card        : {technology.name}")
    print(f"nominal supply         : {technology.vdd_nominal:.2f} V")
    print(f"nominal threshold      : {technology.vth_nominal:.2f} V")
    print()

    # ------------------------------------------------------------------
    # Step 1: calibrate the OPTIMA behavioural models.
    # ------------------------------------------------------------------
    print("calibrating OPTIMA against the reference simulator ...")
    calibration = calibrate(technology)
    print(calibration.describe())
    print()
    suite = calibration.suite

    # ------------------------------------------------------------------
    # Step 2: query the fitted models.
    # ------------------------------------------------------------------
    conditions = OperatingConditions.nominal(technology)
    sampling_time = 1.28e-9
    for wordline_voltage in (0.5, 0.7, 0.9):
        discharge = float(suite.discharge_voltage(sampling_time, wordline_voltage, conditions))
        sigma = float(suite.mismatch_sigma(sampling_time, wordline_voltage))
        energy = float(suite.discharge_event_energy(discharge, conditions))
        print(
            f"V_WL={wordline_voltage:.1f} V @ {sampling_time * 1e9:.2f} ns: "
            f"discharge={discharge * 1e3:6.1f} mV  "
            f"sigma={sigma * 1e3:5.2f} mV  "
            f"E_dc={energy * 1e15:5.1f} fJ"
        )
    print(f"write energy per 4-bit word: {suite.word_write_energy(conditions) * 1e15:.1f} fJ")
    print()

    # ------------------------------------------------------------------
    # Step 3: multiply two 4-bit numbers, fast model vs. reference.
    # ------------------------------------------------------------------
    config = MultiplierConfig(tau0=0.16e-9, v_dac_zero=0.3, v_dac_full_scale=1.0, name="demo")
    fast = InSramMultiplier(suite, config)
    reference = ReferenceMultiplier(technology, config)

    x, d = 11, 13
    fast_result = int(np.asarray(fast.multiply(x, d)))
    reference_result = int(np.asarray(reference.multiply(x, d)))
    print(f"in-SRAM multiply {x} x {d} (expected {x * d}):")
    print(f"  OPTIMA model      : {fast_result}")
    print(f"  reference circuit : {reference_result}")
    print(
        f"  energy per multiply: {float(np.mean(fast.multiplication_energy(x, d))) * 1e15:.1f} fJ, "
        f"per full operation: {float(np.mean(fast.operation_energy(x, d))) * 1e12:.2f} pJ"
    )


if __name__ == "__main__":
    main()
