"""Transistor-level reference substrate for discharge-based in-SRAM computing.

This package is the stand-in for the Cadence Virtuoso + TSMC 65 nm flow used
by the OPTIMA paper.  It provides:

* a 65 nm-class technology card (:mod:`repro.circuits.technology`),
* PVT operating conditions (:mod:`repro.circuits.conditions`),
* an alpha-power-law MOSFET model with sub-threshold conduction
  (:mod:`repro.circuits.mosfet`),
* the 6T SRAM cell and array abstractions (:mod:`repro.circuits.sram_cell`,
  :mod:`repro.circuits.sram_array`),
* bit-line parasitics (:mod:`repro.circuits.bitline`),
* Pelgrom-style mismatch sampling (:mod:`repro.circuits.mismatch`),
* a transient bit-line discharge solver (:mod:`repro.circuits.transient`),
* waveform containers and measurement helpers
  (:mod:`repro.circuits.waveform`),
* energy accounting of the pre-charge / write / discharge phases
  (:mod:`repro.circuits.energy`).

The numerical values are calibrated to publicly known 65 nm-class numbers so
that discharge swings, time constants, and energies land in the ranges the
paper reports, but the purpose of this package is to be a *golden reference*
against which the fast OPTIMA behavioural models are fitted and validated.
"""

from repro.circuits.conditions import OperatingConditions, PVTCorner
from repro.circuits.technology import ProcessCorner, TechnologyCard, tsmc65_like
from repro.circuits.mosfet import MosfetParameters, NmosDevice
from repro.circuits.bitline import BitLine
from repro.circuits.mismatch import MismatchParameters, MismatchSample, MismatchSampler
from repro.circuits.sram_cell import CellState, SramCell
from repro.circuits.sram_array import SramArray, SramColumn, SramWord
from repro.circuits.transient import DischargeResult, DischargeRun, TransientSolver
from repro.circuits.waveform import Waveform
from repro.circuits.energy import EnergyBreakdown, EnergyModelReference

__all__ = [
    "BitLine",
    "CellState",
    "DischargeResult",
    "DischargeRun",
    "EnergyBreakdown",
    "EnergyModelReference",
    "MismatchParameters",
    "MismatchSample",
    "MismatchSampler",
    "MosfetParameters",
    "NmosDevice",
    "OperatingConditions",
    "ProcessCorner",
    "PVTCorner",
    "SramArray",
    "SramCell",
    "SramColumn",
    "SramWord",
    "TechnologyCard",
    "TransientSolver",
    "Waveform",
    "tsmc65_like",
]
