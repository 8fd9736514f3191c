"""Discharge non-ideality sweeps (paper Fig. 4).

Fig. 4 illustrates the two circuit-level non-idealities of Section III-1 on
the reference simulator:

* (a) the bit-line-bar voltage over time for several word-line voltages,
  including the residual sub-threshold discharge for a logical '0' input and
  the saturation limit of Eq. 2, and
* (b) the nonlinear dependence of the discharge on the word-line voltage
  when sampled at a fixed instant.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.circuits.mosfet import NmosDevice
from repro.circuits.technology import TechnologyCard
from repro.circuits.transient import TransientSolver


@dataclasses.dataclass
class DischargeCurve:
    """One V_BLB(t) trace plus its saturation-limit annotation."""

    wordline_voltage: float
    times: np.ndarray
    voltages: np.ndarray
    saturation_limit: float
    saturation_time: Optional[float]

    @property
    def final_voltage(self) -> float:
        """Bit-line voltage at the end of the trace."""
        return float(self.voltages[-1])

    @property
    def leaves_saturation(self) -> bool:
        """Whether the access device leaves saturation inside the window."""
        return self.saturation_time is not None


def discharge_vs_time(
    technology: TechnologyCard,
    wordline_voltages: Sequence[float] = (0.3, 0.5, 0.7, 0.9, 1.0),
    duration: float = 2.0e-9,
    conditions: Optional[OperatingConditions] = None,
) -> List[DischargeCurve]:
    """Fig. 4a: V_BLB(t) for several word-line voltages."""
    conditions = conditions or OperatingConditions.nominal(technology)
    solver = TransientSolver(technology)
    access = NmosDevice(
        technology, technology.access_width, technology.access_length
    )
    threshold = access.parameters(conditions).threshold_voltage

    # One transient over the whole voltage array; each trace is
    # bit-identical to simulating its voltage alone.
    v_wl = np.asarray(wordline_voltages, dtype=float)
    result = solver.simulate_discharge(v_wl, duration, conditions)
    curves: List[DischargeCurve] = []
    for index, voltage in enumerate(v_wl):
        waveform = result.waveform(index)
        limit = max(float(voltage) - threshold, 0.0)
        saturation_time = waveform.crossing_time(limit) if limit > 0.0 else None
        curves.append(
            DischargeCurve(
                wordline_voltage=float(voltage),
                times=result.times,
                voltages=result.voltages[index].copy(),
                saturation_limit=limit,
                saturation_time=saturation_time,
            )
        )
    return curves


def discharge_vs_wordline_voltage(
    technology: TechnologyCard,
    sampling_time: float = 1.28e-9,
    wordline_voltages: Optional[Sequence[float]] = None,
    conditions: Optional[OperatingConditions] = None,
) -> Dict[str, np.ndarray]:
    """Fig. 4b: V_BLB(V_WL) sampled at ``sampling_time``.

    Returns a mapping with the swept ``wordline_voltage``, the sampled
    ``bitline_voltage`` and the deviation from an ideal linear transfer
    (``nonlinearity``), which is the quantity Fig. 4b visualises.
    """
    conditions = conditions or OperatingConditions.nominal(technology)
    solver = TransientSolver(technology)
    if wordline_voltages is None:
        wordline_voltages = np.linspace(0.3, 1.0, 15)
    v_wl = np.asarray(wordline_voltages, dtype=float)
    discharge = solver.discharge_at(v_wl, sampling_time, conditions)
    bitline_voltage = conditions.vdd - discharge

    # Ideal linear reference between the endpoints of the sweep.
    ideal = np.interp(
        v_wl,
        [v_wl[0], v_wl[-1]],
        [bitline_voltage[0], bitline_voltage[-1]],
    )
    return {
        "wordline_voltage": v_wl,
        "bitline_voltage": bitline_voltage,
        "discharge": discharge,
        "nonlinearity": bitline_voltage - ideal,
    }


def saturation_limited_discharge(
    technology: TechnologyCard,
    wordline_voltage: float = 1.0,
    duration: float = 2.0e-9,
    conditions: Optional[OperatingConditions] = None,
) -> Dict[str, float]:
    """Quantify the saturation-to-triode transition of Eq. 2 for one trace."""
    curves = discharge_vs_time(
        technology, wordline_voltages=(wordline_voltage,), duration=duration, conditions=conditions
    )
    curve = curves[0]
    return {
        "wordline_voltage": curve.wordline_voltage,
        "saturation_limit_voltage": curve.saturation_limit,
        "saturation_time_ns": (
            curve.saturation_time * 1e9 if curve.saturation_time is not None else float("nan")
        ),
        "final_bitline_voltage": curve.final_voltage,
    }
