"""Reference energy accounting of the in-SRAM multiply sequence.

The OPTIMA energy models (paper Eq. 7/8) are polynomial fits of two
quantities:

* ``E_wr`` — the energy of writing an operand into the SRAM word.  The write
  drives both bit-lines rail-to-rail, toggles the cell internal nodes and
  pays a (mildly temperature-dependent) leakage/short-circuit overhead.
* ``E_dc`` — the energy of one discharge-and-restore cycle, dominated by
  re-charging the bit-line by the discharge swing ``delta_V_BL`` and by
  driving the word line to the DAC voltage.

This module provides the *reference* (physics-based) accounting of those
quantities, which the behavioural models are then fitted against, mirroring
how the paper extracts energies from circuit simulation.
"""

from __future__ import annotations

import dataclasses
from typing import Union

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.circuits.technology import TechnologyCard

ArrayLike = Union[float, np.ndarray]


@dataclasses.dataclass(frozen=True)
class EnergyBreakdown:
    """Per-phase energy of one in-SRAM multiply, in joules."""

    write: float
    wordline: float
    precharge_restore: float
    sampling: float

    @property
    def discharge(self) -> float:
        """Energy of the discharge phase (everything except the write)."""
        return self.wordline + self.precharge_restore + self.sampling

    @property
    def total(self) -> float:
        """Total energy of write plus discharge phases."""
        return self.write + self.discharge

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        return (
            f"write={self.write * 1e15:.1f} fJ, "
            f"wordline={self.wordline * 1e15:.1f} fJ, "
            f"restore={self.precharge_restore * 1e15:.1f} fJ, "
            f"sampling={self.sampling * 1e15:.1f} fJ, "
            f"total={self.total * 1e15:.1f} fJ"
        )


class EnergyModelReference:
    """Physics-based energy accounting for one bit-line / cell pair.

    Parameters
    ----------
    technology:
        Technology card providing the capacitances.
    rows:
        Rows attached to the bit-line (scales its capacitance).
    write_overhead:
        Fraction of extra energy spent in the write driver and short-circuit
        currents on top of the ideal ``C V^2`` term.
    leakage_power_nominal:
        Static leakage power of the column at nominal conditions, charged to
        the write phase (it is active for the whole cycle but dominated by
        the longer write/restore phase); gives ``E_wr`` its mild temperature
        dependence, as in paper Eq. 7.
    write_duration:
        Duration of the write phase used to convert leakage power to energy.
    """

    def __init__(
        self,
        technology: TechnologyCard,
        rows: int = 64,
        write_overhead: float = 0.15,
        leakage_power_nominal: float = 2.0e-6,
        write_duration: float = 2.0e-9,
    ) -> None:
        if write_overhead < 0.0:
            raise ValueError("write_overhead must be non-negative")
        self.technology = technology
        self.rows = rows
        self.write_overhead = write_overhead
        self.leakage_power_nominal = leakage_power_nominal
        self.write_duration = write_duration
        self._bitline_capacitance = technology.bitline_capacitance * (rows / 64.0)

    # ------------------------------------------------------------------
    # Write energy (per cell)
    # ------------------------------------------------------------------
    def write_energy(self, conditions: OperatingConditions) -> float:
        """Energy to write one bit, independent of the written value.

        The symmetric 6T layout makes the write energy data-independent
        (paper Section IV-B): one of the two bit-lines is always discharged
        to ground and re-charged afterwards, and the internal nodes always
        toggle one full swing in the worst case that sizing is done for.
        """
        return float(self.write_energy_table(conditions.vdd, conditions.temperature))

    def write_energy_table(
        self, vdd: ArrayLike, temperature: ArrayLike
    ) -> np.ndarray:
        """Write energy over per-record supply / temperature columns.

        ``vdd`` and ``temperature`` broadcast against each other; every
        element is bit-identical to a scalar :meth:`write_energy` call at
        that operating point (the accounting is purely elementwise), so a
        whole characterisation table evaluates as one NumPy pass.
        """
        vdd = np.asarray(vdd, dtype=float)
        # Both the BL and the BLB are driven during a write (one of them
        # rail-to-rail), the internal nodes toggle, and the word line is
        # pulsed to VDD.
        switching = (
            2.0 * self._bitline_capacitance * vdd**2
            + 2.0 * self.technology.cell_internal_capacitance * vdd**2
            + self.technology.wordline_capacitance * vdd**2
        )
        switching = switching * (1.0 + self.write_overhead)
        return switching + self._leakage_energy_table(vdd, temperature)

    def _leakage_energy_table(
        self, vdd: ArrayLike, temperature: ArrayLike
    ) -> np.ndarray:
        """Elementwise leakage energy over supply / temperature columns."""
        tech = self.technology
        delta_t = np.asarray(temperature, dtype=float) - tech.temperature_nominal
        # Sub-threshold leakage roughly doubles every ~25 K; linearised over
        # the industrial range this is a ~2.8 %/K growth, and it scales
        # linearly with the supply voltage.
        temperature_factor = 1.0 + 0.028 * delta_t
        vdd_factor = vdd / tech.vdd_nominal
        power = (
            self.leakage_power_nominal
            * np.maximum(temperature_factor, 0.1)
            * vdd_factor
        )
        return power * self.write_duration

    def word_write_energy(self, conditions: OperatingConditions, bits: int = 4) -> float:
        """Energy to write a ``bits``-wide word (one cell per column)."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        return bits * self.write_energy(conditions)

    # ------------------------------------------------------------------
    # Discharge energy (per bit-line)
    # ------------------------------------------------------------------
    def discharge_energy_table(
        self,
        delta_v_bl: ArrayLike,
        wordline_voltage: ArrayLike,
        vdd: ArrayLike,
        temperature: ArrayLike,
    ) -> np.ndarray:
        """Discharge energy over per-record columns, one NumPy pass.

        ``delta_v_bl`` is the discharge swing in volts, ``wordline_voltage``
        the DAC output on the word line and ``vdd`` / ``temperature`` the
        per-record operating point; every argument broadcasts, so whole
        characterisation columns evaluate in one elementwise pass.
        """
        delta_v = np.maximum(np.asarray(delta_v_bl, dtype=float), 0.0)
        del wordline_voltage  # accepted for API symmetry; the word-line /
        # DAC driver energy is accounted separately by the multiplier model
        # so it is deliberately *not* part of the cell discharge energy
        # (otherwise it would be double-counted and would break the
        # delta-V-only dependence of paper Eq. 8).

        restore = self._bitline_capacitance * vdd * delta_v
        # The pre-charge switch dissipates an extra quadratic term (the
        # charge flows across a voltage difference that itself grows with
        # the swing); this is what makes the cubic fit of Eq. 8 meaningful.
        restore_loss = 0.5 * self._bitline_capacitance * delta_v**2
        sampling = self.technology.sampling_capacitance * vdd * delta_v

        temperature_factor = 1.0 + 0.0008 * (
            np.asarray(temperature, dtype=float) - self.technology.temperature_nominal
        )
        return (restore + restore_loss + sampling) * temperature_factor

    def breakdown(
        self,
        delta_v_bl: float,
        wordline_voltage: float,
        conditions: OperatingConditions,
        bits: int = 4,
    ) -> EnergyBreakdown:
        """Full per-phase energy breakdown of one multiply on one bit-line."""
        vdd = conditions.vdd
        delta_v = max(float(delta_v_bl), 0.0)
        return EnergyBreakdown(
            write=self.word_write_energy(conditions, bits=bits),
            wordline=float(self.technology.wordline_capacitance * wordline_voltage**2),
            precharge_restore=float(
                self._bitline_capacitance * vdd * delta_v
                + 0.5 * self._bitline_capacitance * delta_v**2
            ),
            sampling=float(self.technology.sampling_capacitance * vdd * delta_v),
        )
