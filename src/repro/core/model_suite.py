"""The bundle of fitted OPTIMA models.

:class:`OptimaModelSuite` is what the fast simulation layers consume: the
event-driven testbench, the in-SRAM multiplier model, the design-space
exploration and the DNN injection all query discharges, sigmas and energies
exclusively through this object, never through the slow reference simulator.
The suite is JSON-serialisable so a calibration can be stored next to the
technology it was fitted for and reloaded without re-running the sweeps.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.core.discharge_model import DischargeModel
from repro.core.energy_model import DischargeEnergyModel, WriteEnergyModel

ArrayLike = Union[float, np.ndarray]


@dataclasses.dataclass
class OptimaModelSuite:
    """Fitted OPTIMA discharge and energy models plus calibration metadata.

    Attributes
    ----------
    discharge:
        The composed discharge model (paper Eq. 3-6).
    write_energy:
        The write energy model (paper Eq. 7).
    discharge_energy:
        The discharge energy model (paper Eq. 8).
    technology_name:
        Name of the technology card the suite was calibrated against.
    metadata:
        Free-form calibration metadata (fit ranges, record counts, RMS
        errors) carried along for reporting.
    """

    discharge: DischargeModel
    write_energy: WriteEnergyModel
    discharge_energy: DischargeEnergyModel
    technology_name: str = "unknown"
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    # Convenience queries (conditions-based signatures)
    # ------------------------------------------------------------------
    @property
    def vdd_nominal(self) -> float:
        """Nominal supply voltage of the calibration."""
        return self.discharge.vdd_nominal

    @property
    def temperature_nominal(self) -> float:
        """Nominal temperature of the calibration in kelvin."""
        return self.discharge.temperature_nominal

    def discharge_voltage(
        self,
        time: ArrayLike,
        wordline_voltage: ArrayLike,
        conditions: Optional[OperatingConditions] = None,
        stored_bit: int = 1,
    ) -> np.ndarray:
        """Deterministic discharge ``V_DD - V_BLB`` under the given conditions."""
        vdd, temperature = self._split_conditions(conditions)
        return self.discharge.discharge(
            time, wordline_voltage, vdd=vdd, temperature=temperature, stored_bit=stored_bit
        )

    def sample_discharge_voltage(
        self,
        time: ArrayLike,
        wordline_voltage: ArrayLike,
        rng: np.random.Generator,
        conditions: Optional[OperatingConditions] = None,
        stored_bit: int = 1,
    ) -> np.ndarray:
        """Mismatch-sampled discharge under the given conditions."""
        vdd, temperature = self._split_conditions(conditions)
        return self.discharge.sample_discharge(
            time,
            wordline_voltage,
            rng,
            vdd=vdd,
            temperature=temperature,
            stored_bit=stored_bit,
        )

    def sample_discharge_voltage_stack(
        self,
        time: ArrayLike,
        wordline_voltage: ArrayLike,
        rngs: Sequence[np.random.Generator],
        conditions: Optional[OperatingConditions] = None,
        stored_bit: int = 1,
    ) -> np.ndarray:
        """Mismatch-sampled discharges for a stack of generators.

        One leading axis per generator; row ``i`` is bit-identical to
        :meth:`sample_discharge_voltage` with ``rngs[i]`` (the vectorised
        Monte-Carlo inner loop — mean and sigma evaluated once, not per
        sample).
        """
        vdd, temperature = self._split_conditions(conditions)
        return self.discharge.sample_discharge_stack(
            time,
            wordline_voltage,
            rngs,
            vdd=vdd,
            temperature=temperature,
            stored_bit=stored_bit,
        )

    def mismatch_sigma(self, time: ArrayLike, wordline_voltage: ArrayLike) -> np.ndarray:
        """Mismatch sigma of the discharge (paper Eq. 6)."""
        return self.discharge.mismatch_sigma(time, wordline_voltage)

    def word_write_energy(
        self, conditions: Optional[OperatingConditions] = None, bits: int = 4
    ) -> float:
        """Write energy of a ``bits``-wide word."""
        vdd, temperature = self._split_conditions(conditions)
        return float(self.write_energy.word_energy(vdd, temperature, bits=bits))

    def discharge_event_energy(
        self,
        delta_v_bl: ArrayLike,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Energy of one discharge-and-restore event for a given swing."""
        vdd, temperature = self._split_conditions(conditions)
        return self.discharge_energy.energy(delta_v_bl, vdd, temperature)

    def _split_conditions(
        self, conditions: Optional[OperatingConditions]
    ) -> tuple:
        if conditions is None:
            return self.vdd_nominal, self.temperature_nominal
        return conditions.vdd, conditions.temperature

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "discharge": self.discharge.to_dict(),
            "write_energy": self.write_energy.to_dict(),
            "discharge_energy": self.discharge_energy.to_dict(),
            "technology_name": self.technology_name,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OptimaModelSuite":
        """Inverse of :meth:`to_dict`."""
        return cls(
            discharge=DischargeModel.from_dict(data["discharge"]),
            write_energy=WriteEnergyModel.from_dict(data["write_energy"]),
            discharge_energy=DischargeEnergyModel.from_dict(data["discharge_energy"]),
            technology_name=str(data.get("technology_name", "unknown")),
            metadata=dict(data.get("metadata", {})),
        )

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the suite to a JSON file and return the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "OptimaModelSuite":
        """Load a suite previously written with :meth:`save`."""
        path = pathlib.Path(path)
        return cls.from_dict(json.loads(path.read_text()))
