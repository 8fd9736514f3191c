"""Least-squares fitting of the OPTIMA behavioural models.

Each function below fits one of the paper's model equations against the
reference characterisation sweeps and reports its RMS residual — the same
numbers the paper quotes in Section IV-C (0.76 mV basic discharge, 0.88 mV
supply, 0.76 mV temperature, 0.59 mV mismatch sigma, 0.15 fJ write energy and
0.74 fJ discharge energy for their 65 nm data).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.core.characterization import CharacterizationData
from repro.core.discharge_model import DischargeModel
from repro.core.energy_model import DischargeEnergyModel, WriteEnergyModel
from repro.core.metrics import rms_error
from repro.core.polynomials import Polynomial1D, SeparableProductModel, vandermonde


@dataclasses.dataclass(frozen=True)
class ModelDegrees:
    """Polynomial degrees of every OPTIMA sub-model.

    The defaults are the degrees the paper states in Eq. 3-8; the ablation
    benchmark sweeps them to quantify the accuracy / parameter-count
    trade-off.
    """

    base_overdrive: int = 4
    base_time: int = 2
    supply: int = 2
    temperature_wordline: int = 3
    mismatch_time: int = 3
    mismatch_wordline: int = 3
    write_vdd: int = 2
    write_temperature: int = 1
    discharge_vdd: int = 1
    discharge_delta_v: int = 3
    discharge_temperature: int = 1
    supply_mode: str = "discharge"


@dataclasses.dataclass
class FitReport:
    """RMS residuals of every fitted model (the Fig. 6 numbers).

    Voltage residuals are in volts, energy residuals in joules; the
    ``describe`` method converts to the paper's mV / fJ units.
    """

    rms_base_discharge: float
    rms_supply: float
    rms_temperature: float
    rms_mismatch_sigma: float
    rms_write_energy: float
    rms_discharge_energy: float

    def as_dict(self) -> Dict[str, float]:
        """Residuals as a plain dictionary."""
        return dataclasses.asdict(self)

    def describe(self) -> str:
        """Multi-line human-readable report in paper units."""
        lines = [
            f"basic discharge : {self.rms_base_discharge * 1e3:7.3f} mV RMS",
            f"supply voltage  : {self.rms_supply * 1e3:7.3f} mV RMS",
            f"temperature     : {self.rms_temperature * 1e3:7.3f} mV RMS",
            f"mismatch sigma  : {self.rms_mismatch_sigma * 1e3:7.3f} mV RMS",
            f"write energy    : {self.rms_write_energy * 1e15:7.3f} fJ RMS",
            f"discharge energy: {self.rms_discharge_energy * 1e15:7.3f} fJ RMS",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Individual model fits
# ----------------------------------------------------------------------
def fit_base_discharge(
    data: CharacterizationData,
    threshold_voltage: float,
    degrees: ModelDegrees,
) -> SeparableProductModel:
    """Fit paper Eq. 3: ``V_BL - V_DD,nom = p4(V_od) * p2(t)``."""
    sweep = data.base
    overdrive = sweep.wordline_voltage - threshold_voltage
    target = sweep.bitline_voltage - sweep.vdd
    model = SeparableProductModel(
        degrees=(degrees.base_overdrive, degrees.base_time),
        variables=("overdrive", "time"),
    )
    model.fit([overdrive, sweep.time], target)
    return model


def fit_supply_correction(
    data: CharacterizationData,
    base: SeparableProductModel,
    threshold_voltage: float,
    vdd_nominal: float,
    degree: int,
    supply_mode: str = "discharge",
) -> Polynomial1D:
    """Fit paper Eq. 4: the multiplicative supply polynomial ``p2(dV_DD)``.

    Given the frozen base model, the target voltage is linear in the supply
    coefficients, so this is a direct least-squares solve.  The design
    matrix depends on the supply mode:

    * ``"voltage"`` — literal paper form; the polynomial multiplies the
      whole base voltage and the target is the observed bit-line voltage.
    * ``"discharge"`` — the polynomial multiplies only the discharge term
      and the target is the observed discharge below the actual supply.
    """
    if supply_mode not in ("discharge", "voltage"):
        raise ValueError("supply_mode must be 'discharge' or 'voltage'")
    sweep = data.supply
    overdrive = sweep.wordline_voltage - threshold_voltage
    discharge_term = base(overdrive, sweep.time)
    delta_vdd = sweep.vdd - vdd_nominal
    if supply_mode == "voltage":
        design = vandermonde(delta_vdd, degree) * (
            vdd_nominal + discharge_term
        )[:, np.newaxis]
        target = sweep.bitline_voltage
    else:
        design = vandermonde(delta_vdd, degree) * discharge_term[:, np.newaxis]
        target = sweep.bitline_voltage - sweep.vdd
    coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
    return Polynomial1D(coefficients, variable="delta_vdd")


def fit_temperature_correction(
    data: CharacterizationData,
    base: SeparableProductModel,
    supply: Polynomial1D,
    threshold_voltage: float,
    vdd_nominal: float,
    temperature_nominal: float,
    degree: int,
    supply_mode: str = "discharge",
) -> Polynomial1D:
    """Fit paper Eq. 5: the additive term ``t * (T - T_nom) * p3(V_WL)``."""
    sweep = data.temperature
    overdrive = sweep.wordline_voltage - threshold_voltage
    discharge_term = base(overdrive, sweep.time)
    delta_vdd = sweep.vdd - vdd_nominal
    if supply_mode == "voltage":
        predicted = (vdd_nominal + discharge_term) * supply(delta_vdd)
    else:
        predicted = sweep.vdd + discharge_term * supply(delta_vdd)
    residual = sweep.bitline_voltage - predicted
    scale = sweep.time * (sweep.temperature - temperature_nominal)
    design = vandermonde(sweep.wordline_voltage, degree) * scale[:, np.newaxis]
    # Records at the nominal temperature carry no information about the
    # coefficient (their scale factor is zero); excluding them keeps the
    # least-squares problem well conditioned.
    informative = np.abs(scale) > 0.0
    if np.count_nonzero(informative) <= degree + 1:
        raise ValueError("temperature sweep contains no off-nominal records")
    coefficients, *_ = np.linalg.lstsq(
        design[informative], residual[informative], rcond=None
    )
    return Polynomial1D(coefficients, variable="v_wl")


def fit_mismatch_sigma(
    data: CharacterizationData, degrees: ModelDegrees
) -> SeparableProductModel:
    """Fit paper Eq. 6: ``sigma(t, V_WL) = p3(t) * p3(V_WL)``."""
    sweep = data.mismatch
    model = SeparableProductModel(
        degrees=(degrees.mismatch_time, degrees.mismatch_wordline),
        variables=("time", "v_wl"),
    )
    model.fit([sweep.time, sweep.wordline_voltage], sweep.sigma)
    return model


def fit_write_energy(
    data: CharacterizationData, degrees: ModelDegrees
) -> WriteEnergyModel:
    """Fit paper Eq. 7: ``E_wr = p2(V_DD) * p1(T)``."""
    sweep = data.write_energy
    model = SeparableProductModel(
        degrees=(degrees.write_vdd, degrees.write_temperature),
        variables=("vdd", "temperature"),
    )
    model.fit([sweep.vdd, sweep.temperature], sweep.energy)
    return WriteEnergyModel(model)


def fit_discharge_energy(
    data: CharacterizationData, degrees: ModelDegrees
) -> DischargeEnergyModel:
    """Fit paper Eq. 8: ``E_dc = p1(V_DD) * p3(dV_BL) * p1(T)``."""
    sweep = data.discharge_energy
    model = SeparableProductModel(
        degrees=(
            degrees.discharge_vdd,
            degrees.discharge_delta_v,
            degrees.discharge_temperature,
        ),
        variables=("vdd", "delta_v_bl", "temperature"),
    )
    model.fit([sweep.vdd, sweep.delta_v_bl, sweep.temperature], sweep.energy)
    return DischargeEnergyModel(model)


# ----------------------------------------------------------------------
# Full fit
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FittedModels:
    """Bundle of the fitted models plus their residual report."""

    discharge: DischargeModel
    write_energy: WriteEnergyModel
    discharge_energy: DischargeEnergyModel
    report: FitReport


def fit_all_models(
    data: CharacterizationData,
    degrees: Optional[ModelDegrees] = None,
) -> FittedModels:
    """Fit every OPTIMA model against one characterisation dataset."""
    degrees = degrees or ModelDegrees()
    technology = data.technology
    threshold_voltage = technology.vth_nominal
    vdd_nominal = technology.vdd_nominal
    temperature_nominal = technology.temperature_nominal

    base = fit_base_discharge(data, threshold_voltage, degrees)
    supply = fit_supply_correction(
        data,
        base,
        threshold_voltage,
        vdd_nominal,
        degrees.supply,
        supply_mode=degrees.supply_mode,
    )
    temperature = fit_temperature_correction(
        data,
        base,
        supply,
        threshold_voltage,
        vdd_nominal,
        temperature_nominal,
        degrees.temperature_wordline,
        supply_mode=degrees.supply_mode,
    )
    mismatch = fit_mismatch_sigma(data, degrees)
    write_energy = fit_write_energy(data, degrees)
    discharge_energy = fit_discharge_energy(data, degrees)

    discharge_model = DischargeModel(
        base=base,
        supply=supply,
        temperature_coefficient=temperature,
        mismatch_sigma_model=mismatch,
        threshold_voltage=threshold_voltage,
        vdd_nominal=vdd_nominal,
        temperature_nominal=temperature_nominal,
        supply_mode=degrees.supply_mode,
    )

    report = FitReport(
        rms_base_discharge=rms_error(
            discharge_model.bitline_voltage(
                data.base.time, data.base.wordline_voltage
            ),
            data.base.bitline_voltage,
        ),
        rms_supply=rms_error(
            discharge_model.bitline_voltage(
                data.supply.time, data.supply.wordline_voltage, vdd=data.supply.vdd
            ),
            data.supply.bitline_voltage,
        ),
        rms_temperature=rms_error(
            discharge_model.bitline_voltage(
                data.temperature.time,
                data.temperature.wordline_voltage,
                temperature=data.temperature.temperature,
            ),
            data.temperature.bitline_voltage,
        ),
        rms_mismatch_sigma=rms_error(
            discharge_model.mismatch_sigma(
                data.mismatch.time, data.mismatch.wordline_voltage
            ),
            data.mismatch.sigma,
        ),
        rms_write_energy=rms_error(
            write_energy.energy(data.write_energy.vdd, data.write_energy.temperature),
            data.write_energy.energy,
        ),
        rms_discharge_energy=rms_error(
            discharge_energy.energy(
                data.discharge_energy.delta_v_bl,
                data.discharge_energy.vdd,
                data.discharge_energy.temperature,
            ),
            data.discharge_energy.energy,
        ),
    )

    return FittedModels(
        discharge=discharge_model,
        write_energy=write_energy,
        discharge_energy=discharge_energy,
        report=report,
    )
