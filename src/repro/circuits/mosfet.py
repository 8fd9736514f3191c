"""Alpha-power-law NMOS model with sub-threshold conduction.

The discharge path of a 6T SRAM cell during an in-memory multiplication is a
stack of two NMOS transistors: the access device (gate driven by the
word-line DAC) and the pull-down device of the inverter that stores '0'
(gate at VDD).  The analogue non-idealities the paper analyses in Section III
all originate from the I-V characteristics of this stack:

* quadratic (really ``alpha``-power) dependence of the saturation current on
  the gate overdrive -> nonlinear discharge vs. word-line voltage
  (paper Fig. 4b),
* non-zero sub-threshold current at ``V_GS <= V_th`` -> residual discharge
  for a logical '0' input (paper Fig. 4a, Section III-1),
* transition from saturation into the linear (triode) region once the
  bit-line has discharged below ``V_WL - V_th`` -> bent discharge curves and
  the sampling-time constraint of Eq. 2.

The model below is the Sakurai-Newton alpha-power law extended with a smooth
sub-threshold exponential, formulated so every method accepts NumPy arrays
and broadcasts (the mismatch Monte-Carlo experiments evaluate thousands of
device instances at once).
"""

from __future__ import annotations

import dataclasses
from typing import Union

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.circuits.technology import ProcessCorner, TechnologyCard

ArrayLike = Union[float, np.ndarray]


@dataclasses.dataclass(frozen=True)
class MosfetParameters:
    """Electrical parameters of one NMOS instance at one operating point.

    Instances are produced by :meth:`NmosDevice.parameters` which folds in
    the technology card, the operating conditions (temperature and process
    corner) and optional per-device mismatch offsets.

    Attributes
    ----------
    threshold_voltage:
        Effective threshold voltage in volts.
    gain:
        Transconductance parameter ``K = k' * W/L * mobility_factor`` in
        A/V^alpha.
    alpha:
        Velocity-saturation exponent.
    channel_length_modulation:
        Early-effect coefficient in 1/V.
    subthreshold_swing:
        Sub-threshold swing in V/decade.
    leak_current:
        Drain current at ``V_GS == V_th`` for this geometry, anchoring the
        sub-threshold exponential.
    thermal_voltage:
        kT/q at the operating temperature.
    """

    threshold_voltage: float
    gain: float
    alpha: float
    channel_length_modulation: float
    subthreshold_swing: float
    leak_current: float
    thermal_voltage: float


class NmosDevice:
    """One NMOS transistor instance bound to a technology card.

    Parameters
    ----------
    technology:
        Technology card supplying process constants.
    width, length:
        Drawn dimensions in metres.
    vth_offset:
        Per-instance threshold mismatch offset in volts (from the Pelgrom
        sampler); defaults to a perfectly matched device.
    gain_offset:
        Per-instance relative current-factor mismatch (e.g. ``0.01`` for a
        +1 % deviation).
    name:
        Optional instance name used in diagnostics.
    """

    def __init__(
        self,
        technology: TechnologyCard,
        width: float,
        length: float,
        vth_offset: float = 0.0,
        gain_offset: float = 0.0,
        name: str = "M",
    ) -> None:
        if width <= 0.0 or length <= 0.0:
            raise ValueError("device dimensions must be positive")
        self.technology = technology
        self.width = width
        self.length = length
        self.vth_offset = vth_offset
        self.gain_offset = gain_offset
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"NmosDevice(name={self.name!r}, W={self.width * 1e9:.0f}n, "
            f"L={self.length * 1e9:.0f}n, dVth={self.vth_offset * 1e3:+.2f}mV)"
        )

    # ------------------------------------------------------------------
    # Parameter extraction
    # ------------------------------------------------------------------
    def parameters(self, conditions: OperatingConditions) -> MosfetParameters:
        """Fold technology, PVT conditions and mismatch into one parameter set."""
        tech = self.technology
        vth = tech.threshold_voltage(conditions.temperature, conditions.corner)
        vth += self.vth_offset
        gain = tech.device_gain(
            self.width, self.length, conditions.temperature, conditions.corner
        )
        gain *= 1.0 + self.gain_offset
        # The sub-threshold anchor current scales with geometry and corner in
        # the same way as the strong-inversion gain.
        leak = (
            tech.subthreshold_leak_current
            * (self.width / self.length)
            * tech.mobility_factor(conditions.temperature, conditions.corner)
            * (1.0 + self.gain_offset)
        )
        # Sub-threshold swing worsens linearly with absolute temperature.
        swing = tech.subthreshold_swing * (
            conditions.temperature / tech.temperature_nominal
        )
        return MosfetParameters(
            threshold_voltage=vth,
            gain=gain,
            alpha=tech.alpha,
            channel_length_modulation=tech.channel_length_modulation,
            subthreshold_swing=swing,
            leak_current=leak,
            thermal_voltage=tech.thermal_voltage(conditions.temperature),
        )

    # ------------------------------------------------------------------
    # I-V characteristics
    # ------------------------------------------------------------------
    def drain_current(
        self,
        vgs: ArrayLike,
        vds: ArrayLike,
        conditions: OperatingConditions,
    ) -> np.ndarray:
        """Drain current for gate-source voltage ``vgs`` and drain-source ``vds``.

        The model pieces together three operating regions and keeps the
        transitions continuous:

        * sub-threshold (``vgs < vth``): exponential in the gate underdrive
          with a ``1 - exp(-vds / vt)`` drain saturation factor,
        * saturation (``vds >= vdsat``): ``K * (vgs - vth) ** alpha`` with
          channel-length modulation,
        * triode (``vds < vdsat``): the Sakurai-Newton quadratic blending
          ``Isat * (2 - vds/vdsat) * (vds/vdsat)``.

        All arguments broadcast; the return value is a NumPy array.
        """
        params = self.parameters(conditions)
        return drain_current_from_parameters(params, vgs, vds)

    def saturation_drain_voltage(
        self, vgs: ArrayLike, conditions: OperatingConditions
    ) -> np.ndarray:
        """Drain saturation voltage ``V_dsat`` for the given gate voltage."""
        params = self.parameters(conditions)
        overdrive = np.maximum(np.asarray(vgs, dtype=float) - params.threshold_voltage, 0.0)
        return saturation_voltage(overdrive, params.alpha)


def saturation_voltage(overdrive: ArrayLike, alpha: float) -> np.ndarray:
    """Alpha-power-law drain saturation voltage.

    The Sakurai-Newton model uses ``V_dsat = K_v * V_od ** (alpha / 2)``.
    ``K_v`` is chosen as 1.0 V^(1 - alpha/2) so the square-law limit
    (``alpha == 2``) reduces to the classical ``V_dsat == V_od``.
    """
    overdrive = np.maximum(np.asarray(overdrive, dtype=float), 0.0)
    return overdrive ** (alpha / 2.0)


@dataclasses.dataclass(frozen=True)
class GateTerms:
    """The drain-independent half of the I-V equation at one gate voltage.

    :func:`gate_terms` computes it; :func:`drain_current_from_gate` finishes
    the current for any drain voltage.  A device whose gate voltage stays
    fixed while its drain voltage varies (the pull-down device of the
    discharge stack, gate at VDD) computes these once and reuses them.

    Attributes
    ----------
    overdrive:
        Gate overdrive ``V_GS - V_th`` (negative below threshold).
    subthreshold_current:
        Sub-threshold current before the drain factor
        ``1 - exp(-V_DS / V_t)``.
    saturation_voltage:
        Drain saturation voltage ``V_dsat``.
    saturation_current:
        ``K * V_od ** alpha``, the saturation current before channel-length
        modulation.
    """

    overdrive: np.ndarray
    subthreshold_current: np.ndarray
    saturation_voltage: np.ndarray
    saturation_current: np.ndarray


def gate_terms(params: MosfetParameters, vgs: ArrayLike) -> GateTerms:
    """Evaluate the parts of the I-V equation that depend on ``vgs`` only."""
    overdrive = np.asarray(vgs, dtype=float) - params.threshold_voltage
    n_factor = params.subthreshold_swing / (np.log(10.0) * params.thermal_voltage)
    sub_exponent = np.clip(
        np.minimum(overdrive, 0.0) / (n_factor * params.thermal_voltage), -80.0, 0.0
    )
    overdrive_pos = np.maximum(overdrive, 0.0)
    return GateTerms(
        overdrive=overdrive,
        subthreshold_current=params.leak_current * np.exp(sub_exponent),
        saturation_voltage=saturation_voltage(overdrive_pos, params.alpha),
        saturation_current=params.gain * overdrive_pos**params.alpha,
    )


def drain_current_from_gate(
    params: MosfetParameters, gate: GateTerms, vds: ArrayLike
) -> np.ndarray:
    """Finish the drain current from precomputed :class:`GateTerms`.

    The three operating regions (sub-threshold, saturation, triode) are
    those of :meth:`NmosDevice.drain_current`.
    """
    vds_clipped = np.maximum(np.asarray(vds, dtype=float), 0.0)
    i_sub = gate.subthreshold_current * (
        1.0 - np.exp(-vds_clipped / params.thermal_voltage)
    )
    vdsat = gate.saturation_voltage
    i_sat = gate.saturation_current * (
        1.0 + params.channel_length_modulation * vds_clipped
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(vdsat > 0.0, np.minimum(vds_clipped / np.maximum(vdsat, 1e-12), 1.0), 0.0)
    i_triode = i_sat * (2.0 - ratio) * ratio
    i_strong = np.where(vds_clipped >= vdsat, i_sat, i_triode)

    current = np.where(gate.overdrive > 0.0, i_strong + i_sub, i_sub)
    return np.maximum(current, 0.0)


def drain_current_from_parameters(
    params: MosfetParameters,
    vgs: ArrayLike,
    vds: ArrayLike,
) -> np.ndarray:
    """Evaluate the alpha-power-law I-V equation for a fixed parameter set.

    Split out of :class:`NmosDevice` so the transient solver can hoist the
    (scalar) parameter extraction out of its inner integration loop.  It is
    the composition of :func:`gate_terms` and :func:`drain_current_from_gate`:

    >>> from repro.circuits import OperatingConditions, tsmc65_like
    >>> from repro.circuits.mosfet import access_device
    >>> technology = tsmc65_like()
    >>> params = access_device(technology).parameters(
    ...     OperatingConditions.nominal(technology))
    >>> vgs, vds = np.array([0.2, 0.5, 0.9]), np.array([0.05, 0.3, 1.0])
    >>> split = drain_current_from_gate(params, gate_terms(params, vgs), vds)
    >>> bool(np.array_equal(split, drain_current_from_parameters(params, vgs, vds)))
    True
    """
    return drain_current_from_gate(params, gate_terms(params, vgs), vds)


def access_device(technology: TechnologyCard, **mismatch: float) -> NmosDevice:
    """Construct the 6T access transistor (M5/M6) for a technology card."""
    return NmosDevice(
        technology,
        width=technology.access_width,
        length=technology.access_length,
        name="M_access",
        **mismatch,
    )


def pulldown_device(technology: TechnologyCard, **mismatch: float) -> NmosDevice:
    """Construct the 6T pull-down transistor (M2/M4) for a technology card."""
    return NmosDevice(
        technology,
        width=technology.pulldown_width,
        length=technology.pulldown_length,
        name="M_pulldown",
        **mismatch,
    )


def corner_description(corner: ProcessCorner) -> str:
    """Human-readable description of a process corner for reports."""
    if corner is ProcessCorner.FAST:
        return "fast (low Vth, high mobility)"
    if corner is ProcessCorner.SLOW:
        return "slow (high Vth, low mobility)"
    return "typical"
