"""Reference (transistor-level) evaluation of the in-SRAM multiplier.

This is the multiplier evaluated the way the paper's baseline flow does it —
with transient circuit simulation — and it serves two purposes:

* validation: the OPTIMA-based multiplier is checked against it, and
* the speed-up measurement of paper Section V (iteration over the input
  space and Monte-Carlo mismatch sampling, reference vs. OPTIMA).

The public API mirrors :class:`repro.multiplier.imac.InSramMultiplier` where
it matters (``multiply``, ``combined_discharge``) but every analogue number
comes from the ODE-based
:class:`~repro.circuits.transient.TransientSolver`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchParameters, MismatchSampler
from repro.circuits.technology import TechnologyCard
from repro.circuits.transient import TransientSolver
from repro.converters.adc import Adc
from repro.converters.dac import DacLike, build_dac
from repro.converters.sampling import ChargeSharingCombiner
from repro.multiplier.config import MultiplierConfig

ArrayLike = Union[int, float, np.ndarray]


class ReferenceMultiplier:
    """Circuit-simulation-based evaluation of one multiplier configuration.

    Parameters
    ----------
    technology:
        Technology card of the reference simulator.
    config:
        Circuit configuration (design-space point).
    conditions:
        Default PVT conditions.
    """

    def __init__(
        self,
        technology: TechnologyCard,
        config: MultiplierConfig,
        conditions: Optional[OperatingConditions] = None,
    ) -> None:
        self.technology = technology
        self.config = config
        self.conditions = conditions or OperatingConditions.nominal(technology)
        self.solver = TransientSolver(technology)
        self.dac: DacLike = build_dac(
            v_zero=config.v_dac_zero,
            v_full_scale=config.v_dac_full_scale,
            bits=config.bits,
            nonlinear_exponent=config.dac_nonlinear_exponent,
            capacitance=config.dac_capacitance,
        )
        self.combiner = ChargeSharingCombiner(
            branches=config.bits,
            capacitance_per_branch=config.sampling_capacitance,
        )
        self._discharge_times = np.asarray(config.discharge_times())
        self.adc = Adc(
            levels=max(int(round(self.conditions.vdd / config.adc_lsb_voltage)), 1),
            gain=config.adc_lsb_voltage,
            offset=0.0,
            conversion_energy_per_sample=config.adc_conversion_energy,
        )
        self._readout: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    # Characterisation (the expensive part)
    # ------------------------------------------------------------------
    def characterize_input_space(
        self,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Per-input, per-bit-line discharge table.

        Runs one transient sweep per bit-line (each covering all DAC codes)
        and returns an array of shape ``(codes, bits)`` with the discharge
        of bit-line ``i`` when the stored bit is 1 and the input code drives
        the word line.
        """
        conditions = conditions or self.conditions
        codes = np.arange(self.config.max_operand + 1)
        wordline_voltages = self.dac.voltage(codes)
        table = np.empty((codes.size, self.config.bits))
        for bit_index, duration in enumerate(self._discharge_times):
            table[:, bit_index] = self.solver.discharge_at(
                wordline_voltages, float(duration), conditions
            )
        return table

    def characterize_monte_carlo(
        self,
        samples: int,
        conditions: Optional[OperatingConditions] = None,
        seed: int = 0,
        wordline_code: Optional[int] = None,
    ) -> np.ndarray:
        """Monte-Carlo discharge samples of the MSB bit-line.

        Used by the speed-up experiment: the reference flow has to run one
        transient per mismatch sample, while OPTIMA only samples a Gaussian.
        Returns the sampled discharges, shape ``(samples,)``.
        """
        conditions = conditions or self.conditions
        code = self.config.max_operand if wordline_code is None else wordline_code
        voltage = float(np.asarray(self.dac.voltage(code)))
        sampler = MismatchSampler(
            MismatchParameters.from_technology(self.technology), seed=seed
        )
        arrays = sampler.sample_arrays(samples)
        return self.solver.discharge_at(
            voltage,
            float(self._discharge_times[-1]),
            conditions,
            mismatch=arrays,
        )

    # ------------------------------------------------------------------
    # Multiplication path
    # ------------------------------------------------------------------
    def _weight_bits(self, d: ArrayLike) -> np.ndarray:
        d = np.asarray(d, dtype=int)
        if np.any(d < 0) or np.any(d > self.config.max_operand):
            raise ValueError(
                f"stored operand out of range 0..{self.config.max_operand}"
            )
        shifts = np.arange(self.config.bits)
        return (d[..., np.newaxis] >> shifts) & 1

    def combined_discharge_table(
        self, conditions: Optional[OperatingConditions] = None
    ) -> np.ndarray:
        """Combined discharge for every (x, d) pair, shape ``(codes, codes)``."""
        table = self.characterize_input_space(conditions)
        codes = np.arange(self.config.max_operand + 1)
        bits = self._weight_bits(codes)
        # discharge of pair (x, d): average over bits of table[x, i] * d_i
        return np.einsum("xi,di->xd", table, bits) / self.config.bits

    def _ensure_readout(
        self, conditions: Optional[OperatingConditions] = None
    ) -> Tuple[float, float]:
        """Digital calibration of the ADC-code to product mapping.

        Mirrors :meth:`repro.multiplier.imac.InSramMultiplier._calibrate_readout`:
        a through-origin least-squares gain, so zero discharge decodes to the
        product 0.
        """
        if self._readout is None:
            combined = self.combined_discharge_table(conditions)
            codes = np.arange(self.config.max_operand + 1)
            x_grid, d_grid = np.meshgrid(codes, codes, indexing="ij")
            adc_codes = self.adc.quantize(combined).astype(float).ravel()
            products = (x_grid * d_grid).astype(float).ravel()
            denominator = float(np.dot(adc_codes, adc_codes))
            scale = (
                float(np.dot(adc_codes, products) / denominator)
                if denominator > 0.0
                else 1.0
            )
            if scale <= 0.0:
                scale = 1.0
            self._readout = (scale, 0.0)
        return self._readout

    def _codes_to_products(self, adc_codes: np.ndarray) -> np.ndarray:
        scale, offset = self._ensure_readout()
        products = np.rint(scale * adc_codes.astype(float) + offset)
        return np.clip(products, 0, self.config.product_levels).astype(int)

    def multiply(
        self,
        x: ArrayLike,
        d: ArrayLike,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Digital product of ``x`` and ``d`` (re-simulates the discharges)."""
        conditions = conditions or self.conditions
        self._ensure_readout()
        x_arr = np.asarray(x, dtype=int)
        d_arr = np.asarray(d, dtype=int)
        bits = self._weight_bits(d_arr)
        v_wl = np.asarray(self.dac.voltage(x_arr), dtype=float)
        discharges = np.empty(np.shape(x_arr) + (self.config.bits,))
        for bit_index, duration in enumerate(self._discharge_times):
            discharges[..., bit_index] = self.solver.discharge_at(
                v_wl, float(duration), conditions
            )
        combined = self.combiner.combine_discharges(discharges * bits)
        return self._codes_to_products(self.adc.quantize(combined))
