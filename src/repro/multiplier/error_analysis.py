"""Input-space error, energy and sigma analysis of a multiplier configuration.

The design-space exploration of paper Section V scores every configuration by
two scalar metrics — the average multiplication error after quantisation
``eps_mul`` (in ADC LSBs) and the average energy per operation ``E_mul`` —
and the robustness analysis of Fig. 8 additionally looks at the average
result and its analogue standard deviation as a function of the expected
product.  This module computes all of those from one full 256-point
input-space evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.multiplier.config import MultiplierConfig
from repro.multiplier.imac import InSramMultiplier


@dataclasses.dataclass
class InputSpaceAnalysis:
    """Full-input-space metrics of one multiplier configuration.

    Attributes
    ----------
    config:
        The analysed configuration.
    expected:
        Ideal products ``x * d`` over the input space, shape
        ``(codes, codes)``.
    results:
        Digital results produced by the multiplier, same shape.
    errors:
        Absolute errors ``|results - expected|`` in LSB units.
    analog_sigma:
        Mismatch sigma of the combined sampling node per input pair, in
        volts (zero for reference-backend analyses, which model mismatch by
        Monte-Carlo instead).
    energy_per_multiplication:
        Average energy of the multiply phase over the input space, joules.
    energy_per_operation:
        Average energy including the operand write, joules.
    adc_lsb:
        Analogue voltage corresponding to one *product* code step of the
        calibrated read-out (ADC LSB divided by the digital gain).
    """

    config: MultiplierConfig
    expected: np.ndarray
    results: np.ndarray
    errors: np.ndarray
    analog_sigma: np.ndarray
    energy_per_multiplication: float
    energy_per_operation: float
    adc_lsb: float

    # ------------------------------------------------------------------
    # Scalar summaries
    # ------------------------------------------------------------------
    @property
    def mean_error_lsb(self) -> float:
        """Average multiplication error (the paper's ``eps_mul``)."""
        return float(np.mean(self.errors))

    @property
    def max_error_lsb(self) -> float:
        """Worst-case multiplication error in LSB."""
        return float(np.max(self.errors))

    @property
    def rms_error_lsb(self) -> float:
        """Root-mean-square multiplication error in LSB."""
        return float(np.sqrt(np.mean(self.errors**2)))

    @property
    def mean_sigma_lsb(self) -> float:
        """Average analogue sigma expressed in ADC LSB units."""
        if self.adc_lsb <= 0.0:
            return 0.0
        return float(np.mean(self.analog_sigma) / self.adc_lsb)

    @property
    def sigma_at_max_discharge(self) -> float:
        """Analogue sigma (volts) at the maximum-product input pair."""
        return float(self.analog_sigma[-1, -1])

    @property
    def sigma_at_max_discharge_lsb(self) -> float:
        """Analogue sigma at the maximum product, in ADC LSB units."""
        if self.adc_lsb <= 0.0:
            return 0.0
        return self.sigma_at_max_discharge / self.adc_lsb

    @property
    def relative_sigma_at_max_discharge(self) -> float:
        """Sigma at the maximum product relative to the full-scale signal.

        This is the "least impacted by process variation" criterion used to
        select the paper's ``variation`` corner: the corner whose mismatch
        spread is smallest compared to its usable signal swing.
        """
        full_scale = float(self.adc_lsb * self.expected.max())
        if full_scale <= 0.0:
            return 0.0
        return self.sigma_at_max_discharge / full_scale

    @property
    def worst_sigma_mv(self) -> float:
        """Worst-case analogue standard deviation in millivolts."""
        return float(np.max(self.analog_sigma) * 1e3)

    @property
    def figure_of_merit(self) -> float:
        """Paper Eq. 9: ``1 / (eps_mul * E_mul)``."""
        error = max(self.mean_error_lsb, 1e-9)
        energy = max(self.energy_per_multiplication, 1e-30)
        return 1.0 / (error * energy)

    def small_operand_error(self, threshold: int = 4) -> float:
        """Average error restricted to products of small operands.

        The paper attributes the DNN-accuracy collapse of the ``variation``
        corner to its high error for multiplications with small operands,
        which dominate DNN workloads; this metric quantifies exactly that.
        """
        codes = np.arange(self.expected.shape[0])
        mask = (codes[:, np.newaxis] < threshold) | (codes[np.newaxis, :] < threshold)
        return float(np.mean(self.errors[mask]))

    def summary(self) -> Dict[str, float]:
        """Scalar metrics as a dictionary (used by reports)."""
        return {
            "mean_error_lsb": self.mean_error_lsb,
            "max_error_lsb": self.max_error_lsb,
            "rms_error_lsb": self.rms_error_lsb,
            "mean_sigma_lsb": self.mean_sigma_lsb,
            "sigma_at_max_discharge_lsb": self.sigma_at_max_discharge_lsb,
            "worst_sigma_mv": self.worst_sigma_mv,
            "energy_per_multiplication_fj": self.energy_per_multiplication * 1e15,
            "energy_per_operation_pj": self.energy_per_operation * 1e12,
            "figure_of_merit": self.figure_of_merit,
            "small_operand_error_lsb": self.small_operand_error(),
        }

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        return (
            f"{self.config.name}: eps_mul={self.mean_error_lsb:.2f} LSB, "
            f"E_mul={self.energy_per_multiplication * 1e15:.1f} fJ, "
            f"E_op={self.energy_per_operation * 1e12:.2f} pJ, "
            f"sigma_max={self.worst_sigma_mv:.2f} mV"
        )


def analyze_input_space(
    multiplier: InSramMultiplier,
    conditions: Optional[OperatingConditions] = None,
) -> InputSpaceAnalysis:
    """Evaluate one OPTIMA-backed multiplier over its full input space."""
    x_grid, d_grid = multiplier.input_space()
    expected = (x_grid * d_grid).astype(float)
    results = multiplier.multiply(x_grid, d_grid, conditions=conditions).astype(float)
    analog_sigma = multiplier.combined_sigma(x_grid, d_grid)

    errors = np.abs(results - expected)
    multiplication_energy = multiplier.multiplication_energy(
        x_grid, d_grid, conditions=conditions
    )
    operation_energy = multiplier.operation_energy(x_grid, d_grid, conditions=conditions)

    return InputSpaceAnalysis(
        config=multiplier.config,
        expected=expected,
        results=results,
        errors=errors,
        analog_sigma=np.asarray(analog_sigma, dtype=float),
        energy_per_multiplication=float(np.mean(multiplication_energy)),
        energy_per_operation=float(np.mean(operation_energy)),
        adc_lsb=float(multiplier.product_lsb_voltage),
    )


def group_by_expected_product(
    analysis: InputSpaceAnalysis,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the input-space results by expected product (paper Fig. 8, left).

    Returns
    -------
    expected_values:
        Sorted unique expected products.
    mean_results:
        Average digital result for each expected product.
    result_sigma_lsb:
        Analogue standard deviation (converted to LSB) for each product.
    mean_errors:
        Average absolute error for each product.
    """
    flat_expected = analysis.expected.ravel()
    flat_results = analysis.results.ravel()
    flat_sigma = analysis.analog_sigma.ravel()
    flat_errors = analysis.errors.ravel()

    expected_values = np.unique(flat_expected)
    mean_results = np.empty_like(expected_values)
    result_sigma = np.empty_like(expected_values)
    mean_errors = np.empty_like(expected_values)
    for index, value in enumerate(expected_values):
        mask = flat_expected == value
        mean_results[index] = float(np.mean(flat_results[mask]))
        mean_errors[index] = float(np.mean(flat_errors[mask]))
        sigma_volts = float(np.sqrt(np.mean(flat_sigma[mask] ** 2)))
        result_sigma[index] = (
            sigma_volts / analysis.adc_lsb if analysis.adc_lsb > 0.0 else 0.0
        )
    return expected_values, mean_results, result_sigma, mean_errors
