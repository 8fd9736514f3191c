"""ADC model for the multiplier read-out.

After the per-bit-line discharges are combined by the sampling network, an
ADC converts the analogue voltage into the digital multiplication result.
The model is a uniform quantiser with an explicit offset/gain calibration,
because how the analogue range is mapped to product codes is itself a design
decision of the read-out (and the source of the "error after quantisation"
metric the paper optimises).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


@dataclasses.dataclass(frozen=True)
class Adc:
    """Uniform quantiser mapping a discharge voltage to a product code.

    Attributes
    ----------
    levels:
        Number of quantisation *steps*; the 4x4-bit multiplier uses 225
        (products 0..15*15).
    gain:
        Volts per code step (the ADC LSB voltage).
    offset:
        Voltage corresponding to code 0.
    conversion_energy_per_sample:
        Energy of one conversion in joules (flash/SAR budget at this
        resolution and speed).
    """

    levels: int = 225
    gain: float = 1e-3
    offset: float = 0.0
    conversion_energy_per_sample: float = 150e-15

    def __post_init__(self) -> None:
        if self.levels <= 0:
            raise ValueError("levels must be positive")
        if self.gain <= 0.0:
            raise ValueError("gain must be positive")
        if self.conversion_energy_per_sample < 0.0:
            raise ValueError("conversion energy must be non-negative")

    @property
    def lsb(self) -> float:
        """Voltage of one least-significant bit."""
        return self.gain

    def quantize(self, voltage: ArrayLike) -> np.ndarray:
        """Convert a voltage into an integer code, clipped to the code range."""
        voltage = np.asarray(voltage, dtype=float)
        codes = np.rint((voltage - self.offset) / self.gain)
        return np.clip(codes, 0, self.levels).astype(int)

    @classmethod
    def calibrated(
        cls,
        voltages: ArrayLike,
        target_codes: ArrayLike,
        levels: int,
        conversion_energy_per_sample: float = 150e-15,
    ) -> "Adc":
        """Build an ADC whose gain/offset best map ``voltages`` to ``target_codes``.

        This models the one-time read-out calibration a designer performs:
        a linear least-squares fit of voltage against the ideal product code
        defines the transfer function; the residual nonlinearity then shows
        up as multiplication error, which is exactly what the design-space
        exploration measures.
        """
        voltages = np.asarray(voltages, dtype=float).ravel()
        codes = np.asarray(target_codes, dtype=float).ravel()
        if voltages.size != codes.size:
            raise ValueError("voltages and target_codes must have the same length")
        if voltages.size < 2:
            raise ValueError("need at least two calibration points")
        design = np.column_stack([codes, np.ones_like(codes)])
        (gain, offset), *_ = np.linalg.lstsq(design, voltages, rcond=None)
        if gain <= 0.0:
            # A degenerate calibration set (e.g. all-equal voltages) falls
            # back to a unit-gain converter instead of an invalid one.
            gain = max(float(np.ptp(voltages)) / max(levels, 1), 1e-9)
        return cls(
            levels=levels,
            gain=float(gain),
            offset=float(offset),
            conversion_energy_per_sample=conversion_energy_per_sample,
        )

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        return (
            f"ADC: {self.levels} levels, LSB={self.lsb * 1e3:.3f} mV, "
            f"offset={self.offset * 1e3:.2f} mV, "
            f"E_conv={self.conversion_energy_per_sample * 1e15:.0f} fJ"
        )


def effective_number_of_bits(signal_rms: float, noise_rms: float) -> float:
    """ENOB for a given signal and total noise RMS (standard 6.02 dB/bit rule)."""
    if signal_rms <= 0.0 or noise_rms <= 0.0:
        raise ValueError("signal_rms and noise_rms must be positive")
    snr_db = 20.0 * np.log10(signal_rms / noise_rms)
    return float((snr_db - 1.76) / 6.02)


def required_adc_levels(product_bits: Tuple[int, int]) -> int:
    """Number of ADC steps needed to represent an ``a x b``-bit product."""
    bits_a, bits_b = product_bits
    if bits_a <= 0 or bits_b <= 0:
        raise ValueError("operand widths must be positive")
    return ((1 << bits_a) - 1) * ((1 << bits_b) - 1)
