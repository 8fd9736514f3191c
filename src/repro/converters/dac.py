"""Word-line DAC models.

The multiplier's input operand is applied as an analogue word-line voltage
produced by a small DAC (paper Section II-B, idea 1).  Two circuit parameters
of the design space live here:

* ``V_DAC,0`` — output voltage for the input code 0,
* ``V_DAC,FS`` — full-scale output voltage (input code ``2**bits - 1``).

The standard implementation is a linear DAC.  The paper also mentions a
*nonlinear* DAC (as proposed in the AID paper, their reference [15]) that
pre-distorts the transfer function to compensate the MOSFET nonlinearity;
:class:`NonlinearCompensatingDac` implements that extension so the ablation
benchmarks can quantify its benefit.
"""

from __future__ import annotations

import dataclasses
from typing import Union

import numpy as np

ArrayLike = Union[int, float, np.ndarray]


@dataclasses.dataclass(frozen=True)
class LinearDac:
    """Linear word-line DAC.

    Attributes
    ----------
    bits:
        Resolution in bits (4 for the paper's multiplier).
    v_zero:
        Output voltage for code 0 (``V_DAC,0``).
    v_full_scale:
        Output voltage for the maximum code (``V_DAC,FS``).
    capacitance:
        Load capacitance the DAC drives (word line plus routing), used for
        the conversion-energy estimate.
    """

    bits: int = 4
    v_zero: float = 0.3
    v_full_scale: float = 1.0
    capacitance: float = 30e-15

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError("bits must be positive")
        if self.v_full_scale <= self.v_zero:
            raise ValueError("v_full_scale must exceed v_zero")
        if self.capacitance <= 0.0:
            raise ValueError("capacitance must be positive")

    @property
    def levels(self) -> int:
        """Number of distinct output codes."""
        return 1 << self.bits

    @property
    def max_code(self) -> int:
        """Largest representable input code."""
        return self.levels - 1

    @property
    def step(self) -> float:
        """Output voltage increment per input code."""
        return (self.v_full_scale - self.v_zero) / self.max_code

    def voltage(self, code: ArrayLike) -> np.ndarray:
        """Output voltage for an input ``code`` (values are clipped to range)."""
        code = np.clip(np.asarray(code, dtype=float), 0, self.max_code)
        return self.v_zero + code * self.step

    def code_for_voltage(self, voltage: ArrayLike) -> np.ndarray:
        """Nearest input code that produces ``voltage`` (inverse transfer)."""
        voltage = np.asarray(voltage, dtype=float)
        code = np.rint((voltage - self.v_zero) / self.step)
        return np.clip(code, 0, self.max_code).astype(int)

    def conversion_energy(self, code: ArrayLike) -> np.ndarray:
        """Energy to drive the word line to the output voltage of ``code``."""
        voltage = self.voltage(code)
        return self.capacitance * voltage**2


@dataclasses.dataclass(frozen=True)
class NonlinearCompensatingDac:
    """DAC with a programmable pre-distortion of the transfer function.

    The discharge depends super-linearly on the gate overdrive
    (``~ V_od ** alpha``); a DAC whose code-to-voltage map applies the
    inverse power restores an (approximately) linear code-to-discharge map.
    The compensation exponent is exposed so the ablation benchmark can sweep
    it; ``exponent = 1`` reduces to the linear DAC.

    Attributes
    ----------
    linear:
        The underlying linear DAC supplying range and energy parameters.
    exponent:
        Compensation exponent; the output voltage follows
        ``v_zero + (code / max_code) ** (1 / exponent) * (v_fs - v_zero)``.
    """

    linear: LinearDac
    exponent: float = 1.3

    def __post_init__(self) -> None:
        if self.exponent <= 0.0:
            raise ValueError("exponent must be positive")

    @property
    def max_code(self) -> int:
        """Largest representable input code."""
        return self.linear.max_code

    def voltage(self, code: ArrayLike) -> np.ndarray:
        """Pre-distorted output voltage for ``code``."""
        code = np.clip(np.asarray(code, dtype=float), 0, self.max_code)
        normalised = code / self.max_code
        shaped = normalised ** (1.0 / self.exponent)
        return self.linear.v_zero + shaped * (
            self.linear.v_full_scale - self.linear.v_zero
        )

    def conversion_energy(self, code: ArrayLike) -> np.ndarray:
        """Energy to drive the word line to the output voltage of ``code``."""
        voltage = self.voltage(code)
        return self.linear.capacitance * voltage**2


DacLike = Union[LinearDac, NonlinearCompensatingDac]


def build_dac(
    v_zero: float,
    v_full_scale: float,
    bits: int = 4,
    nonlinear_exponent: float = 1.0,
    capacitance: float = 30e-15,
) -> DacLike:
    """Factory building either DAC flavour from design-space parameters."""
    linear = LinearDac(
        bits=bits,
        v_zero=v_zero,
        v_full_scale=v_full_scale,
        capacitance=capacitance,
    )
    if nonlinear_exponent == 1.0:
        return linear
    return NonlinearCompensatingDac(linear=linear, exponent=nonlinear_exponent)
