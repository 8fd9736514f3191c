"""Product lookup tables for the DNN injection layer.

Executing every DNN multiplication through the full analogue model would be
slow and, more importantly, is not how the paper's application analysis
works: the multiplier's behaviour over its 16x16 unsigned input space fully
characterises it, so the DNN experiments replace exact INT4 products with a
table lookup (mean analogue result per operand pair) plus an optional
Gaussian perturbation (the analogue sigma per operand pair).

Signed operands are handled in sign-magnitude form: the analogue array
multiplies the magnitudes and the sign is re-applied digitally, which is the
standard arrangement for this class of accelerator.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.multiplier.imac import InSramMultiplier

@dataclasses.dataclass
class ProductLookupTable:
    """Mean result and sigma of the in-SRAM multiplier over its input space.

    Attributes
    ----------
    mean:
        Mean digital result for every unsigned operand pair, shape
        ``(codes, codes)`` indexed ``[x, d]``.
    sigma:
        Standard deviation of the result in LSB units, same shape.
    name:
        Corner name the table was built from.
    max_operand:
        Largest unsigned operand value (15 for 4-bit).
    """

    mean: np.ndarray
    sigma: np.ndarray
    name: str = "unnamed"
    max_operand: int = 15

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        expected_shape = (self.max_operand + 1, self.max_operand + 1)
        if self.mean.shape != expected_shape:
            raise ValueError(f"mean must have shape {expected_shape}")
        if self.sigma.shape != expected_shape:
            raise ValueError(f"sigma must have shape {expected_shape}")
        if np.any(self.sigma < 0.0):
            raise ValueError("sigma entries must be non-negative")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_multiplier(
        cls,
        multiplier: InSramMultiplier,
        conditions: Optional[OperatingConditions] = None,
    ) -> "ProductLookupTable":
        """Build the table from an OPTIMA-backed multiplier."""
        x_grid, d_grid = multiplier.input_space()
        results = multiplier.multiply(x_grid, d_grid, conditions=conditions)
        sigma_volts = multiplier.combined_sigma(x_grid, d_grid)
        lsb = multiplier.product_lsb_voltage
        sigma_lsb = sigma_volts / lsb if lsb > 0.0 else np.zeros_like(sigma_volts)
        return cls(
            mean=results.astype(float),
            sigma=sigma_lsb,
            name=multiplier.config.name,
            max_operand=multiplier.config.max_operand,
        )

    @classmethod
    def exact(cls, max_operand: int = 15, name: str = "exact") -> "ProductLookupTable":
        """An error-free table (used as the INT4 digital baseline)."""
        codes = np.arange(max_operand + 1)
        products = np.outer(codes, codes).astype(float)
        return cls(
            mean=products,
            sigma=np.zeros_like(products),
            name=name,
            max_operand=max_operand,
        )

    # ------------------------------------------------------------------
    # Quality metrics
    # ------------------------------------------------------------------
    def mean_error_lsb(self) -> float:
        """Average absolute deviation from the exact product table."""
        codes = np.arange(self.max_operand + 1)
        exact = np.outer(codes, codes).astype(float)
        return float(np.mean(np.abs(self.mean - exact)))

    def error_for_small_operands(self, threshold: int = 4) -> float:
        """Average error restricted to pairs with a small operand."""
        codes = np.arange(self.max_operand + 1)
        exact = np.outer(codes, codes).astype(float)
        mask = (codes[:, np.newaxis] < threshold) | (codes[np.newaxis, :] < threshold)
        return float(np.mean(np.abs(self.mean - exact)[mask]))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "mean": self.mean.tolist(),
            "sigma": self.sigma.tolist(),
            "name": self.name,
            "max_operand": self.max_operand,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProductLookupTable":
        """Inverse of :meth:`to_dict`."""
        return cls(
            mean=np.asarray(data["mean"], dtype=float),
            sigma=np.asarray(data["sigma"], dtype=float),
            name=str(data.get("name", "unnamed")),
            max_operand=int(data.get("max_operand", 15)),
        )
