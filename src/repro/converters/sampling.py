"""Switch/capacitor sampling network combining the per-bit-line discharges.

In the IMAC-style multiplier, each bit-line-bar is discharged for a
bit-weighted duration (``tau0``, ``2 tau0``, ``4 tau0``, ``8 tau0``) and the
resulting voltages are captured on sampling capacitors.  Shorting the
sampling capacitors together (charge sharing) averages the captured voltages,
so the combined node carries the weighted sum of the per-bit discharges
scaled by ``1 / N`` — the analogue representation of the product.

Two combiner variants are provided:

* :class:`ChargeSharingCombiner` — equal capacitors, plain average (the
  paper's circuit).
* :class:`SamplingNetwork` — per-branch capacitor ratios, allowing weighted
  combining and sensitivity studies of capacitor mismatch.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


@dataclasses.dataclass(frozen=True)
class ChargeSharingCombiner:
    """Equal-capacitor charge-sharing combiner.

    Attributes
    ----------
    branches:
        Number of sampled bit-lines (4 for the 4-bit multiplier).
    capacitance_per_branch:
        Sampling capacitor per branch, in farads.
    """

    branches: int = 4
    capacitance_per_branch: float = 8e-15

    def __post_init__(self) -> None:
        if self.branches <= 0:
            raise ValueError("branches must be positive")
        if self.capacitance_per_branch <= 0.0:
            raise ValueError("capacitance_per_branch must be positive")

    def combine(self, voltages: ArrayLike) -> np.ndarray:
        """Combined node voltage after shorting all sampling capacitors.

        ``voltages`` must have the branch dimension as its last axis.
        """
        voltages = np.asarray(voltages, dtype=float)
        if voltages.shape[-1] != self.branches:
            raise ValueError(
                f"expected {self.branches} branch voltages, got {voltages.shape[-1]}"
            )
        return voltages.mean(axis=-1)

    def combine_discharges(self, discharges: ArrayLike) -> np.ndarray:
        """Combined discharge (same averaging, expressed as a swing)."""
        return self.combine(discharges)

    def combined_sigma(self, sigmas: ArrayLike) -> np.ndarray:
        """Standard deviation of the combined node for independent branches."""
        sigmas = np.asarray(sigmas, dtype=float)
        if sigmas.shape[-1] != self.branches:
            raise ValueError(
                f"expected {self.branches} branch sigmas, got {sigmas.shape[-1]}"
            )
        return np.sqrt(np.sum(sigmas**2, axis=-1)) / self.branches

    def sampling_energy(self, voltages: ArrayLike, vdd: float) -> np.ndarray:
        """Energy to charge the sampling capacitors to the branch voltages."""
        voltages = np.asarray(voltages, dtype=float)
        return np.sum(
            self.capacitance_per_branch * vdd * np.maximum(vdd - voltages, 0.0),
            axis=-1,
        )


@dataclasses.dataclass(frozen=True)
class SamplingNetwork:
    """Charge-sharing combiner with per-branch capacitor weights.

    The equal-capacitor combiner is the special case of all-ones weights.
    Unequal weights let the exploration study (a) intentional capacitor
    ratios that re-weight the bit-lines and (b) the sensitivity of the
    read-out to sampling-capacitor mismatch.
    """

    capacitances: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.capacitances) == 0:
            raise ValueError("at least one branch is required")
        if any(c <= 0.0 for c in self.capacitances):
            raise ValueError("capacitances must be positive")

    @property
    def branches(self) -> int:
        """Number of branches."""
        return len(self.capacitances)

    @property
    def weights(self) -> np.ndarray:
        """Normalised charge-sharing weights of each branch."""
        caps = np.asarray(self.capacitances, dtype=float)
        return caps / caps.sum()

    def combine(self, voltages: ArrayLike) -> np.ndarray:
        """Capacitance-weighted combined node voltage."""
        voltages = np.asarray(voltages, dtype=float)
        if voltages.shape[-1] != self.branches:
            raise ValueError(
                f"expected {self.branches} branch voltages, got {voltages.shape[-1]}"
            )
        return np.sum(voltages * self.weights, axis=-1)

    @classmethod
    def equal(cls, branches: int, capacitance: float = 8e-15) -> "SamplingNetwork":
        """Equal-capacitor network with ``branches`` branches."""
        if branches <= 0:
            raise ValueError("branches must be positive")
        return cls(capacitances=tuple(capacitance for _ in range(branches)))

    @classmethod
    def with_mismatch(
        cls,
        branches: int,
        capacitance: float,
        relative_sigma: float,
        rng: Optional[np.random.Generator] = None,
    ) -> "SamplingNetwork":
        """Equal network perturbed by Gaussian capacitor mismatch.

        ``rng`` defaults to a fixed-seed generator: like every solver
        path, repeated construction must be bit-identical (callers
        drawing many independent networks pass SeedSequence-derived
        generators explicitly).
        """
        if relative_sigma < 0.0:
            raise ValueError("relative_sigma must be non-negative")
        rng = rng or np.random.default_rng(0)
        factors = rng.normal(1.0, relative_sigma, size=branches)
        factors = np.clip(factors, 0.5, 1.5)
        return cls(capacitances=tuple(capacitance * factors))
