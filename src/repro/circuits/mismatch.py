"""Pelgrom-style transistor mismatch sampling.

Process variation has a systematic component (the global FF/TT/SS corner,
handled by :class:`repro.circuits.technology.ProcessCorner`) and a local,
per-device stochastic component (threshold-voltage and current-factor
mismatch).  The paper treats local mismatch as a Gaussian perturbation of the
bit-line discharge (Fig. 5d) whose sigma grows with the applied word-line
voltage; OPTIMA then fits Eq. 6 to that behaviour.  This module provides the
Monte-Carlo sampling of per-device offsets that generates the reference
behaviour.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.circuits.technology import TechnologyCard


@dataclasses.dataclass(frozen=True)
class MismatchParameters:
    """Mismatch sigmas for the two devices of the discharge stack.

    Attributes
    ----------
    sigma_vth_access, sigma_vth_pulldown:
        Threshold-voltage mismatch sigma (volts) of the access and pull-down
        transistors.
    sigma_beta_access, sigma_beta_pulldown:
        Relative current-factor mismatch sigma (dimensionless).
    """

    sigma_vth_access: float
    sigma_vth_pulldown: float
    sigma_beta_access: float
    sigma_beta_pulldown: float

    @classmethod
    def from_technology(cls, technology: TechnologyCard) -> "MismatchParameters":
        """Derive the mismatch sigmas from the Pelgrom coefficients."""
        return cls(
            sigma_vth_access=technology.mismatch_sigma_vth(
                technology.access_width, technology.access_length
            ),
            sigma_vth_pulldown=technology.mismatch_sigma_vth(
                technology.pulldown_width, technology.pulldown_length
            ),
            sigma_beta_access=technology.mismatch_sigma_beta(
                technology.access_width, technology.access_length
            ),
            sigma_beta_pulldown=technology.mismatch_sigma_beta(
                technology.pulldown_width, technology.pulldown_length
            ),
        )

    def scaled(self, factor: float) -> "MismatchParameters":
        """Return a copy with all sigmas multiplied by ``factor``.

        Useful for sensitivity studies (e.g. "what if the layout doubled the
        device area?").
        """
        if factor < 0.0:
            raise ValueError("factor must be non-negative")
        return MismatchParameters(
            sigma_vth_access=self.sigma_vth_access * factor,
            sigma_vth_pulldown=self.sigma_vth_pulldown * factor,
            sigma_beta_access=self.sigma_beta_access * factor,
            sigma_beta_pulldown=self.sigma_beta_pulldown * factor,
        )


@dataclasses.dataclass(frozen=True)
class MismatchSample:
    """Per-device offsets of one Monte-Carlo sample.

    Offsets are expressed the same way :class:`repro.circuits.mosfet.NmosDevice`
    consumes them: additive threshold shift (volts) and relative gain shift.
    """

    vth_access: float = 0.0
    vth_pulldown: float = 0.0
    beta_access: float = 0.0
    beta_pulldown: float = 0.0

    @classmethod
    def nominal(cls) -> "MismatchSample":
        """A perfectly matched (zero-offset) sample."""
        return cls()


class MismatchSampler:
    """Draw reproducible Monte-Carlo mismatch samples.

    Parameters
    ----------
    parameters:
        Mismatch sigmas, typically built with
        :meth:`MismatchParameters.from_technology`.
    seed:
        Seed of the underlying NumPy generator.  Two samplers with the same
        seed produce identical sample streams, which keeps the paper's
        Monte-Carlo experiments deterministic across runs.
    """

    def __init__(self, parameters: MismatchParameters, seed: Optional[int] = 0) -> None:
        self.parameters = parameters
        self._rng = np.random.default_rng(seed)

    def sample(self) -> MismatchSample:
        """Draw one mismatch sample."""
        p = self.parameters
        return MismatchSample(
            vth_access=float(self._rng.normal(0.0, p.sigma_vth_access)),
            vth_pulldown=float(self._rng.normal(0.0, p.sigma_vth_pulldown)),
            beta_access=float(self._rng.normal(0.0, p.sigma_beta_access)),
            beta_pulldown=float(self._rng.normal(0.0, p.sigma_beta_pulldown)),
        )

    def sample_arrays(self, count: int) -> "MismatchArrays":
        """Draw ``count`` samples as parallel arrays (for vectorised solves)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        p = self.parameters
        return MismatchArrays(
            vth_access=self._rng.normal(0.0, p.sigma_vth_access, size=count),
            vth_pulldown=self._rng.normal(0.0, p.sigma_vth_pulldown, size=count),
            beta_access=self._rng.normal(0.0, p.sigma_beta_access, size=count),
            beta_pulldown=self._rng.normal(0.0, p.sigma_beta_pulldown, size=count),
        )


@dataclasses.dataclass
class MismatchArrays:
    """Vectorised Monte-Carlo offsets (one entry per sample)."""

    vth_access: np.ndarray
    vth_pulldown: np.ndarray
    beta_access: np.ndarray
    beta_pulldown: np.ndarray

    def __post_init__(self) -> None:
        lengths = {
            len(self.vth_access),
            len(self.vth_pulldown),
            len(self.beta_access),
            len(self.beta_pulldown),
        }
        if len(lengths) != 1:
            raise ValueError("all offset arrays must have the same length")

    def __len__(self) -> int:
        return len(self.vth_access)
