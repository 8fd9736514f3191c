"""Error and performance metrics used throughout the OPTIMA flow.

The paper quantifies model quality as RMS voltage / energy error (Fig. 6),
framework performance as a speed-up factor over circuit simulation
(Section V) and DNN quality as top-k accuracy (Tables II/III).  This module
collects those metrics so every experiment reports them identically.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

ArrayLike = Union[float, Sequence[float], np.ndarray]


def rms_error(predicted: ArrayLike, reference: ArrayLike) -> float:
    """Root-mean-square error between two arrays (broadcasting allowed)."""
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    difference = predicted - reference
    return float(np.sqrt(np.mean(difference**2)))


def mean_absolute_error(predicted: ArrayLike, reference: ArrayLike) -> float:
    """Mean absolute error between two arrays."""
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.mean(np.abs(predicted - reference)))


def max_absolute_error(predicted: ArrayLike, reference: ArrayLike) -> float:
    """Worst-case absolute error between two arrays."""
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(predicted - reference)))


def lsb_voltage(full_scale_voltage: float, levels: int) -> float:
    """Voltage of one ADC least-significant bit.

    Parameters
    ----------
    full_scale_voltage:
        Analogue full-scale range captured by the converter, in volts.
    levels:
        Number of quantisation *steps* (e.g. ``2**bits - 1`` for a classic
        ADC, or 225 for the multiplier's 0..15*15 product range).
    """
    if full_scale_voltage <= 0.0:
        raise ValueError("full_scale_voltage must be positive")
    if levels <= 0:
        raise ValueError("levels must be positive")
    return full_scale_voltage / levels


def voltage_to_lsb(voltage: ArrayLike, lsb: float) -> np.ndarray:
    """Convert a voltage (or voltage error) to LSB units."""
    if lsb <= 0.0:
        raise ValueError("lsb must be positive")
    return np.asarray(voltage, dtype=float) / lsb


def error_in_lsb(measured_codes: ArrayLike, expected_codes: ArrayLike) -> np.ndarray:
    """Absolute code error in LSB units (codes are already integers)."""
    measured = np.asarray(measured_codes, dtype=float)
    expected = np.asarray(expected_codes, dtype=float)
    return np.abs(measured - expected)


def speedup_ratio(reference_runtime: float, fast_runtime: float) -> float:
    """Speed-up of the fast flow over the reference flow.

    Mirrors the paper's Section V claim (about 100x for input-space and
    design-corner iteration, 28.1x for mismatch Monte-Carlo).
    """
    if reference_runtime <= 0.0:
        raise ValueError("reference_runtime must be positive")
    if fast_runtime <= 0.0:
        raise ValueError("fast_runtime must be positive")
    return reference_runtime / fast_runtime


def signal_to_noise_ratio_db(signal_rms: float, noise_rms: float) -> float:
    """SNR in decibels for a given signal and noise RMS amplitude."""
    if signal_rms <= 0.0:
        raise ValueError("signal_rms must be positive")
    if noise_rms <= 0.0:
        raise ValueError("noise_rms must be positive")
    return 20.0 * float(np.log10(signal_rms / noise_rms))


def figure_of_merit(mean_error_lsb: float, energy_per_op: float) -> float:
    """Paper Eq. 9: ``FOM = 1 / (eps_mul * E_mul)``.

    Larger is better; the ``fom`` design corner of Table I maximises this.
    """
    if mean_error_lsb <= 0.0:
        raise ValueError("mean_error_lsb must be positive")
    if energy_per_op <= 0.0:
        raise ValueError("energy_per_op must be positive")
    return 1.0 / (mean_error_lsb * energy_per_op)


def top_k_hits(scores: np.ndarray, labels: np.ndarray, k: int = 1) -> int:
    """Number of samples whose label is among their ``k`` highest scores.

    Integer counts of disjoint sample windows add up exactly, so a sharded
    evaluation's ``sum(hits) / samples`` equals :func:`top_k_accuracy` of
    the whole set bit for bit.

    Parameters
    ----------
    scores:
        Class scores of shape ``(samples, classes)``.
    labels:
        Integer ground-truth labels of shape ``(samples,)``.
    k:
        How many of the highest-scoring classes count as a hit.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 2:
        raise ValueError("scores must be a (samples, classes) matrix")
    if labels.shape[0] != scores.shape[0]:
        raise ValueError("labels must have one entry per score row")
    if not 1 <= k <= scores.shape[1]:
        raise ValueError("k must lie in [1, number of classes]")
    top_k = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k]
    return int(np.any(top_k == labels[:, np.newaxis], axis=1).sum())
