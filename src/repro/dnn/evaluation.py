"""Accuracy evaluation across multiplier backends (Tables II / III).

The paper reports top-1 and top-5 classification accuracy for each network
under five execution modes: FLOAT32, exact INT4, and the three in-SRAM
multiplier corners.  This module provides the evaluation primitives and the
one-call comparison used by the table-reproduction benchmarks.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.metrics import top_k_hits
from repro.dnn.datasets import Dataset
from repro.dnn.imc_injection import MultiplierBackend
from repro.dnn.network import Network
from repro.dnn.quantization import QuantizedNetwork

NetworkLike = Union[Network, QuantizedNetwork]


@dataclasses.dataclass
class AccuracyReport:
    """Top-1 / top-5 accuracy of one network under one execution mode.

    ``top1_hits`` / ``top5_hits`` are the integer counts behind the rates
    (``None`` for a report built from rates alone); counts of disjoint
    test-set windows add up exactly.
    """

    model: str
    mode: str
    top1: float
    top5: float
    samples: int
    top1_hits: Optional[int] = None
    top5_hits: Optional[int] = None


def evaluate_accuracy(
    network: NetworkLike,
    images: np.ndarray,
    labels: np.ndarray,
    mode: str = "float32",
    top_k: int = 5,
    batch_size: int = 64,
) -> AccuracyReport:
    """Evaluate top-1 / top-``top_k`` accuracy of ``network``."""
    labels = np.asarray(labels)
    scores = network.predict(images, batch_size=batch_size)
    samples = int(labels.shape[0])
    top1_hits = top_k_hits(scores, labels, k=1)
    top5_hits = top_k_hits(scores, labels, k=min(top_k, scores.shape[1]))
    return AccuracyReport(
        model=getattr(network, "name", "network"),
        mode=mode,
        top1=top1_hits / samples,
        top5=top5_hits / samples,
        samples=samples,
        top1_hits=top1_hits,
        top5_hits=top5_hits,
    )


def evaluate_backends(
    float_network: Network,
    quantized_network: QuantizedNetwork,
    backends: Dict[str, MultiplierBackend],
    dataset: Dataset,
    batch_size: int = 64,
    modes: Optional[Sequence[str]] = None,
    window: Optional[Tuple[int, int]] = None,
) -> Dict[str, AccuracyReport]:
    """Evaluate the execution modes of the paper's Tables II / III.

    Returns a mapping from mode name (by default ``"float32"``, ``"int4"``
    and one entry per backend) to its accuracy report.

    Parameters
    ----------
    float_network:
        The trained FLOAT32 network.
    quantized_network:
        Its INT4 quantisation (exact backend); corners are evaluated by
        re-binding the backend, so calibration is shared.
    backends:
        Mapping from corner name to multiplier backend.
    dataset:
        Dataset whose test split is evaluated.
    modes:
        Modes to evaluate, in order: ``"float32"``, ``"int4"`` and
        backend names.  Defaults to all of them.
    window:
        Optional ``(lo, hi)``: evaluate only ``test[lo:hi]`` (the LUT
        backends are slower than plain matrix products).  The reports'
        hit counts of disjoint windows add up to those of the union.
    """
    images = dataset.test_images
    labels = dataset.test_labels
    if window is not None:
        lo, hi = window
        images, labels = images[lo:hi], labels[lo:hi]
    if modes is None:
        modes = ("float32", "int4", *backends)

    reports: Dict[str, AccuracyReport] = {}
    for mode in modes:
        if mode == "float32":
            network: NetworkLike = float_network
        elif mode == "int4":
            network = quantized_network
        else:
            network = quantized_network.with_backend(backends[mode], name_suffix=f"-{mode}")
        reports[mode] = evaluate_accuracy(
            network, images, labels, mode=mode, batch_size=batch_size
        )
    return reports
