"""DNN accuracy experiments (paper Tables II and III).

The driver trains the scaled-down model zoo on a synthetic dataset, performs
INT4 post-training quantisation and evaluates five execution modes per model
(FLOAT32, exact INT4, and the fom / power / variation in-SRAM multiplier
corners selected by the design-space exploration).  Table II uses the
20-class "imagenet-like" dataset; Table III re-uses the same backbones with a
replaced 10-class head and brief transfer training on the "cifar10-like"
dataset, mirroring the paper's transfer-learning setup.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.technology import TechnologyCard, tsmc65_like
from repro.core.calibration import calibrated_suite
from repro.core.dse import explore_design_space, select_corners
from repro.core.model_suite import OptimaModelSuite
from repro.dnn.datasets import Dataset, cifar10_like, imagenet_like
from repro.dnn.evaluation import AccuracyReport, evaluate_backends
from repro.dnn.imc_injection import LutBackend
from repro.dnn.models import (
    build_resnet101_like,
    build_resnet50_like,
    build_vgg16_like,
    build_vgg19_like,
)
from repro.dnn.network import Network
from repro.dnn.quantization import QuantizationScheme, quantize_network
from repro.dnn.training import TrainingConfig, replace_classifier_head, train_network
from repro.multiplier.config import MultiplierConfig
from repro.multiplier.imac import InSramMultiplier
from repro.multiplier.lut import ProductLookupTable


@dataclasses.dataclass
class DnnExperimentConfig:
    """Size / effort knobs of the DNN accuracy experiment.

    The defaults are sized so the full four-model Table II reproduction runs
    in a few minutes on a laptop; the ``quick()`` preset is what tests use.
    """

    image_size: int = 16
    train_per_class: int = 60
    test_per_class: int = 20
    epochs: int = 8
    transfer_epochs: int = 4
    batch_size: int = 64
    learning_rate: float = 0.08
    calibration_samples: int = 128
    max_eval_samples: Optional[int] = None
    seed: int = 0

    @classmethod
    def quick(cls) -> "DnnExperimentConfig":
        """Reduced effort preset used by unit tests."""
        return cls(
            image_size=8,
            train_per_class=25,
            test_per_class=10,
            epochs=3,
            transfer_epochs=2,
            calibration_samples=64,
            max_eval_samples=120,
        )


def model_builders(
    image_size: int, classes: int
) -> List[Tuple[str, Callable[[], Network]]]:
    """The four (name, builder) pairs of paper Tables II / III."""
    shape = (image_size, image_size, 3)
    return [
        ("VGG16", lambda: build_vgg16_like(shape, classes)),
        ("VGG19", lambda: build_vgg19_like(shape, classes)),
        ("ResNet50", lambda: build_resnet50_like(shape, classes)),
        ("ResNet101", lambda: build_resnet101_like(shape, classes)),
    ]


def corner_backends(
    technology: Optional[TechnologyCard] = None,
    suite: Optional[OptimaModelSuite] = None,
    corners: Optional[Dict[str, MultiplierConfig]] = None,
    stochastic: bool = False,
    seed: int = 0,
) -> Dict[str, LutBackend]:
    """Build the fom / power / variation LUT backends from the DSE corners."""
    technology = technology or tsmc65_like()
    if suite is None:
        suite = calibrated_suite(technology).suite
    if corners is None:
        corners = select_corners(explore_design_space(suite))
    backends: Dict[str, LutBackend] = {}
    for index, (name, config) in enumerate(corners.items()):
        table = ProductLookupTable.from_multiplier(InSramMultiplier(suite, config))
        backends[name] = LutBackend(
            table,
            stochastic=stochastic,
            rng=np.random.default_rng(seed + index),
            name=name,
        )
    return backends


def run_dnn_accuracy_experiment(
    dataset: Dataset,
    backends: Dict[str, LutBackend],
    config: Optional[DnnExperimentConfig] = None,
    models: Optional[List[Tuple[str, Callable[[], Network]]]] = None,
    base_dataset: Optional[Dataset] = None,
) -> Dict[str, Dict[str, AccuracyReport]]:
    """Train, quantise and evaluate every model on ``dataset``.

    Parameters
    ----------
    dataset:
        Dataset whose test split is reported.
    backends:
        Corner backends (typically from :func:`corner_backends`).
    config:
        Effort knobs.
    models:
        Optional explicit (name, builder) list; defaults to the four paper
        models.
    base_dataset:
        When provided, each model is first trained on ``base_dataset`` and
        then transfer-trained on ``dataset`` with a replaced classifier head
        (the paper's CIFAR-10 protocol).  When omitted, models are trained
        directly on ``dataset``.
    """
    config = config or DnnExperimentConfig()
    models = models or model_builders(config.image_size, _head_classes(dataset, base_dataset))

    results: Dict[str, Dict[str, AccuracyReport]] = {}
    for model_name, builder in models:
        network = builder()
        if base_dataset is not None:
            train_network(
                network,
                base_dataset,
                TrainingConfig(
                    epochs=config.epochs,
                    batch_size=config.batch_size,
                    learning_rate=config.learning_rate,
                    seed=config.seed,
                ),
            )
            network = replace_classifier_head(network, dataset.classes)
            train_network(
                network,
                dataset,
                TrainingConfig(
                    epochs=config.transfer_epochs,
                    batch_size=config.batch_size,
                    learning_rate=config.learning_rate / 2.0,
                    seed=config.seed + 1,
                ),
            )
        else:
            train_network(
                network,
                dataset,
                TrainingConfig(
                    epochs=config.epochs,
                    batch_size=config.batch_size,
                    learning_rate=config.learning_rate,
                    seed=config.seed,
                ),
            )

        calibration = dataset.train_images[: config.calibration_samples]
        quantized = quantize_network(network, calibration, QuantizationScheme())
        reports = evaluate_backends(
            network,
            quantized,
            backends,
            dataset,
            max_samples=config.max_eval_samples,
        )
        results[model_name] = reports
    return results


def _head_classes(dataset: Dataset, base_dataset: Optional[Dataset]) -> int:
    """Classes the freshly built models should output."""
    return base_dataset.classes if base_dataset is not None else dataset.classes


def paper_table2_reference() -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Paper Table II (ImageNet): {model: {mode: (top-1, top-5)}} in percent."""
    return {
        "VGG16": {
            "float32": (70.30, 90.10),
            "int4": (69.25, 89.62),
            "fom": (68.97, 89.11),
            "power": (64.45, 81.79),
            "variation": (38.22, 47.81),
        },
        "VGG19": {
            "float32": (71.30, 90.00),
            "int4": (70.09, 89.78),
            "fom": (69.91, 89.24),
            "power": (63.34, 79.61),
            "variation": (36.66, 48.37),
        },
        "ResNet50": {
            "float32": (74.90, 92.10),
            "int4": (73.48, 91.75),
            "fom": (73.39, 91.65),
            "power": (61.56, 80.88),
            "variation": (48.07, 56.71),
        },
        "ResNet101": {
            "float32": (76.40, 92.80),
            "int4": (75.12, 91.91),
            "fom": (74.95, 91.63),
            "power": (59.77, 78.49),
            "variation": (48.45, 53.19),
        },
    }


def paper_table3_reference() -> Dict[str, Dict[str, float]]:
    """Paper Table III (CIFAR-10): {model: {mode: top-1}} in percent."""
    return {
        "VGG16": {
            "float32": 92.24,
            "int4": 92.04,
            "fom": 91.98,
            "power": 87.39,
            "variation": 68.10,
        },
        "VGG19": {
            "float32": 92.71,
            "int4": 92.42,
            "fom": 92.29,
            "power": 89.79,
            "variation": 66.85,
        },
        "ResNet50": {
            "float32": 93.10,
            "int4": 92.86,
            "fom": 92.83,
            "power": 90.81,
            "variation": 73.83,
        },
        "ResNet101": {
            "float32": 93.35,
            "int4": 93.06,
            "fom": 93.04,
            "power": 90.42,
            "variation": 69.77,
        },
    }


def format_accuracy_table(
    results: Dict[str, Dict[str, AccuracyReport]],
    paper_reference: Optional[Dict[str, Dict[str, Tuple[float, float]]]] = None,
    top5: bool = True,
) -> str:
    """Fixed-width text rendering of a Table II / III reproduction."""
    if not results:
        return "(no results)"
    modes = list(next(iter(results.values())).keys())
    header = f"{'model':<11}" + "".join(f"{mode:>20}" for mode in modes)
    lines = [header, "-" * len(header)]
    for model, reports in results.items():
        cells = []
        for mode in modes:
            report = reports[mode]
            if top5:
                cells.append(f"{100 * report.top1:6.1f}/{100 * report.top5:5.1f}")
            else:
                cells.append(f"{100 * report.top1:6.1f}")
        lines.append(f"{model:<11}" + "".join(f"{cell:>20}" for cell in cells))
    if paper_reference:
        lines.append("")
        lines.append("paper reference (top-1):")
        for model, per_mode in paper_reference.items():
            cells = []
            for mode in modes:
                value = per_mode.get(mode)
                if value is None:
                    cells.append(f"{'-':>20}")
                elif isinstance(value, tuple):
                    cells.append(f"{value[0]:>20.1f}")
                else:
                    cells.append(f"{float(value):>20.1f}")
            lines.append(f"{model:<11}" + "".join(cells))
    lines.append("(measured cells are top-1/top-5 percent)" if top5 else "(cells are top-1 percent)")
    return "\n".join(lines)
