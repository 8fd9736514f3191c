"""NumPy DNN substrate for the application analysis (paper Section VI).

The paper evaluates its in-SRAM multiplier corners inside INT4-quantised
image-classification networks (VGG16/19, ResNet50/101 on ImageNet and
CIFAR-10).  Those exact networks and datasets are not available offline, so
this package provides the complete substrate needed to run the *same
experiment* at laptop scale:

* :mod:`repro.dnn.layers` — dense / convolution / pooling / batch-norm /
  activation layers with forward and backward passes.
* :mod:`repro.dnn.network` — the sequential network container (residual
  blocks are composite layers, so VGG-style and ResNet-style topologies both
  fit).
* :mod:`repro.dnn.models` — scaled-down "VGG16/19-like" and
  "ResNet50/101-like" topology builders.
* :mod:`repro.dnn.training` — SGD-with-momentum training loop and
  cross-entropy loss.
* :mod:`repro.dnn.datasets` — synthetic structured image datasets standing
  in for ImageNet (20-class) and CIFAR-10 (10-class).
* :mod:`repro.dnn.quantization` — TFLite-style INT4 post-training
  quantisation (per-tensor / per-channel, batch-norm folding).
* :mod:`repro.dnn.imc_injection` — multiplier backends: exact INT4 and the
  in-SRAM product lookup tables from :mod:`repro.multiplier.lut`.
* :mod:`repro.dnn.evaluation` — top-1 / top-5 accuracy evaluation across
  backends (the Table II / III reproduction).
"""

from repro.dnn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAveragePool,
    Layer,
    MaxPool2D,
    Parameter,
    ReLU,
    ResidualBlock,
)
from repro.dnn.network import Network
from repro.dnn.datasets import Dataset, cifar10_like, imagenet_like, make_synthetic_image_dataset
from repro.dnn.training import TrainingConfig, TrainingHistory, train_network
from repro.dnn.quantization import (
    QuantizationScheme,
    QuantizedNetwork,
    load_quantized_network,
    quantize_network,
)
from repro.dnn.imc_injection import ExactBackend, LutBackend, MultiplierBackend
from repro.dnn.evaluation import AccuracyReport, evaluate_accuracy, evaluate_backends
from repro.dnn.models import (
    build_mlp,
    build_resnet50_like,
    build_resnet101_like,
    build_vgg16_like,
    build_vgg19_like,
)

__all__ = [
    "AccuracyReport",
    "BatchNorm",
    "Conv2D",
    "Dataset",
    "Dense",
    "ExactBackend",
    "Flatten",
    "GlobalAveragePool",
    "Layer",
    "LutBackend",
    "MaxPool2D",
    "MultiplierBackend",
    "Network",
    "Parameter",
    "QuantizationScheme",
    "QuantizedNetwork",
    "ReLU",
    "ResidualBlock",
    "TrainingConfig",
    "TrainingHistory",
    "build_mlp",
    "build_resnet101_like",
    "build_resnet50_like",
    "build_vgg16_like",
    "build_vgg19_like",
    "cifar10_like",
    "evaluate_accuracy",
    "evaluate_backends",
    "imagenet_like",
    "load_quantized_network",
    "make_synthetic_image_dataset",
    "quantize_network",
    "train_network",
]
