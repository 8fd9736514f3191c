"""Scaled-down VGG-style and ResNet-style model builders.

The paper evaluates VGG16, VGG19, ResNet50 and ResNet101.  Training those at
full scale is out of scope for an offline NumPy substrate, so this module
builds *topology-faithful but scaled-down* counterparts:

* the VGG-style models keep the "blocks of 3x3 convolutions followed by max
  pooling, then a dense classifier" structure, with the 16-layer variant
  using fewer convolutions per block than the 19-layer variant,
* the ResNet-style models keep the "stem convolution, stages of residual
  blocks with channel doubling and spatial down-sampling, global average
  pooling" structure, with the 101-style variant using more blocks per stage
  than the 50-style variant.

What matters for the Table II/III reproduction is that the four models have
different depths and multiplication counts, and that all of their
multiplications run through the same INT4 / in-SRAM multiplier path — which
these models preserve.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.dnn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAveragePool,
    Layer,
    MaxPool2D,
    ReLU,
    ResidualBlock,
)
from repro.dnn.network import Network


def _conv_bn_relu(
    in_channels: int,
    out_channels: int,
    name: str,
    rng: np.random.Generator,
) -> List[Layer]:
    """A convolution / batch-norm / ReLU triplet."""
    return [
        Conv2D(in_channels, out_channels, kernel=3, name=f"{name}.conv", rng=rng),
        BatchNorm(out_channels, name=f"{name}.bn"),
        ReLU(name=f"{name}.relu"),
    ]


def build_vgg_like(
    input_shape: Tuple[int, int, int],
    classes: int,
    convs_per_block: Sequence[int],
    channels_per_block: Sequence[int],
    classifier_width: int = 64,
    name: str = "vgg-like",
    seed: int = 0,
) -> Network:
    """Generic VGG-style builder: conv blocks + max pooling + dense head."""
    if len(convs_per_block) != len(channels_per_block):
        raise ValueError("convs_per_block and channels_per_block must align")
    rng = np.random.default_rng(seed)
    layers: List[Layer] = []
    in_channels = input_shape[2]
    spatial = input_shape[0]
    for block_index, (convs, channels) in enumerate(
        zip(convs_per_block, channels_per_block)
    ):
        for conv_index in range(convs):
            layers.extend(
                _conv_bn_relu(
                    in_channels,
                    channels,
                    name=f"{name}.b{block_index}c{conv_index}",
                    rng=rng,
                )
            )
            in_channels = channels
        if spatial >= 2:
            layers.append(MaxPool2D(size=2, name=f"{name}.pool{block_index}"))
            spatial //= 2
    layers.append(Flatten(name=f"{name}.flatten"))
    flat_features = spatial * spatial * in_channels
    layers.append(Dense(flat_features, classifier_width, name=f"{name}.fc1", rng=rng))
    layers.append(ReLU(name=f"{name}.fc1_relu"))
    layers.append(Dense(classifier_width, classes, name=f"{name}.fc2", rng=rng))
    return Network(layers, input_shape=input_shape, name=name)


def build_vgg16_like(
    input_shape: Tuple[int, int, int] = (16, 16, 3),
    classes: int = 20,
    seed: int = 0,
) -> Network:
    """Scaled-down VGG16-style model (three blocks of 2/2/3 convolutions)."""
    return build_vgg_like(
        input_shape=input_shape,
        classes=classes,
        convs_per_block=(2, 2, 3),
        channels_per_block=(8, 16, 32),
        classifier_width=64,
        name="vgg16-like",
        seed=seed,
    )


def build_vgg19_like(
    input_shape: Tuple[int, int, int] = (16, 16, 3),
    classes: int = 20,
    seed: int = 1,
) -> Network:
    """Scaled-down VGG19-style model (three blocks of 2/3/4 convolutions)."""
    return build_vgg_like(
        input_shape=input_shape,
        classes=classes,
        convs_per_block=(2, 3, 4),
        channels_per_block=(8, 16, 32),
        classifier_width=64,
        name="vgg19-like",
        seed=seed,
    )


def build_resnet_like(
    input_shape: Tuple[int, int, int],
    classes: int,
    blocks_per_stage: Sequence[int],
    channels_per_stage: Sequence[int],
    name: str = "resnet-like",
    seed: int = 2,
) -> Network:
    """Generic ResNet-style builder: stem + residual stages + GAP + dense head."""
    if len(blocks_per_stage) != len(channels_per_stage):
        raise ValueError("blocks_per_stage and channels_per_stage must align")
    rng = np.random.default_rng(seed)
    layers: List[Layer] = []
    stem_channels = channels_per_stage[0]
    layers.extend(_conv_bn_relu(input_shape[2], stem_channels, name=f"{name}.stem", rng=rng))
    in_channels = stem_channels
    for stage_index, (blocks, channels) in enumerate(
        zip(blocks_per_stage, channels_per_stage)
    ):
        for block_index in range(blocks):
            stride = 2 if (block_index == 0 and stage_index > 0) else 1
            layers.append(
                ResidualBlock(
                    in_channels,
                    channels,
                    stride=stride,
                    name=f"{name}.s{stage_index}b{block_index}",
                    rng=rng,
                )
            )
            in_channels = channels
    layers.append(GlobalAveragePool(name=f"{name}.gap"))
    layers.append(Dense(in_channels, classes, name=f"{name}.fc", rng=rng))
    return Network(layers, input_shape=input_shape, name=name)


def build_resnet50_like(
    input_shape: Tuple[int, int, int] = (16, 16, 3),
    classes: int = 20,
    seed: int = 2,
) -> Network:
    """Scaled-down ResNet50-style model (three stages of 2/2/2 blocks)."""
    return build_resnet_like(
        input_shape=input_shape,
        classes=classes,
        blocks_per_stage=(2, 2, 2),
        channels_per_stage=(8, 16, 32),
        name="resnet50-like",
        seed=seed,
    )


def build_resnet101_like(
    input_shape: Tuple[int, int, int] = (16, 16, 3),
    classes: int = 20,
    seed: int = 3,
) -> Network:
    """Scaled-down ResNet101-style model (three stages of 3/4/3 blocks)."""
    return build_resnet_like(
        input_shape=input_shape,
        classes=classes,
        blocks_per_stage=(3, 4, 3),
        channels_per_stage=(8, 16, 32),
        name="resnet101-like",
        seed=seed,
    )


def build_mlp(
    input_features: int,
    classes: int,
    hidden: Sequence[int] = (64, 32),
    name: str = "mlp",
    seed: int = 4,
) -> Network:
    """A small fully connected network (used by tests and the quickstart)."""
    rng = np.random.default_rng(seed)
    layers: List[Layer] = []
    in_features = input_features
    for index, width in enumerate(hidden):
        layers.append(Dense(in_features, width, name=f"{name}.fc{index}", rng=rng))
        layers.append(ReLU(name=f"{name}.relu{index}"))
        in_features = width
    layers.append(Dense(in_features, classes, name=f"{name}.out", rng=rng))
    return Network(layers, input_shape=(input_features,), name=name)
