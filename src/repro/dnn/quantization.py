"""INT4 post-training quantisation with batch-norm folding.

The paper quantises its pre-trained FLOAT32 networks to INT4 following the
TensorFlow-Lite recipe (affine activation quantisation, symmetric weight
quantisation, INT8 specifications adapted to INT4) and then runs *every*
multiplication through the in-SRAM multiplier.  This module reproduces that
flow:

* batch-norm layers are folded into the preceding convolution / dense layer
  (so their multiplications disappear into the weights, as they do in any
  deployed integer pipeline),
* weights are quantised symmetrically to signed INT4, per output channel by
  default,
* activations are quantised asymmetrically to unsigned INT4 with scale /
  zero-point calibrated on a batch of training data,
* the integer multiply-accumulate is delegated to a
  :class:`~repro.dnn.imc_injection.MultiplierBackend`, so the same quantised
  network can be evaluated with exact INT4 products (baseline) or with any
  in-SRAM multiplier corner (Table II/III).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dnn.imc_injection import ExactBackend, MultiplierBackend
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
    im2col,
    pad_spatial,
)
from repro.dnn.network import Network


@dataclasses.dataclass(frozen=True)
class QuantizationScheme:
    """Quantisation hyper-parameters.

    Attributes
    ----------
    weight_bits, activation_bits:
        Bit widths; the paper uses 4 for both.
    per_channel_weights:
        Quantise weights with one scale per output channel (True, the
        TFLite default for convolutions) or one scale per tensor.
    calibration_percentile:
        Percentile of the absolute activation range used for calibration;
        99.9 clips extreme outliers, which is standard practice and
        noticeably helps 4-bit activations.
    """

    weight_bits: int = 4
    activation_bits: int = 4
    per_channel_weights: bool = True
    calibration_percentile: float = 99.9

    def __post_init__(self) -> None:
        if not 2 <= self.weight_bits <= 8:
            raise ValueError("weight_bits must lie in [2, 8]")
        if not 2 <= self.activation_bits <= 8:
            raise ValueError("activation_bits must lie in [2, 8]")
        if not 50.0 < self.calibration_percentile <= 100.0:
            raise ValueError("calibration_percentile must lie in (50, 100]")

    @property
    def weight_level(self) -> int:
        """Largest positive weight code (symmetric range)."""
        return (1 << (self.weight_bits - 1)) - 1

    @property
    def activation_levels(self) -> int:
        """Largest activation code (unsigned range)."""
        return (1 << self.activation_bits) - 1


@dataclasses.dataclass
class ActivationQuantizer:
    """Affine (scale / zero-point) quantiser for unsigned activation codes."""

    scale: float
    zero_point: int
    levels: int

    @classmethod
    def calibrate(
        cls, values: np.ndarray, scheme: QuantizationScheme
    ) -> "ActivationQuantizer":
        """Derive scale and zero-point from observed activation values."""
        values = np.asarray(values, dtype=np.float32).ravel()
        low = float(np.percentile(values, 100.0 - scheme.calibration_percentile))
        high = float(np.percentile(values, scheme.calibration_percentile))
        low = min(low, 0.0)
        high = max(high, low + 1e-6)
        levels = scheme.activation_levels
        scale = (high - low) / levels
        zero_point = int(np.clip(round(-low / scale), 0, levels))
        return cls(scale=scale, zero_point=zero_point, levels=levels)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Float values to unsigned integer codes."""
        codes = np.rint(np.asarray(values, dtype=np.float32) / self.scale) + self.zero_point
        return np.clip(codes, 0, self.levels).astype(np.int32)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        """Integer codes back to float values."""
        return (np.asarray(codes, dtype=np.float32) - self.zero_point) * self.scale


def quantize_weights_symmetric(
    weights: np.ndarray, scheme: QuantizationScheme
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric signed quantisation of a (in_features, out_features) matrix.

    Returns ``(codes, scales)`` where ``scales`` has one entry per output
    channel (or a single entry for per-tensor mode).
    """
    weights = np.asarray(weights, dtype=np.float32)
    level = scheme.weight_level
    if scheme.per_channel_weights:
        magnitudes = np.max(np.abs(weights), axis=0)
    else:
        magnitudes = np.full(weights.shape[1], float(np.max(np.abs(weights))))
    scales = np.maximum(magnitudes / level, 1e-12)
    codes = np.clip(np.rint(weights / scales), -level - 1, level).astype(np.int32)
    return codes, scales.astype(np.float32)


# ----------------------------------------------------------------------
# Batch-norm folding
# ----------------------------------------------------------------------
def _detached(layer: Layer, weight: np.ndarray, bias: np.ndarray) -> Layer:
    """Shallow copy of a Conv2D / Dense layer with fresh parameters.

    The copy holds new ``Parameter`` objects and no cached training inputs,
    so it shares no mutable state with ``layer`` (unlike a deep copy, it
    does not duplicate the last training batch's im2col patches either).
    """
    detached = copy.copy(layer)
    detached.weight = Parameter.create(layer.weight.name, weight)
    detached.bias = Parameter.create(layer.bias.name, bias)
    if isinstance(detached, Conv2D):
        detached._cache = None
    else:
        detached._inputs = None
    return detached


def _fold_pair(layer: Layer, bn: BatchNorm) -> Layer:
    """Fold a BatchNorm into the preceding Conv2D or Dense layer (copies)."""
    scale, shift = bn.effective_scale_shift()
    return _detached(
        layer,
        (layer.weight.value * scale).astype(np.float32),
        (layer.bias.value * scale + shift).astype(np.float32),
    )


def fold_batchnorm_layers(layers: Sequence[Layer]) -> List[Layer]:
    """Return a new layer list with every Conv/Dense + BatchNorm pair folded."""
    folded: List[Layer] = []
    index = 0
    while index < len(layers):
        layer = layers[index]
        next_layer = layers[index + 1] if index + 1 < len(layers) else None
        if isinstance(layer, (Conv2D, Dense)) and isinstance(next_layer, BatchNorm):
            folded.append(_fold_pair(layer, next_layer))
            index += 2
        elif isinstance(layer, ResidualBlock):
            folded.append(_fold_residual_block(layer))
            index += 1
        else:
            folded.append(layer)
            index += 1
    return folded


def _fold_residual_block(block: ResidualBlock) -> ResidualBlock:
    """Fold the internal batch-norms of a residual block (returns a copy)."""
    folded = copy.copy(block)
    folded.conv1 = _fold_pair(block.conv1, block.bn1)
    folded.conv2 = _fold_pair(block.conv2, block.bn2)
    # Replace the internal BNs with identity-behaving fresh instances: their
    # effect now lives inside the convolution weights.
    folded.bn1 = BatchNorm(block.conv1.out_channels, name=f"{block.name}.bn1_folded")
    folded.bn2 = BatchNorm(block.conv2.out_channels, name=f"{block.name}.bn2_folded")
    folded.relu1 = ReLU(name=block.relu1.name)
    folded.relu_out = ReLU(name=block.relu_out.name)
    projection = block.projection
    if projection is not None:
        folded.projection = _detached(
            projection, projection.weight.value.copy(), projection.bias.value.copy()
        )
    folded._skip_input = None
    return folded


# ----------------------------------------------------------------------
# Quantised layers
# ----------------------------------------------------------------------
class QuantizedDense:
    """INT4 dense layer executing its products through a multiplier backend."""

    def __init__(
        self,
        weight_codes: np.ndarray,
        weight_scales: np.ndarray,
        bias: np.ndarray,
        quantizer: ActivationQuantizer,
        backend: MultiplierBackend,
        name: str = "qdense",
    ) -> None:
        self.weight_codes = weight_codes
        self.weight_scales = weight_scales
        self.bias = bias
        self.quantizer = quantizer
        self.backend = backend
        self.name = name
        # Per-output-channel sum of weight codes, needed for the zero-point
        # correction term of affine activation quantisation.
        self._weight_column_sum = weight_codes.sum(axis=0).astype(np.float32)

    @classmethod
    def from_float(
        cls,
        layer: Dense,
        calibration_inputs: np.ndarray,
        scheme: QuantizationScheme,
        backend: MultiplierBackend,
    ) -> "QuantizedDense":
        """Quantise a (batch-norm-folded) float dense layer."""
        codes, scales = quantize_weights_symmetric(layer.weight.value, scheme)
        quantizer = ActivationQuantizer.calibrate(calibration_inputs, scheme)
        return cls(
            weight_codes=codes,
            weight_scales=scales,
            bias=layer.bias.value.copy(),
            quantizer=quantizer,
            backend=backend,
            name=f"{layer.name}.q",
        )

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Quantise the input, accumulate integer products, dequantise."""
        del training
        codes = self.quantizer.quantize(inputs)
        accumulated = self.backend.matmul(
            codes, self.weight_codes, activation_zero_point=self.quantizer.zero_point
        )
        corrected = accumulated - self.quantizer.zero_point * self._weight_column_sum
        return (
            corrected * (self.quantizer.scale * self.weight_scales) + self.bias
        ).astype(np.float32)

    def with_backend(self, backend: MultiplierBackend) -> "QuantizedDense":
        """Copy of the layer bound to a different multiplier backend."""
        clone = copy.copy(self)
        clone.backend = backend
        return clone


class QuantizedConv2D:
    """INT4 convolution executing its products through a multiplier backend."""

    def __init__(
        self,
        weight_codes: np.ndarray,
        weight_scales: np.ndarray,
        bias: np.ndarray,
        quantizer: ActivationQuantizer,
        backend: MultiplierBackend,
        kernel: int,
        stride: int,
        padding: int,
        in_channels: int,
        out_channels: int,
        name: str = "qconv",
    ) -> None:
        self.weight_codes = weight_codes
        self.weight_scales = weight_scales
        self.bias = bias
        self.quantizer = quantizer
        self.backend = backend
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.name = name
        self._weight_column_sum = weight_codes.sum(axis=0).astype(np.float32)

    @classmethod
    def from_float(
        cls,
        layer: Conv2D,
        calibration_inputs: np.ndarray,
        scheme: QuantizationScheme,
        backend: MultiplierBackend,
    ) -> "QuantizedConv2D":
        """Quantise a (batch-norm-folded) float convolution layer."""
        codes, scales = quantize_weights_symmetric(layer.weight.value, scheme)
        quantizer = ActivationQuantizer.calibrate(calibration_inputs, scheme)
        return cls(
            weight_codes=codes,
            weight_scales=scales,
            bias=layer.bias.value.copy(),
            quantizer=quantizer,
            backend=backend,
            kernel=layer.kernel,
            stride=layer.stride,
            padding=layer.padding,
            in_channels=layer.in_channels,
            out_channels=layer.out_channels,
            name=f"{layer.name}.q",
        )

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Quantise, im2col in code space, accumulate, dequantise."""
        del training
        codes = pad_spatial(
            self.quantizer.quantize(inputs), self.padding, self.quantizer.zero_point
        )
        patches, out_h, out_w = im2col(codes, self.kernel, self.stride, padding=0)
        accumulated = self.backend.matmul(
            patches, self.weight_codes, activation_zero_point=self.quantizer.zero_point
        )
        corrected = accumulated - self.quantizer.zero_point * self._weight_column_sum
        output = corrected * (self.quantizer.scale * self.weight_scales) + self.bias
        batch = inputs.shape[0]
        return output.reshape(batch, out_h, out_w, self.out_channels).astype(np.float32)

    def with_backend(self, backend: MultiplierBackend) -> "QuantizedConv2D":
        """Copy of the layer bound to a different multiplier backend."""
        clone = copy.copy(self)
        clone.backend = backend
        return clone


class QuantizedResidualBlock:
    """Residual block whose convolutions run through quantised layers."""

    def __init__(
        self,
        conv1: QuantizedConv2D,
        conv2: QuantizedConv2D,
        projection: Optional[QuantizedConv2D],
        name: str = "qresblock",
    ) -> None:
        self.conv1 = conv1
        self.conv2 = conv2
        self.projection = projection
        self.name = name

    @classmethod
    def from_float(
        cls,
        block: ResidualBlock,
        calibration_inputs: np.ndarray,
        scheme: QuantizationScheme,
        backend: MultiplierBackend,
    ) -> "QuantizedResidualBlock":
        """Quantise a (batch-norm-folded) residual block."""
        conv1 = QuantizedConv2D.from_float(block.conv1, calibration_inputs, scheme, backend)
        intermediate = block.relu1.forward(
            block.bn1.forward(block.conv1.forward(calibration_inputs))
        )
        conv2 = QuantizedConv2D.from_float(block.conv2, intermediate, scheme, backend)
        projection = None
        if block.projection is not None:
            projection = QuantizedConv2D.from_float(
                block.projection, calibration_inputs, scheme, backend
            )
        return cls(conv1=conv1, conv2=conv2, projection=projection, name=f"{block.name}.q")

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Quantised main path plus float skip connection, then ReLU."""
        del training
        main = np.maximum(self.conv1.forward(inputs), 0.0)
        main = self.conv2.forward(main)
        if self.projection is not None:
            skip = self.projection.forward(inputs)
        else:
            skip = inputs
        return np.maximum(main + skip, 0.0)

    def with_backend(self, backend: MultiplierBackend) -> "QuantizedResidualBlock":
        """Copy of the block bound to a different multiplier backend."""
        return QuantizedResidualBlock(
            conv1=self.conv1.with_backend(backend),
            conv2=self.conv2.with_backend(backend),
            projection=(
                self.projection.with_backend(backend) if self.projection is not None else None
            ),
            name=self.name,
        )


# ----------------------------------------------------------------------
# Quantised network
# ----------------------------------------------------------------------
class QuantizedNetwork:
    """An INT4 network whose products run through a multiplier backend."""

    def __init__(
        self,
        layers: Sequence[object],
        input_shape: Tuple[int, ...],
        name: str,
        backend: MultiplierBackend,
        multiplication_count: int = 0,
    ) -> None:
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.name = name
        self.backend = backend
        self._multiplication_count = multiplication_count

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass through the mixed quantised / float layer stack."""
        del training
        outputs = np.asarray(inputs, dtype=np.float32)
        for layer in self.layers:
            outputs = layer.forward(outputs)
        return outputs

    def predict(self, inputs: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Batched inference."""
        inputs = np.asarray(inputs, dtype=np.float32)
        outputs: List[np.ndarray] = []
        for start in range(0, inputs.shape[0], batch_size):
            outputs.append(self.forward(inputs[start : start + batch_size]))
        return np.concatenate(outputs, axis=0)

    def multiplication_count(self) -> int:
        """Multiplications per single-sample inference (from the float model)."""
        return self._multiplication_count

    def with_backend(self, backend: MultiplierBackend, name_suffix: str = "") -> "QuantizedNetwork":
        """Clone the network with every quantised layer bound to ``backend``.

        Calibration is reused, so evaluating several multiplier corners only
        costs inference time, not re-quantisation.
        """
        new_layers: List[object] = []
        for layer in self.layers:
            if hasattr(layer, "with_backend"):
                new_layers.append(layer.with_backend(backend))
            else:
                new_layers.append(layer)
        return QuantizedNetwork(
            layers=new_layers,
            input_shape=self.input_shape,
            name=self.name + name_suffix,
            backend=backend,
            multiplication_count=self._multiplication_count,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"QuantizedNetwork(name={self.name!r}, backend={self.backend.name!r}, "
            f"layers={len(self.layers)})"
        )


def quantize_network(
    network: Network,
    calibration_images: np.ndarray,
    scheme: Optional[QuantizationScheme] = None,
    backend: Optional[MultiplierBackend] = None,
) -> QuantizedNetwork:
    """Post-training quantisation of a float network.

    Parameters
    ----------
    network:
        Trained float network.
    calibration_images:
        A representative batch used to calibrate activation quantisers.
    scheme:
        Quantisation hyper-parameters (INT4 defaults).
    backend:
        Multiplier backend the quantised layers are initially bound to
        (exact INT4 by default); use
        :meth:`QuantizedNetwork.with_backend` to evaluate other corners.
    """
    scheme = scheme or QuantizationScheme()
    backend = backend or ExactBackend()
    calibration = np.asarray(calibration_images, dtype=np.float32)

    folded_layers = fold_batchnorm_layers(network.layers)
    quantized_layers: List[object] = []
    current = calibration
    for layer in folded_layers:
        if isinstance(layer, Conv2D):
            quantized_layers.append(
                QuantizedConv2D.from_float(layer, current, scheme, backend)
            )
        elif isinstance(layer, Dense):
            quantized_layers.append(
                QuantizedDense.from_float(layer, current, scheme, backend)
            )
        elif isinstance(layer, ResidualBlock):
            quantized_layers.append(
                QuantizedResidualBlock.from_float(layer, current, scheme, backend)
            )
        elif isinstance(layer, BatchNorm):
            # A batch-norm that was not folded (no conv/dense directly before
            # it) stays as a float layer.
            quantized_layers.append(layer)
        elif isinstance(layer, (ReLU, MaxPool2D, GlobalAveragePool, Flatten)):
            quantized_layers.append(layer)
        else:
            quantized_layers.append(layer)
        current = layer.forward(current, training=False)

    return QuantizedNetwork(
        layers=quantized_layers,
        input_shape=network.input_shape,
        name=f"{network.name}-int{scheme.weight_bits}",
        backend=backend,
        multiplication_count=network.multiplication_count(),
    )
