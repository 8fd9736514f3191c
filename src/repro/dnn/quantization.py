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

A calibrated network is captured by :func:`quantized_state`, a dict of
arrays that pairs with :func:`~repro.dnn.network.network_state`:
:func:`load_quantized_network` rebuilds the same quantised network from the
float network and that dict, with no calibration pass.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dnn.imc_injection import (
    ExactBackend,
    MultiplierBackend,
    WeightCodes,
    prepare_weights,
)
from repro.dnn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Layer,
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


def _folding_pairs(
    layers: Sequence[Layer],
) -> Iterator[Tuple[Layer, Optional[BatchNorm]]]:
    """Each layer with the BatchNorm that folds into it (``None``: none).

    The one pairing rule of batch-norm folding: a BatchNorm directly after
    a Conv2D or Dense folds into it and is not yielded on its own.
    """
    index = 0
    while index < len(layers):
        layer = layers[index]
        next_layer = layers[index + 1] if index + 1 < len(layers) else None
        if isinstance(layer, (Conv2D, Dense)) and isinstance(next_layer, BatchNorm):
            yield layer, next_layer
            index += 2
        else:
            yield layer, None
            index += 1


def fold_batchnorm_layers(layers: Sequence[Layer]) -> List[Layer]:
    """Return a new layer list with every Conv/Dense + BatchNorm pair folded."""
    folded: List[Layer] = []
    for layer, bn in _folding_pairs(layers):
        if bn is not None:
            folded.append(_fold_pair(layer, bn))
        elif isinstance(layer, ResidualBlock):
            folded.append(_fold_residual_block(layer))
        else:
            folded.append(layer)
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
        weight_codes: WeightCodes,
        weight_scales: np.ndarray,
        bias: np.ndarray,
        quantizer: ActivationQuantizer,
        backend: MultiplierBackend,
        name: str = "qdense",
    ) -> None:
        # Validated once; backend-rebound copies share it (and its selector).
        self.weights = prepare_weights(weight_codes)
        self.weight_scales = weight_scales
        self.bias = bias
        self.quantizer = quantizer
        self.backend = backend
        self.name = name

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
        return cls.for_layer(layer, codes, scales, layer.bias.value.copy(), quantizer, backend)

    @classmethod
    def for_layer(
        cls,
        layer: Dense,
        codes: np.ndarray,
        scales: np.ndarray,
        bias: np.ndarray,
        quantizer: ActivationQuantizer,
        backend: MultiplierBackend,
    ) -> "QuantizedDense":
        """The quantised counterpart of ``layer`` with the given calibration.

        ``codes`` become the layer's :class:`~repro.dnn.imc_injection.PreparedWeights`
        here, so codes outside -8..7 raise :class:`ValueError`.
        """
        return cls(codes, scales, bias, quantizer, backend, name=f"{layer.name}.q")

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Quantise the input, accumulate integer products, dequantise."""
        del training
        codes = self.quantizer.quantize(inputs)
        accumulated = self.backend.matmul(
            codes, self.weights, activation_zero_point=self.quantizer.zero_point
        )
        # The zero-point correction of affine activation quantisation.
        corrected = accumulated - self.quantizer.zero_point * self.weights.column_sum
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
        weight_codes: WeightCodes,
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
        self.weights = prepare_weights(weight_codes)
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
        return cls.for_layer(layer, codes, scales, layer.bias.value.copy(), quantizer, backend)

    @classmethod
    def for_layer(
        cls,
        layer: Conv2D,
        codes: np.ndarray,
        scales: np.ndarray,
        bias: np.ndarray,
        quantizer: ActivationQuantizer,
        backend: MultiplierBackend,
    ) -> "QuantizedConv2D":
        """The quantised counterpart of ``layer`` with the given calibration.

        ``codes`` become the layer's :class:`~repro.dnn.imc_injection.PreparedWeights`
        here, so codes outside -8..7 raise :class:`ValueError`.
        """
        return cls(
            weight_codes=codes,
            weight_scales=scales,
            bias=bias,
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
            patches, self.weights, activation_zero_point=self.quantizer.zero_point
        )
        corrected = accumulated - self.quantizer.zero_point * self.weights.column_sum
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
    ) -> Tuple["QuantizedResidualBlock", np.ndarray]:
        """Quantise a (batch-norm-folded) residual block.

        Returns the quantised block and the float block's output on
        ``calibration_inputs``, finished from the intermediate that
        calibrates ``conv2`` in :meth:`ResidualBlock.forward`'s op order, so
        the first stage runs once.
        """
        conv1 = QuantizedConv2D.from_float(block.conv1, calibration_inputs, scheme, backend)
        intermediate = block.relu1.forward(
            block.bn1.forward(block.conv1.forward(calibration_inputs))
        )
        conv2 = QuantizedConv2D.from_float(block.conv2, intermediate, scheme, backend)
        main = block.bn2.forward(block.conv2.forward(intermediate))
        projection = None
        skip = calibration_inputs
        if block.projection is not None:
            projection = QuantizedConv2D.from_float(
                block.projection, calibration_inputs, scheme, backend
            )
            skip = block.projection.forward(calibration_inputs)
        quantized = cls(conv1=conv1, conv2=conv2, projection=projection, name=f"{block.name}.q")
        return quantized, block.relu_out.forward(main + skip)

    @classmethod
    def from_state(
        cls,
        block: ResidualBlock,
        state: Mapping[str, np.ndarray],
        scheme: QuantizationScheme,
        backend: MultiplierBackend,
    ) -> "QuantizedResidualBlock":
        """Rebuild a quantised residual block from :func:`quantized_state` arrays."""
        projection = None
        if block.projection is not None:
            projection = _stored(QuantizedConv2D, block.projection, state, scheme, backend)
        return cls(
            conv1=_stored(QuantizedConv2D, block.conv1, state, scheme, backend),
            conv2=_stored(QuantizedConv2D, block.conv2, state, scheme, backend),
            projection=projection,
            name=f"{block.name}.q",
        )

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
    current = np.asarray(calibration_images, dtype=np.float32)
    quantized_layers: List[object] = []
    for layer in fold_batchnorm_layers(network.layers):
        if isinstance(layer, ResidualBlock):
            block, current = QuantizedResidualBlock.from_float(layer, current, scheme, backend)
            quantized_layers.append(block)
            continue
        quantized: object = layer
        if isinstance(layer, Conv2D):
            quantized = QuantizedConv2D.from_float(layer, current, scheme, backend)
        elif isinstance(layer, Dense):
            quantized = QuantizedDense.from_float(layer, current, scheme, backend)
        # Pooling, activations, flatten and any batch-norm that was not
        # folded (no conv/dense directly before it) stay float layers.
        quantized_layers.append(quantized)
        current = layer.forward(current, training=False)
    return _quantized_network(network, quantized_layers, scheme, backend)


def _quantized_network(
    network: Network,
    layers: List[object],
    scheme: QuantizationScheme,
    backend: MultiplierBackend,
) -> QuantizedNetwork:
    return QuantizedNetwork(
        layers=layers,
        input_shape=network.input_shape,
        name=f"{network.name}-int{scheme.weight_bits}",
        backend=backend,
        multiplication_count=network.multiplication_count(),
    )


QuantizedLayer = Union[QuantizedConv2D, QuantizedDense]


def _quantized_leaves(layers: Sequence[object]) -> Iterator[QuantizedLayer]:
    """Every quantised conv / dense layer, descending into residual blocks."""
    for layer in layers:
        if isinstance(layer, QuantizedResidualBlock):
            yield layer.conv1
            yield layer.conv2
            if layer.projection is not None:
                yield layer.projection
        elif isinstance(layer, (QuantizedConv2D, QuantizedDense)):
            yield layer


def quantized_state(quantized: QuantizedNetwork) -> Dict[str, np.ndarray]:
    """The calibrated arrays of ``quantized``, keyed ``"<layer>.<array>"``.

    Per quantised layer: ``weight_codes`` (int8: every code of up to 8 bits
    fits), ``weight_scales``, ``bias``, ``activation_scale`` and
    ``zero_point`` (0-d arrays).  Together with the float network's
    :func:`~repro.dnn.network.network_state` they are all
    :func:`load_quantized_network` needs.
    """
    state: Dict[str, np.ndarray] = {}
    for layer in _quantized_leaves(quantized.layers):
        state[f"{layer.name}.weight_codes"] = layer.weights.codes.astype(np.int8)
        state[f"{layer.name}.weight_scales"] = np.array(layer.weight_scales)
        state[f"{layer.name}.bias"] = np.array(layer.bias)
        state[f"{layer.name}.activation_scale"] = np.array(layer.quantizer.scale)
        state[f"{layer.name}.zero_point"] = np.array(layer.quantizer.zero_point)
    return state


def _stored(
    layer_type: type,
    layer: Layer,
    state: Mapping[str, np.ndarray],
    scheme: QuantizationScheme,
    backend: MultiplierBackend,
) -> QuantizedLayer:
    """``layer``'s quantised counterpart from :func:`quantized_state` arrays."""
    name = f"{layer.name}.q"
    # Python scalars, as calibration makes them: a NumPy float64 scale
    # would promote the float32 activations it divides.
    quantizer = ActivationQuantizer(
        scale=float(state[f"{name}.activation_scale"]),
        zero_point=int(state[f"{name}.zero_point"]),
        levels=scheme.activation_levels,
    )
    return layer_type.for_layer(
        layer,
        np.asarray(state[f"{name}.weight_codes"]).astype(np.int32),
        np.array(state[f"{name}.weight_scales"]),
        np.array(state[f"{name}.bias"]),
        quantizer,
        backend,
    )


def load_quantized_network(
    network: Network,
    state: Mapping[str, np.ndarray],
    scheme: Optional[QuantizationScheme] = None,
    backend: Optional[MultiplierBackend] = None,
) -> QuantizedNetwork:
    """Rebuild ``quantize_network(network, ...)`` from its :func:`quantized_state`.

    ``network`` is the trained float network the state was calibrated on
    and ``scheme`` the scheme it was quantised with.  No calibration pass
    runs: the result predicts bit for bit like the network
    :func:`quantize_network` returned.  Nothing is folded either: the
    stored arrays already hold the folded weights, so the unfolded layers
    supply only names and shapes.
    """
    scheme = scheme or QuantizationScheme()
    backend = backend or ExactBackend()
    layers: List[object] = []
    for layer, _ in _folding_pairs(network.layers):
        if isinstance(layer, Conv2D):
            layers.append(_stored(QuantizedConv2D, layer, state, scheme, backend))
        elif isinstance(layer, Dense):
            layers.append(_stored(QuantizedDense, layer, state, scheme, backend))
        elif isinstance(layer, ResidualBlock):
            layers.append(QuantizedResidualBlock.from_state(layer, state, scheme, backend))
        else:
            layers.append(layer)
    return _quantized_network(network, layers, scheme, backend)
