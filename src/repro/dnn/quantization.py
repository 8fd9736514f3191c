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

There is one way to build a quantised network.  :func:`quantize_network` is
the calibration pass: it returns a dict of arrays per quantised layer (the
state the artifact cache stores next to the float network's
:func:`~repro.dnn.network.network_state`).  :func:`load_quantized_network`
builds the INT4 network from the float network and that dict, with no
calibration pass, and is the only code that constructs quantised layers.
Bit widths are fixed at INT4 (:data:`WEIGHT_LEVEL`, :data:`ACTIVATION_LEVELS`).

>>> from repro.dnn.imc_injection import LutBackend
>>> from repro.dnn.models import build_mlp
>>> from repro.multiplier.lut import ProductLookupTable
>>> network = build_mlp(12, 3, hidden=(8,))
>>> images = np.random.default_rng(0).normal(size=(16, 12)).astype(np.float32)
>>> state = quantize_network(network, images)
>>> sorted(state)  # doctest: +NORMALIZE_WHITESPACE
['mlp.fc0.q.activation_scale', 'mlp.fc0.q.bias', 'mlp.fc0.q.weight_codes',
 'mlp.fc0.q.weight_scales', 'mlp.fc0.q.zero_point',
 'mlp.out.q.activation_scale', 'mlp.out.q.bias', 'mlp.out.q.weight_codes',
 'mlp.out.q.weight_scales', 'mlp.out.q.zero_point']
>>> int4 = load_quantized_network(network, state)
>>> int4.name == "mlp-int4"
True
>>> exact_lut = int4.with_backend(LutBackend(ProductLookupTable.exact()))
>>> bool(np.array_equal(exact_lut.predict(images), int4.predict(images)))
True
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

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


#: Largest positive weight code: INT4 weights are signed, -8..7.
WEIGHT_LEVEL = 7

#: Largest activation code: INT4 activations are unsigned, 0..15.
ACTIVATION_LEVELS = 15


@dataclasses.dataclass(frozen=True)
class QuantizationScheme:
    """Quantisation hyper-parameters (the bit widths are INT4, fixed).

    Attributes
    ----------
    per_channel_weights:
        Quantise weights with one scale per output channel (True, the
        TFLite default for convolutions) or one scale per tensor.
    calibration_percentile:
        Percentile of the absolute activation range used for calibration;
        99.9 clips extreme outliers, which is standard practice and
        noticeably helps 4-bit activations.
    """

    per_channel_weights: bool = True
    calibration_percentile: float = 99.9

    def __post_init__(self) -> None:
        if not 50.0 < self.calibration_percentile <= 100.0:
            raise ValueError("calibration_percentile must lie in (50, 100]")


@dataclasses.dataclass
class ActivationQuantizer:
    """Affine (scale / zero-point) quantiser for unsigned activation codes."""

    scale: float
    zero_point: int

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
        scale = (high - low) / ACTIVATION_LEVELS
        zero_point = int(np.clip(round(-low / scale), 0, ACTIVATION_LEVELS))
        return cls(scale=scale, zero_point=zero_point)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Float values to unsigned integer codes."""
        codes = np.rint(np.asarray(values, dtype=np.float32) / self.scale) + self.zero_point
        return np.clip(codes, 0, ACTIVATION_LEVELS).astype(np.int32)


def quantize_weights_symmetric(
    weights: np.ndarray, scheme: QuantizationScheme
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric signed quantisation of a (in_features, out_features) matrix.

    Returns ``(codes, scales)`` where ``scales`` has one entry per output
    channel (or a single entry for per-tensor mode).
    """
    weights = np.asarray(weights, dtype=np.float32)
    if scheme.per_channel_weights:
        magnitudes = np.max(np.abs(weights), axis=0)
    else:
        magnitudes = np.full(weights.shape[1], float(np.max(np.abs(weights))))
    scales = np.maximum(magnitudes / WEIGHT_LEVEL, 1e-12)
    codes = np.clip(np.rint(weights / scales), -WEIGHT_LEVEL - 1, WEIGHT_LEVEL).astype(np.int32)
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
        name: str,
    ) -> None:
        # Validated once (codes outside -8..7 raise ValueError);
        # backend-rebound copies share it (and its selector).
        self.weights = prepare_weights(weight_codes)
        self.weight_scales = weight_scales
        self.bias = bias
        self.quantizer = quantizer
        self.backend = backend
        self.name = name

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Quantise the input, accumulate integer products, dequantise."""
        del training
        return self._dequantized_products(self.quantizer.quantize(inputs))

    def _dequantized_products(self, codes: np.ndarray) -> np.ndarray:
        """``codes`` (rows of activation codes) times the weights, in float32."""
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


class QuantizedConv2D(QuantizedDense):
    """INT4 convolution: the dense step applied to im2col patches of codes."""

    def __init__(
        self,
        weight_codes: WeightCodes,
        weight_scales: np.ndarray,
        bias: np.ndarray,
        quantizer: ActivationQuantizer,
        backend: MultiplierBackend,
        name: str,
        kernel: int,
        stride: int,
        padding: int,
        out_channels: int,
    ) -> None:
        super().__init__(weight_codes, weight_scales, bias, quantizer, backend, name)
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.out_channels = out_channels

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Quantise, im2col in code space, accumulate, dequantise."""
        del training
        codes = pad_spatial(
            self.quantizer.quantize(inputs), self.padding, self.quantizer.zero_point
        )
        patches, out_h, out_w = im2col(codes, self.kernel, self.stride, padding=0)
        output = self._dequantized_products(patches)
        return output.reshape(inputs.shape[0], out_h, out_w, self.out_channels)


class QuantizedResidualBlock:
    """Residual block whose convolutions run through quantised layers."""

    def __init__(
        self,
        conv1: QuantizedConv2D,
        conv2: QuantizedConv2D,
        projection: Optional[QuantizedConv2D],
        name: str,
    ) -> None:
        self.conv1 = conv1
        self.conv2 = conv2
        self.projection = projection
        self.name = name

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
        clone = copy.copy(self)
        clone.conv1 = self.conv1.with_backend(backend)
        clone.conv2 = self.conv2.with_backend(backend)
        if self.projection is not None:
            clone.projection = self.projection.with_backend(backend)
        return clone


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
        multiplication_count: int,
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
        clone = copy.copy(self)
        clone.layers = [
            layer.with_backend(backend) if hasattr(layer, "with_backend") else layer
            for layer in self.layers
        ]
        clone.name = self.name + name_suffix
        clone.backend = backend
        return clone


def quantize_network(
    network: Network,
    calibration_images: np.ndarray,
    scheme: Optional[QuantizationScheme] = None,
) -> Dict[str, np.ndarray]:
    """Post-training quantisation of a float network: its calibration state.

    Folds the batch norms, quantises every conv / dense layer's weights and
    calibrates its activation quantiser on the float tensor that enters the
    layer when ``calibration_images`` run through the folded network.
    Returns the arrays keyed ``"<layer>.q.<array>"``; per quantised layer:
    ``weight_codes`` (int8), ``weight_scales`` and ``bias`` (float32),
    ``activation_scale`` (float64) and ``zero_point`` (int64), the last two
    0-d.  :func:`load_quantized_network` builds the INT4 network from them.
    """
    scheme = scheme or QuantizationScheme()
    state: Dict[str, np.ndarray] = {}

    def calibrate(layer: Layer, inputs: np.ndarray) -> None:
        codes, scales = quantize_weights_symmetric(layer.weight.value, scheme)
        quantizer = ActivationQuantizer.calibrate(inputs, scheme)
        name = f"{layer.name}.q"
        state[f"{name}.weight_codes"] = codes.astype(np.int8)
        state[f"{name}.weight_scales"] = scales
        state[f"{name}.bias"] = layer.bias.value.copy()
        state[f"{name}.activation_scale"] = np.array(quantizer.scale)
        state[f"{name}.zero_point"] = np.array(quantizer.zero_point)

    current = np.asarray(calibration_images, dtype=np.float32)
    for layer in fold_batchnorm_layers(network.layers):
        if isinstance(layer, ResidualBlock):
            # ResidualBlock.forward's op order, each conv calibrated on its input.
            calibrate(layer.conv1, current)
            intermediate = layer.relu1.forward(layer.bn1.forward(layer.conv1.forward(current)))
            calibrate(layer.conv2, intermediate)
            main = layer.bn2.forward(layer.conv2.forward(intermediate))
            skip = current
            if layer.projection is not None:
                calibrate(layer.projection, current)
                skip = layer.projection.forward(current)
            current = layer.relu_out.forward(main + skip)
            continue
        if isinstance(layer, (Conv2D, Dense)):
            calibrate(layer, current)
        # Pooling, activations, flatten and any batch-norm that was not
        # folded (no conv/dense directly before it) stay float layers.
        current = layer.forward(current, training=False)
    return state


def _quantized_leaves(layers: Sequence[object]) -> Iterator[QuantizedDense]:
    """Every quantised conv / dense layer, descending into residual blocks."""
    for layer in layers:
        if isinstance(layer, QuantizedResidualBlock):
            yield layer.conv1
            yield layer.conv2
            if layer.projection is not None:
                yield layer.projection
        elif isinstance(layer, QuantizedDense):
            yield layer


def load_quantized_network(
    network: Network,
    state: Mapping[str, np.ndarray],
    backend: Optional[MultiplierBackend] = None,
) -> QuantizedNetwork:
    """The INT4 network of ``network`` and its :func:`quantize_network` state.

    ``network`` is the trained float network the state was calibrated on.
    No calibration pass runs, and nothing is folded: the stored arrays
    already hold the folded weights, so the unfolded layers supply only
    names and shapes.  Its products run through ``backend`` (exact INT4 by
    default); :meth:`QuantizedNetwork.with_backend` rebinds them.
    """
    backend = backend or ExactBackend()

    def quantized(layer: Layer) -> QuantizedDense:
        name = f"{layer.name}.q"
        # Python scalars, as calibration makes them: a NumPy float64 scale
        # would promote the float32 activations it divides.
        quantizer = ActivationQuantizer(
            scale=float(state[f"{name}.activation_scale"]),
            zero_point=int(state[f"{name}.zero_point"]),
        )
        arrays = (
            np.asarray(state[f"{name}.weight_codes"]).astype(np.int32),
            np.array(state[f"{name}.weight_scales"]),
            np.array(state[f"{name}.bias"]),
        )
        if isinstance(layer, Conv2D):
            return QuantizedConv2D(
                *arrays,
                quantizer,
                backend,
                name,
                kernel=layer.kernel,
                stride=layer.stride,
                padding=layer.padding,
                out_channels=layer.out_channels,
            )
        return QuantizedDense(*arrays, quantizer, backend, name)

    layers: List[object] = []
    for layer, _ in _folding_pairs(network.layers):
        if isinstance(layer, (Conv2D, Dense)):
            layers.append(quantized(layer))
        elif isinstance(layer, ResidualBlock):
            projection = layer.projection
            layers.append(
                QuantizedResidualBlock(
                    conv1=quantized(layer.conv1),
                    conv2=quantized(layer.conv2),
                    projection=quantized(projection) if projection is not None else None,
                    name=f"{layer.name}.q",
                )
            )
        else:
            layers.append(layer)
    return QuantizedNetwork(
        layers=layers,
        input_shape=network.input_shape,
        name=f"{network.name}-int4",
        backend=backend,
        multiplication_count=network.multiplication_count(),
    )
