"""Neural-network layers with forward and backward passes.

Everything operates on NHWC tensors (batch, height, width, channels) for
convolutional layers and (batch, features) matrices for dense layers, in
float32.  The layer set covers what the scaled-down VGG-style and
ResNet-style models need: convolution (via im2col), dense, batch
normalisation, ReLU, max pooling, global average pooling, flatten and a
residual block composite.

Backward passes exist so the models can be trained from scratch on the
synthetic datasets; the quantised / in-memory-computing inference path
re-uses only the forward structure (see :mod:`repro.dnn.quantization`).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclasses.dataclass
class Parameter:
    """A trainable tensor and its gradient accumulator."""

    name: str
    value: np.ndarray
    grad: np.ndarray

    @classmethod
    def create(cls, name: str, value: np.ndarray) -> "Parameter":
        """Build a parameter with a zero-initialised gradient."""
        value = np.asarray(value, dtype=np.float32)
        return cls(name=name, value=value, grad=np.zeros_like(value))

    def zero_grad(self) -> None:
        """Reset the gradient accumulator."""
        self.grad[...] = 0.0


class Layer:
    """Base class of all layers."""

    name: str = "layer"

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for ``inputs``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output``; returns the gradient w.r.t. input."""
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        """Trainable parameters of the layer (empty for stateless layers)."""
        return []

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape of the output for a given input shape (excluding batch)."""
        return input_shape

    def multiplication_count(self, input_shape: Tuple[int, ...]) -> int:
        """Number of scalar multiplications per single-sample inference."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name!r})"


# ----------------------------------------------------------------------
# Dense
# ----------------------------------------------------------------------
class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, name: str = "dense", rng: Optional[np.random.Generator] = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.weight = Parameter.create(
            f"{name}.weight", rng.normal(0.0, scale, size=(in_features, out_features))
        )
        self.bias = Parameter.create(f"{name}.bias", np.zeros(out_features))
        self._inputs: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float32)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected (batch, {self.in_features}) input, got {inputs.shape}"
            )
        if training:
            self._inputs = inputs
        return inputs @ self.weight.value + self.bias.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise RuntimeError(f"{self.name}: backward() before forward(training=True)")
        self.weight.grad += self._inputs.T @ grad_output
        self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.value.T

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.out_features,)

    def multiplication_count(self, input_shape: Tuple[int, ...]) -> int:
        return self.in_features * self.out_features


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def pad_spatial(inputs: np.ndarray, padding: int, value: float = 0) -> np.ndarray:
    """Pad the two spatial axes of an NHWC tensor with a constant ``value``.

    Equal to ``np.pad`` with ``constant_values=value`` (same dtype), built by
    filling a preallocated array and assigning the interior in one slice.
    A padding of 0 returns ``inputs`` itself.
    """
    if padding == 0:
        return inputs
    batch, height, width, channels = inputs.shape
    padded = np.full(
        (batch, height + 2 * padding, width + 2 * padding, channels),
        value,
        dtype=inputs.dtype,
    )
    padded[:, padding : padding + height, padding : padding + width, :] = inputs
    return padded


def im2col(
    inputs: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Extract sliding patches as rows (zero padding, any dtype).

    Returns ``(patches, out_h, out_w)`` where ``patches`` has shape
    ``(batch * out_h * out_w, kernel * kernel * channels)``.
    """
    batch, height, width, channels = inputs.shape
    inputs = pad_spatial(inputs, padding)
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    strides = inputs.strides
    window_view = np.lib.stride_tricks.as_strided(
        inputs,
        shape=(batch, out_h, out_w, kernel, kernel, channels),
        strides=(
            strides[0],
            strides[1] * stride,
            strides[2] * stride,
            strides[1],
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    patches = window_view.reshape(batch * out_h * out_w, kernel * kernel * channels)
    return np.ascontiguousarray(patches), out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Scatter patch-gradients back onto the (padded) input tensor."""
    batch, height, width, channels = input_shape
    padded = np.zeros(
        (batch, height + 2 * padding, width + 2 * padding, channels), dtype=cols.dtype
    )
    # Contiguous per-offset slabs; the additions keep their (ky, kx) order,
    # so every sum is bit-identical to scattering the strided columns.
    slabs = np.ascontiguousarray(
        cols.reshape(batch, out_h, out_w, kernel, kernel, channels).transpose(3, 4, 0, 1, 2, 5)
    )
    for ky in range(kernel):
        for kx in range(kernel):
            padded[
                :,
                ky : ky + stride * out_h : stride,
                kx : kx + stride * out_w : stride,
                :,
            ] += slabs[ky, kx]
    if padding > 0:
        return padded[:, padding:-padding, padding:-padding, :]
    return padded


class Conv2D(Layer):
    """2-D convolution with square kernels (NHWC layout, im2col implementation)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        padding: Optional[int] = None,
        name: str = "conv",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if kernel <= 0 or stride <= 0:
            raise ValueError("kernel and stride must be positive")
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = (kernel // 2) if padding is None else padding
        rng = rng or np.random.default_rng(0)
        fan_in = kernel * kernel * in_channels
        scale = np.sqrt(2.0 / fan_in)
        self.weight = Parameter.create(
            f"{name}.weight", rng.normal(0.0, scale, size=(fan_in, out_channels))
        )
        self.bias = Parameter.create(f"{name}.bias", np.zeros(out_channels))
        self._cache: Optional[Tuple] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float32)
        if inputs.ndim != 4 or inputs.shape[3] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (batch, h, w, {self.in_channels}) input, got {inputs.shape}"
            )
        patches, out_h, out_w = im2col(inputs, self.kernel, self.stride, self.padding)
        output = patches @ self.weight.value + self.bias.value
        batch = inputs.shape[0]
        output = output.reshape(batch, out_h, out_w, self.out_channels)
        if training:
            self._cache = (inputs.shape, patches, out_h, out_w)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward() before forward(training=True)")
        input_shape, patches, out_h, out_w = self._cache
        batch = input_shape[0]
        grad_flat = grad_output.reshape(batch * out_h * out_w, self.out_channels)
        self.weight.grad += patches.T @ grad_flat
        self.bias.grad += grad_flat.sum(axis=0)
        grad_patches = grad_flat @ self.weight.value.T
        return col2im(
            grad_patches,
            input_shape,
            self.kernel,
            self.stride,
            self.padding,
            out_h,
            out_w,
        )

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        height, width, _ = input_shape
        out_h = (height + 2 * self.padding - self.kernel) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel) // self.stride + 1
        return (out_h, out_w, self.out_channels)

    def multiplication_count(self, input_shape: Tuple[int, ...]) -> int:
        out_h, out_w, _ = self.output_shape(input_shape)
        return out_h * out_w * self.kernel * self.kernel * self.in_channels * self.out_channels


# ----------------------------------------------------------------------
# Normalisation and activations
# ----------------------------------------------------------------------
class BatchNorm(Layer):
    """Batch normalisation over the channel (last) axis."""

    def __init__(self, channels: int, momentum: float = 0.9, epsilon: float = 1e-5, name: str = "bn") -> None:
        if channels <= 0:
            raise ValueError("channels must be positive")
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must lie in (0, 1)")
        self.name = name
        self.channels = channels
        self.momentum = momentum
        self.epsilon = epsilon
        self.gamma = Parameter.create(f"{name}.gamma", np.ones(channels))
        self.beta = Parameter.create(f"{name}.beta", np.zeros(channels))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: Optional[Tuple] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float32)
        if inputs.shape[-1] != self.channels:
            raise ValueError(
                f"{self.name}: expected last axis of size {self.channels}, got {inputs.shape}"
            )
        axes = tuple(range(inputs.ndim - 1))
        if training:
            mean = inputs.mean(axis=axes)
            var = inputs.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            ).astype(np.float32)
            self.running_var = (
                self.momentum * self.running_var + (1.0 - self.momentum) * var
            ).astype(np.float32)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        normalised = (inputs - mean) * inv_std
        if training:
            self._cache = (normalised, inv_std, axes, inputs.shape)
        return self.gamma.value * normalised + self.beta.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward() before forward(training=True)")
        normalised, inv_std, axes, shape = self._cache
        count = int(np.prod([shape[a] for a in axes]))
        self.gamma.grad += (grad_output * normalised).sum(axis=axes)
        self.beta.grad += grad_output.sum(axis=axes)
        grad_norm = grad_output * self.gamma.value
        grad_input = (
            grad_norm
            - grad_norm.mean(axis=axes)
            - normalised * (grad_norm * normalised).mean(axis=axes)
        ) * inv_std
        # The mean subtraction above already divides by the element count via
        # .mean(); multiplying back by count/count keeps the expression exact.
        del count
        return grad_input

    def parameters(self) -> List[Parameter]:
        return [self.gamma, self.beta]

    def effective_scale_shift(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-channel affine (scale, shift) for inference-time folding."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.epsilon)
        scale = self.gamma.value * inv_std
        shift = self.beta.value - self.running_mean * scale
        return scale, shift


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self, name: str = "relu") -> None:
        self.name = name
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float32)
        if training:
            self._mask = inputs > 0.0
        return np.maximum(inputs, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward() before forward(training=True)")
        return grad_output * self._mask


# ----------------------------------------------------------------------
# Pooling and reshaping
# ----------------------------------------------------------------------
class MaxPool2D(Layer):
    """2x2 (or ``size`` x ``size``) max pooling with matching stride."""

    def __init__(self, size: int = 2, name: str = "maxpool") -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.name = name
        self.size = size
        self._cache: Optional[Tuple] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float32)
        batch, height, width, channels = inputs.shape
        if height % self.size or width % self.size:
            raise ValueError(
                f"{self.name}: spatial size {height}x{width} not divisible by {self.size}"
            )
        out_h, out_w = height // self.size, width // self.size
        reshaped = inputs.reshape(batch, out_h, self.size, out_w, self.size, channels)
        output = reshaped.max(axis=(2, 4))
        if training:
            mask = reshaped == output[:, :, np.newaxis, :, np.newaxis, :]
            self._cache = (mask, inputs.shape)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward() before forward(training=True)")
        mask, input_shape = self._cache
        batch, height, width, channels = input_shape
        out_h, out_w = height // self.size, width // self.size
        expanded = grad_output[:, :, np.newaxis, :, np.newaxis, :] * mask
        return expanded.reshape(input_shape)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        height, width, channels = input_shape
        return (height // self.size, width // self.size, channels)


class GlobalAveragePool(Layer):
    """Average over the spatial dimensions, producing (batch, channels)."""

    def __init__(self, name: str = "gap") -> None:
        self.name = name
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float32)
        if training:
            self._input_shape = inputs.shape
        return inputs.mean(axis=(1, 2))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError(f"{self.name}: backward() before forward(training=True)")
        batch, height, width, channels = self._input_shape
        scale = 1.0 / (height * width)
        return (
            np.broadcast_to(
                grad_output[:, np.newaxis, np.newaxis, :], self._input_shape
            )
            * scale
        )

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (input_shape[2],)


class Flatten(Layer):
    """Flatten everything except the batch dimension."""

    def __init__(self, name: str = "flatten") -> None:
        self.name = name
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float32)
        if training:
            self._input_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError(f"{self.name}: backward() before forward(training=True)")
        return grad_output.reshape(self._input_shape)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)


# ----------------------------------------------------------------------
# Residual block
# ----------------------------------------------------------------------
class ResidualBlock(Layer):
    """Basic residual block: two conv/BN/ReLU stages plus a skip connection.

    When the channel count changes (or ``stride`` is not 1), the skip path
    uses a 1x1 projection convolution, mirroring the ResNet basic-block
    design the scaled-down models are built from.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        name: str = "resblock",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.name = name
        rng = rng or np.random.default_rng(0)
        self.conv1 = Conv2D(
            in_channels, out_channels, kernel=3, stride=stride, name=f"{name}.conv1", rng=rng
        )
        self.bn1 = BatchNorm(out_channels, name=f"{name}.bn1")
        self.relu1 = ReLU(name=f"{name}.relu1")
        self.conv2 = Conv2D(
            out_channels, out_channels, kernel=3, stride=1, name=f"{name}.conv2", rng=rng
        )
        self.bn2 = BatchNorm(out_channels, name=f"{name}.bn2")
        self.relu_out = ReLU(name=f"{name}.relu_out")
        self.projection: Optional[Conv2D] = None
        if stride != 1 or in_channels != out_channels:
            self.projection = Conv2D(
                in_channels,
                out_channels,
                kernel=1,
                stride=stride,
                padding=0,
                name=f"{name}.proj",
                rng=rng,
            )
        self._skip_input: Optional[np.ndarray] = None

    # -- helpers ---------------------------------------------------------
    def sublayers(self) -> List[Layer]:
        """Layers in execution order (main path, then projection if any)."""
        layers: List[Layer] = [self.conv1, self.bn1, self.relu1, self.conv2, self.bn2]
        if self.projection is not None:
            layers.append(self.projection)
        layers.append(self.relu_out)
        return layers

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._skip_input = inputs
        main = self.conv1.forward(inputs, training)
        main = self.bn1.forward(main, training)
        main = self.relu1.forward(main, training)
        main = self.conv2.forward(main, training)
        main = self.bn2.forward(main, training)
        if self.projection is not None:
            skip = self.projection.forward(inputs, training)
        else:
            skip = inputs
        return self.relu_out.forward(main + skip, training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_sum = self.relu_out.backward(grad_output)
        grad_main = self.bn2.backward(grad_sum)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        if self.projection is not None:
            grad_skip = self.projection.backward(grad_sum)
        else:
            grad_skip = grad_sum
        return grad_main + grad_skip

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.sublayers():
            params.extend(layer.parameters())
        return params

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return self.conv1.output_shape(input_shape)

    def multiplication_count(self, input_shape: Tuple[int, ...]) -> int:
        count = self.conv1.multiplication_count(input_shape)
        intermediate = self.conv1.output_shape(input_shape)
        count += self.conv2.multiplication_count(intermediate)
        if self.projection is not None:
            count += self.projection.multiplication_count(input_shape)
        return count
