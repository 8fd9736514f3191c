"""Tests for the DNN layer library, including numerical gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAveragePool,
    MaxPool2D,
    ReLU,
    ResidualBlock,
    col2im,
    im2col,
    pad_spatial,
)


def numerical_gradient(function, values, epsilon=1e-3):
    """Central-difference gradient of a scalar function of an array."""
    gradient = np.zeros_like(values, dtype=np.float64)
    flat = values.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(values)
        flat[index] = original - epsilon
        lower = function(values)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2.0 * epsilon)
    return gradient


class _TwoPassBatchNorm(BatchNorm):
    """The BatchNorm forward / backward as first written: ``var`` takes the mean again."""

    def forward(self, inputs, training=False):
        inputs = np.asarray(inputs, dtype=np.float32)
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
            self._cache = (normalised, inv_std, axes)
        return self.gamma.value * normalised + self.beta.value

    def backward(self, grad_output):
        normalised, inv_std, axes = self._cache
        self.gamma.grad += (grad_output * normalised).sum(axis=axes)
        self.beta.grad += grad_output.sum(axis=axes)
        grad_norm = grad_output * self.gamma.value
        return (
            grad_norm
            - grad_norm.mean(axis=axes)
            - normalised * (grad_norm * normalised).mean(axis=axes)
        ) * inv_std


class TestDense:
    def test_forward_shape(self):
        layer = Dense(8, 3)
        output = layer.forward(np.random.default_rng(0).normal(size=(5, 8)).astype(np.float32))
        assert output.shape == (5, 3)

    def test_wrong_input_shape_rejected(self):
        with pytest.raises(ValueError):
            Dense(8, 3).forward(np.zeros((5, 4), dtype=np.float32))

    def test_gradient_check_inputs(self):
        rng = np.random.default_rng(1)
        layer = Dense(6, 4, rng=rng)
        inputs = rng.normal(size=(3, 6)).astype(np.float32)
        grad_out = rng.normal(size=(3, 4)).astype(np.float32)

        def loss(values):
            return float(np.sum(layer.forward(values.astype(np.float32)) * grad_out))

        layer.forward(inputs, training=True)
        analytic = layer.backward(grad_out)
        numeric = numerical_gradient(loss, inputs.astype(np.float64).copy())
        assert np.allclose(analytic, numeric, atol=1e-2)

    def test_gradient_check_weights(self):
        rng = np.random.default_rng(2)
        layer = Dense(5, 3, rng=rng)
        inputs = rng.normal(size=(4, 5)).astype(np.float32)
        grad_out = rng.normal(size=(4, 3)).astype(np.float32)
        layer.forward(inputs, training=True)
        layer.backward(grad_out)
        analytic = layer.weight.grad.copy()

        def loss(weights):
            original = layer.weight.value.copy()
            layer.weight.value = weights.astype(np.float32)
            value = float(np.sum(layer.forward(inputs) * grad_out))
            layer.weight.value = original
            return value

        numeric = numerical_gradient(loss, layer.weight.value.astype(np.float64).copy())
        assert np.allclose(analytic, numeric, atol=1e-2)

    def test_multiplication_count(self):
        assert Dense(10, 4).multiplication_count((10,)) == 40


class TestConv2D:
    def test_forward_shape_same_padding(self):
        layer = Conv2D(3, 8, kernel=3)
        output = layer.forward(np.zeros((2, 8, 8, 3), dtype=np.float32))
        assert output.shape == (2, 8, 8, 8)

    def test_forward_matches_manual_convolution(self):
        rng = np.random.default_rng(3)
        layer = Conv2D(1, 1, kernel=3, rng=rng)
        image = rng.normal(size=(1, 5, 5, 1)).astype(np.float32)
        output = layer.forward(image)
        kernel = layer.weight.value.reshape(3, 3)
        padded = np.pad(image[0, :, :, 0], 1)
        expected_center = float(np.sum(padded[3:6, 3:6] * kernel) + layer.bias.value[0])
        assert float(output[0, 3, 3, 0]) == pytest.approx(expected_center, abs=1e-5)

    def test_gradient_check_inputs(self):
        rng = np.random.default_rng(4)
        layer = Conv2D(2, 3, kernel=3, rng=rng)
        inputs = rng.normal(size=(2, 4, 4, 2)).astype(np.float32)
        grad_out = rng.normal(size=(2, 4, 4, 3)).astype(np.float32)

        def loss(values):
            return float(np.sum(layer.forward(values.astype(np.float32)) * grad_out))

        layer.forward(inputs, training=True)
        analytic = layer.backward(grad_out)
        numeric = numerical_gradient(loss, inputs.astype(np.float64).copy())
        assert np.allclose(analytic, numeric, atol=2e-2)

    def test_stride_two_halves_spatial_size(self):
        layer = Conv2D(3, 4, kernel=3, stride=2)
        output = layer.forward(np.zeros((1, 8, 8, 3), dtype=np.float32))
        assert output.shape == (1, 4, 4, 4)
        assert layer.output_shape((8, 8, 3)) == (4, 4, 4)

    def test_multiplication_count(self):
        layer = Conv2D(3, 8, kernel=3)
        assert layer.multiplication_count((8, 8, 3)) == 8 * 8 * 9 * 3 * 8

    def test_im2col_shape(self):
        patches, out_h, out_w = im2col(np.zeros((2, 6, 6, 3), dtype=np.float32), 3, 1, 1)
        assert (out_h, out_w) == (6, 6)
        assert patches.shape == (2 * 36, 27)

    def test_im2col_keeps_integer_codes(self):
        codes = np.arange(2 * 5 * 5 * 3, dtype=np.int32).reshape(2, 5, 5, 3)
        patches, _, _ = im2col(codes, 3, 2, 1)
        reference, _, _ = im2col(codes.astype(np.float32), 3, 2, 1)
        assert patches.dtype == np.int32
        assert np.array_equal(patches, reference.astype(np.int32))

    @pytest.mark.parametrize("dtype", [np.float32, np.int32])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("value", [0, 3])
    def test_pad_spatial_equals_np_pad(self, dtype, padding, value):
        inputs = np.random.default_rng(12).normal(size=(2, 4, 5, 3)).astype(dtype)
        width = ((0, 0), (padding, padding), (padding, padding), (0, 0))
        expected = np.pad(inputs, width, mode="constant", constant_values=value)
        padded = pad_spatial(inputs, padding, value)
        assert padded.dtype == expected.dtype
        assert np.array_equal(padded, expected)

    @staticmethod
    def nested_loop_col2im(cols, input_shape, kernel, stride, padding, out_h, out_w):
        """Scatter every patch element on its own, offsets in (ky, kx) order."""
        batch, height, width, channels = input_shape
        patches = cols.reshape(batch, out_h, out_w, kernel, kernel, channels)
        padded = np.zeros(
            (batch, height + 2 * padding, width + 2 * padding, channels), dtype=cols.dtype
        )
        for ky in range(kernel):
            for kx in range(kernel):
                for oy in range(out_h):
                    for ox in range(out_w):
                        padded[:, oy * stride + ky, ox * stride + kx, :] += patches[
                            :, oy, ox, ky, kx, :
                        ]
        return padded[:, padding : padding + height, padding : padding + width, :]

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_col2im_matches_nested_loop_reference(self, kernel, stride, padding):
        batch, height, width, channels = 2, 6, 5, 3
        out_h = (height + 2 * padding - kernel) // stride + 1
        out_w = (width + 2 * padding - kernel) // stride + 1
        rng = np.random.default_rng(13)
        cols = rng.normal(size=(batch * out_h * out_w, kernel * kernel * channels))
        cols = cols.astype(np.float32)
        shape = (batch, height, width, channels)
        expected = self.nested_loop_col2im(cols, shape, kernel, stride, padding, out_h, out_w)
        result = col2im(cols, shape, kernel, stride, padding, out_h, out_w)
        assert result.dtype == np.float32
        assert np.array_equal(result, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from([1, 3]),
        stride=st.sampled_from([1, 2]),
        padding=st.sampled_from([0, 1]),
        batch=st.integers(1, 6),
        size=st.integers(3, 7),
        channels=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_col2im_matches_nested_loop_reference_on_any_shape(
        self, kernel, stride, padding, batch, size, channels, seed
    ):
        out_size = (size + 2 * padding - kernel) // stride + 1
        rng = np.random.default_rng(seed)
        cols = rng.normal(size=(batch * out_size**2, kernel * kernel * channels))
        cols = cols.astype(np.float32)
        shape = (batch, size, size, channels)
        expected = self.nested_loop_col2im(
            cols, shape, kernel, stride, padding, out_size, out_size
        )
        result = col2im(cols, shape, kernel, stride, padding, out_size, out_size)
        assert np.array_equal(result, expected)


class TestActivationsAndNorm:
    def test_relu(self):
        layer = ReLU()
        inputs = np.array([[-1.0, 2.0]], dtype=np.float32)
        assert np.allclose(layer.forward(inputs, training=True), [[0.0, 2.0]])
        assert np.allclose(layer.backward(np.ones((1, 2), dtype=np.float32)), [[0.0, 1.0]])

    def test_batchnorm_normalises_in_training(self):
        rng = np.random.default_rng(5)
        layer = BatchNorm(4)
        inputs = rng.normal(3.0, 2.0, size=(64, 4)).astype(np.float32)
        outputs = layer.forward(inputs, training=True)
        assert np.allclose(outputs.mean(axis=0), 0.0, atol=1e-4)
        assert np.allclose(outputs.std(axis=0), 1.0, atol=1e-2)

    def test_batchnorm_inference_uses_running_stats(self):
        rng = np.random.default_rng(6)
        layer = BatchNorm(2, momentum=0.5)
        for _ in range(20):
            layer.forward(rng.normal(1.0, 1.0, size=(32, 2)).astype(np.float32), training=True)
        outputs = layer.forward(np.ones((4, 2), dtype=np.float32), training=False)
        assert np.all(np.isfinite(outputs))

    def test_batchnorm_gradient_check(self):
        rng = np.random.default_rng(7)
        layer = BatchNorm(3)
        inputs = rng.normal(size=(8, 3)).astype(np.float32)
        grad_out = rng.normal(size=(8, 3)).astype(np.float32)

        def loss(values):
            return float(np.sum(layer.forward(values.astype(np.float32), training=True) * grad_out))

        layer.forward(inputs, training=True)
        analytic = layer.backward(grad_out)
        numeric = numerical_gradient(loss, inputs.astype(np.float64).copy())
        assert np.allclose(analytic, numeric, atol=2e-2)

    @pytest.mark.parametrize("shape", [(8, 3), (4, 5, 5, 6), (2, 7, 3, 16)])
    def test_batchnorm_matches_two_pass_oracle(self, shape):
        """Forward, running statistics and backward equal the two-pass form bit for bit."""
        rng = np.random.default_rng(sum(shape))
        layer = BatchNorm(shape[-1], momentum=0.8)
        oracle = _TwoPassBatchNorm(shape[-1], momentum=0.8)
        for step in range(3):
            inputs = rng.normal(1.5, 2.0, size=shape).astype(np.float32)
            grad_out = rng.normal(size=shape).astype(np.float32)
            assert np.array_equal(
                layer.forward(inputs, training=True), oracle.forward(inputs, training=True)
            )
            assert np.array_equal(layer.running_mean, oracle.running_mean)
            assert np.array_equal(layer.running_var, oracle.running_var)
            assert np.array_equal(layer.backward(grad_out), oracle.backward(grad_out))
            assert np.array_equal(layer.gamma.grad, oracle.gamma.grad)
            assert np.array_equal(layer.beta.grad, oracle.beta.grad)
            layer.gamma.value -= 0.1 * layer.gamma.grad
            oracle.gamma.value -= 0.1 * oracle.gamma.grad
        assert np.array_equal(
            layer.forward(inputs, training=False), oracle.forward(inputs, training=False)
        )

    def test_effective_scale_shift(self):
        layer = BatchNorm(2)
        scale, shift = layer.effective_scale_shift()
        assert scale.shape == (2,)
        assert shift.shape == (2,)


class TestPoolingAndReshaping:
    def test_maxpool_forward_and_backward(self):
        layer = MaxPool2D(2)
        inputs = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        output = layer.forward(inputs, training=True)
        assert output.shape == (1, 2, 2, 1)
        assert float(output[0, 0, 0, 0]) == 5.0
        grad = layer.backward(np.ones_like(output))
        assert grad.shape == inputs.shape
        assert float(grad.sum()) == pytest.approx(4.0)

    def test_maxpool_rejects_odd_sizes(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.zeros((1, 5, 5, 1), dtype=np.float32))

    def test_global_average_pool(self):
        layer = GlobalAveragePool()
        inputs = np.ones((2, 4, 4, 3), dtype=np.float32) * 2.0
        output = layer.forward(inputs, training=True)
        assert output.shape == (2, 3)
        assert np.allclose(output, 2.0)
        grad = layer.backward(np.ones((2, 3), dtype=np.float32))
        assert np.allclose(grad, 1.0 / 16.0)

    def test_flatten_roundtrip(self):
        layer = Flatten()
        inputs = np.arange(24, dtype=np.float32).reshape(2, 2, 2, 3)
        output = layer.forward(inputs, training=True)
        assert output.shape == (2, 12)
        assert layer.backward(output).shape == inputs.shape


class TestResidualBlock:
    def test_identity_block_shapes(self):
        block = ResidualBlock(4, 4)
        inputs = np.random.default_rng(8).normal(size=(2, 8, 8, 4)).astype(np.float32)
        output = block.forward(inputs, training=True)
        assert output.shape == inputs.shape
        grad = block.backward(np.ones_like(output))
        assert grad.shape == inputs.shape
        assert block.projection is None

    def test_projection_block_changes_channels_and_stride(self):
        block = ResidualBlock(4, 8, stride=2)
        inputs = np.zeros((1, 8, 8, 4), dtype=np.float32)
        output = block.forward(inputs, training=True)
        assert output.shape == (1, 4, 4, 8)
        assert block.projection is not None
        assert block.output_shape((8, 8, 4)) == (4, 4, 8)

    def test_parameters_and_multiplications(self):
        block = ResidualBlock(4, 8, stride=2)
        assert len(block.parameters()) == 10  # 3 convs * 2 + 2 bn * 2
        assert block.multiplication_count((8, 8, 4)) > 0
