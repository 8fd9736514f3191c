"""Tests for INT4 quantisation, batch-norm folding and the IMC backends."""

import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import dnn_tables
from repro.analysis.dnn_tables import (
    DnnExperimentConfig,
    model_builders,
    run_dnn_accuracy_experiment,
)
from repro.dnn import imc_injection
from repro.dnn.datasets import cifar10_like, imagenet_like
from repro.dnn.evaluation import evaluate_backends
from repro.dnn.imc_injection import (
    ExactBackend,
    LutBackend,
    PreparedWeights,
    backends_for_corners,
)
from repro.dnn.layers import BatchNorm, Conv2D, Dense, ResidualBlock
from repro.dnn.models import build_resnet50_like, build_vgg16_like
from repro import wire
from repro.dnn.network import Network, load_network_state, network_state
from repro.dnn import quantization
from repro.dnn.quantization import (
    ActivationQuantizer,
    QuantizationScheme,
    QuantizedConv2D,
    QuantizedDense,
    fold_batchnorm_layers,
    load_quantized_network,
    quantize_network,
    quantize_weights_symmetric,
)
from repro.dnn.training import TrainingConfig, train_network
from repro.multiplier.lut import ProductLookupTable


def _reference_matmul(backend, activation_codes, weight_codes, activation_zero_point=0):
    """Oracle for ``LutBackend.matmul``: one masked GEMM per weight value.

    This is the straightforward decomposition the backend's gather-and-GEMM
    form must reproduce: for every non-zero weight value, gather the signed
    products of each activation code with it and multiply by the 0/1
    indicator of where that value sits in the weight matrix.
    """
    table = backend.table
    activations = np.asarray(activation_codes)
    weights = np.asarray(weight_codes)
    max_code = table.max_operand
    weight_values = np.arange(-8, 8)
    signed_product = np.zeros((weight_values.size, max_code + 1))
    variance_table = np.zeros_like(signed_product)
    for row, weight in enumerate(weight_values):
        magnitude = min(abs(int(weight)), max_code)
        signed_product[row] = np.sign(weight) * table.mean[:, magnitude]
        variance_table[row] = table.sigma[:, magnitude] ** 2
    if 0 <= activation_zero_point <= max_code:
        signed_product[:, activation_zero_point] = float(activation_zero_point) * weight_values
        variance_table[:, activation_zero_point] = 0.0

    activation_index = activations.astype(np.intp)
    weight_rows = weights.astype(np.intp) + 8
    accumulated = np.zeros((activations.shape[0], weights.shape[1]), dtype=np.float32)
    variance = np.zeros_like(accumulated) if backend.stochastic else None
    for value_row in np.unique(weight_rows):
        if value_row == 8:
            continue  # weight 0: an all-zero word, no discharge, no mismatch
        indicator = (weight_rows == value_row).astype(np.float32)
        products = signed_product[value_row][activation_index].astype(np.float32)
        accumulated += products @ indicator
        if variance is not None:
            variances = variance_table[value_row][activation_index].astype(np.float32)
            variance += variances @ indicator
    if variance is not None:
        noise = backend.rng.normal(0.0, 1.0, size=accumulated.shape).astype(np.float32)
        accumulated = accumulated + noise * np.sqrt(np.maximum(variance, 0.0))
    return accumulated


class _OracleBackend(LutBackend):
    """A LutBackend whose products run through :func:`_reference_matmul`."""

    def matmul(self, activation_codes, weight_codes, activation_zero_point=0):
        return _reference_matmul(self, activation_codes, weight_codes, activation_zero_point)


@pytest.fixture(scope="module")
def corner_table(multiplier):
    return ProductLookupTable.from_multiplier(multiplier)


class TestQuantizationPrimitives:
    def test_activation_quantizer_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.0, 3.0, 500).astype(np.float32)
        quantizer = ActivationQuantizer.calibrate(values, QuantizationScheme())
        codes = quantizer.quantize(values).astype(np.float32)
        recovered = (codes - quantizer.zero_point) * quantizer.scale
        assert float(np.max(np.abs(recovered - values))) <= quantizer.scale * 0.51 + 1e-6

    def test_activation_zero_point_for_relu_data_is_zero(self):
        values = np.abs(np.random.default_rng(1).normal(size=300)).astype(np.float32)
        quantizer = ActivationQuantizer.calibrate(values, QuantizationScheme())
        assert quantizer.zero_point == 0

    def test_weight_quantization_symmetric_range(self):
        rng = np.random.default_rng(2)
        weights = rng.normal(0.0, 0.2, size=(32, 8)).astype(np.float32)
        codes, scales = quantize_weights_symmetric(weights, QuantizationScheme())
        assert codes.min() >= -8 and codes.max() <= 7
        assert scales.shape == (8,)
        reconstructed = codes * scales
        assert float(np.max(np.abs(reconstructed - weights))) <= float(scales.max()) * 0.51

    def test_per_tensor_mode_uses_single_scale(self):
        weights = np.random.default_rng(3).normal(size=(16, 4)).astype(np.float32)
        _, scales = quantize_weights_symmetric(
            weights, QuantizationScheme(per_channel_weights=False)
        )
        assert np.allclose(scales, scales[0])

    def test_invalid_scheme_rejected(self):
        with pytest.raises(ValueError):
            QuantizationScheme(calibration_percentile=40.0)


class TestBatchNormFolding:
    def test_folding_preserves_inference_output(self):
        rng = np.random.default_rng(4)
        conv = Conv2D(3, 5, kernel=3, rng=rng)
        bn = BatchNorm(5)
        inputs = rng.normal(size=(4, 6, 6, 3)).astype(np.float32)
        # Give the BN non-trivial running statistics.
        for _ in range(10):
            bn.forward(conv.forward(rng.normal(size=(8, 6, 6, 3)).astype(np.float32)), training=True)
        reference = bn.forward(conv.forward(inputs), training=False)
        folded_layers = fold_batchnorm_layers([conv, bn])
        assert len(folded_layers) == 1
        folded_output = folded_layers[0].forward(inputs)
        assert np.allclose(folded_output, reference, atol=1e-4)

    def test_folding_keeps_unpaired_layers(self):
        dense = Dense(4, 2)
        bn = BatchNorm(4)
        layers = fold_batchnorm_layers([bn, dense])
        assert len(layers) == 2

    @pytest.fixture(scope="class")
    def trained_resnet(self, tiny_dataset):
        net = build_resnet50_like((8, 8, 3), classes=tiny_dataset.classes)
        train_network(net, tiny_dataset, TrainingConfig(epochs=1, learning_rate=0.05, seed=2))
        return net

    @staticmethod
    def _deepcopy_fold(layer, bn):
        """The deep-copy fold the shallow-copy one must reproduce."""
        scale, shift = bn.effective_scale_shift()
        folded = copy.deepcopy(layer)
        folded.weight.value = (folded.weight.value * scale).astype(np.float32)
        folded.bias.value = (folded.bias.value * scale + shift).astype(np.float32)
        return folded

    def _pairs(self, source_layers, folded_layers):
        """(source conv/dense, its BN or None, folded layer) triples."""
        triples = []
        index = 0
        for folded in folded_layers:
            layer = source_layers[index]
            if isinstance(layer, ResidualBlock):
                triples.append((layer.conv1, layer.bn1, folded.conv1))
                triples.append((layer.conv2, layer.bn2, folded.conv2))
                if layer.projection is not None:
                    triples.append((layer.projection, None, folded.projection))
                index += 1
            elif isinstance(layer, (Conv2D, Dense)) and isinstance(
                source_layers[index + 1] if index + 1 < len(source_layers) else None, BatchNorm
            ):
                triples.append((layer, source_layers[index + 1], folded))
                index += 2
            else:
                index += 1
        return triples

    def test_folded_layers_hold_no_cache_and_match_deepcopy_fold(self, trained_resnet):
        folded_layers = fold_batchnorm_layers(trained_resnet.layers)
        triples = self._pairs(trained_resnet.layers, folded_layers)
        assert any(isinstance(source, Conv2D) and bn is None for source, bn, _ in triples)
        for source, bn, folded in triples:
            assert getattr(folded, "_cache", None) is None
            assert getattr(folded, "_inputs", None) is None
            assert folded.weight is not source.weight
            assert folded.weight.value is not source.weight.value
            expected = copy.deepcopy(source) if bn is None else self._deepcopy_fold(source, bn)
            assert np.array_equal(folded.weight.value, expected.weight.value)
            assert np.array_equal(folded.bias.value, expected.bias.value)
            assert folded.weight.value.dtype == expected.weight.value.dtype == np.float32
        for block in folded_layers:
            if isinstance(block, ResidualBlock):
                assert block._skip_input is None
                assert block.relu1._mask is None and block.relu_out._mask is None

    def test_folding_leaves_source_parameters_untouched(self, trained_resnet, tiny_dataset):
        before = [p.value.copy() for p in trained_resnet.parameters()]
        statistics = [
            (bn.running_mean.copy(), bn.running_var.copy())
            for bn in _batchnorms(trained_resnet.layers)
        ]
        reference = trained_resnet.predict(tiny_dataset.test_images[:8])
        fold_batchnorm_layers(trained_resnet.layers)
        quantize_network(trained_resnet, tiny_dataset.train_images[:32])
        after = [p.value for p in trained_resnet.parameters()]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        for (mean, var), bn in zip(statistics, _batchnorms(trained_resnet.layers)):
            assert np.array_equal(mean, bn.running_mean) and np.array_equal(var, bn.running_var)
        assert np.array_equal(trained_resnet.predict(tiny_dataset.test_images[:8]), reference)


def _batchnorms(layers):
    for layer in layers:
        if isinstance(layer, ResidualBlock):
            yield from (sub for sub in layer.sublayers() if isinstance(sub, BatchNorm))
        elif isinstance(layer, BatchNorm):
            yield layer


class TestBackends:
    def test_exact_backend_matches_matmul(self):
        rng = np.random.default_rng(5)
        activations = rng.integers(0, 16, size=(6, 10))
        weights = rng.integers(-8, 8, size=(10, 4))
        backend = ExactBackend()
        assert np.allclose(backend.matmul(activations, weights), activations @ weights)

    def test_lut_backend_with_exact_table_matches_exact_backend(self):
        rng = np.random.default_rng(6)
        activations = rng.integers(0, 16, size=(8, 12))
        weights = rng.integers(-8, 8, size=(12, 5))
        lut = LutBackend(ProductLookupTable.exact(), name="exact-lut")
        exact = ExactBackend()
        assert np.allclose(
            lut.matmul(activations, weights), exact.matmul(activations, weights)
        )

    def test_zero_skipping_restores_exact_zero_contributions(self, multiplier):
        table = ProductLookupTable.from_multiplier(multiplier)
        backend = LutBackend(table)
        weights = np.arange(-8, 8).reshape(16, 1)
        activations = np.zeros((1, 16), dtype=int)
        # With zero-skipping, an all-zero activation row accumulates exactly 0.
        accumulated = backend.matmul(activations, weights, activation_zero_point=0)
        assert float(accumulated.item()) == pytest.approx(0.0)

    def test_stochastic_backend_adds_variance(self, multiplier):
        table = ProductLookupTable.from_multiplier(multiplier)
        rng = np.random.default_rng(7)
        noisy = LutBackend(table, stochastic=True, rng=rng)
        activations = np.full((200, 8), 9, dtype=int)
        weights = np.full((8, 1), 7, dtype=int)
        outputs = noisy.matmul(activations, weights)
        assert float(np.std(outputs)) > 0.0
        deterministic = LutBackend(table).matmul(activations[:1], weights)
        assert float(np.mean(outputs)) == pytest.approx(float(deterministic.item()), rel=0.2)

    def test_out_of_range_codes_rejected(self):
        backend = LutBackend(ProductLookupTable.exact())
        with pytest.raises(ValueError):
            backend.matmul(np.array([[17]]), np.array([[1]]))
        with pytest.raises(ValueError):
            backend.matmul(np.array([[1]]), np.array([[9]]))
        with pytest.raises(ValueError):
            backend.matmul(np.array([1]), np.array([[1]]))

    def test_backends_for_corners(self, multiplier):
        table = ProductLookupTable.from_multiplier(multiplier)
        backends = backends_for_corners({"fom": table}, stochastic=False)
        assert set(backends) == {"fom"}
        assert backends["fom"].name == "fom"

    def test_code_tables_memoised_per_zero_point(self):
        backend = LutBackend(ProductLookupTable.exact())
        for zero_point in range(-1, 17):
            backend.code_tables(zero_point)
        assert len(backend._code_tables) == 17
        assert backend.code_tables(-5) is backend.code_tables(16)
        assert backend.code_tables(3) is backend.code_tables(3)


class TestLutBackendOracle:
    """``LutBackend.matmul`` against the weight-value decomposition."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 64),
        inner=st.integers(1, 64),
        cols=st.integers(1, 64),
        zero_point=st.integers(-1, 16),
        corner=st.booleans(),
        zero_fraction=st.sampled_from([0.0, 0.6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(
        self, corner_table, rows, inner, cols, zero_point, corner, zero_fraction, seed
    ):
        table = corner_table if corner else ProductLookupTable.exact()
        rng = np.random.default_rng(seed)
        activations = rng.integers(0, 16, size=(rows, inner)).astype(np.int32)
        activations[rng.random(activations.shape) < zero_fraction] = min(max(zero_point, 0), 15)
        weights = rng.integers(-8, 8, size=(inner, cols)).astype(np.int32)
        weights[:, 0] = 0

        deterministic = LutBackend(table).matmul(activations, weights, zero_point)
        expected = _reference_matmul(LutBackend(table), activations, weights, zero_point)
        assert deterministic.dtype == expected.dtype == np.float32
        assert np.array_equal(deterministic, expected)

        noisy = LutBackend(table, stochastic=True, rng=np.random.default_rng(seed))
        oracle = LutBackend(table, stochastic=True, rng=np.random.default_rng(seed))
        sampled = noisy.matmul(activations, weights, zero_point)
        expected = _reference_matmul(oracle, activations, weights, zero_point)
        assert np.allclose(sampled, expected, rtol=1e-5, atol=1e-3)
        assert noisy.rng.bit_generator.state == oracle.rng.bit_generator.state
        assert np.all(sampled[:, 0] == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 48),
        inner=st.integers(1, 48),
        cols=st.integers(2, 48),
        zero_points=st.lists(st.integers(-1, 16), min_size=2, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prepared_weights_match_reference(
        self, corner_table, rows, inner, cols, zero_points, seed
    ):
        """One prepared weights value, two calls on each of two tables."""
        rng = np.random.default_rng(seed)
        weights = rng.integers(-8, 8, size=(inner, cols)).astype(np.int32)
        weights[:, 0] = 0
        weights[:, 1] = -8
        prepared = PreparedWeights(weights)
        assert np.array_equal(np.asarray(prepared), weights)
        for table in (ProductLookupTable.exact(), corner_table):
            backend = LutBackend(table)
            for zero_point in zero_points:
                activations = rng.integers(0, 16, size=(rows, inner)).astype(np.int32)
                activations[rng.random(activations.shape) < 0.3] = min(max(zero_point, 0), 15)
                result = backend.matmul(activations, prepared, zero_point)
                expected = _reference_matmul(backend, activations, prepared, zero_point)
                assert result.dtype == expected.dtype == np.float32
                assert np.array_equal(result, expected)
                assert np.all(result[:, 0] == 0.0)

    def test_corner_table_holds_integer_codes(self, corner_table):
        # The bit-identity argument: integer products sum exactly in float32.
        assert np.array_equal(corner_table.mean, np.rint(corner_table.mean))

    def test_accuracy_tables_equal_with_oracle_backends(self, corner_table, monkeypatch):
        """Tables II and III, one model: real backends == oracle-backed copies.

        Corner tables travel to the evaluate jobs as arrays, which rebuild
        their backends with the ``LutBackend`` name of ``dnn_tables``; the
        oracle run points that name at the oracle class."""
        config = DnnExperimentConfig(
            image_size=8,
            train_per_class=3,
            test_per_class=2,
            epochs=1,
            transfer_epochs=1,
            calibration_samples=16,
        )
        sizes = dict(image_size=8, train_per_class=3, test_per_class=2)
        imagenet = imagenet_like(**sizes)
        cifar = cifar10_like(**sizes)
        models = [model_builders(8, imagenet.classes)[2]]  # ResNet50: residual blocks
        tables = {"fom": corner_table, "exact-lut": ProductLookupTable.exact()}
        backends = backends_for_corners(tables)
        oracles = {
            name: _OracleBackend(table, name=name) for name, table in tables.items()
        }
        for dataset, base in ((imagenet, None), (cifar, imagenet)):
            real = run_dnn_accuracy_experiment(
                dataset, backends, config=config, models=models, base_dataset=base
            )
            with monkeypatch.context() as patch:
                patch.setattr(dnn_tables, "LutBackend", _OracleBackend)
                oracle = run_dnn_accuracy_experiment(
                    dataset, oracles, config=config, models=models, base_dataset=base
                )
            assert real == oracle
            assert set(real["ResNet50"]) == {"float32", "int4", "fom", "exact-lut"}


class TestQuantizedNetwork:
    @pytest.fixture(scope="class")
    def trained_network(self, tiny_dataset):
        net = build_vgg16_like((8, 8, 3), classes=tiny_dataset.classes)
        train_network(net, tiny_dataset, TrainingConfig(epochs=4, learning_rate=0.08, seed=1))
        return net

    @pytest.mark.parametrize("build", [build_vgg16_like, build_resnet50_like])
    def test_network_rebuilt_from_quantized_state_is_bitwise_equal(self, build, tiny_dataset):
        """A fresh network plus the two states, through the artifact
        codec, predicts exactly like the network the state was made on."""
        network = build((8, 8, 3), tiny_dataset.classes)
        train_network(network, tiny_dataset, TrainingConfig(epochs=1, seed=1))
        calibrated = quantize_network(network, tiny_dataset.train_images[:32])
        quantized = load_quantized_network(network, calibrated)
        state = wire.unpack_values(*wire.pack_values(calibrated))
        fresh = build((8, 8, 3), tiny_dataset.classes)
        load_network_state(fresh, network_state(network))
        rebuilt = load_quantized_network(fresh, state)
        exact = ProductLookupTable.exact()
        lut = LutBackend(ProductLookupTable(exact.mean + 1.0, exact.sigma))
        images = tiny_dataset.test_images
        assert np.array_equal(rebuilt.predict(images), quantized.predict(images))
        assert np.array_equal(
            rebuilt.with_backend(lut).predict(images), quantized.with_backend(lut).predict(images)
        )

    @pytest.mark.parametrize("build", [build_vgg16_like, build_resnet50_like])
    def test_rebuild_from_state_folds_nothing(self, build, tiny_dataset, monkeypatch):
        """The stored state already holds the folded weights: rebuilding
        reads only layer names and shapes, so it never calls ``_fold_pair``."""
        network = build((8, 8, 3), tiny_dataset.classes)
        state = quantize_network(network, tiny_dataset.train_images[:16])
        quantized = load_quantized_network(network, state)

        def refuse(*_args):
            raise AssertionError("load_quantized_network folded a batch norm")

        monkeypatch.setattr(quantization, "_fold_pair", refuse)
        rebuilt = load_quantized_network(network, state)
        images = tiny_dataset.test_images[:8]
        assert np.array_equal(rebuilt.predict(images), quantized.predict(images))

    def test_out_of_range_weight_code_in_state_rejected(self, trained_network, tiny_dataset):
        state = quantize_network(trained_network, tiny_dataset.train_images[:16])
        key = next(key for key in state if key.endswith(".weight_codes"))
        state[key] = state[key].copy()
        state[key][0, 0] = 9
        with pytest.raises(ValueError, match="4-bit signed range"):
            load_quantized_network(trained_network, state)

    def test_int4_quantisation_close_to_float(self, trained_network, tiny_dataset):
        quantized = load_quantized_network(
            trained_network, quantize_network(trained_network, tiny_dataset.train_images[:64])
        )
        float_scores = trained_network.predict(tiny_dataset.test_images)
        int4_scores = quantized.predict(tiny_dataset.test_images)
        float_top1 = np.mean(np.argmax(float_scores, axis=1) == tiny_dataset.test_labels)
        int4_top1 = np.mean(np.argmax(int4_scores, axis=1) == tiny_dataset.test_labels)
        assert int4_top1 >= float_top1 - 0.2

    def test_quantized_layer_types(self, trained_network, tiny_dataset):
        quantized = load_quantized_network(
            trained_network, quantize_network(trained_network, tiny_dataset.train_images[:64])
        )
        assert any(isinstance(layer, QuantizedConv2D) for layer in quantized.layers)
        # QuantizedConv2D is a QuantizedDense on patches: look for the dense head itself.
        assert any(type(layer) is QuantizedDense for layer in quantized.layers)
        # Batch norms are folded away.
        assert not any(isinstance(layer, BatchNorm) for layer in quantized.layers)

    def test_with_backend_rebinds_all_quantized_layers(self, trained_network, tiny_dataset, multiplier):
        quantized = load_quantized_network(
            trained_network, quantize_network(trained_network, tiny_dataset.train_images[:64])
        )
        table = ProductLookupTable.exact()
        rebound = quantized.with_backend(LutBackend(table, name="exact-lut"))
        assert rebound.backend.name == "exact-lut"
        # An exact LUT backend must reproduce the exact-INT4 scores.
        assert np.allclose(
            rebound.predict(tiny_dataset.test_images[:16]),
            quantized.predict(tiny_dataset.test_images[:16]),
            atol=1e-4,
        )

    def test_multiplication_count_carried_over(self, trained_network, tiny_dataset):
        quantized = load_quantized_network(
            trained_network, quantize_network(trained_network, tiny_dataset.train_images[:32])
        )
        assert quantized.multiplication_count() == trained_network.multiplication_count()


def _quantizable(layers):
    """The conv / dense layers of an unfolded network, in calibration order."""
    for layer in layers:
        if isinstance(layer, ResidualBlock):
            yield from (
                sub for sub in (layer.conv1, layer.conv2, layer.projection) if sub is not None
            )
        elif isinstance(layer, (Conv2D, Dense)):
            yield layer


def _folded_layer_inputs(network, images):
    """(folded conv / dense layer, the float tensor entering it), in order.

    The folded float network runs ``images`` through its own ``forward``
    methods, residual blocks included, with each conv / dense layer's
    ``forward`` wrapped to record its input.
    """
    seen = []

    def record(layer):
        forward = layer.forward

        def recording(inputs, training=False):
            seen.append((layer, np.array(inputs)))
            return forward(inputs, training)

        layer.forward = recording

    folded = fold_batchnorm_layers(network.layers)
    for layer in _quantizable(folded):
        record(layer)
    Network(folded, input_shape=network.input_shape, name="folded").forward(images)
    return seen


#: The stored arrays of one quantised layer and their dtypes.
STATE_FORMAT = {
    "weight_codes": np.int8,
    "weight_scales": np.float32,
    "bias": np.float32,
    "activation_scale": np.float64,
    "zero_point": np.int64,
}


class TestCalibrationState:
    """``quantize_network``'s state: its format and an independent calibration."""

    @pytest.fixture(scope="class", params=[build_vgg16_like, build_resnet50_like])
    def calibrated(self, request, tiny_dataset):
        network = request.param((8, 8, 3), tiny_dataset.classes)
        train_network(network, tiny_dataset, TrainingConfig(epochs=1, seed=1))
        images = tiny_dataset.train_images[:32]
        return network, images, quantize_network(network, images)

    def test_state_matches_calibration_of_each_layer_input(self, calibrated):
        """Each layer's quantiser is calibrated on the tensor that enters it
        (for a residual ``conv2``, the ``relu1`` output; for a projection,
        the block input) and its codes quantise the folded weights."""
        network, images, state = calibrated
        scheme = QuantizationScheme()
        seen = _folded_layer_inputs(network, images)
        assert [layer.name for layer, _ in seen] == [
            layer.name for layer in _quantizable(network.layers)
        ]
        for layer, inputs in seen:
            name = f"{layer.name}.q"
            expected = ActivationQuantizer.calibrate(inputs, scheme)
            assert float(state[f"{name}.activation_scale"]) == expected.scale
            assert int(state[f"{name}.zero_point"]) == expected.zero_point
            codes, scales = quantize_weights_symmetric(layer.weight.value, scheme)
            assert np.array_equal(state[f"{name}.weight_codes"], codes)
            assert np.array_equal(state[f"{name}.weight_scales"], scales)
            assert np.array_equal(state[f"{name}.bias"], layer.bias.value)

    def test_state_format(self, calibrated):
        """The artifact cache stores this dict: exact keys, dtypes and shapes."""
        network, _, state = calibrated
        expected = {
            f"{layer.name}.q.{array}": np.dtype(dtype)
            for layer in _quantizable(network.layers)
            for array, dtype in STATE_FORMAT.items()
        }
        assert {key: value.dtype for key, value in state.items()} == expected
        for layer in _quantizable(network.layers):
            name = f"{layer.name}.q"
            out_features = layer.weight.value.shape[1]
            assert state[f"{name}.weight_codes"].shape == layer.weight.value.shape
            assert state[f"{name}.weight_scales"].shape == (out_features,)
            assert state[f"{name}.bias"].shape == (out_features,)
            assert state[f"{name}.activation_scale"].shape == ()
            assert state[f"{name}.zero_point"].shape == ()


class TestPreparedWeightsSharing:
    """Every corner and every predict batch reads one selector per layer."""

    @staticmethod
    def _run(corner_table, dataset, monkeypatch):
        """Evaluate three corners, four predict batches each; return what to check."""
        network = build_resnet50_like((8, 8, 3), classes=dataset.classes)
        quantized = load_quantized_network(
            network, quantize_network(network, dataset.train_images[:16])
        )
        exact = ProductLookupTable.exact()
        tables = {
            "fom": corner_table,
            "exact-lut": exact,
            "offset": ProductLookupTable(exact.mean + 1.0, exact.sigma),
        }
        built = []
        build = imc_injection._signed_one_hot

        def counting(codes):
            built.append(codes.shape)
            return build(codes)

        monkeypatch.setattr(imc_injection, "_signed_one_hot", counting)
        batch = dataset.test_size // 4
        real = evaluate_backends(
            network, quantized, backends_for_corners(tables), dataset, batch_size=batch
        )
        oracles = {name: _OracleBackend(table, name=name) for name, table in tables.items()}
        oracle = evaluate_backends(network, quantized, oracles, dataset, batch_size=batch)
        leaves = list(quantization._quantized_leaves(quantized.layers))
        selector = weakref.ref(leaves[0].weights.selector)
        return real, oracle, built, [leaf.weights.codes.shape for leaf in leaves], selector

    def test_selector_built_once_per_layer_and_freed_with_it(
        self, corner_table, tiny_dataset, monkeypatch
    ):
        real, oracle, built, leaf_shapes, selector = self._run(
            corner_table, tiny_dataset, monkeypatch
        )
        assert sorted(built) == sorted(leaf_shapes)
        assert real == oracle
        assert set(real) == {"float32", "int4", "fom", "exact-lut", "offset"}
        gc.collect()
        assert selector() is None
