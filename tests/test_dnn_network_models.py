"""Tests for the network container, model builders, datasets and training."""

import numpy as np
import pytest

from repro.dnn.datasets import cifar10_like, imagenet_like, make_synthetic_image_dataset
from repro.dnn.models import (
    build_mlp,
    build_resnet101_like,
    build_resnet50_like,
    build_vgg16_like,
    build_vgg19_like,
)
from repro.dnn.network import (
    Network,
    NetworkStateError,
    copy_network,
    load_network_state,
    network_state,
)
from repro.dnn.training import (
    TrainingConfig,
    classification_accuracy,
    cross_entropy_loss,
    replace_classifier_head,
    softmax,
    train_network,
)


class TestNetwork:
    def test_forward_shape_and_summary(self):
        net = build_vgg16_like((8, 8, 3), classes=5)
        output = net.forward(np.zeros((2, 8, 8, 3), dtype=np.float32))
        assert output.shape == (2, 5)
        assert net.output_shape() == (5,)
        assert net.name == "vgg16-like"
        assert net.parameters()

    def test_predict_batches_match_forward(self):
        net = build_mlp(12, 3)
        inputs = np.random.default_rng(0).normal(size=(10, 12)).astype(np.float32)
        assert np.allclose(net.predict(inputs, batch_size=3), net.forward(inputs), atol=1e-6)

    def test_zero_grad(self):
        net = build_mlp(6, 2)
        for parameter in net.parameters():
            parameter.grad += 1.0
        net.zero_grad()
        assert all(np.all(p.grad == 0.0) for p in net.parameters())

    def test_backward_skips_the_first_layers_input_gradient(self, monkeypatch):
        net = build_vgg16_like((8, 8, 3), classes=5)
        first = net.layers[0]
        monkeypatch.setattr(first, "backward", lambda grad: pytest.fail("input gradient computed"))
        net.forward(np.ones((2, 8, 8, 3), dtype=np.float32), training=True)
        assert net.backward(np.ones((2, 5), dtype=np.float32)) is None
        assert np.any(first.weight.grad != 0.0) and np.any(first.bias.grad != 0.0)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            Network([], input_shape=(4,))


class TestModelBuilders:
    def test_all_builders_produce_working_networks(self):
        for builder in (build_vgg16_like, build_vgg19_like, build_resnet50_like, build_resnet101_like):
            net = builder((8, 8, 3), classes=7)
            output = net.forward(np.zeros((1, 8, 8, 3), dtype=np.float32))
            assert output.shape == (1, 7)

    def test_deeper_variants_have_more_multiplications(self):
        vgg16 = build_vgg16_like((16, 16, 3), classes=10)
        vgg19 = build_vgg19_like((16, 16, 3), classes=10)
        resnet50 = build_resnet50_like((16, 16, 3), classes=10)
        resnet101 = build_resnet101_like((16, 16, 3), classes=10)
        assert vgg19.multiplication_count() > vgg16.multiplication_count()
        assert resnet101.multiplication_count() > resnet50.multiplication_count()

    def test_mlp_builder(self):
        net = build_mlp(20, 4, hidden=(16,))
        assert net.forward(np.zeros((3, 20), dtype=np.float32)).shape == (3, 4)


class TestDatasets:
    def test_shapes_and_ranges(self, tiny_dataset):
        assert tiny_dataset.train_images.ndim == 4
        assert tiny_dataset.image_shape == (8, 8, 3)
        assert tiny_dataset.train_images.min() >= 0.0
        assert tiny_dataset.train_images.max() <= 1.0
        assert set(np.unique(tiny_dataset.train_labels)) == set(range(4))

    def test_deterministic_generation(self):
        first = make_synthetic_image_dataset(classes=3, train_per_class=5, test_per_class=2, seed=9)
        second = make_synthetic_image_dataset(classes=3, train_per_class=5, test_per_class=2, seed=9)
        assert np.allclose(first.train_images, second.train_images)
        assert np.array_equal(first.train_labels, second.train_labels)

    def test_class_balance(self, tiny_dataset):
        counts = np.bincount(tiny_dataset.train_labels)
        assert np.all(counts == counts[0])

    def test_named_configurations(self):
        imagenet = imagenet_like(train_per_class=3, test_per_class=2)
        cifar = cifar10_like(train_per_class=3, test_per_class=2)
        assert imagenet.classes == 20
        assert cifar.classes == 10
        assert "imagenet" in imagenet.describe()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_image_dataset(classes=1)
        with pytest.raises(ValueError):
            make_synthetic_image_dataset(noise=-0.1)


class TestTraining:
    def test_softmax_and_cross_entropy(self):
        logits = np.array([[2.0, 0.0, -2.0]], dtype=np.float32)
        probabilities = softmax(logits)
        assert probabilities.sum() == pytest.approx(1.0)
        loss, grad = cross_entropy_loss(logits, np.array([0]))
        assert loss > 0.0
        assert grad.shape == logits.shape
        assert float(grad.sum()) == pytest.approx(0.0, abs=1e-6)

    def test_training_learns_tiny_task(self, tiny_dataset):
        """A small conv net must fit the easy synthetic dataset."""
        net = build_vgg16_like((8, 8, 3), classes=tiny_dataset.classes)
        history = train_network(
            net,
            tiny_dataset,
            TrainingConfig(epochs=8, batch_size=32, learning_rate=0.1, seed=0),
        )
        assert history.losses[-1] < history.losses[0]
        assert len(history.losses) == 8
        assert classification_accuracy(net, tiny_dataset.test_images, tiny_dataset.test_labels) > 0.6

    def test_replace_classifier_head(self, tiny_dataset):
        net = build_mlp(8 * 8 * 3, tiny_dataset.classes)
        new_net = replace_classifier_head(net, classes=7)
        assert new_net.output_shape() == (7,)
        # The backbone layers are shared, only the head is new.
        assert new_net.layers[0] is net.layers[0]
        assert new_net.layers[-1] is not net.layers[-1]

    def test_replace_head_requires_dense_tail(self):
        from repro.dnn.layers import ReLU

        net = Network([ReLU()], input_shape=(4,))
        with pytest.raises(ValueError):
            replace_classifier_head(net, classes=3)

    @pytest.mark.parametrize("model", ["VGG16", "ResNet50"])
    def test_skipping_the_input_gradient_leaves_the_trained_state(self, model, monkeypatch):
        """Training never computes the first layer's input gradient; the
        trained state (quick config) is bit-identical to back-propagating
        through every layer, as training did before it was skipped."""
        from repro.analysis import dnn_tables

        config = dnn_tables.DnnExperimentConfig.quick()
        dataset = imagenet_like(
            image_size=config.image_size,
            train_per_class=config.train_per_class,
            test_per_class=config.test_per_class,
        )
        spec = dnn_tables.ModelSpec(model, config.image_size, dataset.classes)
        skipped = dnn_tables.train(spec, None, dataset, config.training())

        def full_backward(network, grad):
            for layer in reversed(network.layers):
                grad = layer.backward(grad)
            return grad

        monkeypatch.setattr(Network, "backward", full_backward)
        full = dnn_tables.train(spec, None, dataset, config.training())
        assert skipped.keys() == full.keys()
        assert all(np.array_equal(skipped[name], full[name]) for name in full)

    def test_invalid_training_config_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainingConfig(momentum=1.5)


BACKBONES = {
    "VGG16": build_vgg16_like,
    "VGG19": build_vgg19_like,
    "ResNet50": build_resnet50_like,
    "ResNet101": build_resnet101_like,
}


class TestNetworkState:
    def test_copy_trains_like_a_fresh_build_and_leaves_the_original(self, tiny_dataset):
        original = build_resnet50_like((8, 8, 3), tiny_dataset.classes)
        before = network_state(original)
        copied = copy_network(original)
        fresh = build_resnet50_like((8, 8, 3), tiny_dataset.classes)
        for network in (copied, fresh):
            train_network(network, tiny_dataset, TrainingConfig(epochs=1, seed=3))
        trained, after = network_state(copied), network_state(original)
        assert all(np.array_equal(trained[name], value) for name, value in network_state(fresh).items())
        assert all(np.array_equal(after[name], value) for name, value in before.items())

    @pytest.fixture(scope="class", params=sorted(BACKBONES))
    def trained(self, request, tiny_dataset):
        build = BACKBONES[request.param]
        net = build((8, 8, 3), tiny_dataset.classes)
        train_network(net, tiny_dataset, TrainingConfig(epochs=1, batch_size=32, seed=0))
        return request.param, net

    def test_fresh_network_with_trained_state_predicts_identically(self, trained, tiny_dataset):
        name, net = trained
        images = tiny_dataset.test_images
        fresh = BACKBONES[name]((8, 8, 3), tiny_dataset.classes)
        assert not np.array_equal(fresh.predict(images), net.predict(images))
        load_network_state(fresh, network_state(net))
        assert np.array_equal(fresh.predict(images), net.predict(images))

    def test_state_holds_running_statistics_inside_residual_blocks(self, trained, tiny_dataset):
        name, net = trained
        state = network_state(net)
        means = [key for key in state if key.endswith(".running_mean")]
        assert means and len(state) == len(net.parameters()) + 2 * len(means)
        if name.startswith("ResNet"):
            assert any(".bn1.running_mean" in key for key in means)
        fresh = network_state(BACKBONES[name]((8, 8, 3), tiny_dataset.classes))
        assert all(not np.array_equal(state[key], fresh[key]) for key in means)

    def test_state_is_a_copy(self, trained):
        _, net = trained
        state = network_state(net)
        first = net.parameters()[0]
        state[first.name] += 1.0
        assert not np.array_equal(state[first.name], first.value)

    def test_other_architecture_state_is_rejected(self, trained, tiny_dataset):
        name, net = trained
        other = "VGG19" if name == "VGG16" else "VGG16"
        target = BACKBONES[other]((8, 8, 3), tiny_dataset.classes)
        before = network_state(target)
        with pytest.raises(NetworkStateError, match="does not match"):
            load_network_state(target, network_state(net))
        # same architecture, other head width: names match, shapes do not
        wider = BACKBONES[name]((8, 8, 3), tiny_dataset.classes + 1)
        with pytest.raises(NetworkStateError, match="shape"):
            load_network_state(wider, network_state(net))
        after = network_state(target)
        assert all(np.array_equal(before[key], after[key]) for key in before)
