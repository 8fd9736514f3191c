"""Training loop: SGD with momentum and softmax cross-entropy.

The paper's DNNs come pre-trained from the Keras model zoo; the scaled-down
models here are trained from scratch on the synthetic datasets, and the
CIFAR-10-style experiment additionally exercises the transfer-learning step
the paper describes (replace the classifier head, retrain briefly).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dnn.datasets import Dataset
from repro.dnn.layers import Dense, Parameter
from repro.dnn.network import Network


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float32)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy_loss(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits."""
    labels = np.asarray(labels)
    probabilities = softmax(logits)
    batch = logits.shape[0]
    clipped = np.clip(probabilities[np.arange(batch), labels], 1e-12, 1.0)
    loss = float(-np.mean(np.log(clipped)))
    grad = probabilities.copy()
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


@dataclasses.dataclass
class TrainingConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 12
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    learning_rate_decay: float = 0.85
    seed: int = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


@dataclasses.dataclass
class TrainingHistory:
    """Loss trajectory of one training run (mean minibatch loss per epoch).

    Accuracy is not tracked: call :func:`classification_accuracy` on the
    trained network when it is needed.
    """

    losses: List[float]


class SgdOptimizer:
    """Plain SGD with momentum and decoupled weight decay."""

    def __init__(
        self,
        parameters: List[Parameter],
        learning_rate: float,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {
            index: np.zeros_like(parameter.value)
            for index, parameter in enumerate(parameters)
        }

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        for index, parameter in enumerate(self.parameters):
            gradient = parameter.grad
            if self.weight_decay > 0.0:
                gradient = gradient + self.weight_decay * parameter.value
            velocity = self._velocity[index]
            velocity *= self.momentum
            velocity -= self.learning_rate * gradient
            parameter.value += velocity


def classification_accuracy(network: Network, images: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``network`` on the given samples."""
    logits = network.predict(images)
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == np.asarray(labels)))


def train_network(
    network: Network,
    dataset: Dataset,
    config: Optional[TrainingConfig] = None,
) -> TrainingHistory:
    """Train ``network`` on ``dataset`` with SGD + momentum.

    Returns the per-epoch loss history; the network is modified in place.
    """
    config = config or TrainingConfig()
    rng = np.random.default_rng(config.seed)
    optimizer = SgdOptimizer(
        network.parameters(),
        learning_rate=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )

    losses: List[float] = []
    sample_count = dataset.train_size

    for epoch in range(config.epochs):
        order = rng.permutation(sample_count)
        epoch_losses: List[float] = []
        for start in range(0, sample_count, config.batch_size):
            batch_indices = order[start : start + config.batch_size]
            images = dataset.train_images[batch_indices]
            labels = dataset.train_labels[batch_indices]

            network.zero_grad()
            logits = network.forward(images, training=True)
            loss, grad = cross_entropy_loss(logits, labels)
            network.backward(grad)
            optimizer.step()
            epoch_losses.append(loss)

        optimizer.learning_rate *= config.learning_rate_decay
        losses.append(float(np.mean(epoch_losses)))
        if config.verbose:  # pragma: no cover - console convenience
            print(f"epoch {epoch + 1:3d}/{config.epochs}: loss={losses[-1]:.4f}")

    return TrainingHistory(losses=losses)


def replace_classifier_head(
    network: Network, classes: int, rng: Optional[np.random.Generator] = None
) -> Network:
    """Swap the final dense layer for a freshly initialised ``classes``-wide one.

    This is the transfer-learning step of the paper's CIFAR-10 experiment:
    the backbone keeps its trained weights, only the classifier is replaced
    (and then briefly retrained by the caller).
    """
    if not isinstance(network.layers[-1], Dense):
        raise ValueError("the network's last layer must be Dense to replace the head")
    old_head = network.layers[-1]
    new_head = Dense(
        old_head.in_features,
        classes,
        name=f"{old_head.name}_transfer",
        rng=rng or np.random.default_rng(123),
    )
    layers = list(network.layers[:-1]) + [new_head]
    return Network(layers, input_shape=network.input_shape, name=f"{network.name}-transfer")
