"""Sequential network container.

Residual topologies are expressed through the
:class:`~repro.dnn.layers.ResidualBlock` composite layer, so a plain
sequential container is sufficient for both the VGG-style and ResNet-style
models of the paper's application analysis.

A trained network is captured by :func:`network_state`: a copy of every
parameter plus the BatchNorm running statistics (those inside residual
blocks included), keyed by name.  :func:`load_network_state` puts such a
state into a freshly built network of the same architecture, which then
predicts exactly like the trained one; this is how a cached training
result is reused.

>>> from repro.dnn.layers import BatchNorm, Dense, Flatten
>>> def build():
...     rng = np.random.default_rng(0)
...     return Network([Flatten(), Dense(4, 3, rng=rng), BatchNorm(3)], (2, 2))
>>> trained = build()
>>> trained.layers[1].weight.value += 0.5
>>> _ = trained.forward(np.ones((2, 2, 2)), training=True)   # updates BN stats
>>> fresh = build()
>>> load_network_state(fresh, network_state(trained))
>>> x = np.arange(8.0).reshape(2, 2, 2)
>>> bool(np.array_equal(fresh.predict(x), trained.predict(x)))
True
>>> other = Network([Flatten(), Dense(4, 2)], (2, 2))   # another architecture
>>> try:
...     load_network_state(fresh, network_state(other))
... except NetworkStateError as error:
...     print(error)
state does not match the network: missing bn.beta, bn.gamma, bn.running_mean, bn.running_var
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.dnn.layers import BatchNorm, Layer, Parameter


class Network:
    """An ordered stack of layers.

    Parameters
    ----------
    layers:
        Layers in execution order.
    input_shape:
        Shape of one input sample (excluding the batch dimension), e.g.
        ``(16, 16, 3)`` for an image or ``(64,)`` for a flat vector.
    name:
        Model name used in reports (e.g. ``"vgg16-like"``).
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: Tuple[int, ...],
        name: str = "network",
    ) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(input_shape)
        self.name = name

    # ------------------------------------------------------------------
    # Inference / training passes
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run a forward pass through every layer."""
        outputs = np.asarray(inputs, dtype=np.float32)
        for layer in self.layers:
            outputs = layer.forward(outputs, training=training)
        return outputs

    def predict(self, inputs: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Forward pass in inference mode, batched to bound memory."""
        inputs = np.asarray(inputs, dtype=np.float32)
        outputs: List[np.ndarray] = []
        for start in range(0, inputs.shape[0], batch_size):
            outputs.append(self.forward(inputs[start : start + batch_size], training=False))
        return np.concatenate(outputs, axis=0)

    def backward(self, grad_output: np.ndarray) -> None:
        """Back-propagate through every layer in reverse order.

        Accumulates every parameter gradient.  The first layer runs
        :meth:`~repro.dnn.layers.Layer.parameter_backward`: the gradient
        with respect to the network input is never computed, since
        training has no use for it.
        """
        grad = grad_output
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].parameter_backward(grad)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """All trainable parameters of the network."""
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        """Reset every parameter gradient."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def output_shape(self) -> Tuple[int, ...]:
        """Shape of one output sample."""
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def multiplication_count(self) -> int:
        """Scalar multiplications needed for one single-sample inference.

        This is the quantity reported in the "Number of Multiplications"
        column of paper Table II — every one of these multiplications is
        what the in-SRAM multiplier replaces.
        """
        shape = self.input_shape
        total = 0
        for layer in self.layers:
            total += layer.multiplication_count(shape)
            shape = layer.output_shape(shape)
        return total


class NetworkStateError(ValueError):
    """A state does not fit the network it is loaded into."""


def _batch_norms(layers: Sequence[Layer]) -> Iterator[BatchNorm]:
    """Every BatchNorm of ``layers``, descending into composite layers."""
    for layer in layers:
        if isinstance(layer, BatchNorm):
            yield layer
        sublayers = getattr(layer, "sublayers", None)
        if sublayers is not None:
            yield from _batch_norms(sublayers())


def _state_slots(network: Network) -> Dict[str, Tuple[object, str]]:
    """State name -> (owner, attribute) of every trained array."""
    slots: Dict[str, Tuple[object, str]] = {}
    owners: List[Tuple[str, object, str]] = [
        (parameter.name, parameter, "value") for parameter in network.parameters()
    ]
    for norm in _batch_norms(network.layers):
        owners.append((f"{norm.name}.running_mean", norm, "running_mean"))
        owners.append((f"{norm.name}.running_var", norm, "running_var"))
    for name, owner, attribute in owners:
        if name in slots:
            raise NetworkStateError(f"two trained arrays share the name {name!r}")
        slots[name] = (owner, attribute)
    return slots


def network_state(network: Network) -> Dict[str, np.ndarray]:
    """Copies of ``network``'s parameters and BatchNorm running statistics."""
    return {
        name: np.array(getattr(owner, attribute))
        for name, (owner, attribute) in _state_slots(network).items()
    }


def copy_network(network: Network) -> Network:
    """A copy of an untrained ``network`` that shares no parameter with it.

    Every layer is copied, composite layers' sublayers included, and every
    parameter gets its own value and a zero gradient: training the copy
    leaves ``network`` as it was.  Much cheaper than building the model
    again, which draws every initial weight anew.
    """
    return Network([_copied(layer) for layer in network.layers], network.input_shape, network.name)


def _copied(layer: Layer) -> Layer:
    clone = copy.copy(layer)
    for attribute, value in vars(layer).items():
        if isinstance(value, Layer):
            setattr(clone, attribute, _copied(value))
        elif isinstance(value, Parameter):
            setattr(clone, attribute, Parameter(value.name, value.value.copy(), np.zeros_like(value.grad)))
        elif isinstance(value, np.ndarray):
            setattr(clone, attribute, value.copy())
    return clone


def load_network_state(network: Network, state: Mapping[str, np.ndarray]) -> None:
    """Overwrite ``network``'s trained arrays with copies of ``state``'s.

    Raises
    ------
    NetworkStateError
        When the names or shapes in ``state`` are not those of
        ``network`` (a state of another architecture); ``network`` is then
        left unchanged.
    """
    slots = _state_slots(network)
    missing = sorted(set(slots) - set(state))
    unknown = sorted(set(state) - set(slots))
    if missing or unknown:
        parts = [f"missing {', '.join(missing)}"] if missing else []
        parts += [f"unknown {', '.join(unknown)}"] if unknown else []
        raise NetworkStateError(f"state does not match the network: {'; '.join(parts)}")
    for name, (owner, attribute) in slots.items():
        expected = getattr(owner, attribute).shape
        if np.shape(state[name]) != expected:
            raise NetworkStateError(
                f"{name} has shape {np.shape(state[name])}, the network needs {expected}"
            )
    for name, (owner, attribute) in slots.items():
        setattr(owner, attribute, np.array(state[name]))
