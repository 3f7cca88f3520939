"""Dense networks with hand-rolled reverse-mode gradients.

Everything is float64. A network is a stack of fully connected layers
plus an output head that fixes the semantics of the final activations:
probabilities (softmax), nonnegative evidence (relu_evidence), or
evidence bounded below by -1 (elu_evidence). An identity head is also
supported for losses that differentiate directly at the logits.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("tanh", "relu", "elu", "identity")
HEADS = ("softmax", "relu_evidence", "elu_evidence", "identity")


class NumericError(ValueError):
    """A non-finite value surfaced in a public operation."""


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float64 array (1-D input becomes a single row)."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def _require_finite(arr: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite value in {context}")


def _activate(tag: str, a: np.ndarray) -> np.ndarray:
    if tag == "tanh":
        return np.tanh(a)
    if tag == "relu":
        return np.maximum(a, 0.0)
    if tag == "elu":
        return np.where(a > 0.0, a, np.expm1(np.minimum(a, 0.0)))
    if tag == "identity":
        return a
    raise ValueError(f"unknown activation {tag!r}")


def _activate_grad(tag: str, a: np.ndarray) -> np.ndarray:
    if tag == "tanh":
        t = np.tanh(a)
        return 1.0 - t * t
    if tag == "relu":
        return (a > 0.0).astype(np.float64)
    if tag == "elu":
        return np.where(a > 0.0, 1.0, np.exp(np.minimum(a, 0.0)))
    if tag == "identity":
        return np.ones_like(a)
    raise ValueError(f"unknown activation {tag!r}")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class Layer:
    weights: np.ndarray  # fan_in x fan_out
    bias: np.ndarray     # fan_out
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("layer weights must be 2-D")
        if self.bias.shape != (self.weights.shape[1],):
            raise ValueError("bias length must match weight fan_out")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


@dataclass
class Network:
    layers: list[Layer]
    head: str
    class_count: int

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if not self.layers:
            raise ValueError("network needs at least one layer")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise ValueError("consecutive layer shapes do not compose")
        if self.layers[-1].fan_out != self.class_count:
            raise ValueError("final layer fan_out must equal class_count")

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in


@dataclass
class GradientTape:
    """Per-parameter gradients mirroring a Network's shapes."""

    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)
    batch_size: int = 0

    def global_norm(self) -> float:
        total = 0.0
        for g in self.weights:
            total += float(np.sum(g * g))
        for g in self.biases:
            total += float(np.sum(g * g))
        return float(np.sqrt(total))


def _forward_cached(net: Network, x: np.ndarray):
    """Run the layer stack, returning pre-activations and activations."""
    x = as_matrix(x)
    _require_finite(x, "network input")
    if x.shape[1] != net.input_dim:
        raise ValueError(
            f"input has {x.shape[1]} columns, first layer expects {net.input_dim}"
        )
    pre, post = [], []
    z = x
    for idx, layer in enumerate(net.layers):
        a = z @ layer.weights + layer.bias
        if not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite pre-activation in layer {idx}")
        z = _activate(layer.activation, a)
        pre.append(a)
        post.append(z)
    return x, pre, post


def _apply_head(head: str, logits: np.ndarray) -> np.ndarray:
    if head == "softmax":
        return softmax(logits)
    if head == "relu_evidence":
        return np.maximum(logits, 0.0)
    if head == "elu_evidence":
        # negative branch computed on clipped input so expm1 never sees
        # large positives; clamp keeps evidence strictly above -1
        # (alpha strictly positive) even where expm1 rounds to -1
        neg = np.expm1(np.minimum(logits, 0.0))
        return np.maximum(np.where(logits > 0.0, logits, neg), -1.0 + 1e-15)
    return logits


def forward_with_cache(net: Network, x):
    """Forward pass that also returns the layer activations.

    Returns (head output, cache); `backward` accepts the cache for any
    network with the same layers, whatever its head.
    """
    cache = _forward_cached(net, x)
    out = _apply_head(net.head, cache[2][-1])
    _require_finite(out, "head output")
    return out, cache


def forward(net: Network, x) -> np.ndarray:
    """Forward pass through all layers and the output head."""
    return forward_with_cache(net, x)[0]


def backward(net: Network, x, upstream, cache=None) -> GradientTape:
    """Chain `upstream` (gradient at the head output) back to parameters.

    `cache` is the second result of `forward_with_cache(net, x)` on the
    same layers and parameters; without it the forward pass is rerun.
    """
    x, pre, post = _forward_cached(net, x) if cache is None else cache
    upstream = as_matrix(upstream)
    if upstream.shape != (x.shape[0], net.class_count):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match output "
            f"({x.shape[0]}, {net.class_count})"
        )

    logits = post[-1]
    if net.head == "softmax":
        p = softmax(logits)
        g = p * (upstream - np.sum(upstream * p, axis=1, keepdims=True))
    elif net.head == "relu_evidence":
        g = upstream * (logits > 0.0)
    elif net.head == "elu_evidence":
        g = upstream * np.where(logits > 0.0, 1.0,
                                np.exp(np.minimum(logits, 0.0)))
    else:
        g = upstream

    n_layers = len(net.layers)
    w_grads: list[np.ndarray] = [None] * n_layers
    b_grads: list[np.ndarray] = [None] * n_layers
    for idx in range(n_layers - 1, -1, -1):
        layer = net.layers[idx]
        g = g * _activate_grad(layer.activation, pre[idx])
        inp = x if idx == 0 else post[idx - 1]
        w_grads[idx] = inp.T @ g
        b_grads[idx] = g.sum(axis=0)
        if idx > 0:
            g = g @ layer.weights.T
    return GradientTape(weights=w_grads, biases=b_grads, batch_size=x.shape[0])


def init_network(
    sizes,
    activations=None,
    head: str = "softmax",
    seed: int = 0,
    init_mode: str = "standard",
    hostile_bias: float = 3.0,
    hostile_scale: float = 0.01,
) -> Network:
    """Build a network with Glorot-uniform weights and zero biases.

    `sizes` is the full layer-size chain, e.g. [d, 32, K]. The default
    activation is tanh on hidden layers and identity on the last layer.
    The hostile init mode shrinks the final layer's weights and offsets
    its bias to -hostile_bias, which starves a ReLU evidence head of
    gradient from the very first step.
    """
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if sizes[-1] < 2:
        raise ValueError("output size (class count) must be >= 2")
    if activations is None:
        activations = ["tanh"] * (len(sizes) - 2) + ["identity"]
    if len(activations) != len(sizes) - 1:
        raise ValueError("one activation tag per layer required")
    if init_mode not in ("standard", "hostile"):
        raise ValueError(f"unknown init_mode {init_mode!r}")

    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out, act in zip(sizes, sizes[1:], activations):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-a, a, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        layers.append(Layer(weights=w, bias=b, activation=act))
    if init_mode == "hostile":
        layers[-1].weights *= hostile_scale
        layers[-1].bias -= hostile_bias
    return Network(layers=layers, head=head, class_count=sizes[-1])


def swap_head(net: Network, new_head: str) -> Network:
    """Copy of `net` with a new output head; parameters are untouched."""
    if new_head not in HEADS:
        raise ValueError(f"unknown head {new_head!r}")
    return Network(
        layers=copy.deepcopy(net.layers),
        head=new_head,
        class_count=net.class_count,
    )
