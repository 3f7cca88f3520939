"""Dense networks with hand-rolled reverse-mode gradients.

Everything is float64. A network is a stack of fully connected layers
plus an output head that fixes the semantics of the final activations:
probabilities (softmax), nonnegative evidence (relu_evidence), or
evidence bounded below by -1 (elu_evidence). An identity head is also
supported for losses that differentiate directly at the logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

ACTIVATIONS = ("tanh", "relu", "elu", "identity")
HEADS = ("softmax", "relu_evidence", "elu_evidence", "identity")
# An evidence head is the hidden activation of the same name on the logits.
EVIDENCE_ACTIVATION = {"relu_evidence": "relu", "elu_evidence": "elu"}
_HOSTILE_SCALE = 0.01  # final-layer weight factor of the hostile init


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


@dataclass(eq=False)
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


@dataclass(eq=False)
class Network:
    """Layers and a head; the layers given are copied into views of one vector, `theta`."""

    layers: list[Layer]
    head: str
    class_count: int
    theta: np.ndarray = field(init=False, repr=False)

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
        # theta holds every weight, then every bias; (start, end, shape) per array
        arrays = [layer.weights for layer in self.layers] + [layer.bias for layer in self.layers]
        ends = list(accumulate((a.size for a in arrays), initial=0))
        self._layout = [(i, j, a.shape) for a, i, j in zip(arrays, ends, ends[1:])]
        self.theta = np.concatenate([a.ravel() for a in arrays])
        weights, biases = self.views(self.theta)
        self.layers = [Layer(w, b, layer.activation)
                       for layer, w, b in zip(self.layers, weights, biases)]

    def views(self, vec: np.ndarray):
        """(weight views, bias views) of a vector in `theta`'s layout."""
        arrays = [vec[i:j].reshape(shape) for i, j, shape in self._layout]
        return arrays[:len(self.layers)], arrays[len(self.layers):]

    def __deepcopy__(self, memo):
        return Network(self.layers, self.head, self.class_count)

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in


def global_norm(net: Network, grad: np.ndarray) -> float:
    """Norm of a gradient in `theta`'s layout, summed per array: weights, then biases."""
    weights, biases = net.views(grad)
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in weights + biases)))


def _forward_cached(net: Network, x: np.ndarray):
    """Run the layer stack, returning pre-activations and activations."""
    x = as_matrix(x)
    _require_finite(x, "network input")
    if x.shape[1] != net.input_dim:
        raise ValueError(
            f"input has {x.shape[1]} columns, first layer expects {net.input_dim}"
        )
    pre, post, z = [], [], x
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
    if head in EVIDENCE_ACTIVATION:
        # the clamp keeps ELU evidence strictly above -1 (alpha strictly
        # positive) even where expm1 rounds to -1; ReLU evidence is >= 0
        return np.maximum(_activate(EVIDENCE_ACTIVATION[head], logits), -1.0 + 1e-15)
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


def backward(net: Network, x, upstream, cache=None) -> np.ndarray:
    """Chain `upstream` (gradient at the head output) back to parameters;
    returns the gradient as one vector in `theta`'s layout.

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
    elif net.head in EVIDENCE_ACTIVATION:
        g = upstream * _activate_grad(EVIDENCE_ACTIVATION[net.head], logits)
    else:
        g = upstream

    grad = np.empty_like(net.theta)
    w_grads, b_grads = net.views(grad)
    for idx in reversed(range(len(net.layers))):
        layer = net.layers[idx]
        g = g * _activate_grad(layer.activation, pre[idx])
        inp = x if idx == 0 else post[idx - 1]
        np.matmul(inp.T, g, out=w_grads[idx])
        np.sum(g, axis=0, out=b_grads[idx])
        if idx > 0:
            g = g @ layer.weights.T
    return grad


def init_network(
    sizes,
    hidden_activation: str = "tanh",
    head: str = "softmax",
    seed: int = 0,
    init_mode: str = "standard",
    hostile_bias: float = 3.0,
) -> Network:
    """Build a network with Glorot-uniform weights and zero biases.

    `sizes` is the full layer-size chain, e.g. [d, 32, K]. Hidden layers
    share `hidden_activation`; the last layer is identity.
    The hostile init mode scales the final layer's weights by
    _HOSTILE_SCALE and offsets its bias to -hostile_bias, which starves
    a ReLU evidence head of gradient from the very first step.
    """
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if sizes[-1] < 2:
        raise ValueError("output size (class count) must be >= 2")
    if init_mode not in ("standard", "hostile"):
        raise ValueError(f"unknown init_mode {init_mode!r}")

    rng = np.random.default_rng(seed)
    layers = []
    activations = [hidden_activation] * (len(sizes) - 2) + ["identity"]
    for fan_in, fan_out, act in zip(sizes, sizes[1:], activations):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-a, a, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        layers.append(Layer(weights=w, bias=b, activation=act))
    if init_mode == "hostile":
        layers[-1].weights *= _HOSTILE_SCALE
        layers[-1].bias -= hostile_bias
    return Network(layers=layers, head=head, class_count=sizes[-1])


def swap_head(net: Network, new_head: str) -> Network:
    """Copy of `net` with a new output head; parameters are untouched."""
    return Network(net.layers, new_head, net.class_count)
