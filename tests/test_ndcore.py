import math
import tracemalloc

import numpy as np
import pytest

from evidential import ndcore
from evidential.ndcore import (
    Layer,
    Network,
    NumericError,
    backward,
    forward,
    forward_with_cache,
    init_network,
    swap_head,
)


def identity_net(head="softmax", k=2):
    layer = Layer(weights=np.eye(k), bias=np.zeros(k), activation="identity")
    return Network(layers=[layer], head=head, class_count=k)


class TestForward:
    def test_softmax_symmetry(self):
        net = identity_net("softmax")
        out = forward(net, [[0.0, 0.0]])
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_relu_evidence(self):
        net = identity_net("relu_evidence")
        out = forward(net, [[-1.0, 2.0]])
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_elu_evidence(self):
        net = identity_net("elu_evidence")
        out = forward(net, [[-1.0, 2.0]])
        assert out[0, 0] == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-15)
        assert out[0, 1] == 2.0

    def test_elu_evidence_bounded_below(self):
        net = identity_net("elu_evidence")
        out = forward(net, [[-50.0, -700.0]])
        assert np.all(out > -1.0)

    def test_softmax_rows_sum_to_one(self):
        net = init_network([3, 5, 4], head="softmax", seed=2)
        out = forward(net, np.random.default_rng(0).standard_normal((20, 3)))
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12

    def test_softmax_shift_invariance(self):
        net = identity_net("softmax", k=3)
        x = np.random.default_rng(1).standard_normal((10, 3))
        a = forward(net, x)
        b = forward(net, x + 7.5)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_shape_mismatch(self):
        net = init_network([3, 2], head="softmax", seed=0)
        with pytest.raises(ValueError, match="columns"):
            forward(net, np.zeros((4, 5)))

    def test_nonfinite_input_rejected(self):
        net = init_network([2, 2], head="softmax", seed=0)
        with pytest.raises(NumericError):
            forward(net, [[np.nan, 0.0]])

    def test_nonfinite_intermediate_reports_layer(self):
        net = init_network([2, 3, 2], head="softmax", seed=0)
        net.layers[1].weights[0, 0] = np.inf
        with pytest.raises(NumericError, match="layer 1"):
            forward(net, [[1.0, 1.0]])

    @pytest.mark.parametrize("activation", ndcore.ACTIVATIONS)
    @pytest.mark.parametrize("head", ndcore.HEADS)
    def test_equals_forward_with_cache_output_bit_for_bit(self, head, activation):
        net = init_network([5, 7, 6, 3], hidden_activation=activation, head=head, seed=3)
        x = 3.0 * np.random.default_rng(4).standard_normal((50, 5))
        out = forward(net, x)
        assert np.array_equal(out.view(np.int64), forward_with_cache(net, x)[0].view(np.int64))

    def test_keeps_no_activations(self):
        net = init_network([32, 64, 64, 10], hidden_activation="tanh", seed=0)
        x = np.random.default_rng(0).standard_normal((10_000, 32))
        peaks = []
        for run in (forward, forward_with_cache):
            tracemalloc.start()
            try:
                run(net, x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # The cache holds both hidden layers' pre- and post-activations;
        # forward needs at least one 10k x 64 activation fewer at its peak.
        assert peaks[0] + 10_000 * 64 * 8 <= peaks[1]


class TestBackward:
    def test_linear_weight_gradient(self):
        net = identity_net("identity")
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        grad_w, grad_b = net.views(backward(net, np.ones((2, 2)), forward_with_cache(net, x)[1]))
        assert np.allclose(grad_w[0], x.T @ np.ones((2, 2)))
        assert np.allclose(grad_b[0], [2.0, 2.0])

    def test_zero_upstream_zero_tape(self):
        net = init_network([3, 4, 2], head="elu_evidence", seed=5)
        grad_w, grad_b = net.views(
            backward(net, np.zeros((6, 2)), forward_with_cache(net, np.ones((6, 3)))[1]))
        assert all(np.all(g == 0) for g in grad_w)
        assert all(np.all(g == 0) for g in grad_b)

    def test_input_unmodified(self):
        net = init_network([3, 2], head="softmax", seed=1)
        x = np.random.default_rng(3).standard_normal((4, 3))
        snapshot = x.copy()
        backward(net, np.ones((4, 2)), forward_with_cache(net, x)[1])
        assert np.array_equal(x, snapshot)

    def test_upstream_shape_mismatch(self):
        net = init_network([3, 2], head="softmax", seed=1)
        with pytest.raises(ValueError, match="upstream"):
            backward(net, np.zeros((4, 3)), forward_with_cache(net, np.zeros((4, 3)))[1])

    # a case with the default hidden activation, tanh, is named by its head alone
    @pytest.mark.parametrize("activation, head", [
        pytest.param(act, head, id=head if act == "tanh" else f"{head}-{act}")
        for head in ndcore.HEADS for act in ndcore.ACTIVATIONS])
    def test_finite_difference_all_heads(self, activation, head):
        rng = np.random.default_rng(7)
        net = init_network([3, 5, 2], hidden_activation=activation, head=head, seed=7)
        x = rng.standard_normal((4, 3))
        upstream = rng.standard_normal((4, 2))

        def scalar_loss():
            return float(np.sum(forward(net, x) * upstream))

        grad_w, grad_b = net.views(backward(net, upstream, forward_with_cache(net, x)[1]))
        h = 1e-5
        worst = 0.0
        for li, layer in enumerate(net.layers):
            for arr, grad in ((layer.weights, grad_w[li]),
                              (layer.bias, grad_b[li])):
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = scalar_loss()
                    arr[idx] = orig - h
                    down = scalar_loss()
                    arr[idx] = orig
                    fd = (up - down) / (2 * h)
                    if abs(fd) > 1e-7:
                        worst = max(worst, abs(fd - grad[idx]) / abs(fd))
                    it.iternext()
        assert worst < 1e-4


def reference_derivative(activation, pre):
    """An activation's derivative at the pre-activation `pre`, written out
    here rather than read from ndcore's table."""
    if activation == "tanh":
        t = np.tanh(pre)
        return 1.0 - t * t
    if activation == "relu":
        return pre > 0.0
    if activation == "elu":
        return np.where(pre > 0.0, 1.0, np.exp(np.minimum(pre, 0.0)))
    assert activation == "identity"
    return 1.0


def reference_gradients(net, x, upstream):
    """Per-layer `inp.T @ g` and `g.sum(axis=0)` as separate arrays, for an
    identity head: every weight gradient, then every bias gradient."""
    _, (x, pre, post) = ndcore.forward_with_cache(net, x)
    g, w_grads, b_grads = upstream, [], []
    for idx in reversed(range(len(net.layers))):
        g = g * reference_derivative(net.layers[idx].activation, pre[idx])
        inp = x if idx == 0 else post[idx - 1]
        w_grads.insert(0, inp.T @ g)
        b_grads.insert(0, g.sum(axis=0))
        if idx > 0:
            g = g @ net.layers[idx].weights.T
    return w_grads + b_grads


@pytest.mark.parametrize("sizes,activation,rows", [
    ([10, 8, 2], "relu", 128),
    ([5, 7, 4, 3], "tanh", 37),
    ([32, 64, 64, 10], "elu", 256),
])
def test_backward_writes_per_layer_products_bit_for_bit(sizes, activation, rows):
    rng = np.random.default_rng(0)
    net = init_network(sizes, activation, head="identity", seed=3)
    x = rng.standard_normal((rows, sizes[0]))
    upstream = rng.standard_normal((rows, sizes[-1]))
    grad = backward(net, upstream, forward_with_cache(net, x)[1])
    assert grad.shape == net.theta.shape
    expected = np.concatenate([a.ravel() for a in reference_gradients(net, x, upstream)])
    assert np.array_equal(grad.view(np.int64), expected.view(np.int64))


def test_global_norm_sums_array_by_array():
    net = init_network([5, 7, 4, 3], seed=1)
    rng = np.random.default_rng(4)
    arrays = ([rng.standard_normal(layer.weights.shape) * 1e3 for layer in net.layers]
              + [rng.standard_normal(layer.bias.shape) * 1e-3 for layer in net.layers])
    grad = np.concatenate([a.ravel() for a in arrays])
    expected = float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays)))
    assert ndcore.global_norm(net, grad) == expected


class TestInit:
    def test_deterministic(self):
        a = init_network([2, 4, 2], head="softmax", seed=11)
        b = init_network([2, 4, 2], head="softmax", seed=11)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)

    def test_glorot_bounds(self):
        net = init_network([2, 4, 2], head="softmax", seed=1)
        for layer in net.layers:
            bound = np.sqrt(6.0 / (layer.fan_in + layer.fan_out))
            assert np.all(np.abs(layer.weights) < bound)
            assert np.all(layer.bias == 0.0)

    def test_different_seeds_differ(self):
        a = init_network([2, 4, 2], head="softmax", seed=1)
        b = init_network([2, 4, 2], head="softmax", seed=2)
        assert any(
            not np.array_equal(la.weights, lb.weights)
            for la, lb in zip(a.layers, b.layers)
        )

    def test_hostile_init_final_bias(self):
        net = init_network([2, 4, 2], head="relu_evidence", seed=1,
                           init_mode="hostile")
        assert np.all(net.layers[-1].bias == -3.0)
        assert np.all(net.layers[0].bias == 0.0)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            init_network([2], head="softmax", seed=0)
        with pytest.raises(ValueError):
            init_network([2, 1], head="softmax", seed=0)


class TestSwapHead:
    def test_involution_preserves_outputs(self):
        net = init_network([2, 3, 2], head="softmax", seed=4)
        x = np.random.default_rng(0).standard_normal((5, 2))
        original = forward(net, x)
        back = swap_head(swap_head(net, "elu_evidence"), "softmax")
        assert np.array_equal(forward(back, x), original)

    def test_zero_logits_give_zero_elu_evidence(self):
        net = identity_net("softmax")
        swapped = swap_head(net, "elu_evidence")
        out = forward(swapped, [[0.0, 0.0]])
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_logits_map_through_elu(self):
        net = identity_net("softmax")
        swapped = swap_head(net, "elu_evidence")
        out = forward(swapped, [[2.0, -1.0]])
        assert out[0, 0] == 2.0
        assert out[0, 1] == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-15)

    def test_original_untouched_by_training_copy(self):
        net = init_network([2, 2], head="softmax", seed=0)
        swapped = swap_head(net, "relu_evidence")
        swapped.layers[0].weights += 1.0
        assert not np.array_equal(swapped.layers[0].weights, net.layers[0].weights)


def _layer(fan_in, fan_out):
    return Layer(np.zeros((fan_in, fan_out)), np.zeros(fan_out))


@pytest.mark.parametrize("build, message", [
    (lambda: ndcore.as_matrix(np.zeros((2, 2, 2))), "expected a 2-D matrix, got ndim=3"),
    (lambda: Layer(np.zeros(3), np.zeros(3)), "layer weights must be 2-D"),
    (lambda: Network([_layer(2, 2)], "x", 2), "unknown head 'x'"),
    (lambda: Network([], "softmax", 2), "network needs at least one layer"),
    # init_network's own check on the output size fires before Network's
    (lambda: Network([_layer(2, 1)], "softmax", 1), "class_count must be >= 2"),
    (lambda: Network([_layer(2, 3), _layer(2, 2)], "softmax", 2),
     "consecutive layer shapes do not compose"),
    (lambda: Network([_layer(2, 3)], "softmax", 2), "final layer fan_out must equal class_count"),
    (lambda: init_network([2, 2], init_mode="x"), "unknown init_mode 'x'"),
], ids=["matrix_ndim", "layer_ndim", "head", "no_layers", "class_count", "compose", "fan_out",
        "init_mode"])
def test_each_construction_error_has_its_message(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_forward_reads_a_1d_input_as_one_row():
    net = init_network([2, 3, 2], seed=0)
    out = forward(net, [1.0, 2.0])
    assert out.shape == (1, 2)
    assert np.array_equal(out, forward(net, [[1.0, 2.0]]))
