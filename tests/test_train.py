"""Optimizers and the two-stage training orchestration."""

import copy
import dataclasses

import numpy as np
import pytest

from evidential import cli, losses, metrics, ndcore
from evidential.data import SplitSpec, gen_blobs, split
from evidential.losses import lambda_schedule
from evidential.train import (
    BETA1,
    BETA2,
    EPS,
    EpochRecord,
    OptimizerState,
    TrainPlan,
    TrainingError,
    build_network,
    run_plan,
    step,
    train_stage1,
    train_stage2,
)


def scalar_net(weight=0.0, activation="identity", head="identity"):
    layer = ndcore.Layer(
        weights=np.array([[weight, weight]]), bias=np.zeros(2),
        activation=activation,
    )
    return ndcore.Network(layers=[layer], head=head, class_count=2)


def tape_for(net, gw, gb):
    grad = np.empty_like(net.theta)
    weights, biases = net.views(grad)
    for w, b in zip(weights, biases):
        w[...], b[...] = gw, gb
    return grad


def reference_step(params, grads, kind, learning_rate, step_count, m, v):
    """One SGD/Adam update applied array by array, in place: the form
    `step` took before the parameters became one vector."""
    c1 = 1.0 - BETA1 ** step_count
    c2 = 1.0 - BETA2 ** step_count
    for i, (theta, g) in enumerate(zip(params, grads)):
        if kind == "sgd":
            theta -= learning_rate * g
        else:
            mi, vi = m[i], v[i]
            mi *= BETA1
            mi += (1.0 - BETA1) * g
            vi *= BETA2
            vi += (1.0 - BETA2) * g * g
            theta -= learning_rate * (mi / c1) / (np.sqrt(vi / c2) + EPS)


def bits(arrays):
    return np.concatenate([a.ravel() for a in arrays]).view(np.int64)


def easy_pair(seed=0, n=800, sep=6.0):
    ds = gen_blobs(n, 2, 2, sep, seed=seed)
    return split(ds, SplitSpec(seed=seed))


class TestStep:
    def test_sgd_definition(self):
        net = scalar_net(0.0)
        state = OptimizerState.for_network(net, "sgd", 0.1)
        step(net, state, tape_for(net, 1.0, 0.0))
        assert net.layers[0].weights[0, 0] == pytest.approx(-0.1)

    def test_adam_first_step_magnitude(self):
        # first-step magnitude is lr * g / (|g| + eps): equal to lr up to
        # the eps-relative correction, so looser for tiny gradients
        for g in (1.0, -3.0, 1e-6, 250.0):
            net = scalar_net(0.0)
            state = OptimizerState.for_network(net, "adam", 1e-3)
            step(net, state, tape_for(net, g, 0.0))
            w = net.layers[0].weights[0, 0]
            assert np.sign(w) == -np.sign(g)
            assert abs(w) == pytest.approx(1e-3, rel=2e-2)

    def test_zero_gradient_sgd_exact_fixed_point(self):
        net = scalar_net(0.7)
        state = OptimizerState.for_network(net, "sgd", 0.5)
        step(net, state, tape_for(net, 0.0, 0.0))
        assert net.layers[0].weights[0, 0] == 0.7

    def test_zero_gradient_adam_eps_drift(self):
        net = scalar_net(0.7)
        state = OptimizerState.for_network(net, "adam", 1e-3)
        step(net, state, tape_for(net, 0.0, 0.0))
        assert abs(net.layers[0].weights[0, 0] - 0.7) < 1e-9

    def test_step_counter_monotone(self):
        net = scalar_net(0.0)
        state = OptimizerState.for_network(net, "sgd", 0.1)
        for expected in (1, 2, 3):
            step(net, state, tape_for(net, 1.0, 1.0))
            assert state.step_count == expected

    def test_tape_mismatch(self):
        net = scalar_net(0.0)
        state = OptimizerState.for_network(net, "sgd", 0.1)
        with pytest.raises(ValueError, match="mirror"):
            step(net, state, np.zeros(0))

    @pytest.mark.parametrize("shape", [
        (1,),    # broadcasts against its parameters
        (7,),    # one value short of theta's 8
        (8, 1),  # theta's size as a column
    ], ids=["broadcastable", "too_short", "column"])
    def test_mis_shaped_tape_rejected(self, shape):
        net = ndcore.init_network([3, 2], seed=0)
        before = net.theta.copy()
        state = OptimizerState.for_network(net, "sgd", 0.1)
        tape = np.ones(shape)
        with pytest.raises(ValueError, match="tape does not mirror the network"):
            step(net, state, tape)
        assert state.step_count == 0
        assert np.array_equal(net.theta, before)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_matches_per_array_reference_bit_for_bit(self, kind):
        net = ndcore.init_network([5, 7, 4, 3], seed=1)
        params = ([layer.weights.copy() for layer in net.layers]
                  + [layer.bias.copy() for layer in net.layers])
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        state = OptimizerState.for_network(net, kind, 0.01)
        rng = np.random.default_rng(2)
        for t in range(50):
            scale = (1.0, 1e-200, 1e100)[t % 3]  # random, tiny, huge
            grads = [rng.standard_normal(p.shape) * scale for p in params]
            step(net, state, np.concatenate([g.ravel() for g in grads]))
            reference_step(params, grads, kind, 0.01, t + 1, m, v)
            assert np.array_equal(net.theta.view(np.int64), bits(params))
            if kind == "adam":
                assert np.array_equal(state.m.view(np.int64), bits(m))
                assert np.array_equal(state.v.view(np.int64), bits(v))

    def test_non_finite_update_raises(self):
        net = scalar_net(0.0)
        state = OptimizerState.for_network(net, "sgd", 0.1)
        with pytest.raises(TrainingError, match="non-finite"):
            step(net, state, tape_for(net, np.inf, 0.0))

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError, match="optimizer"):
            OptimizerState.for_network(scalar_net(), "rmsprop", 0.1)


def _load_saved(net, tmp_path):
    cli.save_model(net, tmp_path / "model.json")
    return cli.load_model(tmp_path / "model.json")


NETWORK_MAKERS = {
    "init_network": lambda src, tmp_path: src,
    "Network": lambda src, tmp_path: ndcore.Network(src.layers, src.head, src.class_count),
    "load_model": _load_saved,
    "swap_head": lambda src, tmp_path: ndcore.swap_head(src, "elu_evidence"),
    "deepcopy": lambda src, tmp_path: copy.deepcopy(src),
}


@pytest.mark.parametrize("make", NETWORK_MAKERS.values(), ids=NETWORK_MAKERS.keys())
def test_layers_are_views_into_theta(make, tmp_path):
    src = ndcore.init_network([4, 5, 3], seed=0)
    src_theta = src.theta.copy()
    net = make(src, tmp_path)
    before = [(layer.weights.copy(), layer.bias.copy()) for layer in net.layers]
    step(net, OptimizerState.for_network(net, "sgd", 0.1), tape_for(net, 1.0, 1.0))
    for layer, (w, b) in zip(net.layers, before):
        assert np.all(layer.weights != w) and np.all(layer.bias != b)
        assert np.shares_memory(net.theta, layer.weights)
        assert np.shares_memory(net.theta, layer.bias)
    if net is not src:
        assert np.array_equal(src.theta, src_theta)


ARRAY_HOLDERS = {
    "Layer": lambda: ndcore.Layer(np.eye(2), np.zeros(2)),
    "Network": lambda: ndcore.init_network([3, 4, 2]),
    "OptimizerState": lambda: OptimizerState.for_network(ndcore.init_network([3, 4, 2]),
                                                         "adam", 1e-3),
    "EvidentialOutput": lambda: losses.evidence_to_alpha([[1.0, 2.0], [0.5, 0.0]],
                                                         "elu_evidence"),
    "Histogram": lambda: metrics.uncertainty_histogram(
        losses.evidence_to_alpha([[1.0, 2.0], [0.5, 0.0]], "elu_evidence"), 4),
    "Dataset": lambda: gen_blobs(20, 2, 2, 4.0, seed=0),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_to_a_bool(make):
    x = make()
    assert isinstance(x == copy.deepcopy(x), bool)
    assert x == x


def test_stage1_identity_view_shares_theta(monkeypatch):
    seen = []
    backward = ndcore.backward

    def recording(back_net, *args):
        seen.append(back_net)
        return backward(back_net, *args)

    monkeypatch.setattr(ndcore, "backward", recording)
    net = build_network(TrainPlan(seed=0), 2, 2)
    train_stage1(net, easy_pair(), TrainPlan(stage1_epochs=1, seed=0))
    assert seen and all(view.head == "identity" for view in seen)
    assert all(view.theta is net.theta and view.layers is net.layers for view in seen)
    assert net.head == "softmax"


class TestTrainPlanValidation:
    def test_default_plan_valid(self):
        assert TrainPlan().validate() == []

    def test_collects_all_errors(self):
        plan = TrainPlan(mode="nope", batch_size=0, lam=-1.0, optimizer="x")
        errors = plan.validate()
        assert len(errors) >= 4

    def test_tedl_needs_both_stages(self):
        assert TrainPlan(mode="tedl", stage1_epochs=0).validate()
        assert TrainPlan(mode="tedl", stage2_epochs=0).validate()

    def test_run_plan_rejects_invalid(self):
        with pytest.raises(ValueError, match="mode"):
            run_plan(TrainPlan(mode="bogus"), easy_pair())


class TestStage1:
    def test_easy_task_one_epoch(self):
        pair = easy_pair()
        net = build_network(TrainPlan(seed=0), 2, 2)
        _, records, _ = train_stage1(net, pair, TrainPlan(stage1_epochs=1, seed=0))
        assert records[-1].val_auc > 0.95

    def test_zero_epochs_is_noop(self):
        pair = easy_pair()
        net = build_network(TrainPlan(seed=1), 2, 2)
        before = copy.deepcopy(net)
        _, records, reports = train_stage1(
            net, pair, TrainPlan(mode="ce_only", stage1_epochs=0, seed=1)
        )
        assert records == [] and reports == []
        for a, b in zip(net.layers, before.layers):
            assert np.array_equal(a.weights, b.weights)

    def test_requires_softmax_head(self):
        net = scalar_net(head="identity")
        with pytest.raises(ValueError, match="softmax"):
            train_stage1(net, easy_pair(), TrainPlan())

    def test_determinism_bit_exact(self):
        pair = easy_pair(seed=3)
        runs = []
        for _ in range(2):
            net = build_network(TrainPlan(seed=3), 2, 2)
            _, records, _ = train_stage1(
                net, pair, TrainPlan(stage1_epochs=3, seed=3)
            )
            runs.append(records)
        for a, b in zip(*runs):
            assert dataclasses.astuple(a) == dataclasses.astuple(b)

    def test_stage1_records_have_no_kl(self):
        pair = easy_pair()
        result = run_plan(TrainPlan(mode="ce_only", stage1_epochs=2), pair)
        assert all(r.loss_kl == 0.0 and r.lambda_t == 0.0 for r in result.records)
        assert all(r.stage == "stage1" for r in result.records)


@pytest.mark.parametrize("train", [train_stage1, train_stage2])
def test_one_forward_pass_per_training_batch(train, monkeypatch):
    pair = easy_pair()
    plan = TrainPlan(stage1_epochs=1, stage2_epochs=1, batch_size=128, seed=0)
    net = build_network(plan, 2, 2)
    rows = []
    layer_pass = ndcore._forward_cached

    def counting(net, x):
        rows.append(len(x))
        return layer_pass(net, x)

    monkeypatch.setattr(ndcore, "_forward_cached", counting)
    train(net, pair, plan)
    batches = -(-pair[0].n // plan.batch_size)
    # One pass per training batch, then one over the validation set.
    assert len(rows) == batches + 1
    assert rows[-1] == pair[1].n


class TestStage2:
    def test_zero_epochs_only_swaps_head(self):
        pair = easy_pair()
        net = build_network(TrainPlan(seed=2), 2, 2)
        before = copy.deepcopy(net)
        plan = TrainPlan(mode="edl_only", stage2_epochs=0, seed=2)
        net2, records, _ = train_stage2(net, pair, plan)
        assert records == []
        assert net2.head == "elu_evidence"
        for a, b in zip(net2.layers, before.layers):
            assert np.array_equal(a.weights, b.weights)

    def test_lambda_zero_loss_descends(self):
        pair = easy_pair(seed=4)
        plan = TrainPlan(mode="edl_only", stage2_epochs=3, lam=0.0, seed=4)
        result = run_plan(plan, pair)
        totals = [r.loss_total for r in result.records]
        assert totals[0] > totals[1] > totals[2]

    def test_lambda_schedule_recorded(self):
        pair = easy_pair(seed=5)
        plan = TrainPlan(mode="edl_only", stage2_epochs=4, lam=0.4, seed=5)
        result = run_plan(plan, pair)
        for t, rec in enumerate(result.records):
            assert rec.lambda_t == lambda_schedule(t, 0.4)
        assert [r.lambda_t for r in result.records] == [0.0, 0.4, 0.8, 1.0]

    def test_tedl_lambda_clock_restarts_in_stage2(self):
        pair = easy_pair(seed=6)
        plan = TrainPlan(mode="tedl", stage1_epochs=2, stage2_epochs=2,
                         lam=0.3, seed=6)
        result = run_plan(plan, pair)
        stage2 = [r for r in result.records if r.stage == "stage2"]
        assert [r.lambda_t for r in stage2] == [0.0, 0.3]

    def test_hostile_relu_dies_and_stays_dead(self):
        pair = easy_pair(seed=0, n=600)
        plan = TrainPlan(mode="edl_only", stage2_epochs=5, lam=0.75,
                         evidence_head_stage2="relu_evidence",
                         init_mode="hostile", seed=0)
        result = run_plan(plan, pair)
        dead = [r.dead_evidence_frac for r in result.records]
        assert dead[0] == 1.0
        # zero-gradient regime: once fully dead it cannot recover
        assert all(d == 1.0 for d in dead)
        assert 0.45 <= result.records[-1].val_auc <= 0.55

    def test_hostile_elu_trains_through(self):
        # same hostile start that freezes the ReLU head: the ELU head
        # keeps gradients alive, so ranking recovers and evidence is not
        # uniformly dead (full recovery needs more steps; see the
        # acceptance suite for the full-scale version)
        pair = easy_pair(seed=0, n=600)
        plan = TrainPlan(mode="tedl", stage1_epochs=5, stage2_epochs=5,
                         lam=0.75, evidence_head_stage2="elu_evidence",
                         init_mode="hostile", seed=0,
                         optimizer="adam", lr_stage1=0.05, lr_stage2=0.05)
        result = run_plan(plan, pair)
        assert result.records[-1].dead_evidence_frac < 1.0
        assert result.records[-1].val_auc > 0.9


class TestWarmStart:
    def test_k2_coordinatewise_sign_agreement(self):
        # With lr = 0 in stage 2, the evidence head is a monotone
        # per-logit transform, so for K = 2 the sign of p_hat_1 - p_hat_2
        # must match the sign of softmax_1 - softmax_2 on every sample.
        pair = easy_pair(seed=7)
        net = build_network(TrainPlan(seed=7), 2, 2)
        net, _, _ = train_stage1(net, pair, TrainPlan(stage1_epochs=3, seed=7))
        val = pair[1]
        softmax_out = ndcore.forward(net, val.features)

        from evidential.losses import evidence_to_alpha

        swapped = ndcore.swap_head(net, "elu_evidence")
        out = evidence_to_alpha(ndcore.forward(swapped, val.features),
                                "elu_evidence")
        assert np.array_equal(
            np.sign(out.p_hat[:, 0] - out.p_hat[:, 1]),
            np.sign(softmax_out[:, 0] - softmax_out[:, 1]),
        )


class TestOodUncertainty:
    def test_ring_more_uncertain_than_validation(self):
        from evidential.data import gen_ood_ring
        from evidential.losses import evidence_to_alpha

        # relu hidden layers: far-off inputs drive both evidence logits
        # negative, so Dirichlet strength collapses and uncertainty blows
        # up off-distribution (tanh nets saturate and mask the effect)
        pair = easy_pair(seed=12, n=800)
        plan = TrainPlan(mode="tedl", stage1_epochs=5, stage2_epochs=5,
                         lam=0.1, seed=12,
                         hidden_sizes=(8,), hidden_activation="relu")
        result = run_plan(plan, pair)
        ring = gen_ood_ring(200, 2, radius=100.0, seed=12)

        def mean_u(features):
            out = evidence_to_alpha(
                ndcore.forward(result.network, features), "elu_evidence"
            )
            return float(out.uncertainty.mean())

        assert mean_u(ring.features) > mean_u(pair[1].features)


class TestRunPlan:
    def test_tedl_equals_manual_composition(self):
        pair = easy_pair(seed=8)
        plan = TrainPlan(mode="tedl", stage1_epochs=2, stage2_epochs=2, seed=8)
        auto = run_plan(plan, pair)
        net = build_network(plan, 2, 2)
        net, _, _ = train_stage1(net, pair, plan)
        net, _, _ = train_stage2(net, pair, plan,
                                 epoch_offset=plan.stage1_epochs, method="tedl")
        for a, b in zip(auto.network.layers, net.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_epoch_numbering_is_continuous(self):
        pair = easy_pair(seed=9)
        plan = TrainPlan(mode="tedl", stage1_epochs=2, stage2_epochs=3, seed=9)
        result = run_plan(plan, pair)
        assert [r.epoch for r in result.records] == [0, 1, 2, 3, 4]
        assert [rep.epoch for rep in result.reports] == [0, 1, 2, 3, 4]

    def test_edl_below_ce_on_blobs(self):
        # the desk-scale ordering this library exists to demonstrate:
        # single-stage evidential training under-performs cross-entropy
        # on the same data/seed while the two-stage variant matches it
        def pair_for(seed):
            noisy = gen_blobs(4000, 10, 2, 2.2, label_noise=0.1, seed=seed)
            clean = gen_blobs(4000, 10, 2, 2.2, seed=seed)
            return (split(noisy, SplitSpec(seed=seed))[0],
                    split(clean, SplitSpec(seed=seed))[1])

        pair = pair_for(1)
        kw = dict(stage1_epochs=10, stage2_epochs=10, lam=0.1, seed=1,
                  hidden_sizes=(8,), hidden_activation="relu",
                  optimizer="sgd", lr_stage1=0.2, lr_stage2=0.2)
        ce = run_plan(TrainPlan(mode="ce_only", **kw), pair)
        edl = run_plan(TrainPlan(mode="edl_only",
                                 evidence_head_stage2="relu_evidence", **kw), pair)
        assert edl.records[-1].val_auc < ce.records[-1].val_auc

    def test_run_determinism_bit_exact(self):
        pair = easy_pair(seed=10)
        plan = TrainPlan(mode="tedl", stage1_epochs=2, stage2_epochs=2, seed=10)
        a = run_plan(plan, pair)
        b = run_plan(plan, pair)
        for ra, rb in zip(a.records, b.records):
            assert dataclasses.astuple(ra) == dataclasses.astuple(rb)
        for la, lb in zip(a.network.layers, b.network.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_records_all_finite(self):
        pair = easy_pair(seed=11)
        result = run_plan(TrainPlan(mode="tedl", stage1_epochs=2,
                                    stage2_epochs=2, seed=11), pair)
        for rec in result.records:
            values = dataclasses.astuple(rec)
            for v in values:
                if isinstance(v, float):
                    assert np.isfinite(v)
            assert 0.0 <= rec.dead_evidence_frac <= 1.0
