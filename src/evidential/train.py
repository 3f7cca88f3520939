"""Optimizers and the two-stage training orchestration.

Stage 1 fits a softmax head with cross-entropy; stage 2 swaps in an
evidence head and trains the annealed evidential loss, warm-started
from the stage-1 weights. Single-stage cross-entropy and single-stage
evidential runs are available as baselines. Every run is deterministic
given (plan, data): per-epoch shuffles are seeded by (seed, stage,
epoch) and all state lives in float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import losses, metrics, ndcore


class TrainingError(RuntimeError):
    """Non-finite loss or update; carries epoch/batch context."""


@dataclass
class OptimizerState:
    kind: str = "adam"  # adam | sgd
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m_weights: list = field(default_factory=list)
    v_weights: list = field(default_factory=list)
    m_biases: list = field(default_factory=list)
    v_biases: list = field(default_factory=list)

    @classmethod
    def for_network(cls, net: ndcore.Network, kind: str, learning_rate: float):
        if kind not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {kind!r}")
        state = cls(kind=kind, learning_rate=learning_rate)
        if kind == "adam":
            for layer in net.layers:
                state.m_weights.append(np.zeros_like(layer.weights))
                state.v_weights.append(np.zeros_like(layer.weights))
                state.m_biases.append(np.zeros_like(layer.bias))
                state.v_biases.append(np.zeros_like(layer.bias))
        return state


@dataclass
class TrainPlan:
    mode: str = "tedl"  # ce_only | edl_only | tedl
    stage1_epochs: int = 10
    stage2_epochs: int = 10
    lam: float = 0.1  # per-epoch increment of the KL coefficient
    batch_size: int = 128
    optimizer: str = "adam"
    lr_stage1: float = 1e-3
    lr_stage2: float = 1e-3
    seed: int = 0
    evidence_head_stage2: str = "elu_evidence"
    init_mode: str = "standard"
    hostile_bias: float = 3.0
    hidden_sizes: tuple = (32,)
    hidden_activation: str = "tanh"

    def validate(self) -> list[str]:
        errors = []
        if self.mode not in ("ce_only", "edl_only", "tedl"):
            errors.append(f"mode must be ce_only, edl_only or tedl, got {self.mode!r}")
        if self.mode == "tedl" and (self.stage1_epochs < 1 or self.stage2_epochs < 1):
            errors.append("tedl needs stage1_epochs >= 1 and stage2_epochs >= 1")
        if self.stage1_epochs < 0 or self.stage2_epochs < 0:
            errors.append("epoch counts must be >= 0")
        if self.lam < 0:
            errors.append("lambda must be >= 0")
        if self.batch_size < 1:
            errors.append("batch_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            errors.append(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if self.lr_stage1 < 0 or self.lr_stage2 < 0:
            errors.append("learning rates must be >= 0")
        if self.evidence_head_stage2 not in ("relu_evidence", "elu_evidence"):
            errors.append("evidence_head_stage2 must be relu_evidence or elu_evidence")
        if self.init_mode not in ("standard", "hostile"):
            errors.append(f"init_mode must be standard or hostile, got {self.init_mode!r}")
        if self.hidden_activation not in ndcore.ACTIVATIONS:
            errors.append(f"unknown hidden activation {self.hidden_activation!r}")
        if any(int(h) < 1 for h in self.hidden_sizes):
            errors.append("hidden sizes must be >= 1")
        return errors


@dataclass
class EpochRecord:
    epoch: int
    stage: str  # "stage1" | "stage2"
    loss_total: float
    loss_base: float
    loss_kl: float
    lambda_t: float
    grad_norm_mean: float
    grad_norm_max: float
    val_auc: float | None
    dead_evidence_frac: float


@dataclass
class RunResult:
    network: ndcore.Network
    records: list[EpochRecord]
    reports: list[metrics.EvalReport]
    plan: TrainPlan


def step(net: ndcore.Network, state: OptimizerState, tape: ndcore.GradientTape):
    """Apply one optimizer step in place; returns (net, state)."""
    if len(tape.weights) != len(net.layers):
        raise ValueError("tape does not mirror the network")
    state.step_count += 1
    if state.kind == "sgd":
        for layer, gw, gb in zip(net.layers, tape.weights, tape.biases):
            layer.weights -= state.learning_rate * gw
            layer.bias -= state.learning_rate * gb
    else:
        t = state.step_count
        c1 = 1.0 - state.beta1 ** t
        c2 = 1.0 - state.beta2 ** t
        params = []
        for i, layer in enumerate(net.layers):
            params.append((layer.weights, tape.weights[i], state.m_weights[i], state.v_weights[i]))
            params.append((layer.bias, tape.biases[i], state.m_biases[i], state.v_biases[i]))
        for theta, g, m, v in params:
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * g * g
            theta -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps)
    for layer in net.layers:
        if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
            raise TrainingError("non-finite parameter after optimizer step")
    return net, state


def _epoch_batches(n: int, batch_size: int, seed: int, stage: int, epoch: int):
    rng = np.random.default_rng([seed, stage, epoch])
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _run_stage(net, back_net, data, plan: TrainPlan, loss_fn, *, stage: int,
               learning_rate: float, epochs: int, lam: float, epoch_offset: int,
               method: str):
    """The batch loop both stages share.

    `loss_fn(output, labels, lambda_t)` maps a batch of head outputs of
    `net` to (LossValue, gradient at the output of `back_net`), which
    shares `net`'s layers, so one forward pass per batch serves both.
    Each epoch ends with an evaluation on the validation set.
    """
    train_ds, val_ds = data
    val_labels = val_ds.class_indices()
    records: list[EpochRecord] = []
    reports: list[metrics.EvalReport] = []
    opt = OptimizerState.for_network(net, plan.optimizer, learning_rate)
    for t in range(epochs):
        lambda_t = losses.lambda_schedule(t, lam)
        parts, batch_norms = [], []
        for idx in _epoch_batches(train_ds.n, plan.batch_size, plan.seed, stage, t):
            xb, yb = train_ds.features[idx], train_ds.labels[idx]
            output, cache = ndcore.forward_with_cache(net, xb)
            loss, grad = loss_fn(output, yb, lambda_t)
            if not np.isfinite(loss.total):
                raise TrainingError(
                    f"non-finite loss at stage{stage} epoch {t}, batch {len(parts)}")
            tape = ndcore.backward(back_net, xb, grad, cache)
            step(net, opt, tape)
            parts.append((loss.total, loss.base, loss.kl))
            batch_norms.append(tape.global_norm())
        epoch = epoch_offset + t
        report, view = metrics.evaluate(ndcore.forward(net, val_ds.features), net.head,
                                        val_labels, epoch, method)
        total, base, kl = (float(np.mean(column)) for column in zip(*parts))
        records.append(EpochRecord(
            epoch=epoch,
            stage=f"stage{stage}",
            loss_total=total,
            loss_base=base,
            loss_kl=kl,
            lambda_t=lambda_t,
            grad_norm_mean=float(np.mean(batch_norms)),
            grad_norm_max=float(np.max(batch_norms)),
            val_auc=report.overall_auc,
            dead_evidence_frac=view.dead_fraction() if view is not None else 0.0,
        ))
        reports.append(report)
    return net, records, reports


def _cross_entropy(probs, yb, lambda_t: float):
    value, grad_logits = losses.cross_entropy_loss(probs, yb)
    return losses.LossValue(total=value, base=value, kl=0.0, lambda_t=lambda_t), grad_logits


def train_stage1(net: ndcore.Network, data, plan: TrainPlan, epoch_offset: int = 0):
    """Cross-entropy training of a softmax-head network.

    `data` is a (train, validation) Dataset pair. Returns the trained
    network, the per-epoch records and the per-epoch eval reports.
    """
    if net.head != "softmax":
        raise ValueError("stage 1 requires a softmax head")
    # Cross-entropy differentiates at the logits, so gradients flow
    # through an identity-head view of the same layers.
    logits_net = ndcore.Network(layers=net.layers, head="identity",
                                class_count=net.class_count)
    return _run_stage(net, logits_net, data, plan, _cross_entropy, stage=1,
                      learning_rate=plan.lr_stage1, epochs=plan.stage1_epochs,
                      lam=0.0, epoch_offset=epoch_offset, method="ce")


def train_stage2(net: ndcore.Network, data, plan: TrainPlan,
                 epoch_offset: int = 0, method: str = "edl"):
    """Evidential training with the annealed KL regularizer.

    The head is swapped to plan.evidence_head_stage2 before training;
    the annealing clock restarts at t = 0 within this stage.
    """
    net = ndcore.swap_head(net, plan.evidence_head_stage2)

    def evidential(evidence, yb, lambda_t):
        return losses.edl_total_loss(losses.evidence_to_alpha(evidence, net.head),
                                     yb, lambda_t)

    return _run_stage(net, net, data, plan, evidential, stage=2,
                      learning_rate=plan.lr_stage2, epochs=plan.stage2_epochs,
                      lam=plan.lam, epoch_offset=epoch_offset, method=method)


def build_network(plan: TrainPlan, input_dim: int, class_count: int) -> ndcore.Network:
    sizes = [input_dim, *[int(h) for h in plan.hidden_sizes], class_count]
    activations = [plan.hidden_activation] * (len(sizes) - 2) + ["identity"]
    return ndcore.init_network(
        sizes,
        activations=activations,
        head="softmax",
        seed=plan.seed,
        init_mode=plan.init_mode,
        hostile_bias=plan.hostile_bias,
    )


def run_plan(plan: TrainPlan, data) -> RunResult:
    """Dispatch ce_only / edl_only / tedl on a (train, val) pair."""
    errors = plan.validate()
    if errors:
        raise ValueError("; ".join(errors))
    train_ds, _ = data
    net = build_network(plan, train_ds.dim, train_ds.class_count)

    if plan.mode == "ce_only":
        net, records, reports = train_stage1(net, data, plan)
    elif plan.mode == "edl_only":
        net, records, reports = train_stage2(net, data, plan, method="edl")
    else:
        net, rec1, rep1 = train_stage1(net, data, plan)
        net, rec2, rep2 = train_stage2(
            net, data, plan, epoch_offset=plan.stage1_epochs, method="tedl"
        )
        records, reports = rec1 + rec2, rep1 + rep2
    return RunResult(network=net, records=records, reports=reports, plan=plan)
