"""Optimizers and the two-stage training orchestration.

Stage 1 fits a softmax head with cross-entropy; stage 2 swaps in an
evidence head and trains the annealed evidential loss, warm-started
from the stage-1 weights. Single-stage cross-entropy and single-stage
evidential runs are available as baselines. Every run is deterministic
given (plan, data): per-epoch shuffles are seeded by (seed, stage,
epoch) and all state lives in float64 numpy arrays.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import data as datamod
from . import losses, metrics, ndcore


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class TrainingError(RuntimeError):
    """Non-finite loss or update; carries epoch/batch context."""


@dataclass(eq=False)
class OptimizerState:
    kind: str  # adam | sgd
    learning_rate: float
    step_count: int = 0
    # Adam's first and second moments, each the shape of Network.theta
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    @classmethod
    def for_network(cls, net: ndcore.Network, kind: str, learning_rate: float):
        if kind not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {kind!r}")
        state = cls(kind=kind, learning_rate=learning_rate)
        if kind == "adam":
            state.m, state.v = np.zeros_like(net.theta), np.zeros_like(net.theta)
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
        if not np.all(np.isfinite([self.lam, self.lr_stage1, self.lr_stage2])):
            errors.append("lambda and learning rates must be finite")
        if self.lam < 0:
            errors.append("lambda must be >= 0")
        if self.seed < 0:
            errors.append("seed must be >= 0")
        if self.batch_size < 1:
            errors.append("batch_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            errors.append(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if self.lr_stage1 < 0 or self.lr_stage2 < 0:
            errors.append("learning rates must be >= 0")
        if self.evidence_head_stage2 not in ndcore.EVIDENCE_ACTIVATION:
            errors.append("evidence_head_stage2 must be relu_evidence or elu_evidence")
        if self.init_mode not in ndcore.INIT_MODES:
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


def step(net: ndcore.Network, state: OptimizerState, grad: np.ndarray):
    """Apply one optimizer step in place, `grad` in `theta`'s layout; returns (net, state)."""
    if grad.shape != net.theta.shape:
        raise ValueError("tape does not mirror the network")
    state.step_count += 1
    if state.kind == "sgd":
        net.theta -= state.learning_rate * grad
    else:
        state.m = BETA1 * state.m + (1.0 - BETA1) * grad
        state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
        m_hat = state.m / (1.0 - BETA1 ** state.step_count)
        v_hat = state.v / (1.0 - BETA2 ** state.step_count)
        net.theta -= state.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
    if not ndcore._all_finite(net.theta):
        raise TrainingError("non-finite parameter after optimizer step")
    return net, state


def _epoch_batches(n: int, batch_size: int, seed: int, stage: int, epoch: int):
    order = np.random.default_rng([seed, stage, epoch]).permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _run_stage(net, back_net, data, plan: TrainPlan, loss_fn, *, stage: int,
               learning_rate: float, epochs: int, lam: float, epoch_offset: int,
               method: str):
    """The batch loop both stages share.

    `loss_fn(output, rows, lambda_t)` maps `net`'s head outputs on the
    training rows `rows` to (LossValue, gradient at the output of
    `back_net`, which shares `net`'s layers: one forward pass serves both).
    Label rows are checked once, before the first step; each epoch ends
    with an evaluation on the validation set.
    """
    train_ds, val_ds = data
    datamod.check_label_rows(train_ds.labels)
    val_labels = val_ds.class_indices()
    records: list[EpochRecord] = []
    reports: list[metrics.EvalReport] = []
    opt = OptimizerState.for_network(net, plan.optimizer, learning_rate)
    for t in range(epochs):
        lambda_t = losses.lambda_schedule(t, lam)
        parts, batch_norms = [], []
        for idx in _epoch_batches(train_ds.n, plan.batch_size, plan.seed, stage, t):
            output, cache = ndcore.forward_with_cache(net, train_ds.rows(idx))
            loss, upstream = loss_fn(output, idx, lambda_t)
            if not math.isfinite(loss.total):
                raise TrainingError(
                    f"non-finite loss at stage{stage} epoch {t}, batch {len(parts)}")
            grad = ndcore.backward(back_net, upstream, cache)
            step(net, opt, grad)
            parts.append((loss.total, loss.base, loss.kl))
            batch_norms.append(ndcore.global_norm(net, grad))
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


def train_stage1(net: ndcore.Network, data, plan: TrainPlan):
    """Cross-entropy training of a softmax-head network.

    `data` is a (train, validation) Dataset pair. Returns the trained
    network, the per-epoch records and the per-epoch eval reports.
    """
    if net.head != "softmax":
        raise ValueError("stage 1 requires a softmax head")
    # Cross-entropy differentiates at the logits, so gradients flow
    # through an identity-head view that shares `net`'s parameters.
    logits_net = copy.copy(net)
    logits_net.head = "identity"
    labels = data[0].labels

    def cross_entropy(probs, rows, lambda_t):
        return losses._cross_entropy(probs, labels.take(rows, 0))

    return _run_stage(net, logits_net, data, plan, cross_entropy, stage=1,
                      learning_rate=plan.lr_stage1, epochs=plan.stage1_epochs,
                      lam=0.0, epoch_offset=0, method="ce")


def train_stage2(net: ndcore.Network, data, plan: TrainPlan):
    """Evidential training with the annealed KL regularizer.

    The head is swapped to plan.evidence_head_stage2 before training;
    the annealing clock restarts at t = 0 within this stage. The labels
    are hardened for the KL term once, not per batch. Under mode "tedl"
    the epochs follow stage 1's and are tagged "tedl"; otherwise they
    start at 0 and are tagged "edl".
    """
    tedl = plan.mode == "tedl"
    net = ndcore.swap_head(net, plan.evidence_head_stage2)
    labels, hard = data[0].labels, losses.harden_labels(data[0].labels)

    def evidential(evidence, rows, lambda_t):
        return losses._edl_total(losses.evidence_to_alpha(evidence, net.head),
                                 labels.take(rows, 0), hard.take(rows, 0), lambda_t)

    return _run_stage(net, net, data, plan, evidential, stage=2,
                      learning_rate=plan.lr_stage2, epochs=plan.stage2_epochs,
                      lam=plan.lam, epoch_offset=plan.stage1_epochs if tedl else 0,
                      method="tedl" if tedl else "edl")


def build_network(plan: TrainPlan, input_dim: int, class_count: int) -> ndcore.Network:
    sizes = [input_dim, *[int(h) for h in plan.hidden_sizes], class_count]
    return ndcore.init_network(sizes, plan.hidden_activation, head="softmax", seed=plan.seed,
                               init_mode=plan.init_mode)


def run_plan(plan: TrainPlan, data) -> RunResult:
    """Run the plan's stages on a (train, val) pair: stage 1 unless
    edl_only, then stage 2 unless ce_only."""
    errors = plan.validate()
    if errors:
        raise ValueError("; ".join(errors))
    train_ds, _ = data
    net = build_network(plan, train_ds.dim, train_ds.class_count)
    records, reports = [], []
    if plan.mode != "edl_only":
        net, records, reports = train_stage1(net, data, plan)
    if plan.mode != "ce_only":
        net, rec2, rep2 = train_stage2(net, data, plan)
        records, reports = records + rec2, reports + rep2
    return RunResult(network=net, records=records, reports=reports)
