"""Loss kernels with analytic gradients at the head outputs.

Cross-entropy (stage 1) differentiates at the logits; the evidential
losses differentiate at the evidence. Adding 1 to evidence gives the
Dirichlet concentration alpha, so d/d(evidence) == d/d(alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ndcore import as_matrix
from .specfun import _gamma_terms

_LOG_CLAMP = 1e-15


@dataclass
class EvidentialOutput:
    """Dirichlet view of an evidence-head forward pass."""

    evidence: np.ndarray     # batch x K
    alpha: np.ndarray        # evidence + 1, strictly positive
    strength: np.ndarray     # row sums of alpha
    p_hat: np.ndarray        # alpha / strength
    uncertainty: np.ndarray  # K / strength
    head: str

    @property
    def class_count(self) -> int:
        return self.alpha.shape[1]

    def dead_fraction(self, tol: float = 1e-8) -> float:
        """Share of rows whose evidence is everywhere <= tol."""
        return float(np.mean(np.all(self.evidence <= tol, axis=1)))


@dataclass
class LossValue:
    total: float
    base: float
    kl: float
    lambda_t: float


def evidence_to_alpha(evidence, head: str) -> EvidentialOutput:
    """Shift evidence by +1 into Dirichlet parameters and derive
    strength, expected probabilities and uncertainty."""
    e = as_matrix(evidence)
    if head == "relu_evidence":
        if np.any(e < 0.0):
            raise ValueError("relu_evidence requires evidence >= 0")
    elif head == "elu_evidence":
        if np.any(e <= -1.0):
            raise ValueError("elu_evidence requires evidence > -1")
    else:
        raise ValueError(f"not an evidence head: {head!r}")
    alpha = e + 1.0
    strength = alpha.sum(axis=1)
    p_hat = alpha / strength[:, None]
    uncertainty = alpha.shape[1] / strength
    return EvidentialOutput(
        evidence=e,
        alpha=alpha,
        strength=strength,
        p_hat=p_hat,
        uncertainty=uncertainty,
        head=head,
    )


def _check_label_rows(y: np.ndarray) -> None:
    sums = y.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("label rows must sum to 1")


def edl_base_loss(out: EvidentialOutput, y):
    """Expected sum-of-squares loss under the Dirichlet prior.

    Returns (batch mean, gradient w.r.t. evidence).
    """
    y = as_matrix(y)
    if y.shape != out.alpha.shape:
        raise ValueError("label shape must match alpha shape")
    _check_label_rows(y)
    n = y.shape[0]
    p = out.p_hat
    s = out.strength[:, None]
    q = np.sum(p * p, axis=1, keepdims=True)

    per_sample = np.sum((y - p) ** 2, axis=1) + (1.0 - q[:, 0]) / (s[:, 0] + 1.0)
    value = float(per_sample.mean())

    resid = p - y
    inner = np.sum(resid * p, axis=1, keepdims=True)
    g_fit = 2.0 * (resid - inner) / s
    g_var = -2.0 * (p - q) / (s * (s + 1.0)) - (1.0 - q) / (s + 1.0) ** 2
    grad = (g_fit + g_var) / n
    return value, grad


def edl_base_loss_phat_form(out: EvidentialOutput, y) -> float:
    """The same loss written in terms of p_hat and strength only.

    Kept as an independent evaluation path for cross-checking against
    edl_base_loss; returns the batch mean only.
    """
    y = as_matrix(y)
    p = out.p_hat
    s = out.strength[:, None]
    per_sample = np.sum((y - p) ** 2 + p * (1.0 - p) / (s + 1.0), axis=1)
    return float(per_sample.mean())


def make_alpha_tilde(alpha, y):
    """Replace the true class's concentration with 1, keeping the rest.

    Only hard one-hot labels are accepted; soft labels must be hardened
    by the caller before entering the KL path.
    """
    alpha = as_matrix(alpha)
    y = as_matrix(y)
    if y.shape != alpha.shape:
        raise ValueError("label shape must match alpha shape")
    is_onehot = np.all((np.abs(y) < 1e-12) | (np.abs(y - 1.0) < 1e-12)) and np.all(
        np.abs(y.sum(axis=1) - 1.0) < 1e-12
    )
    if not is_onehot:
        raise ValueError("alpha_tilde requires one-hot labels")
    return y + (1.0 - y) * alpha


def kl_to_uniform(alpha_tilde):
    """KL divergence from Dirichlet(alpha_tilde) to the flat Dirichlet.

    Returns (batch mean, gradient w.r.t. alpha_tilde).
    """
    at = as_matrix(alpha_tilde)
    if np.any(at <= 0.0):
        raise ValueError("alpha_tilde must be strictly positive")
    n, k = at.shape
    st = at.sum(axis=1)
    # One special-function pass over [alpha_tilde, S_tilde, K].
    lg, dg, tg = _gamma_terms(np.concatenate([at.ravel(), st, [float(k)]]), "kl_to_uniform")
    m = n * k
    per_sample = (
        lg[m:-1]
        - lg[-1]
        - lg[:m].reshape(n, k).sum(axis=1)
        + np.sum((at - 1.0) * (dg[:m].reshape(n, k) - dg[m:-1][:, None]), axis=1)
    )
    value = float(per_sample.mean())
    grad = ((at - 1.0) * tg[:m].reshape(n, k) - ((st - k) * tg[m:-1])[:, None]) / n
    return value, grad


def harden_labels(y) -> np.ndarray:
    """Arg-max one-hot of (possibly soft) label rows."""
    y = as_matrix(y)
    hard = np.zeros_like(y)
    hard[np.arange(y.shape[0]), np.argmax(y, axis=1)] = 1.0
    return hard


def edl_total_loss(out: EvidentialOutput, y, lambda_t: float):
    """Annealed evidential loss: base + lambda_t * KL(alpha_tilde).

    Soft labels feed the base term directly; the KL term sees their
    arg-max hardened version. Returns (LossValue, gradient w.r.t.
    evidence); the KL path carries no gradient to the true class.
    """
    if not 0.0 <= lambda_t <= 1.0:
        raise ValueError("lambda_t must lie in [0, 1]")
    y = as_matrix(y)
    base_value, grad = edl_base_loss(out, y)
    y_hard = harden_labels(y)
    alpha_tilde = make_alpha_tilde(out.alpha, y_hard)
    kl_value, kl_grad = kl_to_uniform(alpha_tilde)
    grad = grad + lambda_t * (1.0 - y_hard) * kl_grad
    loss = LossValue(
        total=base_value + lambda_t * kl_value,
        base=base_value,
        kl=kl_value,
        lambda_t=lambda_t,
    )
    return loss, grad


def lambda_schedule(epoch_t: int, lam: float) -> float:
    """Annealing coefficient min(1, t * lam) with zero-based t."""
    if lam < 0.0:
        raise ValueError("lambda increment must be >= 0")
    if epoch_t < 0:
        raise ValueError("epoch index must be >= 0")
    return min(1.0, epoch_t * lam)


def cross_entropy_loss(probs, y):
    """Mean cross-entropy against (possibly soft) labels.

    Returns (value, gradient w.r.t. the logits), using the standard
    softmax composition p - y. Probabilities are clamped at 1e-15
    before the log.
    """
    p = as_matrix(probs)
    y = as_matrix(y)
    if y.shape != p.shape:
        raise ValueError("label shape must match probability shape")
    _check_label_rows(y)
    n = p.shape[0]
    value = float(-np.sum(y * np.log(np.maximum(p, _LOG_CLAMP))) / n)
    grad_logits = (p - y) / n
    return value, grad_logits
