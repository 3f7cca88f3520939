"""Loss kernels with analytic gradients at the head outputs.

Cross-entropy (stage 1) differentiates at the logits; the evidential
losses differentiate at the evidence. Adding 1 to evidence gives the
Dirichlet concentration alpha, so d/d(evidence) == d/d(alpha).
The public losses return finite values or raise NumericError naming
themselves; no numpy warning escapes them. Training calls the kernels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import check_label_rows
from .ndcore import NumericError, _all_finite, as_matrix
from .specfun import _gamma_rows

_LOG_CLAMP = 1e-15
# K values each below this / K sum inside the float range, with a factor 2 to spare for rounding
_ROW_SUM_SAFE = sys.float_info.max / 2.0


@dataclass(eq=False)
class EvidentialOutput:
    """Dirichlet view of an evidence-head forward pass."""

    evidence: np.ndarray     # batch x K
    alpha: np.ndarray        # evidence + 1, strictly positive
    strength: np.ndarray     # row sums of alpha
    p_hat: np.ndarray        # alpha / strength
    uncertainty: np.ndarray  # K / strength

    def dead_fraction(self) -> float:
        """Share of rows whose evidence is everywhere <= 1e-8."""
        return float(np.mean(np.all(self.evidence <= 1e-8, axis=1)))


@dataclass
class LossValue:
    total: float
    base: float
    kl: float


def evidence_to_alpha(evidence, head: str) -> EvidentialOutput:
    """Shift evidence by +1 into Dirichlet parameters and derive
    strength, expected probabilities and uncertainty. NumericError if
    evidence is NaN or inf or a row's strength leaves the float range."""
    e = as_matrix(evidence)
    if head == "relu_evidence":
        if np.logical_or.reduce(e < 0.0, None):
            raise ValueError("relu_evidence requires evidence >= 0")
    elif head == "elu_evidence":
        if np.logical_or.reduce(e <= -1.0, None):
            raise ValueError("elu_evidence requires evidence > -1")
    else:
        raise ValueError(f"not an evidence head: {head!r}")
    if not e.shape[1]:
        raise ValueError("evidence_to_alpha requires at least one column")
    alpha = e + 1.0
    if float(np.maximum.reduce(alpha, None, initial=-np.inf)) * alpha.shape[1] < _ROW_SUM_SAFE:
        strength = np.add.reduce(alpha, 1)  # no row can overflow (a NaN fails the test)
    else:
        with np.errstate(over="ignore"):
            strength = np.add.reduce(alpha, 1)
        if not _all_finite(strength):
            raise NumericError("non-finite strength in evidence_to_alpha")
    p_hat = alpha / strength[:, None]
    uncertainty = alpha.shape[1] / strength
    return EvidentialOutput(
        evidence=e,
        alpha=alpha,
        strength=strength,
        p_hat=p_hat,
        uncertainty=uncertainty,
    )


def _finite_loss(name: str, kernel, *args):
    """kernel(*args) as (loss, grad), run with numpy's floating-point warnings off;
    ValueError if the batch (the first argument, or its alpha) has no rows, and
    NumericError naming `name` unless both are finite (a LossValue by its total)."""
    if not getattr(args[0], "alpha", args[0]).shape[0]:
        raise ValueError(f"{name} requires a batch of at least one row")
    with np.errstate(all="ignore"):
        loss, grad = kernel(*args)
    if not (math.isfinite(getattr(loss, "total", loss)) and _all_finite(grad)):
        raise NumericError(f"non-finite loss or gradient in {name}")
    return loss, grad


def _checked_labels(like: np.ndarray, y, what: str) -> np.ndarray:
    """`y` as a matrix of label rows shaped like `like` (named `what` in the error)."""
    y = as_matrix(y)
    if y.shape != like.shape:
        raise ValueError(f"label shape must match {what} shape")
    check_label_rows(y)
    return y


def _edl_base(out: EvidentialOutput, y: np.ndarray):
    n = y.shape[0]
    p = out.p_hat
    s = out.strength[:, None]
    resid = p - y
    square_sum = np.add.reduce(resid * resid, 1, keepdims=True)
    inner = np.add.reduce(resid * p, 1, keepdims=True)
    q = np.add.reduce(p * p, 1, keepdims=True)
    s_plus_1, one_minus_q = s + 1.0, 1.0 - q

    per_sample = square_sum[:, 0] + one_minus_q[:, 0] / s_plus_1[:, 0]
    value = float(np.add.reduce(per_sample) / n)

    g_fit = 2.0 * (resid - inner) / s
    with np.errstate(over="ignore"):  # s(s + 1) past the float maximum: those terms are 0
        g_var = -2.0 * (p - q) / (s * s_plus_1) - one_minus_q / (s_plus_1 * s_plus_1)
    grad = (g_fit + g_var) / n
    return value, grad


def edl_base_loss(out: EvidentialOutput, y):
    """Expected sum-of-squares loss under the Dirichlet prior.

    Returns (batch mean, gradient w.r.t. evidence).
    """
    return _finite_loss("edl_base_loss", _edl_base, out, _checked_labels(out.alpha, y, "alpha"))


def _alpha_tilde(alpha: np.ndarray, y_hard: np.ndarray) -> np.ndarray:
    return y_hard + (1.0 - y_hard) * alpha


def make_alpha_tilde(alpha, y):
    """Replace the true class's concentration with 1, keeping the rest.

    Only hard one-hot labels are accepted: rows that pass the label-row
    rule, with each entry within 1e-12 of 0 or 1. Soft labels must be
    hardened by the caller before entering the KL path.
    """
    alpha = as_matrix(alpha)
    y = _checked_labels(alpha, y, "alpha")
    if not np.all((np.abs(y) < 1e-12) | (np.abs(y - 1.0) < 1e-12)):
        raise ValueError("alpha_tilde requires one-hot labels")
    with np.errstate(all="ignore"):
        at = _alpha_tilde(alpha, y)
    if not _all_finite(at):
        raise NumericError("non-finite alpha_tilde in make_alpha_tilde")
    return at


def _kl_uniform(at: np.ndarray):
    n, k = at.shape
    # One special-function pass over every entry of alpha_tilde, S_tilde and K.
    values = np.empty(n * k + n + 1)
    values[:n * k].reshape(n, k)[...] = at
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: _gamma_rows rejects it
        st = np.add.reduce(at, 1, out=values[n * k:-1])
    values[-1] = k
    terms = _gamma_rows(values, "kl_to_uniform")
    full = terms[:, :n * k].reshape(3, n, k)
    lg, dg, tg = terms[:, n * k:]
    weight = at - 1.0
    # full[1] becomes (alpha_tilde - 1)(digamma(alpha_tilde) - digamma(S_tilde)), so one
    # sum gives the row sums of it and of ln Gamma(alpha_tilde)
    np.subtract(full[1], dg[:-1][:, None], full[1])
    full[1] *= weight
    lg_sum, weighted_sum = np.add.reduce(full[:2], 2)
    per_sample = lg[:-1] - lg[-1] - lg_sum + weighted_sum
    value = float(np.add.reduce(per_sample) / n)
    grad = (weight * full[2] - ((st - k) * tg[:-1])[:, None]) / n
    return value, grad


def _kl_binary(alpha: np.ndarray, y_hard: np.ndarray):
    """`_kl_uniform(_alpha_tilde(alpha, y_hard))` for K = 2, with no gradient to the true
    class. alpha_tilde is (1, a), so KL = ln a + 1/a - 1, taken as log1p(a - 1) - (a - 1)/a
    to keep its accuracy near a = 1, and d/da = ((a - 1)/a)/a, which cannot overflow."""
    n = alpha.shape[0]
    off = 1.0 - y_hard
    a = np.add.reduce(alpha * off, 1)
    a_less_1 = a - 1.0
    ratio = a_less_1 / a
    value = float(np.add.reduce(np.log1p(a_less_1) - ratio) / n)
    return value, off * (ratio / a / n)[:, None]


def kl_to_uniform(alpha_tilde):
    """KL divergence from Dirichlet(alpha_tilde) to the flat Dirichlet.

    Returns (batch mean, gradient w.r.t. alpha_tilde); every entry must
    be finite and > 0 (the special-function domain check).
    """
    return _finite_loss("kl_to_uniform", _kl_uniform, as_matrix(alpha_tilde))


def harden_labels(y) -> np.ndarray:
    """Arg-max one-hot of (possibly soft) label rows."""
    y = as_matrix(y)
    hard = np.zeros_like(y)
    hard[np.arange(y.shape[0]), np.argmax(y, axis=1)] = 1.0
    return hard


def _edl_total(out: EvidentialOutput, y: np.ndarray, y_hard: np.ndarray, lambda_t: float):
    """`edl_total_loss` on checked label rows `y` and `y_hard = harden_labels(y)`."""
    base_value, grad = _edl_base(out, y)
    if y_hard.shape[1] == 2:  # alpha_tilde = (1, a): no special function
        kl_value, kl_grad = _kl_binary(out.alpha, y_hard)
    else:
        kl_value, kl_grad = _kl_uniform(_alpha_tilde(out.alpha, y_hard))
        kl_grad *= 1.0 - y_hard
    grad += lambda_t * kl_grad
    return LossValue(total=base_value + lambda_t * kl_value, base=base_value, kl=kl_value), grad


def edl_total_loss(out: EvidentialOutput, y, lambda_t: float):
    """Annealed evidential loss: base + lambda_t * KL(alpha_tilde).

    Soft labels feed the base term directly; the KL term sees their
    arg-max hardened version. Returns (LossValue, gradient w.r.t.
    evidence); the KL path carries no gradient to the true class.
    """
    if not 0.0 <= lambda_t <= 1.0:
        raise ValueError("lambda_t must lie in [0, 1]")
    y = _checked_labels(out.alpha, y, "alpha")
    return _finite_loss("edl_total_loss", _edl_total, out, y, harden_labels(y), lambda_t)


def lambda_schedule(epoch_t: int, lam: float) -> float:
    """Annealing coefficient min(1, t * lam) with zero-based t."""
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError("lambda increment must be finite and >= 0")
    if epoch_t < 0:
        raise ValueError("epoch index must be >= 0")
    return min(1.0, epoch_t * lam)


def _cross_entropy(p: np.ndarray, y: np.ndarray):
    """`cross_entropy_loss` on checked label rows `y`, as (LossValue, grad_logits)."""
    n = p.shape[0]
    value = float(-np.add.reduce(y * np.log(np.maximum(p, _LOG_CLAMP)), None) / n)
    return LossValue(total=value, base=value, kl=0.0), (p - y) / n


def cross_entropy_loss(probs, y):
    """Mean cross-entropy against (possibly soft) labels.

    Returns (value, gradient w.r.t. the logits), using the standard
    softmax composition p - y. Probabilities are clamped at 1e-15
    before the log.
    """
    p = as_matrix(probs)
    loss, grad_logits = _finite_loss("cross_entropy_loss", _cross_entropy, p,
                                     _checked_labels(p, y, "probability"))
    return loss.total, grad_logits
