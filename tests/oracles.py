"""Independent evaluation paths that the tests use as oracles.

Nothing in the package calls these; they restate a quantity in another
form so that the package's own kernels can be checked against them.
"""

import numpy as np

from evidential import specfun
from evidential.losses import EvidentialOutput
from evidential.ndcore import as_matrix


def edl_base_loss_phat_form(out: EvidentialOutput, y) -> float:
    """`losses.edl_base_loss` written in terms of p_hat and strength only.

    An independent evaluation path for cross-checking against
    edl_base_loss; returns the batch mean only.
    """
    y = as_matrix(y)
    p = out.p_hat
    s = out.strength[:, None]
    per_sample = np.sum((y - p) ** 2 + p * (1.0 - p) / (s + 1.0), axis=1)
    return float(per_sample.mean())


# Each function's series coefficients, read from the kernel's one table.
LNGAMMA_SERIES = tuple(specfun._SERIES_COEFFS[:, 0, 0])
DIGAMMA_SERIES = tuple(specfun._SERIES_COEFFS[:7, 1, 0])
TRIGAMMA_SERIES = tuple(specfun._SERIES_COEFFS[:7, 2, 0])


def _series(coeffs, term: np.ndarray, inv2: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] * term * inv2**n, accumulated in order."""
    total = np.zeros_like(term)
    for c in coeffs:
        total += c * term
        term = term * inv2
    return total


def gamma_terms_loop(x):
    """`specfun._gamma_terms` in its loop form: a masked ten-step upward
    recurrence, then one series loop per function.

    The stacked kernel must match it bit for bit. Scalar in, scalars out.
    """
    arr = np.asarray(x, dtype=np.float64)
    z = np.atleast_1d(arr)
    lg_shift = np.zeros_like(z)
    dg_shift = np.zeros_like(z)
    tg_shift = np.zeros_like(z)
    for _ in range(10):
        mask = z < specfun._SHIFT_THRESHOLD
        if not mask.any():
            break
        lg_shift = np.where(mask, lg_shift + np.log(z), lg_shift)
        dg_shift = np.where(mask, dg_shift + 1.0 / z, dg_shift)
        tg_shift = np.where(mask, tg_shift + 1.0 / (z * z), tg_shift)
        z = np.where(mask, z + 1.0, z)
    log_z = np.log(z)
    inv2 = 1.0 / (z * z)
    lg_series = _series(LNGAMMA_SERIES, 1.0 / z, inv2)
    lg = (z - 0.5) * log_z - z + specfun._HALF_LOG_2PI + lg_series - lg_shift
    dg = log_z - 0.5 / z - _series(DIGAMMA_SERIES, inv2, inv2) - dg_shift
    tg = (1.0 / z + 0.5 * inv2 + _series(TRIGAMMA_SERIES, inv2 / z, inv2)
          + tg_shift)
    if arr.ndim == 0:
        return float(lg[0]), float(dg[0]), float(tg[0])
    return lg, dg, tg


def kl_uniform_full_pass(at: np.ndarray):
    """`losses._kl_uniform` as one special-function pass over every entry of
    alpha_tilde, S_tilde and K: (batch mean, gradient w.r.t. alpha_tilde).

    An independent, written-out reference: the kernel must match it bit for
    bit.
    """
    n, k = at.shape
    st = at.sum(axis=1)
    lg, dg, tg = specfun._gamma_terms(np.concatenate([at.ravel(), st, [float(k)]]))
    m = n * k
    per_sample = (
        lg[m:-1]
        - lg[-1]
        - lg[:m].reshape(n, k).sum(axis=1)
        + ((at - 1.0) * (dg[:m].reshape(n, k) - dg[m:-1][:, None])).sum(axis=1)
    )
    value = float(per_sample.mean())
    grad = ((at - 1.0) * tg[:m].reshape(n, k) - ((st - k) * tg[m:-1])[:, None]) / n
    return value, grad


def tied_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; each group of equal scores shares its mid-rank."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    return (0.5 * (starts + ends - 1) + 1.0)[inverse]


def roc_auc_ranked(scores, labels):
    """`metrics.roc_auc` as a sum of the subset's own tied ranks, with its checks."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    labels = labels.astype(int)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        return None
    pos_rank_sum = float(tied_ranks(scores)[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def multiclass_auc_ranked(p_hat, class_idx):
    """`metrics.multiclass_auc` with one rank of each column per call."""
    p_hat = np.asarray(p_hat, dtype=np.float64)
    k = p_hat.shape[1]
    if k == 2:
        return roc_auc_ranked(p_hat[:, 1], class_idx)
    if not np.all(np.isfinite(p_hat)):
        raise ValueError("scores must be finite")
    if not np.all(np.isin(class_idx, np.arange(k))):
        raise ValueError(f"labels must be class indices 0..{k - 1}")
    parts = []
    for j in range(p_hat.shape[1]):
        auc = roc_auc_ranked(p_hat[:, j], (class_idx == j).astype(int))
        if auc is not None:
            parts.append(auc)
    return float(np.mean(parts)) if parts else None


def auc_vs_uncertainty_per_subset(out: EvidentialOutput, labels, grid=None):
    """(threshold, AUC, sample count) of each u < tau subset, each subset
    ranked on its own: the curve `metrics.auc_vs_uncertainty` must match.
    The default grid is the decade grid plus a point just above max u."""
    labels = np.asarray(labels).ravel()
    if not out.uncertainty.size:
        raise ValueError("auc_vs_uncertainty requires at least one row")
    if grid is None:
        cover_all = np.nextafter(float(out.uncertainty.max()), np.inf)
        grid = sorted(set(np.round(np.arange(0.1, 1.01, 0.1), 10).tolist()) | {cover_all})
    points = []
    for tau in grid:
        mask = out.uncertainty < tau
        count = int(mask.sum())
        auc = multiclass_auc_ranked(out.p_hat[mask], labels[mask]) if count else None
        points.append((tau, auc, count))
    return points
