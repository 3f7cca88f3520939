"""Ranking metrics: ROC AUC with ties, AUC vs uncertainty thresholds,
uncertainty histograms and the one path from head output to EvalReport."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import losses, ndcore

DEFAULT_THRESHOLDS = tuple(np.round(np.arange(0.1, 1.01, 0.1), 10))


@dataclass
class ThresholdPoint:
    threshold: float
    auc: float | None  # None when the subset is empty or single-class
    sample_count: int


@dataclass(eq=False)
class Histogram:
    counts: np.ndarray
    edges: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class EvalReport:
    epoch: int
    method: str
    overall_auc: float | None
    threshold_curve: list[ThresholdPoint] = field(default_factory=list)
    uncertainty_histogram: Histogram | None = None


def _tied_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; each group of equal scores shares its mid-rank."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    return (0.5 * (starts + ends - 1) + 1.0)[inverse]


def roc_auc(scores, labels) -> float | None:
    """Mann-Whitney AUC with half credit for ties, O(n log n).

    Returns None when only one class is present (never a fabricated
    0.5 and never NaN). Non-finite scores and labels other than 0 or 1
    raise ValueError.
    """
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
    ranks = _tied_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def multiclass_auc(p_hat: np.ndarray, class_idx: np.ndarray) -> float | None:
    """Binary tasks score class 1 directly; K > 2 falls back to a
    one-vs-rest macro average over classes with both outcomes present."""
    p_hat = np.asarray(p_hat, dtype=np.float64)
    if p_hat.shape[1] == 2:
        return roc_auc(p_hat[:, 1], class_idx)
    parts = []
    for j in range(p_hat.shape[1]):
        auc = roc_auc(p_hat[:, j], (class_idx == j).astype(int))
        if auc is not None:
            parts.append(auc)
    return float(np.mean(parts)) if parts else None


def auc_vs_uncertainty(
    out: losses.EvidentialOutput, labels, thresholds=None
) -> list[ThresholdPoint]:
    """AUC over {i : u_i < tau} for each threshold (strict comparison).

    Defaults to the decade grid 0.1..1.0 plus a point just above the
    maximum observed uncertainty, so the last entry covers the full set.
    """
    labels = np.asarray(labels).ravel().astype(int)
    u = out.uncertainty
    if thresholds is None:
        cover_all = np.nextafter(float(u.max()), np.inf)
        grid = sorted(set(float(t) for t in DEFAULT_THRESHOLDS) | {cover_all})
    else:
        grid = [float(t) for t in thresholds]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("thresholds must be strictly increasing")
    curve = []
    for tau in grid:
        mask = u < tau
        count = int(mask.sum())
        auc = multiclass_auc(out.p_hat[mask], labels[mask]) if count else None
        curve.append(ThresholdPoint(threshold=tau, auc=auc, sample_count=count))
    return curve


def uncertainty_histogram(out: losses.EvidentialOutput, bins: int) -> Histogram:
    """Equal-width bins over [0, max(1, max u)]; counts sum to n."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    u = out.uncertainty
    hi = max(1.0, float(u.max()))
    counts, edges = np.histogram(u, bins=bins, range=(0.0, hi))
    return Histogram(counts=counts, edges=edges)


def evaluate(raw, head: str, labels, epoch: int, method: str):
    """EvalReport of one head output against integer class labels.

    Returns (report, view). For an evidence head, `view` is the
    Dirichlet view of `raw` and the report adds the AUC-vs-uncertainty
    curve and the uncertainty histogram; for any other head `raw` is
    scored directly and `view` is None.
    """
    if head not in ndcore.EVIDENCE_ACTIVATION:
        return EvalReport(epoch=epoch, method=method,
                          overall_auc=multiclass_auc(raw, labels)), None
    view = losses.evidence_to_alpha(raw, head)
    report = EvalReport(
        epoch=epoch,
        method=method,
        overall_auc=multiclass_auc(view.p_hat, labels),
        threshold_curve=auc_vs_uncertainty(view, labels),
        uncertainty_histogram=uncertainty_histogram(view, bins=20),
    )
    return report, view
