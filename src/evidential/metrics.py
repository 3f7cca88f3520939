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


@dataclass
class EvalReport:
    epoch: int
    method: str
    overall_auc: float | None
    threshold_curve: list[ThresholdPoint] = field(default_factory=list)
    uncertainty_histogram: Histogram | None = None


def roc_auc(scores, labels) -> float | None:
    """Mann-Whitney AUC with half credit for ties, O(n log n): the K = 2
    case of multiclass_auc, with `scores` as class 1's column.

    Returns None when only one class is present (never a fabricated
    0.5 and never NaN). Non-finite scores and labels other than 0 or 1
    raise ValueError.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    return multiclass_auc(np.column_stack((np.zeros_like(scores), scores)), labels)


def _column_aucs(scores, positive, keys, taus, counts) -> list:
    """The tie-aware AUC of one score column over each row set {keys < tau}, from one sort.

    `counts` holds each set's size. A set's positive rank sum is read from
    running counts of its rows and of its positives at the edges of the
    groups of equal scores: each positive ranks after the set's rows in
    lower groups and at the middle of its own group. Twice that sum is an
    integer, so the AUC is exactly what summing the mid-ranks of the set
    alone gives, in any order.
    """
    order = np.argsort(scores)  # the order within a group of ties never matters
    ranked = scores[order]
    edges = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1], [True])))
    positive, keys = positive[order], keys[order]
    running = np.zeros(scores.size + 1, dtype=np.intp)
    aucs = []
    for tau, count in zip(taus, counts):
        if count == 0:
            aucs.append(None)
            continue
        inside = keys < tau
        np.cumsum(inside, out=running[1:])
        at_edges = running[edges]
        np.cumsum(inside & positive, out=running[1:])
        pos_at_edges = running[edges]
        n_pos = int(pos_at_edges[-1])
        n_neg = count - n_pos
        if n_pos == 0 or n_neg == 0:
            aucs.append(None)
            continue
        twice = int(np.dot(np.diff(pos_at_edges), at_edges[:-1] + at_edges[1:] + 1))
        aucs.append((twice / 2 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return aucs


def _multiclass_aucs(p_hat: np.ndarray, class_idx: np.ndarray, keys, taus):
    """(multiclass_auc, row count) of each row set {keys < tau}, sorting
    each score column once; None for an empty set.

    The one input rule of every AUC entry point: a label is a class index
    0..K-1 (for K = 2, 0 or 1), and the scores used are finite. Raises the
    error that the first set holding a bad row would raise on its own: a
    non-finite score, then a label that is no class index.
    """
    n, k = p_hat.shape
    if class_idx.shape != (n,):
        raise ValueError("scores and labels must have equal length")
    sets = [keys < tau for tau in taus]
    counts = [int(np.count_nonzero(rows)) for rows in sets]
    columns = [1] if k == 2 else range(k)
    positive = [class_idx == j for j in range(k)]
    bad_score = ~np.isfinite(p_hat[:, columns]).all(axis=1)
    bad_label = ~np.logical_or.reduce(positive)
    if bad_score.any() or bad_label.any():
        for rows in sets:
            if (bad_score & rows).any():
                raise ValueError("scores must be finite")
            if (bad_label & rows).any():
                raise ValueError("labels must be 0 or 1" if k == 2
                                 else f"labels must be class indices 0..{k - 1}")
    if k == 2:
        return _column_aucs(p_hat[:, 1], positive[1], keys, taus, counts), counts
    per_class = [_column_aucs(p_hat[:, j], positive[j], keys, taus, counts)
                 for j in range(k)]
    return [float(np.mean(parts)) if parts else None
            for parts in ([auc for auc in point if auc is not None]
                          for point in zip(*per_class))], counts


def multiclass_auc(p_hat: np.ndarray, class_idx: np.ndarray) -> float | None:
    """Binary tasks score class 1 directly; K > 2 falls back to a
    one-vs-rest macro average over classes with both outcomes present."""
    p_hat = np.asarray(p_hat, dtype=np.float64)
    keys = np.zeros(p_hat.shape[:1])  # every row is in the one set {0 < 1}
    (auc,), _ = _multiclass_aucs(p_hat, np.asarray(class_idx).ravel(), keys, [1.0])
    return auc


def auc_vs_uncertainty(
    out: losses.EvidentialOutput, labels, thresholds=None
) -> list[ThresholdPoint]:
    """AUC over {i : u_i < tau} for each threshold (strict comparison).

    Defaults to the decade grid 0.1..1.0 plus a point just above the
    maximum observed uncertainty, so the last entry covers the full set.
    Each score column is sorted once for the whole curve.
    """
    labels = np.asarray(labels).ravel()
    u = out.uncertainty
    if not u.size:
        raise ValueError("auc_vs_uncertainty requires at least one row")
    if thresholds is None:
        cover_all = np.nextafter(float(u.max()), np.inf)
        grid = sorted(set(float(t) for t in DEFAULT_THRESHOLDS) | {cover_all})
    else:
        grid = [float(t) for t in thresholds]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("thresholds must be strictly increasing")
    aucs, counts = _multiclass_aucs(out.p_hat, labels, u, grid)
    return [ThresholdPoint(threshold=tau, auc=auc, sample_count=count)
            for tau, auc, count in zip(grid, aucs, counts)]


def uncertainty_histogram(out: losses.EvidentialOutput, bins: int) -> Histogram:
    """Equal-width bins over [0, max(1, max u)]; counts sum to n."""
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValueError("bins must be an integer >= 1")
    u = out.uncertainty
    if not u.size:
        raise ValueError("uncertainty_histogram requires at least one row")
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
    curve = auc_vs_uncertainty(view, labels)
    report = EvalReport(
        epoch=epoch,
        method=method,
        overall_auc=curve[-1].auc,  # the default grid's last point covers every row
        threshold_curve=curve,
        uncertainty_histogram=uncertainty_histogram(view, bins=20),
    )
    return report, view
