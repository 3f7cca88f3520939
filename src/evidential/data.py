"""Synthetic datasets, CSV round-tripping and deterministic splits."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ndcore import softmax

_CSV_BLOCK_ROWS = 4096  # rows per formatted write: bounded memory, few calls
_CSV_PARSE = dict(delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=np.float64)


def _unnormalised(labels: np.ndarray) -> np.ndarray:  # True for NaN and inf sums too
    return ~(np.abs(labels.sum(axis=1) - 1.0) <= 1e-9)


@dataclass(eq=False)
class Dataset:
    features: np.ndarray  # n x d
    labels: np.ndarray    # n x K, rows sum to 1
    name: str = ""
    seed: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("features and labels must be 2-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels row counts differ")
        if self.features.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if _unnormalised(self.labels).any():
            raise ValueError("label rows must sum to 1")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def class_count(self) -> int:
        return self.labels.shape[1]

    @property
    def features_only(self) -> bool:
        """True when every label row is the uniform distribution,
        i.e. the labels carry no class signal (OOD-style data)."""
        return bool(np.all(np.abs(self.labels - 1.0 / self.class_count) < 1e-12))

    def class_indices(self) -> np.ndarray:
        return np.argmax(self.labels, axis=1)


@dataclass
class SplitSpec:
    train_fraction: float = 0.8
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.train_fraction) and np.isfinite(self.val_fraction)):
            raise ValueError("split fractions must be finite")
        if self.train_fraction <= 0 or self.val_fraction <= 0:
            raise ValueError("split fractions must be positive")
        if self.train_fraction + self.val_fraction > 1.0 + 1e-12:
            raise ValueError("split fractions must sum to at most 1")


def _cluster_centers(k: int, d: int, separation: float) -> np.ndarray:
    # Scaled standard-basis corners: every pair of centers sits at
    # Euclidean distance `separation`.
    if k > d:
        raise ValueError("need feature dimension >= class count")
    centers = np.zeros((k, d))
    for j in range(k):
        centers[j, j] = separation / np.sqrt(2.0)
    return centers


def mixture_posterior(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Class posterior of the equal-weight unit-variance Gaussian
    mixture with the given centers."""
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return softmax(-0.5 * d2)


def gen_blobs(
    n: int,
    d: int,
    k: int,
    separation: float,
    label_noise: float = 0.0,
    soft: bool = False,
    seed: int = 0,
) -> Dataset:
    """Equal-weight Gaussian clusters with hard or posterior-soft labels.

    Label noise flips hard labels to a different class with the given
    probability, drawn from a stream independent of the feature draw so
    that the same seed yields identical features at any noise level.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    if separation <= 0:
        raise ValueError("separation must be positive")
    if not 0.0 <= label_noise <= 1.0:
        raise ValueError("label_noise must lie in [0, 1]")
    if soft and label_noise > 0:
        raise ValueError("label_noise applies to hard labels only")

    centers = _cluster_centers(k, d, separation)
    rng = np.random.default_rng(seed)
    comp = rng.integers(0, k, size=n)
    x = centers[comp] + rng.standard_normal((n, d))

    if soft:
        labels = mixture_posterior(x, centers)
    else:
        assigned = comp.copy()
        if label_noise > 0:
            noise_rng = np.random.default_rng([seed, 0x5EED])
            flip = noise_rng.random(n) < label_noise
            offsets = noise_rng.integers(1, k, size=n)
            assigned[flip] = (assigned[flip] + offsets[flip]) % k
        labels = np.zeros((n, k))
        labels[np.arange(n), assigned] = 1.0

    tag = "soft" if soft else "hard"
    return Dataset(x, labels, name=f"blobs_{tag}_n{n}_d{d}_k{k}", seed=seed)


def gen_ood_ring(n: int, d: int, radius: float, seed: int = 0, k: int = 2) -> Dataset:
    """Feature-only samples on a shell far from any training cluster;
    labels are the uninformative uniform distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    labels = np.full((n, k), 1.0 / k)
    return Dataset(v * radius, labels, name=f"ood_ring_r{radius}", seed=seed)


def save_csv(dataset: Dataset, path) -> None:
    """Write `f0..f{d-1},y0..y{K-1}` rows of `%.17g` cells ending in CRLF."""
    table = np.hstack([dataset.features, dataset.labels])
    header = [f"f{i}" for i in range(dataset.dim)] + [f"y{j}" for j in range(dataset.class_count)]
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in np.split(table, range(_CSV_BLOCK_ROWS, table.shape[0], _CSV_BLOCK_ROWS)):
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def load_csv(path) -> Dataset:
    """Read a dataset written by save_csv; errors name the 1-based line."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: no data rows")
        d = sum(1 for h in header if h.startswith("f"))
        k = len(header) - d
        names = [f"f{i}" for i in range(d)] + [f"y{j}" for j in range(k)]
        if d < 1 or k < 2 or header != names:
            raise ValueError(f"{path}: header must be f0..f{{d-1}},y0..y{{K-1}}")
        try:
            with warnings.catch_warnings():  # an empty body falls to the scan
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, **_CSV_PARSE)
        except ValueError:
            table = None
        if table is None or table.shape[1] != d + k or _unnormalised(table[:, d:]).any():
            fh.seek(0)
            raise ValueError(f"{path}: {_first_bad_line(fh, d, k)}")
    return Dataset(table[:, :d], table[:, d:], name=str(path))


def _first_bad_line(fh, d: int, k: int) -> str:
    """Name the first line the parse rejects, one line at a time; it returns no data."""
    for lineno, line in enumerate(fh, start=1):
        row = next(csv.reader([line]), [])
        if lineno == 1 or not row:
            continue
        if len(row) != d + k:
            return f"line {lineno}: expected {d + k} columns, got {len(row)}"
        try:
            values = np.loadtxt([line], **_CSV_PARSE)
        except ValueError:
            return f"line {lineno}: non-numeric cell"
        if _unnormalised(values[:, d:]).any():
            return f"line {lineno}: label row does not sum to 1"
    return "no data rows"


def split(dataset: Dataset, spec: SplitSpec):
    """Stratified, seeded train/validation split.

    Per-class row counts go to the training part in proportion
    train_fraction (rounded); when the fractions sum to 1 the
    validation part takes everything else, so the union preserves
    all rows.
    """
    rng = np.random.default_rng(spec.seed)
    classes = dataset.class_indices()
    train_idx, val_idx = [], []
    exhaustive = abs(spec.train_fraction + spec.val_fraction - 1.0) <= 1e-12
    for c in np.unique(classes):
        rows = np.nonzero(classes == c)[0]
        rows = rng.permutation(rows)
        n_train = int(round(spec.train_fraction * rows.size))
        n_train = min(max(n_train, 0), rows.size)
        if exhaustive:
            n_val = rows.size - n_train
        else:
            n_val = int(round(spec.val_fraction * rows.size))
            n_val = min(n_val, rows.size - n_train)
        train_idx.append(rows[:n_train])
        val_idx.append(rows[n_train:n_train + n_val])
    train_idx = rng.permutation(np.concatenate(train_idx))
    val_idx = rng.permutation(np.concatenate(val_idx))
    if train_idx.size < 1 or val_idx.size < 1:
        raise ValueError("split fractions too small to yield at least one row")

    def _take(idx, suffix):
        return Dataset(
            dataset.features[idx],
            dataset.labels[idx],
            name=f"{dataset.name}_{suffix}",
            seed=dataset.seed,
        )

    return _take(train_idx, "train"), _take(val_idx, "val")
