"""Synthetic datasets, CSV round-tripping and deterministic splits."""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import os
import pickle
import re
import shutil
import signal
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ndcore import softmax

_CSV_BLOCK_ROWS = 4096  # fewest rows per forked range
_FORMAT_CELLS = 1 << 15  # cells per formatted or parsed block, which bound its temporaries
# The bulk parse reads no quotes, so a quoted cell cannot carry a row over a
# line end; a block of lines with one is parsed again a line at a time, which reads them.
_CSV_PARSE = dict(delimiter=",", comments=None, ndmin=2, dtype=np.float64)
# %.17g's exponent form, the one cell form besides -?digits[.digits] the decimal kernel reads
_EXPONENT_CELL = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?e[+-][0-9]+")
# The decimal kernels' tables, made at import: made inside a parse, they stay among its freed
# temporaries and split the heap (gen_eval's peak RSS rose by about 1.4 MB). Parsing: masks as
# (25, 3) words of a 24-byte window, row n keeping its last n bytes and row j + 1 the bytes
# before byte j; 10**k (exact) and 5**k for k <= 22. Formatting: the 4 ASCII digits of each
# c < 10**4 as one word, their trailing zeros, and masks as (18, 5) words keeping 3 pad bytes
# and the first n digits.
_KEEP, _BEFORE = ((rows * np.uint8(255)).astype(np.uint8).view(np.uint64) for rows in (
    np.arange(24) >= 24 - np.arange(25)[:, None], np.arange(24) < np.arange(-1, 24)[:, None]))
_POW10 = np.array([float(10 ** k) for k in range(23)])
_FIVES = np.array([5 ** k for k in range(23)], np.uint64)
_ASCII4 = 48 + np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T)
_ZEROS4 = np.argmin(np.c_[_ASCII4[:, ::-1] == 48, np.zeros(10000, bool)], axis=1).astype("i1")
_ASCII4 = _ASCII4.view("u4")
_LEADING = np.pad(255 * np.tri(18, 17, -1, "u1"), [(0, 0), (3, 0)]).view("u4")


def check_label_rows(labels: np.ndarray) -> None:
    """Raise unless every label row sums to 1 within 1e-9 (a NaN or inf row fails too)."""
    if (~(np.abs(labels.sum(axis=1) - 1.0) <= 1e-9)).any():
        raise ValueError("label rows must sum to 1")


@dataclass(eq=False)
class Dataset:
    features: np.ndarray  # n x d
    labels: np.ndarray    # n x K, rows sum to 1
    name: str = ""

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
        check_label_rows(self.labels)

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

    def rows(self, idx) -> np.ndarray:
        """The feature rows at `idx`: `features[idx]`."""
        return self.features[idx]


class _TrainingPart(Dataset):
    """The rows of `parent` at `index`, read through the parent like a numpy view.

    They are rows of a checked Dataset, so they are not checked again. `features`
    and `labels` are gathered on first use and then kept; `rows` always reads the parent.
    """

    def __init__(self, parent: Dataset, index: np.ndarray, name: str):
        self.parent, self.index, self.name = parent, index, name

    @functools.cached_property
    def features(self) -> np.ndarray:
        return self.parent.features[self.index]

    @functools.cached_property
    def labels(self) -> np.ndarray:
        return self.parent.labels[self.index]

    @property
    def n(self) -> int:
        return self.index.size

    @property
    def dim(self) -> int:
        return self.parent.dim

    def rows(self, idx) -> np.ndarray:
        return self.parent.features.take(self.index.take(idx), 0)


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
    if not (np.isfinite(separation) and separation > 0):
        raise ValueError("separation must be finite and positive")
    if not 0.0 <= label_noise <= 1.0:
        raise ValueError("label_noise must lie in [0, 1]")
    if soft and label_noise > 0:
        raise ValueError("label_noise applies to hard labels only")
    if seed < 0:
        raise ValueError("seed must be >= 0")

    centers = _cluster_centers(k, d, separation)
    rng = np.random.default_rng(seed)
    comp = rng.integers(0, k, size=n)
    x = rng.standard_normal((n, d))
    x += 0.0  # as centers[comp] + x would, with no second n x d array: -0.0 becomes +0.0
    x[np.arange(n), comp] += centers[comp, comp]

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
    return Dataset(x, labels, name=f"blobs_{tag}_n{n}_d{d}_k{k}")


def gen_ood_ring(n: int, d: int, radius: float, seed: int = 0, k: int = 2) -> Dataset:
    """Feature-only samples on a shell far from any training cluster;
    labels are the uninformative uniform distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("radius must be finite and positive")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    labels = np.full((n, k), 1.0 / k)
    return Dataset(v * radius, labels, name=f"ood_ring_r{radius}")


def save_csv(dataset: Dataset, path) -> None:
    """Write `f0..f{d-1},y0..y{K-1}` rows of `%.17g` cells ending in CRLF.

    The rows are split into ranges (see _row_bounds); each forked child sends the
    text of its range back through its pipe, appended in order, so the bytes do not
    depend on the range count and nothing but `path` is written. If anything fails,
    `path` is removed, so no partial table is left."""
    features, labels = dataset.features, dataset.labels
    bounds = _row_bounds(dataset.n)
    with open(path, "wb") as fh:
        try:
            with _children(functools.partial(_send_text, features[a:b], labels[a:b])
                           for a, b in zip(bounds[1:], bounds[2:])) as pipes:
                fh.write((",".join(_header(dataset.dim, dataset.class_count)) + "\r\n").encode())
                _write_rows(fh, features[:bounds[1]], labels[:bounds[1]])
                for pipe in pipes:
                    end = fh.tell() + _receive(pipe)
                    shutil.copyfileobj(pipe, fh, 1 << 20)
                    if fh.tell() != end:
                        raise RuntimeError(f"{path}: a CSV worker process sent a short range")
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def _header(d: int, k: int) -> list:
    """The column names of a dataset CSV: f0..f{d-1}, then y0..y{k-1}."""
    return [f"f{i}" for i in range(d)] + [f"y{j}" for j in range(k)]


def _write_rows(fh, features: np.ndarray, labels: np.ndarray) -> None:
    """Format the rows of [features | labels] into a binary file, one _format_block per
    block of about _FORMAT_CELLS cells; only a block is ever stacked."""
    step = max(1, _FORMAT_CELLS // (features.shape[1] + labels.shape[1]))
    for at in range(0, features.shape[0], step):
        fh.write(_format_block(np.hstack([features[at:at + step], labels[at:at + step]])))


def _halves(v: np.ndarray):
    """Veltkamp's split of v into hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * v  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _scaled(a: np.ndarray, k: np.ndarray):
    """a * 10**k exactly, as p + err with p the rounded product (Dekker's product)."""
    b = np.take(_POW10, k)
    p, (ah, al), (bh, bl) = a * b, _halves(a), _halves(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _digits(a: np.ndarray):
    """(e, words) for 1e-4 <= a < 1e16: a's decimal exponent, and per row 3 pad bytes and the
    ASCII of D = a * 10**(16 - e) rounded half to even, p + rint(err) as the exact product
    p + err has p even (>= 10**16 > 2**53). Trailing zeros after the integer digits are NUL."""
    e = np.floor(np.log10(a)).astype(np.int32)  # one off near a power of ten
    p, err = _scaled(a, 16 - e)
    low, high = (p < 1e16) | ((p == 1e16) & (err < 0)), (p > 1e17) | ((p == 1e17) & (err >= 0))
    if (off := np.flatnonzero(low | high)).size:  # p + err outside [10**16, 10**17), exactly
        e[off] += 2 * high[off] - 1
        p[off], err[off] = _scaled(a[off], 16 - e[off])
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)  # D: no double rounds up to 10**17
    (lead, c3), (c2, c4) = np.divmod(np.array(np.divmod(d, 10 ** 8), np.int32), 10 ** 4)
    d0, c1 = np.divmod(lead, 10 ** 4)
    zeros = np.zeros(a.size, np.int8)
    for c in (c1, c2, c3, c4):
        zeros = np.where(c == 0, zeros + 4, np.take(_ZEROS4, c))
    words = np.hstack([np.take(_ASCII4, c, axis=0) for c in (d0, c1, c2, c3, c4)])
    return e, words & np.take(_LEADING, np.maximum(17 - zeros, e + 1), axis=0)  # + integer digits


def _format_block(block: np.ndarray) -> bytes:
    """The CSV text of `block`'s rows, each cell as `%.17g` writes it: from _digits in fixed
    notation where 1e-4 <= |x| < 1e16, laid out in e order and scattered back to their cells;
    a zero gets its `0`, every other cell one `%` per block. A cell fills a 26-byte slot (sign,
    text, separator); NUL pads are deleted."""
    x = block.ravel()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)
    at = np.flatnonzero(fixed)
    e, words = _digits(a[at])
    order = np.argsort(e.astype(np.int8), kind="stable")  # radix sort: one run of cells per e
    digits = np.take(words, order, axis=0).view(np.uint8)[:, 3:]
    slots = np.zeros((at.size, 26), np.uint8)
    stop = 0
    for v, n in enumerate(np.bincount(e + 4, minlength=20), -4):
        start, stop = stop, stop + n
        g, s = digits[start:stop], slots[start:stop]
        if v >= 0:  # v + 1 integer digits, a point if a digit follows it
            s[:, 1:v + 2] = g[:, :v + 1]
            s[:, v + 3:19] = g[:, v + 1:]
            s[:, v + 2] = (s[:, v + 3] > 0) * np.uint8(46)
        else:  # "0.", -v - 1 zeros, the digits
            s[:, 1], s[:, 2], s[:, 3:2 - v], s[:, 2 - v:19 - v] = 48, 46, 48, g
    cells = np.zeros((x.size, 26), np.uint8)
    cells[at[order]] = slots
    del digits, slots  # freed before the text is copied out
    cells[:, 0] = np.signbit(x) * np.uint8(45)
    cells[x == 0, 1] = 48
    rest = np.flatnonzero(~fixed & (x != 0))
    text = ("%-24.17g" * rest.size) % tuple(x[rest].tolist())
    cells[rest, :24] = np.frombuffer(text.replace(" ", "\0").encode(), np.uint8).reshape(-1, 24)
    out = cells.reshape(block.shape + (26,))
    out[:, :-1, 24], out[:, -1, 24:] = 44, (13, 10)
    return out.tobytes().translate(None, b"\0")


def _send_text(features: np.ndarray, labels: np.ndarray):
    """A child's job: the text _write_rows makes of the rows, with its length."""
    _write_rows(text := io.BytesIO(), features, labels)
    return text.tell(), text.getbuffer()


def load_csv(path) -> Dataset:
    """Read a dataset written by save_csv; errors name the file and the 1-based line.

    The body is cut at line ends into ranges (see _row_bounds), parsed in
    forked children and gathered in order. Each range is read once, in
    blocks of whole lines (see _parse_rows). A numpy decimal kernel reads a
    block whose lines end in \\n or \\r\\n and hold d + K cells, each
    `-?digits[.digits]` of at most 24 bytes with fewer than 19 significant
    digits, or in `%.17g`'s exponent form (read by float()): every cell
    save_csv writes. From the first block it declines, or whose rows fail
    the checks, _parse_lines reads the range, and the kernel reads exactly
    the doubles np.loadtxt reads. The first bad line of the first range
    with one is named, numbered from the lines of the ranges before it, so
    rows and messages do not depend on the cuts.
    """
    with open(path, "r", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        line = fh.readline()
    header = next(csv.reader([line]), None) if line else None
    if header is None:
        raise ValueError(f"{path}: no data rows")
    d = sum(1 for h in header if h.startswith("f"))
    k = len(header) - d
    if d < 1 or k < 2 or header != _header(d, k):
        raise ValueError(f"{path}: header must be f0..f{{d-1}},y0..y{{K-1}}")
    table = _load_body(path, len(line.encode("utf-8")), d, k)
    if table.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    return Dataset(table[:, :d], table[:, d:], name=str(path))


def _load_body(path, start: int, d: int, k: int) -> np.ndarray:
    """The checked rows from byte `start` on; ValueError naming the first bad
    line of the first range that has one."""
    cuts = _body_cuts(path, start)
    jobs = [functools.partial(_send_rows, path, a, b, d, k) for a, b in zip(cuts[1:], cuts[2:])]
    with _children(jobs) as pipes:
        lines, counts = 0, []  # lines: in the ranges gathered so far
        try:
            table, lines = _parse_rows(path, cuts[0], cuts[1], d, k)
            for pipe in pipes:
                count, more = _receive(pipe)
                counts.append(count)
                lines += more
        except _BadLine as bad:
            index, message = bad.args
            raise ValueError(f"{path}: line {2 + lines + index}: {message}") from None
        rows = table.shape[0]
        if counts:
            # grow in place (the array is fresh from the parse, so no view of it
            # exists) and read each child's rows straight into their place
            table.resize((rows + sum(counts), d + k), refcheck=False)
            for pipe, count in zip(pipes, counts):
                view = memoryview(table[rows:rows + count]).cast("B")
                if pipe.readinto(view) != view.nbytes:
                    raise RuntimeError(f"{path}: a CSV worker process sent a short range")
                rows += count
    return table


def _body_cuts(path, start: int) -> list:
    """Byte offsets [start, ..., size] cutting the body just after `\\n`s
    into ranges, their count from the rows per byte of the first 64 KiB."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fh.seek(start)
        sample = fh.read(1 << 16)
        bounds = _row_bounds((size - start) * sample.count(b"\n") // max(len(sample), 1))
        cuts = [start]
        for b in bounds[1:-1]:
            fh.seek(max(start + (size - start) * b // bounds[-1] - 1, cuts[-1]))
            fh.readline()
            cuts.append(fh.tell())
    return cuts[:1] + sorted(set(cuts[1:]) | {size})


def _parse_rows(path, start: int, stop: int, d: int, k: int):
    """(rows, lines) of bytes [start, stop), read once in blocks of about
    _FORMAT_CELLS cells cut after a line end, in one buffer: 24 pad bytes, so
    that every cell's 24-byte window lies inside it, then the block. A `\\r`
    that is the buffer's last byte may start a `\\r\\n`, so no cut follows it
    while bytes remain; a buffer with no line end doubles. The decimal kernel
    reads each block (a last line without a line end is ended for it) up to
    the first it declines or whose rows fail the checks; _parse_lines reads
    that block and the rest. The kernel reads the values np.loadtxt reads, and
    only blocks whose lines are rows, so rows and line numbers do not depend
    on which of the two reads a block."""
    w = d + k
    cap = max(16 * _FORMAT_CELLS, 25 * w + 1)
    buf = bytearray(24 + cap + 1)
    table, rows, lines, done, held, left = np.empty((0, w)), 0, 0, 0, 0, stop - start
    kernel = True
    with open(path, "rb") as raw:
        raw.seek(start)
        while held or left:
            if held == cap:
                buf, cap = buf + bytes(cap), 2 * cap
            with memoryview(buf) as view:
                got = raw.readinto(view[24 + held:24 + min(cap, held + left)])
            left = left - got if got else 0
            size = held + got
            end = max(buf.rfind(b"\n", 24, 24 + size),
                      buf.rfind(b"\r", 24, 23 + size)) - 23 if left else size
            if end <= 0:  # no line end yet: read on, into a doubled buffer if this one is full
                held = size
                continue
            if kernel:
                buf[24 + size] = 10  # past the held bytes: a last line's end, for the kernel
                try:
                    block = _decimal_block(buf, end + (not left and buf[23 + end] != 10), w)
                    block, count = _checked_rows(block, d, k), block.shape[0]
                except ValueError:
                    kernel = False
            if not kernel:
                block, count = _parse_lines(buf[24:24 + end], lines, d, k)
            need, lines, done = rows + block.shape[0], lines + count, done + end
            if need > table.shape[0]:  # room for the range at the rows per byte so far, 1/16 more
                grown = np.empty((max(need, need * (stop - start) * 17 // (16 * done)), w))
                grown[:rows] = table[:rows]
                table = grown
            table[rows:need], rows = block, need
            held = size - end
            buf[24:24 + held] = buf[24 + end:24 + size]
    table.resize((rows, w), refcheck=False)  # in place; no view of it exists
    return table, lines


def _bulk_rows(lines: list, d: int, k: int) -> np.ndarray:
    """The rows of one np.loadtxt call over `lines`, as _checked_rows passes them."""
    with warnings.catch_warnings():  # a run of blank lines has no rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(lines, **_CSV_PARSE)
    return _checked_rows(table, d, k)


def _checked_rows(table: np.ndarray, d: int, k: int) -> np.ndarray:
    """`table`; ValueError unless each row has d + k cells, finite features and
    a label row summing to 1. A table of no rows passes as (0, d + k)."""
    if table.shape[0] == 0:
        return np.empty((0, d + k))
    if table.shape[1] != d + k or not np.isfinite(table[:, :d]).all():
        raise ValueError
    check_label_rows(table[:, d:])
    return table


def _decimal_block(buf: bytearray, size: int, w: int) -> np.ndarray:
    """The (rows, w) values of the whole lines in buf[24:24 + size], each
    value exactly the double np.loadtxt reads; ValueError unless
    every line is w cells, each `-?digits[.digits]` with digits on both sides
    of the point, at most 24 bytes and a significand m below 10**18, or in
    %.17g's exponent form, which float() reads as np.loadtxt does. Lines end
    at \\n or \\r\\n.

    Every byte must be a digit, one of `+,-./` but `/`, an `e`, a line end or
    a \\r before one; a `-` after a cell's first byte or a `+` must sit in an
    exponent cell. A cell's window is its last 24 bytes as three
    little-endian words. Its highest point is found from the window's `.`
    bytes, and the bytes before it move up one, over the point; the digits
    left, masked to the cell, give m by SWAR multiplies (eight digits a
    word), and the point's place gives the power of ten k. y = m / 10**k is
    correctly rounded where m <= 2**53. Else y = RN(RN(m) / 10**k) lies less
    than 1.5 units in the last place from m / 10**k, as 10**k is no power of
    two for k >= 1, so one _ulps_off step makes it the nearest double.
    """
    b = np.frombuffer(buf, np.uint8)
    data = b[24:24 + size]
    ends = np.flatnonzero((data == 44) | (data == 10)) + 24  # a cell ends at its separator
    rows = ends.size // w
    lines = ends[w - 1::w]
    if (not rows or ends.size != rows * w or not (b[lines] == 10).all()
            or np.count_nonzero(data == 10) != rows):  # no rows: lone \r line ends only
        raise ValueError
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 24, ends[:-1] + 1
    cr = b[lines - 1] == 13
    n_cr, n_exp = np.count_nonzero(cr), np.count_nonzero(data == 101)
    n_ascii = np.count_nonzero(np.subtract(data, np.uint8(43)) < np.uint8(15))  # +,-./0-9
    if n_ascii - np.count_nonzero(data == 47) + rows + n_cr + n_exp != size:
        raise ValueError
    lines -= cr  # or at the \r before its line end
    length = ends - starts
    if length.min() < 1 or length.max() > 24:
        raise ValueError
    neg = b[starts] == 45
    n_minus = np.count_nonzero(data == 45) - np.count_nonzero(neg)
    n_plus = np.count_nonzero(data == 43)
    window = np.ndarray((b.size - 23,), "V24", b, 0, (1,))  # window i: bytes i..i+23
    words = window[ends - 24].view(np.uint64).reshape(-1, 3)
    dots = (words.view(np.uint8) == 46).view(np.uint64)  # 1 in each `.` byte
    mask = (dots * np.uint64(0x0102040810204080)) >> np.uint64(56)  # its 8 bytes as 8 bits
    bits = (mask[:, 0] | (mask[:, 1] << np.uint64(8)) | (mask[:, 2] << np.uint64(16))).view(np.int64)
    bits &= (1 << 24) - (1 << (24 - length))  # the cell's own bytes
    point = np.maximum((bits.astype(np.float64).view(np.int64) >> 52) - 1023, -1)  # -1: none
    has_point = point >= 0
    n_digits = length - neg - has_point
    lead = words & np.take(_BEFORE, point + 1, axis=0)
    words ^= lead  # the point and the bytes after it
    words ^= dots * np.uint64(0x2E)  # the point's byte becomes 0
    flat = words.view(np.uint8).reshape(-1)
    flat[1:] |= lead.view(np.uint8).reshape(-1)[:-1]  # up one byte; a window's last lead byte is 0
    words &= np.take(_KEEP, n_digits, axis=0)
    value = _swar_digits(words)
    del mask, dots, lead, flat, words  # the block's largest temporaries, freed before the division
    good = (((bits & (bits - 1)) == 0) & (n_digits >= 1) & (value[:, 0] < 100)
            & (~has_point | ((point < 23) & (point > 24 - length + neg))))
    m = (value[:, 0] * np.uint64(10 ** 16) + value[:, 1] * np.uint64(10 ** 8)
         + value[:, 2]).view(np.int64)
    del value
    k = np.where(has_point & good, 23 - point, 0)
    y = m.astype(np.float64) / np.take(_POW10, k)
    y.view(np.int64)[:] += _ulps_off(m, k, y) * (good & (m > 1 << 53))
    y.view(np.uint64)[:] |= neg.astype(np.uint64) << np.uint64(63)
    if n_exp:
        at, found = 24, []
        while (at := buf.find(b"e", at, 24 + size) + 1) > 0:
            found.append(at - 1)
        for i in dict.fromkeys(np.searchsorted(ends, found, side="right").tolist()):
            cell = buf[starts[i]:ends[i]]
            if not _EXPONENT_CELL.fullmatch(cell):
                raise ValueError
            y[i], good[i] = float(cell), True
            n_minus -= cell.count(b"-", 1)
            n_plus -= cell.count(b"+")
    if n_minus or n_plus or not good.all():
        raise ValueError
    return y.reshape(rows, w)


def _swar_digits(words: np.ndarray) -> np.ndarray:
    """The value of each word's 8 ASCII digits, the first in its low byte (a 0
    byte reads as 0): pairs, then fours, then eights, by multiplies (Lemire)."""
    words = words & np.uint64(0x0F0F0F0F0F0F0F0F)
    words = words * np.uint64(10) + (words >> np.uint64(8))
    fours = np.uint64(0x000000FF000000FF)
    return ((words & fours) * np.uint64(100 + (1000000 << 32))
            + ((words >> np.uint64(16)) & fours) * np.uint64(1 + (10000 << 32))) >> np.uint64(32)


def _ulps_off(m: np.ndarray, k: np.ndarray, y: np.ndarray) -> np.ndarray:
    """+1 where m / 10**k (0 < m < 2**63) rounds to nearest, ties to even, above
    the double y > 0 next to it, -1 below, else 0 (int8).

    With y = Y * 2**(t - k) (Y the 53-bit significand), the residual is
    r = m - y * 10**k = m - Y * 5**k * 2**t. Scaled by 4 * 2**max(-t, 0) it is
    the integer x, and half the gap to the next double up is 5**k *
    2**(1 + max(t, 0)) (half that below a power of two). |x| < 2**63 near y,
    so x is exact though its terms wrap mod 2**64 (Clinger's exact test).
    """
    bits = y.view(np.int64)
    t = (bits >> 52) + (k - 1075)
    sig = (bits & ((1 << 52) - 1)) | (1 << 52)
    five = np.take(_FIVES, k)
    up = np.maximum(t, 0)
    x = ((m.view(np.uint64) << (up - t + 2).view(np.uint64))
         - ((sig.view(np.uint64) * five) << (up + 2).view(np.uint64))).view(np.int64)
    half = (five << (up + 1).view(np.uint64)).view(np.int64)
    below = half >> (sig == 1 << 52)
    odd = (sig & 1).astype(bool)
    return (((x > half) | ((x == half) & odd)).view(np.int8)
            - ((x < -below) | ((x == -below) & odd)).view(np.int8))


class _BadLine(Exception):
    """args: (the bad line's index from its range's first line, what is wrong)."""


def _parse_lines(text: bytes, first: int, d: int, k: int):
    """(rows, lines) of the lines in `text`, the rows as a parse of one line at
    a time reads them, cells maybe quoted; groups of lines the bulk parse
    accepts are taken whole, a group ending at the first line that takes it
    past 16 KiB. Lines end at `\\r\\n`, `\\r` or `\\n`; a byte that is not UTF-8
    reads as a lone surrogate. _BadLine at the first line this rejects,
    numbered `first` plus its place in `text`."""
    lines = [line.decode("utf-8", "surrogateescape") for line in text.splitlines(keepends=True)]
    ends = np.cumsum([len(line) for line in lines], dtype=np.int64)
    blocks, at = [], 0
    while at < len(lines):
        stop = int(np.searchsorted(ends, ends[at] - len(lines[at]) + (1 << 14), "right")) + 1
        group = lines[at:stop]
        try:
            blocks.append(_bulk_rows(group, d, k))
        except ValueError:
            blocks.extend(_line_row(line, first + at + i, d, k) for i, line in enumerate(group))
        at = stop
    return (np.concatenate(blocks) if blocks else np.empty((0, d + k))), len(lines)


def _line_row(line: str, index: int, d: int, k: int) -> np.ndarray:
    """Line `index` of a range as a 1-row table (0 rows if blank); _BadLine if bad."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise _BadLine(index, "not valid UTF-8") from None
    try:
        cells = next(csv.reader([line]), [])
    except csv.Error as exc:  # a cell past the csv module's field size limit
        try:  # a line the bulk parse takes, which reads no quotes, is still a row
            return _bulk_rows([line], d, k)
        except ValueError:
            raise _BadLine(index, str(exc)) from None
    if not cells:
        return np.empty((0, d + k))
    if len(cells) != d + k:
        raise _BadLine(index, f"expected {d + k} columns, got {len(cells)}")
    try:
        values = np.loadtxt([line], quotechar='"', **_CSV_PARSE)
    except ValueError:
        raise _BadLine(index, "non-numeric cell") from None
    if not np.isfinite(values[:, :d]).all():
        raise _BadLine(index, "non-finite cell")
    try:
        check_label_rows(values[:, d:])
    except ValueError:
        raise _BadLine(index, "label row does not sum to 1") from None
    return values


def _send_rows(path, start: int, stop: int, d: int, k: int):
    table, lines = _parse_rows(path, start, stop, d, k)
    return (table.shape[0], lines), memoryview(table).cast("B")


def _row_bounds(rows: int) -> list:
    """[0, ..., rows] splitting rows into contiguous ranges: one per usable
    CPU, each at least _CSV_BLOCK_ROWS rows; one where the platform lacks
    fork or a CPU affinity call."""
    parts = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        parts = max(1, min(len(os.sched_getaffinity(0)), rows // _CSV_BLOCK_ROWS))
    return [rows * i // parts for i in range(parts + 1)]


@contextlib.contextmanager
def _children(jobs):
    """Fork one child per job and yield the read ends of their pipes, in
    order; on leaving, close every pipe and reap every child. If the caller
    raises, no result is wanted, so every child is killed before it is
    reaped rather than left to finish its range."""
    kids = []
    try:
        for job in jobs:
            kids.append(_fork(job, [pipe for _, pipe in kids]))
        yield [pipe for _, pipe in kids]
    except BaseException:
        for pid, _ in kids:
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so the pid is still this child's
        raise
    finally:
        for pid, pipe in kids:
            pipe.close()  # a child still writing gets EPIPE and exits
            os.waitpid(pid, 0)


def _fork(job, siblings):
    """Run job() in a forked child; return its pid and the read end of a
    pipe carrying the pickled (exception or None, first of job's result),
    then the bytes of its second. The child closes its copies of the
    `siblings` pipes, so closing one in the parent stops its writer."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    try:  # the child leaves only through os._exit, never back into the caller
        os.close(r)
        for pipe in siblings:
            pipe.close()
        with open(w, "wb") as out:
            try:
                meta, payload = job()
                reply = (None, meta)
            except BaseException as exc:
                reply, payload = (exc, None), b""
            try:
                blob = pickle.dumps(reply)
            except Exception:  # an exception that does not pickle travels as its text
                blob = pickle.dumps((RuntimeError(repr(reply[0])), None))
            out.write(blob)
            out.write(payload)
    finally:
        os._exit(0)


def _receive(pipe):
    """A child's result, or its exception raised here."""
    try:
        exc, meta = pickle.load(pipe)
    except EOFError:
        raise RuntimeError("a CSV worker process exited without a result") from None
    if exc is not None:
        raise exc
    return meta


def split(dataset: Dataset, spec: SplitSpec):
    """Stratified, seeded train/validation split.

    Per-class row counts go to the training part in proportion
    train_fraction (rounded); when the fractions sum to 1 the
    validation part takes everything else, so the union preserves
    all rows. The validation part is a copy of its rows; the training
    part reads `dataset`'s arrays, so changing them changes it.
    """
    rng = np.random.default_rng(spec.seed)
    classes = dataset.class_indices()
    train_idx, val_idx = [], []
    exhaustive = abs(spec.train_fraction + spec.val_fraction - 1.0) <= 1e-12
    for c in np.flatnonzero(np.bincount(classes)):
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

    val = Dataset(dataset.features[val_idx], dataset.labels[val_idx], name=f"{dataset.name}_val")
    return _TrainingPart(dataset, train_idx, f"{dataset.name}_train"), val
