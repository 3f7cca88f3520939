"""Dataset generation, CSV round-trips and stratified splits."""

import csv
import io
import math
import os
import re
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidential import data
from evidential.data import (
    Dataset,
    SplitSpec,
    gen_blobs,
    gen_ood_ring,
    load_csv,
    mixture_posterior,
    save_csv,
    split,
)


class TestDataset:
    def test_rejects_bad_label_sums(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Dataset(np.zeros((2, 3)), [[0.7, 0.2], [0.5, 0.5]])

    @pytest.mark.parametrize("row", [[np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]])
    def test_rejects_non_finite_label_rows(self, row):
        with pytest.raises(ValueError, match="sum to 1"):
            Dataset([[1.0]], [row])

    def test_label_sum_tolerance_is_1e_9(self):
        assert Dataset([[1.0]], [[0.5, 0.5 + 5e-10]]).n == 1
        with pytest.raises(ValueError, match="sum to 1"):
            Dataset([[1.0]], [[0.5, 0.5 + 1e-7]])

    def test_rejects_nan_features(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset([[np.nan, 0.0]], [[1.0, 0.0]])

    @pytest.mark.parametrize("features, labels", [
        (np.zeros((2, 2, 1)), [[1.0, 0.0], [0.0, 1.0]]), (np.zeros((2, 2)), [1.0, 0.0]),
    ], ids=["features_3d", "labels_1d"])
    def test_rejects_arrays_not_2d(self, features, labels):
        with pytest.raises(ValueError) as err:
            Dataset(features, labels)
        assert str(err.value) == "features and labels must be 2-D"

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="row counts"):
            Dataset(np.zeros((3, 2)), np.tile([1.0, 0.0], (2, 1)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one row"):
            Dataset(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_accepts_soft_labels(self):
        ds = Dataset(np.zeros((2, 2)), [[0.3, 0.7], [0.5, 0.5]])
        assert ds.class_count == 2
        assert list(ds.class_indices()) == [1, 0]

    def test_features_only_flag(self):
        uniform = Dataset(np.zeros((2, 2)), np.full((2, 3), 1.0 / 3.0))
        onehot = Dataset(np.zeros((2, 2)), [[1.0, 0.0], [0.0, 1.0]])
        assert uniform.features_only
        assert not onehot.features_only


class TestGenBlobs:
    def test_shapes_and_onehot(self):
        ds = gen_blobs(50, 4, 3, separation=2.0, seed=1)
        assert ds.features.shape == (50, 4)
        assert ds.labels.shape == (50, 3)
        assert np.all(np.isin(ds.labels, (0.0, 1.0)))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            gen_blobs(0, 2, 2, 1.0)
        with pytest.raises(ValueError):
            gen_blobs(10, 2, 1, 1.0)
        with pytest.raises(ValueError):
            gen_blobs(10, 2, 2, 0.0)
        with pytest.raises(ValueError):
            gen_blobs(10, 2, 2, 1.0, label_noise=1.5)
        with pytest.raises(ValueError):
            gen_blobs(10, 1, 2, 1.0)  # k > d has no distinct corners
        with pytest.raises(ValueError, match="hard labels only"):
            gen_blobs(10, 2, 2, 1.0, label_noise=0.1, soft=True)
        for separation in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="separation must be finite and positive"):
                gen_blobs(10, 2, 2, separation)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            gen_blobs(10, 2, 2, 1.0, seed=-1)

    def test_separation_is_pairwise_center_distance(self):
        ds = gen_blobs(10, 5, 3, separation=4.0, seed=0)
        del ds  # construction must not raise; distance checked directly:
        from evidential.data import _cluster_centers

        centers = _cluster_centers(3, 5, 4.0)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(centers[i] - centers[j]) == pytest.approx(4.0)

    def test_wide_separation_is_linearly_separable(self):
        # With centers 10 apart and unit-variance clusters, scoring by the
        # coordinate difference (a fixed linear rule) must give AUC > 0.99.
        from evidential.metrics import roc_auc

        ds = gen_blobs(1000, 2, 2, separation=10.0, seed=3)
        w = np.array([-1.0, 1.0])  # points toward the class-1 center
        auc = roc_auc(ds.features @ w, ds.class_indices())
        assert auc > 0.99

    def test_soft_labels_match_posterior(self):
        ds = gen_blobs(500, 3, 2, separation=2.0, soft=True, seed=7)
        from evidential.data import _cluster_centers

        centers = _cluster_centers(2, 3, 2.0)
        # independent recomputation of the mixture posterior
        d2 = ((ds.features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        w = np.exp(-0.5 * (d2 - d2.min(axis=1, keepdims=True)))
        expected = w / w.sum(axis=1, keepdims=True)
        assert np.max(np.abs(ds.labels - expected)) < 1e-9

    def test_soft_label_equidistant_point(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0]])
        post = mixture_posterior(np.array([[0.5, 0.5]]), centers)
        assert post[0] == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_determinism(self):
        a = gen_blobs(100, 3, 2, 2.0, label_noise=0.2, seed=11)
        b = gen_blobs(100, 3, 2, 2.0, label_noise=0.2, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_noise_leaves_features_unchanged(self):
        clean = gen_blobs(200, 3, 2, 2.0, label_noise=0.0, seed=5)
        noisy = gen_blobs(200, 3, 2, 2.0, label_noise=0.3, seed=5)
        assert np.array_equal(clean.features, noisy.features)
        assert not np.array_equal(clean.labels, noisy.labels)

    def test_noise_rate_is_approximately_honored(self):
        clean = gen_blobs(20000, 3, 2, 2.0, label_noise=0.0, seed=5)
        noisy = gen_blobs(20000, 3, 2, 2.0, label_noise=0.1, seed=5)
        flipped = np.mean(clean.class_indices() != noisy.class_indices())
        assert abs(flipped - 0.1) < 0.01

    @pytest.mark.parametrize("k, d", [(2, 2), (3, 7)])
    def test_features_are_centers_plus_draws_bit_for_bit(self, monkeypatch, k, d):
        # centers[comp] + z, signed zeros included: 0.0 + -0.0 is +0.0
        real, draws = np.random.default_rng, {}

        class Draws:
            def __init__(self, seed):
                self.rng = real(seed)

            def integers(self, *args, **kwargs):
                draws["comp"] = self.rng.integers(*args, **kwargs)
                return draws["comp"]

            def standard_normal(self, shape):
                z = self.rng.standard_normal(shape)
                edges = [0.0, -0.0, 5e-324, -5e-324, -2.0 / math.sqrt(2.0)]
                z[::3] = self.rng.choice(edges, size=z[::3].shape)
                z[:4] = -0.0
                draws["z"] = z.copy()
                return z

        monkeypatch.setattr(np.random, "default_rng", Draws)
        ds = gen_blobs(300, d, k, 2.0, seed=4)
        want = data._cluster_centers(k, d, 2.0)[draws["comp"]] + draws["z"]
        assert np.array_equal(ds.features.view(np.int64), want.view(np.int64))

    def test_adds_the_centers_in_place(self):
        gen_blobs(10, 50, 2, 2.0, label_noise=0.1, seed=0)
        tracemalloc.start()
        try:
            gen_blobs(20_000, 50, 2, 2.0, label_noise=0.1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 8 MB feature matrix and some row vectors; a second 20k x 50 array would
        # take the peak past 16 MB
        assert peak < 1.5 * 20_000 * 50 * 8

    def test_noise_flips_to_different_class(self):
        clean = gen_blobs(5000, 4, 3, 2.0, label_noise=1.0, seed=2)
        base = gen_blobs(5000, 4, 3, 2.0, label_noise=0.0, seed=2)
        assert np.all(clean.class_indices() != base.class_indices())


class TestGenOodRing:
    def test_uniform_labels_and_radius(self):
        ds = gen_ood_ring(100, 5, radius=50.0, seed=0, k=3)
        assert ds.features_only
        norms = np.linalg.norm(ds.features, axis=1)
        assert np.max(np.abs(norms - 50.0)) < 1e-9

    def test_param_validation(self):
        with pytest.raises(ValueError):
            gen_ood_ring(0, 2, 1.0)
        with pytest.raises(ValueError):
            gen_ood_ring(10, 2, 0.0)
        with pytest.raises(ValueError, match="d must be >= 1"):
            gen_ood_ring(10, 0, 1.0)
        for radius in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="radius must be finite and positive"):
                gen_ood_ring(10, 2, radius)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            gen_ood_ring(10, 2, 1.0, seed=-1)

    def test_determinism(self):
        a = gen_ood_ring(30, 4, 10.0, seed=9)
        b = gen_ood_ring(30, 4, 10.0, seed=9)
        assert np.array_equal(a.features, b.features)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = gen_blobs(100, 2, 2, 3.0, seed=4)
        path = tmp_path / "blobs.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.max(np.abs(back.features - ds.features)) < 1e-12
        assert np.array_equal(back.labels, ds.labels)

    def test_round_trip_soft(self, tmp_path):
        ds = gen_blobs(40, 3, 2, 1.5, soft=True, seed=4)
        path = tmp_path / "soft.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.max(np.abs(back.labels - ds.labels)) < 1e-12

    def test_same_seed_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(gen_blobs(50, 2, 2, 2.0, seed=8), p1)
        save_csv(gen_blobs(50, 2, 2, 2.0, seed=8), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,y0,y1\n1,2,1,0\n1,2,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,y0,y1\n1,1,0\nx,0,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("f0,y0,y1\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_out_of_order_columns_rejected(self, tmp_path):
        # read by count alone, y1,y0 would load with every class flipped
        path = tmp_path / "swapped.csv"
        path.write_text("f0,f1,y1,y0\n1,2,1,0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_label_row_not_summing_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,y0,y1\n1,1,0\n2,0.6,0.6\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)


def reference_save_csv(dataset, path):
    """The csv.writer form of save_csv, one formatted cell at a time: the
    byte-for-byte reference for the block-formatted writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.dim)]
                        + [f"y{j}" for j in range(dataset.class_count)])
        for xrow, yrow in zip(dataset.features, dataset.labels):
            writer.writerow([format(v, ".17g") for v in xrow]
                            + [format(v, ".17g") for v in yrow])


RANGED_ROWS = 2 * data._CSV_BLOCK_ROWS + 7
RANGE_CASES = [1, 2, 3]


HOSTILE = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1 + 0.2, 1 / 3, -2.5e-7, 1e16]


def _hostile_datasets():
    rng = np.random.default_rng(11)
    block = data._CSV_BLOCK_ROWS
    wide = np.array(HOSTILE)[None, :]
    soft = rng.dirichlet([0.5, 0.5, 0.5], size=2 * block + 3)
    return {
        "hostile_row": Dataset(wide, [[1 / 3, 1 / 3, 1 / 3]]),
        "d1_n1": Dataset([[-0.0]], [[0.1 + 0.2, 1 - (0.1 + 0.2)]]),
        "d1_hostile_column": Dataset(wide.T, np.tile([0.5, 0.5], (wide.size, 1))),
        "soft_over_two_blocks": Dataset(
            rng.choice([1.0, -1.0], size=soft.shape[:1] + (2,))
            * rng.choice(HOSTILE, size=soft.shape[:1] + (2,)),
            soft,
        ),
        "exactly_one_block": gen_blobs(block, 3, 2, 2.0, soft=True, seed=5),
        # enough rows for 3 forced ranges; exponent notation in the features or labels
        "blobs_sep_1e300": gen_blobs(RANGED_ROWS, 3, 2, 1e300, seed=6),
        "ring_radius_1e-30": gen_ood_ring(RANGED_ROWS, 3, 1e-30, seed=7),
        "soft_k3_sep6": gen_blobs(RANGED_ROWS, 3, 3, 6.0, soft=True, seed=8),
    }


HOSTILE_DATASETS = _hostile_datasets()


class TestCsvFormat:
    @pytest.mark.parametrize("name", list(HOSTILE_DATASETS))
    def test_bytes_match_reference_writer(self, tmp_path, name):
        ds = HOSTILE_DATASETS[name]
        save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("name", list(HOSTILE_DATASETS))
    def test_round_trip_is_bit_identical(self, tmp_path, name):
        ds = HOSTILE_DATASETS[name]
        save_csv(ds, tmp_path / "d.csv")
        back = load_csv(tmp_path / "d.csv")
        assert np.array_equal(back.features.view(np.int64), ds.features.view(np.int64))
        assert np.array_equal(back.labels.view(np.int64), ds.labels.view(np.int64))

    @pytest.mark.parametrize("name", list(HOSTILE_DATASETS))
    def test_decimal_kernel_reads_what_save_csv_writes(self, tmp_path, name):
        ds = HOSTILE_DATASETS[name]
        save_csv(ds, tmp_path / "d.csv")
        text = (tmp_path / "d.csv").read_bytes()
        start = text.index(b"\n") + 1
        table = _kernel_table(tmp_path / "d.csv", start, len(text), ds.dim, ds.class_count)
        assert table is not None
        want = np.hstack([ds.features, ds.labels])
        assert np.array_equal(table.view(np.int64), want.view(np.int64))

    def test_exponent_heavy_table_bytes_match_reference_writer(self, tmp_path):
        # 31% of cells in exponent notation: only the others go through _digits
        ds = gen_blobs(20000, 3, 3, 6.0, soft=True, seed=8)
        save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_stacks_one_block_at_a_time(self, tmp_path):
        ds = gen_blobs(150_000, 10, 2, 2.0, seed=1)
        tracemalloc.start()
        try:
            save_csv(ds, tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's work arrays take about 6 MB; the stacked table alone is 14.4 MB
        assert peak < ds.n * 12 * 8 / 2

    def test_block_without_fixed_notation_cells(self):
        rows = np.array([[0.0, -0.0, 1e300, -5e-324], [1e16, -2.5e-7, 0.0, np.inf]])
        out = io.BytesIO()
        data._write_rows(out, rows[:, :2], rows[:, 2:])
        assert out.getvalue() == b"".join(
            (",".join(format(v, ".17g") for v in row) + "\r\n").encode() for row in rows)


def _float(sign, exponent, mantissa):
    return float(np.array((sign << 63) | (exponent << 52) | mantissa, np.uint64).view(np.float64))


def _near_power_of_ten(k, steps):
    v = float(f"1e{k}")
    for _ in range(abs(steps)):
        v = float(np.nextafter(v, np.inf if steps > 0 else 0.0))
    return v


def _tie(j, i, sign):
    """sign * q * 2**-(j + 1) with q odd and q * 5**j in [2e16, 2e17): times 10**j it is
    D + 1/2 for a 17-digit D, an exact tie at the 18th significant digit."""
    lo, hi = -(-2 * 10 ** 16 // 5 ** j), min(2 * 10 ** 17 // 5 ** j, 1 << 53)
    return sign * ((lo + i % (hi - lo)) | 1) * 2.0 ** -(j + 1)


# Float64 cells the CSV writer must print as format(v, ".17g") does.
KERNEL_CELLS = st.one_of(
    st.builds(_float, st.integers(0, 1), st.integers(0, 2047), st.integers(0, (1 << 52) - 1)),
    # exponents of the fixed-notation range 1e-4 <= |v| < 1e16, and just beyond it
    st.builds(_float, st.integers(0, 1), st.integers(1005, 1080), st.integers(0, (1 << 52) - 1)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
    st.builds(_float, st.integers(0, 1), st.just(0), st.integers(1, (1 << 52) - 1)),  # subnormal
    st.builds(_near_power_of_ten, st.integers(-6, 18), st.integers(-2, 2)),
    st.builds(_tie, st.integers(1, 22), st.integers(0, 1 << 60), st.sampled_from([1, -1])),
    st.builds(lambda base, step, sign: sign * float(base + step),
              st.sampled_from([1 << 53, 10 ** 16, 10 ** 17]), st.integers(-40, 40),
              st.sampled_from([1, -1])),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(
    lambda cols: st.lists(st.lists(KERNEL_CELLS, min_size=cols, max_size=cols),
                          min_size=1, max_size=30)))
def test_writer_prints_every_cell_as_format_17g(rows):
    """Blocks of 24 cells put block ends inside most tables drawn."""
    out = io.BytesIO()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(data, "_FORMAT_CELLS", 24)
        table = np.array(rows, dtype=np.float64)
        data._write_rows(out, table[:, :1], table[:, 1:])
    lines = out.getvalue().split(b"\r\n")
    assert lines.pop() == b""
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert line == ",".join(format(v, ".17g") for v in row).encode(), row


def _kernel_reads(cell: bytes) -> bool:
    """Whether the decimal kernel must read `cell` itself: at most 24 bytes of
    `-?digits[.digits]` with a significand below 10**18, or of %.17g's
    exponent form."""
    fixed = re.fullmatch(rb"-?([0-9]+)(?:\.([0-9]+))?", cell)
    if fixed:
        return len(cell) <= 24 and int(fixed[1] + (fixed[2] or b"")) < 10 ** 18
    return len(cell) <= 24 and re.fullmatch(rb"-?[0-9]+(?:\.[0-9]+)?e[+-][0-9]+", cell) is not None


class _Declined(Exception):
    """Raised by _kernel_table's stand-in for _parse_lines."""


def _declined(*args):
    raise _Declined


def _kernel_table(path, start, stop, d, k):
    """_parse_rows's rows of bytes [start, stop) if the decimal kernel reads
    every block, else None (_parse_lines is stood in for by a raise)."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(data, "_parse_lines", _declined)
        try:
            return data._parse_rows(path, start, stop, d, k)[0]
        except _Declined:
            return None


def _declined_by_kernel(buf, size, w):
    raise ValueError


def _kernel_values(cells, ended=True):
    """The decimal kernel's values of `cells`, two a line, lines ending in \\n
    and \\r\\n by turns and the last one maybe in none; None if it declines.
    Blocks hold one line or two, so most lines cross a block end."""
    n = len(cells)
    cells = list(cells) + [b"0"] * (n % 2)
    body = b"".join(b",".join(cells[i:i + 2]) + (b"\r\n" if i % 4 else b"\n")
                    for i in range(0, len(cells), 2))
    if not ended:
        body = body.rstrip(b"\r\n")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        path = Path(tmp) / "body"
        path.write_bytes(body)
        m.setattr(data, "_FORMAT_CELLS", 1)
        m.setattr(data, "_checked_rows", lambda table, d, k: table)  # cells carry no labels
        table = _kernel_table(path, 0, len(body), 1, 1)
    return None if table is None else table.ravel()[:n]


def _digit_cell(neg, digits, zeros, point):
    """`-`? then `zeros` leading zeros and `digits`, the last `point` digits
    after a point (0: no point), a 0 before the point if nothing else is."""
    text = ("0" * zeros + digits).rjust(point + 1, "0")
    if point:
        text = text[:-point] + "." + text[-point:]
    return ("-" * neg + text).encode()


def _fixed_cell(n: int, places: int) -> bytes:
    """n * 10**-places in fixed notation, exactly."""
    text = str(n).rjust(places + 1, "0")
    return (text[:-places] + "." + text[-places:] if places else text).encode()


def _tie_cell(q, s):
    """(2q + 1) * 2**s for 2**52 <= q < 2**53: halfway between two adjacent
    doubles, written exactly (s < 0 gives -s fraction digits)."""
    return _fixed_cell((2 * q + 1) << s, 0) if s >= 0 else _fixed_cell((2 * q + 1) * 5 ** -s, -s)


def _near_tie_cell(v, digits, above):
    """The midpoint of v > 0 and the next double up, cut to `digits`
    significant digits just below or just above it."""
    mid = (Fraction(v) + Fraction(float(np.nextafter(v, np.inf)))) / 2
    e = math.floor(math.log10(mid))
    e += (mid >= Fraction(10) ** (e + 1)) - (mid < Fraction(10) ** e)
    places = digits - 1 - e
    scaled = mid * Fraction(10) ** places
    return _fixed_cell(math.ceil(scaled) if above else math.floor(scaled), places)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Cells for the decimal kernel: the writer's and repr's forms of any double;
# 1-18 digits with leading zeros and 0-22 after a point; exact ties; odd
# integers past 2**53, halfway or a quarter from a double, or past 10**18;
# midpoints of two doubles, some just below a power of two, cut to 17-19
# digits.
DECIMAL_CELLS = st.one_of(
    FINITE.map(lambda v: format(v, ".17g").encode()),
    FINITE.map(lambda v: repr(v).encode()),
    st.builds(_digit_cell, st.booleans(), st.text("0123456789", min_size=1, max_size=18),
              st.integers(0, 4), st.integers(0, 22)),
    st.sampled_from([b"0", b"-0", b"9007199254740993", b"0.1", b"1"]),
    st.builds(_tie_cell, st.integers(1 << 52, (1 << 53) - 1), st.integers(-2, 6)),
    st.integers(1 << 52, (1 << 62) - 1).map(lambda q: str(2 * q + 1).encode()),
    st.builds(_near_tie_cell, st.one_of(
        st.floats(1e-4, 1e16, exclude_max=True),
        st.integers(-13, 53).map(lambda e: float(np.nextafter(2.0 ** e, 0)))),  # below 2**e
        st.sampled_from([17, 18, 19]), st.booleans()),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(DECIMAL_CELLS, min_size=1, max_size=12), st.booleans())
def test_decimal_kernel_reads_each_cell_as_float_does(cells, ended):
    read = [cell for cell in cells if _kernel_reads(cell)]
    got = _kernel_values(read, ended)
    assert got is not None, read
    want = np.array([float(cell) for cell in read])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), read
    if len(read) < len(cells):
        assert _kernel_values(cells, ended) is None


@pytest.mark.parametrize("cell", [
    b"+1", b"1.", b".5", b"1_0", b" 1", b"nan", b"0x1p3",
    b"1e5", b"1E+05", b"12345678901234567890", b"-", b"1.2.3", b"1-2", b"1e+5.5", b"1\r2", b"\r1", b"1/2",
])
def test_decimal_kernel_declines_the_range(cell):
    assert _kernel_values([b"1.5", b"-2"]) is not None
    assert _kernel_values([b"1.5", cell, b"-2"]) is None


KERNEL_LINES = [b"1,1,0\r\n", b"2,0,1\n", b"3,0.5,0.5\r\n"]  # rows the decimal kernel reads
# rows and blank lines ending in CRLF, LF and a lone CR, which the kernel declines
DECLINED_LINES = [b"1,1,0\r\n", b"\r\n", b"2,0,1\r", b"\r", b"3,0.5,0.5\n", b"\n"]


def _cycled_body(lines, count, across=None):
    """`count` of `lines`, cycled; where `across` is given, with a row whose
    \\r\\n falls across byte `across` put in at the last line start before it."""
    cycled = [lines[i % len(lines)] for i in range(count)]
    if across is not None:
        at, size = 0, 0
        while size + len(cycled[at]) <= across - 6:
            size += len(cycled[at])
            at += 1
        cycled.insert(at, b"0" * (across - 6 - size) + b"1,1,0\r\n")  # zeros: its \r at across - 1
    body = b"".join(cycled)
    assert across is None or body[across - 1:across + 1] == b"\r\n"
    return body


class TestCsvContract:
    def _load(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        return load_csv(path)

    def test_blank_line_skipped_but_counted(self, tmp_path):
        ds = self._load(tmp_path, "f0,y0,y1\n1,1,0\n\n2,0,1\n")
        assert ds.features.tolist() == [[1.0], [2.0]]
        with pytest.raises(ValueError, match="line 4: expected 3 columns, got 2"):
            self._load(tmp_path, "f0,y0,y1\n1,1,0\n\n2,0\n")
        with pytest.raises(ValueError, match="line 4: non-numeric cell"):
            self._load(tmp_path, "f0,y0,y1\n1,1,0\n\nx,0,1\n")
        with pytest.raises(ValueError, match="line 4: label row does not sum to 1"):
            self._load(tmp_path, "f0,y0,y1\n1,1,0\n\n2,0.6,0.6\n")

    def test_whitespace_only_line_is_a_column_error(self, tmp_path):
        with pytest.raises(ValueError, match="line 3: expected 3 columns, got 1"):
            self._load(tmp_path, "f0,y0,y1\n1,1,0\n   \n2,0,1\n")

    def test_comment_row_is_not_skipped(self, tmp_path):
        with pytest.raises(ValueError, match="line 3: non-numeric cell"):
            self._load(tmp_path, "f0,y0,y1\n1,1,0\n#2,0,1\n")

    def test_cell_float_accepts_but_parser_rejects_names_line(self, tmp_path):
        # Python's float() reads digit separators; the array parser does not
        with pytest.raises(ValueError, match="line 2: non-numeric cell"):
            self._load(tmp_path, "f0,y0,y1\n1_0,1,0\n")

    def test_quoted_numeric_cell_loads(self, tmp_path):
        ds = self._load(tmp_path, 'f0,y0,y1\n"1.5",1,"0"\n')
        assert ds.features.tolist() == [[1.5]]
        assert ds.labels.tolist() == [[1.0, 0.0]]

    @pytest.mark.parametrize("text", [
        "f0,y0,y1\n1,1,0\n2,0,1\n",
        "f0,y0,y1\r\n1,1,0\r\n2,0,1\r\n",
        "f0,y0,y1\n1,1,0\n2,0,1",
        "f0,y0,y1\r\n1,1,0\r\n2,0,1",
        "f0,y0,y1\r1,1,0\r2,0,1\r",
    ], ids=["lf", "crlf", "lf_no_final_newline", "crlf_no_final_newline", "cr"])
    def test_line_endings(self, tmp_path, text):
        ds = self._load(tmp_path, text)
        assert ds.features.tolist() == [[1.0], [2.0]]
        assert ds.labels.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("text", ["f0,y0,y1\n", "f0,y0,y1\r\n\r\n\n", "f0,y0,y1"])
    def test_header_only_raises_without_warning(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                self._load(tmp_path, text)

    def test_quote_does_not_carry_a_cell_over_a_line_end(self, tmp_path):
        # one bulk parse would read this as the row 1,1,0; a cut after the
        # first line would not, so each line is read as one row
        with pytest.raises(ValueError, match="line 2: expected 3 columns, got 1"):
            self._load(tmp_path, 'f0,y0,y1\n"1\n",1,0\n')

    def test_nan_label_row_names_line(self, tmp_path):
        with pytest.raises(ValueError, match="line 2: label row does not sum to 1"):
            self._load(tmp_path, "f0,y0,y1\n1,nan,1\n")

    def test_label_sum_tolerance_is_1e_9(self, tmp_path):
        assert self._load(tmp_path, "f0,y0,y1\n1,0.5,0.5000000005\n").n == 1
        with pytest.raises(ValueError, match="line 3: label row does not sum to 1"):
            self._load(tmp_path, "f0,y0,y1\n1,1,0\n2,0.5,0.5000001\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", '"nan"'])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        with pytest.raises(ValueError) as err:
            self._load(tmp_path, f"f0,f1,y0,y1\n1,2,1,0\n\n1,{cell},0,1\n")
        assert str(err.value) == f"{tmp_path / 'd.csv'}: line 4: non-finite cell"

    @pytest.mark.parametrize("body, line", [
        (b"1,1,0\n\xff,0,1\n", 3),
        (b"1,1,0\r\r\n1\xe2,0,1\r\n", 4),  # a lone \r ends line 3
        (b"1,1,0\n" * 3000 + b"1,0,\xed\xa0\x80\n", 3002),  # past the first 8 KiB decoded
    ], ids=["invalid_start_byte", "truncated_sequence", "encoded_surrogate"])
    def test_invalid_utf8_names_line(self, tmp_path, body, line):
        path = tmp_path / "d.csv"
        path.write_bytes(b"f0,y0,y1\n" + body)
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: line {line}: not valid UTF-8"

    @pytest.mark.parametrize("header", [b"\xef\xbb\xbff0,y0,y1", b"f0,y0,\xffy1"])
    def test_bom_or_bad_byte_in_header_is_a_header_error(self, tmp_path, header):
        path = tmp_path / "d.csv"
        path.write_bytes(header + b"\r\n1,1,0\r\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: header must be f0..f{{d-1}},y0..y{{K-1}}"

    @pytest.mark.parametrize("lines, across, count, kernel", [
        ([], None, 0, True),
        ([b"1,1,0"], None, 1, True),  # a last line without an end
        ([b"1,1,0\r"], None, 1, True),  # ... ending in a lone CR, which the kernel reads as CRLF
        (KERNEL_LINES, None, 7, True),
        (KERNEL_LINES, 16 * data._FORMAT_CELLS, 80000, True),  # across the kernel's buffer
        ([b"\n"], None, 1, False), ([b"\r\n"], None, 1, False), ([b"\r"], None, 1, False),
        ([b"\n\r"], None, 5, False),
        (DECLINED_LINES, None, 8, False),
        (DECLINED_LINES, 1 << 13, 4000, False),  # across the text reader's 8 KiB chunks
    ], ids=["empty", "unended", "unended_cr", "crlf_lf", "crlf_lf_across_buffer", "lf", "crlf",
            "cr", "lf_cr", "blank_and_lone_cr", "blank_and_lone_cr_across_chunk"])
    def test_range_lines_count_as_the_text_scan_splits(self, tmp_path, lines, across, count,
                                                       kernel):
        body = _cycled_body(lines, count, across)
        path = tmp_path / "d.csv"
        path.write_bytes(b"f0,y0,y1\n" + body)
        with open(path, newline="", encoding="utf-8") as fh:
            scanned = list(fh)[1:]
        assert (_kernel_table(path, 9, len(body) + 9, 1, 2) is not None) == kernel
        rows, counted = data._parse_rows(path, 9, len(body) + 9, 1, 2)
        assert counted == len(scanned)
        assert rows.shape == (sum(1 for line in scanned if line.strip("\r\n")), 3)

    def test_kernel_blocks_then_a_declined_block_load_as_the_line_parse_alone(self, tmp_path,
                                                                          monkeypatch):
        # 1 KiB blocks: the kernel reads the first ones and declines the one with the quoted
        # cell; a later line, of 3000 zeros, is longer than the buffer, which grows
        monkeypatch.setattr(data, "_FORMAT_CELLS", 1 << 6)
        lines = [KERNEL_LINES[i % 3] for i in range(500)]
        lines[300] = b'"2",0,1\r\n'
        lines[310] = b"0" * 3000 + b"7,1,0\r\n"
        body = b"".join(lines)
        path = tmp_path / "d.csv"
        path.write_bytes(b"f0,y0,y1\r\n" + body + b"1,1,1")  # a bad last line without an end
        stop = len(body) + 10
        calls, real_parse_lines = [], data._parse_lines

        def parse_lines(text, first, d, k):
            calls.append((bytes(text), first))
            return real_parse_lines(text, first, d, k)

        monkeypatch.setattr(data, "_parse_lines", parse_lines)
        rows, counted = data._parse_rows(path, 10, stop, 1, 2)
        parsed = b"".join(text for text, _ in calls)
        kernel_read = body[:len(body) - len(parsed)]
        assert body.endswith(parsed) and 0 < len(kernel_read) < body.index(b'"')
        assert b'"' in calls[0][0] and calls[0][1] == kernel_read.count(b"\n")
        for (text, first), (_, after) in zip(calls, calls[1:]):
            assert after == first + len(text.splitlines())
        assert len(calls) > 2 and max(len(text) for text, _ in calls) > 16 * data._FORMAT_CELLS
        with monkeypatch.context() as m:
            m.setattr(data, "_decimal_block", _declined_by_kernel)
            alone, alone_counted = data._parse_rows(path, 10, stop, 1, 2)
            with pytest.raises(ValueError) as alone_err:
                _one_range(m, load_csv, path)
        assert counted == alone_counted == 500
        assert np.array_equal(rows.view(np.int64), alone.view(np.int64))
        assert rows[[0, 300, 310], 0].tolist() == [1.0, 2.0, 7.0]
        with pytest.raises(ValueError) as err:
            _one_range(monkeypatch, load_csv, path)
        assert str(err.value) == str(alone_err.value) == (
            f"{path}: line 502: label row does not sum to 1")

    def test_lone_cr_line_ends_across_blocks_load(self, tmp_path, monkeypatch):
        # a block may end after a lone \r, so one can hold neither a cell nor a row, and
        # lone \r line ends keep the blocks within the buffer (76 bytes for 3 cells)
        monkeypatch.setattr(data, "_FORMAT_CELLS", 4)
        path = tmp_path / "d.csv"
        path.write_bytes(b"f0,y0,y1\r\n" + b"\r" * 200 + b"1,1,0\r" * 50 + b"\r" * 200)
        sizes, real_parse_lines = [], data._parse_lines

        def parse_lines(text, first, d, k):
            sizes.append(len(text))
            return real_parse_lines(text, first, d, k)

        monkeypatch.setattr(data, "_parse_lines", parse_lines)
        rows, counted = data._parse_rows(path, 10, path.stat().st_size, 1, 2)
        assert counted == 450
        assert rows.tolist() == [[1.0, 1.0, 0.0]] * 50
        assert sum(sizes) == 700 and max(sizes) <= 76


def _ranged_dataset():
    rng = np.random.default_rng(17)
    return Dataset(rng.standard_normal((RANGED_ROWS, 3)),
                   rng.dirichlet([0.5, 0.5, 0.5], size=RANGED_ROWS))


RANGED_DATASET = _ranged_dataset()


def _force_ranges(monkeypatch, ranges):
    """Make save_csv and load_csv split RANGED_ROWS rows into `ranges`
    ranges; the list returned collects the pid of every child forked.

    Half-size blocks make room for a third range, and for load_csv's
    estimate of the row count, which may fall a little short.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(ranges)))
    monkeypatch.setattr(data, "_CSV_BLOCK_ROWS", data._CSV_BLOCK_ROWS // 2)
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _one_range(monkeypatch, call, *args):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        return call(*args)


def _assert_clean(directory, names):
    """No spill file is left beside the CSV and no child is left unreaped."""
    assert sorted(p.name for p in directory.iterdir()) == sorted(names)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def _fixed_width_csv(rows):
    """A 1-feature, 2-class body whose rows all have 29 bytes."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-9, 9, rows)
    p = rng.integers(0, 1000000, rows) / 1e6
    return [f"{a:+.6f},{b:.6f},{1 - b:.6f}\r\n".encode() for a, b in zip(x, p)]


class TestCsvRanges:
    @pytest.mark.parametrize("ranges", RANGE_CASES)
    def test_bytes_and_load_match_one_range(self, tmp_path, monkeypatch, ranges):
        forks = _force_ranges(monkeypatch, ranges)
        save_csv(RANGED_DATASET, tmp_path / "new.csv")
        reference_save_csv(RANGED_DATASET, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert len(forks) == ranges - 1
        back = load_csv(tmp_path / "new.csv")
        assert len(forks) == 2 * (ranges - 1)
        one = _one_range(monkeypatch, load_csv, tmp_path / "new.csv")
        for got, want in ((back.features, one.features), (back.labels, one.labels),
                          (one.features, RANGED_DATASET.features)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        _assert_clean(tmp_path, ["new.csv", "ref.csv"])

    @pytest.mark.parametrize("ranges", RANGE_CASES)
    @pytest.mark.parametrize("name", list(HOSTILE_DATASETS))
    def test_hostile_bytes_match_reference_writer(self, tmp_path, monkeypatch, ranges, name):
        ds = HOSTILE_DATASETS[name]
        forks = _force_ranges(monkeypatch, ranges)
        save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        if ds.n >= RANGED_ROWS:
            assert len(forks) == ranges - 1
        _assert_clean(tmp_path, ["new.csv", "ref.csv"])

    @pytest.mark.parametrize("ranges", RANGE_CASES)
    @pytest.mark.parametrize("bad_row, message", [
        (b"x,0,1,0.5,0.25,0.25", "non-numeric cell"),
        (b"1,0,1,0.5,0.5,0.25", "label row does not sum to 1"),
        (b"1,nan,1,0.5,0.25,0.25", "non-finite cell"),
        (b"1,0,\xff,0.5,0.25,0.25", "not valid UTF-8"),
        (b"1" * 200000 + b",0,1,0.5,0.25,0.25", "field larger than field limit (131072)"),
    ], ids=["non_numeric", "label_row", "non_finite", "not_utf8", "over_long_cell"])
    def test_error_in_last_range_names_line(self, tmp_path, monkeypatch, ranges, bad_row,
                                            message):
        path = tmp_path / "bad.csv"
        reference_save_csv(RANGED_DATASET, path)
        lines = path.read_bytes().split(b"\r\n")
        lines[-3] = bad_row  # the last range's second-to-last row
        path.write_bytes(b"\r\n".join(lines))
        expected = f"{path}: line {len(lines) - 2}: {message}"
        with pytest.raises(ValueError) as serial:
            _one_range(monkeypatch, load_csv, path)
        assert str(serial.value) == expected
        forks = _force_ranges(monkeypatch, ranges)
        with pytest.raises(ValueError) as ranged:
            load_csv(path)
        assert str(ranged.value) == expected
        assert len(forks) == ranges - 1
        _assert_clean(tmp_path, ["bad.csv"])

    @pytest.mark.parametrize("ranges", [2, 3])
    @pytest.mark.parametrize("lines", [KERNEL_LINES, DECLINED_LINES], ids=["kernel", "declined"])
    def test_bad_line_is_numbered_from_the_lines_of_earlier_ranges(self, tmp_path, monkeypatch,
                                                                   ranges, lines):
        # an 8 KiB kernel buffer, so that the first range's split \r\n falls across it as
        # well as across the text reader's first chunk
        monkeypatch.setattr(data, "_FORMAT_CELLS", 1 << 9)
        header = b"f0,y0,y1\r\n"
        path = tmp_path / "d.csv"
        path.write_bytes(header + _cycled_body(lines, 2 * RANGED_ROWS, 1 << 13)
                         + b"1,1,1")  # a bad last line without an end
        with open(path, newline="", encoding="utf-8") as fh:
            expected = f"{path}: line {len(list(fh))}: label row does not sum to 1"
        with pytest.raises(ValueError) as serial:
            _one_range(monkeypatch, load_csv, path)
        assert str(serial.value) == expected
        forks = _force_ranges(monkeypatch, ranges)
        cuts = data._body_cuts(path, len(header))
        assert len(cuts) == ranges + 1 and cuts[1] > len(header) + (1 << 13)
        # every range before the last is read as `lines` says
        read = [_kernel_table(path, a, b, 1, 2) is not None for a, b in zip(cuts, cuts[1:-1])]
        assert read == [lines is KERNEL_LINES] * (ranges - 1)
        with pytest.raises(ValueError) as ranged:
            load_csv(path)
        assert str(ranged.value) == expected
        assert len(forks) == ranges - 1
        _assert_clean(tmp_path, ["d.csv"])

    @pytest.mark.parametrize("ranges", RANGE_CASES)
    @pytest.mark.parametrize("where", ["line_4", "first_line_of_last_range"])
    @pytest.mark.parametrize("cell", [b"1e400", b"\xff"], ids=["non_finite", "not_utf8"])
    def test_only_a_bad_range_is_parsed_line_by_line(self, tmp_path, monkeypatch, ranges,
                                                    where, cell):
        # `+` cells: the decimal kernel declines every range, so each goes to _parse_lines
        header = b"f0,y0,y1\r\n"
        lines = _fixed_width_csv(RANGED_ROWS)
        assert len(set(lines)) == len(lines)
        path = tmp_path / "d.csv"
        path.write_bytes(header + b"".join(lines))
        forks = _force_ranges(monkeypatch, ranges)
        cuts = data._body_cuts(path, len(header))
        seen, real_line_row = tmp_path / "seen", data._line_row
        seen.mkdir()

        def line_row(line, index, d, k):  # in whichever process parses the range
            with open(seen / str(os.getpid()), "ab") as fh:
                fh.write(line.encode("utf-8", "surrogateescape"))
            return real_line_row(line, index, d, k)

        def parsed_alone():
            text = b"".join(p.read_bytes() for p in seen.iterdir())
            width = len(lines[0])
            at = {line: i for i, line in enumerate(lines)}
            return sorted(at[text[j:j + width]] for j in range(0, len(text), width))

        with monkeypatch.context() as m:
            m.setattr(data, "_line_row", line_row)
            back = load_csv(path)
        assert parsed_alone() == []
        assert np.array_equal(back.features.view(np.int64),
                              _one_range(monkeypatch, load_csv, path).features.view(np.int64))
        assert len(forks) == ranges - 1
        start = 0 if where == "line_4" else (cuts[-2] - len(header)) // len(lines[0])
        i = start + 2 if where == "line_4" else start
        lines[i] = cell + lines[i][len(cell):]  # same length, so the cuts stay where they are
        path.write_bytes(header + b"".join(lines))
        expected = f"{path}: line {i + 2}: " + (
            "non-finite cell" if cell == b"1e400" else "not valid UTF-8")
        with pytest.raises(ValueError) as serial:
            _one_range(monkeypatch, load_csv, path)
        assert str(serial.value) == expected
        monkeypatch.setattr(data, "_line_row", line_row)
        with pytest.raises(ValueError) as ranged:
            load_csv(path)
        assert str(ranged.value) == expected
        # readlines(1 << 14) ends a block at the first line past 16 KiB
        per_block = (1 << 14) // len(lines[0]) + 1
        block = start + (i - start) // per_block * per_block
        assert parsed_alone() == list(range(block, i + 1))
        assert len(forks) == 2 * (ranges - 1)
        _assert_clean(tmp_path, ["d.csv", "seen"])

    @pytest.mark.parametrize("ranges", RANGE_CASES)
    def test_over_long_valid_cell_is_a_row(self, tmp_path, monkeypatch, ranges):
        # past the csv module's field limit, yet a number the bulk parse reads
        long_cell = b"1." + b"0" * 199998
        path = tmp_path / "d.csv"
        reference_save_csv(RANGED_DATASET, path)
        lines = path.read_bytes().split(b"\r\n")
        i = len(lines) - 6  # in the last range
        lines[i] = long_cell + b"," + lines[i].split(b",", 1)[1]
        path.write_bytes(b"\r\n".join(lines))
        forks = _force_ranges(monkeypatch, ranges)
        back = load_csv(path)
        assert back.features[i - 1, 0] == 1.0
        assert np.array_equal(back.labels, RANGED_DATASET.labels)
        # a bad line two lines on sends that line's block to the line-at-a-time parse
        lines[i + 2] = b"x" + lines[i + 2][1:]
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError) as ranged:
            load_csv(path)
        assert str(ranged.value) == f"{path}: line {i + 3}: non-numeric cell"
        assert len(forks) == 2 * (ranges - 1)
        _assert_clean(tmp_path, ["d.csv"])

    @pytest.mark.parametrize("ranges", [2, 3])
    @pytest.mark.parametrize("where", ["parent", "first_child"])
    def test_a_failed_range_kills_the_children_still_running(self, tmp_path, monkeypatch,
                                                             ranges, where):
        path = tmp_path / "d.csv"
        save_csv(RANGED_DATASET, path)
        forks = _force_ranges(monkeypatch, ranges)
        cuts = data._body_cuts(path, path.read_bytes().index(b"\n") + 1)
        bad_start = cuts[0] if where == "parent" else cuts[1]
        real_parse, real_write = data._parse_rows, data._write_rows
        parent = os.getpid()

        def parse_rows(path, start, stop, d, k):
            if start == bad_start:
                raise RuntimeError("range failed")
            if os.getpid() != parent:
                time.sleep(60)  # a range whose result is no longer wanted
            return real_parse(path, start, stop, d, k)

        def write_rows(fh, features, labels):
            if np.array_equal(features[0], RANGED_DATASET.features[bad_row]):
                raise RuntimeError("range failed")
            if os.getpid() != parent:
                time.sleep(60)
            real_write(fh, features, labels)

        bad_row = data._row_bounds(RANGED_ROWS)[0 if where == "parent" else 1]
        monkeypatch.setattr(data, "_parse_rows", parse_rows)
        monkeypatch.setattr(data, "_write_rows", write_rows)
        for call, args in ((load_csv, (path,)), (save_csv, (RANGED_DATASET, tmp_path / "o.csv"))):
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="range failed"):
                call(*args)
            assert time.monotonic() - started < 30
        assert len(forks) == 2 * (ranges - 1)
        _assert_clean(tmp_path, ["d.csv"])  # the failed save_csv left no o.csv

    @pytest.mark.parametrize("ranges", [2, 3])
    @pytest.mark.parametrize("variant", ["blank_line", "quoted_cell"])
    def test_odd_line_at_a_cut_loads_the_same(self, tmp_path, monkeypatch, ranges, variant):
        forks = _force_ranges(monkeypatch, ranges)
        header = b"f0,y0,y1\r\n"
        lines = _fixed_width_csv(RANGED_ROWS)
        path = tmp_path / "d.csv"
        path.write_bytes(header + b"".join(lines))
        cuts = data._body_cuts(path, len(header))
        assert len(cuts) == ranges + 1
        for cut in cuts[1:-1]:  # same length, so the cuts stay where they are
            i = (cut - len(header)) // len(lines[0])
            cells = lines[i].split(b",")
            if variant == "blank_line":
                lines[i] = b"\r\n" + cells[0][:-2] + b"," + b",".join(cells[1:])
            else:
                lines[i] = b'"' + cells[0][:-2] + b'",' + b",".join(cells[1:])
        path.write_bytes(header + b"".join(lines))
        assert data._body_cuts(path, len(header)) == cuts
        first = b"\r" if variant == "blank_line" else b'"'
        assert all(path.read_bytes()[cut:cut + 1] == first for cut in cuts[1:-1])
        back = load_csv(path)
        one = _one_range(monkeypatch, load_csv, path)
        assert back.n == one.n == RANGED_ROWS
        assert np.array_equal(back.features.view(np.int64), one.features.view(np.int64))
        assert np.array_equal(back.labels.view(np.int64), one.labels.view(np.int64))
        assert len(forks) == ranges - 1
        _assert_clean(tmp_path, ["d.csv"])

    @pytest.mark.parametrize("ranges", [2, 3])
    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_exception_in_a_range_reaches_the_caller(self, tmp_path, monkeypatch, ranges,
                                                     where):
        forks = _force_ranges(monkeypatch, ranges)
        path = tmp_path / "d.csv"
        save_csv(RANGED_DATASET, path)
        parent = os.getpid()
        real_write, real_parse = data._write_rows, data._parse_rows

        def failing(real):
            def call(*args):
                if (os.getpid() == parent) == (where == "parent"):
                    raise RuntimeError(f"range failed in the {where}")
                return real(*args)
            return call

        monkeypatch.setattr(data, "_write_rows", failing(real_write))
        monkeypatch.setattr(data, "_parse_rows", failing(real_parse))
        with pytest.raises(RuntimeError, match=f"range failed in the {where}"):
            save_csv(RANGED_DATASET, tmp_path / "out.csv")
        with pytest.raises(RuntimeError, match=f"range failed in the {where}"):
            load_csv(path)
        assert len(forks) == 3 * (ranges - 1)
        _assert_clean(tmp_path, ["d.csv"])  # the failed save_csv left no out.csv

    @pytest.mark.parametrize("call", ["save_csv", "load_csv"])
    def test_a_child_that_exits_without_a_result_fails_the_call(self, tmp_path, monkeypatch,
                                                                 call):
        path = tmp_path / "d.csv"
        save_csv(RANGED_DATASET, path)
        forks = _force_ranges(monkeypatch, 2)
        job = "_send_text" if call == "save_csv" else "_send_rows"
        monkeypatch.setattr(data, job, lambda *args: os._exit(3))
        with pytest.raises(RuntimeError) as err:
            save_csv(RANGED_DATASET, path) if call == "save_csv" else load_csv(path)
        assert str(err.value) == "a CSV worker process exited without a result"
        assert len(forks) == 1
        # a failed save_csv removes the table it had begun, so no partial one is ever read
        _assert_clean(tmp_path, [] if call == "save_csv" else ["d.csv"])

    @pytest.mark.parametrize("call", ["save_csv", "load_csv"])
    def test_a_child_that_sends_a_short_range_fails_the_call(self, tmp_path, monkeypatch, call):
        # as a child killed while it sends its range would: the result, then part of the bytes
        path = tmp_path / "d.csv"
        save_csv(RANGED_DATASET, path)
        forks = _force_ranges(monkeypatch, 2)
        if call == "save_csv":
            monkeypatch.setattr(data, "_send_text", lambda *args: (100, b"1,0,1\r\n"))
        else:
            monkeypatch.setattr(data, "_send_rows", lambda *args: ((100, 100), bytes(8)))
        with pytest.raises(RuntimeError) as err:
            save_csv(RANGED_DATASET, path) if call == "save_csv" else load_csv(path)
        assert str(err.value) == f"{path}: a CSV worker process sent a short range"
        assert len(forks) == 1
        _assert_clean(tmp_path, [] if call == "save_csv" else ["d.csv"])

    @pytest.mark.parametrize("ranges", [2, 3])
    @pytest.mark.parametrize("fail", [None, "child", "parent"])
    def test_no_spill_file_is_ever_named_beside_the_output(self, tmp_path, monkeypatch,
                                                           ranges, fail):
        out_dir, seen_dir = tmp_path / "out", tmp_path / "seen"
        out_dir.mkdir()
        seen_dir.mkdir()
        forks = _force_ranges(monkeypatch, ranges)
        parent, real_write = os.getpid(), data._write_rows

        def write_rows(fh, features, labels):
            in_child = os.getpid() != parent
            if in_child:  # what the output directory lists while this child writes
                seen = sorted(os.listdir(out_dir))
                real_write(fh, features, labels)
                fh.flush()
                seen += sorted(os.listdir(out_dir))
                (seen_dir / str(os.getpid())).write_text("\n".join(seen))
            else:
                real_write(fh, features, labels)
            if fail == ("child" if in_child else "parent"):
                # a failure kills the children still running, so fail only once
                # every child has listed the directory
                _wait_for(lambda: len(os.listdir(seen_dir)) == ranges - 1)
                raise RuntimeError(f"range failed in the {fail}")

        monkeypatch.setattr(data, "_write_rows", write_rows)
        if fail:
            with pytest.raises(RuntimeError, match=f"range failed in the {fail}"):
                save_csv(RANGED_DATASET, out_dir / "out.csv")
        else:
            save_csv(RANGED_DATASET, out_dir / "out.csv")
            reference_save_csv(RANGED_DATASET, tmp_path / "ref.csv")
            assert (out_dir / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert len(forks) == ranges - 1
        seen = [path.read_text().split() for path in seen_dir.iterdir()]
        assert len(seen) == ranges - 1
        assert all(set(names) <= {"out.csv"} for names in seen), seen
        _assert_clean(out_dir, [] if fail else ["out.csv"])


def _fuzz_base(crlf: bool) -> bytes:
    """A 40-row, 2-feature, 2-class CSV with short cells and exact label sums."""
    rng = np.random.default_rng(23)
    end = b"\r\n" if crlf else b"\n"
    rows = [b"f0,f1,y0,y1"] + [
        b"%.3f,%g,%g,%g" % (x, f, p, 1 - p)
        for x, f, p in zip(rng.normal(size=40), rng.integers(-99, 99, 40) / 8,
                           rng.integers(0, 5, 40) / 4)]
    return end.join(rows) + end


FUZZ_TOKENS = [b",", b"\r", b"\n", b"\r\n", b"\xef\xbb\xbf", b"\x00", b"nan", b"inf", b"-inf",
               b"1e400", b'"', b'"1', b'1"',
               # at the decimal kernel's edges: cells it reads and cells that decline a range
               b"9.7299545064253624e-05", b"1e+16", b"12345678901234567890", b"-0", b"+1", b"1.",
               b".5"]
# Where a mutation lands: anywhere, or near where 2 or 3 ranges cut the body.
FUZZ_POSITION = st.one_of(st.integers(0, 1 << 16), st.tuples(
    st.sampled_from([1 / 3, 1 / 2, 2 / 3]), st.integers(-8, 32)))
FUZZ_MUTATION = st.tuples(st.sampled_from(["flip", "insert", "delete"]), FUZZ_POSITION,
                          st.integers(1, 255), st.sampled_from(FUZZ_TOKENS))


def _mutate(text: bytes, mutations) -> bytes:
    buf = bytearray(text)
    for op, where, byte, token in mutations:
        if isinstance(where, int):
            at = where % len(buf)
        else:
            at = min(max(int(where[0] * len(buf)) + where[1], 0), len(buf) - 1)
        if op == "flip":
            buf[at] ^= byte
        elif op == "insert":
            buf[at:at] = token
        else:  # delete the first `,`, `\r`, `\n` or `"` from `at` on
            seps = [i for i in range(at, len(buf)) if buf[i] in b',\r\n"']
            if seps:
                del buf[seps[0]]
    return bytes(buf)


def _load_outcome(path):
    """The loaded arrays' bits, or the message of the ValueError load_csv raised."""
    try:
        ds = load_csv(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
        return str(exc)
    return ds.features.view(np.int64).tolist(), ds.labels.view(np.int64).tolist()


@settings(max_examples=100, deadline=2000, derandomize=True, database=None)
@given(st.lists(FUZZ_MUTATION, min_size=1, max_size=3), st.booleans())
def test_mutated_csv_loads_the_same_or_names_the_same_line_at_any_range_count(mutations, crlf):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        path = Path(tmp) / "d.csv"
        path.write_bytes(_mutate(_fuzz_base(crlf), mutations))
        m.setattr(data, "_CSV_BLOCK_ROWS", 8)
        outcomes = []
        for ranges in RANGE_CASES:
            m.setattr(os, "sched_getaffinity", lambda pid, n=ranges: set(range(n)))
            outcomes.append(_load_outcome(path))
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]
        _assert_clean(Path(tmp), ["d.csv"])


@settings(max_examples=100, deadline=2000, derandomize=True, database=None)
@given(st.lists(FUZZ_MUTATION, min_size=1, max_size=3), st.booleans())
def test_mutated_csv_loads_as_the_bulk_parse_alone_reads_it(mutations, crlf):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        path = Path(tmp) / "d.csv"
        path.write_bytes(_mutate(_fuzz_base(crlf), mutations))
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        with_kernel = _load_outcome(path)
        m.setattr(data, "_decimal_block", _declined_by_kernel)
        assert _load_outcome(path) == with_kernel


class TestSplit:
    def test_80_20_counts(self):
        ds = gen_blobs(100, 2, 2, 2.0, seed=0)
        tr, va = split(ds, SplitSpec(0.8, 0.2, seed=0))
        assert tr.n == 80 and va.n == 20

    def test_union_preserves_rows(self):
        ds = gen_blobs(333, 3, 2, 2.0, seed=1)
        tr, va = split(ds, SplitSpec(0.8, 0.2, seed=1))
        combined = np.vstack([tr.features, va.features])
        assert tr.n + va.n == ds.n
        assert (np.sort(combined.ravel()) == np.sort(ds.features.ravel())).all()

    def test_disjoint(self):
        ds = gen_blobs(200, 2, 2, 2.0, seed=2)
        tr, va = split(ds, SplitSpec(0.7, 0.3, seed=2))
        tr_rows = {tuple(r) for r in tr.features}
        va_rows = {tuple(r) for r in va.features}
        assert not tr_rows & va_rows

    def test_same_seed_identical(self):
        ds = gen_blobs(150, 2, 2, 2.0, seed=3)
        a = split(ds, SplitSpec(seed=5))
        b = split(ds, SplitSpec(seed=5))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_stratified_balance(self):
        ds = gen_blobs(1000, 3, 2, 2.0, seed=4)
        tr, _ = split(ds, SplitSpec(0.8, 0.2, seed=4))
        overall = np.mean(ds.class_indices())
        train_rate = np.mean(tr.class_indices())
        assert abs(train_rate - overall) < 0.05

    def test_exact_counts_when_integral(self):
        # 50/50 one-hot classes, fractions times counts integral
        labels = np.zeros((100, 2))
        labels[:50, 0] = 1.0
        labels[50:, 1] = 1.0
        ds = Dataset(np.random.default_rng(0).standard_normal((100, 2)), labels)
        tr, va = split(ds, SplitSpec(0.8, 0.2, seed=0))
        assert np.sum(tr.class_indices() == 0) == 40
        assert np.sum(tr.class_indices() == 1) == 40
        assert np.sum(va.class_indices() == 0) == 10

    def test_training_part_reads_its_parents_rows(self):
        ds = gen_blobs(500, 4, 3, 3.0, seed=6)
        tr, _ = split(ds, SplitSpec(0.8, 0.2, seed=6))
        assert tr.parent is ds
        assert (tr.n, tr.dim, tr.class_count) == (400, 4, 3)
        idx = np.array([5, 0, 399, 17, 5])
        features, labels = ds.features[tr.index], ds.labels[tr.index]
        assert np.array_equal(tr.rows(idx).view(np.int64), features[idx].view(np.int64))
        assert np.array_equal(tr.features.view(np.int64), features.view(np.int64))
        assert np.array_equal(tr.labels.view(np.int64), labels.view(np.int64))
        assert tr.features is tr.features  # gathered once, then kept
        assert np.array_equal(ds.rows(idx), ds.features[idx])

    def test_too_small_fraction_errors(self):
        ds = gen_blobs(4, 2, 2, 2.0, seed=0)
        with pytest.raises(ValueError, match="at least one row"):
            split(ds, SplitSpec(0.99, 0.01, seed=0))

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.0, 0.5)
        with pytest.raises(ValueError):
            SplitSpec(0.9, 0.2)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_split_total_is_stable(self, seed):
        ds = gen_blobs(97, 2, 2, 2.0, seed=0)
        tr, va = split(ds, SplitSpec(0.8, 0.2, seed=seed))
        assert tr.n + va.n == 97
