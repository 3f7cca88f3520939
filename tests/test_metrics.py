"""Ranking metrics against brute-force oracles and constructions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidential.losses import EvidentialOutput, evidence_to_alpha
from evidential.metrics import (
    DEFAULT_THRESHOLDS,
    EvalReport,
    ThresholdPoint,
    auc_vs_uncertainty,
    evaluate,
    multiclass_auc,
    roc_auc,
    uncertainty_histogram,
)
from oracles import (
    auc_vs_uncertainty_per_subset,
    multiclass_auc_ranked,
    tied_ranks,
)


def brute_force_auc(scores, labels):
    """O(n^2) Mann-Whitney pair count: ordered pairs + half ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def output_from_evidence(evidence):
    return evidence_to_alpha(np.asarray(evidence, dtype=np.float64),
                             "relu_evidence")


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_three_quarters(self):
        assert roc_auc([0.9, 0.6, 0.4, 0.2], [1, 0, 1, 0]) == 0.75

    def test_full_tie_gives_half(self):
        assert roc_auc([0.5, 0.5], [1, 0]) == 0.5

    def test_single_class_is_absent(self):
        assert roc_auc([0.1, 0.9], [1, 1]) is None
        assert roc_auc([0.1, 0.9], [0, 0]) is None

    def test_reversed_ranking(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [1, 0, 1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            roc_auc([0.1, bad, 0.3], [0, 1, 1])

    @pytest.mark.parametrize("labels", [[0, 1, 2, 2], [0, 1, -1, 1], [0, 1, 0.5, 1],
                                        [0, 1, float("nan"), 1]])
    def test_labels_other_than_0_or_1_rejected(self, labels):
        with pytest.raises(ValueError, match="0 or 1"):
            roc_auc([0.1, 0.2, 0.9, 0.95], labels)

    def test_brute_force_agreement_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 10, size=n) / 10.0
            labels = rng.integers(0, 2, size=n)
            expected = brute_force_auc(scores, labels)
            got = roc_auc(scores, labels)
            if expected is None:
                assert got is None
            else:
                assert abs(got - expected) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        scores = rng.standard_normal(n)
        labels = np.zeros(n, dtype=int)
        labels[: n // 2] = 1
        base = roc_auc(scores, labels)
        # strictly increasing maps must not change the ranking metric
        for f in (lambda s: 3.0 * s + 1.0, np.tanh, lambda s: s**3):
            assert roc_auc(f(scores), labels) == pytest.approx(base, abs=1e-12)


def brute_force_mid_ranks(scores):
    """1-based rank: count below plus the mean position among equals."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.array([np.sum(scores < s) + (np.sum(scores == s) + 1) / 2.0
                     for s in scores])


class TestTiedRanks:
    @pytest.mark.parametrize("scores", [
        np.round(np.random.default_rng(5).random(300), 1),
        np.random.default_rng(6).integers(0, 3, size=50) / 2.0,
        np.full(9, 0.25),
        np.array([0.7]),
        np.array([0.4, 0.4]),
        np.array([0.9, 0.1]),
    ], ids=["rounded", "three_levels", "all_equal", "n1", "n2_tied", "n2_distinct"])
    def test_matches_brute_force_mid_ranks(self, scores):
        assert np.array_equal(tied_ranks(scores), brute_force_mid_ranks(scores))


class TestMulticlassAuc:
    def test_binary_uses_class1_probability(self):
        p = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert multiclass_auc(p, np.array([1, 0])) == 1.0

    def test_macro_one_vs_rest(self):
        p = np.eye(3)
        assert multiclass_auc(p, np.array([0, 1, 2])) == 1.0

    def test_all_single_class(self):
        p = np.array([[0.6, 0.4], [0.3, 0.7]])
        assert multiclass_auc(p, np.array([1, 1])) is None


class TestLabelRule:
    """Every AUC entry point takes a label only as a class index 0..K-1."""

    @pytest.mark.parametrize("bad", [0.5, 1.9])
    def test_two_class_curve_rejects_a_fractional_label(self, bad):
        out = output_from_evidence([[3.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            auc_vs_uncertainty(out, np.array([0, 1, bad]))

    @pytest.mark.parametrize("bad", [3, -1, 0.5])
    def test_three_class_entry_points_reject_a_non_index(self, bad):
        evidence = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0], [1.0, 1.0, 1.0]])
        labels = np.array([0, 1, 2, bad])
        calls = [lambda: multiclass_auc(evidence / evidence.sum(axis=1, keepdims=True), labels),
                 lambda: auc_vs_uncertainty(output_from_evidence(evidence), labels),
                 lambda: evaluate(evidence, "relu_evidence", labels, 0, "tedl"),
                 lambda: evaluate(evidence, "identity", labels, 0, "ce")]
        for call in calls:
            with pytest.raises(ValueError, match=r"labels must be class indices 0\.\.2"):
                call()


class TestAucVsUncertainty:
    def test_constructed_toy(self):
        # confident pair ordered correctly, uncertain pair inverted
        out = output_from_evidence(
            [[18.0, 0.0], [0.0, 18.0], [0.5, 0.0], [0.0, 0.5]]
        )
        labels = np.array([0, 1, 1, 0])
        assert out.uncertainty[0] == pytest.approx(0.1)
        assert out.uncertainty[2] == pytest.approx(0.8)
        curve = auc_vs_uncertainty(out, labels, thresholds=[0.2, 1.0])
        assert curve[0].auc == 1.0 and curve[0].sample_count == 2
        assert curve[1].auc < 1.0 and curve[1].sample_count == 4

    def test_threshold_above_max_matches_overall(self):
        rng = np.random.default_rng(0)
        out = output_from_evidence(rng.uniform(0, 5, size=(40, 2)))
        labels = rng.integers(0, 2, size=40)
        curve = auc_vs_uncertainty(out, labels)
        overall = multiclass_auc(out.p_hat, labels)
        assert curve[-1].sample_count == 40
        assert curve[-1].auc == overall

    def test_threshold_below_min_is_absent(self):
        out = output_from_evidence([[1.0, 1.0], [2.0, 0.0]])
        curve = auc_vs_uncertainty(out, np.array([0, 1]), thresholds=[1e-6])
        assert curve[0].auc is None and curve[0].sample_count == 0

    def test_strict_comparison(self):
        out = output_from_evidence([[0.0, 0.0], [18.0, 0.0]])  # u = 1.0, 0.1
        curve = auc_vs_uncertainty(out, np.array([0, 1]), thresholds=[1.0])
        assert curve[0].sample_count == 1  # u == 1.0 excluded at tau = 1.0

    def test_default_grid(self):
        out = output_from_evidence([[1.0, 0.0], [0.0, 1.0]])
        curve = auc_vs_uncertainty(out, np.array([0, 1]))
        taus = [pt.threshold for pt in curve]
        assert taus == sorted(taus)
        assert all(b > a for a, b in zip(taus, taus[1:]))
        assert set(DEFAULT_THRESHOLDS) <= set(taus)

    def test_unsorted_thresholds_rejected(self):
        out = output_from_evidence([[1.0, 0.0]])
        with pytest.raises(ValueError, match="strictly increasing"):
            auc_vs_uncertainty(out, np.array([0]), thresholds=[0.5, 0.5])


class TestUncertaintyHistogram:
    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(1)
        out = output_from_evidence(rng.uniform(0, 3, size=(123, 2)))
        hist = uncertainty_histogram(out, bins=20)
        assert hist.counts.sum() == 123
        assert hist.edges[0] == 0.0

    def test_all_uncertain_occupies_top_bin(self):
        out = output_from_evidence(np.zeros((10, 2)))  # u = 1 everywhere
        hist = uncertainty_histogram(out, bins=5)
        assert hist.counts[-1] == 10
        assert hist.counts[:-1].sum() == 0

    def test_single_bin(self):
        out = output_from_evidence(np.ones((7, 2)))
        hist = uncertainty_histogram(out, bins=1)
        assert hist.counts.tolist() == [7]

    def test_bins_validation(self):
        out = output_from_evidence([[1.0, 0.0]])
        with pytest.raises(ValueError):
            uncertainty_histogram(out, bins=0)

    @pytest.mark.parametrize("bins", [2.5, 2.0, True, "3", None])
    def test_bins_must_be_an_integer(self, bins):
        out = output_from_evidence([[1.0, 0.0]])
        with pytest.raises(ValueError) as err:
            uncertainty_histogram(out, bins)
        assert str(err.value) == "bins must be an integer >= 1"

    def test_numpy_integer_bins(self):
        out = output_from_evidence([[1.0, 0.0], [0.0, 3.0]])
        hist = uncertainty_histogram(out, np.int64(4))
        assert hist.counts.tolist() == uncertainty_histogram(out, 4).counts.tolist()


@pytest.mark.parametrize("call, name", [
    (lambda out: auc_vs_uncertainty(out, np.zeros(0, dtype=int)), "auc_vs_uncertainty"),
    (lambda out: auc_vs_uncertainty(out, np.zeros(0, dtype=int), thresholds=[0.5]),
     "auc_vs_uncertainty"),
    (lambda out: uncertainty_histogram(out, bins=20), "uncertainty_histogram"),
], ids=["default_grid", "given_grid", "histogram"])
def test_a_view_of_no_rows_is_named(call, name):
    out = evidence_to_alpha(np.zeros((0, 2)), "relu_evidence")
    with pytest.raises(ValueError) as err:
        call(out)
    assert str(err.value) == f"{name} requires at least one row"


class TestEvaluate:
    def test_probability_outputs_skip_uncertainty(self):
        labels = np.array([0, 1])
        probs = np.array([[0.8, 0.2], [0.1, 0.9]])
        report, _ = evaluate(probs, "softmax", labels, 0, "stage1")
        assert report.overall_auc == 1.0
        assert report.uncertainty_histogram is None
        assert report.threshold_curve == []

    def test_evidence_head_returns_dirichlet_view(self):
        evidence = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 5.0]])
        labels = np.array([0, 0, 1])
        report, view = evaluate(evidence, "relu_evidence", labels, 4, "tedl")
        assert isinstance(report, EvalReport)
        assert (report.epoch, report.method, report.overall_auc) == (4, "tedl", 1.0)
        assert np.array_equal(view.alpha, evidence + 1.0)
        assert view.dead_fraction() == pytest.approx(1 / 3)
        assert report.uncertainty_histogram.counts.sum() == 3
        assert report.threshold_curve[-1].sample_count == 3
        assert evaluate(evidence, "identity", labels, 4, "tedl")[1] is None


def _outcome(call, *args):
    """What `call(*args)` gives, or the type and message of the error it raised."""
    try:
        return call(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


def _bits(value):
    """A comparable form of an AUC that tells apart every float64 bit pattern."""
    return None if value is None else np.float64(value).view(np.int64).item()


@st.composite
def _rank_once_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 40))
    # small integer evidence, so that scores and uncertainties tie often
    evidence = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k),
                                      min_size=n, max_size=n)), dtype=np.float64).reshape(n, k)
    out = evidence_to_alpha(evidence, "relu_evidence")
    top = k + 1 if draw(st.booleans()) else k  # a class label k is bad
    labels = np.array(draw(st.lists(st.integers(0, top - 1), min_size=n, max_size=n)), dtype=int)
    if n and draw(st.integers(0, 4)) == 0:  # a non-finite score
        p_hat = out.p_hat.copy()
        p_hat[draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))] = np.nan
        out = EvidentialOutput(out.evidence, out.alpha, out.strength, p_hat, out.uncertainty)
    grid = None
    if draw(st.booleans()):
        levels = sorted(set(out.uncertainty.tolist()) | {0.0, 0.3, 0.5, 0.75, 1.0, 1.5})
        grid = sorted(draw(st.sets(st.sampled_from(levels), min_size=1, max_size=6)))
    return out, labels, grid


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_rank_once_cases())
def test_rank_once_curve_matches_per_subset_ranks_bit_for_bit(case):
    out, labels, grid = case
    got = _outcome(auc_vs_uncertainty, out, labels, grid)
    want = _outcome(auc_vs_uncertainty_per_subset, out, labels, grid)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert [(p.threshold, _bits(p.auc), p.sample_count) for p in got] == [
        (tau, _bits(auc), count) for tau, auc, count in want]
    all_rows = _outcome(multiclass_auc_ranked, out.p_hat, labels)
    got_all = _outcome(multiclass_auc, out.p_hat, labels)
    assert (got_all == all_rows if isinstance(all_rows, tuple)
            else _bits(got_all) == _bits(all_rows))
    k = out.p_hat.shape[1]
    if out.uncertainty.size and np.isfinite(out.p_hat).all() and labels.max(initial=0) < k:
        report, _ = evaluate(out.evidence, "relu_evidence", labels, 0, "x")
        assert _bits(report.overall_auc) == _bits(all_rows)


# Signed zeros, the smallest subnormal, the largest floats, infinities, NaN, and two
# ordinary values, so that scores, uncertainties and thresholds tie often.
_HOSTILE = (0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan, 0.5, 1.0)
_FINITE = tuple(c for c in _HOSTILE if np.isfinite(c))


@st.composite
def _hostile_cases(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(0, 40))
    cells = st.sampled_from(_HOSTILE if draw(st.booleans()) else _FINITE)
    p_hat = np.array(draw(st.lists(cells, min_size=n * k, max_size=n * k))).reshape(n, k)
    u = np.array(draw(st.lists(st.sampled_from(_FINITE), min_size=n, max_size=n)))
    low, high = (-1, k) if draw(st.booleans()) else (0, k - 1)  # -1 and K are bad labels
    labels = np.array(draw(st.lists(st.integers(low, high), min_size=n, max_size=n)), dtype=int)
    grid = None
    if draw(st.booleans()):
        levels = st.sampled_from(_FINITE + (np.inf,) + tuple(u.tolist()))
        grid = sorted(draw(st.sets(levels, min_size=1, max_size=6)))
    return p_hat, u, labels, grid


def _returned_or_raised(call, *args):
    """The bits of what `call(*args)` returns, or the message of the ValueError it raises."""
    try:
        value = call(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(value, list):  # a curve: ThresholdPoints or the oracle's tuples
        return [tuple(map(_bits, (p.threshold, p.auc, p.sample_count)
                          if isinstance(p, ThresholdPoint) else p)) for p in value]
    return _bits(value)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_hostile_cases())
def test_auc_entry_points_match_the_oracles_on_hostile_input(case):
    p_hat, u, labels, grid = case
    out = EvidentialOutput(p_hat, p_hat, u, p_hat, u)  # u takes any finite value
    k = p_hat.shape[1]
    binary = np.where(labels == k, 2, np.minimum(labels, 1))  # class 0 against the rest; -1, K bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for got, want in (
            ((roc_auc, p_hat[:, 1], binary), (multiclass_auc_ranked, p_hat[:, :2], binary)),
            ((multiclass_auc, p_hat, labels), (multiclass_auc_ranked, p_hat, labels)),
            ((auc_vs_uncertainty, out, labels, grid),
             (auc_vs_uncertainty_per_subset, out, labels, grid)),
        ):
            assert _returned_or_raised(*got) == _returned_or_raised(*want)
