import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidential import losses
from evidential.losses import (
    cross_entropy_loss,
    edl_base_loss,
    edl_total_loss,
    evidence_to_alpha,
    harden_labels,
    kl_to_uniform,
    lambda_schedule,
    make_alpha_tilde,
)
from evidential.ndcore import NumericError, softmax
from evidential.specfun import digamma, ln_gamma
from oracles import edl_base_loss_phat_form, kl_uniform_full_pass


def onehot(indices, k):
    indices = np.asarray(indices)
    y = np.zeros((indices.size, k))
    y[np.arange(indices.size), indices] = 1.0
    return y


class TestEvidenceToAlpha:
    def test_zero_evidence_total_uncertainty(self):
        out = evidence_to_alpha([[0.0, 0.0]], "relu_evidence")
        assert np.array_equal(out.alpha, [[1.0, 1.0]])
        assert out.strength[0] == 2.0
        assert np.array_equal(out.p_hat, [[0.5, 0.5]])
        assert out.uncertainty[0] == 1.0

    def test_direct_arithmetic(self):
        out = evidence_to_alpha([[9.0, 0.0]], "relu_evidence")
        assert np.array_equal(out.alpha, [[10.0, 1.0]])
        assert out.strength[0] == 11.0
        assert out.p_hat[0] == pytest.approx([10 / 11, 1 / 11], abs=1e-15)
        assert out.uncertainty[0] == pytest.approx(2 / 11, abs=1e-15)

    def test_elu_reaches_alpha_below_one(self):
        out = evidence_to_alpha([[-0.5, 1.0]], "elu_evidence")
        assert np.array_equal(out.alpha, [[0.5, 2.0]])
        assert out.strength[0] == 2.5
        assert out.uncertainty[0] == pytest.approx(0.8, abs=1e-15)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            evidence_to_alpha([[-0.1, 0.0]], "relu_evidence")
        with pytest.raises(ValueError):
            evidence_to_alpha([[-1.0, 0.0]], "elu_evidence")
        with pytest.raises(ValueError):
            evidence_to_alpha([[0.0, 0.0]], "softmax")

    def test_relu_head_uncertainty_at_most_one(self):
        rng = np.random.default_rng(0)
        out = evidence_to_alpha(rng.uniform(0, 50, (40, 3)), "relu_evidence")
        assert np.all(out.uncertainty <= 1.0)
        assert np.all(out.alpha >= 1.0)
        assert np.max(np.abs(out.p_hat.sum(axis=1) - 1.0)) < 1e-12


class TestBaseLoss:
    def test_uniform_alpha_hard_label(self):
        out = evidence_to_alpha([[0.0, 0.0]], "relu_evidence")
        value, _ = edl_base_loss(out, [[1.0, 0.0]])
        assert value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_alpha_two_one(self):
        out = evidence_to_alpha([[1.0, 0.0]], "relu_evidence")
        value, _ = edl_base_loss(out, [[1.0, 0.0]])
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0, 10.0])
    def test_symmetric_soft_label_leaves_variance_only(self, c):
        out = evidence_to_alpha([[c - 1.0, c - 1.0]], "elu_evidence")
        value, _ = edl_base_loss(out, [[0.5, 0.5]])
        assert value == pytest.approx(1.0 / (2.0 * (2.0 * c + 1.0)), abs=1e-12)

    def test_rejects_bad_label_rows(self):
        out = evidence_to_alpha([[1.0, 1.0]], "relu_evidence")
        with pytest.raises(ValueError, match="sum to 1"):
            edl_base_loss(out, [[0.6, 0.6]])

    def test_rejects_nan_label_row(self):
        out = evidence_to_alpha([[1.0, 1.0]], "relu_evidence")
        with pytest.raises(ValueError, match="sum to 1"):
            edl_base_loss(out, [[np.nan, 1.0]])

    def test_dual_form_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = rng.integers(2, 5)
            out = evidence_to_alpha(rng.uniform(-0.9, 8.0, (6, k)), "elu_evidence")
            y = rng.dirichlet(np.ones(k), size=6)
            a = edl_base_loss(out, y)[0]
            b = edl_base_loss_phat_form(out, y)
            assert a == pytest.approx(b, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(20):
            k = int(rng.integers(2, 5))
            e = rng.uniform(-0.8, 6.0, (4, k))
            y = onehot(rng.integers(0, k, 4), k)
            _, grad = edl_base_loss(evidence_to_alpha(e, "elu_evidence"), y)
            for i in range(4):
                for j in range(k):
                    ep, em = e.copy(), e.copy()
                    ep[i, j] += h
                    em[i, j] -= h
                    fd = (
                        edl_base_loss(evidence_to_alpha(ep, "elu_evidence"), y)[0]
                        - edl_base_loss(evidence_to_alpha(em, "elu_evidence"), y)[0]
                    ) / (2 * h)
                    if abs(fd) > 1e-7:
                        assert abs(grad[i, j] - fd) / abs(fd) < 1e-4


class TestAlphaTilde:
    def test_true_class_removed(self):
        at = make_alpha_tilde([[5.0, 3.0]], [[1.0, 0.0]])
        assert np.array_equal(at, [[1.0, 3.0]])

    def test_uniform_alpha_fixed_point(self):
        for y in ([[1.0, 0.0]], [[0.0, 1.0]]):
            assert np.array_equal(make_alpha_tilde([[1.0, 1.0]], y), [[1.0, 1.0]])

    def test_second_class(self):
        assert np.array_equal(
            make_alpha_tilde([[2.0, 7.0]], [[0.0, 1.0]]), [[2.0, 1.0]]
        )

    def test_soft_labels_rejected(self):
        with pytest.raises(ValueError, match="one-hot"):
            make_alpha_tilde([[2.0, 2.0]], [[0.5, 0.5]])

    @pytest.mark.parametrize("row", [[1.0, 1.0], [np.nan, 1.0]], ids=["two_hot", "nan"])
    def test_label_rows_follow_the_one_label_row_rule(self, row):
        with pytest.raises(ValueError) as err:
            make_alpha_tilde([[2.0, 2.0]], [row])
        assert str(err.value) == "label rows must sum to 1"

    def test_entries_within_1e_12_of_one_hot_and_row_sums_within_1e_9(self):
        # each entry within 1e-12 of 0 or 1, the row sum 8.1e-12 above 1
        y = np.full((1, 11), 9e-13)
        y[0, 0] = 1.0 - 9e-13
        alpha = np.full((1, 11), 3.0)
        assert np.array_equal(make_alpha_tilde(alpha, y), y + (1.0 - y) * alpha)
        y[0, 1] = 2e-12  # 2e-12 from 0: not a one-hot entry, though the row sums to 1
        with pytest.raises(ValueError) as err:
            make_alpha_tilde(alpha, y)
        assert str(err.value) == "alpha_tilde requires one-hot labels"


class TestKLToUniform:
    def test_uniform_is_zero(self):
        value, _ = kl_to_uniform([[1.0, 1.0]])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_two_one_closed_form(self):
        value, _ = kl_to_uniform([[2.0, 1.0]])
        assert value == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)

    def test_concentration_monotone(self):
        k10, _ = kl_to_uniform([[10.0, 10.0]])
        k2, _ = kl_to_uniform([[2.0, 2.0]])
        assert k10 > k2 > 0.0

    def test_matches_beta_quadrature(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = rng.uniform(0.3, 15.0, 2)
            value, _ = kl_to_uniform([[a, b]])

            def integrand(p, a=a, b=b):
                pdf = scipy_stats.beta.pdf(p, a, b)
                return pdf * np.log(pdf) if pdf > 0 else 0.0

            oracle, _ = scipy_integrate.quad(integrand, 0.0, 1.0, limit=200)
            assert value == pytest.approx(oracle, abs=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kl_to_uniform([[0.0, 1.0]])

    @pytest.mark.parametrize("row", [[0.0, 1.0], [-1.0, 2.0], [np.nan, 1.0], [np.inf, 1.0]],
                             ids=["zero", "negative", "nan", "inf"])
    def test_domain_error_has_its_message(self, row):
        with pytest.raises(ValueError) as err:
            kl_to_uniform([row])
        assert str(err.value) == "kl_to_uniform requires finite x > 0"

    @pytest.mark.parametrize("row", [[1e308, 1e308], [np.inf, -np.inf]],
                             ids=["row_sum_overflows", "row_sum_nan"])
    def test_bad_row_sum_raises_without_a_warning(self, row):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^kl_to_uniform requires finite x > 0$"):
                kl_to_uniform([row])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(20):
            k = int(rng.integers(2, 5))
            at = rng.uniform(0.3, 8.0, (3, k))
            _, grad = kl_to_uniform(at)
            for i in range(3):
                for j in range(k):
                    ap, am = at.copy(), at.copy()
                    ap[i, j] += h
                    am[i, j] -= h
                    fd = (kl_to_uniform(ap)[0] - kl_to_uniform(am)[0]) / (2 * h)
                    if abs(fd) > 1e-7:
                        assert abs(grad[i, j] - fd) / abs(fd) < 1e-4

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=2, max_size=6)
    )
    def test_nonnegativity_property(self, row):
        value, _ = kl_to_uniform([row])
        assert value >= -1e-12

    def test_zero_iff_all_ones(self):
        value, _ = kl_to_uniform([[1.0, 1.0, 1.0]])
        assert abs(value) < 1e-12
        value, _ = kl_to_uniform([[1.0, 1.0001, 1.0]])
        assert value > 1e-12

    def test_gradient_blows_up_as_component_vanishes(self):
        # The Lipschitz violation: the closed-form gradient grows
        # without bound when a concentration heads toward zero (the
        # regime an ELU head can actually reach).
        _, g_moderate = kl_to_uniform([[0.1, 1.0]])
        _, g_extreme = kl_to_uniform([[1e-4, 1.0]])
        norm_moderate = np.linalg.norm(g_moderate)
        norm_extreme = np.linalg.norm(g_extreme)
        assert norm_extreme > 10.0 * norm_moderate

    @pytest.mark.xfail(
        strict=True,
        reason="the gradient w.r.t. the concentration stays bounded as one "
        "component grows large; unboundedness only occurs toward zero",
    )
    def test_gradient_blowup_for_large_component(self):
        _, g_small = kl_to_uniform([[10.0, 1.0]])
        _, g_large = kl_to_uniform([[1e4, 1.0]])
        assert np.linalg.norm(g_large) >= 10.0 * np.linalg.norm(g_small)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestKlPassBits:
    """The KL kernel's value and gradient keep the bits of the written-out
    reference pass over every entry of alpha_tilde, S_tilde and K."""

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("labels", ["hard", "soft"])
    @pytest.mark.parametrize("head", ["relu_evidence", "elu_evidence"])
    def test_training_batch_matches_full_pass(self, k, labels, head):
        rng = np.random.default_rng(k)
        n = 128
        logits = rng.normal(0.0, 2.0, (n, k))
        logits[rng.random((n, k)) < 0.2] = 0.0  # ELU evidence of exactly 0 too
        evidence = (np.maximum(logits, 0.0) if head == "relu_evidence"
                    else np.where(logits > 0.0, logits, np.expm1(np.minimum(logits, 0.0))))
        y = (onehot(rng.integers(0, k, n), k) if labels == "hard"
             else softmax(3.0 * rng.normal(size=(n, k))))
        y_hard = harden_labels(y)
        at = losses._alpha_tilde(evidence_to_alpha(evidence, head).alpha, y_hard)
        assert ((at == 1.0) & (y_hard == 0.0)).any()  # off-true-class evidence of exactly 0
        value, grad = losses._kl_uniform(at)
        want_value, want_grad = kl_uniform_full_pass(at)
        assert _same_bits(value, want_value)
        assert _same_bits((1.0 - y_hard) * grad, (1.0 - y_hard) * want_grad)
        assert _same_bits(grad, want_grad)

    @pytest.mark.parametrize("at", [
        [[1.0, 1.0]],
        [[1.0, 1.0, 1.0], [1.0, 2.5, 1.0]],
        [[1e-15, 1.0], [1.0, 1e-15]],
        [[1.0, 12.0, 1.0 + 2 ** -52, 1.0 - 2 ** -53]],
        np.random.default_rng(4).random((7, 10)) * 5.0 + 1e-9,
    ], ids=["all_ones", "mostly_ones", "tiny", "next_to_one", "no_ones"])
    def test_any_alpha_tilde_matches_full_pass(self, at):
        at = np.asarray(at, dtype=np.float64)
        value, grad = kl_to_uniform(at)
        want_value, want_grad = kl_uniform_full_pass(at)
        assert _same_bits(value, want_value)
        assert _same_bits(grad, want_grad)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("head", ["relu_evidence", "elu_evidence"])
    def test_pass_holds_every_entry(self, monkeypatch, k, head):
        seen = []
        real = losses._gamma_rows

        def gamma_rows(flat, name="gamma_terms"):
            seen.append(flat.size)
            return real(flat, name)

        monkeypatch.setattr(losses, "_gamma_rows", gamma_rows)
        rng = np.random.default_rng(5)
        n = 128
        logits = rng.normal(0.0, 2.0, (n, k))
        evidence = (np.maximum(logits, 0.0) if head == "relu_evidence"
                    else np.where(logits > 0.0, logits, np.expm1(np.minimum(logits, 0.0))))
        y_hard = onehot(np.arange(n) % k, k)
        at = losses._alpha_tilde(evidence_to_alpha(evidence, head).alpha, y_hard)
        if head == "relu_evidence":
            assert ((at == 1.0) & (y_hard == 0.0)).any()  # off-true-class evidence of exactly 0
        losses._kl_uniform(at)
        assert seen == [n * k + n + 1]  # every entry, each row's S_tilde and K


class TestKlBinary:
    """The K = 2 closed form: alpha_tilde = (1, a), KL = ln a + 1/a - 1, d/da = (a - 1)/a^2."""

    # relative bound on the value away from a = 1, and on the gradient everywhere
    RELATIVE = 4e-16
    # on (1/2, 2) the value is about (a - 1)^2 / 2 and its error at most 2^-52 |a - 1|
    NEAR_ONE = 2.0 ** -52

    def _oracle_points(self):
        grid = list(np.logspace(-15.0, 300.0, 316))
        return grid + [1.0 + s * 2.0 ** -k for k in range(1, 53) for s in (1.0, -1.0)]

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            for i, a in enumerate(self._oracle_points()):
                true_class = i % 2
                alpha = np.full((1, 2), 3.0)
                alpha[0, 1 - true_class] = a
                value, grad = losses._kl_binary(alpha, onehot([true_class], 2))
                x = mpmath.mpf(a)
                want = mpmath.log(x) + 1 / x - 1
                want_grad = (x - 1) / (x * x)
                if a <= 0.5 or a >= 2.0:
                    assert abs(value - want) <= self.RELATIVE * abs(want), a
                else:
                    assert abs(value - want) <= self.NEAR_ONE * abs(a - 1.0), a
                assert abs(grad[0, 1 - true_class] - want_grad) <= self.RELATIVE * abs(want_grad), a
                assert grad[0, true_class] == 0.0

    @pytest.mark.parametrize("labels", ["hard", "soft"])
    def test_matches_the_general_pass_where_it_is_accurate(self, labels):
        rng = np.random.default_rng(21)
        n = 256
        alpha = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), (n, 2)))
        alpha[rng.random((n, 2)) < 0.1] = 1.0  # evidence of exactly 0
        y = (onehot(rng.integers(0, 2, n), 2) if labels == "hard"
             else softmax(3.0 * rng.normal(size=(n, 2))))
        y_hard = harden_labels(y)
        value, grad = losses._kl_binary(alpha, y_hard)
        want_value, want_grad = losses._kl_uniform(losses._alpha_tilde(alpha, y_hard))
        assert value == pytest.approx(want_value, rel=1e-12)
        np.testing.assert_allclose(grad, (1.0 - y_hard) * want_grad, rtol=1e-11, atol=1e-18)

    @pytest.mark.parametrize("evidence, head", [
        ([[1e306, 0.0], [0.0, 1e306]], "relu_evidence"),
        ([[1.7e308, 0.0], [0.0, 1.7e308]], "relu_evidence"),
        ([[1.7e308, -1.0 + 1e-15], [-1.0 + 1e-15, 1.7e308]], "elu_evidence"),
    ], ids=["1e306", "float_max", "float_max_and_1e-15"])
    def test_training_batch_at_the_extremes_is_finite_without_a_warning(self, evidence, head):
        # the closed form and the base kernel, called as stage 2 calls them: s(s + 1)
        # overflows in the base term's gradient and a reaches 1.7e308 or 1e-15 in the KL term
        y = onehot([0, 0], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = evidence_to_alpha(evidence, head)
            loss, grad = losses._edl_total(out, y, y, 0.5)
            kl_value, kl_grad = losses._kl_binary(out.alpha, y)
        assert math.isfinite(loss.total) and np.isfinite(grad).all()
        assert math.isfinite(kl_value) and np.isfinite(kl_grad).all()
        assert kl_grad[1, 1] > 0.0

    def test_gradient_matches_finite_differences_through_the_total_loss(self):
        rng = np.random.default_rng(23)
        e = np.concatenate([rng.uniform(-0.8, 5.0, (6, 2)), rng.uniform(20.0, 500.0, (2, 2)),
                            [[1e-3, 2e-3], [0.5, -1e-3]]])
        y = onehot(rng.integers(0, 2, len(e)), 2)
        h = 1e-6
        for lam in (0.3, 1.0):
            _, grad = edl_total_loss(evidence_to_alpha(e, "elu_evidence"), y, lam)
            for i, j in np.ndindex(e.shape):
                step = h * max(1.0, abs(e[i, j]))
                ep, em = e.copy(), e.copy()
                ep[i, j] += step
                em[i, j] -= step
                fd = (edl_total_loss(evidence_to_alpha(ep, "elu_evidence"), y, lam)[0].total
                      - edl_total_loss(evidence_to_alpha(em, "elu_evidence"), y, lam)[0].total
                      ) / (2 * step)
                if abs(fd) > 1e-7:
                    assert abs(grad[i, j] - fd) / abs(fd) < 1e-4

    @pytest.mark.parametrize("k, calls", [(2, 0), (3, 1)])
    def test_only_the_binary_case_skips_the_special_function_pass(self, monkeypatch, k, calls):
        seen = []
        real = losses._gamma_rows

        def gamma_rows(flat, name="gamma_terms"):
            seen.append(flat.size)
            return real(flat, name)

        monkeypatch.setattr(losses, "_gamma_rows", gamma_rows)
        rng = np.random.default_rng(7)
        y = onehot(np.arange(16) % k, k)
        out = evidence_to_alpha(rng.uniform(0.0, 4.0, (16, k)), "relu_evidence")
        losses._edl_total(out, y, y, 0.5)
        assert len(seen) == calls


class TestTotalLoss:
    def test_lambda_zero_equals_base(self):
        out = evidence_to_alpha([[4.0, 2.0]], "relu_evidence")
        y = [[1.0, 0.0]]
        total, _ = edl_total_loss(out, y, 0.0)
        base, _ = edl_base_loss(out, y)
        assert total.total == base
        assert total.kl >= 0.0

    def test_uniform_alpha_kl_vanishes(self):
        out = evidence_to_alpha([[0.0, 0.0]], "relu_evidence")
        total, _ = edl_total_loss(out, [[1.0, 0.0]], 1.0)
        assert total.total == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert total.kl == pytest.approx(0.0, abs=1e-12)

    def test_composition(self):
        out = evidence_to_alpha([[4.0, 2.0]], "relu_evidence")
        y = [[1.0, 0.0]]
        loss, _ = edl_total_loss(out, y, 0.5)
        base, _ = edl_base_loss(out, y)
        kl, _ = kl_to_uniform(make_alpha_tilde(out.alpha, y))
        assert loss.total == pytest.approx(base + 0.5 * kl, abs=1e-12)
        assert loss.base == base
        assert loss.kl == pytest.approx(kl, abs=1e-12)

    def test_affine_in_lambda(self):
        out = evidence_to_alpha([[3.0, 1.0], [0.5, 2.0]], "relu_evidence")
        y = [[1.0, 0.0], [0.0, 1.0]]
        values = [edl_total_loss(out, y, lam)[0] for lam in (0.0, 0.5, 1.0)]
        slope = values[0].kl
        assert values[1].total == pytest.approx(values[0].total + 0.5 * slope, abs=1e-12)
        assert values[2].total == pytest.approx(values[0].total + 1.0 * slope, abs=1e-12)
        for v, lam in zip(values, (0.0, 0.5, 1.0)):
            assert v.total == pytest.approx(v.base + lam * v.kl, abs=1e-12)

    def test_no_kl_gradient_to_true_class(self):
        out = evidence_to_alpha([[3.0, 1.0]], "relu_evidence")
        y = [[1.0, 0.0]]
        _, g0 = edl_total_loss(out, y, 0.0)
        _, g1 = edl_total_loss(out, y, 1.0)
        # the true-class column must be identical across lambda
        assert g0[0, 0] == g1[0, 0]
        assert g0[0, 1] != g1[0, 1]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(15):
            k = int(rng.integers(2, 4))
            e = rng.uniform(-0.8, 5.0, (3, k))
            y = onehot(rng.integers(0, k, 3), k)
            lam = float(rng.uniform(0.0, 1.0))
            _, grad = edl_total_loss(evidence_to_alpha(e, "elu_evidence"), y, lam)
            for i in range(3):
                for j in range(k):
                    ep, em = e.copy(), e.copy()
                    ep[i, j] += h
                    em[i, j] -= h
                    fd = (
                        edl_total_loss(evidence_to_alpha(ep, "elu_evidence"), y, lam)[0].total
                        - edl_total_loss(evidence_to_alpha(em, "elu_evidence"), y, lam)[0].total
                    ) / (2 * h)
                    if abs(fd) > 1e-7:
                        assert abs(grad[i, j] - fd) / abs(fd) < 1e-4

    def test_soft_labels_hardened_for_kl(self):
        out = evidence_to_alpha([[3.0, 1.0]], "relu_evidence")
        soft = [[0.9, 0.1]]
        loss, _ = edl_total_loss(out, soft, 1.0)
        kl_hard, _ = kl_to_uniform(make_alpha_tilde(out.alpha, [[1.0, 0.0]]))
        assert loss.kl == pytest.approx(kl_hard, abs=1e-12)


class TestLambdaSchedule:
    def test_epoch_zero(self):
        assert lambda_schedule(0, 0.1) == 0.0

    def test_linear_region(self):
        assert lambda_schedule(5, 0.1) == pytest.approx(0.5)

    def test_cap(self):
        assert lambda_schedule(12, 0.1) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda_schedule(1, -0.1)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_increment_rejected(self, lam):
        with pytest.raises(ValueError, match="finite"):
            lambda_schedule(0, lam)


class TestCrossEntropy:
    def test_uniform_prediction(self):
        probs = softmax(np.array([[0.0, 0.0]]))
        value, _ = cross_entropy_loss(probs, [[1.0, 0.0]])
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_self_entropy(self):
        y = np.array([[0.3, 0.7]])
        value, _ = cross_entropy_loss(y, y)
        entropy = -float(np.sum(y * np.log(y)))
        assert value == pytest.approx(entropy, abs=1e-12)

    def test_confident_logits(self):
        probs = softmax(np.array([[4.0, 0.0]]))
        value, _ = cross_entropy_loss(probs, [[1.0, 0.0]])
        expected = -math.log(math.exp(4.0) / (math.exp(4.0) + 1.0))
        assert value == pytest.approx(expected, abs=1e-10)

    def test_logit_gradient_is_p_minus_y(self):
        logits = np.array([[1.0, -2.0], [0.3, 0.4]])
        probs = softmax(logits)
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, grad = cross_entropy_loss(probs, y)
        assert np.allclose(grad, (probs - y) / 2.0)

    def test_extreme_probs_stay_finite(self):
        probs = np.array([[1.0, 0.0]])
        value, _ = cross_entropy_loss(probs, [[0.0, 1.0]])
        assert np.isfinite(value)


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_label_row(self, bad):
        with pytest.raises(ValueError, match="sum to 1"):
            cross_entropy_loss([[0.5, 0.5]], [[bad, 1.0]])


# The losses keep the Dataset's label-row rule: |row sum - 1| <= 1e-9.
LABEL_RULE_LOSSES = {
    "cross_entropy_loss": lambda y: cross_entropy_loss([[0.5, 0.5]], y),
    "edl_base_loss": lambda y: edl_base_loss(evidence_to_alpha([[1.0, 2.0]], "elu_evidence"), y),
    "edl_total_loss": lambda y: edl_total_loss(
        evidence_to_alpha([[1.0, 2.0]], "elu_evidence"), y, 0.5),
}


@pytest.mark.parametrize("loss", LABEL_RULE_LOSSES.values(), ids=LABEL_RULE_LOSSES.keys())
def test_label_sum_tolerance_is_1e_9(loss):
    loss([[0.5, 0.5 + 5e-10]])
    with pytest.raises(ValueError, match="sum to 1"):
        loss([[0.5, 0.5 + 1e-7]])


def test_harden_labels():
    assert np.array_equal(
        harden_labels([[0.4, 0.6], [0.9, 0.1]]), [[0.0, 1.0], [1.0, 0.0]]
    )


def _elu_output(rows=3, k=2):
    return evidence_to_alpha(np.ones((rows, k)), "elu_evidence")


@pytest.mark.parametrize("call, message", [
    (lambda: edl_base_loss(_elu_output(), np.eye(3)), "label shape must match alpha shape"),
    (lambda: make_alpha_tilde(np.ones((3, 2)), np.eye(3)), "label shape must match alpha shape"),
    (lambda: cross_entropy_loss(np.full((3, 2), 0.5), np.eye(3)),
     "label shape must match probability shape"),
    (lambda: edl_total_loss(_elu_output(), onehot([0, 1, 0], 2), 1.5),
     "lambda_t must lie in [0, 1]"),
    (lambda: edl_total_loss(_elu_output(), onehot([0, 1, 0], 2), float("nan")),
     "lambda_t must lie in [0, 1]"),
    (lambda: lambda_schedule(-1, 0.1), "epoch index must be >= 0"),
    (lambda: cross_entropy_loss(np.zeros((0, 2)), np.zeros((0, 2))),
     "cross_entropy_loss requires a batch of at least one row"),
    (lambda: kl_to_uniform(np.zeros((0, 2))), "kl_to_uniform requires a batch of at least one row"),
    (lambda: edl_base_loss(_elu_output(0), np.zeros((0, 2))),
     "edl_base_loss requires a batch of at least one row"),
    (lambda: edl_total_loss(_elu_output(0, 3), np.zeros((0, 3)), 0.5),
     "edl_total_loss requires a batch of at least one row"),
    (lambda: evidence_to_alpha(np.zeros((2, 0)), "relu_evidence"),
     "evidence_to_alpha requires at least one column"),
    (lambda: evidence_to_alpha(np.zeros((0, 0)), "elu_evidence"),
     "evidence_to_alpha requires at least one column"),
], ids=["base_shape", "alpha_tilde_shape", "ce_shape", "lambda_t_above_1", "lambda_t_nan",
        "negative_epoch", "ce_no_rows", "kl_no_rows", "base_no_rows", "total_no_rows",
        "alpha_no_columns", "alpha_empty"])
def test_each_argument_error_has_its_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def _elu(evidence):
    return evidence_to_alpha(evidence, "elu_evidence")


# Each public loss call on hostile input either returns finite values or raises NumericError,
# and leaks no numpy warning
@pytest.mark.parametrize("call, message", [
    (lambda: kl_to_uniform([[5e-324, 5e-324]]), "non-finite loss or gradient in kl_to_uniform"),
    (lambda: kl_to_uniform([[1.7e308, 1.0]]), "non-finite loss or gradient in kl_to_uniform"),
    (lambda: evidence_to_alpha([[0, np.inf], [0.5, 0.5]], "relu_evidence"),
     "non-finite strength in evidence_to_alpha"),
    (lambda: evidence_to_alpha([[1.7e308, 1.7e308], [0.5, 0.2]], "relu_evidence"),
     "non-finite strength in evidence_to_alpha"),
    (lambda: evidence_to_alpha([[np.nan, 0.0], [0.5, 0.2]], "relu_evidence"),
     "non-finite strength in evidence_to_alpha"),
    (lambda: evidence_to_alpha([[np.nan, 0.0]], "elu_evidence"),
     "non-finite strength in evidence_to_alpha"),
    (lambda: cross_entropy_loss([[0, np.inf], [0.5, 0.5]], np.eye(2)),
     "non-finite loss or gradient in cross_entropy_loss"),
    (lambda: make_alpha_tilde([[np.inf, 1.0]], [[1, 0]]),
     "non-finite alpha_tilde in make_alpha_tilde"),
], ids=["kl_subnormal", "kl_large", "alpha_inf", "alpha_row_sum_overflows", "alpha_nan_relu",
        "alpha_nan_elu", "ce_inf", "alpha_tilde_inf"])
def test_hostile_call_raises_numeric_error_without_a_warning(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            call()
    assert str(err.value) == message


@pytest.mark.parametrize("call", [
    lambda: edl_base_loss(_elu([[0, 1.7e308], [0.5, 0.2]]), np.eye(2)),
    lambda: edl_total_loss(_elu([[1e200, 0.0]]), [[1, 0]], 0.5),
], ids=["base_loss", "total_loss"])
def test_huge_strength_gives_a_finite_loss_without_a_warning(call):
    # s * (s + 1) overflows, so the gradient's variance terms are 0, as their true
    # values lie below the smallest double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad = call()
    assert math.isfinite(getattr(loss, "total", loss)) and np.isfinite(grad).all()


def test_row_sum_near_the_float_maximum_keeps_its_value():
    # past the quick bound, so its strength is summed again and checked: still finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evidence_to_alpha([[1e308, 0.0], [0.5, 0.2]], "relu_evidence")
    assert np.array_equal(out.strength, [1e308, 2.7])
    assert np.array_equal(out.p_hat[0], [1.0, 1e-308])


_HOSTILE_CELLS = [0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan, 0.3, 1.0, 2.5]


def _finite_or_value_error(call, *args):
    """call(*args), or None if it raises ValueError (NumericError among them)."""
    try:
        return call(*args)
    except ValueError:
        return None


def _assert_finite_loss(result):
    if result is not None:
        loss, grad = result
        assert math.isfinite(getattr(loss, "total", loss)) and np.isfinite(grad).all()


def _assert_float_range_rule(name, function, cells):
    """README: a finite x > 0 never raises and gives +-inf exactly where the true value
    leaves the float range; any other x raises ValueError."""
    mpmath = pytest.importorskip("mpmath")
    if not (np.isfinite(cells) & (cells > 0)).all():
        with pytest.raises(ValueError, match=f"^{name} requires finite x > 0$"):
            function(cells)
        return
    truth = {"ln_gamma": mpmath.loggamma, "digamma": mpmath.digamma}[name]
    want = np.array([float(truth(mpmath.mpf(x))) for x in cells.ravel()]).reshape(cells.shape)
    got = function(cells)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(got[np.isinf(got)], want[np.isinf(want)])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_public_losses_return_finite_values_or_raise_value_error(data):
    # 1-4 rows of 2-4 cells at 0, +-5e-324, +-1.7e308, +-inf, NaN and a few ordinary values;
    # label rows one-hot or uniform (hardened for alpha_tilde)
    rows, k = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 4))
    cells = np.array(data.draw(st.lists(st.sampled_from(_HOSTILE_CELLS), min_size=rows * k,
                                        max_size=rows * k))).reshape(rows, k)
    y = np.array([np.full(k, 1.0 / k) if c == k else onehot([c], k)[0]
                  for c in data.draw(st.lists(st.integers(0, k), min_size=rows, max_size=rows))])
    y_hard = harden_labels(y)
    lambda_t = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for head in ("relu_evidence", "elu_evidence"):
            out = _finite_or_value_error(evidence_to_alpha, cells, head)
            if out is not None:
                for part in (out.alpha, out.strength, out.p_hat, out.uncertainty):
                    assert np.isfinite(part).all()
                _assert_finite_loss(_finite_or_value_error(edl_base_loss, out, y))
                _assert_finite_loss(_finite_or_value_error(edl_total_loss, out, y, lambda_t))
                at = _finite_or_value_error(make_alpha_tilde, out.alpha, y_hard)
                if at is not None:
                    _assert_finite_loss(_finite_or_value_error(kl_to_uniform, at))
        at = _finite_or_value_error(make_alpha_tilde, cells, y_hard)
        assert at is None or np.isfinite(at).all()
        _assert_finite_loss(_finite_or_value_error(kl_to_uniform, cells))
        _assert_finite_loss(_finite_or_value_error(cross_entropy_loss, cells, y))
        _assert_float_range_rule("ln_gamma", ln_gamma, cells)
        _assert_float_range_rule("digamma", digamma, cells)
