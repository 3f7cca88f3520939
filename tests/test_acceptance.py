"""Acceptance suite: seven end-to-end checks, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL
lines. The training-based checks (1-4) share a cache of deterministic
runs on the reference task: 20,000-point 10-d two-class Gaussian blobs
at separation 2.0 with 10% training-label noise, evaluated on a clean
validation split, hidden layer (8,) ReLU, SGD lr 0.2, 10+10 epochs.
"""

import json
import math
from functools import lru_cache

import numpy as np
import pytest

from evidential import cli
from evidential.data import SplitSpec, gen_blobs, split
from evidential.losses import (
    cross_entropy_loss,
    edl_base_loss,
    edl_total_loss,
    evidence_to_alpha,
    kl_to_uniform,
)
from evidential.metrics import roc_auc
from evidential.ndcore import softmax
from evidential.specfun import digamma, ln_gamma
from evidential.train import TrainPlan, run_plan
from oracles import edl_base_loss_phat_form

N, D, K, SEP, NOISE = 20000, 10, 2, 2.0, 0.1
SEEDS = (0, 1, 2, 3, 4)
EPOCHS = 10  # per stage
TASK_KW = dict(stage1_epochs=EPOCHS, stage2_epochs=EPOCHS,
               hidden_sizes=(8,), hidden_activation="relu",
               optimizer="sgd", lr_stage1=0.2, lr_stage2=0.2)


def report(num, name, ok, detail):
    line = f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def task_pair(seed):
    # train on noisy labels, validate on the clean assignments of an
    # identical feature draw (the label-noise stream is independent of
    # the feature stream, so features match bit-for-bit)
    noisy = gen_blobs(N, D, K, SEP, label_noise=NOISE, seed=seed)
    clean = gen_blobs(N, D, K, SEP, label_noise=0.0, seed=seed)
    spec = SplitSpec(seed=seed)
    return split(noisy, spec)[0], split(clean, spec)[1]


@lru_cache(maxsize=None)
def task_run(mode, lam, seed):
    head = "relu_evidence" if mode == "edl_only" else "elu_evidence"
    plan = TrainPlan(mode=mode, lam=lam, seed=seed,
                     evidence_head_stage2=head, **TASK_KW)
    return run_plan(plan, task_pair(seed))


def final_auc(mode, lam, seed):
    return task_run(mode, lam, seed).records[-1].val_auc


class TestAcceptance:
    def test_1_method_ordering(self):
        means = {
            mode: float(np.mean([final_auc(mode, 0.1, s) for s in SEEDS]))
            for mode in ("ce_only", "edl_only", "tedl")
        }
        gap = means["tedl"] - means["edl_only"]
        close = abs(means["tedl"] - means["ce_only"])
        ok = (0.90 <= means["ce_only"] <= 0.97 and gap >= 0.01
              and close <= 0.01)
        report(1, "method ordering", ok,
               f"CE {means['ce_only']:.4f}, EDL {means['edl_only']:.4f}, "
               f"TEDL {means['tedl']:.4f}; TEDL-EDL {gap:+.4f} (need >= +0.01), "
               f"|TEDL-CE| {close:.4f} (need <= 0.01)")

    def test_2_lambda_robustness(self):
        lams = (0.1, 0.25, 0.5, 0.75)
        stds = {}
        for mode in ("edl_only", "tedl"):
            per_lam = [
                float(np.mean([final_auc(mode, lam, s) for s in SEEDS[:3]]))
                for lam in lams
            ]
            stds[mode] = float(np.std(per_lam))
        ok = stds["tedl"] < stds["edl_only"]
        report(2, "lambda robustness", ok,
               f"std over lambda: TEDL {stds['tedl']:.5f} < "
               f"EDL {stds['edl_only']:.5f}")

    def test_3_dying_relu(self):
        kw = dict(stage1_epochs=EPOCHS, stage2_epochs=EPOCHS, lam=0.75,
                  seed=0, init_mode="hostile",
                  hidden_sizes=(8,), hidden_activation="relu",
                  optimizer="adam", lr_stage1=1e-3, lr_stage2=1e-3)
        pair = task_pair(0)
        edl = run_plan(TrainPlan(mode="edl_only",
                                 evidence_head_stage2="relu_evidence", **kw),
                       pair).records[-1]
        tedl = run_plan(TrainPlan(mode="tedl",
                                  evidence_head_stage2="elu_evidence", **kw),
                        pair).records[-1]
        ok = (edl.dead_evidence_frac == 1.0
              and 0.45 <= edl.val_auc <= 0.55
              and tedl.dead_evidence_frac < 0.05
              and tedl.val_auc >= 0.85)
        report(3, "dying ReLU", ok,
               f"EDL dead {edl.dead_evidence_frac:.3f} (need 1.0) "
               f"AUC {edl.val_auc:.4f} (need [0.45, 0.55]); "
               f"TEDL dead {tedl.dead_evidence_frac:.4f} (need < 0.05) "
               f"AUC {tedl.val_auc:.4f} (need >= 0.85)")

    def test_4_uncertainty_quality_curve(self):
        ok = True
        details = []
        for seed in SEEDS:
            curve = task_run("tedl", 0.1, seed).reports[-1].threshold_curve
            present = [(p.threshold, p.auc) for p in curve if p.auc is not None]
            tau1 = next(a for t, a in present if abs(t - 1.0) < 1e-9)
            first = present[0][1]
            rises = [b - a for (_, a), (_, b) in zip(present, present[1:])
                     if b > a]
            seed_ok = (first >= tau1 and len(rises) <= 1
                       and all(r <= 0.005 for r in rises))
            ok = ok and seed_ok
            details.append(f"s{seed}: low-tau {first:.4f} vs tau=1 {tau1:.4f}, "
                           f"{len(rises)} inversion(s) max "
                           f"{max(rises) if rises else 0:.4f}")
        report(4, "uncertainty quality", ok, "; ".join(details))

    def test_5a_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        h, worst, configs = 1e-5, 0.0, 0

        def rel(gfd, g):
            return float(np.max(np.abs(g - gfd) / np.maximum(np.abs(gfd), 1e-6)))

        for _ in range(120):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(2, 6))
            head = rng.choice(["relu_evidence", "elu_evidence"])
            lo = 0.05 if head == "relu_evidence" else -0.9
            e = rng.uniform(lo, 4.0, size=(n, k))
            y = np.zeros((n, k))
            y[np.arange(n), rng.integers(0, k, size=n)] = 1.0
            lam = float(rng.uniform(0.0, 1.0))

            def total_at(ev):
                return edl_total_loss(evidence_to_alpha(ev, head), y, lam)[0].total

            _, grad = edl_total_loss(evidence_to_alpha(e, head), y, lam)
            fd = np.zeros_like(e)
            for i in range(n):
                for j in range(k):
                    ep, em = e.copy(), e.copy()
                    ep[i, j] += h
                    em[i, j] -= h
                    fd[i, j] = (total_at(ep) - total_at(em)) / (2 * h)
            worst = max(worst, rel(fd, grad))
            configs += 1

            # cross-entropy gradient at the logits
            z = rng.standard_normal((n, k))
            _, gz = cross_entropy_loss(softmax(z), y)
            fdz = np.zeros_like(z)
            for i in range(n):
                for j in range(k):
                    zp, zm = z.copy(), z.copy()
                    zp[i, j] += h
                    zm[i, j] -= h
                    fdz[i, j] = (cross_entropy_loss(softmax(zp), y)[0]
                                 - cross_entropy_loss(softmax(zm), y)[0]) / (2 * h)
            worst = max(worst, rel(fdz, gz))
            configs += 1
        ok = worst < 1e-4 and configs >= 100
        report("5a", "gradients vs finite differences", ok,
               f"{configs} configurations, worst relative error {worst:.3e} "
               f"(need < 1e-4)")

    def test_5b_kl_vs_beta_quadrature(self):
        from scipy import integrate, special

        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(20):
            a, b = rng.uniform(0.3, 5.0, size=2)

            def integrand(x):
                logp = ((a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
                        - special.betaln(a, b))
                return np.exp(logp) * logp  # KL against the uniform density 1

            expected, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
            got, _ = kl_to_uniform(np.array([[a, b]]))
            worst = max(worst, abs(got - expected))
        ok = worst < 1e-6
        report("5b", "KL vs Beta quadrature", ok,
               f"20 random concentrations, worst absolute error {worst:.3e} "
               f"(need < 1e-6)")

    def test_5c_specfun_identities(self):
        xs = np.concatenate([
            np.geomspace(1e-3, 1e3, 400),
            np.random.default_rng(2).uniform(0.01, 50.0, 200),
        ])
        worst = 0.0
        # recurrences
        worst = max(worst, float(np.max(np.abs(
            ln_gamma(xs + 1.0) - ln_gamma(xs) - np.log(xs)))))
        worst = max(worst, float(np.max(np.abs(
            digamma(xs + 1.0) - digamma(xs) - 1.0 / xs))))
        # reflection on (0, 1)
        fracs = np.linspace(0.05, 0.95, 50)
        worst = max(worst, float(np.max(np.abs(
            ln_gamma(fracs) + ln_gamma(1.0 - fracs)
            - np.log(np.pi / np.sin(np.pi * fracs))))))
        worst = max(worst, float(np.max(np.abs(
            digamma(1.0 - fracs) - digamma(fracs)
            - np.pi / np.tan(np.pi * fracs)))))
        ok = worst < 1e-10
        report("5c", "ln_gamma/digamma identities", ok,
               f"recurrence + reflection grids, worst error {worst:.3e} "
               f"(need < 1e-10)")

    def test_5d_auc_vs_brute_force(self):
        rng = np.random.default_rng(3)
        worst, instances = 0.0, 0
        for _ in range(100):
            n = int(rng.integers(2, 201))
            scores = rng.integers(0, 8, size=n) / 7.0  # heavy ties
            labels = rng.integers(0, 2, size=n)
            pos, neg = scores[labels == 1], scores[labels == 0]
            fast = roc_auc(scores, labels)
            if pos.size == 0 or neg.size == 0:
                assert fast is None
                continue
            wins = float(np.sum(pos[:, None] > neg[None, :]))
            ties = float(np.sum(pos[:, None] == neg[None, :]))
            brute = (wins + 0.5 * ties) / (pos.size * neg.size)
            worst = max(worst, abs(fast - brute))
            instances += 1
        ok = worst < 1e-12 and instances >= 80
        report("5d", "AUC vs brute force", ok,
               f"{instances} two-class instances (n <= 200, with ties), "
               f"worst deviation {worst:.3e} (need < 1e-12)")

    def test_6_dual_form_identity(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(2, 6))
            e = rng.uniform(-0.95, 5.0, size=(n, k))
            out = evidence_to_alpha(e, "elu_evidence")
            y = np.zeros((n, k))
            y[np.arange(n), rng.integers(0, k, size=n)] = 1.0
            a = edl_base_loss(out, y)[0]
            b = edl_base_loss_phat_form(out, y)
            worst = max(worst, abs(a - b))
        ok = worst < 1e-12
        report(6, "dual-form identity", ok,
               f"1000 random (alpha, y) pairs, worst |difference| {worst:.3e} "
               f"(need < 1e-12)")

    def test_7_rerun_byte_identical(self, tmp_path):
        cfg = {
            "mode": "tedl",
            "stage1_epochs": 3,
            "stage2_epochs": 3,
            "lambda": 0.25,
            "seed": 0,
            "dataset": {"kind": "blobs", "n": 2000, "d": 4, "k": 2,
                        "sep": 2.5, "noise": 0.1, "seed": 0},
            "out_dir": str(tmp_path / "run"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for _ in range(2):
            assert cli.main(["train", "--config", str(cfg_path)]) == 0
            blobs.append((tmp_path / "run" / "epochs.csv").read_bytes())
        ok = blobs[0] == blobs[1]
        report(7, "rerun determinism", ok,
               f"epochs.csv identical across reruns: {ok} "
               f"({len(blobs[0])} bytes)")
