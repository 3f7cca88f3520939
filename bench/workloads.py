"""The benchmark's workloads: inputs made from a seed, the timed CLI commands,
and checks of what those commands wrote against the benchmark's own maths.

The program only ever sees the generated config files and CSVs. Every check
records one attempt in a `Checks` ledger; a failed check is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Full sizes. `tedl_ref` is the acceptance reference task.
SIZES = {
    "tedl_ref": {
        "mode": "tedl", "n": 20000, "d": 10, "k": 2, "sep": 2.0, "noise": 0.1,
        "hidden": [8], "activation": "relu", "optimizer": "sgd", "lr": 0.2,
        "batch": 128, "lam": 0.1, "stage1": 10, "stage2": 10,
    },
    "ce_wide": {
        "mode": "ce_only", "n": 50000, "d": 32, "k": 10, "sep": 3.0, "noise": 0.0,
        "hidden": [64, 64], "activation": "tanh", "optimizer": "adam", "lr": 1e-3,
        "batch": 256, "lam": 0.1, "stage1": 5, "stage2": 0,
    },
    "gen_eval": {
        "model": {
            "mode": "tedl", "n": 4000, "d": 10, "k": 2, "sep": 2.0, "noise": 0.1,
            "hidden": [8], "activation": "relu", "optimizer": "sgd", "lr": 0.2,
            "batch": 128, "lam": 0.1, "stage1": 2, "stage2": 2,
        },
        "holdout": {"n": 100000, "d": 10, "k": 2, "sep": 2.0, "noise": 0.1},
    },
}

# The same workloads at a size that runs in well under a second.
TINY = {
    "tedl_ref": dict(SIZES["tedl_ref"], n=600, stage1=2, stage2=3),
    "ce_wide": dict(SIZES["ce_wide"], n=1000, d=12, hidden=[16, 16], stage1=2),
    "gen_eval": {
        "model": dict(SIZES["gen_eval"]["model"], n=600, stage1=1, stage2=1),
        "holdout": dict(SIZES["gen_eval"]["holdout"], n=3000),
    },
}

TRAIN_FRACTION, VAL_FRACTION = 0.8, 0.2
AUC_TOLERANCE = 1e-9


class Checks:
    """Ledger of attempted and failed operations (commands and checks)."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ------------------------------------------------ independent reference maths

def model_forward(model_path: Path, x: np.ndarray):
    """Head output of a saved model, computed without the program's code."""
    doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
    payload = doc["payload"]
    z = x
    for spec in payload["layers"]:
        a = z @ np.array(spec["weights"]) + np.array(spec["bias"])
        act = spec["activation"]
        if act == "tanh":
            z = np.tanh(a)
        elif act == "relu":
            z = np.maximum(a, 0.0)
        elif act == "identity":
            z = a
        else:
            raise ValueError(f"activation {act!r} is not modelled")
    head = payload["head"]
    if head == "softmax":
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return head, e / e.sum(axis=1, keepdims=True)
    if head == "elu_evidence":
        neg = np.expm1(np.minimum(z, 0.0))
        return head, np.maximum(np.where(z > 0.0, z, neg), -1.0 + 1e-15)
    raise ValueError(f"head {head!r} is not modelled")


def rank_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Tie-aware Mann-Whitney AUC from exact integer pair counts."""
    pos = scores[positive]
    neg = np.sort(scores[~positive])
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return (2 * int(below.sum()) + int(tied.sum())) / (2 * pos.size * neg.size)


def class_auc(probs: np.ndarray, classes: np.ndarray) -> float:
    """Class-1 AUC for two classes; one-vs-rest macro mean for more."""
    if probs.shape[1] == 2:
        return rank_auc(probs[:, 1], classes == 1)
    parts = [rank_auc(probs[:, j], classes == j) for j in range(probs.shape[1])
             if 0 < np.sum(classes == j) < classes.size]
    return float(np.mean(parts))


def dirichlet_view(evidence: np.ndarray):
    """(p_hat, uncertainty) of evidence under Dirichlet(evidence + 1)."""
    alpha = evidence + 1.0
    strength = alpha.sum(axis=1)
    return alpha / strength[:, None], alpha.shape[1] / strength


def check_curve(checks: Checks, curve, uncertainty: np.ndarray, where: str) -> None:
    """Every (threshold, sample_count) point counts exactly the u < tau rows."""
    for threshold, count in curve:
        expected = int(np.sum(uncertainty < threshold))
        checks.expect(count == expected,
                      f"{where}: sample_count {count} at tau={threshold!r}, "
                      f"expected {expected}")


# ------------------------------------------------------------------ workloads

def train_config(p: dict, seed: int, out_dir: Path) -> dict:
    return {
        "mode": p["mode"],
        "stage1_epochs": p["stage1"],
        "stage2_epochs": p["stage2"],
        "lambda": p["lam"],
        "batch_size": p["batch"],
        "optimizer": p["optimizer"],
        "lr_stage1": p["lr"],
        "lr_stage2": p["lr"],
        "seed": seed,
        "hidden_sizes": p["hidden"],
        "hidden_activation": p["activation"],
        "dataset": {"kind": "blobs", "n": p["n"], "d": p["d"], "k": p["k"],
                    "sep": p["sep"], "noise": p["noise"], "seed": seed},
        "out_dir": str(out_dir),
    }


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


class TrainWorkload:
    """`evidential train` on one generated config."""

    def __init__(self, program, work: Path, seed: int, p: dict):
        self.program, self.work, self.seed, self.p = program, work, seed, p
        self.out = work / "run"
        self.config = work / "train.json"
        self.rows = round(TRAIN_FRACTION * p["n"]) * (p["stage1"] + p["stage2"])

    def prepare(self, run, checks: Checks) -> None:
        """Write the config and warm up on a small run of the same model."""
        warm = dict(self.p, n=min(self.p["n"], 1000), stage1=1,
                    stage2=min(self.p["stage2"], 1))
        cfg = write_json(self.work / "warm.json",
                         train_config(warm, self.seed, self.work / "warm"))
        if run(["train", "--config", str(cfg)], checks):
            write_json(self.config, train_config(self.p, self.seed, self.out))

    def timed(self, run, checks: Checks) -> None:
        run(["train", "--config", str(self.config)], checks)

    def check(self, checks: Checks) -> str:
        """Per-repeat checks; returns the digest every repeat must share."""
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        for key, path in manifest["paths"].items():
            checks.expect(sha256(Path(path)) == manifest["files"][key],
                          f"manifest hash of {key} does not match {path}")
        return sha256(self.out / "epochs.csv")

    def _epochs(self) -> list[dict]:
        lines = (self.out / "epochs.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def quality(self) -> float:
        return float(self._epochs()[-1]["val_auc"])

    def check_values(self, checks: Checks) -> None:
        """Final val_auc and threshold curve against the benchmark's own maths."""
        p = self.p
        epochs = self._epochs()
        checks.expect(len(epochs) == p["stage1"] + p["stage2"],
                      f"epochs.csv has {len(epochs)} rows")
        # The validation rows are inputs, not outputs under test, so the
        # program's own generator and split recover them.
        data = self.program.data
        ds = data.gen_blobs(p["n"], p["d"], p["k"], p["sep"],
                            label_noise=p["noise"], seed=self.seed)
        _, val = data.split(ds, data.SplitSpec(train_fraction=TRAIN_FRACTION,
                                                val_fraction=VAL_FRACTION,
                                                seed=self.seed))
        classes = val.class_indices()
        head, out = model_forward(self.out / "model.json", val.features)
        probs = out
        if head == "elu_evidence":
            probs, uncertainty = dirichlet_view(out)
            last = str(len(epochs) - 1)
            rows = (self.out / "threshold_curves.csv").read_text(encoding="utf-8")
            curve = [(float(t), int(c)) for e, t, _, c in
                     (line.split(",") for line in rows.splitlines()[1:]) if e == last]
            checks.expect(len(curve) > 0, "no threshold curve for the last epoch")
            check_curve(checks, curve, uncertainty, "threshold_curves.csv")
        expected = class_auc(probs, classes)
        checks.expect(abs(self.quality() - expected) <= AUC_TOLERANCE,
                      f"final val_auc {self.quality()!r} != rank AUC {expected!r}")


def _manifest(gen_dir: Path) -> dict:
    """The manifest `evidential gen` wrote into `gen_dir` (it names the CSV)."""
    (path,) = gen_dir.glob("*.manifest.json")
    return json.loads(path.read_text(encoding="utf-8"))


class GenEvalWorkload:
    """`evidential gen` of a holdout CSV, then `evidential eval` on it."""

    def __init__(self, program, work: Path, seed: int, p: dict):
        self.program, self.work, self.seed, self.p = program, work, seed, p
        self.holdout_seed = seed + 1
        self.data_dir = work / "holdout"
        self.csv = None
        self.model_run = work / "model"
        self.eval_dir = work / "eval"
        self.rows = 2 * p["holdout"]["n"]
        self.model_digest = None

    def prepare(self, run, checks: Checks) -> None:
        """Train the model to evaluate and warm up gen and eval at small n."""
        cfg = write_json(self.work / "model_train.json",
                         train_config(self.p["model"], self.seed, self.model_run))
        if not run(["train", "--config", str(cfg)], checks):
            return
        digest = sha256(self.model_run / "epochs.csv")
        if self.model_digest is None:
            self.model_digest = digest
        checks.expect(digest == self.model_digest, "model epochs.csv differs on rerun")
        warm = self.work / "warm"
        if run(self._gen_argv(1000, warm), checks):
            run(["eval", "--model", str(self.model_run / "model.json"),
                 "--data", _manifest(warm)["csv"], "--out", str(warm)], checks)

    def _gen_argv(self, n: int, out: Path) -> list[str]:
        h = self.p["holdout"]
        return ["gen", "--kind", "blobs", "--n", str(n), "--d", str(h["d"]),
                "--k", str(h["k"]), "--sep", str(h["sep"]), "--noise", str(h["noise"]),
                "--seed", str(self.holdout_seed), "--out", str(out)]

    def timed(self, run, checks: Checks) -> None:
        if run(self._gen_argv(self.p["holdout"]["n"], self.data_dir), checks):
            self.csv = Path(_manifest(self.data_dir)["csv"])
            run(["eval", "--model", str(self.model_run / "model.json"),
                 "--data", str(self.csv), "--out", str(self.eval_dir)], checks)

    def check(self, checks: Checks) -> str:
        csv_sha = sha256(self.csv)
        checks.expect(_manifest(self.data_dir)["csv_sha256"] == csv_sha,
                      "gen manifest csv_sha256 does not match the CSV")
        return csv_sha + sha256(self.eval_dir / "eval.json")

    def _report(self) -> dict:
        return json.loads((self.eval_dir / "eval.json").read_text(encoding="utf-8"))

    def quality(self) -> float:
        return float(self._report()["overall_auc"])

    def check_values(self, checks: Checks) -> None:
        """overall_auc and the threshold curve against the benchmark's own maths."""
        h = self.p["holdout"]
        table = np.loadtxt(self.csv, delimiter=",", skiprows=1, ndmin=2)
        checks.expect(table.shape == (h["n"], h["d"] + h["k"]),
                      f"holdout CSV has shape {table.shape}")
        classes = np.argmax(table[:, h["d"]:], axis=1)
        _, evidence = model_forward(self.model_run / "model.json", table[:, :h["d"]])
        probs, uncertainty = dirichlet_view(evidence)
        report = self._report()
        expected = class_auc(probs, classes)
        checks.expect(abs(report["overall_auc"] - expected) <= AUC_TOLERANCE,
                      f"overall_auc {report['overall_auc']!r} != rank AUC {expected!r}")
        curve = [(pt["threshold"], pt["sample_count"]) for pt in report["threshold_curve"]]
        checks.expect(len(curve) > 0, "eval.json has no threshold curve")
        check_curve(checks, curve, uncertainty, "eval.json")


WORKLOADS = {
    "tedl_ref": TrainWorkload,
    "ce_wide": TrainWorkload,
    "gen_eval": GenEvalWorkload,
}
