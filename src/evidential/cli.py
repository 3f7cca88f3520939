"""Command-line surface: gen, train, eval, compare.

Exit codes: 0 on success, 1 on validation/usage errors, 2 on runtime
failures. The EVIDENTIAL_SEED environment variable overrides the
configured seed where one applies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import data as datamod
from . import metrics, ndcore
from .train import RunResult, TrainPlan, run_plan

MODEL_FORMAT = "evidential-model"
MODEL_VERSION = 1

# Config keys are TrainPlan's field names; "lambda" is the one alias.
PLAN_FIELDS = {("lambda" if f.name == "lam" else f.name): f for f in fields(TrainPlan)}
CONFIG_KEYS = set(PLAN_FIELDS) | {
    "dataset_csv", "dataset", "train_fraction", "val_fraction", "out_dir", "report_formats",
}

# Generator parameters: the `gen` flags and a config's `dataset` block.
GEN_DEFAULTS = {"kind": "blobs", "n": 1000, "d": 2, "k": 2, "sep": 4.0, "noise": 0.0,
                "soft": False, "radius": 100.0, "seed": 0}


class ConfigError(ValueError):
    """Invalid configuration or usage; maps to exit code 1."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):  # 1 MiB at a time: never the whole file in memory
            h.update(chunk)
    return h.hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _env_seed(default: int) -> int:
    raw = os.environ.get("EVIDENTIAL_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"EVIDENTIAL_SEED must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------- model i/o

def _model_payload(net: ndcore.Network) -> dict:
    return {
        "class_count": net.class_count,
        "head": net.head,
        "layers": [
            {
                "activation": layer.activation,
                "shape": list(layer.weights.shape),
                "weights": layer.weights.tolist(),
                "bias": layer.bias.tolist(),
            }
            for layer in net.layers
        ],
    }


def save_model(net: ndcore.Network, path: Path) -> None:
    payload = _model_payload(net)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "payload": payload,
        "payload_sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }
    _write_atomic(Path(path), json.dumps(doc, indent=1, sort_keys=True))


def load_model(path: Path) -> ndcore.Network:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a model file")
    if doc.get("version") != MODEL_VERSION:
        raise ConfigError(f"{path}: unsupported model version {doc.get('version')}")
    payload = doc["payload"]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(blob.encode()).hexdigest() != doc.get("payload_sha256"):
        raise RuntimeError(f"{path}: checksum mismatch, file is corrupted")
    layers = [
        ndcore.Layer(
            weights=np.array(spec["weights"], dtype=np.float64),
            bias=np.array(spec["bias"], dtype=np.float64),
            activation=spec["activation"],
        )
        for spec in payload["layers"]
    ]
    return ndcore.Network(layers=layers, head=payload["head"],
                          class_count=payload["class_count"])


# ------------------------------------------------------------ config / data

def _coerce(key: str, value, kind: type):
    """`value` as `kind` (tuple means a list of ints); an integer must be
    integral. Raises ConfigError naming `key`."""
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(_coerce(key, v, int) for v in value)
    try:
        coerced = kind(value)
        if kind is int and isinstance(value, float) and value != coerced:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from None
    return coerced


def validate_config(cfg: dict) -> list[str]:
    errors = []
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    for key in unknown:
        errors.append(f"unknown config key {key!r}")
    has_csv = "dataset_csv" in cfg
    has_gen = "dataset" in cfg
    if has_csv == has_gen:
        errors.append("exactly one of dataset_csv or dataset is required")
    if has_gen:
        gen = cfg["dataset"]
        if not isinstance(gen, dict):
            errors.append("dataset must be an object")
        else:
            for key in sorted(set(gen) - set(GEN_DEFAULTS)):
                errors.append(f"unknown dataset key {key!r}")
            if gen.get("kind") not in ("blobs", "ring"):
                errors.append("dataset.kind must be blobs or ring")
    if "out_dir" not in cfg:
        errors.append("out_dir is required")
    for frac_key in ("train_fraction", "val_fraction"):
        if frac_key in cfg and not 0.0 < _coerce(frac_key, cfg[frac_key], float) <= 1.0:
            errors.append(f"{frac_key} must lie in (0, 1]")
    formats = cfg.get("report_formats", ["csv", "json"])
    if not isinstance(formats, list) or any(f not in ("csv", "json") for f in formats):
        errors.append("report_formats must be a list drawn from ['csv', 'json']")
    try:
        errors.extend(_plan_from_config(cfg).validate())
    except ConfigError as exc:
        errors.append(str(exc))
    return errors


def _plan_from_config(cfg: dict) -> TrainPlan:
    plan = TrainPlan(**{
        f.name: _coerce(key, cfg[key], type(f.default))
        for key, f in PLAN_FIELDS.items() if key in cfg
    })
    return replace(plan, seed=_env_seed(plan.seed))


def _generate_dataset(params: dict):
    """Dataset from generator parameters over GEN_DEFAULTS, and the
    resolved parameters (seed after the EVIDENTIAL_SEED override)."""
    p = {key: _coerce(key, params.get(key, default), type(default))
         for key, default in GEN_DEFAULTS.items()}
    p["seed"] = _env_seed(p["seed"])
    try:
        if p["kind"] == "blobs":
            ds = datamod.gen_blobs(p["n"], p["d"], p["k"], p["sep"], label_noise=p["noise"],
                                   soft=p["soft"], seed=p["seed"])
        else:
            ds = datamod.gen_ood_ring(p["n"], p["d"], p["radius"], seed=p["seed"], k=p["k"])
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from None
    return ds, p


def _load_config_dataset(cfg: dict) -> datamod.Dataset:
    if "dataset_csv" in cfg:
        path = Path(cfg["dataset_csv"])
        if not path.exists():
            raise ConfigError(f"dataset file not found: {path}")
        return datamod.load_csv(path)
    return _generate_dataset(cfg["dataset"])[0]


# -------------------------------------------------------------- serializers

EPOCH_CSV_HEADER = ("epoch,stage,loss_total,loss_base,loss_kl,lambda_t,"
                    "grad_norm_mean,grad_norm_max,val_auc,dead_evidence_frac")


def epoch_records_csv(records) -> str:
    lines = [EPOCH_CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.epoch), r.stage, _fmt(r.loss_total), _fmt(r.loss_base),
            _fmt(r.loss_kl), _fmt(r.lambda_t), _fmt(r.grad_norm_mean),
            _fmt(r.grad_norm_max), _fmt(r.val_auc), _fmt(r.dead_evidence_frac),
        ]))
    return "\n".join(lines) + "\n"


def report_to_dict(report: metrics.EvalReport) -> dict:
    doc = {
        "epoch": report.epoch,
        "method": report.method,
        "overall_auc": report.overall_auc,
        "threshold_curve": [
            {"threshold": p.threshold, "auc": p.auc, "sample_count": p.sample_count}
            for p in report.threshold_curve
        ],
    }
    if report.uncertainty_histogram is not None:
        doc["uncertainty_histogram"] = {
            "counts": report.uncertainty_histogram.counts.tolist(),
            "edges": report.uncertainty_histogram.edges.tolist(),
        }
    return doc


def threshold_curves_csv(reports) -> str:
    lines = ["epoch,threshold,auc,sample_count"]
    for report in reports:
        for p in report.threshold_curve:
            lines.append(",".join([
                str(report.epoch), _fmt(p.threshold), _fmt(p.auc),
                str(p.sample_count),
            ]))
    return "\n".join(lines) + "\n"


def _emit_run_artifacts(result: RunResult, out_dir: Path, formats) -> dict:
    files = {}
    csv_path = out_dir / "epochs.csv"
    _write_atomic(csv_path, epoch_records_csv(result.records))
    files["epochs_csv"] = str(csv_path)
    if "csv" in formats:
        curves = out_dir / "threshold_curves.csv"
        _write_atomic(curves, threshold_curves_csv(result.reports))
        files["threshold_curves_csv"] = str(curves)
    if "json" in formats:
        for report in result.reports:
            path = out_dir / f"eval_epoch_{report.epoch}.json"
            _write_atomic(path, json.dumps(report_to_dict(report), indent=1))
            files[f"eval_epoch_{report.epoch}"] = str(path)
    model_path = out_dir / "model.json"
    save_model(result.network, model_path)
    files["model"] = str(model_path)
    return files


# --------------------------------------------------------------- commands

def cmd_gen(args) -> int:
    ds, params = _generate_dataset({key: getattr(args, key) for key in GEN_DEFAULTS})
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{ds.name}.csv"
    datamod.save_csv(ds, csv_path)
    manifest = dict(params, csv=str(csv_path), csv_sha256=_sha256(csv_path),
                    features_only=ds.features_only)
    _write_atomic(out_dir / f"{ds.name}.manifest.json",
                  json.dumps(manifest, indent=1, sort_keys=True))
    print(csv_path)
    return 0


def cmd_train(args) -> int:
    cfg_path = Path(args.config)
    if not cfg_path.exists():
        raise ConfigError(f"config file not found: {cfg_path}")
    try:
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{cfg_path}: malformed JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{cfg_path}: config must be a JSON object")
    errors = validate_config(cfg)
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    started = time.time()
    plan = _plan_from_config(cfg)
    dataset = _load_config_dataset(cfg)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = datamod.SplitSpec(
        train_fraction=float(cfg.get("train_fraction", 0.8)),
        val_fraction=float(cfg.get("val_fraction", 0.2)),
        seed=plan.seed,
    )
    result = run_plan(plan, datamod.split(dataset, spec))
    files = _emit_run_artifacts(result, out_dir, cfg.get("report_formats", ["csv", "json"]))
    manifest = {
        "config": cfg,
        "seed": result.plan.seed,
        "files": {key: _sha256(Path(p)) for key, p in files.items()},
        "paths": files,
        "wall_clock_sec": time.time() - started,
    }
    _write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=1, sort_keys=True))
    print(out_dir)
    return 0


def cmd_eval(args) -> int:
    net = load_model(Path(args.model))
    ds = datamod.load_csv(Path(args.data))
    if ds.dim != net.input_dim:
        raise ConfigError(
            f"model expects {net.input_dim} features, dataset has {ds.dim}"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report, _ = metrics.evaluate(ndcore.forward(net, ds.features), net.head,
                                 ds.class_indices(), 0, "eval")
    path = out_dir / "eval.json"
    _write_atomic(path, json.dumps(report_to_dict(report), indent=1))
    print(path)
    return 0


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    lambdas = [_coerce("--lambdas", v, float) for v in args.lambdas.split(",") if v.strip()]
    if not methods:
        raise ConfigError("methods list must not be empty")
    if len(methods) < 2 and len(lambdas) < 2:
        raise ConfigError("need at least two methods or two lambda values")
    bad = [m for m in methods if m not in ("ce", "edl", "tedl")]
    if bad:
        raise ConfigError(f"unknown methods: {', '.join(bad)}")
    seed = _env_seed(args.seed)
    mode_of = {"ce": "ce_only", "edl": "edl_only", "tedl": "tedl"}
    head_of = {"edl": "relu_evidence", "tedl": "elu_evidence"}
    plans = [
        (method, lam, TrainPlan(
            mode=mode_of[method],
            stage1_epochs=args.stage1_epochs,
            stage2_epochs=args.stage2_epochs,
            lam=lam,
            seed=seed,
            evidence_head_stage2=head_of.get(method, "elu_evidence"),
        ))
        for method in methods for lam in lambdas
    ]
    errors = sorted({e for _, _, plan in plans for e in plan.validate()})
    if errors:
        raise ConfigError("; ".join(errors))

    data_path = Path(args.data)
    if not data_path.exists():
        raise ConfigError(f"dataset file not found: {data_path}")
    dataset = datamod.load_csv(data_path)
    pair = datamod.split(dataset, datamod.SplitSpec(seed=seed))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["method,lambda,epoch,stage,overall_auc"]
    run_status = {}
    curve_docs = {}
    for method, lam, plan in plans:
        tag = f"{method}_lambda{lam:g}"
        try:
            result = run_plan(plan, pair)
        except Exception as exc:  # keep the other runs; the row's AUC stays empty
            run_status[tag] = f"failed: {exc}"
            rows.append(f"{method},{_fmt(lam)},,,")
            continue
        run_status[tag] = "ok"
        for rec, report in zip(result.records, result.reports):
            rows.append(",".join([
                method, _fmt(lam), str(rec.epoch), rec.stage,
                _fmt(report.overall_auc),
            ]))
        curve_docs[tag] = [report_to_dict(r) for r in result.reports]

    table = out_dir / "comparison.csv"
    _write_atomic(table, "\n".join(rows) + "\n")
    curves = out_dir / "threshold_curves.json"
    _write_atomic(curves, json.dumps(curve_docs, indent=1))
    manifest = {
        "data": str(data_path),
        "data_sha256": _sha256(data_path),
        "seed": seed,
        "methods": methods,
        "lambdas": lambdas,
        "runs": run_status,
        "files": {"comparison_csv": _sha256(table)},
    }
    _write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=1, sort_keys=True))
    print(table)
    return 0


# ------------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evidential",
                     description="Evidential classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    for key, default in GEN_DEFAULTS.items():
        if key == "soft":
            p_gen.add_argument("--soft", action="store_true")
        else:
            p_gen.add_argument(f"--{key}", default=default,
                               choices=["blobs", "ring"] if key == "kind" else None)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="run a training config")
    p_train.add_argument("--config", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="compare methods / lambda sweep")
    p_cmp.add_argument("--data", required=True)
    p_cmp.add_argument("--methods", default="ce,edl,tedl")
    p_cmp.add_argument("--lambdas", default="0.1")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--stage1-epochs", type=int, default=10)
    p_cmp.add_argument("--stage2-epochs", type=int, default=10)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
