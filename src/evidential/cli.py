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
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np

from . import data as datamod
from . import metrics, ndcore
from .train import EpochRecord, RunResult, TrainPlan, run_plan

MODEL_FORMAT = "evidential-model"
MODEL_VERSION = 1

# Config keys are TrainPlan's field names ("lambda" is the one alias) and
# SplitSpec's fractions; its seed is the plan's.
PLAN_FIELDS = {("lambda" if f.name == "lam" else f.name): f for f in fields(TrainPlan)}
SPLIT_KEYS = tuple(f.name for f in fields(datamod.SplitSpec) if f.name != "seed")
CONFIG_KEYS = set(PLAN_FIELDS) | set(SPLIT_KEYS) | {"dataset_csv", "dataset", "out_dir"}
METHOD_MODES = {"ce": "ce_only", "edl": "edl_only", "tedl": "tedl"}  # compare's methods

# Generator parameters: the `gen` flags and a config's `dataset` block.
GEN_DEFAULTS = {"kind": "blobs", "n": 1000, "d": 2, "k": 2, "sep": 4.0, "noise": 0.0,
                "soft": False, "radius": 100.0, "seed": 0}
GEN_KINDS = {key: type(default) for key, default in GEN_DEFAULTS.items()}


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
    """A CSV cell: text as it is, None empty, a number with 17 digits
    (an integer below 1e17 reads as itself)."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


def _env_seed(default: int) -> int:
    raw = os.environ.get("EVIDENTIAL_SEED")
    if raw is None:
        return default
    try:
        seed = int(raw)
        if seed < 0:
            raise ValueError
    except ValueError:
        raise ConfigError(f"EVIDENTIAL_SEED must be an integer >= 0, got {raw!r}") from None
    return seed


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


def _payload_sha256(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def save_model(net: ndcore.Network, path: Path) -> None:
    payload = _model_payload(net)
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "payload": payload,
        "payload_sha256": _payload_sha256(payload),
    }
    _write_atomic(Path(path), json.dumps(doc, indent=1, sort_keys=True))


def load_model(path: Path) -> ndcore.Network:
    """The network in a model file. A missing file, or one of another format
    or version, is a ConfigError; a damaged one (not JSON, no payload or one
    without its parts, a checksum mismatch, or parts that do not make a
    network) is a RuntimeError naming it."""
    if not Path(path).is_file():
        raise ConfigError(f"model file not found: {path}")
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise RuntimeError(f"{path}: damaged model file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a model file")
    if type(doc.get("version")) is not int or doc["version"] != MODEL_VERSION:
        raise ConfigError(f"{path}: unsupported model version {doc.get('version')}")
    payload = doc.get("payload")
    if not isinstance(payload, dict) or not {"layers", "head", "class_count"} <= payload.keys():
        raise RuntimeError(f"{path}: damaged model file: no payload with layers, head "
                           "and class_count")
    if _payload_sha256(payload) != doc.get("payload_sha256"):
        raise RuntimeError(f"{path}: checksum mismatch, file is corrupted")
    try:
        return _network_from_payload(payload)
    except KeyError as exc:
        raise RuntimeError(f"{path}: damaged model file: a layer has no {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise RuntimeError(f"{path}: damaged model file: {exc}") from None


def _network_from_payload(payload: dict) -> ndcore.Network:
    """The network `payload` describes; KeyError, TypeError, ValueError or
    OverflowError where it describes none."""
    layers = []
    for spec in payload["layers"]:
        weights, bias = _parameters(spec["weights"], 2), _parameters(spec["bias"], 1)
        shape = spec["shape"]
        if shape != list(weights.shape) or any(type(v) is not int for v in shape):
            raise ValueError(f"layer shape {shape!r} does not match its weights")
        layers.append(ndcore.Layer(weights, bias, spec["activation"]))
    if type(payload["class_count"]) is not int:
        raise ValueError("class_count must be an integer")
    return ndcore.Network(layers=layers, head=payload["head"],
                          class_count=payload["class_count"])


def _parameters(value, ndim: int) -> np.ndarray:
    """`value`, nested lists of JSON numbers `ndim` deep, as a finite float64 array."""
    cells = np.array(value, dtype=object)
    if cells.ndim != ndim or any(type(v) not in (int, float) for v in cells.flat):
        raise ValueError(f"layer parameters must be a {ndim}-D array of numbers")
    array = cells.astype(np.float64)
    if not np.isfinite(array).all():
        raise ValueError("non-finite layer parameter")
    return array


# ------------------------------------------------------------ config / data

def _coerce(key: str, value, kind: type):
    """`value` as `kind` (tuple means a list of ints); an integer must be
    integral, and a bool is a bool key's only value. Raises ConfigError
    naming `key`."""
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(_coerce(key, v, int) for v in value)
    try:
        if kind in (bool, int, float) and isinstance(value, bool) != (kind is bool):
            raise ValueError
        coerced = kind(value)
        if kind is int and isinstance(value, float) and value != coerced:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from None
    return coerced


def _convert(values: dict, kinds: dict):
    """Each key of `kinds` in `values`, converted on its own to its kind,
    and the message of each that does not convert."""
    converted, errors = {}, []
    for key in (key for key in kinds if key in values):
        try:
            converted[key] = _coerce(key, values[key], kinds[key])
        except ConfigError as exc:
            errors.append(str(exc))
    return converted, errors


def _parse_config(cfg: dict):
    """(TrainPlan, SplitSpec, generator parameters or None) of a train config.

    Each plan, split and `dataset` key converts on its own; the plan built
    from the keys that converted and the split check their own values.
    Every problem found is listed in one ConfigError.
    """
    errors = [f"unknown config key {key!r}" for key in sorted(set(cfg) - CONFIG_KEYS)]
    if ("dataset_csv" in cfg) == ("dataset" in cfg):
        errors.append("exactly one of dataset_csv or dataset is required")
    gen = cfg.get("dataset")
    if "dataset" in cfg and not isinstance(gen, dict):
        errors.append("dataset must be an object")
    elif gen is not None:
        errors += [f"unknown dataset key {key!r}" for key in sorted(set(gen) - set(GEN_DEFAULTS))]
        gen, bad = _convert(GEN_DEFAULTS | gen, GEN_KINDS)
        errors += [f"dataset: {message}" for message in bad]
    if "out_dir" not in cfg:
        errors.append("out_dir is required")
    elif cfg["out_dir"] == "":
        errors.append("out_dir must not be empty")
    errors += [f"{key} must be a string" for key in ("out_dir", "dataset_csv")
               if not isinstance(cfg.get(key, ""), str)]

    values, bad = _convert(cfg, {key: type(f.default) for key, f in PLAN_FIELDS.items()}
                           | dict.fromkeys(SPLIT_KEYS, float))
    errors += bad
    plan = TrainPlan(**{f.name: values[key] for key, f in PLAN_FIELDS.items() if key in values})
    try:
        plan = replace(plan, seed=_env_seed(plan.seed))
    except ConfigError as exc:
        errors.append(str(exc))
    errors += plan.validate()
    try:
        spec = datamod.SplitSpec(**{key: values[key] for key in SPLIT_KEYS if key in values})
    except ValueError as exc:
        errors.append(str(exc))
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    return plan, replace(spec, seed=plan.seed), gen


def _generate_dataset(params: dict):
    """Dataset from converted generator parameters, and those parameters
    with the seed after the EVIDENTIAL_SEED override."""
    p = dict(params, seed=_env_seed(params["seed"]))
    try:
        if p["kind"] == "blobs":
            ds = datamod.gen_blobs(p["n"], p["d"], p["k"], p["sep"], label_noise=p["noise"],
                                   soft=p["soft"], seed=p["seed"])
        elif p["kind"] == "ring":
            ds = datamod.gen_ood_ring(p["n"], p["d"], p["radius"], seed=p["seed"], k=p["k"])
        else:
            raise ValueError(f"kind must be blobs or ring, got {p['kind']!r}")
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from None
    return ds, p


def _read_dataset(path: Path) -> datamod.Dataset:
    if not path.is_file():
        raise ConfigError(f"dataset file not found: {path}")
    return datamod.load_csv(path)


# -------------------------------------------------------------- serializers

EPOCH_CSV_HEADER = ",".join(f.name for f in fields(EpochRecord))


def report_to_dict(report: metrics.EvalReport) -> dict:
    doc = asdict(report)
    if report.uncertainty_histogram is None:
        del doc["uncertainty_histogram"]
    else:
        doc["uncertainty_histogram"] = {
            key: array.tolist() for key, array in doc["uncertainty_histogram"].items()
        }
    return doc


def _emit_run_artifacts(result: RunResult, out_dir: Path) -> dict:
    files = {}
    csv_path = out_dir / "epochs.csv"
    _write_atomic(csv_path, _csv(EPOCH_CSV_HEADER, map(astuple, result.records)))
    files["epochs_csv"] = str(csv_path)
    curves = out_dir / "threshold_curves.csv"
    _write_atomic(curves, _csv("epoch,threshold,auc,sample_count", (
        (report.epoch, p.threshold, p.auc, p.sample_count)
        for report in result.reports for p in report.threshold_curve)))
    files["threshold_curves_csv"] = str(curves)
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
    params, errors = _convert(vars(args), GEN_KINDS)
    if errors:
        raise ConfigError("; ".join(errors))
    ds, params = _generate_dataset(params)
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
    if not cfg_path.is_file():
        raise ConfigError(f"config file not found: {cfg_path}")
    try:
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{cfg_path}: malformed JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{cfg_path}: config must be a JSON object")
    plan, spec, gen = _parse_config(cfg)
    started = time.time()
    dataset = (_read_dataset(Path(cfg["dataset_csv"])) if gen is None
               else _generate_dataset(gen)[0])
    pair = datamod.split(dataset, spec)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_plan(plan, pair)
    files = _emit_run_artifacts(result, out_dir)
    manifest = {
        "config": cfg,
        "seed": plan.seed,
        "files": {key: _sha256(Path(p)) for key, p in files.items()},
        "paths": files,
        "wall_clock_sec": time.time() - started,
    }
    _write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=1, sort_keys=True))
    print(out_dir)
    return 0


def cmd_eval(args) -> int:
    net = load_model(Path(args.model))
    ds = _read_dataset(Path(args.data))
    if (ds.dim, ds.class_count) != (net.input_dim, net.class_count):
        raise ConfigError(
            f"model {args.model} expects {net.input_dim} features and {net.class_count} "
            f"classes, dataset {args.data} has {ds.dim} and {ds.class_count}"
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
    if not methods or not lambdas:
        raise ConfigError("methods and lambdas lists must not be empty")
    if len(methods) < 2 and len(lambdas) < 2:
        raise ConfigError("need at least two methods or two lambda values")
    bad = [m for m in methods if m not in METHOD_MODES]
    if bad:
        raise ConfigError(f"unknown methods: {', '.join(bad)}")
    seed = _env_seed(args.seed)
    plans = [
        (method, lam, TrainPlan(
            mode=METHOD_MODES[method],
            stage1_epochs=args.stage1_epochs,
            stage2_epochs=args.stage2_epochs,
            lam=lam,
            seed=seed,
            # single-stage EDL is the ReLU-evidence baseline
            evidence_head_stage2=("relu_evidence" if method == "edl"
                                  else TrainPlan.evidence_head_stage2),
        ))
        for method in methods for lam in lambdas
    ]
    errors = sorted({e for _, _, plan in plans for e in plan.validate()})
    if errors:
        raise ConfigError("; ".join(errors))
    tags = [f"{method}_lambda{lam:g}" for method, lam, _ in plans]
    shared = sorted({tag for tag in tags if tags.count(tag) > 1})
    if shared:
        raise ConfigError(f"runs would share a tag: {', '.join(shared)}")

    data_path = Path(args.data)
    pair = datamod.split(_read_dataset(data_path), datamod.SplitSpec(seed=seed))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    run_status = {}
    curve_docs = {}
    for tag, (method, lam, plan) in zip(tags, plans):
        try:
            result = run_plan(plan, pair)
        except Exception as exc:  # keep the other runs; the row's AUC stays empty
            run_status[tag] = f"failed: {exc}"
            rows.append((method, lam, None, None, None))
            continue
        run_status[tag] = "ok"
        rows += [(method, lam, rec.epoch, rec.stage, report.overall_auc)
                 for rec, report in zip(result.records, result.reports)]
        curve_docs[tag] = [report_to_dict(r) for r in result.reports]

    table = out_dir / "comparison.csv"
    _write_atomic(table, _csv("method,lambda,epoch,stage,overall_auc", rows))
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


def _out_dir(value: str) -> str:
    """An --out value; the empty string would be the working directory."""
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evidential",
                     description="Evidential classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    for key, default in GEN_DEFAULTS.items():
        if key == "soft":
            p_gen.add_argument("--soft", action="store_true")
        else:
            p_gen.add_argument(f"--{key}", default=default)
    p_gen.add_argument("--out", required=True, type=_out_dir)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="run a training config")
    p_train.add_argument("--config", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", required=True, type=_out_dir)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="compare methods / lambda sweep")
    p_cmp.add_argument("--data", required=True)
    p_cmp.add_argument("--methods", default=",".join(METHOD_MODES))
    p_cmp.add_argument("--lambdas", default=str(TrainPlan.lam))
    p_cmp.add_argument("--seed", type=int, default=TrainPlan.seed)
    p_cmp.add_argument("--stage1-epochs", type=int, default=TrainPlan.stage1_epochs)
    p_cmp.add_argument("--stage2-epochs", type=int, default=TrainPlan.stage2_epochs)
    p_cmp.add_argument("--out", required=True, type=_out_dir)
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
