"""CLI surface: gen / train / eval / compare, exit codes and artifacts."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidential import cli, losses, metrics, ndcore
from evidential.cli import main
from evidential.data import gen_blobs, load_csv, save_csv
from evidential.train import TrainingError


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, **overrides):
    cfg = {
        "mode": "tedl",
        "stage1_epochs": 2,
        "stage2_epochs": 2,
        "lambda": 0.1,
        "seed": 0,
        "dataset": {"kind": "blobs", "n": 400, "d": 2, "k": 2,
                    "sep": 6.0, "seed": 0},
        "out_dir": str(tmp_path / "run"),
    }
    cfg.update(overrides)
    cfg = {key: value for key, value in cfg.items() if value is not None}  # None drops a key
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


# Each case is config overrides, raw config text, or an argv, in which
# "{data}" names a small two-class CSV; an (environment, case) pair also
# sets environment variables.
CONFIG_ERRORS = {
    "malformed_json": '{"mode": "tedl",',
    "top_level_list": '[{"mode": "tedl"}]',
    "epochs_not_a_number": {"stage1_epochs": "ten"},
    "lambda_not_a_number": {"lambda": "x"},
    "dataset_n_not_a_number": {"dataset": {"kind": "blobs", "n": "many"}},
    "dataset_k_above_d": {"dataset": {"kind": "blobs", "n": 100, "d": 2, "k": 3}},
    "hidden_size_fractional": {"hidden_sizes": [1.5]},
    "batch_size_fractional": {"batch_size": 12.7},
    "split_fractions_sum_above_1": {"train_fraction": 0.9, "val_fraction": 0.2},
    "dataset_unknown_kind": {"dataset": {"kind": "cube", "n": 100}},
    "gen_k_above_d": ["gen", "--k", "3", "--d", "2"],
    "gen_ring_k1": ["gen", "--kind", "ring", "--k", "1"],
    "gen_ring_d0": ["gen", "--kind", "ring", "--d", "0"],
    "gen_n_fractional": ["gen", "--n", "12.5"],
    "gen_unknown_kind": ["gen", "--kind", "cube"],
    "compare_negative_lambda": ["compare", "--data", "{data}", "--lambdas", "-0.5"],
    "compare_lambda_not_a_number": ["compare", "--data", "{data}", "--lambdas", "abc"],
    "compare_tedl_without_stage1": ["compare", "--data", "{data}", "--methods", "ce,tedl",
                                    "--stage1-epochs", "0"],
    "lambda_nan": {"lambda": float("nan")},
    "lambda_infinite": {"lambda": float("inf")},
    "lr_stage1_infinite": {"lr_stage1": float("inf")},
    "hostile_bias_nan": {"init_mode": "hostile", "hostile_bias": float("nan")},
    "hostile_bias_default": {"hostile_bias": 3.0},
    "report_formats_csv_only": {"report_formats": ["csv"]},
    "train_fraction_nan": {"train_fraction": float("nan")},
    "dataset_soft_string": {"dataset": {"kind": "blobs", "n": 100, "soft": "false"}},
    "epochs_boolean": {"stage1_epochs": True},
    "compare_lambda_nan": ["compare", "--data", "{data}", "--lambdas", "nan"],
    "compare_lambda_tags_collide": ["compare", "--data", "{data}", "--lambdas",
                                    "0.1,0.10000001"],
    "seed_negative": {"seed": -1},
    "compare_seed_negative": ["compare", "--data", "{data}", "--seed", "-1"],
    "env_seed_negative_with_csv": ({"EVIDENTIAL_SEED": "-1"},
                                   {"dataset": None, "dataset_csv": "{data}"}),
    "out_dir_not_a_string": {"out_dir": 5},
    "dataset_csv_not_a_string": {"dataset": None, "dataset_csv": 5},
    "compare_empty_lambdas": ["compare", "--data", "{data}", "--methods", "ce,edl",
                              "--lambdas", ","],
    "out_dir_empty": {"out_dir": ""},
    "gen_seed_negative": ["gen", "--seed", "-1"],
    "dataset_seed_negative": {"dataset": {"kind": "blobs", "n": 100, "seed": -1}},
    "mode_both": {"mode": "both"},
    "lambda_negative": {"lambda": -0.5},
    "optimizer_rmsprop": {"optimizer": "rmsprop"},
    "lr_stage2_negative": {"lr_stage2": -1},
    "evidence_head_softplus": {"evidence_head_stage2": "softplus"},
    "init_mode_zeros": {"init_mode": "zeros"},
    "hidden_activation_sigmoid": {"hidden_activation": "sigmoid"},
    "hidden_size_zero": {"hidden_sizes": [0]},
}

# The message line each of these cases prints (after "error:" or the
# "invalid config:" indent).
CONFIG_MESSAGES = {
    "gen_n_fractional": "n must be int, got '12.5'",
    "lambda_nan": "lambda and learning rates must be finite",
    "lambda_infinite": "lambda and learning rates must be finite",
    "lr_stage1_infinite": "lambda and learning rates must be finite",
    "seed_negative": "seed must be >= 0",
    "mode_both": "mode must be ce_only, edl_only or tedl, got 'both'",
    "lambda_negative": "lambda must be >= 0",
    "optimizer_rmsprop": "optimizer must be adam or sgd, got 'rmsprop'",
    "lr_stage2_negative": "learning rates must be >= 0",
    "evidence_head_softplus": "evidence_head_stage2 must be relu_evidence or elu_evidence",
    "init_mode_zeros": "init_mode must be standard or hostile, got 'zeros'",
    "hidden_activation_sigmoid": "unknown hidden activation 'sigmoid'",
    "hidden_size_zero": "hidden sizes must be >= 1",
}


@pytest.mark.parametrize("name", CONFIG_ERRORS)
def test_config_errors_exit_1(tmp_path, capsys, monkeypatch, name):
    case = CONFIG_ERRORS[name]
    env, case = case if isinstance(case, tuple) else ({}, case)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    data = tmp_path / "data.csv"
    save_csv(gen_blobs(60, 2, 2, 6.0, seed=0), data)
    if isinstance(case, list):
        argv = [a.replace("{data}", str(data)) for a in case]
        argv += ["--out", str(tmp_path / "out")]
    else:
        overrides = case if isinstance(case, dict) else {}
        cfg_path, _ = write_config(tmp_path, **{
            key: str(data) if value == "{data}" else value for key, value in overrides.items()})
        if isinstance(case, str):
            cfg_path.write_text(case)
        argv = ["train", "--config", str(cfg_path)]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if name in ("gen_seed_negative", "dataset_seed_negative"):  # not numpy's message
        assert err == "error: dataset: seed must be >= 0\n"
    if name in CONFIG_MESSAGES:
        lines = [line.removeprefix("error:").strip() for line in err.splitlines()]
        assert CONFIG_MESSAGES[name] in lines
    assert not (tmp_path / "out").exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [("report_formats", ["csv"]), ("hostile_bias", 3.0)])
def test_removed_config_keys_are_named(tmp_path, capsys, key, value):
    # every run writes every report, and the hostile init's bias is a constant
    cfg_path, _ = write_config(tmp_path, **{key: value})
    assert run_cli("train", "--config", str(cfg_path)) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "gen", "eval", "compare"])
def test_empty_output_path_exit_1_writes_nothing(tmp_path, capsys, monkeypatch, command):
    # an empty path would be the working directory
    data = tmp_path / "data.csv"
    save_csv(gen_blobs(60, 2, 2, 6.0, seed=0), data)
    model = tmp_path / "model.json"
    cli.save_model(ndcore.init_network([2, 3, 2], head="elu_evidence", seed=0), model)
    cfg_path, _ = write_config(tmp_path, out_dir="")
    argv = {
        "train": ["train", "--config", str(cfg_path)],
        "gen": ["gen", "--out", ""],
        "eval": ["eval", "--model", str(model), "--data", str(data), "--out", ""],
        "compare": ["compare", "--data", str(data), "--out", ""],
    }[command]
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and ("out_dir must not be empty" in err
                                         or "argument --out: must not be empty" in err)
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("case", ["eval_model", "eval_data", "compare_data", "train_config",
                                  "dataset_csv"])
def test_directory_in_place_of_a_file_exit_1(tmp_path, capsys, case):
    folder = tmp_path / "folder"
    folder.mkdir()
    data = tmp_path / "data.csv"
    save_csv(gen_blobs(60, 2, 2, 6.0, seed=0), data)
    model = tmp_path / "model.json"
    cli.save_model(ndcore.init_network([2, 3, 2], head="elu_evidence", seed=0), model)
    cfg_path, _ = write_config(tmp_path, dataset=None, dataset_csv=str(folder))
    out = tmp_path / "out"
    argv, message = {
        "eval_model": (["eval", "--model", folder, "--data", data, "--out", out], "model"),
        "eval_data": (["eval", "--model", model, "--data", folder, "--out", out], "dataset"),
        "compare_data": (["compare", "--data", folder, "--out", out], "dataset"),
        "train_config": (["train", "--config", folder], "config"),
        "dataset_csv": (["train", "--config", cfg_path], "dataset"),
    }[case]
    assert run_cli(*map(str, argv)) == 1
    assert capsys.readouterr().err == f"error: {message} file not found: {folder}\n"
    assert not out.exists() and not (tmp_path / "run").exists()


# Each bad plan key of one config, with the messages it alone gives.
BAD_PLAN_KEYS = {
    "stage1_epochs": (-1, ["tedl needs stage1_epochs >= 1 and stage2_epochs >= 1",
                           "epoch counts must be >= 0"]),
    "batch_size": (0, ["batch_size must be >= 1"]),
    "lambda": ("x", ["lambda must be float, got 'x'"]),
}


@pytest.mark.parametrize("keys", [[key] for key in BAD_PLAN_KEYS] + [list(BAD_PLAN_KEYS)],
                         ids="-".join)
def test_config_lists_every_bad_keys_messages(tmp_path, capsys, keys):
    cfg_path, _ = write_config(tmp_path, **{key: BAD_PLAN_KEYS[key][0] for key in keys})
    assert run_cli("train", "--config", str(cfg_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: invalid config:"
    assert sorted(line.strip() for line in err[1:]) == sorted(
        message for key in keys for message in BAD_PLAN_KEYS[key][1])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("cfg, messages", [
    ({"batch_size": 0, "dataset": {"n": "many"}},
     ["dataset: n must be int, got 'many'", "batch_size must be >= 1"]),
    ({"dataset": {"n": "many", "d": "x"}},
     ["dataset: n must be int, got 'many'", "dataset: d must be int, got 'x'"]),
], ids=["with_batch_size", "two_dataset_keys"])
def test_config_lists_every_dataset_message(tmp_path, capsys, cfg, messages):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(cfg, out_dir=str(tmp_path / "run"))))
    assert run_cli("train", "--config", str(cfg_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: invalid config:"
    assert sorted(line.strip() for line in err[1:]) == sorted(messages)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"hidden_sizes": 8}, "hidden_sizes must be a list, got 8"),
    ({"dataset": 5}, "dataset must be an object"),
    ({"out_dir": None}, "out_dir is required"),
], ids=["hidden_sizes_not_a_list", "dataset_not_an_object", "no_out_dir"])
def test_config_shape_errors_exit_1(tmp_path, capsys, monkeypatch, overrides, message):
    monkeypatch.chdir(tmp_path)
    cfg_path, _ = write_config(tmp_path, **overrides)
    assert run_cli("train", "--config", str(cfg_path)) == 1
    assert capsys.readouterr().err == f"error: invalid config:\n  {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


# A fuzzed key takes a value of its own kind, or one from FUZZ_HOSTILE: wrong
# types, NaN and inf, negatives, empty strings and lists, objects. No epoch count,
# size or row count goes past 8, so no case trains for long.
FUZZ_HOSTILE = st.sampled_from([
    "", "x", True, None, [], [1, "a"], [-1], {}, {"a": 1},
    float("nan"), float("inf"), float("-inf"), -1, -2.5])
FUZZ_OF_KIND = {int: [0, 1, 2, 8], float: [0.0, 0.25, 0.5, 1.0, 2.0], bool: [True, False],
                tuple: [[], [2], [8, 3]], str: ["tedl", "ce_only", "edl_only", "adam", "sgd",
                                                "elu", "hostile", "relu_evidence", "ring"]}
FUZZ_KINDS = {False: {key: type(f.default) for key, f in cli.PLAN_FIELDS.items()}
              | dict.fromkeys(cli.SPLIT_KEYS, float)
              | {"zzz": str, "dataset_csv": str, "out_dir": str, "dataset": tuple},
              True: cli.GEN_KINDS | {"zzz": int}}
FUZZ_EDIT = st.sampled_from([(block, key) for block in FUZZ_KINDS for key in FUZZ_KINDS[block]]
                            ).flatmap(lambda at: st.tuples(st.just(at), st.one_of(
                                st.sampled_from(FUZZ_OF_KIND[FUZZ_KINDS[at[0]][at[1]]]),
                                FUZZ_HOSTILE)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(FUZZ_EDIT, min_size=1, max_size=3))
def test_fuzzed_config_exits_as_documented(edits):
    """A config of 1-3 bad or odd keys exits 0, or 1 writing nothing, or 2 only
    where its split leaves a part without rows."""
    cfg = {"mode": "tedl", "stage1_epochs": 1, "stage2_epochs": 2, "batch_size": 16,
           "hidden_sizes": [8], "dataset": {"kind": "blobs", "n": 80, "d": 2, "k": 2,
                                            "sep": 4.0}, "out_dir": "run"}
    for (in_dataset, key), value in edits:
        block = cfg["dataset"] if in_dataset and isinstance(cfg.get("dataset"), dict) else cfg
        block[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        m.chdir(tmp)
        m.delenv("EVIDENTIAL_SEED", raising=False)
        Path("config.json").write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli("train", "--config", "config.json")
        assert code in (0, 1, 2), err.getvalue()
        if code == 1:
            assert os.listdir(tmp) == ["config.json"]
        if code == 2:
            assert err.getvalue() == (
                "runtime failure: split fractions too small to yield at least one row\n")


def test_non_finite_stage2_loss_exit_2(tmp_path, capsys, monkeypatch):
    real = losses._edl_total

    def nan_total(out, y, y_hard, lambda_t):
        loss, grad = real(out, y, y_hard, lambda_t)
        return dataclasses.replace(loss, total=float("nan")), grad

    monkeypatch.setattr(losses, "_edl_total", nan_total)
    cfg_path, _ = write_config(tmp_path, stage1_epochs=1, stage2_epochs=1)
    assert run_cli("train", "--config", str(cfg_path)) == 2
    assert capsys.readouterr().err == (
        "runtime failure: non-finite loss at stage2 epoch 0, batch 0\n")


def test_integral_floats_accepted(tmp_path):
    runs = []
    for name, batch, hidden in (("int", 64, [8]), ("float", 64.0, [8.0])):
        (tmp_path / name).mkdir()
        cfg_path, _ = write_config(tmp_path / name, batch_size=batch, hidden_sizes=hidden)
        assert run_cli("train", "--config", str(cfg_path)) == 0
        runs.append((tmp_path / name / "run" / "epochs.csv").read_bytes())
    assert runs[0] == runs[1]


def test_dataset_kind_defaults_to_blobs(tmp_path):
    runs = []
    for name, kind in (("default", {}), ("blobs", {"kind": "blobs"})):
        (tmp_path / name).mkdir()
        dataset = {"n": 200, "d": 2, "k": 2, "sep": 6.0, "seed": 0, **kind}
        cfg_path, _ = write_config(tmp_path / name, dataset=dataset, stage1_epochs=1,
                                   stage2_epochs=1)
        assert run_cli("train", "--config", str(cfg_path)) == 0
        runs.append((tmp_path / name / "run" / "epochs.csv").read_bytes())
    assert runs[0] == runs[1]


def test_split_failure_leaves_no_output_dir(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, train_fraction=0.99, val_fraction=0.001,
                               dataset={"kind": "blobs", "n": 200, "seed": 0})
    assert run_cli("train", "--config", str(cfg_path)) == 2
    assert "split fractions too small" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


class TestArtifactFormats:
    def test_epochs_csv_header(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, mode="ce_only", stage1_epochs=1, stage2_epochs=0)
        assert run_cli("train", "--config", str(cfg_path)) == 0
        header = (tmp_path / "run" / "epochs.csv").read_text().splitlines()[0]
        assert header == ("epoch,stage,loss_total,loss_base,loss_kl,lambda_t,"
                          "grad_norm_mean,grad_norm_max,val_auc,dead_evidence_frac")

    def test_failed_compare_rows(self, tmp_path, monkeypatch):
        def run_plan(plan, pair):
            raise TrainingError("non-finite loss at stage1 epoch 0, batch 0")

        monkeypatch.setattr(cli, "run_plan", run_plan)
        data_path = tmp_path / "data.csv"
        save_csv(gen_blobs(60, 2, 2, 6.0, seed=0), data_path)
        out = tmp_path / "cmp"
        assert run_cli("compare", "--data", str(data_path), "--methods", "ce,edl",
                       "--out", str(out)) == 0
        assert (out / "comparison.csv").read_text() == (
            "method,lambda,epoch,stage,overall_auc\n"
            "ce,0.10000000000000001,,,\n"
            "edl,0.10000000000000001,,,\n")

    def test_report_dict_keys(self):
        labels = np.array([0, 1, 1])
        raw = np.array([[0.8, 0.2], [0.1, 0.9], [0.4, 0.6]])
        softmax_doc = cli.report_to_dict(metrics.evaluate(raw, "softmax", labels, 3, "ce")[0])
        assert list(softmax_doc) == ["epoch", "method", "overall_auc", "threshold_curve"]
        assert softmax_doc["threshold_curve"] == []
        evidence_doc = cli.report_to_dict(
            metrics.evaluate(raw, "relu_evidence", labels, 3, "edl")[0])
        assert list(evidence_doc) == ["epoch", "method", "overall_auc", "threshold_curve",
                                      "uncertainty_histogram"]
        assert list(evidence_doc["threshold_curve"][0]) == ["threshold", "auc", "sample_count"]
        histogram = evidence_doc["uncertainty_histogram"]
        assert list(histogram) == ["counts", "edges"] and sum(histogram["counts"]) == 3
        json.dumps(evidence_doc)  # plain lists and numbers only


class TestGen:
    def test_blobs_roundtrip(self, tmp_path):
        out = tmp_path / "data"
        assert run_cli("gen", "--kind", "blobs", "--n", "50", "--d", "3",
                       "--sep", "2.0", "--seed", "7", "--out", str(out)) == 0
        csvs = list(out.glob("*.csv"))
        assert len(csvs) == 1
        ds = load_csv(csvs[0])
        assert ds.n == 50 and ds.dim == 3

    def test_manifest_checksum(self, tmp_path):
        out = tmp_path / "data"
        run_cli("gen", "--n", "30", "--out", str(out))
        manifest = json.loads(next(out.glob("*.manifest.json")).read_text())
        import hashlib

        digest = hashlib.sha256(
            (out / manifest["csv"].split("/")[-1]).read_bytes()
        ).hexdigest()
        assert manifest["csv_sha256"] == digest

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("gen", "--n", "40", "--seed", "3", "--out", str(out))
        fa, fb = next(a.glob("*.csv")), next(b.glob("*.csv"))
        assert fa.read_bytes() == fb.read_bytes()

    def test_ring_is_features_only(self, tmp_path):
        out = tmp_path / "ring"
        run_cli("gen", "--kind", "ring", "--n", "25", "--radius", "50",
                "--out", str(out))
        manifest = json.loads(next(out.glob("*.manifest.json")).read_text())
        assert manifest["features_only"] is True

    def test_k1_usage_error(self, tmp_path, capsys):
        code = run_cli("gen", "--k", "1", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("EVIDENTIAL_SEED", "11")
        run_cli("gen", "--n", "40", "--seed", "3", "--out", str(a))
        monkeypatch.delenv("EVIDENTIAL_SEED")
        run_cli("gen", "--n", "40", "--seed", "11", "--out", str(b))
        assert next(a.glob("*.csv")).read_bytes() == next(b.glob("*.csv")).read_bytes()

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EVIDENTIAL_SEED", "not-a-number")
        assert run_cli("gen", "--n", "10", "--out", str(tmp_path / "x")) == 1
        assert "EVIDENTIAL_SEED" in capsys.readouterr().err


class TestTrain:
    def test_artifacts(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        assert run_cli("train", "--config", str(cfg_path)) == 0
        run_dir = tmp_path / "run"
        epochs = (run_dir / "epochs.csv").read_text().splitlines()
        assert epochs[0] == cli.EPOCH_CSV_HEADER
        assert len(epochs) == 1 + 4  # tedl 2 + 2
        assert (run_dir / "threshold_curves.csv").exists()
        assert (run_dir / "model.json").exists()
        assert (run_dir / "manifest.json").exists()
        for epoch in range(4):
            assert (run_dir / f"eval_epoch_{epoch}.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        # every file the manifest lists: epochs.csv, threshold_curves.csv,
        # each eval_epoch_*.json and model.json
        cfg_path, _ = write_config(tmp_path)
        manifest = tmp_path / "run" / "manifest.json"
        runs = []
        for _ in range(2):
            assert run_cli("train", "--config", str(cfg_path)) == 0
            paths = json.loads(manifest.read_text())["paths"]
            runs.append({key: Path(path).read_bytes() for key, path in paths.items()})
        assert len(runs[0]) == 3 + 4  # 2 + 2 epochs
        assert runs[1] == runs[0]

    def test_missing_config(self, capsys):
        assert run_cli("train", "--config", "/nonexistent.json") == 1

    def test_invalid_config_lists_all_errors(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, mode="bogus", batch_size=0,
                                   typo_key=1)
        assert run_cli("train", "--config", str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert "typo_key" in err and "mode" in err and "batch_size" in err

    def test_dataset_csv_input(self, tmp_path):
        ds = gen_blobs(200, 2, 2, 6.0, seed=1)
        csv_path = tmp_path / "input.csv"
        save_csv(ds, csv_path)
        cfg_path, _ = write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        del cfg["dataset"]
        cfg["dataset_csv"] = str(csv_path)
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("train", "--config", str(cfg_path)) == 0

    def test_both_dataset_sources_rejected(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, dataset_csv="whatever.csv")
        assert run_cli("train", "--config", str(cfg_path)) == 1

    def test_ce_only_records(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, mode="ce_only", stage2_epochs=0)
        run_cli("train", "--config", str(cfg_path))
        lines = (tmp_path / "run" / "epochs.csv").read_text().splitlines()
        assert len(lines) == 1 + 2
        assert all(line.split(",")[1] == "stage1" for line in lines[1:])


class TestModelIO:
    def test_round_trip(self, tmp_path):
        net = ndcore.init_network([2, 3, 2], head="elu_evidence", seed=5)
        path = tmp_path / "model.json"
        cli.save_model(net, path)
        back = cli.load_model(path)
        assert back.head == net.head
        for a, b in zip(back.layers, net.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_corrupted_checksum(self, tmp_path):
        net = ndcore.init_network([2, 2], head="softmax", seed=0)
        path = tmp_path / "model.json"
        cli.save_model(net, path)
        doc = json.loads(path.read_text())
        doc["payload"]["layers"][0]["bias"][0] = 99.0
        path.write_text(json.dumps(doc))
        with pytest.raises(RuntimeError, match="checksum"):
            cli.load_model(path)

    @pytest.mark.parametrize("damage", ["truncated", "no_payload", "no_layers", "no_head"])
    def test_damaged_model_names_file_exit_2(self, tmp_path, capsys, damage):
        path = tmp_path / "model.json"
        cli.save_model(ndcore.init_network([2, 3, 2], head="elu_evidence", seed=0), path)
        doc = json.loads(path.read_text())
        if damage == "truncated":
            path.write_text(path.read_text()[:200])
        else:
            if damage == "no_payload":
                del doc["payload"]
            else:  # a payload with a matching checksum that still lacks a part
                del doc["payload"][damage[3:]]
                doc["payload_sha256"] = cli._payload_sha256(doc["payload"])
            path.write_text(json.dumps(doc))
        with pytest.raises(RuntimeError, match=f"{path}: damaged model file"):
            cli.load_model(path)
        data = tmp_path / "d.csv"
        save_csv(gen_blobs(50, 2, 2, 6.0, seed=9), data)
        out = tmp_path / "e"
        assert run_cli("eval", "--model", str(path), "--data", str(data), "--out", str(out)) == 2
        assert f"runtime failure: {path}: damaged model file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("damage, message", [
        ("class_count_float", "class_count must be an integer"),
        ("nan_weight", "non-finite layer parameter"),
    ])
    def test_resigned_bad_part_names_file_exit_2(self, tmp_path, capsys, damage, message):
        path = tmp_path / "model.json"
        cli.save_model(ndcore.init_network([2, 3, 2], head="elu_evidence", seed=0), path)
        doc = json.loads(path.read_text())
        if damage == "class_count_float":
            doc["payload"]["class_count"] = 2.0
        else:
            doc["payload"]["layers"][0]["weights"][1][2] = float("nan")
        doc["payload_sha256"] = cli._payload_sha256(doc["payload"])
        path.write_text(json.dumps(doc))
        data = tmp_path / "d.csv"
        save_csv(gen_blobs(50, 2, 2, 6.0, seed=9), data)
        out = tmp_path / "e"
        assert run_cli("eval", "--model", str(path), "--data", str(data), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"runtime failure: {path}: damaged model file: {message}\n")
        assert not out.exists()

    def test_not_a_model(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{}")
        with pytest.raises(cli.ConfigError, match="not a model"):
            cli.load_model(path)


def _model_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        cli.save_model(ndcore.init_network([2, 3, 2], "relu", head="elu_evidence", seed=0), path)
        return path.read_bytes()


MODEL_BYTES = _model_bytes()
MODEL_DOC = json.loads(MODEL_BYTES)


def _json_paths(value, prefix=()):
    """The key path of every value inside `value`, parents before children."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


MODEL_PATHS = list(_json_paths(MODEL_DOC))
# Dropping a whole layer and re-signing leaves a sound model of another shape.
DROP_PATHS = [path for path in MODEL_PATHS if path[-2:-1] != ("layers",)]
# A value of another JSON type than the one it replaces, or a non-finite number.
WRONG_TYPES = {
    "number": [None, True, "1", [], {}, [1.0]],
    "str": [None, False, 7, [], {}, ["relu"]],
    "list": [None, True, 2, "x", {}],
    "dict": [None, 0, "x", []],
}
MODEL_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, len(MODEL_BYTES) - 1)),
    st.tuples(st.just("flip"), st.integers(0, len(MODEL_BYTES) - 1), st.integers(1, 255)),
    st.tuples(st.just("retype"), st.sampled_from(MODEL_PATHS), st.integers(0, 5), st.booleans()),
    st.tuples(st.just("non_finite"), st.sampled_from(MODEL_PATHS),
              st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]), st.booleans()),
    st.tuples(st.just("drop"), st.sampled_from(DROP_PATHS), st.booleans()),
    st.tuples(st.just("checksum"), st.text("0123456789abcdef", min_size=0, max_size=64)),
)


def _kind(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


def _mutated_model(mutation) -> bytes:
    """MODEL_BYTES damaged by one mutation; a structural one may re-sign the
    payload, so that the damage reaches past the checksum."""
    op = mutation[0]
    if op == "truncate":
        return MODEL_BYTES[:mutation[1]]
    if op == "flip":
        blob = bytearray(MODEL_BYTES)
        blob[mutation[1]] ^= mutation[2]
        return bytes(blob)
    doc = json.loads(MODEL_BYTES)
    if op == "checksum":
        doc["payload_sha256"] = mutation[1]
        return json.dumps(doc, indent=1).encode()
    path, resign = mutation[1], mutation[-1]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    elif op == "non_finite":
        parent[path[-1]] = "@@NONFINITE@@"
    else:
        choices = WRONG_TYPES.get(_kind(parent[path[-1]]), [None])
        parent[path[-1]] = choices[mutation[2] % len(choices)]
    if resign and isinstance(doc.get("payload"), dict):
        doc["payload_sha256"] = cli._payload_sha256(doc["payload"])
    text = json.dumps(doc, indent=1)
    if op == "non_finite":
        text = text.replace('"@@NONFINITE@@"', mutation[2])
    return text.encode()


def _documented_exits(blob: bytes) -> set:
    """The exit codes README allows `eval` for a model file holding `blob`:
    2 for a damaged file, 1 for a JSON object of another format or version,
    0 only for the original document, however it is spaced."""
    try:
        doc = json.loads(blob.decode("utf-8"))
    except ValueError:
        return {2}
    version = doc.get("version") if isinstance(doc, dict) else None
    if (not isinstance(doc, dict) or doc.get("format") != cli.MODEL_FORMAT
            or type(version) is not int or version != cli.MODEL_VERSION):
        return {1}
    same = json.dumps(doc, sort_keys=True) == json.dumps(MODEL_DOC, sort_keys=True)
    return {0} if same else {2}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(MODEL_MUTATION)
def test_mutated_model_file_exits_as_documented_and_names_the_file(mutation):
    blob = _mutated_model(mutation)
    with tempfile.TemporaryDirectory() as tmp:
        model, data = Path(tmp) / "model.json", Path(tmp) / "d.csv"
        model.write_bytes(blob)
        save_csv(gen_blobs(30, 2, 2, 6.0, seed=9), data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli("eval", "--model", str(model), "--data", str(data),
                           "--out", str(Path(tmp) / "e"))
    assert code in _documented_exits(blob), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert str(model) in err.getvalue(), err.getvalue()


class TestEval:
    def test_eval_after_train(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        run_cli("train", "--config", str(cfg_path))
        ds = gen_blobs(100, 2, 2, 6.0, seed=9)
        data_path = tmp_path / "holdout.csv"
        save_csv(ds, data_path)
        out = tmp_path / "eval"
        assert run_cli("eval", "--model", str(tmp_path / "run" / "model.json"),
                       "--data", str(data_path), "--out", str(out)) == 0
        doc = json.loads((out / "eval.json").read_text())
        assert 0.0 <= doc["overall_auc"] <= 1.0
        assert doc["threshold_curve"]
        counts = doc["uncertainty_histogram"]["counts"]
        assert sum(counts) == 100

    def test_dimension_mismatch(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        run_cli("train", "--config", str(cfg_path))
        ds = gen_blobs(50, 5, 2, 6.0, seed=9)
        data_path = tmp_path / "wide.csv"
        save_csv(ds, data_path)
        assert run_cli("eval", "--model", str(tmp_path / "run" / "model.json"),
                       "--data", str(data_path),
                       "--out", str(tmp_path / "e")) == 1

    def test_class_count_mismatch(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        cli.save_model(ndcore.init_network([3, 4, 2], head="elu_evidence", seed=0), model)
        data_path = tmp_path / "three.csv"
        save_csv(gen_blobs(60, 3, 3, 6.0, seed=0), data_path)
        out = tmp_path / "e"
        assert run_cli("eval", "--model", str(model), "--data", str(data_path),
                       "--out", str(out)) == 1
        assert "2 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_feature_count_mismatch_names_both_files(self, tmp_path, capsys):
        model, data_path = tmp_path / "model.json", tmp_path / "two.csv"
        cli.save_model(ndcore.init_network([3, 4, 2], head="elu_evidence", seed=0), model)
        save_csv(gen_blobs(60, 2, 2, 6.0, seed=0), data_path)
        out = tmp_path / "e"
        assert run_cli("eval", "--model", str(model), "--data", str(data_path),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"model {model} expects 3 features and 2 classes" in err, err
        assert f"dataset {data_path} has 2 and 2" in err, err
        assert not out.exists()

    def test_missing_data_exit_1(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        cli.save_model(ndcore.init_network([2, 4, 2], head="elu_evidence", seed=0), model)
        out = tmp_path / "e"
        assert run_cli("eval", "--model", str(model), "--data", str(tmp_path / "missing.csv"),
                       "--out", str(out)) == 1
        assert "dataset file not found" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_exit_1(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        save_csv(gen_blobs(50, 2, 2, 6.0, seed=9), data_path)
        out = tmp_path / "e"
        assert run_cli("eval", "--model", str(tmp_path / "missing.json"),
                       "--data", str(data_path), "--out", str(out)) == 1
        assert "model file not found" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupted_model_exit_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        run_cli("train", "--config", str(cfg_path))
        model = tmp_path / "run" / "model.json"
        doc = json.loads(model.read_text())
        doc["payload"]["class_count"] = 3
        model.write_text(json.dumps(doc))
        ds = gen_blobs(50, 2, 2, 6.0, seed=9)
        save_csv(ds, tmp_path / "d.csv")
        code = run_cli("eval", "--model", str(model),
                       "--data", str(tmp_path / "d.csv"),
                       "--out", str(tmp_path / "e"))
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err


class TestCompare:
    def test_table(self, tmp_path):
        ds = gen_blobs(300, 2, 2, 6.0, seed=2)
        data_path = tmp_path / "data.csv"
        save_csv(ds, data_path)
        out = tmp_path / "cmp"
        assert run_cli("compare", "--data", str(data_path),
                       "--methods", "ce,tedl", "--lambdas", "0.1",
                       "--stage1-epochs", "2", "--stage2-epochs", "2",
                       "--out", str(out)) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "method,lambda,epoch,stage,overall_auc"
        # ce: 2 epochs, tedl: 4 epochs
        assert len(lines) == 1 + 2 + 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["runs"].values()) == {"ok"}

    def test_lambda_sweep_single_method(self, tmp_path):
        ds = gen_blobs(200, 2, 2, 6.0, seed=2)
        data_path = tmp_path / "data.csv"
        save_csv(ds, data_path)
        out = tmp_path / "cmp"
        assert run_cli("compare", "--data", str(data_path),
                       "--methods", "edl", "--lambdas", "0.1,0.5",
                       "--stage1-epochs", "1", "--stage2-epochs", "1",
                       "--out", str(out)) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 1 + 2

    def test_failed_run_keeps_other_results(self, tmp_path, monkeypatch):
        def run_plan(plan, pair):
            if plan.mode == "edl_only":
                raise TrainingError("non-finite loss at stage2 epoch 0, batch 0")
            return real_run_plan(plan, pair)

        real_run_plan = cli.run_plan
        monkeypatch.setattr(cli, "run_plan", run_plan)
        data_path = tmp_path / "data.csv"
        save_csv(gen_blobs(200, 2, 2, 6.0, seed=2), data_path)
        out = tmp_path / "cmp"
        assert run_cli("compare", "--data", str(data_path), "--methods", "ce,edl",
                       "--stage1-epochs", "1", "--stage2-epochs", "1",
                       "--out", str(out)) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 1 + 1 + 1
        assert lines[1].startswith("ce,") and lines[1].split(",")[4] != ""
        assert lines[2].split(",")[0] == "edl" and lines[2].split(",")[2:] == ["", "", ""]
        runs = json.loads((out / "manifest.json").read_text())["runs"]
        assert runs["ce_lambda0.1"] == "ok"
        assert runs["edl_lambda0.1"].startswith("failed: non-finite")
        assert list(json.loads((out / "threshold_curves.json").read_text())) == ["ce_lambda0.1"]

    def test_single_cell_rejected(self, tmp_path):
        assert run_cli("compare", "--data", "x.csv", "--methods", "ce",
                       "--lambdas", "0.1", "--out", str(tmp_path)) == 1

    def test_unknown_method(self, tmp_path):
        assert run_cli("compare", "--data", "x.csv", "--methods", "ce,svm",
                       "--out", str(tmp_path)) == 1

    def test_missing_data_file(self, tmp_path):
        assert run_cli("compare", "--data", str(tmp_path / "none.csv"),
                       "--methods", "ce,tedl", "--out", str(tmp_path)) == 1


def test_sha256_streams_files_larger_than_a_chunk(tmp_path):
    blob = np.random.default_rng(0).bytes((5 << 20) // 2 + 7)  # 2.5 MiB and a partial chunk
    path = tmp_path / "blob.bin"
    path.write_bytes(blob)
    assert cli._sha256(path) == hashlib.sha256(blob).hexdigest()
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    assert cli._sha256(empty) == hashlib.sha256(b"").hexdigest()


NUMPY_MA_PROBE = """
import json, sys
from evidential.cli import main
from evidential.data import gen_blobs, save_csv

ds = gen_blobs(300, 2, 2, 6.0, seed=0)
ds.features[0, 0] = 1e-7  # a cell in %.17g's exponent form
save_csv(ds, "e.csv")
with open("c.json", "w") as fh:
    json.dump({"stage1_epochs": 1, "stage2_epochs": 1, "dataset_csv": "e.csv",
               "out_dir": "run"}, fh)
for argv in (["gen", "--n", "300", "--out", "g"], ["train", "--config", "c.json"],
             ["eval", "--model", "run/model.json", "--data", "e.csv", "--out", "ev"],
             ["compare", "--data", "e.csv", "--lambdas", "0.1", "--stage1-epochs", "1",
              "--stage2-epochs", "1", "--out", "cmp"]):
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_commands_never_import_numpy_ma(tmp_path):
    # the first import of numpy.ma (np.unique does one) takes about 16 ms and 1 MB of memory
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert b"e-08," in (tmp_path / "e.csv").read_bytes()
    assert run.stdout.splitlines()[-1] == "False"


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli() == 1

    def test_unknown_flag(self, capsys):
        assert run_cli("gen", "--bogus", "1", "--out", "x") == 1
