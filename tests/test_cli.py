"""CLI surface: gen / train / eval / compare, exit codes and artifacts."""

import hashlib
import json

import numpy as np
import pytest

from evidential import cli, metrics, ndcore
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
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


# Each case is config overrides, raw config text, or an argv in which
# "{data}" names a small two-class CSV.
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
    "train_fraction_nan": {"train_fraction": float("nan")},
    "dataset_soft_string": {"dataset": {"kind": "blobs", "n": 100, "soft": "false"}},
    "epochs_boolean": {"stage1_epochs": True},
    "compare_lambda_nan": ["compare", "--data", "{data}", "--lambdas", "nan"],
    "compare_lambda_tags_collide": ["compare", "--data", "{data}", "--lambdas",
                                    "0.1,0.10000001"],
}


@pytest.mark.parametrize("case", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
def test_config_errors_exit_1(tmp_path, capsys, case):
    if isinstance(case, list):
        data = tmp_path / "data.csv"
        save_csv(gen_blobs(60, 2, 2, 6.0, seed=0), data)
        argv = [a.replace("{data}", str(data)) for a in case]
        argv += ["--out", str(tmp_path / "out")]
    else:
        cfg_path, _ = write_config(tmp_path, **(case if isinstance(case, dict) else {}))
        if isinstance(case, str):
            cfg_path.write_text(case)
        argv = ["train", "--config", str(cfg_path)]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists() and not (tmp_path / "run").exists()


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
        cfg_path, _ = write_config(tmp_path)
        run_cli("train", "--config", str(cfg_path))
        first = (tmp_path / "run" / "epochs.csv").read_bytes()
        run_cli("train", "--config", str(cfg_path))
        assert (tmp_path / "run" / "epochs.csv").read_bytes() == first

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

    def test_not_a_model(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{}")
        with pytest.raises(cli.ConfigError, match="not a model"):
            cli.load_model(path)


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


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli() == 1

    def test_unknown_flag(self, capsys):
        assert run_cli("gen", "--bogus", "1", "--out", "x") == 1
