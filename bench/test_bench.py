"""Tests of the benchmark itself, at tiny sizes: `python3 -m pytest bench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def tiny(program, name, seed=0, trace=False):
    return run.run_benchmark(program, name, seed, 0.0, trace, sizes=workloads.TINY)


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in spans.PER_LAYER]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_passes_its_checks_at_tiny_size(program, name):
    result = tiny(program, name)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert len(result["walls"]) >= run.MIN_REPEATS
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_summed_self_times_never_exceed_wall_time(program, name):
    result = tiny(program, name, trace=True)
    assert result["correct"], result["failures"]
    assert result["untraced_names"] == []
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert len(result["traced_walls"]) == len(result["layers"]) >= run.MIN_REPEATS
    for wall, layer in zip(result["traced_walls"], result["layers"]):
        assert layer["trace.unattributed_s"] >= 0.0
        summed = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        assert summed <= wall


def test_traced_and_untraced_repeats_write_identical_outputs(program):
    result = tiny(program, "tedl_ref", trace=True)
    assert len(result["digests"]) >= 2 * run.MIN_REPEATS
    assert len(set(result["digests"])) == 1


def test_a_non_default_seed_changes_outputs_and_still_passes(program):
    default = tiny(program, "tedl_ref", seed=0)
    other = tiny(program, "tedl_ref", seed=7)
    assert other["correct"], other["failures"]
    assert other["digests"][0] != default["digests"][0]


def test_rank_auc_matches_brute_force_pair_counting_with_ties():
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 5, size=60).astype(float)
    positive = rng.random(60) < 0.4
    pos, neg = scores[positive], scores[~positive]
    brute = np.mean([1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg])
    assert workloads.rank_auc(scores, positive) == pytest.approx(brute, abs=1e-15)


def test_curve_check_flags_a_wrong_sample_count():
    checks = workloads.Checks()
    uncertainty = np.array([0.2, 0.5, 0.9])
    workloads.check_curve(checks, [(0.5, 1), (1.0, 2)], uncertainty, "curve")
    assert checks.attempted == 2 and len(checks.failures) == 1


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tedl_ref", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
