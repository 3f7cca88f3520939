"""Check that this checkout writes the same artifacts as a git revision.

    python tests/same_artifacts.py REV

REV's tree is exported with `git archive` into a temporary directory, so
the repository's own state is never touched; the directory is removed on
exit, also on failure. A fixed list of CLI commands then runs in REV's
tree and in this checkout (its working files, uncommitted edits
included), each with one BLAS thread, no EVIDENTIAL_SEED and relative
output paths:

- the reference config (20k x 10 blobs, hidden (8,) ReLU, SGD, 10+10 epochs);
- a hostile-init `edl_only` run with ReLU evidence and Adam;
- a K=10 `ce_only` run;
- a `ce_only` run shaped like the benchmark's `ce_wide` (50k x 32 blobs, K=10,
  hidden (64, 64) tanh, Adam, 5 epochs);
- `tedl` runs at K=7 and K=8 (4000-row blobs, d=8 and d=10, hidden (16,) ReLU,
  Adam, 2+3 epochs), either side of where numpy's row sum starts pairing terms;
- `gen` of a 100k-row holdout, then `eval` of the reference model on it;
- `compare` on a K=3 CSV.

Every file they write is compared: one line per artifact with its sha256
here, and `match` or `DIFFER`. Manifests are compared as JSON without
`wall_clock_sec`. Each command's peak RSS in both trees (the child's
`ru_maxrss` from `os.wait4`) is printed too, for information only.

A second list of commands is expected to fail, on inputs this script writes:
`eval` on a 10,000-row CSV with a bad row in its second half, then in its
first half, and `train` with a config of several errors. Their exit codes and
stderr are compared, one line each. Exits 1 on any difference, on a failed
command of the first list or on a command of the second that succeeds, else 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

REFERENCE = {
    "mode": "tedl", "stage1_epochs": 10, "stage2_epochs": 10, "lambda": 0.1,
    "batch_size": 128, "optimizer": "sgd", "lr_stage1": 0.2, "lr_stage2": 0.2, "seed": 0,
    "hidden_sizes": [8], "hidden_activation": "relu",
    "dataset": {"kind": "blobs", "n": 20000, "d": 10, "k": 2, "sep": 2.0, "noise": 0.1,
                "seed": 0},
    "out_dir": "ref",
}
CONFIGS = {
    "ref": REFERENCE,
    "hostile": {
        "mode": "edl_only", "stage2_epochs": 5, "optimizer": "adam", "seed": 1,
        "init_mode": "hostile", "evidence_head_stage2": "relu_evidence",
        "hidden_sizes": [8], "hidden_activation": "relu",
        "dataset": {"kind": "blobs", "n": 4000, "d": 4, "k": 3, "sep": 3.0, "seed": 1},
        "out_dir": "hostile",
    },
    "ce10": {
        "mode": "ce_only", "stage1_epochs": 3, "stage2_epochs": 0, "optimizer": "adam",
        "seed": 2, "hidden_sizes": [32], "hidden_activation": "tanh",
        "dataset": {"kind": "blobs", "n": 5000, "d": 16, "k": 10, "sep": 3.0, "seed": 2},
        "out_dir": "ce10",
    },
    "wide": {
        "mode": "ce_only", "stage1_epochs": 5, "stage2_epochs": 0, "batch_size": 256,
        "optimizer": "adam", "lr_stage1": 1e-3, "seed": 7, "hidden_sizes": [64, 64],
        "hidden_activation": "tanh",
        "dataset": {"kind": "blobs", "n": 50000, "d": 32, "k": 10, "sep": 3.0, "seed": 7},
        "out_dir": "wide",
    },
    # K = 7 and K = 8 sit either side of where numpy's sum over the class axis
    # switches from adding a row's terms in order to adding them in pairs
    **{f"k{k}": {
        "mode": "tedl", "stage1_epochs": 2, "stage2_epochs": 3, "lambda": 0.5,
        "optimizer": "adam", "seed": k, "hidden_sizes": [16], "hidden_activation": "relu",
        "dataset": {"kind": "blobs", "n": 4000, "d": d, "k": k, "sep": 3.0, "seed": k},
        "out_dir": f"k{k}",
    } for k, d in ((7, 8), (8, 10))},
}
COMMANDS = [
    *(["train", "--config", f"{name}.json"] for name in CONFIGS),
    ["gen", "--n", "100000", "--d", "10", "--k", "2", "--sep", "2.0", "--noise", "0.1",
     "--seed", "5", "--out", "holdout"],
    ["eval", "--model", "ref/model.json", "--data", "holdout/blobs_hard_n100000_d10_k2.csv",
     "--out", "eval"],
    ["gen", "--n", "1500", "--d", "3", "--k", "3", "--sep", "3.0", "--seed", "3",
     "--out", "k3"],
    ["compare", "--data", "k3/blobs_hard_n1500_d3_k3.csv", "--lambdas", "0.1,0.5",
     "--stage1-epochs", "2", "--stage2-epochs", "2", "--out", "cmp"],
]
OUTPUTS = [*(cfg["out_dir"] for cfg in CONFIGS.values()), "holdout", "eval", "k3", "cmp"]


def bad_csv(bad_row: int, rows: int = 10000) -> str:
    """A CSV for the reference model (d=10, K=2) whose row `bad_row` has a non-numeric cell."""
    lines = [",".join([f"f{i}" for i in range(10)] + ["y0", "y1"])]
    lines += [",".join(f"{(3 * i + j) % 17 - 8}.25" for j in range(10)) + (",1,0", ",0,1")[i % 2]
              for i in range(rows)]
    lines[1 + bad_row] = "x" + lines[1 + bad_row][1:]
    return "\r\n".join(lines) + "\r\n"


INPUTS = {
    **{f"{name}.json": json.dumps(cfg) for name, cfg in CONFIGS.items()},
    "bad_late.csv": bad_csv(9000),
    "bad_early.csv": bad_csv(1000),
    "errors.json": json.dumps({
        "mode": "tedl", "stage1_epochs": -1, "lambda": "x", "batch_size": 0, "colour": "red",
        "train_fraction": 0.9, "val_fraction": 0.2,
        "dataset": {"kind": "blobs", "n": 100, "shape": "round"}}),
}
FAILING = [
    ["eval", "--model", "ref/model.json", "--data", "bad_late.csv", "--out", "bad_late"],
    ["eval", "--model", "ref/model.json", "--data", "bad_early.csv", "--out", "bad_early"],
    ["train", "--config", "errors.json"],
]


def run(argv: list[str], work: Path, env: dict) -> tuple[int, bytes, float]:
    """`evidential argv` run in `work`: its exit code, stderr and peak RSS in MB."""
    with tempfile.TemporaryFile() as err:
        child = subprocess.Popen([sys.executable, "-m", "evidential", *argv], cwd=work,
                                 env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return child.returncode, err.read(), usage.ru_maxrss / 1024  # kB on Linux


def run_commands(tree: Path, work: Path):
    """Run COMMANDS, then FAILING, with `tree`'s package in `work`: each COMMANDS
    one's peak RSS in MB, and each FAILING one's (exit code, stderr). Raises on a
    failed COMMANDS one or a FAILING one that succeeds."""
    work.mkdir()
    for name, text in INPUTS.items():
        (work / name).write_text(text, encoding="utf-8", newline="")
    env = {key: value for key, value in os.environ.items() if key != "EVIDENTIAL_SEED"}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    where = subprocess.run([sys.executable, "-c", "import evidential; print(evidential.__file__)"],
                           cwd=work, env=env, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(tree / "src"):
        raise RuntimeError(f"{tree}: imported evidential from {where.stdout.strip()}")
    peaks, failures = [], []
    for argv in COMMANDS:
        code, err, peak = run(argv, work, env)
        if code != 0:
            raise RuntimeError(f"{tree}: `evidential {' '.join(argv)}` exited {code}: "
                               f"{err.decode(errors='replace').strip()}")
        peaks.append(peak)
    for argv in FAILING:
        code, err, _ = run(argv, work, env)
        if code == 0:
            raise RuntimeError(f"{tree}: `evidential {' '.join(argv)}` did not fail")
        failures.append((code, err))
    return peaks, failures


def digest(path: Path) -> str:
    """sha256 of a file; of a manifest, of its JSON without `wall_clock_sec`."""
    data = path.read_bytes()
    if path.name.endswith("manifest.json"):
        doc = json.loads(data)
        doc.pop("wall_clock_sec", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def artifacts(work: Path) -> dict[str, str]:
    return {str(path.relative_to(work)): digest(path)
            for out in OUTPUTS for path in sorted((work / out).rglob("*")) if path.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/same_artifacts.py REV", file=sys.stderr)
        return 1
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="same_artifacts_") as tmp:
        tmp = Path(tmp)
        try:
            archive = subprocess.run(["git", "-C", str(HERE), "archive", "--format=tar", rev],
                                     capture_output=True, check=True).stdout
            (tmp / "rev").mkdir()
            subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive, check=True)
            their_peaks, their_failures = run_commands(tmp / "rev", tmp / "rev_work")
            our_peaks, our_failures = run_commands(HERE, tmp / "here_work")
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or b""
            print(f"error: {exc} {detail.decode(errors='replace').strip()}", file=sys.stderr)
            return 1
        theirs, ours = artifacts(tmp / "rev_work"), artifacts(tmp / "here_work")
    differ = 0
    for name in sorted(theirs.keys() | ours.keys()):
        same = theirs.get(name) == ours.get(name)
        differ += not same
        print(f"{'match' if same else 'DIFFER'}  {ours.get(name, 'missing here'):64}  {name}"
              + ("" if same else f"  ({rev}: {theirs.get(name, 'missing')})"))
    print(f"{len(ours | theirs) - differ} of {len(ours | theirs)} artifacts byte-identical "
          f"to {rev}")
    failed_alike = 0
    for argv, (code, err), theirs_failure in zip(FAILING, our_failures, their_failures):
        same = (code, err) == theirs_failure
        failed_alike += same
        print(f"{'match' if same else 'DIFFER'}  exit {code}  evidential {' '.join(argv)}")
        if not same:
            print(f"    here: {err.decode(errors='replace').strip()}\n"
                  f"    {rev}: exit {theirs_failure[0]}, "
                  f"{theirs_failure[1].decode(errors='replace').strip()}")
    differ += len(FAILING) - failed_alike
    print(f"{failed_alike} of {len(FAILING)} failing commands fail alike (exit code and stderr) "
          f"in {rev}")
    print(f"peak RSS in MB, {rev} -> here:")
    for argv, theirs_mb, ours_mb in zip(COMMANDS, their_peaks, our_peaks):
        print(f"{theirs_mb:8.1f} -> {ours_mb:8.1f}  evidential {' '.join(argv)}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
