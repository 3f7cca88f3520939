"""Benchmark of the `evidential` CLI: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload tedl_ref --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
It is a closed loop in one process: it calls `cli.main(argv)` for one
command at a time and starts the next only when the previous has returned.
Set-up (a fresh interpreter importing the program, writing the generated
inputs, warm-up runs) is timed apart from the measured repeats. With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it measures
untraced repeats for half the time, traced repeats for the other half, and
reports the per-layer split. Every metric is printed with its unit, and the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread: the timed matrix products are small and the host is
# shared, so more threads add noise, not speed. Must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The program lets this variable override configured seeds.
os.environ.pop("EVIDENTIAL_SEED", None)

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_REPEATS = 2

END_TO_END = (
    ("wall_s", "s"),
    ("rows_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("quality_auc", "auc"),
    ("pass_ratio", "ratio"),
)


class ProgramMissing(RuntimeError):
    """The checkout has no `src/evidential` package to benchmark."""


def load_program():
    """Import `evidential` from this checkout's `src/`, never from elsewhere."""
    package = ROOT / "src" / "evidential"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {package}")
    sys.path.insert(0, str(package.parent))
    import evidential
    import evidential.cli  # noqa: F401  (the package does not import it)

    if Path(evidential.__file__).resolve().parent != package:
        raise ProgramMissing(f"imported evidential from {evidential.__file__}")
    return evidential


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def startup_seconds(checks) -> float:
    """Wall time of a fresh interpreter that imports the program and exits."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import evidential.cli"], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    checks.expect(proc.returncode == 0, f"importing evidential failed: {proc.stderr}")
    return elapsed


def run_command(program, argv, checks) -> bool:
    """Run one CLI command in-process; a non-zero exit is a failed operation."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = program.cli.main(argv)
    except Exception:  # a crash counts as one failed command
        code = traceback.format_exc()
    return checks.expect(code == 0, f"evidential {' '.join(argv)} exited {code}: "
                                    f"{err.getvalue().strip()}")


def measure(program, wl, checks, seconds, tracer=None):
    """Repeat the workload's timed commands for `seconds` (at least twice).

    Returns the wall time, output digest and (when traced) per-layer metrics
    of each repeat that succeeded. Stops at the first failed operation.
    """
    run = functools.partial(run_command, program)
    walls, digests, layers = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_REPEATS or time.perf_counter() - start < seconds:
        failed = len(checks.failures)
        if tracer is not None:
            tracer.reset()
        with tracer.installed(program) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            wl.timed(run, checks)
            wall = time.perf_counter() - t0
        if len(checks.failures) > failed:
            break
        digests.append(wl.check(checks))
        walls.append(wall)
        if tracer is not None:
            layers.append(tracer.layer_metrics(wall))
    return walls, digests, layers


def run_benchmark(program, name, seed, seconds, trace, sizes=None):
    """Set up, measure and check one workload; returns the result record.

    The record holds the JSON fields, the units of its metrics, and the raw
    repeats (`walls`, `traced_walls`, `layers`, `digests`) that the metrics
    summarise.
    """
    p = (sizes or workloads.SIZES)[name]
    checks = workloads.Checks()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    walls, traced, digests, layers, tracer = [], [], [], [], None
    metrics = {}
    try:
        wl = workloads.WORKLOADS[name](program, work, seed, p)
        setups = []
        for _ in range(SETUP_REPEATS):
            startup = startup_seconds(checks)
            t0 = time.perf_counter()
            wl.prepare(functools.partial(run_command, program), checks)
            setups.append(startup + time.perf_counter() - t0)
            if checks.failures:
                break
        metrics["setup_s"] = statistics.median(setups)
        if not checks.failures:
            walls, digests, _ = measure(program, wl, checks, seconds / 2 if trace else seconds)
        if trace and not checks.failures:
            tracer = spans.Tracer()
            traced, more, layers = measure(program, wl, checks, seconds / 2, tracer)
            digests += more
        for i, digest in enumerate(digests[1:], start=2):
            checks.expect(digest == digests[0],
                          f"repeat {i} wrote different outputs than repeat 1")
        if digests and not checks.failures:
            wl.check_values(checks)
            metrics["quality_auc"] = wl.quality()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    if walls:
        metrics["wall_s"] = statistics.median(walls)
        metrics["rows_per_s"] = wl.rows / metrics["wall_s"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["pass_ratio"] = 1 - len(checks.failures) / max(checks.attempted, 1)
    units = dict(END_TO_END)
    if trace:
        units = dict(spans.PER_LAYER)
        if layers:
            per_layer = {key: statistics.median(rep[key] for rep in layers)
                         for key in layers[0]}
            per_layer["trace.overhead_s"] = statistics.median(traced) - metrics["wall_s"]
            metrics = per_layer
        else:
            metrics = {}
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items() if key in metrics},
        "failures": checks.failures,
        "walls": walls,
        "traced_walls": traced,
        "layers": layers,
        "digests": digests,
        "untraced_names": tracer.missing if tracer else [],
    }


def _report(result, name, seed, trace) -> None:
    print(f"machine: {json.dumps(machine_info())}")
    repeats = len(result["walls"]) + len(result["layers"])
    print(f"workload {name}, seed {seed}: {repeats} timed repeats"
          f"{' (half traced)' if trace else ''}, closed loop, one command at a time")
    for key, metric in result["metrics"].items():
        print(f"  {key:<28} {metric['value']:>16.6g} {metric['unit']}")
    if trace and result["layers"]:
        self_s = {key[:-len(".self_s")]: m["value"]
                  for key, m in result["metrics"].items() if key.endswith(".self_s")}
        total = sum(self_s.values()) or 1.0
        ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
        print("self-time share: " + ", ".join(
            f"{layer} {value / total:.1%}" for layer, value in ranked if value > 0))
    for missing in result["untraced_names"]:
        print(f"trace: the program has no {missing}; its time goes to its caller")
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program = load_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}; run this from the root of a source checkout",
              file=sys.stderr)
        return 2
    result = run_benchmark(program, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    _report(result, args.workload, args.seed, bool(args.trace))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
