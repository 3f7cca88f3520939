"""In-memory span tracer that wraps the program's layer functions from outside.

Each wrapped call records a span ``[name, start, end, parent]``; a layer's
self time is the sum of its spans' durations minus the time covered by their
direct child spans. Names are patched where their callers look them up: a
function imported by value (``from .specfun import digamma``) is replaced in
the importing module, not in the module that defines it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict


def _values(counts, args, result):
    counts["specfun.values"] += getattr(args[0], "size", 1)


def _ndcore_work(backward: bool):
    # Nominal matmul work: x @ W forward; dW = x.T @ g for every layer and
    # g @ W.T for every layer but the first on the way back.
    def count(counts, args, result):
        rows = len(args[1])
        sizes = [layer.weights.size for layer in args[0].layers]
        per_row = sum(sizes) + (sum(sizes[1:]) if backward else 0)
        counts["ndcore.rows"] += rows
        counts["ndcore.flops_computed"] += 2 * rows * per_row
    return count


def _auc_rows(counts, args, result):
    counts["metrics.roc_auc.rows"] += len(args[0])


def _saved_bytes(counts, args, result):
    counts["data.save_csv.bytes"] += os.path.getsize(args[1])


def _loaded_bytes(counts, args, result):
    counts["data.load_csv.bytes"] += os.path.getsize(args[0])


def _artifact_bytes(counts, args, result):
    counts["cli.artifacts.bytes"] += sum(os.path.getsize(p) for p in result.values())


# (module, attribute, span name, counter). The module is the one whose
# namespace the caller reads the name from at call time.
PATCHES = (
    ("losses", "ln_gamma", "specfun", _values),
    ("losses", "digamma", "specfun", _values),
    ("losses", "trigamma", "specfun", _values),
    ("losses", "kl_to_uniform", "losses.kl", None),
    ("losses", "edl_base_loss", "losses.base", None),
    ("losses", "cross_entropy_loss", "losses.ce", None),
    ("losses", "edl_total_loss", "losses.other", None),
    ("losses", "evidence_to_alpha", "losses.other", None),
    ("losses", "harden_labels", "losses.other", None),
    ("losses", "make_alpha_tilde", "losses.other", None),
    ("losses", "lambda_schedule", "losses.other", None),
    ("ndcore", "forward", "ndcore.forward", _ndcore_work(backward=False)),
    ("ndcore", "backward", "ndcore.backward", _ndcore_work(backward=True)),
    ("ndcore", "init_network", "ndcore.other", None),
    ("ndcore", "swap_head", "ndcore.other", None),
    ("train", "step", "train.step", None),
    ("cli", "run_plan", "train.loop", None),
    ("metrics", "roc_auc", "metrics.roc_auc", _auc_rows),
    ("metrics", "auc_vs_uncertainty", "metrics.curve", None),
    ("metrics", "multiclass_auc", "metrics.other", None),
    ("metrics", "uncertainty_histogram", "metrics.other", None),
    ("data", "gen_blobs", "data.gen", None),
    ("data", "gen_ood_ring", "data.gen", None),
    ("data", "split", "data.split", None),
    ("data", "save_csv", "data.save_csv", _saved_bytes),
    ("data", "load_csv", "data.load_csv", _loaded_bytes),
    ("cli", "_emit_run_artifacts", "cli.artifacts", _artifact_bytes),
    ("cli", "main", "cli", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in PATCHES))
CALL_COUNTS = ("specfun", "losses.kl", "ndcore.forward", "ndcore.backward",
               "train.step", "metrics.roc_auc")
COUNTERS = (
    ("specfun.values", "count"),
    ("ndcore.rows", "count"),
    ("ndcore.flops_computed", "flop"),
    ("metrics.roc_auc.rows", "count"),
    ("data.save_csv.bytes", "bytes"),
    ("data.load_csv.bytes", "bytes"),
    ("cli.artifacts.bytes", "bytes"),
)
HEALTH = (("trace.overhead_s", "s"), ("trace.unattributed_s", "s"))

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    [(f"{name}.self_s", "s") for name in SPAN_NAMES]
    + [(f"{name}.calls", "count") for name in CALL_COUNTS]
    + list(COUNTERS)
    + list(HEALTH)
)


class Tracer:
    """Collects spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, program):
        """Patch every name in PATCHES on the `program` package, then restore.

        A name the program no longer has is skipped and listed in `missing`,
        so a refactor shows up as a gap in the trace instead of a crash.
        """
        originals = []
        self.missing = []
        try:
            for module_name, attr, name, counter in PATCHES:
                module = getattr(program, module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += (end - start) - inner
        return totals

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        `trace.overhead_s` is left to the caller, which knows the untraced
        wall time.
        """
        self_s = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        metrics = {f"{name}.self_s": self_s.get(name, 0.0) for name in SPAN_NAMES}
        metrics.update({f"{name}.calls": calls[name] for name in CALL_COUNTS})
        metrics.update({name: self.counts[name] for name, _ in COUNTERS})
        metrics["trace.unattributed_s"] = wall - sum(self_s.values())
        return metrics
