"""The traced run: spans around the calls into each percopick layer.

No tracing code lives in the program. While a traced operation runs, the
layer functions are replaced, at the module attributes through which the
program looks them up, by wrappers that record a span (name, start, end,
parent, op id) and a few counts, then call the original. So a traced
operation does exactly the work of an untraced one, and each traced
operation is paired with an untraced one on the same input; the difference
of their medians is the tracing overhead.

A span's self time is its duration minus the durations of its child spans
(spans nest and run on one thread, so the children never overlap).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from percopick import cli, detect, percolation, scan, synth

from workloads import timed

COUNT_OPS = 3  # counts are medians over the first COUNT_OPS traced operations


def _read_bytes(args, out):
    return {"io.read_bytes": Path(args[0]).stat().st_size}


def _windows(args, out):
    img = args[0]
    sides = [s for s in args[1:] if isinstance(s, int)]
    return {"scan.windows": sum((img.height - s + 1) * (img.width - s + 1) for s in sides)}


def _built(args, out):
    return {"percolation.clusters_built": len(out)}


def _kept(args, out):
    return {"percolation.clusters_kept": len(out)}


# (module, attribute, span name, counter): every place the program looks a
# layer function up on the paths the workloads drive.
PATCHES = [
    (cli, "read_image", "io.read", _read_bytes),
    (cli, "run_detection_artifacts", "detect.pipeline", None),
    (cli, "report_to_json", "detect.serialize", None),
    (cli, "atomic_write_bytes", "io.write", None),
    (cli, "write_binary_image", "io.write", None),
    (detect, "preprocess", "image.preprocess", None),
    (detect, "estimate_intensities", "scan.estimate", _windows),
    (detect, "binarize", "percolation.binarize", None),
    (detect, "black_clusters", "percolation.materialize", _built),
    (detect, "filter_clusters", "detect.filter", _kept),
    (scan, "build_integral", "image.integral", None),
    (percolation, "label_black", "percolation.label", None),
    (synth, "generate_scene", "synth.generate", None),
    (synth, "run_detection_artifacts", "detect.pipeline", None),
    (synth, "match_detections", "detect.match", None),
    (synth, "match_clusters", "detect.match", None),
    (synth, "preprocess", "image.preprocess", None),
    (synth, "binarize", "percolation.binarize", None),
    (synth, "black_clusters", "percolation.materialize", _built),
    (synth, "cluster_sizes", "percolation.sizes", None),
    (synth, "filter_clusters", "detect.filter", _kept),
    (synth, "estimate_lower", "scan.estimate", _windows),
    (synth, "naive_mean", "scan.naive_mean", None),
]

# per-layer metric -> the spans whose self times it sums
SELF_TIME_METRICS = {
    "io.read_s": ("io.read",),
    "io.write_s": ("io.write",),
    "image.preprocess_s": ("image.preprocess",),
    "image.integral_s": ("image.integral",),
    "scan.estimate_s": ("scan.estimate", "scan.naive_mean"),
    "percolation.binarize_s": ("percolation.binarize",),
    "percolation.label_s": ("percolation.label",),
    "percolation.sizes_s": ("percolation.sizes",),
    "percolation.materialize_s": ("percolation.materialize",),
    "detect.filter_s": ("detect.filter",),
    "detect.serialize_s": ("detect.serialize",),
    "detect.match_s": ("detect.match",),
    "detect.self_s": ("detect.pipeline",),
    "synth.generate_s": ("synth.generate",),
    "synth.harness_s": ("synth.harness",),
    "cli.self_s": ("cli.main",),
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op = -1
        self._stack: list[int] = []

    def span(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                for key, value in counter(args, out).items():
                    self.counts[self.op][key] += value
            return out
        return traced

    @contextmanager
    def patched(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
        try:
            for (mod, attr, name, counter), (_, _, fn) in zip(PATCHES, saved):
                setattr(mod, attr, self.wrap(name, fn, counter))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, the summed self time of each span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent, op), inner in zip(self.spans, child):
            out[op][name] += end - start - inner
        return out

    def totals(self, name) -> dict[int, float]:
        """Per op, the summed duration of the spans with this name."""
        out: dict[int, float] = defaultdict(float)
        for n, start, end, parent, op in self.spans:
            if n == name:
                out[op] += end - start
        return out

    def dump(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]


def traced_run(wl, seconds: float):
    """Alternate traced and untraced units of the workload on the same input.

    Returns (tracer, traced op seconds, untraced op seconds, samples)."""
    tracer = Tracer()
    traced_s, plain_s, samples = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < COUNT_OPS or time.perf_counter() < deadline:
        call, check = wl.unit_call(i)
        outputs = []
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                tracer.op = i
                with tracer.patched():
                    sample, out = timed(wl.headline, 1,
                                        lambda: tracer.span(wl.root_span, call), check)
                traced_s.append(sample.seconds)
            else:
                sample, out = timed(wl.headline, 1, call, check)
                plain_s.append(sample.seconds)
            samples.append(sample)
            outputs.append(out)
        if outputs[0] != outputs[1] and not sample.error:
            sample.error = "traced and untraced outputs differ"
        i += 1
    return tracer, traced_s, plain_s, samples


def layer_metrics(tracer: Tracer, traced_s, plain_s) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: medians over traced ops of per-op values."""
    per_op = tracer.self_times()
    ops = sorted(op for op in per_op if op >= 0)
    med = statistics.median
    metrics = {}
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = (med(sum(per_op[op][n] for n in names) for op in ops), "s")

    reads = tracer.totals("io.read")
    metrics["io.read_mb_per_s"] = (med(
        tracer.counts[op]["io.read_bytes"] / 1e6 / reads[op] if reads[op] else 0.0
        for op in ops), "MB/s")
    scans = tracer.totals("scan.estimate")
    metrics["scan.windows_per_s"] = (med(
        tracer.counts[op]["scan.windows"] / scans[op] if scans[op] else 0.0
        for op in ops), "1/s")

    first = ops[:COUNT_OPS]
    built = med(tracer.counts[op]["percolation.clusters_built"] for op in first)
    kept = med(tracer.counts[op]["percolation.clusters_kept"] for op in first)
    metrics["percolation.clusters_total"] = (built, "count")
    metrics["percolation.clusters_kept"] = (kept, "count")
    metrics["percolation.kept_ratio"] = (kept / built if built else 0.0, "ratio")

    metrics["trace.untraced_op_s"] = (med(plain_s), "s")
    metrics["trace.overhead_s"] = (med(traced_s) - med(plain_s), "s")
    return metrics


def self_time_table(tracer: Tracer, traced_s, plain_s) -> list[str]:
    """Median self time per op of every span name as a share of the median
    untraced op: the blocking steps should account for all of it."""
    per_op = tracer.self_times()
    ops = [op for op in per_op if op >= 0]
    names = sorted({n for op in ops for n in per_op[op]})
    med = statistics.median
    base = med(plain_s)
    rows = [(med(per_op[op][n] for op in ops), n) for n in names]
    total = sum(v for v, _ in rows)
    lines = [f"  {'span':<26}{'self s/op':>12}{'share':>9}"]
    lines += [f"  {name:<26}{value:>12.6f}{value / base:>9.1%}"
              for value, name in sorted(rows, reverse=True)]
    lines += [f"  {'sum of self times':<26}{total:>12.6f}{total / base:>9.1%}",
              f"  {'traced op (median)':<26}{med(traced_s):>12.6f}{med(traced_s) / base:>9.1%}",
              f"  {'untraced op (median)':<26}{base:>12.6f}{1:>9.1%}",
              f"  {'tracing overhead':<26}{med(traced_s) - base:>12.6f}"
              f"{(med(traced_s) - base) / base:>9.1%}"]
    return lines
