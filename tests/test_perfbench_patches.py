"""The traced benchmark run swaps layer functions at module attributes; each
one it names must still exist and still be called, or a refactor silently
breaks `--trace 1`. The measured `mc_detection` operations run too."""

import importlib
import multiprocessing
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's tracing and workloads modules, freshly imported."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_every_patch_point_resolves_to_a_callable(perfbench):
    tracing, _ = perfbench
    assert tracing.PATCHES
    for module, attr, *_ in tracing.PATCHES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("workload, spans", [
    ("mc_detection", {"percolation.label", "detect.filter", "detect.match"}),
    ("false_alarm", {"percolation.sizes"}),
    ("consistency", {"image.integral"}),
    ("micrograph", {"io.read", "detect.serialize"}),
])
def test_patch_points_fire_on_their_workload(perfbench, tmp_path, workload, spans):
    tracing, workloads = perfbench
    wl = workloads.WORKLOADS[workload](3, tmp_path, tiny=True)
    wl.setup()
    call, check = wl.unit_call(0)
    tracer = tracing.Tracer()
    with tracer.patched():
        out = call()
    assert check(out) is None
    fired = {name for name, *_ in tracer.spans}
    assert spans <= fired, f"{workload} reached only {sorted(fired)}"


def test_consistency_counts_every_side_and_one_table_per_trial(perfbench, tmp_path):
    # the counters that scan.windows_per_s and image.integral_s read
    tracing, workloads = perfbench
    wl = workloads.WORKLOADS["consistency"](3, tmp_path, tiny=True)  # N=256, sides 16, 32, 64
    wl.setup()
    call, check = wl.unit_call(0)  # a one-trial batch
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer.patched():
        assert check(call()) is None
    assert tracer.counts[0]["scan.windows"] == sum((257 - s) ** 2 for s in (16, 32, 64)) == 145_955
    assert [name for name, *_ in tracer.spans].count("image.integral") == 1


def test_mc_detection_operations_pass_their_checks_at_both_jobs(perfbench, tmp_path):
    # the jobs=2 path that the gated ops_per_s times
    _, workloads = perfbench
    wl = workloads.McDetection(3, tmp_path, tiny=True)
    wl.setup()
    samples = wl.op(0) + wl.op(1)
    assert [(s.mode, s.error) for s in samples] == [
        ("serial", None), ("parallel", None), ("parallel", None), ("serial", None)]
    assert wl.batch_csv([3, 0, 0], 3, 1) == wl.batch_csv([3, 0, 0], 3, 2)
    assert multiprocessing.active_children() == []
