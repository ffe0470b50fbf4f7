#!/usr/bin/env python3
"""Fast self-test of the benchmark, about half a minute on two cores.

    python3 perfbench/selftest.py

1. Every workload runs at a tiny size through the command line, untraced and
   traced; each run must exit 0, check its outputs as correct, and print
   exactly the metrics BENCHMARK.json names for that mode.
2. Every workload runs again in-process with one deliberately corrupted
   program output; that operation must be counted as failed.
"""

import json
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import run  # pins native threads first

SEED = 3


@contextmanager
def corrupt_nth_call(owner, attr, nth, corrupt):
    """Make the nth call of owner.attr return a corrupted result."""
    original = getattr(owner, attr)
    calls = 0

    def faulty(*args, **kwargs):
        nonlocal calls
        calls += 1
        out = original(*args, **kwargs)
        return corrupt(out) if calls == nth else out

    setattr(owner, attr, faulty)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _naive_error_zero(csv: str) -> str:
    """Claim a naive-mean error of 0, which no scan error can stay below."""
    lines = csv.rstrip("\n").split("\n")
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",0"
    return "\n".join(lines) + "\n"


def _result_problem(proc, wanted: list[str]) -> str | None:
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"{result['failed']} of {result['attempted']} operations failed"
    if sorted(result["metrics"]) != sorted(wanted):
        return f"metrics {sorted(result['metrics'])}, expected {sorted(wanted)}"
    return None


def command_line_runs(spec: dict) -> list[str]:
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for name in run.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(run.__file__)), "--workload", name,
                   "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                                  check=False)
            problem = _result_problem(proc, wanted[trace])
            print(f"{name} --trace {trace}: {problem or 'ok'}")
            if problem:
                problems.append(f"{name} --trace {trace}: {problem}")
    return problems


def corrupted_outputs_count() -> list[str]:
    from percopick import cli, synth
    from workloads import WORKLOADS

    change_header = lambda csv: csv.replace("\n", ",tampered\n", 1)  # noqa: E731
    faults = {
        # the second report differs from the run's first, byte for byte
        "micrograph": (cli, "report_to_json", 2,
                       lambda doc: doc.replace("ParticlesFound", "NoParticles")),
        # the jobs=1 and jobs=2 CSVs of the second batch pair differ
        "mc_detection": (synth.DetectionStats, "to_csv", 3, change_header),
        # the fifth batch repeats the first batch's seed but not its CSV
        "false_alarm": (synth.DetectionStats, "to_csv", 5, change_header),
        # the second batch breaks the criterion-4 relation
        "consistency": (synth.ConsistencyTable, "to_csv", 2, _naive_error_zero),
    }
    problems = []
    for name, (owner, attr, nth, corrupt) in faults.items():
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench_selftest") as tmp:
            wl = WORKLOADS[name](SEED, Path(tmp), tiny=True)
            wl.setup()
            with corrupt_nth_call(owner, attr, nth, corrupt):
                samples, run_error = run.measure(wl, 1.0)
        attempted, failed = run.tally(samples, run_error)
        ok = failed >= 1
        print(f"{name} with corrupted output #{nth}: {failed} of {attempted} counted "
              f"as failed: {'ok' if ok else 'FAILED'}")
        if not ok:
            problems.append(f"{name}: corrupted output not counted")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if not run.use_checkout_sources():
        return 2
    problems = command_line_runs(spec) + corrupted_outputs_count()
    for p in problems:
        print(f"FAILED {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
