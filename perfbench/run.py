#!/usr/bin/env python3
"""percopick benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload micrograph --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory, never from an installed copy. `--trace 0` measures the
end-to-end metrics with no tracing; `--trace 1` is the separate traced run
that yields the per-layer metrics and the tracing overhead, and writes its
spans to `.perfbench_out/`. `--workload all` runs every workload in turn, each
in its own process, and prints every end-to-end metric of each.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import os

# Pin native thread pools before numpy loads: nothing may run more busy
# threads than the workload plans (one, or two worker processes).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("micrograph", "mc_detection", "false_alarm", "consistency")
SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
MIN_OPS = 3        # a run always completes at least this many operations


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "cpu": platform.machine(),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "scipy": scipy.__version__, "threads_per_process": 1}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                facts[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return facts


def peak_mb() -> float:
    """Peak resident set of this process or of any worker it waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def end_to_end(wl, samples, setup_times) -> dict[str, tuple[float, str]]:
    """Every gated metric is a median over the run's operations, so the few
    operations a busy spell on the host slows do not move it."""
    def seconds(mode):
        return [s.seconds for s in samples if s.mode == mode]

    def rate(mode):  # every operation of a workload completes the same units
        return samples[0].units / statistics.median(seconds(mode))

    return {
        "latency_p50_s": (statistics.median(seconds(wl.headline)), "s"),
        "ops_per_s": (rate(wl.headline), "1/s"),
        "ops_per_s_serial": (rate("serial"), "1/s"),
        "peak_mb": (peak_mb(), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def tail_line(wl, samples) -> str:
    """The latency tail, printed but not gated: a run has too few operations
    for a p90 with ten samples beyond it, and the tail follows the host."""
    latencies = [s.seconds for s in samples if s.mode == wl.headline]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return (f"latency samples: {len(latencies)} ({wl.op_label}, {wl.headline}); "
            f"p90 {p90:.6g} s, not gated")


def use_checkout_sources() -> bool:
    """Import percopick from this checkout's src/, never from an installed copy."""
    if not (SRC / "percopick" / "__init__.py").is_file():
        print(f"perfbench: no percopick sources at {SRC}; run from a checkout root",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def measure(wl, seconds: float):
    """Closed loop, one client: the next operation starts when the last ends.

    Returns the samples and the failure of the run-level check, if any."""
    samples = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < deadline:
        samples.extend(wl.op(i))
        i += 1
    return samples, wl.finish(samples)


def tally(samples, run_error) -> tuple[int, int]:
    """Attempted and failed operations. A failed run-level check fails every
    operation it pooled."""
    attempted = len(samples)
    if run_error is not None:
        return attempted, attempted
    return attempted, sum(1 for s in samples if s.error)


def run_workload(args) -> int:
    if not use_checkout_sources():
        return 2
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)

        print(f"workload {wl.name}: op = one {wl.op_label}, seed {args.seed}, "
              f"{args.seconds} s, trace {args.trace}")
        print("machine " + json.dumps(machine_facts()))
        print(f"working_set_mb {wl.working_set_bytes / 2**20:.3f}")

        if args.trace:
            from tracing import layer_metrics, self_time_table, traced_run

            tracer, traced_s, plain_s, samples = traced_run(wl, args.seconds)
            metrics = layer_metrics(tracer, traced_s, plain_s)
            print(f"self time per op over {len(traced_s)} traced ops "
                  f"(untraced: {len(plain_s)} ops):")
            print("\n".join(self_time_table(tracer, traced_s, plain_s)))
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            path = out / f"trace-{wl.name}-seed{args.seed}.json"
            path.write_text(json.dumps({"workload": wl.name, "seed": args.seed,
                                        "spans": tracer.dump(),
                                        "counts": tracer.counts}) + "\n")
            print(f"spans written to {path.relative_to(ROOT)}")
            run_error = None
        else:
            samples, run_error = measure(wl, args.seconds)
            metrics = end_to_end(wl, samples, setup_times)
            print(tail_line(wl, samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(samples, run_error)
    for s in samples:
        if s.error:
            print(f"FAILED {s.mode}: {s.error}")
    if run_error:
        print(f"FAILED run check: {run_error}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a child process, so peak memory is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally: pools are shut down and joined, inputs removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
