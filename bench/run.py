"""parrondoq benchmark: one workload per process, one client, closed loop.

Run from the repository root:

    python3 bench/run.py --workload dense-ladder --seed 1 --seconds 30 \
        --trace 0
    python3 bench/run.py --all --seconds 30   # every workload, readable table
    python3 bench/run.py --smoke              # self-test at minimum length

Workloads are described in BENCHMARK.json and bench/README.md. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones of a traced pass (plus the tracing overhead).
The line before it, starting with "report ", holds the workload's named
metrics, the failed fraction and the environment of the measured process.
"""
import os

# Pin BLAS to one thread before numpy loads. With two OpenBLAS threads a
# 64x64 complex matmul now and then stalls for ~16 ms instead of 0.04 ms,
# which times the scheduler rather than the program. The figure pool runs
# at its default size.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"
os.environ.pop("PARRONDOQ_JOBS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: Fresh interpreters started per run to time set-up; the first is not
#: timed, so byte-compilation of a new checkout does not count.
SETUP_PROBES = 7


def import_library():
    """Import parrondoq from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import parrondoq
    except ImportError as err:
        sys.exit(f"error: cannot import parrondoq from {SRC}: {err}")
    if not os.path.abspath(parrondoq.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: parrondoq imported from {parrondoq.__file__}, "
                 f"not from {SRC}")


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "env": {v: os.environ.get(v)
                    for v in PINNED + ("PARRONDOQ_JOBS",)}}


@dataclass
class Counts:
    attempted: int = 0
    failed: int = 0


def run_op(workload, op, counts, tracer=None):
    """One op: time the call, then check its output. Returns the elapsed
    seconds, or None if the call raised."""
    counts.attempted += 1
    if tracer is not None:
        tracer.op = counts.attempted
    start = time.perf_counter()
    try:
        output = workload.execute(op)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        counts.failed += 1
        return None
    elapsed = time.perf_counter() - start
    try:
        ok = workload.check(op, output)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"wrong output: {workload.name} op {op}", file=sys.stderr)
        counts.failed += 1
    return elapsed


def pass_seconds(samples) -> float:
    """One pass over the op set: the sum of each op's median time."""
    return sum(statistics.median(times) for times in samples.values())


def setup_seconds(workload_name: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing parrondoq and
    building the workload's inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup",
            "--workload", workload_name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def measure(workload, seconds, counts) -> dict:
    """Untraced closed loop: label -> list of op times."""
    for op in workload.warmup_ops():
        run_op(workload, op, counts)
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    for op in workload.schedule(deadline, samples):
        elapsed = run_op(workload, op, counts)
        if elapsed is not None:
            samples[workload.label(op)].append(elapsed)
    return samples


def measure_traced(workload, seconds, counts, tracer):
    """Run each op of a pass untraced and then traced, pass after pass until
    the deadline (at least one pass), so both runs of an op meet the same
    machine. Returns (passes, untraced seconds, traced seconds) per pass."""
    for op in workload.warmup_ops():
        run_op(workload, op, counts)
    passes, untraced, traced = 0, 0.0, 0.0
    deadline = time.perf_counter() + seconds
    while True:
        for op in workload.pass_ops():
            untraced += run_op(workload, op, counts) or 0.0
            tracer.install()
            try:
                traced += run_op(workload, op, counts, tracer) or 0.0
            finally:
                tracer.uninstall()
        passes += 1
        if time.perf_counter() >= deadline:
            return passes, untraced / passes, traced / passes


def result_line(counts, metrics) -> str:
    return json.dumps({
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def run_workload(args) -> int:
    import workloads
    counts = Counts()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = workloads.build(args.workload, args.seed, tmp)
        workload.load_reference()
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            passes, base, with_spans = measure_traced(
                workload, args.seconds, counts, tracer)
            check_ids = list(workloads.load_reference("verify.json"))
            metrics = tracer.layer_metrics(passes, check_ids)
            metrics["trace.overhead_s"] = (with_spans - base, "s")
            metrics["trace.overhead_frac"] = ((with_spans - base) / base,
                                              "ratio")
            report["passes"] = passes
            report["spans"] = len(tracer.spans)
            trace_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path)
            report["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            samples = measure(workload, args.seconds, counts)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {"setup_s": (setup_s, "s"),
                       "peak_rss_mb": (peak, "MB"),
                       "pass_s": (pass_seconds(samples), "s")}
            report["named"] = {name: {"value": v, "unit": u} for name, (v, u)
                               in workload.named_metrics(samples).items()}
            report["samples"] = {label: len(t) for label, t in samples.items()}
    report["failed_frac"] = counts.failed / counts.attempted
    report["environment"] = environment()
    print("report " + json.dumps(report))
    print(result_line(counts, metrics))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a table")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at minimum length")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.all or args.smoke) and not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads
    if args.workload is not None and args.workload not in workloads.NAMES:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 + ", ".join(workloads.NAMES))
    if args.probe_setup:
        workloads.build(args.workload, args.seed, OUT_DIR)
        return 0
    if args.smoke or args.all:
        import selftest
        if args.smoke:
            return selftest.smoke()
        return selftest.table(args.seed, args.seconds, args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
