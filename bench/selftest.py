"""Self-test and summary table for the benchmark.

``smoke()`` runs every workload at minimum length, traced and untraced, in
fresh processes exactly as the benchmark command is run, and fails unless
every metric of BENCHMARK.json is emitted with its unit, no op fails, and a
reference shifted by 1e-9 is counted as a failed op.

``table()`` runs every workload once and prints every metric by name and
unit, the workload's named metrics and its failed fraction included.
"""
import copy
import json
import math
import os
import subprocess
import sys
import tempfile

import run
import workloads

#: Named metrics each workload reports besides the BENCHMARK.json ones.
NAMED = {
    "dense-ladder": ("play_s.q3", "play_s.q6", "play_s.q9", "play_s.q11"),
    "sweep-grid": ("sweep_points_per_s",),
    "verify-registry": ("verify_s",),
}
SHIFT = 1e-9


class SmokeFailure(Exception):
    pass


def expect(condition, message) -> None:
    if not condition:
        raise SmokeFailure(message)


def run_child(workload, seed, seconds, trace):
    """Run one workload in a fresh process; returns (result, report)."""
    argv = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SmokeFailure(f"{workload} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-2].removeprefix("report "))
    return json.loads(lines[-1]), report


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _shifted(workload):
    """A copy of ``workload`` whose reference is off by SHIFT (for verify,
    whose reference is statuses, one status is changed)."""
    shifted = copy.copy(workload)
    if isinstance(workload, workloads.DenseLadder):
        shifted.expected = {k: v + SHIFT for k, v in workload.expected.items()}
    elif isinstance(workload, workloads.SweepGrid):
        shifted.expected = {n: [row[:3] + [row[3] + SHIFT] for row in rows]
                            for n, rows in workload.expected.items()}
    else:
        first = next(iter(workload.expected))
        shifted.expected = dict(workload.expected, **{first: "FAIL"})
    return shifted


def check_shifted_reference() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for name in workloads.NAMES:
            workload = workloads.build(name, 0, tmp)
            workload.load_reference()
            op = workload.pass_ops()[0]
            for subject, want in ((workload, 0), (_shifted(workload), 1)):
                counts = run.Counts()
                run.run_op(subject, op, counts)
                expect(counts.attempted == 1 and counts.failed == want,
                       f"{name}: {counts.failed} failed ops, want {want}")
            print(f"smoke {name}: reference shifted by {SHIFT:g} is a "
                  "failed op")


def smoke() -> int:
    spec = _spec()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    try:
        check_shifted_reference()
        for name in workloads.NAMES:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                result, report = run_child(name, 0, 1, trace)
                want = {m["name"]: m["unit"] for m in spec[section]}
                got = result["metrics"]
                expect(set(got) == set(want),
                       f"{name} trace {trace}: metrics differ: "
                       f"{sorted(set(got) ^ set(want))}")
                for metric, unit in want.items():
                    value = got[metric]["value"]
                    expect(got[metric]["unit"] == unit,
                           f"{name}: {metric} unit {got[metric]['unit']}")
                    expect(isinstance(value, (int, float))
                           and math.isfinite(value),
                           f"{name}: {metric} value {value!r}")
                expect(result["correct"] and result["failed"] == 0
                       and result["attempted"] >= 1
                       and report["failed_frac"] == 0,
                       f"{name} trace {trace}: {result['failed']} of "
                       f"{result['attempted']} ops failed")
                if trace == 0:
                    missing = set(NAMED[name]) - set(report["named"])
                    expect(not missing, f"{name}: missing {missing}")
                print(f"smoke {name} trace {trace}: {len(got)} metrics, "
                      f"{result['attempted']} ops, failed_frac 0")
    except SmokeFailure as err:
        print(f"smoke FAILED: {err}")
        return 1
    print("smoke passed")
    return 0


def table(seed, seconds, trace) -> int:
    """Run each workload and print every metric by name and unit."""
    failed = 0
    for name in workloads.NAMES:
        result, report = run_child(name, seed, seconds, trace)
        rows = dict(report.get("named", {}))
        rows.update(result["metrics"])
        rows["failed_frac"] = {"value": report["failed_frac"], "unit": "ratio"}
        print(f"{name} (seed {seed}, {seconds:g} s, trace {trace}, "
              f"{result['attempted']} ops)")
        for metric, entry in rows.items():
            print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
        failed += result["failed"]
    print("environment " + json.dumps(report["environment"]))
    return 1 if failed else 0
