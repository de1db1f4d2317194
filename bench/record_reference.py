"""Record the reference outputs the benchmark checks against.

    python3 bench/record_reference.py

Writes bench/reference/{dense_ladder,presets,verify}.json from the library
in this checkout. The files hold the outputs of the commit that defined the
benchmark; a change that claims a speed-up must reproduce them, so do not
re-record them to make a failing run pass.
"""
import json
import os

import run  # pins BLAS threads before numpy loads

run.import_library()

from parrondoq import engine, figures, noise, verify  # noqa: E402

import workloads  # noqa: E402


def dense_ladder() -> dict:
    cfg = workloads.DenseLadder(0).cfg
    payoffs = {}
    for p in workloads.DP_STRENGTHS:
        spec = noise.NoiseSpec("dp", p)
        payoffs[repr(p)] = {label: engine.play(seq, cfg, spec).payoff
                            for label, seq in workloads.LADDER}
    return {"sequences": dict(workloads.LADDER), "channel": "dp",
            "config": "README quick start", "payoffs": payoffs}


def presets() -> dict:
    out = {}
    for n in workloads.PRESETS:
        rows = figures.figure_rows(n)
        lines = figures.rows_to_csv(rows).splitlines()[1:]
        out[str(n)] = [line.split(",")[:3] + [payoff]
                       for line, (_, _, _, payoff) in zip(lines, rows)]
    return out


def statuses() -> dict:
    return {r.check_id: r.status for r in verify.run_all()}


def _dumps(data: dict) -> str:
    """JSON with one line per key, per row of a list and per entry of a
    nested mapping."""
    def value(v):
        if isinstance(v, list):
            return "[\n  " + ",\n  ".join(map(json.dumps, v)) + "\n ]"
        if isinstance(v, dict) and all(isinstance(e, dict)
                                       for e in v.values()):
            return "{\n  " + ",\n  ".join(
                f"{json.dumps(k)}: {json.dumps(e)}" for k, e in v.items()
            ) + "\n }"
        return json.dumps(v)
    body = ",\n".join(f" {json.dumps(k)}: {value(v)}" for k, v in data.items())
    return "{\n" + body + "\n}\n"


def main() -> None:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name, data in (("presets.json", presets()),
                       ("verify.json", statuses()),
                       ("dense_ladder.json", dense_ladder())):
        path = os.path.join(workloads.REFERENCE_DIR, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dumps(data))
        print("wrote", os.path.relpath(path))


if __name__ == "__main__":
    main()
