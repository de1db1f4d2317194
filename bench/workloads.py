"""The three benchmark workloads, their inputs and their correctness checks.

Every workload drives parrondoq through its public API only and looks each
entry point up as a module attribute at call time (``engine.play``,
``cli.main``, ``verify.run_all``), so the tracer in ``tracing.py`` can wrap
those attributes without touching the library.

A workload is built from a seed (the inputs), loads the recorded reference
outputs of the benchmark-defining commit from ``reference/``, and offers
(``Workload`` gives the defaults):

* ``warmup_ops()`` - ops run once before timing starts;
* ``pass_ops()`` - one pass over its fixed op set, in seed-dependent order;
* ``schedule(deadline, samples)`` - the closed-loop op stream of a timed run;
* ``label(op)`` - the name the op's times are collected under;
* ``execute(op)`` - the measured call;
* ``check(op, output)`` - True when the output matches the reference.
"""
from __future__ import annotations

import json
import math
import os
import random
import statistics
import time

from parrondoq import cli, coins, engine, noise, verify

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

#: The ROADMAP's reference tolerance for payoffs.
PAYOFF_TOL = 1e-12

#: README quick-start game configuration.
QUICK_START = dict(epsilon=1 / 168, delta=math.pi / 5,
                   betas=(math.pi / 2, math.pi / 2, math.pi / 4, math.pi / 3))

#: (label, sequence) at 3, 6, 9 and 11 qubits.
LADDER = (("q3", "AAB"), ("q6", "(AAB)^2"), ("q9", "(AAB)^3"), ("q11", "B^9"))

#: Depolarizing strengths a seed may pick. None is 0: at p == 0 the channel
#: returns before any Kraus work, which would skip a stage of the pipeline.
#: None is 1 either: there every payoff collapses to ~1e-17, which a broken
#: engine returning 0 would also match.
DP_STRENGTHS = (0.05, 0.15, 0.25, 0.35, 0.45, 0.6, 0.75, 0.9)

PRESETS = tuple(range(1, 10))


def load_reference(name: str):
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def payoff_matches(got: float, want: float, digits: int | None = None) -> bool:
    """|got - want| <= 1e-12, plus half a unit in the last printed digit when
    ``got`` was read back from text printed to ``digits`` significant
    digits."""
    tol = PAYOFF_TOL
    if digits is not None and want != 0.0:
        tol += 0.5 * 10.0 ** (math.floor(math.log10(abs(want))) - digits + 1)
    return abs(got - want) <= tol


class Workload:
    """Defaults: no warm-up, whole passes until the deadline, ops collected
    under their own name."""

    def warmup_ops(self):
        return []

    def schedule(self, deadline, samples):
        while True:
            yield from self.pass_ops()
            if time.perf_counter() >= deadline:
                return

    def label(self, op):
        return op


class DenseLadder(Workload):
    """One ``engine.play`` per register size, under depolarizing noise."""

    name = "dense-ladder"

    def __init__(self, seed: int):
        self.p = random.Random(seed).choice(DP_STRENGTHS)
        self.cfg = coins.calibrate_classical(
            QUICK_START["epsilon"], delta=QUICK_START["delta"],
            betas=QUICK_START["betas"])
        self.noise = noise.NoiseSpec("dp", self.p)
        self.sequences = dict(LADDER)

    def load_reference(self) -> None:
        self.expected = load_reference("dense_ladder.json")["payoffs"][
            repr(self.p)]

    def warmup_ops(self):
        return ["q3", "q6", "q9"]

    def pass_ops(self):
        return [label for label, _ in LADDER]

    def schedule(self, deadline, samples):
        """Cycle the 3-, 6- and 9-qubit plays until the deadline; play 11
        qubits once, and again only while its last time still fits."""
        while True:
            yield from ("q3", "q6", "q9")
            q11 = samples["q11"]
            if not q11 or deadline - time.perf_counter() >= q11[-1]:
                yield "q11"
            if time.perf_counter() >= deadline:
                return

    def execute(self, op):
        return engine.play(self.sequences[op], self.cfg, self.noise).payoff

    def check(self, op, output) -> bool:
        return payoff_matches(output, self.expected[op])

    def named_metrics(self, samples) -> dict:
        return {f"play_s.{label}": (statistics.median(samples[label]), "s")
                for label, _ in LADDER if samples[label]}


class SweepGrid(Workload):
    """Figure presets 1-9 rendered through the command line, one preset per
    op, each pass in a seed-permuted order."""

    name = "sweep-grid"

    def __init__(self, seed: int, out_dir: str):
        self.rng = random.Random(seed)
        self.out = os.path.join(out_dir, "figure.csv")
        self.argv = {n: ["figure", str(n), "--out", self.out]
                     for n in PRESETS}

    def load_reference(self) -> None:
        self.expected = load_reference("presets.json")
        self.rows_per_pass = sum(len(self.expected[str(n)]) for n in PRESETS)

    def warmup_ops(self):
        return self.pass_ops()

    def pass_ops(self):
        order = list(PRESETS)
        self.rng.shuffle(order)
        return order

    def execute(self, op):
        code = cli.main(self.argv[op])
        if code != 0:
            raise RuntimeError(f"figure {op} exited with code {code}")

    def check(self, op, output) -> bool:
        with open(self.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        want = self.expected[str(op)]
        if lines[:1] != ["sweep_var,value,channel,payoff"] or \
                len(lines) != len(want) + 1:
            return False
        for line, (var, value, channel, payoff) in zip(lines[1:], want):
            fields = line.split(",")
            if fields[:3] != [var, value, channel]:
                return False
            if not payoff_matches(float(fields[3]), payoff, digits=12):
                return False
        return True

    def named_metrics(self, samples) -> dict:
        if not all(samples[n] for n in PRESETS):
            return {}
        pass_s = sum(statistics.median(samples[n]) for n in PRESETS)
        return {"sweep_points_per_s": (self.rows_per_pass / pass_s, "1/s")}


class VerifyRegistry(Workload):
    """``verify.run_all()`` over the whole registry, one call per op, the
    check order permuted by the seed."""

    name = "verify-registry"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.size = len(verify.CHECKS)

    def load_reference(self) -> None:
        self.expected = load_reference("verify.json")

    def pass_ops(self):
        return [tuple(self.rng.sample(range(self.size), self.size))]

    def execute(self, op):
        registry = verify.CHECKS
        verify.CHECKS = tuple(registry[i] for i in op)
        try:
            return verify.run_all()
        finally:
            verify.CHECKS = registry

    def check(self, op, output) -> bool:
        return {r.check_id: r.status for r in output} == self.expected

    def label(self, op):
        return "run_all"

    def named_metrics(self, samples) -> dict:
        if not samples["run_all"]:
            return {}
        return {"verify_s": (statistics.median(samples["run_all"]), "s")}


def build(name: str, seed: int, out_dir: str):
    if name == DenseLadder.name:
        return DenseLadder(seed)
    if name == SweepGrid.name:
        return SweepGrid(seed, out_dir)
    if name == VerifyRegistry.name:
        return VerifyRegistry(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (DenseLadder.name, SweepGrid.name, VerifyRegistry.name)
