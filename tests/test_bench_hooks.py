"""The benchmark's tracer wraps library functions by module attribute name
(``coins.embed``, ``figures.play``, ``figures.calibrate_classical``, ...).
A renamed or moved function breaks it; this catches that without running
the benchmark. The benchmark also holds every output to the recorded
files in ``bench/reference/``; the last test holds the program to them
the same way, so a changed payoff or status fails here first."""
import importlib.util
import pathlib

import pytest

from parrondoq import NoiseSpec, calibrate_classical, play

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook():
    tracing = load_bench_module("tracing")
    from parrondoq import verify
    targets = list(tracing._targets()) + [(verify, "CHECKS")]
    originals = {(m.__name__, attr): getattr(m, attr) for m, attr in targets}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, attr in targets:
            assert getattr(module, attr) is not originals[
                (module.__name__, attr)], f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for module, attr in targets:
        assert getattr(module, attr) is originals[
            (module.__name__, attr)], f"{module.__name__}.{attr}"


def test_parse_sequence_stays_traced():
    """``coins.parse_sequence`` keeps its plan memo behind a plain function,
    which the tracer wraps where the engine calls it."""
    from parrondoq import engine
    targets = set(load_bench_module("tracing")._targets())
    assert (engine, "parse_sequence") in targets


def test_calibrate_classical_stays_traced():
    """``coins.calibrate_classical`` is a plain function, which the tracer
    wraps where ``verify`` and ``figures`` call it; ``verify``'s config
    cache looks it up there, so a traced run counts its misses."""
    from parrondoq import figures, verify
    targets = set(load_bench_module("tracing")._targets())
    assert (verify, "calibrate_classical") in targets
    assert (figures, "calibrate_classical") in targets


@pytest.mark.parametrize("case", [*range(1, 10), "dense-ladder",
                                  "verify-registry"])
def test_program_matches_the_benchmark_reference(case, request, tmp_path):
    """Figure presets 1-9 as the ``sweep-grid`` workload checks them, the
    ``dense-ladder`` payoffs at every strength a seed may pick, and the
    session's ``verify`` statuses, against ``bench/reference/``."""
    workloads = load_bench_module("workloads")
    if case == "dense-ladder":
        recorded = workloads.load_reference("dense_ladder.json")["payoffs"]
        assert set(recorded) == set(map(repr, workloads.DP_STRENGTHS))
        cfg = calibrate_classical(**workloads.QUICK_START)
        for p in workloads.DP_STRENGTHS:
            for label, sequence in workloads.LADDER:
                got = play(sequence, cfg, NoiseSpec("dp", p)).payoff
                assert workloads.payoff_matches(
                    got, recorded[repr(p)][label]), (p, label)
    elif case == "verify-registry":
        registry = request.getfixturevalue("registry")
        assert {r.check_id: r.status for r in registry} == \
            workloads.load_reference("verify.json")
    else:
        grid = workloads.SweepGrid(0, str(tmp_path))
        grid.load_reference()
        grid.execute(case)
        assert grid.check(case, None)
