"""The benchmark's tracer wraps library functions by module attribute name
(``coins.embed``, ``figures.play``, ``figures.calibrate_classical``, ...).
A renamed or moved function breaks it; this catches that without running
the benchmark."""
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook():
    tracing = load_tracing()
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
    assert (engine, "parse_sequence") in set(load_tracing()._targets())


def test_calibrate_classical_stays_traced():
    """``coins.calibrate_classical`` keeps its config memo behind a plain
    function, which the tracer wraps where ``verify`` and ``figures`` call
    it."""
    from parrondoq import figures, verify
    targets = set(load_tracing()._targets())
    assert (verify, "calibrate_classical") in targets
    assert (figures, "calibrate_classical") in targets
