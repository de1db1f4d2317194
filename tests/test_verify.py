import time

import pytest

from parrondoq import engine, verify

# Each check's id, status and tolerance are pinned by the registry table in
# test_acceptance.py; the ``registry`` fixture (conftest.py) is the one run
# of ``verify.run_all`` both modules read.


def test_check_ids_unique(registry):
    ids = [r.check_id for r in registry]
    assert len(set(ids)) == len(ids)


def test_no_check_fails(registry):
    failed = [r.check_id for r in registry if r.failed]
    assert failed == []


def test_passes_are_within_tolerance(registry):
    for r in registry:
        if r.status == "pass":
            assert r.residual <= r.tolerance, r.check_id


def test_classified_checks_carry_detail(registry):
    for r in registry:
        if r.status.startswith("classified:"):
            assert r.detail, r.check_id


def test_fig2_symmetry_pairs_every_grid_point(registry):
    """Each of preset 2's 51 delta points meets its mirror pi - delta,
    wrapped into [0, 2pi); the residual is the worst pair's gap."""
    result = next(r for r in registry if r.check_id == "fig2_symmetry")
    assert "51 of 51 points paired" in result.detail
    assert result.residual == pytest.approx(1.8225e-2, abs=1e-6)


def test_result_flags():
    ok = verify.CheckResult("x", "pass", 0.0, 1e-9, "")
    bad = verify.CheckResult("x", "FAIL", 1.0, 1e-9, "")
    cls = verify.CheckResult("x", "classified:tag", 1.0, 1e-9, "why")
    assert not ok.failed
    assert bad.failed
    assert not cls.failed


def test_format_report(registry):
    text = verify.format_report(registry)
    lines = text.strip().splitlines()
    assert len(lines) == len(registry) + 1
    summary = lines[-1]
    assert summary == "verify: 26 checks, 19 pass, 7 classified, 0 fail"
    for line, r in zip(lines, registry):
        assert line.startswith(r.check_id)
        assert r.status in line
        assert f"tol={r.tolerance:<8.1e}".rstrip() in line


def test_run_all_batches_every_grid(monkeypatch):
    """Each grid check plays its points as one ``play_many`` per sequence,
    and the convention searches play one batch per chain sequence. Only
    ``performance_9q_pipeline`` times a single ``play``. Before the checks
    were batched, one ``run_all`` made 368 single-point ``play`` calls and
    402 window sweeps."""
    calls = {"play": 0, "sweep": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "play", counted("play", verify.play))
    monkeypatch.setattr(engine, "_window_expectations",
                        counted("sweep", engine._window_expectations))
    verify.run_all()
    assert calls["play"] == 1
    assert calls["sweep"] <= 50


def test_run_all_records_each_check_time():
    start = time.perf_counter()
    results = verify.run_all()
    wall = time.perf_counter() - start
    assert all(r.elapsed > 0 for r in results)
    assert sum(r.elapsed for r in results) <= wall
    timed = results[0]             # elapsed takes no part in ==
    assert timed == verify.CheckResult(timed.check_id, timed.status,
                                       timed.residual, timed.tolerance,
                                       timed.detail)
