import time

import pytest

from parrondoq import engine, verify

EXPECTED_CLASSIFIED = {
    "aab_dp_coefficients": "classified:misprint",
    "aab_pd_coefficients": "classified:misprint",
    "convention_search": "classified:no-direct-match",
    "chain_dp_scaling": "classified:channel-scaling",
    "chain_b3_ad_truncation": "classified:truncated-cubic",
    "a_series": "classified:stock-slope-mismatch",
    "fig2_symmetry": "classified:asymmetric-about-pi/2",
}


@pytest.fixture(scope="module")
def results():
    return verify.run_all()


def test_registry_size(results):
    assert len(results) == len(verify.CHECKS) == 26


def test_check_ids_unique(results):
    ids = [r.check_id for r in results]
    assert len(set(ids)) == len(ids)


def test_no_check_fails(results):
    failed = [r.check_id for r in results if r.failed]
    assert failed == []


def test_classified_set_is_exactly_the_documented_one(results):
    classified = {r.check_id: r.status for r in results
                  if r.status.startswith("classified:")}
    assert classified == EXPECTED_CLASSIFIED


def test_passes_are_within_tolerance(results):
    for r in results:
        if r.status == "pass":
            assert r.residual <= r.tolerance, r.check_id


def test_classified_checks_carry_detail(results):
    for r in results:
        if r.status.startswith("classified:"):
            assert r.detail, r.check_id


def test_fig2_symmetry_pairs_every_grid_point(results):
    """Each of preset 2's 51 delta points meets its mirror pi - delta,
    wrapped into [0, 2pi); the residual is the worst pair's gap."""
    result = next(r for r in results if r.check_id == "fig2_symmetry")
    assert "51 of 51 points paired" in result.detail
    assert result.residual == pytest.approx(1.8225e-2, abs=1e-6)


def test_result_flags():
    ok = verify.CheckResult("x", "pass", 0.0, 1e-9, "")
    bad = verify.CheckResult("x", "FAIL", 1.0, 1e-9, "")
    cls = verify.CheckResult("x", "classified:tag", 1.0, 1e-9, "why")
    assert not ok.failed
    assert bad.failed
    assert not cls.failed


def test_format_report(results):
    text = verify.format_report(results)
    lines = text.strip().splitlines()
    assert len(lines) == len(results) + 1
    summary = lines[-1]
    assert summary == "verify: 26 checks, 19 pass, 7 classified, 0 fail"
    for line, r in zip(lines, results):
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
