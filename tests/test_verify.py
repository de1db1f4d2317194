import math
from dataclasses import replace

import pytest

from parrondoq import cli, engine, figures, oracle, verify
from parrondoq.coins import calibrate_classical
from parrondoq.figures import FIGURES, sweep_rows
from parrondoq.noise import NoiseSpec

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


@pytest.mark.parametrize("entry", [(3, 500), (509, 2)])
def test_compiler_products_sees_every_row_block(monkeypatch, entry):
    """The (AAB)^3 unitary is compared one row block of the AAB block at a
    time; a 1e-9 error in the first or the last of those blocks fails, and
    the residual is that error, up to the rounding of adding it."""
    build = verify.build_unitary

    def perturbed(plan, cfg):
        u = build(plan, cfg)
        if plan.total_qubits == 9:
            u[entry] += 1e-9
        return u

    monkeypatch.setattr(verify, "build_unitary", perturbed)
    result = verify.check_compiler_products()
    assert result.status == "FAIL"
    assert result.residual == pytest.approx(1e-9, rel=1e-6)


def test_run_all_batches_every_grid(monkeypatch):
    """Each grid check plays its points as one ``play_many`` per sequence,
    and each convention check one batch per chain sequence it reads. Only
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


def test_each_convention_check_plays_its_own_search(monkeypatch):
    """Each convention check of a run plays the search once, for its own
    orders and rows, and shares no table: the next run, and a check called
    outside any run, play the search afresh."""
    calls = []
    search = verify._chain_search
    monkeypatch.setattr(verify, "_chain_search", lambda orders, rows: (
        calls.append((orders, rows)) or search(orders, rows)))
    monkeypatch.setattr(verify, "CHECKS", (verify.check_convention_search,
                                           verify.check_convention_discovery))
    own = [(("printed",), verify._CHAIN_ROWS),
           (("printed", "canonical"), verify._ANCHOR_ROWS)]
    first = verify.run_all()
    assert calls == own
    assert verify.run_all() == first
    assert calls == own * 2
    verify.check_convention_discovery()
    assert calls == own * 2 + own[1:]


def test_registry_does_not_depend_on_its_order(monkeypatch, registry):
    """The checks share no state: run in reverse, or a convention check
    called alone, each gives its row of the registry."""
    def seen(results):
        return {r.check_id: (r.status, repr(r.residual), r.tolerance,
                             r.detail) for r in results
                if r.check_id != "performance_9q_pipeline"}
    expected = seen(registry)
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[::-1])
    assert seen(verify.run_all()) == expected
    for check in (verify.check_convention_search,
                  verify.check_convention_discovery):
        result = check()
        assert seen([result])[result.check_id] == expected[result.check_id]


def test_run_all_calibrates_its_configs_once(monkeypatch):
    """A run calibrates each of its 12 knob sets once, and the next run
    calibrates none, with every result unchanged but the timing check's."""
    verify._config.cache_clear()
    verify._preset_config.cache_clear()
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    for module in (verify, figures):
        monkeypatch.setattr(module, "calibrate_classical",
                            counted(module.calibrate_classical))
    cold = verify.run_all()
    assert len(calls) == 12
    warm = verify.run_all()
    assert len(calls) == 12

    def seen(results):
        return [(r.check_id, r.status, repr(r.residual), r.tolerance,
                 r.detail) for r in results
                if r.check_id != "performance_9q_pipeline"]
    assert seen(warm) == seen(cold)
    assert len(seen(cold)) == len(verify.CHECKS) - 1


def test_run_all_records_each_check_time(timed_registry):
    results, wall = timed_registry
    assert all(r.elapsed > 0 for r in results)
    assert sum(r.elapsed for r in results) <= wall
    timed = results[0]             # elapsed takes no part in ==
    assert timed == verify.CheckResult(timed.check_id, timed.status,
                                       timed.residual, timed.tolerance,
                                       timed.detail)


def test_failed_extended_search_is_a_fail_result(monkeypatch, capsys):
    """When the extended search does not pin exactly one convention, its
    check reports ``FAIL`` with the search's message, and the rest of the
    report survives: ``verify`` exits 1."""
    monkeypatch.setattr(verify, "_ANCHOR_ROWS", ("B:dp",))
    monkeypatch.setattr(verify, "CHECKS", (verify.check_kraus_completeness,
                                           verify.check_convention_discovery))
    kraus, discovery = verify.run_all()
    assert kraus.status == "pass"
    assert discovery.check_id == "convention_discovery"
    assert discovery.status == "FAIL"
    assert discovery.detail == ("extended search found 0 matching "
                                "conventions (expected exactly 1)")
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("convention_discovery")
    assert "FAIL" in lines[1]
    assert lines[-1] == "verify: 2 checks, 1 pass, 0 classified, 1 fail"


def test_discovery_of_another_cell_is_a_fail_result(monkeypatch):
    """One fitting cell that is not ``canonical/all-perqubit`` fails the
    discovery check, with the cell it found."""
    rows = dict.fromkeys(verify._ANCHOR_ROWS, 0.0)
    monkeypatch.setattr(verify, "_chain_search", lambda orders, names: {
        "printed/all-total": rows,
        "canonical/all-perqubit": dict.fromkeys(rows, 1.0)})
    result = verify.check_convention_discovery()
    assert (result.status, result.residual) == ("FAIL", 0.0)
    assert result.detail == ("found printed/all-total, expected "
                             "canonical/all-perqubit")


def test_direct_match_is_a_fail_result(monkeypatch):
    """A direct cell, printed order without per-qubit normalization, that
    fits every row fails the search check, with the cell it matched."""
    rows = dict.fromkeys(("B:ad", "BB:pd", "BBB:dp"), 0.0)
    monkeypatch.setattr(verify, "_chain_search", lambda orders, names: {
        "printed/all-total": rows,
        "printed/results-total": dict.fromkeys(rows, 1.0)})
    result = verify.check_convention_search()
    assert (result.status, result.residual) == ("FAIL", 0.0)
    assert result.detail == "unexpectedly matched printed/all-total"


@pytest.mark.parametrize("gap, status", [(0.0, "pass"), (0.01, "FAIL")])
def test_b3_ad_gap_alike_at_every_p_is_not_classified(monkeypatch, gap,
                                                      status):
    """The truncated-cubic class needs agreement at p = 0 and a larger gap
    further on. With no gap the check passes; with one gap of 0.01, above
    the tolerance at p = 0 as well, it fails."""
    monkeypatch.setattr(verify, "_chain_play", lambda seq, grid: [
        oracle.chain_b(len(seq), kind, p, eps) + gap
        for kind, p, eps in grid])
    result = verify.check_chain_b3_ad_truncation()
    assert (result.status, result.detail) == (status, "")
    assert result.residual == pytest.approx(gap, rel=1e-12, abs=0.0)


def test_fig2_symmetry_passes_when_s_is_zero(monkeypatch):
    """With every beta in {0, pi}, S = 0 and preset 2's phase-damping curve
    mirrors about pi/2, so the check passes with its pairing count."""
    setup = replace(FIGURES[2], betas=(0.0, math.pi, 0.0, math.pi))
    monkeypatch.setattr(verify, "figure_rows",
                        lambda number: sweep_rows(setup))
    result = verify.check_fig2_symmetry()
    assert result.status == "pass"
    assert result.residual <= 1e-9
    assert result.detail == "51 of 51 points paired"


def test_printed_form_rule_branches():
    """The shared rule classifies only when the model form fits every point
    and the printed form misses every sequence; otherwise the model form
    passes or fails. With no model form, the printed form passes or fails
    and is never classified. At delta = pi/2 an A chain's per-qubit payoff
    under amplitude damping is exactly -2*eps*p."""
    cfg = calibrate_classical(1 / 168, delta=math.pi / 2,
                              assignment="canonical")
    points = [(cfg, NoiseSpec("ad", p)) for p in (0.25, 1.0)]

    def form(offset):
        return lambda seq, cfg, noise: (-2 * cfg.epsilon * noise.p
                                        + offset(seq))

    def rule(printed, model=None, tolerance=1e-10):
        return verify._classify_printed_form(
            "x", ("A", "AA"), points, printed, tolerance, verify._PER_QUBIT,
            model=model, tag="tag", explain="printed off by {miss:.3g}")

    exact = form(lambda seq: 0.0)
    classified = rule(form(lambda seq: 0.01), exact)
    assert classified.status == "classified:tag"
    assert classified.residual <= 1e-10
    assert classified.detail == "printed off by 0.01"

    failed = rule(form(lambda seq: 0.01), form(lambda seq: 1e-6))
    assert failed.status == "FAIL"
    assert failed.residual == pytest.approx(1e-6)

    near = rule(form(lambda seq: 0.0 if seq == "A" else 0.01), exact)
    assert near.status == "pass"
    miss_a, miss_aa = near.detail.removeprefix(
        "printed form off by ").split(", ")
    assert float(miss_a) <= 1e-10 and miss_aa == "0.01"

    # no model form: the printed form alone passes or fails
    alone = rule(exact)
    assert alone.status == "pass" and alone.residual <= 1e-10
    assert alone.detail == ""

    off = rule(form(lambda seq: 1e-6))
    assert off.status == "FAIL"
    assert off.residual == pytest.approx(1e-6)

    loose = rule(form(lambda seq: 1e-2), tolerance=3e-2)
    assert loose.status == "pass"
    assert loose.residual == pytest.approx(1e-2)
