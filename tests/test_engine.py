import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from parrondoq import engine
from parrondoq.coins import (MAX_QUBITS, CoinParams, GameConfig,
                             SequencePlan, SizeLimitError,
                             calibrate_classical, max_payoff_phases,
                             parse_sequence)
from parrondoq.engine import (CONVENTION_NAMES, PayoffConvention,
                              PayoffReport, _score, play, play_arrays,
                              play_many)
from parrondoq.noise import KINDS, NoiseSpec, corner_stack
from parrondoq.reference import (apply_channel, build_unitary, evolve,
                                 make_initial_state, payoff_report)
from parrondoq.verify import (CalibrationError, calibrate_convention,
                              discover_convention)

PI = math.pi
PER_QUBIT = PayoffConvention("all", "per_qubit")


def fig1_config():
    return calibrate_classical(1 / 168, delta=PI / 5,
                               betas=(PI / 2, PI / 2, PI / 4, PI / 3))


def canonical_config(eps=1 / 168):
    return calibrate_classical(eps, betas=max_payoff_phases(0.0),
                               assignment="canonical")


# --- initial state ---------------------------------------------------------

def test_initial_state_is_ghz_projector():
    rho = make_initial_state(3)
    want = np.zeros((8, 8), dtype=complex)
    for i in (0, 7):
        for j in (0, 7):
            want[i, j] = 0.5
    assert np.array_equal(rho, want)
    assert np.trace(rho).real == 1.0
    assert np.abs(rho @ rho - rho).max() == 0    # pure


def test_initial_state_limits():
    assert make_initial_state(1).shape == (2, 2)
    with pytest.raises(ValueError):
        make_initial_state(0)
    with pytest.raises(SizeLimitError):
        make_initial_state(13)


def test_dense_reference_stops_at_max_qubits_before_allocating():
    """Both dense builders refuse a register above ``MAX_QUBITS``: twelve
    qubits would be a 4096 x 4096 complex matrix (256 MB)."""
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="register of 12 qubits"):
            make_initial_state(MAX_QUBITS + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    plan = SequencePlan(games=(), seed_count=0, total_qubits=MAX_QUBITS + 1)
    with pytest.raises(SizeLimitError, match="register of 12 qubits"):
        build_unitary(plan, fig1_config())


def test_evolve_shape_check():
    with pytest.raises(ValueError):
        evolve(np.eye(4, dtype=complex), np.eye(8, dtype=complex))


# --- payoff conventions ----------------------------------------------------

def crafted_rho(diagonal):
    return np.diag(np.asarray(diagonal, dtype=complex))


def test_payoff_all_total_counts_every_qubit():
    plan = parse_sequence("AAB")       # 3 qubits, no seeds
    rho = crafted_rho([0.0] * 7 + [1.0])     # |111>
    rep = payoff_report(rho, plan, PayoffConvention("all", "total"))
    assert rep.payoff == pytest.approx(3.0)
    rho = crafted_rho([1.0] + [0.0] * 7)     # |000>
    rep = payoff_report(rho, plan, PayoffConvention("all", "total"))
    assert rep.payoff == pytest.approx(-3.0)


def test_payoff_mixture_and_per_qubit_vector():
    plan = parse_sequence("AAB")
    # half |101>, half |010>
    diag = [0.0] * 8
    diag[0b101] = 0.5
    diag[0b010] = 0.5
    rep = payoff_report(crafted_rho(diag), plan)
    assert rep.payoff == pytest.approx(0.0)
    assert rep.per_qubit == pytest.approx((0.0, 0.0, 0.0))
    diag = [0.0] * 8
    diag[0b110] = 1.0
    rep = payoff_report(crafted_rho(diag), plan)
    assert rep.per_qubit == pytest.approx((1.0, 1.0, -1.0))
    assert rep.payoff == pytest.approx(1.0)


def test_payoff_results_mask_skips_seeds():
    plan = parse_sequence("B")         # seeds on qubits 0,1; result on 2
    diag = [0.0] * 8
    diag[0b001] = 1.0                  # seeds lose, result wins
    rep = payoff_report(crafted_rho(diag), plan,
                        PayoffConvention("results", "total"))
    assert rep.payoff == pytest.approx(1.0)
    rep = payoff_report(crafted_rho(diag), plan,
                        PayoffConvention("all", "total"))
    assert rep.payoff == pytest.approx(-1.0)   # -1 -1 +1


def test_payoff_normalizations():
    plan = parse_sequence("B")
    diag = [0.0] * 8
    diag[0b111] = 1.0
    for name, want in [("all-total", 3.0), ("all-pergame", 3.0),
                       ("all-perqubit", 1.0), ("results-total", 1.0),
                       ("results-pergame", 1.0), ("results-perqubit", 1 / 3)]:
        rep = payoff_report(crafted_rho(diag), plan, CONVENTION_NAMES[name])
        assert rep.payoff == pytest.approx(want), name


def test_score_adds_rows_in_plain_sum_order():
    rng = np.random.default_rng(93)
    rows = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-17, 3, (40, 6))
    rows[0] = -0.0                       # sum() turns this total into +0.0
    for sequence in ("B", "AAB", "BAB^2"):
        plan = parse_sequence(sequence)
        width = rows[:, :plan.total_qubits]
        for convention in CONVENTION_NAMES.values():
            first = 0 if convention.mask == "all" else plan.seed_count
            scale = {"total": 1, "per_game": len(plan.games),
                     "per_qubit": plan.total_qubits}[convention.normalization]
            want = [sum(row[first:]) / scale for row in width.tolist()]
            got = _score(width, plan, convention).tolist()
            assert got == want
            assert [math.copysign(1, x) for x in got] == \
                [math.copysign(1, x) for x in want]


def test_payoff_convention_validation():
    with pytest.raises(ValueError):
        PayoffConvention("some", "total")
    with pytest.raises(ValueError):
        PayoffConvention("all", "mean")
    assert PayoffConvention("all", "per_game").name == "all-pergame"


def test_payoff_report_is_plain_data():
    cfg, noise = fig1_config(), NoiseSpec("dp", 0.3)
    rep = play("AAB", cfg, noise)
    assert isinstance(rep, PayoffReport)
    assert isinstance(rep.per_qubit, tuple)
    assert len(rep.per_qubit) == 3
    assert all(-1.0 <= v <= 1.0 for v in rep.per_qubit)
    rho = evolve(apply_channel(make_initial_state(3), noise),
                 build_unitary(parse_sequence("AAB"), cfg))
    assert np.trace(rho).real == pytest.approx(1.0)


# --- full pipeline against frozen references -------------------------------

# Payoffs computed with an independent straight-line implementation
# (explicit Kronecker products, enumerated channel operators).
FIG1_AD_REFERENCE = {
    0.0: -2.272879192253405e-02,
    0.25: -1.109887395048137e-02,
    0.5: -1.202692785890302e-03,
    0.75: +6.726556196758327e-03,
    1.0: +1.198270975056726e-02,
}


def test_play_amplitude_damping_reference_values():
    cfg = fig1_config()
    for p, want in FIG1_AD_REFERENCE.items():
        got = play("AAB", cfg, NoiseSpec("ad", p)).payoff
        assert got == pytest.approx(want, abs=1e-12), f"p={p}"


def test_play_dp_pd_reference_values():
    cfg = fig1_config()
    assert play("AAB", cfg, NoiseSpec("dp", 0.5)).payoff == pytest.approx(
        -3.138718037935806e-03, abs=1e-12)
    assert play("AAB", cfg, NoiseSpec("pd", 0.5)).payoff == pytest.approx(
        -9.575000042126636e-03, abs=1e-12)


def test_play_chain_reference_values():
    got = play("BBB", canonical_config(), NoiseSpec("none", 0.0),
               PER_QUBIT).payoff
    assert got == pytest.approx(1.689047619047619e-02, abs=1e-12)
    got = play("BBB", canonical_config(), NoiseSpec("ad", 0.5),
               PER_QUBIT).payoff
    assert got == pytest.approx(-1.887011337868481e-01, abs=1e-12)
    got = play("B", canonical_config(), NoiseSpec("ad", 0.25),
               PER_QUBIT).payoff
    assert got == pytest.approx(-4.161706349206351e-02, abs=1e-12)


def test_play_single_b_pd_is_one_fifteenth():
    for eps in (1 / 168, 1 / 112):
        for p in (0.0, 0.3, 0.9):
            got = play("B", canonical_config(eps), NoiseSpec("pd", p),
                       PER_QUBIT).payoff
            assert got == pytest.approx(1 / 15, abs=1e-12)


def test_play_identity_coins_zero_payoff():
    from parrondoq.coins import CoinParams, GameConfig
    zero = CoinParams(0.0, 0.0, 0.0)
    cfg = GameConfig(0.0, zero, (zero,) * 4)
    for seq in ("AAB", "B", "BB"):
        assert play(seq, cfg, NoiseSpec("none", 0.0)).payoff == pytest.approx(
            0.0, abs=1e-14)


def test_play_unknown_channel_at_p0_all_agree():
    cfg = fig1_config()
    base = play("AAB", cfg, NoiseSpec("none", 0.0)).payoff
    for kind in ("ad", "dp", "pd"):
        assert play("AAB", cfg, NoiseSpec(kind, 0.0)).payoff == base


# --- window sweep against the dense reference ------------------------------

def dense_reports(sequence, cfg, noise):
    """Every convention's report from the dense stages: GHZ matrix, channel,
    compiled unitary, diagonal."""
    plan = parse_sequence(sequence)
    rho = apply_channel(make_initial_state(plan.total_qubits), noise)
    rho = evolve(rho, build_unitary(plan, cfg))
    return {name: payoff_report(rho, plan, conv)
            for name, conv in CONVENTION_NAMES.items()}


def random_coin(rng):
    return CoinParams(float(rng.uniform(-PI, PI)),
                      float(rng.uniform(0.0, 2 * PI)),
                      float(rng.uniform(0.0, 2 * PI)))


def random_cases(seed, count, max_qubits=9):
    """(sequence, config, noise) triples: random A/B strings of at most
    ``max_qubits`` qubits, seeds included, random coins, channel and p."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        games = int(rng.integers(1, max_qubits + 1))
        sequence = "".join(rng.choice(("A", "B"), size=games))
        if parse_sequence(sequence).total_qubits > max_qubits:
            continue
        cfg = GameConfig(0.0, random_coin(rng),
                         tuple(random_coin(rng) for _ in range(4)))
        noise = NoiseSpec(str(rng.choice(KINDS)), float(rng.uniform()))
        cases.append((sequence, cfg, noise))
    return cases


def test_window_sweep_matches_dense_pipeline():
    cases = random_cases(20261018, 40)
    plans = [parse_sequence(seq) for seq, _, _ in cases]
    assert {plan.seed_count for plan in plans} == {0, 1, 2}
    assert max(plan.total_qubits for plan in plans) == 9
    assert {noise.kind for _, _, noise in cases} == set(KINDS)
    # and the full 11-qubit register
    rng = np.random.default_rng(11)
    cases.append(("B^9", GameConfig(0.0, random_coin(rng),
                                    tuple(random_coin(rng) for _ in range(4))),
                  NoiseSpec("dp", float(rng.uniform()))))
    for sequence, cfg, noise in cases:
        dense = dense_reports(sequence, cfg, noise)
        for name, conv in CONVENTION_NAMES.items():
            rep = play(sequence, cfg, noise, conv)
            want = dense[name]
            where = f"{sequence} {noise} {name}"
            assert abs(rep.payoff - want.payoff) <= 1e-12, where
            assert len(rep.per_qubit) == len(want.per_qubit), where
            for got, ref in zip(rep.per_qubit, want.per_qubit):
                assert abs(got - ref) <= 1e-12, where
                assert -1.0 <= got <= 1.0, where


def random_point(rng):
    """A random (config, noise) point: fully random coins, or calibrated
    coins under either probability order, on any channel at random p."""
    kind = int(rng.integers(3))
    if kind == 2:
        cfg = GameConfig(0.0, random_coin(rng),
                         tuple(random_coin(rng) for _ in range(4)))
    else:
        cfg = calibrate_classical(
            float(rng.uniform(0.0, 0.1)),
            gamma=float(rng.uniform(0.0, 2 * PI)),
            delta=float(rng.uniform(0.0, 2 * PI)),
            betas=tuple(float(b) for b in rng.uniform(0.0, 2 * PI, 4)),
            assignment=("printed", "canonical")[kind])
    return cfg, NoiseSpec(str(rng.choice(KINDS)), float(rng.uniform()))


def test_play_many_batch_matches_dense_pipeline():
    """Every entry of one mixed batch equals its own dense computation, so
    no entry leaks into another."""
    rng = np.random.default_rng(5150)
    points = [random_point(rng) for _ in range(24)]
    assert {noise.kind for _, noise in points} == set(KINDS)
    for sequence in ("AAB", "BAB", "(AB)^2B"):
        dense = [dense_reports(sequence, cfg, noise) for cfg, noise in points]
        for name, conv in CONVENTION_NAMES.items():
            reports = play_many(sequence, points, conv)
            assert len(reports) == len(points)
            for (cfg, noise), rep, want in zip(points, reports, dense):
                where = f"{sequence} {noise} {name}"
                assert abs(rep.payoff - want[name].payoff) <= 1e-12, where
                for got, ref in zip(rep.per_qubit, want[name].per_qubit,
                                    strict=True):
                    assert abs(got - ref) <= 1e-12, where


def test_play_many_equals_per_point_plays_exactly():
    """A batch returns bit for bit what its points give one at a time, so
    grouping points into one sweep (as verify's checks do) moves no
    residual. The batch mixes all four channels, both chain eps values,
    both probability orders and random phases."""
    rng = np.random.default_rng(2009)
    points = []
    for eps in (1 / 168, 1 / 112):
        for assignment in ("printed", "canonical"):
            for kind in KINDS:
                cfg = calibrate_classical(
                    eps, gamma=float(rng.uniform(0.0, 2 * PI)),
                    delta=float(rng.uniform(0.0, 2 * PI)),
                    alphas=tuple(float(a) for a in rng.uniform(0, 2 * PI, 4)),
                    betas=tuple(float(b) for b in rng.uniform(0, 2 * PI, 4)),
                    assignment=assignment)
                points.append((cfg, NoiseSpec(kind, float(rng.uniform()))))
    points = [points[i] for i in rng.permutation(len(points))]
    for sequence in ("B", "BBB", "AAB", "(AAB)^2"):
        for name, conv in CONVENTION_NAMES.items():
            want = [play(sequence, cfg, noise, conv) for cfg, noise in points]
            assert play_many(sequence, points, conv) == want, \
                f"{sequence} {name}"


def test_play_arrays_is_play_many_on_angle_and_corner_arrays():
    rng = np.random.default_rng(8)
    cfg = fig1_config()
    kinds = [str(k) for k in rng.choice(KINDS, 9)]
    ps = rng.uniform(0.0, 1.0, 9)
    points = [(cfg, NoiseSpec(k, float(p))) for k, p in zip(kinds, ps)]
    angles = np.array([[(c.theta, c.gamma, c.delta)
                        for c in (cfg.coin_a, *cfg.coin_b)]] * 9)
    payoffs, per_qubit = play_arrays("ABAB", angles, corner_stack(kinds, ps),
                                     PER_QUBIT)
    reports = play_many("ABAB", points, PER_QUBIT)
    assert payoffs.tolist() == [r.payoff for r in reports]
    assert [tuple(row) for row in per_qubit.tolist()] == \
        [r.per_qubit for r in reports]
    # one angle row stands for that row at every point, bit for bit
    one = play_arrays("ABAB", angles[:1], corner_stack(kinds, ps), PER_QUBIT)
    assert np.array_equal(one[0], payoffs)
    assert np.array_equal(one[1], per_qubit)


def test_play_many_edge_cases():
    cfg, noise = fig1_config(), NoiseSpec("dp", 0.3)
    assert play_many("AAB", []) == []
    assert play_many("AAB", [(cfg, noise)]) == [play("AAB", cfg, noise)]
    with pytest.raises(SizeLimitError):
        play_many("B^12", [(cfg, noise)])


# --- convention search -----------------------------------------------------

def test_calibrate_convention_reports_failure_with_table():
    with pytest.raises(CalibrationError) as err:
        calibrate_convention()
    table = err.value.residuals
    assert len(table) == 4            # the direct candidate space
    for cell, rows in table.items():
        assert set(rows) == {"B:ad", "B:dp", "B:pd", "BB:ad", "BB:dp",
                             "BB:pd", "BBB:ad", "BBB:dp", "BBB:pd"}, cell
        assert min(rows.values()) > 1e-6, cell    # every row misses


def test_discover_convention_pins_unique_cell():
    finding = discover_convention()
    assert finding.assignment == "canonical"
    assert finding.convention == PER_QUBIT
    winner = finding.residuals["canonical/all-perqubit"]
    assert winner["B:ad"] < 1e-9
    assert winner["B:pd"] < 1e-9
    assert winner["BB:ad"] < 1e-9
    assert winner["BBB:pd"] < 5e-3
    # and the direct-space cells all miss
    assert finding.residuals["printed/all-total"]["B:pd"] > 1e-3


def test_engine_is_simulation_only():
    """The engine compares no payoff with a closed form: it imports neither
    ``oracle`` nor ``verify``, and the convention searches live in
    ``verify``."""
    tree = ast.parse(pathlib.Path(engine.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
    assert not imported & {"oracle", "verify"}
    for name in ("calibrate_convention", "discover_convention",
                 "CalibrationError", "ConventionFinding"):
        assert not hasattr(engine, name), name
