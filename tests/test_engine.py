import ast
import math
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from parrondoq import engine
from parrondoq.coins import (MAX_QUBITS, CoinParams, GameConfig,
                             SequencePlan, SizeLimitError,
                             calibrate_classical, coin_angles,
                             coin_matrices, max_payoff_phases,
                             parse_sequence)
from parrondoq.engine import (CONVENTION_NAMES, PayoffConvention,
                              PayoffReport, _score, play, play_arrays,
                              play_many)
from parrondoq.noise import KINDS, NoiseSpec, corner_stack
from parrondoq.reference import (apply_channel, build_unitary, evolve,
                                 make_initial_state, payoff_report)

PI = math.pi
PER_QUBIT = PayoffConvention("all", "per_qubit")


def fig1_config():
    return calibrate_classical(1 / 168, delta=PI / 5,
                               betas=(PI / 2, PI / 2, PI / 4, PI / 3))


def canonical_config(eps=1 / 168):
    return calibrate_classical(eps, betas=max_payoff_phases(0.0),
                               assignment="canonical")


def with_gammas(cfg, gamma, alphas=(0.0,) * 4):
    """``cfg`` with coin A's gamma phase and B's sub-coin gamma phases (the
    alphas) set."""
    return replace(cfg, coin_a=replace(cfg.coin_a, gamma=gamma),
                   coin_b=tuple(replace(coin, gamma=alpha) for coin, alpha
                                in zip(cfg.coin_b, alphas)))


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
    plan = SequencePlan("A" * (MAX_QUBITS + 1), 0)
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
    # and the full 11-qubit register, B-only and A-only
    rng = np.random.default_rng(11)
    cases.append(("B^9", GameConfig(0.0, random_coin(rng),
                                    tuple(random_coin(rng) for _ in range(4))),
                  NoiseSpec("dp", float(rng.uniform()))))
    cases.append(("A^11", GameConfig(0.0, random_coin(rng),
                                     tuple(random_coin(rng) for _ in range(4))),
                  NoiseSpec("ad", float(rng.uniform()))))
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


def test_entry_factors_are_coin_sandwiched_corners():
    """The sweep's fused entry step multiplies by the diagonal of c E c^H
    for every coin of one stack; a stack of leading size 1 serves every
    point, as p-sweeps pass it."""
    rng = np.random.default_rng(1999)
    corners = corner_stack(list(rng.choice(KINDS, 6)), rng.uniform(0, 1, 6))
    for points, size in ((6, 4), (1, 4), (6, 1)):
        angles = rng.uniform(0.0, 2 * PI, (3, points, size))
        coins = coin_matrices(*angles)
        factors = engine._entry_factors(coins, corners)
        assert factors.shape == (6, 4, size, 2)
        for g, t, c in np.ndindex(6, 4, size):
            coin = coins[g % points, c]
            want = np.diag(coin @ corners[g, t] @ coin.conj().T)
            assert np.abs(factors[g, t, c] - want).max() <= 1e-15


@pytest.mark.parametrize("size", [1, 4])
def test_entry_factors_are_populations(size):
    """A coin sandwich of |0><0| or |1><1| is a state: its diagonal is real,
    nonnegative and sums to 1, at every p of every channel, p = 0 and p = 1
    included. Tr E(|0><1|) = 0, so the |0><1| diagonal sums to 0 and only
    the last readouts count it."""
    rng = np.random.default_rng([2020, size])
    kinds = [kind for kind in KINDS for _ in range(5)]
    ps = np.concatenate([[0.0, 1.0, *rng.uniform(0, 1, 3)]] * len(KINDS))
    corners = corner_stack(kinds, ps)[:, engine._CARRIED]
    coins = coin_matrices(*rng.uniform(-PI, 2 * PI, (3, len(kinds), size)))
    factors = engine._entry_factors(coins, corners)
    populations = factors[:, ::2]
    assert np.abs(populations.imag).max() <= 1e-15
    assert populations.real.min() >= -1e-15
    assert np.abs(populations.sum(axis=-1) - 1).max() <= 1e-15
    assert np.abs(factors[:, 1].sum(axis=-1)).max() <= 1e-15


@pytest.mark.parametrize("size", [1, 4])
def test_entry_factors_do_not_depend_on_the_batch(size):
    """Sweeps must equal point-by-point plays bit for bit, so a factor may
    not depend on which points share its batch: a size-1 coin stack gives
    exactly its coin repeated at every point, and a G-point batch exactly
    its points built one at a time."""
    rng = np.random.default_rng([2003, size])
    corners = corner_stack(list(rng.choice(KINDS, 7)),
                           rng.uniform(0, 1, 7))[:, engine._CARRIED]
    one = coin_matrices(*rng.uniform(0.0, 2 * PI, (3, 1, size)))
    shared = engine._entry_factors(one, corners)
    repeated = engine._entry_factors(np.repeat(one, 7, axis=0), corners)
    assert np.array_equal(shared, repeated)
    coins = coin_matrices(*rng.uniform(0.0, 2 * PI, (3, 7, size)))
    batch = engine._entry_factors(coins, corners)
    for g in range(7):
        alone = engine._entry_factors(coins[g:g + 1], corners[g:g + 1])
        assert np.array_equal(batch[g:g + 1], alone)
        assert np.array_equal(
            shared[g:g + 1], engine._entry_factors(one, corners[g:g + 1]))


@pytest.mark.parametrize("count", [1, 3, 64])
@pytest.mark.parametrize("shared", [True, False])
def test_one_factor_product_slices_are_the_per_kind_products(count, shared):
    """The sweep builds both games' factors in one product over the whole
    coin stack: its A and B slices must equal the products over the A coin
    and over B's sub-coins alone, bit for bit, at mixed channel kinds."""
    rng = np.random.default_rng([2030, count, shared])
    corners = corner_stack(list(rng.choice(KINDS, count)),
                           rng.uniform(0, 1, count))[:, engine._CARRIED]
    lead = 1 if shared else count
    coins = coin_matrices(*rng.uniform(-PI, 2 * PI, (3, lead, 5)))
    factors = engine._entry_factors(coins, corners)
    assert np.array_equal(factors[:, :, :1],
                          engine._entry_factors(coins[:, :1], corners))
    assert np.array_equal(factors[:, :, 1:],
                          engine._entry_factors(coins[:, 1:], corners))


@pytest.mark.parametrize("sequence", ["A", "AA", "AAB", "B^9"])
def test_a_sweep_makes_one_factor_product(sequence, monkeypatch):
    calls = []
    product = engine._entry_factors
    monkeypatch.setattr(engine, "_entry_factors",
                        lambda *args: calls.append(1) or product(*args))
    play_arrays(sequence, np.zeros((1, 5, 3)),
                corner_stack(["ad", "dp", "pd"], 0.3))
    assert len(calls) == 1


def test_plays_share_no_memory():
    """The sweep's seed is a read-only module constant that the first
    product broadcasts; no result may alias it, another module constant or
    another play's result, and a repeated play returns equal arrays."""
    constants = [value for value in vars(engine).values()
                 if isinstance(value, np.ndarray)]
    assert engine._SEED.shape == (1, 3, 1)
    assert all(not constant.flags.writeable for constant in constants)
    rng = np.random.default_rng(2031)
    angles = rng.uniform(-PI, 2 * PI, (1, 5, 3))
    corners = corner_stack(["ad", "dp", "pd", "none"], 0.4)
    for sequence in ("A", "AAB", "B^9"):
        first = play_arrays(sequence, angles, corners)
        second = play_arrays(sequence, angles, corners)
        for a, b in zip(first, second, strict=True):
            assert np.array_equal(a, b)
        results = [*first, *second]
        for i, result in enumerate(results):
            for other in results[i + 1:] + constants:
                assert not np.shares_memory(result, other), sequence


def random_point(rng):
    """A random (config, noise) point: fully random coins, or calibrated
    coins under either probability order, on any channel at random p."""
    kind = int(rng.integers(3))
    if kind == 2:
        cfg = GameConfig(0.0, random_coin(rng),
                         tuple(random_coin(rng) for _ in range(4)))
    else:
        eps = float(rng.uniform(0.0, 0.1))
        gamma = float(rng.uniform(0.0, 2 * PI))
        cfg = with_gammas(calibrate_classical(
            eps, delta=float(rng.uniform(0.0, 2 * PI)),
            betas=tuple(float(b) for b in rng.uniform(0.0, 2 * PI, 4)),
            assignment=("printed", "canonical")[kind]), gamma)
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
                gamma, delta = (float(rng.uniform(0.0, 2 * PI))
                                for _ in range(2))
                alphas = tuple(float(a) for a in rng.uniform(0, 2 * PI, 4))
                cfg = with_gammas(calibrate_classical(
                    eps, delta=delta,
                    betas=tuple(float(b) for b in rng.uniform(0, 2 * PI, 4)),
                    assignment=assignment), gamma, alphas)
                points.append((cfg, NoiseSpec(kind, float(rng.uniform()))))
    points = [points[i] for i in rng.permutation(len(points))]
    # A and AA are read out only as the sweep ends; B^9 fills the register
    # and has the most qubits read out before it is full
    for sequence in ("A", "AA", "B", "BBB", "AAB", "(AAB)^2", "B^9"):
        for name, conv in CONVENTION_NAMES.items():
            want = [play(sequence, cfg, noise, conv) for cfg, noise in points]
            assert play_many(sequence, points, conv) == want, \
                f"{sequence} {name}"


def test_no_expectation_depends_on_gamma_or_the_alphas():
    """gamma and the alphas are diagonal phases on the qubit a game writes,
    which later games only read as history, so they cancel from every
    per-qubit expectation: random ones give what zero ones give, on random
    plans up to the full register, on every channel, under both
    probability orders and every convention. This is why neither the CLI
    nor the calibration takes them: they are set here on calibrated
    coins."""
    rng = np.random.default_rng(2002)
    sequences = [seq for seq, _, _ in random_cases(314, 30)] + ["B^9", "A^11"]
    for sequence in sequences:
        phased, zero = [], []
        for assignment in ("printed", "canonical"):
            for kind in KINDS:
                eps = float(rng.uniform(0.0, 0.1))
                delta = float(rng.uniform(0.0, 2 * PI))
                betas = tuple(float(b) for b in rng.uniform(0, 2 * PI, 4))
                noise = NoiseSpec(kind, float(rng.uniform()))
                cfg = calibrate_classical(eps, delta=delta, betas=betas,
                                          assignment=assignment)
                phased.append((with_gammas(
                    cfg, float(rng.uniform(0.0, 2 * PI)),
                    tuple(float(a) for a in rng.uniform(0, 2 * PI, 4))),
                    noise))
                zero.append((cfg, noise))
        for name, conv in CONVENTION_NAMES.items():
            for got, want in zip(play_many(sequence, phased, conv),
                                 play_many(sequence, zero, conv),
                                 strict=True):
                assert np.abs(np.subtract(got.per_qubit, want.per_qubit)
                              ).max() <= 1e-14, f"{sequence} {name}"


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


@pytest.mark.parametrize("angles, corners", [
    ((1, 5, 4), (1, 4, 2, 2)),
    ((1, 4, 3), (1, 4, 2, 2)),
    ((1, 6, 3), (1, 4, 2, 2)),
    ((2, 5, 3), (3, 4, 2, 2)),
    ((1, 5, 3), (1, 3, 2, 2)),
    ((3, 5, 3), (4, 4, 2, 2)),
    ((0, 5, 3), (2, 4, 2, 2)),
])
def test_play_arrays_refuses_bad_shapes_naming_both(angles, corners,
                                                     monkeypatch):
    def no_work(*args):
        raise AssertionError("played before the shapes were checked")
    monkeypatch.setattr(engine, "parse_sequence", no_work)
    monkeypatch.setattr(engine, "coin_matrices", no_work)
    with pytest.raises(ValueError) as err:
        play_arrays("AAB", np.zeros(angles),
                    np.zeros(corners, dtype=np.complex128))
    assert str(angles) in str(err.value)
    assert str(corners) in str(err.value)


def test_shared_angle_sets_equal_repeated_angles_bit_for_bit():
    """A angle sets, set a serving the G/A consecutive points starting at
    a * G/A, play exactly as the same sets repeated to one per point: 1-11
    qubits, the four channels mixed in every batch, A in {1, 2, 3, 17}
    with up to four points a set, and one set for 200 or more points."""
    rng = np.random.default_rng(2121)
    sizes = []
    while len(sizes) < 200:
        games = "".join(rng.choice(("A", "B"), size=int(rng.integers(1, 12))))
        try:
            n = parse_sequence(games).total_qubits
        except SizeLimitError:
            continue
        if len(sizes) % 5:
            sets = int(rng.choice([1, 2, 3, 17]))
            count = sets * int(rng.integers(1, 5))
        else:
            sets, count = 1, int(rng.integers(200, 301))
        # every kind at every fourth point, in random order
        kinds = rng.permutation(np.resize(KINDS, count))
        corners = corner_stack([str(k) for k in kinds],
                               rng.uniform(0, 1, count))
        angles = rng.uniform(-PI, 2 * PI, (sets, 5, 3))
        conv = CONVENTION_NAMES[str(rng.choice(list(CONVENTION_NAMES)))]
        got = play_arrays(games, angles, corners, conv)
        want = play_arrays(games, np.repeat(angles, count // sets, axis=0),
                           corners, conv)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w), (games, sets, count)
        sizes.append(n)
    assert set(sizes) == set(range(1, MAX_QUBITS + 1))


def full_window_expectations(plan, coin_a, coin_b, corners):
    """The window sweep as it was before it carried only diagonals: every
    corner's whole window W'[(h, i), (h', j)] = W[h, h'] (c_h E c_h'^H)[i, j],
    built from the coins' full outer products, then traced."""
    corners = corners[:, engine._CARRIED]
    count = len(corners)
    factors = {None: corners[:, :, None, :, None, :]}
    for kind, coins in (("A", coin_a[:, None]), ("B", coin_b)):
        size = coins.shape[1]
        c = coins.transpose(0, 3, 1, 2)
        outer = (c[:, :, None, :, :, None, None]
                 * c.conj()[:, None, :, None, None, :, :])
        factors[kind] = (corners.reshape(count, 3, 4)
                         @ outer.reshape(-1, 4, 4 * size * size)
                         ).reshape(count, 3, size, 2, size, 2)
    n = plan.total_qubits
    steady = max(n - 3, 0)
    per_qubit = np.empty((count, n))
    window = np.full((count, 3, 1, 1), 0.5, dtype=np.complex128)
    diagonals = np.empty((steady, count, 2, 8), dtype=np.complex128)
    for q, kind in enumerate((None,) * plan.seed_count + tuple(plan.games)):
        d = window.shape[-1]
        window = window[:, :, :, None, :, None] * factors[kind]
        if 2 <= q < n - 1:
            diagonals[q - 2] = window.reshape(count, 3, 64)[:, ::2, ::9]
            w = window.reshape(count, 3, 2, 4, 2, 4)
            window = w[:, :, 0, :, 0] + w[:, :, 1, :, 1]
        else:
            window = window.reshape(count, 3, 2 * d, 2 * d)
    for column in range(steady, n):
        d = window.shape[-1] // 2
        w = window.reshape(count, 3, 2, d, 2, d)
        per_qubit[:, column] = np.einsum("gtiaia,i,t->g", w, engine._SCORE,
                                         engine._WEIGHTS).real
        window = w[:, :, 0, :, 0] + w[:, :, 1, :, 1]
    if steady:
        per_qubit[:, :steady] = np.einsum(
            "ngtia,i,t->gn", diagonals.reshape(steady, count, 2, 2, 4),
            engine._SCORE, engine._WEIGHTS[::2]).real
    return per_qubit


def test_window_sweep_equals_full_window_sweep_bit_for_bit():
    """Carrying only the diagonals does the same floating-point operations on
    them as the full windows did, so every payoff keeps its bits: 1-11
    qubits, both kinds of game, all four channels, 1, 3 and 64 points, coin
    stacks of leading size 1 and G."""
    rng = np.random.default_rng(2020)
    sizes = []
    while len(sizes) < 120:
        games = "".join(rng.choice(("A", "B"), size=int(rng.integers(1, 12))))
        try:
            plan = parse_sequence(games)
        except SizeLimitError:
            continue
        count = int(rng.choice([1, 3, 64]))
        lead = int(rng.choice([1, count]))
        corners = corner_stack(list(rng.choice(KINDS, count)),
                               rng.uniform(0, 1, count))
        coins = coin_matrices(*rng.uniform(-PI, 2 * PI, (3, lead, 5)))
        got = engine._window_expectations(plan, coins, corners)
        want = full_window_expectations(plan, coins[:, 0], coins[:, 1:],
                                        corners)
        assert np.array_equal(got, want), (plan, count, lead)
        sizes.append(plan.total_qubits)
    assert set(sizes) == set(range(1, MAX_QUBITS + 1))


@pytest.mark.parametrize("sequence", ["A", "AAB", "B^9"])
@pytest.mark.parametrize("lead", [0, 1])
def test_play_arrays_takes_an_empty_batch(sequence, lead):
    n = parse_sequence(sequence).total_qubits
    payoffs, per_qubit = play_arrays(sequence, np.zeros((lead, 5, 3)),
                                     np.zeros((0, 4, 2, 2), np.complex128))
    assert payoffs.shape == (0,)
    assert per_qubit.shape == (0, n)


def test_play_many_edge_cases():
    cfg, noise = fig1_config(), NoiseSpec("dp", 0.3)
    assert play_many("AAB", []) == []
    assert play_many("AAB", [(cfg, noise)]) == [play("AAB", cfg, noise)]
    # a one-shot iterable gives what the list of its points gives
    points = [(cfg, noise), (canonical_config(), NoiseSpec("ad", 0.5))]
    assert play_many("AAB", iter(points)) == play_many("AAB", points)
    with pytest.raises(SizeLimitError):
        play_many("B^12", [(cfg, noise)])


def test_engine_is_simulation_only():
    """The engine compares no payoff with a closed form: it imports neither
    ``oracle`` nor ``verify``, and the convention search lives in
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


@pytest.mark.parametrize("delta", [0.0, 0.7, PI / 2, 2.5])
def test_repeated_a_games_feel_only_amplitude_damping(delta):
    """Chains of two or more A games pay -2*eps*p on every qubit under
    amplitude damping and 0 under depolarizing and phase damping, at every
    delta; only a lone A keeps a delta-dependent coherent term."""
    eps, p = 0.05, 0.4
    cfg = calibrate_classical(eps, delta=delta, assignment="canonical")
    for seq in ("AA", "AAA", "AAAA"):
        for kind, want in (("ad", -2 * eps * p), ("dp", 0.0), ("pd", 0.0)):
            per_qubit = play(seq, cfg, NoiseSpec(kind, p)).per_qubit
            assert per_qubit == pytest.approx([want] * len(seq), abs=1e-12), \
                (seq, kind)
    # a hand-built plan past the parser's cap: the sweep itself has none
    angles = coin_angles(eps, delta=delta, assignment="canonical")
    coins = coin_matrices(*np.moveaxis(angles, -1, 0))
    per_qubit = engine._window_expectations(
        SequencePlan("A" * 40, 0), coins, corner_stack(["ad", "dp", "pd"], p))
    assert per_qubit.shape == (3, 40)
    assert np.abs(per_qubit - np.array([[-2 * eps * p], [0.0], [0.0]])
                  ).max() <= 1e-12
    lone = {0.0: 0.731, 0.7: 0.550, PI / 2: -0.040, 2.5: -0.658}[delta]
    assert play("A", cfg, NoiseSpec("ad", p)).payoff == pytest.approx(
        lone, abs=1e-3)
