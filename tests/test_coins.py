import math
import random
import tracemalloc

import numpy as np
import pytest

from parrondoq import coins
from parrondoq.coins import (CoinParams, GameConfig, ParseError,
                             SequencePlan, SizeLimitError, block_coins,
                             calibrate_classical, coin_angles, coin_matrices,
                             embed, make_coin_a, make_coin_b,
                             max_payoff_phases, parse_sequence)
from parrondoq.engine import play_arrays
from parrondoq.noise import corner_stack
from parrondoq.reference import build_unitary

PI = math.pi


# --- coin operators -------------------------------------------------------

def test_coin_a_zero_angles_is_identity():
    assert np.array_equal(make_coin_a(CoinParams(0.0, 0.0, 0.0)), np.eye(2))


def test_coin_a_matrix_entries():
    th, g, d = 0.3, 0.7, 1.9
    a = make_coin_a(CoinParams(th, g, d))
    assert a[0, 0] == pytest.approx(np.exp(-1j * (g + d) / 2) * math.cos(th))
    assert a[0, 1] == pytest.approx(-np.exp(-1j * (g - d) / 2) * math.sin(th))
    assert a[1, 0] == pytest.approx(np.exp(1j * (g - d) / 2) * math.sin(th))
    assert a[1, 1] == pytest.approx(np.exp(1j * (g + d) / 2) * math.cos(th))


def test_coin_a_unitary_and_special():
    a = make_coin_a(CoinParams(-1.1, 2.2, 3.3))
    assert np.abs(a @ a.conj().T - np.eye(2)).max() < 1e-15
    assert np.linalg.det(a) == pytest.approx(1.0)   # SU(2)


def test_coin_a_win_probability_is_sin_squared():
    # from |0>, the winning amplitude is the |1><0| entry
    th = math.asin(math.sqrt(0.7))
    a = make_coin_a(CoinParams(th, 0.4, 0.9))
    assert abs(a[1, 0]) ** 2 == pytest.approx(0.7)


def test_coin_params_validation():
    with pytest.raises(ValueError):
        CoinParams(4.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        CoinParams(0.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        CoinParams(0.0, 0.0, 7.0)


def test_coin_b_block_diagonal_layout():
    subs = tuple(CoinParams(0.1 * (i + 1), 0.2, 0.3) for i in range(4))
    b = make_coin_b(subs)
    assert b.shape == (8, 8)
    for i, sub in enumerate(subs):
        block = b[2 * i:2 * i + 2, 2 * i:2 * i + 2]
        assert np.abs(block - make_coin_a(sub)).max() == 0
    off = b.copy()
    for i in range(4):
        off[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 0
    assert np.abs(off).max() == 0


def test_coin_stacks_equal_one_coin_builds():
    rng = np.random.default_rng(3)
    subs = [[CoinParams(float(rng.uniform(-PI, PI)),
                        float(rng.uniform(0, 2 * PI)),
                        float(rng.uniform(0, 2 * PI))) for _ in range(4)]
            for _ in range(5)]
    angles = np.array([[(c.theta, c.gamma, c.delta) for c in row]
                       for row in subs])
    stack = coin_matrices(angles[..., 0], angles[..., 1], angles[..., 2])
    assert stack.shape == (5, 4, 2, 2)
    blocks = block_coins(stack)
    assert blocks.shape == (5, 8, 8)
    for g, row in enumerate(subs):
        for i, coin in enumerate(row):
            assert np.array_equal(stack[g, i], make_coin_a(coin))
        assert np.array_equal(blocks[g], make_coin_b(tuple(row)))


def _four_exponential_coins(theta, gamma, delta):
    """The coin formula written entry by entry, one exponential each."""
    th, g, d = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                   np.asarray(gamma, dtype=float),
                                   np.asarray(delta, dtype=float))
    cos, sin = np.cos(th), np.sin(th)
    coins = np.empty(th.shape + (2, 2), dtype=np.complex128)
    coins[..., 0, 0] = np.exp(-1j * (g + d) / 2) * cos
    coins[..., 0, 1] = -np.exp(-1j * (g - d) / 2) * sin
    coins[..., 1, 0] = np.exp(1j * (g - d) / 2) * sin
    coins[..., 1, 1] = np.exp(1j * (g + d) / 2) * cos
    return coins


def test_coin_matrices_equal_four_exponential_formula_bit_for_bit():
    rng = np.random.default_rng(19)
    cases = [(0.3, 0.7, 1.9), (0.0, 0.0, 0.0), (-PI, 2 * PI, 0.0)]
    for shape in ((5,), (7, 4)):
        cases.append((rng.uniform(-PI, PI, shape),
                      rng.uniform(0, 2 * PI, shape),
                      rng.uniform(0, 2 * PI, shape)))
    # one theta broadcast against arrays of phases, and theta = 0 rows
    cases.append((0.4, rng.uniform(0, 2 * PI, (7, 4)),
                  rng.uniform(0, 2 * PI, (7, 4))))
    cases.append((np.zeros(5), rng.uniform(0, 2 * PI, 5), 1.0))
    for theta, gamma, delta in cases:
        want = _four_exponential_coins(theta, gamma, delta)
        got = coin_matrices(theta, gamma, delta)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_coin_b_needs_four_subs():
    with pytest.raises(ValueError):
        make_coin_b((CoinParams(0, 0, 0),) * 3)


# --- calibration ----------------------------------------------------------

def test_calibrate_printed_order():
    eps = 1 / 168
    cfg = calibrate_classical(eps)
    assert math.sin(cfg.coin_a.theta) ** 2 == pytest.approx(0.5 - eps)
    want = [0.7 - eps, 0.25 - eps, 0.25 - eps, 0.9 - eps]
    got = [math.sin(c.theta) ** 2 for c in cfg.coin_b]
    assert got == pytest.approx(want)


def test_calibrate_canonical_reverses_b_list():
    eps = 1 / 112
    cfg = calibrate_classical(eps, assignment="canonical")
    got = [math.sin(c.theta) ** 2 for c in cfg.coin_b]
    assert got == pytest.approx([0.9 - eps, 0.25 - eps, 0.25 - eps,
                                 0.7 - eps])


def test_calibrate_passes_phases_through():
    cfg = calibrate_classical(0.0, delta=1.5, betas=(1.0, 2.0, 3.0, 4.0))
    assert cfg.coin_a.gamma == 0.0 and cfg.coin_a.delta == 1.5
    assert [c.gamma for c in cfg.coin_b] == [0.0] * 4
    assert [c.delta for c in cfg.coin_b] == [1.0, 2.0, 3.0, 4.0]


def test_calibrate_validates_epsilon_and_assignment():
    with pytest.raises(ValueError):
        calibrate_classical(0.2)
    with pytest.raises(ValueError):
        calibrate_classical(-0.01)
    with pytest.raises(ValueError):
        calibrate_classical(0.0, assignment="other")


def random_knobs(rng, count):
    """``count`` points of in-range calibration knobs drawn from ``rng``."""
    return dict(epsilon=rng.uniform(0.0, 0.1, count),
                delta=rng.uniform(0.0, 2 * PI, count),
                betas=tuple(rng.uniform(0.0, 2 * PI, (4, count))))


@pytest.mark.parametrize("assignment", ["printed", "canonical"])
def test_coin_angles_equal_calibrate_classical(assignment):
    rng = np.random.default_rng(168)
    knobs = random_knobs(rng, 200)
    angles = coin_angles(**knobs, assignment=assignment)
    assert angles.shape == (200, 5, 3)
    for g, row in enumerate(angles):
        cfg = calibrate_classical(
            float(knobs["epsilon"][g]), delta=float(knobs["delta"][g]),
            betas=tuple(float(b[g]) for b in knobs["betas"]),
            assignment=assignment)
        want = [[c.theta, c.gamma, c.delta]
                for c in (cfg.coin_a, *cfg.coin_b)]
        assert row.tolist() == want
    # scalar knobs broadcast against arrays; all-scalar is one point
    mixed = coin_angles(0.05, delta=knobs["delta"][:3], assignment=assignment)
    assert mixed.shape == (3, 5, 3)
    assert coin_angles(0.05, assignment=assignment).shape == (1, 5, 3)


def test_calibration_thetas_are_libm_values():
    eps = 0.0371
    cfg = calibrate_classical(eps)
    assert cfg.coin_a.theta == math.asin(math.sqrt(0.5 - eps))
    assert [c.theta for c in cfg.coin_b] == [
        math.asin(math.sqrt(q))
        for q in (0.7 - eps, 0.25 - eps, 0.25 - eps, 0.9 - eps)]


#: (id, knobs, message). Each id is fixed text, so restating a message
#: does not rename its case; the ids are the names the cases had when
#: pytest derived them from the messages.
OUT_OF_RANGE = [
    ("knobs0-epsilon 0.2 outside [0, 0.1]",
     dict(epsilon=0.2), "epsilon 0.2 outside [0, 0.1]"),
    ("knobs1-epsilon -0.01 outside [0, 0.1]",
     dict(epsilon=-0.01), "epsilon -0.01 outside [0, 0.1]"),
    ("knobs2-epsilon nan outside [0, 0.1]",
     dict(epsilon=float("nan")), "epsilon nan outside [0, 0.1]"),
    ("knobs4-delta -1.0 outside [0, 2pi]",
     dict(delta=-1.0), "delta -1.0 outside [0, 2pi]"),
    ("knobs6-beta2 -0.5 outside [0, 2pi]",
     dict(betas=(0.0, -0.5, 0.0, 0.0)), "beta2 -0.5 outside [0, 2pi]"),
    ("knobs7-unknown assignment 'other'",
     dict(assignment="other"), "unknown assignment 'other'"),
    # one point's checks run in calibration order: epsilon, assignment,
    # the sub-coins' betas in turn, then coin A's delta
    ("knobs8-epsilon 0.5 outside [0, 0.1]",
     dict(epsilon=0.5, assignment="other"), "epsilon 0.5 outside [0, 0.1]"),
    ("knobs9-beta4 8.0 outside [0, 2pi]",
     dict(delta=7.0, betas=(0.0, 0.0, 0.0, 8.0)),
     "beta4 8.0 outside [0, 2pi]"),
    ("knobs10-beta1 9.5 outside [0, 2pi]",
     dict(delta=9.0, betas=(9.5, 0.0, 0.0, 0.0)),
     "beta1 9.5 outside [0, 2pi]"),
]


@pytest.mark.parametrize("knobs,message", [row[1:] for row in OUT_OF_RANGE],
                         ids=[row[0] for row in OUT_OF_RANGE])
def test_coin_angles_and_calibration_refuse_alike(knobs, message):
    knobs = dict(knobs)
    epsilon = knobs.pop("epsilon", 0.0)
    with pytest.raises(ValueError) as scalar:
        calibrate_classical(epsilon, **knobs)
    with pytest.raises(ValueError) as batch:
        coin_angles(epsilon, **knobs)
    assert str(scalar.value) == str(batch.value) == message


@pytest.mark.parametrize("knobs,message", [row[1:] for row in OUT_OF_RANGE],
                         ids=[row[0] for row in OUT_OF_RANGE])
def test_calibration_memo_keeps_no_errors(knobs, message, monkeypatch):
    """Configs are memoized, errors never: every call calibrates and
    raises afresh."""
    knobs = dict(knobs)
    epsilon = knobs.pop("epsilon", 0.0)
    calls = []

    def counted(*args):
        calls.append(args)
        return coin_angles(*args)
    monkeypatch.setattr(coins, "coin_angles", counted)
    for attempt in range(1, 4):
        with pytest.raises(ValueError) as err:
            calibrate_classical(epsilon, **knobs)
        assert str(err.value) == message
        assert len(calls) == attempt


def test_calibration_memo_stays_bounded():
    # twice as many distinct knob sets as the memo keeps
    epsilons = np.linspace(0.0, 0.1, 2 * coins._CONFIG_MEMO_SIZE).tolist()
    for eps in epsilons:
        assert calibrate_classical(eps) == coins._calibrate(
            eps, 0.0, (0.0,) * 4, "printed")
    info = coins._calibrated.cache_info()
    assert info.maxsize == coins._CONFIG_MEMO_SIZE
    assert info.currsize <= coins._CONFIG_MEMO_SIZE
    # a replayed knob set is the kept config itself
    assert calibrate_classical(epsilons[-1]) is calibrate_classical(
        epsilons[-1])


def test_calibration_memo_tells_equal_knobs_apart():
    """1 == 1.0 and 0.0 == -0.0, but a config keeps epsilon's type and
    each phase's sign of zero, so a memoized call is never replayed for an
    equal knob set of other types or signs. repr shows both."""
    calibrate_classical(0.0, delta=0.0)
    cfg = calibrate_classical(-0.0, delta=-0.0)
    assert math.copysign(1.0, cfg.epsilon) == -1.0
    assert math.copysign(1.0, cfg.coin_a.delta) == -1.0
    assert repr(cfg) == repr(coins._calibrate(-0.0, -0.0, (0.0,) * 4,
                                              "printed"))
    betas = (0.0, -0.0, 0.0, -0.0)
    calibrate_classical(0.0, betas=(0.0,) * 4)
    got = calibrate_classical(0.0, betas=betas)
    assert [math.copysign(1.0, c.delta) for c in got.coin_b] == [
        1.0, -1.0, 1.0, -1.0]
    calibrate_classical(0.0)
    assert type(calibrate_classical(0).epsilon) is int
    assert repr(calibrate_classical(0, delta=1, betas=(1, 2, 3, 4))) == repr(
        coins._calibrate(0, 1, (1, 2, 3, 4), "printed"))


def test_calibration_of_other_knob_types_equals_a_fresh_call():
    """numpy scalars, 0-d arrays (which do not hash) and a list of betas
    skip the memo, even after the plain knobs of the same values were
    memoized."""
    plain = calibrate_classical(0.01, delta=0.5, betas=(0.1, 0.2, 0.3, 0.4))
    for epsilon, delta, betas in (
            (np.float64(0.01), 0.5, (0.1, 0.2, 0.3, 0.4)),
            (np.array(0.01), 0.5, (0.1, 0.2, 0.3, 0.4)),
            (0.01, np.float64(0.5), (0.1, 0.2, 0.3, 0.4)),
            (0.01, 0.5, (0.1, np.float64(0.2), 0.3, 0.4)),
            (0.01, 0.5, [0.1, 0.2, 0.3, 0.4])):
        got = calibrate_classical(epsilon, delta=delta, betas=betas)
        fresh = coins._calibrate(epsilon, delta, betas, "printed")
        assert got == fresh == plain
        assert repr(got) == repr(fresh)
        assert type(got.epsilon) is type(epsilon)


def test_coin_angles_need_four_sub_coins():
    with pytest.raises(ValueError, match="exactly four sub-coins"):
        coin_angles(0.0, betas=(0.0,) * 3)
    with pytest.raises(ValueError, match="exactly four sub-coins"):
        calibrate_classical(0.0, betas=(0.0,) * 5)


def test_coin_angles_name_the_first_bad_point():
    with pytest.raises(ValueError, match=r"^epsilon 0\.3 outside"):
        coin_angles(np.array([0.0, 0.05, 0.3, 0.4]))
    # point 1 fails on its delta before point 2 on its beta1
    with pytest.raises(ValueError, match=r"^delta 7\.0 outside"):
        coin_angles(0.0, delta=np.array([0.0, 7.0, 0.0]),
                    betas=(np.array([0.0, 0.0, 8.0]), 0.0, 0.0, 0.0))
    # epsilon is checked at every point before any phase at any point
    with pytest.raises(ValueError, match=r"^epsilon 0\.5 outside"):
        coin_angles(np.array([0.05, 0.5]), delta=7.0)


def test_max_payoff_phases():
    d = PI / 5
    b1, b2, b3, b4 = max_payoff_phases(d)
    assert b1 == b4 and b2 == b3
    assert b1 == pytest.approx((-2 * d) % (2 * PI))
    assert b2 == pytest.approx((PI - 2 * d) % (2 * PI))
    # all normalized into [0, 2pi)
    for v in max_payoff_phases(5.9):
        assert 0.0 <= v < 2 * PI


def test_max_payoff_phases_is_the_maximum():
    """No random (delta, beta1..beta4) point beats the family
    ``max_payoff_phases(delta)`` on AAB, and the family pays the same at
    every delta: undecohered, and under each channel at p = 0.5. One batch
    plays every point on every channel."""
    rng = np.random.default_rng(1314)
    count = 4096
    delta = rng.uniform(0.0, 2 * PI, count)
    betas = rng.uniform(0.0, 2 * PI, (4, count))
    family = np.array([max_payoff_phases(d) for d in delta.tolist()]).T
    angles = coin_angles(1 / 168, delta=np.tile(delta, 2),
                         betas=tuple(np.concatenate([betas, family], axis=1)))
    channels = corner_stack(["none", "ad", "dp", "pd"], [0.0, 0.5, 0.5, 0.5])
    corners = np.tile(channels, (len(angles), 1, 1, 1))
    payoffs = play_arrays("AAB", angles, corners)[0].reshape(2, count, 4)
    random_, best = payoffs
    assert np.ptp(best, axis=0).max() <= 1e-12
    assert (random_ - best).max() <= 1e-12


def test_no_coordinate_maximum_beats_max_payoff_phases():
    """At seeded (delta, beta1..beta4) points, random ones and points of
    the family ``max_payoff_phases(delta)`` itself, the exact maximum of
    the AAB payoff over any one phase, the other four held, stays within
    1e-12 of the family at the point's delta: undecohered, and under each
    channel at p = 0.5. At a family point this holds the family to a
    maximum along every phase.

    Each beta enters with harmonic degree 1 and delta with degree 2 alone,
    so 3 or 5 equally spaced samples give the payoff a + b cos + c sin of
    that harmonic, whose maximum is a + sqrt(b^2 + c^2). One more sample,
    off the grid, holds the degree at 1e-12, and delta's first harmonic is
    held to 0. One batch plays every point."""
    rng = np.random.default_rng(1313)
    count = 64
    base = rng.uniform(0.0, 2 * PI, (count, 5))        # delta, beta1..beta4
    base[count // 2:, 1:] = [max_payoff_phases(d)
                             for d in base[count // 2:, 0]]
    degrees = (2, 1, 1, 1, 1)
    blocks = []
    for coord, degree in enumerate(degrees):
        grid = 2 * PI * np.arange(2 * degree + 1) / (2 * degree + 1)
        block = np.repeat(base[:, None, :], len(grid) + 1, axis=1)
        block[:, :-1, coord] = grid
        block[:, -1, coord] = rng.uniform(0.0, 2 * PI, count)
        blocks.append(block)
    family = np.array([(d, *max_payoff_phases(d)) for d in base[:, 0]])
    phases = np.concatenate(blocks + [family[:, None, :]], axis=1)
    flat = phases.reshape(-1, 5)
    angles = coin_angles(1 / 168, delta=flat[:, 0], betas=tuple(flat[:, 1:].T))
    channels = corner_stack(["none", "ad", "dp", "pd"], [0.0, 0.5, 0.5, 0.5])
    corners = np.tile(channels, (len(angles), 1, 1, 1))
    payoffs = play_arrays("AAB", angles, corners)[0].reshape(
        count, phases.shape[1], 4)
    best = payoffs[:, -1]
    widths = [block.shape[1] for block in blocks]
    played = np.split(payoffs[:, :-1], np.cumsum(widths)[:-1], axis=1)
    for coord, (degree, block, sampled) in enumerate(
            zip(degrees, blocks, played)):
        harmonics = np.fft.fft(sampled[:, :-1], axis=1) / (2 * degree + 1)
        mean, top = harmonics[:, 0].real, harmonics[:, degree]
        assert np.abs(harmonics[:, 1:degree]).max(initial=0.0) <= 1e-12
        off_grid = mean + 2 * (top * np.exp(1j * degree
                                            * block[:, -1, coord, None])).real
        assert np.abs(off_grid - sampled[:, -1]).max() <= 1e-12
        assert (mean + 2 * np.abs(top) - best).max() <= 1e-12


# --- sequence parsing -----------------------------------------------------

def test_parse_simple_sequences():
    plan = parse_sequence("AAB")
    assert (plan.games, plan.seed_count, plan.total_qubits) == ("AAB", 0, 3)


def test_parse_leading_b_gets_seeds():
    plan = parse_sequence("B")
    assert (plan.games, plan.seed_count, plan.total_qubits) == ("B", 2, 3)
    # the A lands on qubit 1, after the one seed
    plan = parse_sequence("AB")
    assert (plan.games, plan.seed_count, plan.total_qubits) == ("AB", 1, 3)


def test_parse_exponents_and_groups():
    plan = parse_sequence("B^3")
    assert (plan.games, plan.seed_count, plan.total_qubits) == ("BBB", 2, 5)
    plan = parse_sequence("(AAB)^2")
    assert (plan.games, plan.total_qubits) == ("AABAAB", 6)
    assert parse_sequence("((AB)^2)^2").games == "ABABABAB"


def test_parse_history_always_two_most_recent():
    plan = parse_sequence("AB^2")
    assert (plan.games, plan.seed_count, plan.total_qubits) == ("ABB", 1, 4)


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("AXB", 1),
    ("A^", 2),
    ("A^0", 2),
    ("(AB", 0),
    ("AB)", 2),
    ("()", 0),
    ("A^x", 2),
    ("A^\u00b2", 2),            # a digit int() refuses: not an exponent
])
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse_sequence(text)
    assert err.value.offset == offset


def test_parse_register_size_limit():
    assert parse_sequence("A^11").total_qubits == 11
    with pytest.raises(SizeLimitError):
        parse_sequence("A^12")
    with pytest.raises(SizeLimitError):
        parse_sequence("B^10")       # 10 games + 2 seeds


def test_parse_memo_keeps_no_errors():
    """Plans are memoized, errors never: every call raises afresh."""
    for _ in range(3):
        with pytest.raises(ParseError) as err:
            parse_sequence("AA(B")
        assert err.value.offset == 2
        with pytest.raises(SizeLimitError):
            parse_sequence("B^12")


def test_parse_memo_stays_bounded():
    # twice as many distinct texts as the memo keeps, all "A^1"
    texts = ["A^" + "0" * zeros + "1"
             for zeros in range(2 * coins._PLAN_MEMO_SIZE)]
    for text in texts:
        assert parse_sequence(text) == SequencePlan("A", 0)
    info = coins._parse_plan.cache_info()
    assert info.maxsize == coins._PLAN_MEMO_SIZE
    assert info.currsize <= coins._PLAN_MEMO_SIZE
    # a replayed text is the kept plan itself
    assert parse_sequence(texts[-1]) is parse_sequence(texts[-1])


def test_parse_counts_oversized_sequences_without_expanding():
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError,
                           match="sequence needs 1000000 qubits, limit is 11"):
            parse_sequence("((A^100)^100)^100")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # seeds still count once the expansion is too long to build
    with pytest.raises(SizeLimitError, match="needs 14 qubits"):
        parse_sequence("(B^3)^4")


def test_parse_error_beats_size_limit():
    with pytest.raises(ParseError) as err:
        parse_sequence("(A^100)^100X")
    assert err.value.offset == 11


def test_parse_deep_nesting_is_a_parse_error():
    # past the recursion limit, not a RecursionError
    text = "(" * 1000 + "A" + ")" * 1000
    with pytest.raises(ParseError, match="nested too deeply") as err:
        parse_sequence(text)
    assert text[err.value.offset] == "("
    assert parse_sequence("(" * 100 + "A" + ")" * 100).total_qubits == 1


def test_parse_overlong_exponent_is_a_size_limit():
    # longer than int() converts (4300 digits), so never converted whole
    with pytest.raises(SizeLimitError,
                       match="exponent at offset 2 is too large"):
        parse_sequence("A^" + "9" * 5000)
    with pytest.raises(ParseError) as err:
        parse_sequence("A^" + "9" * 5000 + "X")
    assert err.value.offset == 5002
    assert parse_sequence("A^" + "0" * 5000 + "5").total_qubits == 5
    # a count of 999999999^500, far past what int formats, saturates
    with pytest.raises(SizeLimitError, match="needs more than 999999999 "
                                             "qubits, limit is 11"):
        parse_sequence("(" * 500 + "A" + ")^999999999" * 500)


def _random_unit(rng, depth):
    """A random sequence unit as (text, expansion): an A or B leaf or a
    group of 1-3 units, nested at most three deep, raised to 1-4."""
    if depth == 3 or rng.random() < 0.5:
        text = expansion = rng.choice("AB")
    else:
        units = [_random_unit(rng, depth + 1)
                 for _ in range(rng.randint(1, 3))]
        text = "(" + "".join(t for t, _ in units) + ")"
        expansion = "".join(e for _, e in units)
    times = rng.randint(1, 4)
    if times > 1 or rng.random() < 0.5:
        text += f"^{times}"
    return text, expansion * times


def test_parse_matches_expansion_on_random_trees():
    rng = random.Random(15)
    seen = set()
    for _ in range(400):
        units = [_random_unit(rng, 1) for _ in range(rng.randint(1, 3))]
        text = "".join(t for t, _ in units)
        games = "".join(e for _, e in units)
        first_b = games.find("B")
        seeds = max(0, 2 - first_b) if first_b >= 0 else 0
        total = seeds + len(games)
        seen.add((seeds, total <= coins.MAX_QUBITS))
        if total > coins.MAX_QUBITS:
            with pytest.raises(SizeLimitError,
                               match=f"^sequence needs {total} qubits"):
                parse_sequence(text)
            continue
        plan = parse_sequence(text)
        assert (plan.games, plan.seed_count, plan.total_qubits) == (
            games, seeds, total), text
    assert seen == {(s, fits) for s in (0, 1, 2) for fits in (True, False)}


# --- compiled unitaries ---------------------------------------------------

def _cfg():
    return calibrate_classical(1 / 168, delta=PI / 5,
                               betas=(PI / 2, PI / 2, PI / 4, PI / 3))


def test_build_unitary_single_games():
    cfg = _cfg()
    a = make_coin_a(cfg.coin_a)
    b = make_coin_b(cfg.coin_b)
    assert np.abs(build_unitary(parse_sequence("A"), cfg) - a).max() == 0
    assert np.abs(build_unitary(parse_sequence("B"), cfg) - b).max() == 0


def test_build_unitary_matches_literal_products():
    cfg = _cfg()
    a = make_coin_a(cfg.coin_a)
    b = make_coin_b(cfg.coin_b)
    # AAB: A on qubit 0, A on qubit 1, then B across all three.
    want = b @ embed(a, 1, 3) @ embed(a, 0, 3)
    got = build_unitary(parse_sequence("AAB"), cfg)
    assert np.abs(got - want).max() < 1e-13
    # BB on four qubits: second B slides one qubit down.
    want = embed(b, 1, 4) @ embed(b, 0, 4)
    got = build_unitary(parse_sequence("BB"), cfg)
    assert np.abs(got - want).max() < 1e-13


def test_build_unitary_is_unitary():
    cfg = _cfg()
    u = build_unitary(parse_sequence("(AAB)^2"), cfg)
    assert np.abs(u @ u.conj().T - np.eye(64)).max() < 1e-12


def test_build_unitary_order_matters():
    # games are applied earliest-first: AB != BA on the same register
    cfg = _cfg()
    plan_ab = parse_sequence("AB")
    u_ab = build_unitary(plan_ab, cfg)
    a = make_coin_a(cfg.coin_a)
    b = make_coin_b(cfg.coin_b)
    assert np.abs(u_ab - b @ embed(a, 1, 3)).max() < 1e-13
    assert np.abs(u_ab - embed(a, 1, 3) @ b).max() > 1e-3


@pytest.mark.parametrize("sequence", ["B^9", "A^11"])
def test_build_unitary_holds_no_scratch_register(sequence):
    """Each game grows U by one tensor product: at 11 qubits the peak is
    the returned matrix plus the previous U (1.25x its size), with no
    zero-filled scratch register of the grown size beside them."""
    plan = parse_sequence(sequence)
    cfg = _cfg()
    tracemalloc.start()
    try:
        u = build_unitary(plan, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert u.shape == (2 ** 11, 2 ** 11)
    assert peak <= 1.5 * u.nbytes


def random_coin(rng):
    return CoinParams(float(rng.uniform(-PI, PI)),
                      float(rng.uniform(0.0, 2 * PI)),
                      float(rng.uniform(0.0, 2 * PI)))


def test_build_unitary_matches_embed_products_on_random_plans():
    """Seeded random A/B sequences of up to 9 qubits, seeds included:
    the tensor-product compiler against the product of literal lifts."""
    rng = np.random.default_rng(20261018)
    seeds, sizes = set(), set()
    for _ in range(30):
        games = int(rng.integers(1, 10))
        sequence = "".join(rng.choice(("A", "B"), size=games))
        plan = parse_sequence(sequence)
        if plan.total_qubits > 9:
            continue
        seeds.add(plan.seed_count)
        sizes.add(plan.total_qubits)
        cfg = GameConfig(0.0, random_coin(rng),
                         tuple(random_coin(rng) for _ in range(4)))
        coins = {"A": make_coin_a(cfg.coin_a), "B": make_coin_b(cfg.coin_b)}
        n = plan.total_qubits
        want = np.eye(2 ** n)
        assert plan.games == sequence
        # an A acts on its target, a B on the two qubits before it and its
        # target
        for target, kind in enumerate(sequence, plan.seed_count):
            first = target if kind == "A" else target - 2
            want = embed(coins[kind], first, n) @ want
        got = build_unitary(plan, cfg)
        assert np.abs(got - want).max() <= 1e-13, sequence
    assert seeds == {0, 1, 2}
    assert 9 in sizes


# --- literal lifts --------------------------------------------------------

def test_embed_places_block():
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    assert np.array_equal(embed(x, 0, 2), np.kron(x, np.eye(2)))
    assert np.array_equal(embed(x, 1, 2), np.kron(np.eye(2), x))
    eight = embed(x, 1, 3)
    assert eight.dtype == np.complex128
    assert np.array_equal(eight, np.kron(np.kron(np.eye(2), x), np.eye(2)))


def test_embed_rejects_out_of_range():
    x = np.eye(4)
    with pytest.raises(ValueError):
        embed(x, 2, 3)          # would hang off the end
    with pytest.raises(ValueError):
        embed(x, -1, 3)


def test_embed_size_limit(monkeypatch):
    # the real cap is refused before anything is allocated
    with pytest.raises(SizeLimitError):
        embed(np.eye(2), 0, 13)
    # exactly MAX_QUBITS is allowed, shown at a small cap
    monkeypatch.setattr(coins, "MAX_QUBITS", 4)
    assert embed(np.eye(2), 0, 4).shape[0] == 2 ** 4
    with pytest.raises(SizeLimitError):
        embed(np.eye(2), 0, 5)
