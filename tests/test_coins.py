import math
import tracemalloc

import numpy as np
import pytest

from parrondoq.coins import (CoinParams, ParseError, build_unitary,
                             calibrate_classical, make_coin_a, make_coin_b,
                             max_payoff_phases, parse_sequence)
from parrondoq.linalg import SizeLimitError, identity, kron, max_abs

PI = math.pi


# --- coin operators -------------------------------------------------------

def test_coin_a_zero_angles_is_identity():
    assert max_abs(make_coin_a(CoinParams(0.0, 0.0, 0.0)) - identity(2)) == 0


def test_coin_a_matrix_entries():
    th, g, d = 0.3, 0.7, 1.9
    a = make_coin_a(CoinParams(th, g, d))
    assert a[0, 0] == pytest.approx(np.exp(-1j * (g + d) / 2) * math.cos(th))
    assert a[0, 1] == pytest.approx(-np.exp(-1j * (g - d) / 2) * math.sin(th))
    assert a[1, 0] == pytest.approx(np.exp(1j * (g - d) / 2) * math.sin(th))
    assert a[1, 1] == pytest.approx(np.exp(1j * (g + d) / 2) * math.cos(th))


def test_coin_a_unitary_and_special():
    a = make_coin_a(CoinParams(-1.1, 2.2, 3.3))
    assert max_abs(a @ a.conj().T - identity(2)) < 1e-15
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
        assert max_abs(block - make_coin_a(sub)) == 0
    off = b.copy()
    for i in range(4):
        off[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 0
    assert max_abs(off) == 0


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
    cfg = calibrate_classical(0.0, gamma=0.5, delta=1.5,
                              alphas=(0.1, 0.2, 0.3, 0.4),
                              betas=(1.0, 2.0, 3.0, 4.0))
    assert cfg.coin_a.gamma == 0.5 and cfg.coin_a.delta == 1.5
    assert [c.gamma for c in cfg.coin_b] == [0.1, 0.2, 0.3, 0.4]
    assert [c.delta for c in cfg.coin_b] == [1.0, 2.0, 3.0, 4.0]


def test_calibrate_validates_epsilon_and_assignment():
    with pytest.raises(ValueError):
        calibrate_classical(0.2)
    with pytest.raises(ValueError):
        calibrate_classical(-0.01)
    with pytest.raises(ValueError):
        calibrate_classical(0.0, assignment="other")


def test_max_payoff_phases():
    d = PI / 5
    b1, b2, b3, b4 = max_payoff_phases(d)
    assert b1 == b4 and b2 == b3
    assert b1 == pytest.approx((-2 * d) % (2 * PI))
    assert b2 == pytest.approx((PI - 2 * d) % (2 * PI))
    # all normalized into [0, 2pi)
    for v in max_payoff_phases(5.9):
        assert 0.0 <= v < 2 * PI


# --- sequence parsing -----------------------------------------------------

def test_parse_simple_sequences():
    plan = parse_sequence("AAB")
    assert plan.seed_count == 0
    assert plan.total_qubits == 3
    assert [g.kind for g in plan.games] == ["A", "A", "B"]
    assert plan.games[2].target == 2
    assert plan.games[2].history == (0, 1)
    assert plan.games[0].history is None


def test_parse_leading_b_gets_seeds():
    plan = parse_sequence("B")
    assert plan.seed_count == 2
    assert plan.total_qubits == 3
    assert plan.games[0].target == 2
    assert plan.games[0].history == (0, 1)

    plan = parse_sequence("AB")
    assert plan.seed_count == 1
    assert plan.total_qubits == 3
    assert plan.games[0].target == 1     # A lands after the seed
    assert plan.games[1].history == (0, 1)


def test_parse_exponents_and_groups():
    assert parse_sequence("B^3").total_qubits == 5
    plan = parse_sequence("(AAB)^2")
    assert plan.total_qubits == 6
    assert [g.kind for g in plan.games] == list("AABAAB")
    assert plan.games[5].history == (3, 4)
    nested = parse_sequence("((AB)^2)^2")
    assert [g.kind for g in nested.games] == list("ABABABAB")


def test_parse_history_always_two_most_recent():
    plan = parse_sequence("AB^2")
    assert plan.seed_count == 1
    assert plan.games[1].history == (0, 1)
    assert plan.games[2].history == (1, 2)


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("AXB", 1),
    ("A^", 2),
    ("A^0", 2),
    ("(AB", 0),
    ("AB)", 2),
    ("()", 0),
    ("A^x", 2),
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


# --- compiled unitaries ---------------------------------------------------

def _cfg():
    return calibrate_classical(1 / 168, delta=PI / 5,
                               betas=(PI / 2, PI / 2, PI / 4, PI / 3))


def test_build_unitary_single_games():
    cfg = _cfg()
    a = make_coin_a(cfg.coin_a)
    b = make_coin_b(cfg.coin_b)
    assert max_abs(build_unitary(parse_sequence("A"), cfg) - a) == 0
    assert max_abs(build_unitary(parse_sequence("B"), cfg) - b) == 0


def test_build_unitary_matches_literal_products():
    cfg = _cfg()
    a = make_coin_a(cfg.coin_a)
    b = make_coin_b(cfg.coin_b)
    id2 = identity(2)
    # AAB: A on qubit 0, A on qubit 1, then B across all three.
    want = b @ kron(id2, a, id2) @ kron(a, id2, id2)
    got = build_unitary(parse_sequence("AAB"), cfg)
    assert max_abs(got - want) < 1e-13
    # BB on four qubits: second B slides one qubit down.
    want = kron(id2, b) @ kron(b, id2)
    got = build_unitary(parse_sequence("BB"), cfg)
    assert max_abs(got - want) < 1e-13


def test_build_unitary_is_unitary():
    cfg = _cfg()
    u = build_unitary(parse_sequence("(AAB)^2"), cfg)
    assert max_abs(u @ u.conj().T - identity(64)) < 1e-12


def test_build_unitary_order_matters():
    # games are applied earliest-first: AB != BA on the same register
    cfg = _cfg()
    plan_ab = parse_sequence("AB")
    u_ab = build_unitary(plan_ab, cfg)
    a = make_coin_a(cfg.coin_a)
    b = make_coin_b(cfg.coin_b)
    id2 = identity(2)
    assert max_abs(u_ab - b @ kron(id2, a, id2)) < 1e-13
    assert max_abs(u_ab - kron(id2, a, id2) @ b) > 1e-3
