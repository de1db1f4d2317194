"""Coin operators and game-sequence compilation.

Game A is an SU(2) coin on one qubit. Game B is an 8x8 block-diagonal
operator on (history2, history1, target): the two history qubits select one
of four sub-coins. A sequence string such as ``"AAB"`` or ``"B^3"`` compiles
to a plan over a single register in which every game writes one fresh result
qubit and every B reads the two most recently written results; sequences that
open with B get the missing history prepended as seed qubits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_DIM, SizeLimitError, embed, identity

TAU = 2 * math.pi

#: Largest register any sequence may use (dimension 2^11; one kron with a
#: 2x2 factor stays within MAX_DIM).
MAX_QUBITS = 11


class ParseError(ValueError):
    """Malformed sequence text. ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class CoinParams:
    """One SU(2) coin: rotation theta, phases gamma and delta."""
    theta: float
    gamma: float
    delta: float

    def __post_init__(self):
        if not -math.pi <= self.theta <= math.pi:
            raise ValueError(f"theta {self.theta} outside [-pi, pi]")
        for name in ("gamma", "delta"):
            v = getattr(self, name)
            if not 0.0 <= v <= TAU:
                raise ValueError(f"{name} {v} outside [0, 2pi]")


@dataclass(frozen=True)
class GameConfig:
    """Full parameter set: the A coin plus B's four history sub-coins."""
    epsilon: float
    coin_a: CoinParams
    coin_b: tuple[CoinParams, CoinParams, CoinParams, CoinParams]


@dataclass(frozen=True)
class GameStep:
    kind: str                      # "A" or "B"
    target: int                    # result qubit this game writes
    history: tuple[int, int] | None  # (older, newer) result qubits, B only


@dataclass(frozen=True)
class SequencePlan:
    games: tuple[GameStep, ...]
    seed_count: int
    total_qubits: int


def coin_matrices(theta, gamma, delta) -> np.ndarray:
    """SU(2) coins for array (or scalar) angles, shape ``(..., 2, 2)``:
    rows/cols ordered |0>, |1>, winning amplitude sin(theta)."""
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


def block_coins(subs: np.ndarray) -> np.ndarray:
    """B coins ``(..., 8, 8)`` from sub-coin stacks ``(..., 4, 2, 2)``:
    block diagonal, history bits 00,01,10,11 select sub-coin 1..4."""
    b = np.zeros(subs.shape[:-3] + (8, 8), dtype=np.complex128)
    for i in range(4):
        b[..., 2 * i:2 * i + 2, 2 * i:2 * i + 2] = subs[..., i, :, :]
    return b


def make_coin_a(params: CoinParams) -> np.ndarray:
    """2x2 coin: the one-coin case of ``coin_matrices``."""
    return coin_matrices(params.theta, params.gamma, params.delta)


def make_coin_b(params: tuple[CoinParams, ...]) -> np.ndarray:
    """8x8 block diagonal: history bits 00,01,10,11 select sub-coin 1..4."""
    if len(params) != 4:
        raise ValueError("game B takes exactly four sub-coins")
    angles = np.array([(s.theta, s.gamma, s.delta) for s in params])
    return block_coins(coin_matrices(*angles.T))


def calibrate_classical(
    epsilon: float,
    *,
    gamma: float = 0.0,
    delta: float = 0.0,
    alphas: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
    betas: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
    assignment: str = "printed",
) -> GameConfig:
    """Rotation angles from the classical winning probabilities.

    sin^2 of each rotation equals the corresponding biased-coin probability:
    1/2 - eps for game A and (7/10, 1/4, 1/4, 9/10) - eps for B's sub-coins
    in history order 00,01,10,11. ``assignment="canonical"`` reverses the
    B list (history 00 gets the 9/10 coin), the ordering of the classical
    history-dependent game; the built-in chain reference values are
    reproduced only under this assignment (see discover_convention).
    """
    if not 0.0 <= epsilon <= 0.1:
        raise ValueError(f"epsilon {epsilon} outside [0, 0.1]")
    if assignment not in ("printed", "canonical"):
        raise ValueError(f"unknown assignment {assignment!r}")
    probs = [0.7 - epsilon, 0.25 - epsilon, 0.25 - epsilon, 0.9 - epsilon]
    if assignment == "canonical":
        probs.reverse()
    theta = math.asin(math.sqrt(0.5 - epsilon))
    subs = tuple(
        CoinParams(math.asin(math.sqrt(q)), a, b)
        for q, a, b in zip(probs, alphas, betas)
    )
    return GameConfig(epsilon, CoinParams(theta, gamma, delta), subs)


def max_payoff_phases(delta: float) -> tuple[float, float, float, float]:
    """Sub-coin phases that maximize the undecohered AAB payoff,
    normalized into [0, 2pi)."""
    b14 = (-2.0 * delta) % TAU
    b23 = (math.pi - 2.0 * delta) % TAU
    return (b14, b23, b23, b14)


def parse_sequence(text: str) -> SequencePlan:
    """Parse a sequence like ``"AAB"``, ``"B^3"`` or ``"(AAB)^2"``.

    Grammar: seq := unit+ ; unit := 'A' | 'B' | ('A'|'B'|'('seq')') '^' int.
    Raises ParseError (with offset) on malformed text and SizeLimitError if
    the expanded register would exceed MAX_QUBITS.
    """
    pos = 0

    def parse_int() -> int:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected integer after '^'", start)
        value = int(text[start:pos])
        if value < 1:
            raise ParseError("exponent must be >= 1", start)
        return value

    def parse_seq(depth: int) -> tuple:
        """Returns (expanded length, offset of the first B or None, expanded
        text); the text is None once the length exceeds MAX_QUBITS, so no
        oversized string is ever built."""
        nonlocal pos
        length, first_b, parts = 0, None, []
        while pos < len(text):
            ch = text[pos]
            if ch in "AB":
                pos += 1
                unit = (1, 0 if ch == "B" else None, ch)
            elif ch == "(":
                open_at = pos
                pos += 1
                unit = parse_seq(depth + 1)
                if pos >= len(text) or text[pos] != ")":
                    raise ParseError("unclosed '('", open_at)
                pos += 1
                if not unit[0]:
                    raise ParseError("empty group", open_at)
            elif ch == ")":
                if depth == 0:
                    raise ParseError("unmatched ')'", pos)
                break
            else:
                raise ParseError(f"unexpected character {ch!r}", pos)
            size, unit_b, unit_text = unit
            if pos < len(text) and text[pos] == "^":
                pos += 1
                times = parse_int()
                size *= times
                unit_text = unit_text * times if size <= MAX_QUBITS else None
            if first_b is None and unit_b is not None:
                first_b = length + unit_b
            length += size
            if length > MAX_QUBITS:
                parts = None
            else:
                parts.append(unit_text)
        return length, first_b, None if parts is None else "".join(parts)

    length, first_b, flat = parse_seq(0)
    if not length:
        raise ParseError("empty sequence", 0)

    seeds = 0 if first_b is None else max(0, 2 - first_b)
    total = seeds + length
    if total > MAX_QUBITS:
        raise SizeLimitError(
            f"sequence needs {total} qubits, limit is {MAX_QUBITS}")

    games = []
    for k, kind in enumerate(flat):
        target = seeds + k
        history = (target - 2, target - 1) if kind == "B" else None
        games.append(GameStep(kind, target, history))
    return SequencePlan(tuple(games), seeds, total)


def build_unitary(plan: SequencePlan, cfg: GameConfig) -> np.ndarray:
    """Compile a plan to one register unitary (earliest game applied first)."""
    n = plan.total_qubits
    if 2 ** n > MAX_DIM // 2:
        raise SizeLimitError(f"register of {n} qubits exceeds limit")
    a = make_coin_a(cfg.coin_a)
    b = make_coin_b(cfg.coin_b)
    u = identity(2 ** n)
    for step in plan.games:
        if step.kind == "A":
            factor = embed(a, step.target, n)
        else:
            factor = embed(b, step.history[0], n)
        u = factor @ u
    return u
