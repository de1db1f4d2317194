"""Coin operators and game-sequence compilation.

Game A is an SU(2) coin on one qubit. Game B is an 8x8 block-diagonal
operator on (history2, history1, target): the two history qubits select one
of four sub-coins. A sequence string such as ``"AAB"`` or ``"B^3"`` parses
to a ``SequencePlan``: its expanded game string and the number of seed
qubits before it. Those two values fix the register: every game writes one
fresh result qubit and every B reads the two most recently written results,
so a sequence that opens with B gets the missing history as seed qubits.
``coin_angles`` is the calibration rule over arrays of knobs, and
``coin_matrices`` the coin formula over arrays of angles;
``calibrate_classical``, ``make_coin_a`` and ``make_coin_b`` are their
one-point cases. ``parse_sequence`` keeps the plans of its last 128 texts
behind the plain function. The one register cap, ``MAX_QUBITS``, and its
``SizeLimitError`` live here, and so does ``_qubit_count``, the one rule
for the qubits of a matrix a caller passes in. ``embed`` is a coin's
literal Kronecker lift to a whole register; the tests and ``verify`` hold
the tensor-product compiler ``reference.build_unitary`` to products of
such lifts.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TAU = 2 * math.pi

#: Largest register any sequence, dense state or lifted operator may use.
MAX_QUBITS = 11


class SizeLimitError(Exception):
    """An operation would exceed the supported register size."""


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
class SequencePlan:
    """An expanded game string and the seed qubits before it. Game i writes
    qubit ``seed_count + i``; a B reads the two qubits just before its
    own."""
    games: str                     # "A"/"B" per game, in play order
    seed_count: int

    @property
    def total_qubits(self) -> int:
        return self.seed_count + len(self.games)


#: Signs of gamma and delta in the entries' half-phases
#: [-(g+d), -(g-d), g-d, g+d] / 2, and the entries' cos and sin weights
#: [cos, -sin, sin, cos], entries ordered 00, 01, 10, 11.
_GAMMA_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])
_DELTA_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0])
_COS_WEIGHTS = np.array([1.0, 0.0, 0.0, 1.0])
_SIN_WEIGHTS = np.array([0.0, -1.0, 1.0, 0.0])


def coin_matrices(theta, gamma, delta) -> np.ndarray:
    """SU(2) coins for array (or scalar) angles, shape ``(..., 2, 2)``:
    rows/cols ordered |0>, |1>, winning amplitude sin(theta). The four
    entries are one exponential of the half-phase sums
    [-(g+d), -(g-d), g-d, g+d] / 2, stacked by broadcasting against sign
    vectors, scaled by [cos, -sin, sin, cos]."""
    th, g, d = (np.asarray(angle, dtype=float)[..., None]
                for angle in (theta, gamma, delta))
    coins = (np.exp(1j * ((g * _GAMMA_SIGNS + d * _DELTA_SIGNS) / 2))
             * (np.cos(th) * _COS_WEIGHTS + np.sin(th) * _SIN_WEIGHTS))
    return coins.reshape(coins.shape[:-1] + (2, 2))


def make_coin_a(params: CoinParams) -> np.ndarray:
    """2x2 coin: the one-coin case of ``coin_matrices``."""
    return coin_matrices(params.theta, params.gamma, params.delta)


def make_coin_b(params: tuple[CoinParams, ...]) -> np.ndarray:
    """8x8 block diagonal: history bits 00,01,10,11 select sub-coin 1..4."""
    if len(params) != 4:
        raise ValueError("game B takes exactly four sub-coins")
    angles = np.array([(s.theta, s.gamma, s.delta) for s in params])
    b = np.zeros((8, 8), dtype=np.complex128)
    for i, sub in enumerate(coin_matrices(*angles.T)):
        b[2 * i:2 * i + 2, 2 * i:2 * i + 2] = sub
    return b


def _refuse_outside(fields, high: float, interval: str) -> None:
    """Raise for the first point, and at it the first ``(name, values)``
    field, whose value lies outside [0, high]. Values are scalars or arrays
    over points; a scalar is reported as given."""
    given = [value for _, value in fields]
    flat = np.concatenate([np.ravel(v) for v in given]).astype(float)
    if ((0.0 <= flat) & (flat <= high)).all():
        return
    arrays = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                   for v in given))
    bad = np.array([~((0.0 <= a) & (a <= high)) for a in arrays])
    at = int(bad.any(axis=0).argmax())
    field = int(bad[:, at].argmax())
    value = (given[field] if np.ndim(given[field]) == 0
             else float(arrays[field][at]))
    raise ValueError(f"{fields[field][0]} {value} outside {interval}")


def _asin_sqrt(q: np.ndarray) -> np.ndarray:
    """asin(sqrt(q)) entry by entry through ``math``: numpy's vectorized
    arcsin can differ from libm in the last bit, and every rotation angle
    has always come from libm."""
    return np.array([math.asin(math.sqrt(x)) for x in q.ravel().tolist()]
                    ).reshape(q.shape)


def coin_angles(epsilon, delta=0.0, betas=(0.0,) * 4,
                assignment: str = "printed") -> np.ndarray:
    """Rotation angles from the classical winning probabilities, for G
    points at once: shape ``(G, 5, 3)``, the (theta, gamma, delta) of coin
    A and then of B's sub-coins in history order 00,01,10,11. Every gamma
    is 0; README, "The model", says why.

    Every knob is a scalar or an array of G values (``betas`` holds four
    of either: the sub-coins' deltas). sin^2 of each rotation equals the
    corresponding biased-coin probability: 1/2 - eps for game A and
    (7/10, 1/4, 1/4, 9/10) - eps for B's sub-coins.
    ``assignment="canonical"`` reverses the B list (history 00 gets the
    9/10 coin), the ordering of the classical history-dependent game; the
    built-in chain reference values are reproduced only under this
    assignment (``verify``'s ``convention_search`` and
    ``convention_discovery`` checks).

    Raises ValueError for the first point's epsilon outside [0, 0.1], then
    an unknown assignment or other than four betas, then the first point's
    first phase outside [0, 2pi]: all epsilons come first. Errors name
    sub-coin N's phase ``betaN``, N = 1..4 in history order, and coin A's
    ``delta``, and check them in that order.
    """
    _refuse_outside([("epsilon", epsilon)], 0.1, "[0, 0.1]")
    if assignment not in ("printed", "canonical"):
        raise ValueError(f"unknown assignment {assignment!r}")
    if len(betas) != 4:
        raise ValueError("game B takes exactly four sub-coins")
    _refuse_outside([*((f"beta{i}", beta) for i, beta in enumerate(betas, 1)),
                     ("delta", delta)], TAU, "[0, 2pi]")
    eps = np.asarray(epsilon, dtype=float)
    probs = [0.7 - eps, 0.25 - eps, 0.25 - eps, 0.9 - eps]
    if assignment == "canonical":
        probs.reverse()
    thetas = _asin_sqrt(np.array([0.5 - eps] + probs))
    columns = [v for theta, phase in zip(thetas, (delta, *betas))
               for v in (theta, 0.0, phase)]
    angles = np.empty(np.broadcast_shapes(*map(np.shape, columns)) + (15,))
    for i, column in enumerate(columns):
        angles[..., i] = column
    return angles.reshape(-1, 5, 3)


def calibrate_classical(
    epsilon: float,
    *,
    delta: float = 0.0,
    betas: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
    assignment: str = "printed",
) -> GameConfig:
    """The one-point case of ``coin_angles``, as validated coins."""
    angles = coin_angles(epsilon, delta, betas, assignment)
    coin_a, *subs = (CoinParams(*row) for row in angles[0].tolist())
    return GameConfig(epsilon, coin_a, tuple(subs))


def max_payoff_phases(delta: float) -> tuple[float, float, float, float]:
    """Sub-coin phases that maximize the undecohered AAB payoff,
    normalized into [0, 2pi)."""
    b14 = (-2.0 * delta) % TAU
    b23 = (math.pi - 2.0 * delta) % TAU
    return (b14, b23, b23, b14)


def parse_sequence(text: str) -> SequencePlan:
    """Parse a sequence like ``"AAB"``, ``"B^3"`` or ``"(AAB)^2"``.

    Grammar: seq := unit+ ; unit := 'A' | 'B' | ('A'|'B'|'('seq')') '^' int.
    Raises ParseError (with offset) on malformed text, groups nested past
    the interpreter's recursion limit included, and SizeLimitError if the
    expanded register would exceed MAX_QUBITS.

    Plans are frozen, so the plans of the last ``_PLAN_MEMO_SIZE``
    distinct texts are kept and replayed; a text that raises is parsed
    again every time. The memo sits behind this plain function, so a
    tracer that wraps the module's functions still sees every call.
    """
    return _parse_plan(text)


#: Distinct sequence texts whose plans ``parse_sequence`` keeps.
_PLAN_MEMO_SIZE = 128


@functools.lru_cache(maxsize=_PLAN_MEMO_SIZE)
def _parse_plan(text: str) -> SequencePlan:
    """``parse_sequence``'s parse, memoized."""
    # Counts saturate at this bound and expansions keep their first `keep`
    # games: enough for every plan that fits, so nothing oversized is built.
    bound, keep = 10 ** 9, MAX_QUBITS + 1
    pos, long_exponent = 0, None      # offset of the first exponent >= bound

    def parse_int() -> int:
        nonlocal pos, long_exponent
        start, value = pos, 0
        while pos < len(text) and text[pos].isdecimal():
            # int() refuses strings of over 4300 digits
            value = min(10 * value + int(text[pos]), bound)
            pos += 1
        if pos == start:
            raise ParseError("expected integer after '^'", start)
        if value < 1:
            raise ParseError("exponent must be >= 1", start)
        if value == bound and long_exponent is None:
            long_exponent = start
        return value

    def parse_seq(depth: int) -> tuple[int, str]:
        """Returns (expanded game count, first ``keep`` expanded games)."""
        nonlocal pos
        count, games = 0, ""
        while pos < len(text):
            ch = text[pos]
            if ch in "AB":
                pos += 1
                size, unit = 1, ch
            elif ch == "(":
                open_at = pos
                pos += 1
                size, unit = parse_seq(depth + 1)
                if pos >= len(text) or text[pos] != ")":
                    raise ParseError("unclosed '('", open_at)
                pos += 1
                if not size:
                    raise ParseError("empty group", open_at)
            elif ch == ")":
                if depth == 0:
                    raise ParseError("unmatched ')'", pos)
                break
            else:
                raise ParseError(f"unexpected character {ch!r}", pos)
            if pos < len(text) and text[pos] == "^":
                pos += 1
                times = parse_int()
                size, unit = size * times, unit * min(times, keep)
            count, games = min(count + size, bound), (games + unit)[:keep]
        return count, games

    try:
        count, games = parse_seq(0)
    except RecursionError:
        raise ParseError("groups nested too deeply",
                         max(text.rfind("(", 0, pos), 0)) from None
    if not count:
        raise ParseError("empty sequence", 0)
    if long_exponent is not None:
        raise SizeLimitError(f"exponent at offset {long_exponent} is too "
                             f"large, limit is {MAX_QUBITS} qubits")
    if count == bound:
        raise SizeLimitError(f"sequence needs more than {bound - 1} qubits, "
                             f"limit is {MAX_QUBITS}")

    seeds = 2 - games[:2].index("B") if "B" in games[:2] else 0
    if seeds + count > MAX_QUBITS:
        raise SizeLimitError(f"sequence needs {seeds + count} qubits, "
                             f"limit is {MAX_QUBITS}")
    return SequencePlan(games, seeds)


def _qubit_count(matrix: np.ndarray) -> int:
    """The k of a square 2^k x 2^k matrix; a 1 x 1 matrix has no qubits.
    Raises ValueError for any other shape."""
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"matrix of shape {shape} is not square")
    dim = shape[0]
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def embed(op: np.ndarray, first_qubit: int, n_qubits: int) -> np.ndarray:
    """I (x) op (x) I: ``op`` lifted to an ``n_qubits`` register, acting on a
    contiguous block starting at ``first_qubit`` (qubit 0 = most
    significant). Raises ValueError unless ``op`` is a square 2^k x 2^k
    matrix that fits, and SizeLimitError above MAX_QUBITS."""
    k = _qubit_count(op)
    hi = n_qubits - first_qubit - k
    if first_qubit < 0 or hi < 0:
        raise ValueError(f"operator does not fit at qubit {first_qubit}")
    if n_qubits > MAX_QUBITS:
        raise SizeLimitError(
            f"register of {n_qubits} qubits exceeds limit {MAX_QUBITS}")
    lifted = np.kron(np.eye(2 ** first_qubit, dtype=np.complex128), op)
    return np.kron(lifted, np.eye(2 ** hi))
