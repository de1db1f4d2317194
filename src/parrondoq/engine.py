"""Game pipeline: entangled initial state -> channel -> games -> payoff.

The register starts in the n-qubit GHZ state. Decoherence acts once, before
any game is played. A basis state's score is the sum of +1 per |1> (win) and
-1 per |0> (loss) over the counted qubits, so the payoff is a sum of per-qubit
+-1 expectations under a configurable counting convention (``_score``).

``play_arrays`` reads those expectations for many points of one sequence
at once, given as an array of noise corners and one of coin angle sets
that runs of consecutive points share, from a left-to-right window sweep
whose cost grows linearly with the number of games, which carries only
the populations (window diagonals) the payoff reads and every point on a
leading batch axis (``_window_expectations``), and scores every point in
one pass. The figure sweeps call it once per chunk of grid values, for
all of the chunk's channels. ``play_many`` is the same for a list of (coin
configuration, noise) points, as ``verify``'s checks use, and ``play`` its
one-point case. The module is simulation only: it holds no 2^n x 2^n
matrix (the dense route lives in ``reference``) and no closed form (the
comparisons, the convention search included, live in ``verify``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import GameConfig, SequencePlan, coin_matrices, parse_sequence
from .noise import NoiseSpec, corner_stack

MASKS = ("all", "results")
NORMALIZATIONS = ("total", "per_game", "per_qubit")


@dataclass(frozen=True)
class PayoffConvention:
    """Which qubits count and how the score sum is normalized.

    mask: "all" counts every register qubit (seeds included), "results"
    counts only game-result qubits. normalization: "total" leaves the raw
    sum, "per_game" divides by the number of games, "per_qubit" divides by
    the register size.
    """
    mask: str = "all"
    normalization: str = "total"

    def __post_init__(self):
        if self.mask not in MASKS:
            raise ValueError(f"unknown mask {self.mask!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @property
    def name(self) -> str:
        return f"{self.mask}-{self.normalization.replace('_', '')}"


DEFAULT_CONVENTION = PayoffConvention("all", "total")

#: CLI/config names for explicit conventions, mask-major.
CONVENTION_NAMES = {c.name: c for c in (PayoffConvention(mask, norm)
                                        for mask in MASKS
                                        for norm in NORMALIZATIONS)}


@dataclass(frozen=True)
class PayoffReport:
    payoff: float
    per_qubit: tuple[float, ...]   # +-1 expectation of every register qubit


def _score(per_qubit, plan: SequencePlan,
           convention: PayoffConvention) -> np.ndarray:
    """Payoffs of per-qubit +-1 expectations ``(..., n)`` under
    ``convention``; the counted qubits are added left to right."""
    n = plan.total_qubits
    first = 0 if convention.mask == "all" else plan.seed_count
    counted = np.asarray(per_qubit, dtype=float)[..., first:]
    # accumulate adds left to right as a plain sum() does, and 0.0 + turns
    # an all -0.0 total into 0.0 as sum()'s integer start does
    total = 0.0 + np.add.accumulate(counted, axis=-1)[..., -1]
    if convention.normalization == "per_game":
        total = total / len(plan.games)
    elif convention.normalization == "per_qubit":
        total = total / n
    return total


#: Score of a qubit's basis states: -1 for |0> (loss), +1 for |1> (win).
_SCORE = np.array([-1.0, 1.0])
#: Carried corners |0><0|, |0><1|, |1><1| and their last-readout weights.
_CARRIED = np.array([0, 1, 3])
_WEIGHTS = np.array([1.0, 2.0, 1.0])
#: Every carried corner's window before the first qubit: the GHZ state's
#: 1/2, which the first product broadcasts over the points.
_SEED = np.full((1, 3, 1), 0.5, dtype=np.complex128)
for _constant in (_SCORE, _CARRIED, _WEIGHTS, _SEED):
    _constant.flags.writeable = False
del _constant


def _entry_factors(coins: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Diagonals of c E c^H for every corner E ``(G, T, 2, 2)`` and every
    coin c of A stacks ``(A, C, 2, 2)``, A dividing G, stack a serving the
    G/A consecutive points starting at a * G/A: shape ``(G, T, C, 2)``.
    The coins' outer products O[k, l, (c, i)] = c[c, i, k] c[c, i, l]^*
    are built once per stack and weighted by the corners' entries E[k, l]
    in one matmul per stack, so a single stack (A = 1, as p-sweeps pass
    it) is one ``(G T, 4) @ (4, 2C)`` product."""
    sets, count, carried, size = (len(coins), len(corners), corners.shape[1],
                                  coins.shape[1])
    c = coins.transpose(0, 3, 1, 2)
    outer = c[:, :, None] * c.conj()[:, None]
    # an empty batch may have no stack at all: max keeps the shape defined
    return (corners.reshape(sets, count * carried // max(sets, 1), 4)
            @ outer.reshape(sets, 4, 2 * size)
            ).reshape(count, carried, size, 2)


def _window_expectations(plan: SequencePlan, coins: np.ndarray,
                         corners: np.ndarray) -> np.ndarray:
    """Per-qubit +-1 expectations, shape (G, n), of ``plan`` played at G
    points: coin stacks ``(A, 5, 2, 2)``, the A coin and then B's four
    sub-coins (``coins.coin_matrices``), and noise corners ``(G, 4, 2, 2)``
    (``noise.corner_stack``), where A divides G and stack a serves the G/A
    consecutive points starting at a * G/A.

    The noised state is 1/2 sum_{x,y} (x)_q E(|x><y|). Channels preserve
    Hermiticity, so the |1><0| corner stays the adjoint of |0><1|: only
    |0><0|, |0><1| and |1><1| are carried, and the last readouts count
    |0><1| twice, real part only. Each qubit enters a window of at most
    three in a product state, its game's coin picked by the window's bits h
    (B's sub-coin h, the A coin for every h), and no later game changes
    those bits. So a window entry off the diagonal only ever feeds entries
    off the diagonal, and the payoff, which reads populations, needs only
    each corner's diagonal d: the kron and the game are one product
    d'[(h, i)] = d[h] (c_h E c_h^H)[i, i] (E for a seed), its factors one
    ``_entry_factors`` product over the whole coin stack. A game touches
    only its target and the two qubits before it, so the window's oldest of
    three is traced out, d[m] = d'[(0, m)] + d'[(1, m)]: per corner, the
    history-dependent Markov chain on the last two results (Parrondo,
    Harmer and Abbott, PRL 85, 5226 (2000)), linear in the register size,
    on all G points at once. Each qubit traced out before the register is
    full has its product d', all three corners, written in place into one
    buffer and traced from there; the buffer's |0><0| and |1><1| rows are
    read out after the sweep in one contraction. The last three qubits are
    read out as the sweep ends.
    """
    corners = corners[:, _CARRIED]
    stack = _entry_factors(coins, corners)
    factors = {"A": stack[:, :, :1], "B": stack[:, :, 1:],
               None: np.diagonal(corners, axis1=2, axis2=3)[:, :, None]}
    n, count = plan.total_qubits, len(corners)
    steady = max(n - 3, 0)
    per_qubit = np.empty((count, n))
    diagonal = _SEED
    # (qubit, point, corner, 8): the products d' of the windows traced out
    # before the register is full, written as (h, i) and read as (oldest
    # bit, the rest) by the trace and by the readout after the sweep
    products = np.empty((steady, count, 3, 8), dtype=np.complex128)
    outs = products.reshape(steady, count, 3, 4, 2)
    traced = products.reshape(steady, count, 3, 2, 4)
    for q, kind in enumerate((None,) * plan.seed_count + tuple(plan.games)):
        if 2 <= q < n - 1:
            np.multiply(diagonal[:, :, :, None], factors[kind],
                        out=outs[q - 2])
            diagonal = traced[q - 2, :, :, 0] + traced[q - 2, :, :, 1]
        else:
            d = diagonal.shape[-1]
            diagonal = (diagonal[:, :, :, None] * factors[kind]
                        ).reshape(count, 3, 2 * d)
    for column in range(steady, n):
        halves = diagonal.reshape(count, 3, 2, diagonal.shape[-1] // 2)
        per_qubit[:, column] = np.einsum("gtia,i,t->g", halves, _SCORE,
                                         _WEIGHTS).real
        if column < n - 1:
            diagonal = halves[:, :, 0] + halves[:, :, 1]
    if steady:
        # Tr E(|0><1|) = 0: |0><1| counts only once the register is full.
        per_qubit[:, :steady] = np.einsum(
            "ngtia,i,t->gn", traced[:, :, ::2], _SCORE, _WEIGHTS[::2]).real
    return per_qubit


def play_arrays(sequence: str, angles: np.ndarray, corners: np.ndarray,
                convention: PayoffConvention = DEFAULT_CONVENTION
                ) -> tuple[np.ndarray, np.ndarray]:
    """Payoffs ``(G,)`` and per-qubit expectations ``(G, n)`` of one
    sequence string at G points, from one batched window sweep: noise
    corners ``(G, 4, 2, 2)`` as ``noise.corner_stack`` gives them, and A
    coin angle sets ``(A, 5, 3)`` as ``coins.coin_angles`` gives them, A
    dividing G: set a serves the G/A consecutive points starting at
    a * G/A, so ``(1, 5, 3)`` is one set at every point and ``(G, 5, 3)``
    one per point. The coins are built once per set. Any other shape is a
    ``ValueError`` before any work."""
    angles, corners = np.asarray(angles), np.asarray(corners)
    # A divides G, and 0 divides only an empty batch
    if (corners.shape[1:] != (4, 2, 2) or angles.shape[1:] != (5, 3)
            or (len(corners) % len(angles) if len(angles)
                else len(corners))):
        raise ValueError(f"angles {angles.shape} and corners {corners.shape}"
                         " are not (A, 5, 3) and (G, 4, 2, 2) with A"
                         " dividing G")
    plan = parse_sequence(sequence)
    coins = coin_matrices(angles[..., 0], angles[..., 1], angles[..., 2])
    expectations = _window_expectations(plan, coins, corners)
    return _score(expectations, plan, convention), expectations


def play_many(sequence: str, points,
              convention: PayoffConvention = DEFAULT_CONVENTION
              ) -> list[PayoffReport]:
    """Payoffs of one sequence string at many ``(GameConfig, NoiseSpec)``
    points, in order: ``play_arrays`` on their angles and corners. The
    points may be any iterable; they are read once."""
    points = list(points)
    angles = np.array([angle for cfg, _ in points
                       for c in (cfg.coin_a, *cfg.coin_b)
                       for angle in (c.theta, c.gamma, c.delta)]
                      ).reshape(-1, 5, 3)
    corners = corner_stack([noise.kind for _, noise in points],
                           [noise.p for _, noise in points])
    payoffs, expectations = play_arrays(sequence, angles, corners, convention)
    return [PayoffReport(payoff, tuple(row)) for payoff, row
            in zip(payoffs.tolist(), expectations.tolist())]


def play(sequence: str, cfg: GameConfig, noise: NoiseSpec,
         convention: PayoffConvention = DEFAULT_CONVENTION) -> PayoffReport:
    """Payoff of a sequence string such as "AAB" or "B^3": the one-point
    case of ``play_many``."""
    return play_many(sequence, [(cfg, noise)], convention)[0]
