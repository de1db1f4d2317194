"""Game pipeline: entangled initial state -> channel -> games -> payoff.

The register starts in the n-qubit GHZ state. Decoherence acts once, before
any game is played. A basis state's score is the sum of +1 per |1> (win) and
-1 per |0> (loss) over the counted qubits, so the payoff is a sum of per-qubit
+-1 expectations under a configurable counting convention (``_score``).

``play_arrays`` reads those expectations for many points of one sequence
at once, given as arrays of coin angles and noise corners, from a
left-to-right window sweep whose cost grows linearly with the number of
games and which carries every point on a leading batch axis
(``_window_expectations``), and scores every point in one pass. The figure
sweeps call it block by block. ``play_many`` is the same for a list of
(coin configuration, noise) points, as ``verify``'s checks use, and ``play``
its one-point case. The module is simulation only: it holds no 2^n x 2^n
matrix (the dense route lives in ``reference``) and no closed form (the
comparisons, convention searches included, live in ``verify``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import (GameConfig, SequencePlan, block_coins, coin_matrices,
                    parse_sequence)
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


def _window_expectations(plan: SequencePlan, coin_a: np.ndarray,
                         coin_b: np.ndarray,
                         corners: np.ndarray) -> np.ndarray:
    """Per-qubit +-1 expectations, shape (G, n), of ``plan`` played at G
    points: A coins ``(G, 2, 2)``, B coins ``(G, 8, 8)`` and noise corners
    ``(G, 4, 2, 2)`` (see ``noise.corner_stack``). Coins of leading size 1
    are the same coins at every point.

    The noised state is 1/2 sum_{x,y} (x)_q E(|x><y|): four product
    operators, one per corner (x, y). The sweep adds qubits left to right,
    carrying one operator per corner and point on a window of at most three
    qubits. Each step krons in the new qubit's E(|x><y|) and plays the game
    that writes that qubit, as gate @ window @ gate^H with gate = I (x) coin.
    A game touches only its target and the two qubits before it, so once
    the window holds three qubits its oldest is never touched again: its
    expectation is read out and it is traced out. This is an exact
    bond-dimension-2 contraction (Vidal, PRL 91, 147902 (2003)); the cost is
    linear in the register size, and every step acts on all G points at
    once.
    """
    coins = {"A": coin_a, "B": coin_b}
    kind_at = {step.target: step.kind for step in plan.games}
    n, count = plan.total_qubits, len(corners)
    window = np.full((count, 4, 1, 1), 0.5, dtype=np.complex128)
    per_qubit = []

    def read_out_oldest(window: np.ndarray, last: bool) -> np.ndarray:
        d = window.shape[-1] // 2
        w = window.reshape(count, 4, 2, d, 2, d)
        # Tr E(|0><1|) = 0: the x != y corners vanish while a qubit is
        # still to be added, so they count only once the register is full.
        terms = w if last else w[:, ::3]
        per_qubit.append(np.einsum("gtiaia,i->g", terms, _SCORE).real)
        return np.einsum("gtiaib->gtab", w)

    for q in range(n):
        d = window.shape[-1]
        window = (window[:, :, :, None, :, None]
                  * corners[:, :, None, :, None, :]
                  ).reshape(count, 4, 2 * d, 2 * d)
        if q in kind_at:
            coin = coins[kind_at[q]]
            m = 2 * d // coin.shape[-1]
            gate = (np.eye(m)[:, None, :, None] * coin[:, None, :, None, :]
                    ).reshape(len(coin), 1, 2 * d, 2 * d)
            window = gate @ window      # two steps: two stacks alive, not three
            window = window @ gate.conj().swapaxes(-1, -2)
        if d == 4:
            window = read_out_oldest(window, q == n - 1)
    while window.shape[-1] > 1:
        window = read_out_oldest(window, True)
    return np.stack(per_qubit, axis=1)


def play_arrays(sequence: str, angles: np.ndarray, corners: np.ndarray,
                convention: PayoffConvention = DEFAULT_CONVENTION
                ) -> tuple[np.ndarray, np.ndarray]:
    """Payoffs ``(G,)`` and per-qubit expectations ``(G, n)`` of one
    sequence string at G points, from one batched window sweep: coin angles
    ``(G, 5, 3)`` as ``coins.coin_angles`` gives them, or ``(1, 5, 3)`` for
    one angle set at every point, and noise corners ``(G, 4, 2, 2)`` as
    ``noise.corner_stack`` gives them."""
    plan = parse_sequence(sequence)
    coins = coin_matrices(*np.moveaxis(angles, -1, 0))
    expectations = _window_expectations(plan, coins[:, 0],
                                        block_coins(coins[:, 1:]), corners)
    return _score(expectations, plan, convention), expectations


def play_many(sequence: str, points,
              convention: PayoffConvention = DEFAULT_CONVENTION
              ) -> list[PayoffReport]:
    """Payoffs of one sequence string at many ``(GameConfig, NoiseSpec)``
    points, in order: ``play_arrays`` on their angles and corners."""
    if not points:
        parse_sequence(sequence)
        return []
    angles = np.array([[(c.theta, c.gamma, c.delta)
                        for c in (cfg.coin_a, *cfg.coin_b)]
                       for cfg, _ in points])
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
