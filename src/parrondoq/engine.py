"""Game pipeline: entangled initial state -> channel -> games -> payoff.

The register starts in the n-qubit GHZ state. Decoherence acts once, before
any game is played. A basis state's score is the sum of +1 per |1> (win) and
-1 per |0> (loss) over the counted qubits, so the payoff is a sum of per-qubit
+-1 expectations under a configurable counting convention.

``play_many`` reads those expectations for many (coin configuration, noise)
points of one sequence at once, from a left-to-right window sweep whose
cost grows linearly with the number of games and which carries every point
on a leading batch axis (``_window_expectations``). ``play`` is its
one-point case, and the figure sweeps and convention searches call it in
batches.
The dense stages (``make_initial_state``, ``noise.apply_channel``,
``coins.build_unitary``, ``evolve``, ``payoff_report``) build the full
2^n x 2^n density matrix; they are the reference the sweep is tested
against, for registers up to ``coins.MAX_QUBITS``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .coins import (GameConfig, SequencePlan, block_coins, calibrate_classical,
                    coin_matrices, max_payoff_phases, parse_sequence)
from .linalg import MAX_DIM, SizeLimitError
from .noise import NoiseSpec, kraus_single

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

#: CLI/config names for explicit conventions.
CONVENTION_NAMES = {
    "all-total": PayoffConvention("all", "total"),
    "all-pergame": PayoffConvention("all", "per_game"),
    "all-perqubit": PayoffConvention("all", "per_qubit"),
    "results-total": PayoffConvention("results", "total"),
    "results-pergame": PayoffConvention("results", "per_game"),
    "results-perqubit": PayoffConvention("results", "per_qubit"),
}


@dataclass(frozen=True)
class PayoffReport:
    payoff: float
    per_qubit: tuple[float, ...]   # +-1 expectation of every register qubit


class CalibrationError(Exception):
    """No counting convention reproduces the chain reference values.

    ``residuals`` maps candidate name -> {"seq:channel": max residual}.
    """

    def __init__(self, message: str, residuals: dict):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class ConventionFinding:
    """Result of the extended convention search."""
    convention: PayoffConvention
    assignment: str                # which probability-list order B's coins use
    residuals: dict                # candidate name -> row -> max residual
    anchor_rows: tuple[str, ...]   # rows the search matched on


def make_initial_state(n_qubits: int) -> np.ndarray:
    """GHZ density matrix: 1/2 at the four corners, 0 elsewhere."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    dim = 2 ** n_qubits
    if dim > MAX_DIM:
        raise SizeLimitError(f"register of {n_qubits} qubits exceeds limit")
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for i in (0, dim - 1):
        for j in (0, dim - 1):
            rho[i, j] = 0.5
    return rho


def evolve(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    if rho.shape != u.shape:
        raise ValueError(f"shape mismatch: state {rho.shape}, unitary {u.shape}")
    return u @ rho @ u.conj().T


def _score(per_qubit, plan: SequencePlan,
           convention: PayoffConvention) -> float:
    """Payoff of per-qubit +-1 expectations under ``convention``."""
    n = plan.total_qubits
    counted = range(n) if convention.mask == "all" else range(plan.seed_count, n)
    total = sum(per_qubit[q] for q in counted)
    if convention.normalization == "per_game":
        total /= len(plan.games)
    elif convention.normalization == "per_qubit":
        total /= n
    return float(total)


def payoff_report(rho: np.ndarray, plan: SequencePlan,
                  convention: PayoffConvention = DEFAULT_CONVENTION
                  ) -> PayoffReport:
    """Score expectation of a dense final state's diagonal under
    ``convention``."""
    n = plan.total_qubits
    diag = np.real(np.diag(rho))
    z = np.arange(2 ** n)
    per_qubit = tuple(
        float(np.sum((2.0 * ((z >> (n - 1 - q)) & 1) - 1.0) * diag))
        for q in range(n)
    )
    return PayoffReport(_score(per_qubit, plan, convention), per_qubit)


#: Score of a qubit's basis states: -1 for |0> (loss), +1 for |1> (win).
_SCORE = np.array([-1.0, 1.0])


def _corners(noise: NoiseSpec) -> np.ndarray:
    """E(|x><y|) = sum_k E_k |x><y| E_k^dag, stacked at index 2x + y."""
    ops = np.array(kraus_single(noise))
    return np.einsum("kix,kjy->xyij", ops, ops.conj()).reshape(4, 2, 2)


def _window_expectations(plan: SequencePlan, coin_a: np.ndarray,
                         coin_b: np.ndarray,
                         corners: np.ndarray) -> np.ndarray:
    """Per-qubit +-1 expectations, shape (G, n), of ``plan`` played at G
    points: A coins ``(G, 2, 2)``, B coins ``(G, 8, 8)`` and noise corners
    ``(G, 4, 2, 2)`` (see ``_corners``).

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
                    ).reshape(count, 1, 2 * d, 2 * d)
            window = gate @ window      # two steps: two stacks alive, not three
            window = window @ gate.conj().swapaxes(-1, -2)
        if d == 4:
            window = read_out_oldest(window, q == n - 1)
    while window.shape[-1] > 1:
        window = read_out_oldest(window, True)
    return np.stack(per_qubit, axis=1)


def play_many(sequence: str, points,
              convention: PayoffConvention = DEFAULT_CONVENTION
              ) -> list[PayoffReport]:
    """Payoffs of one sequence string at many ``(GameConfig, NoiseSpec)``
    points, in order, from one batched window sweep."""
    plan = parse_sequence(sequence)
    if not points:
        return []
    angles = np.array([[(c.theta, c.gamma, c.delta)
                        for c in (cfg.coin_a, *cfg.coin_b)]
                       for cfg, _ in points])
    coins = coin_matrices(*np.moveaxis(angles, -1, 0))
    corner_of = {noise: _corners(noise)
                 for noise in {noise for _, noise in points}}
    corners = np.array([corner_of[noise] for _, noise in points])
    expectations = _window_expectations(plan, coins[:, 0],
                                        block_coins(coins[:, 1:]), corners)
    return [PayoffReport(_score(row, plan, convention), tuple(row))
            for row in expectations.tolist()]


def play(sequence: str, cfg: GameConfig, noise: NoiseSpec,
         convention: PayoffConvention = DEFAULT_CONVENTION) -> PayoffReport:
    """Payoff of a sequence string such as "AAB" or "B^3": the one-point
    case of ``play_many``."""
    return play_many(sequence, [(cfg, noise)], convention)[0]


# ---------------------------------------------------------------------------
# Convention calibration against the chain reference values.

_CAL_PS = (0.0, 0.25, 0.5)
_CAL_EPS = (1 / 168, 1 / 112)
_CAL_SEQS = (("B", 1), ("BB", 2), ("BBB", 3))
_CAL_CHANNELS = ("ad", "dp", "pd")
#: chain_b3's printed coefficients are rounded to two decimals.
_CAL_TOL = {1: 1e-6, 2: 1e-6, 3: 5e-3}


def _chain_residuals(assignments, masks, normalizations) -> dict:
    """Max |simulated - reference| per candidate per (sequence, channel)."""
    cells = [(a, m, nn) for a in assignments for m in masks
             for nn in normalizations]
    table = {cell: {} for cell in cells}
    points = [(p, ch) for p in _CAL_PS for ch in _CAL_CHANNELS]
    for assignment in assignments:
        for eps in _CAL_EPS:
            cfg = calibrate_classical(eps, betas=max_payoff_phases(0.0),
                                      assignment=assignment)
            for seq, n_games in _CAL_SEQS:
                plan = parse_sequence(seq)
                reports = play_many(seq, [(cfg, NoiseSpec(ch, p))
                                          for p, ch in points])
                for (p, ch), report in zip(points, reports):
                    ref = oracle.chain_b(n_games, ch, p, eps)
                    row = f"{seq}:{ch}"
                    for mask in masks:
                        for norm in normalizations:
                            r = abs(_score(report.per_qubit, plan,
                                           PayoffConvention(mask, norm))
                                    - ref)
                            cell = (assignment, mask, norm)
                            if r > table[cell].get(row, 0.0):
                                table[cell][row] = r
    return table


def _cell_name(cell: tuple[str, str, str]) -> str:
    assignment, mask, norm = cell
    return f"{assignment}/{mask}-{norm.replace('_', '')}"


def calibrate_convention() -> PayoffConvention:
    """Search mask x {total, per_game} for a convention that reproduces the
    chain reference values (printed probability order).

    Raises CalibrationError with the full residual table when none matches —
    which is the actual outcome here; see discover_convention for the
    extended search that does succeed.
    """
    table = _chain_residuals(("printed",), MASKS, ("total", "per_game"))
    named = {_cell_name(c): rows for c, rows in table.items()}
    for cell, rows in table.items():
        ok = all(
            r <= _CAL_TOL[len(row.split(":")[0])]
            for row, r in rows.items()
        )
        if ok:
            return PayoffConvention(cell[1], cell[2])
    raise CalibrationError(
        "no candidate convention reproduces the chain reference values; "
        "best residuals per candidate: "
        + ", ".join(f"{name}={max(rows.values()):.3g}"
                    for name, rows in sorted(named.items())),
        named,
    )


#: Rows used to anchor the extended search. The dp rows are excluded (the
#: reference dp rows assume a different channel scaling; verify classifies
#: this) and chain_b3's ad row is excluded (truncated printed cubic).
_ANCHOR_ROWS = ("B:ad", "B:pd", "BB:ad", "BB:pd", "BBB:pd")


def discover_convention() -> ConventionFinding:
    """Extended search: probability-list order x mask x normalization.

    Anchors on the amplitude-damping and phase-damping chain rows, which pin
    a unique candidate: canonical order, all qubits, per-qubit normalization.
    """
    table = _chain_residuals(("printed", "canonical"), MASKS, NORMALIZATIONS)
    named = {_cell_name(c): rows for c, rows in table.items()}
    winners = []
    for cell, rows in table.items():
        ok = all(
            rows[row] <= _CAL_TOL[len(row.split(":")[0])]
            for row in _ANCHOR_ROWS
        )
        if ok:
            winners.append(cell)
    if len(winners) != 1:
        raise CalibrationError(
            f"extended search found {len(winners)} matching conventions "
            "(expected exactly 1)", named)
    assignment, mask, norm = winners[0]
    return ConventionFinding(
        PayoffConvention(mask, norm), assignment, named, _ANCHOR_ROWS)
