"""Game pipeline: entangled initial state -> channel -> games -> payoff.

The register starts in the n-qubit GHZ state. Decoherence acts once, before
any game is played. A basis state's score is the sum of +1 per |1> (win) and
-1 per |0> (loss) over the counted qubits, so the payoff is a sum of per-qubit
+-1 expectations under a configurable counting convention.

``play`` reads those expectations from a left-to-right window sweep whose
cost grows linearly with the number of games (``_window_expectations``).
The dense stages (``make_initial_state``, ``noise.apply_channel``,
``coins.build_unitary``, ``evolve``, ``payoff_report``) build the full
2^n x 2^n density matrix; they are the reference the sweep is tested
against, for registers up to ``coins.MAX_QUBITS``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .coins import (GameConfig, SequencePlan, calibrate_classical,
                    make_coin_a, make_coin_b, max_payoff_phases,
                    parse_sequence)
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


def _window_expectations(plan: SequencePlan, cfg: GameConfig,
                         noise: NoiseSpec) -> tuple[float, ...]:
    """Per-qubit +-1 expectations of ``plan`` played on the noised GHZ state.

    The noised state is 1/2 sum_{x,y} (x)_q E(|x><y|): four product
    operators, one per corner (x, y). The sweep adds qubits left to right,
    carrying one operator per corner on a window of at most three qubits.
    Each step krons in the new qubit's E(|x><y|) and plays the game that
    writes that qubit. A game touches only its target and the two qubits
    before it, so once the window holds three qubits its oldest is never
    touched again: its expectation is read out and it is traced out. This
    is an exact bond-dimension-2 contraction (Vidal, PRL 91, 147902 (2003));
    the cost is linear in the register size.
    """
    ops = np.array(kraus_single(noise))
    # corners[2x + y] = E(|x><y|) = sum_k E_k |x><y| E_k^dag
    corners = np.einsum("kix,kjy->xyij", ops, ops.conj()).reshape(4, 2, 2)
    coins = {"A": make_coin_a(cfg.coin_a), "B": make_coin_b(cfg.coin_b)}
    kind_at = {step.target: step.kind for step in plan.games}
    n = plan.total_qubits
    window = np.full((4, 1, 1), 0.5, dtype=np.complex128)
    per_qubit = []

    def read_out_oldest(window: np.ndarray, last: bool) -> np.ndarray:
        d = window.shape[1] // 2
        w = window.reshape(4, 2, d, 2, d)
        # Tr E(|0><1|) = 0: the x != y corners vanish while a qubit is
        # still to be added, so they count only once the register is full.
        terms = w if last else w[::3]
        per_qubit.append(float(np.einsum("tiaia,i->", terms, _SCORE).real))
        return np.einsum("tiaib->tab", w)

    for q in range(n):
        d = window.shape[1]
        window = (window[:, :, None, :, None] * corners[:, None, :, None, :]
                  ).reshape(4, 2 * d, 2 * d)
        if q in kind_at:
            coin = coins[kind_at[q]]
            gate = np.kron(np.eye(2 * d // coin.shape[0]), coin)
            window = gate @ window @ gate.conj().T
        if window.shape[1] == 8:
            window = read_out_oldest(window, q == n - 1)
    while window.shape[1] > 1:
        window = read_out_oldest(window, True)
    return tuple(per_qubit)


def play(sequence: str, cfg: GameConfig, noise: NoiseSpec,
         convention: PayoffConvention = DEFAULT_CONVENTION) -> PayoffReport:
    """Payoff of a sequence string such as "AAB" or "B^3", by the window
    sweep."""
    plan = parse_sequence(sequence)
    per_qubit = _window_expectations(plan, cfg, noise)
    return PayoffReport(_score(per_qubit, plan, convention), per_qubit)


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
    for assignment in assignments:
        for eps in _CAL_EPS:
            cfg = calibrate_classical(eps, betas=max_payoff_phases(0.0),
                                      assignment=assignment)
            for seq, n_games in _CAL_SEQS:
                plan = parse_sequence(seq)
                for p in _CAL_PS:
                    for ch in _CAL_CHANNELS:
                        per_qubit = _window_expectations(
                            plan, cfg, NoiseSpec(ch, p))
                        ref = oracle.chain_b(n_games, ch, p, eps)
                        row = f"{seq}:{ch}"
                        for mask in masks:
                            for norm in normalizations:
                                r = abs(_score(per_qubit, plan,
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
