"""Dense reference: the full 2^n x 2^n density matrix, stage by stage.

GHZ matrix (``make_initial_state``) -> channel on every qubit
(``apply_channel``) -> compiled sequence unitary (``build_unitary``) ->
``evolve`` -> diagonal readout (``payoff_report``). Every payoff the package
reports comes from the window sweep in ``engine``; this route computes the
same numbers the literal way, and the tests and ``verify`` hold the sweep to
it, for registers up to ``coins.MAX_QUBITS``.

Gates and the channel act on their own qubit axes instead of as lifted
2^n x 2^n matrices: a game on k qubits costs O(4^n 2^k), the channel O(4^n)
per qubit. ``coins.embed`` (literal Kronecker lifts) and ``lift_enumerated``
(explicit n-qubit Kraus products) are the independent routes these are
checked against.
"""
from __future__ import annotations

import numpy as np

from .coins import (MAX_QUBITS, GameConfig, SequencePlan, SizeLimitError,
                    make_coin_a, make_coin_b)
from .engine import DEFAULT_CONVENTION, PayoffConvention, PayoffReport, _score
from .noise import NoiseSpec, channel_corners, kraus_single

#: lift_enumerated is for validation only; beyond this it refuses.
MAX_ENUMERATED_QUBITS = 4


def make_initial_state(n_qubits: int) -> np.ndarray:
    """GHZ density matrix: 1/2 at the four corners, 0 elsewhere."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_QUBITS:
        raise SizeLimitError(f"register of {n_qubits} qubits exceeds limit")
    dim = 2 ** n_qubits
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for i in (0, dim - 1):
        for j in (0, dim - 1):
            rho[i, j] = 0.5
    return rho


def apply_channel(rho: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Apply the channel to every qubit of a register density matrix: on
    qubit q, each block |x><y| of that qubit becomes E(|x><y|)."""
    dim = rho.shape[0]
    n = int(round(np.log2(dim)))
    if 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if spec.kind == "none" or spec.p == 0.0:
        return rho.copy()
    corners = channel_corners(spec).reshape(2, 2, 2, 2)
    for q in range(n):
        hi, lo = 2 ** q, 2 ** (n - 1 - q)
        rho = np.einsum("axbcyd,xyij->aibcjd",
                        rho.reshape(hi, 2, lo, hi, 2, lo), corners,
                        optimize=True)
    return rho.reshape(dim, dim)


def lift_enumerated(spec: NoiseSpec, n_qubits: int) -> list[np.ndarray]:
    """All n-fold tensor products of the single-qubit set (k^n operators),
    in ``itertools.product`` order, built as one stacked outer product.

    Validation path only; raises SizeLimitError above MAX_ENUMERATED_QUBITS.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_ENUMERATED_QUBITS:
        raise SizeLimitError(
            f"enumerated lift limited to {MAX_ENUMERATED_QUBITS} qubits, "
            f"got {n_qubits}")
    singles = np.array(kraus_single(spec))
    ops = singles
    for _ in range(n_qubits - 1):
        k, d = len(ops), ops.shape[-1]
        ops = (ops[:, None, :, None, :, None]
               * singles[None, :, None, :, None, :]
               ).reshape(k * len(singles), 2 * d, 2 * d)
    return list(ops)


def _on_axes(op: np.ndarray, tensor: np.ndarray, first: int) -> np.ndarray:
    """Apply the 2^k operator ``op`` to the k contiguous qubit axes of
    ``tensor`` that start at axis ``first`` (axis 0 most significant).
    ``tensor`` is a (2,)*m tensor, or any reshape of one that keeps its
    element order, such as a 2^n x 2^n matrix whose rows are axes 0..n-1."""
    k = op.shape[0].bit_length() - 1
    return (op @ tensor.reshape(2 ** first, 2 ** k, -1)).reshape(tensor.shape)


def build_unitary(plan: SequencePlan, cfg: GameConfig) -> np.ndarray:
    """Compile a plan to one register unitary (earliest game applied first)."""
    n = plan.total_qubits
    if n > MAX_QUBITS:
        raise SizeLimitError(f"register of {n} qubits exceeds limit")
    coins = {"A": make_coin_a(cfg.coin_a), "B": make_coin_b(cfg.coin_b)}
    u = np.eye(2 ** n, dtype=np.complex128)
    for step in plan.games:
        first = step.target if step.kind == "A" else step.history[0]
        u = _on_axes(coins[step.kind], u, first)
    return u


def evolve(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    if rho.shape != u.shape:
        raise ValueError(f"shape mismatch: state {rho.shape}, unitary {u.shape}")
    return u @ rho @ u.conj().T


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
    return PayoffReport(float(_score(per_qubit, plan, convention)),
                        per_qubit)
