"""Dense reference: the full 2^n x 2^n density matrix, stage by stage.

``play_dense`` is the route's one entry: GHZ matrix (``make_initial_state``)
-> channel on every qubit (``apply_channel``) -> compiled sequence unitary
(``build_unitary``) -> the final populations diag(U rho U^H), scored bit by
bit. Every payoff the package reports comes from the window sweep in
``engine``; this route computes the same numbers the literal way, and the
tests hold the sweep to it, for registers up to ``coins.MAX_QUBITS``.
``verify`` checks the channel and compiler stages on their own.

The channel is one 4 x 4 map per qubit, M[(i,j),(x,y)] = E(|x><y|)[i,j],
rather than a lifted 2^n x 2^n matrix. The register is transposed once
so that each qubit's row and column axes sit side by side; then each of
n matmuls maps the leading pair and rotates it to the back, and one
transpose turns the result back into a matrix: O(4^n) per qubit, with
no copy of the register per qubit. A game touches no qubit after its
target, so the sequence unitary grows by one tensor product per game:
U (x) a for game A, and for game B each row of U times the sub-coin that
row's two history bits pick. A game ending at qubit t costs O(4^(t+1)).
Only the diagonal of the final state is scored, so it is read as
sum_k (U rho)[i,k] conj(U[i,k]): one matmul, and no final 2^n x 2^n state.
``coins.embed`` (literal Kronecker lifts) and ``lift_enumerated`` (explicit
n-qubit Kraus products, one stacked array) are the independent routes these
are checked against.
"""
from __future__ import annotations

import numpy as np

from .coins import (MAX_QUBITS, GameConfig, SequencePlan, SizeLimitError,
                    _qubit_count, make_coin_a, make_coin_b, parse_sequence)
from .engine import DEFAULT_CONVENTION, PayoffConvention, PayoffReport, _score
from .noise import NoiseSpec, corner_stack, kraus_stack

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
    qubit q, each block |x><y| of that qubit becomes E(|x><y|). At p = 0
    that is exactly |x><y|: a copy of ``rho``, bit for bit. A 1 x 1
    matrix, a register of no qubits, comes back as it is; any matrix
    other than a square 2^k x 2^k one is a ValueError."""
    n = _qubit_count(rho)
    dim = 2 ** n
    # M transposed: row xy holds E(|x><y|), so v[., xy] @ it gives v'[., ij]
    channel_map = corner_stack(spec.kind, spec.p)[0].reshape(4, 4)
    # axes r0 c0 r1 c1 ...: each qubit's row and column axis side by side
    v = rho.reshape((2,) * (2 * n)).transpose(
        [axis for q in range(n) for axis in (q, n + q)])
    for _ in range(n):
        # the leading pair is mapped and rotated to the back
        v = v.reshape(4, -1).T @ channel_map
    return v.reshape((2,) * (2 * n)).transpose(
        list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).reshape(dim, dim)


def lift_enumerated(spec: NoiseSpec, n_qubits: int) -> np.ndarray:
    """All n-fold tensor products of the single-qubit set (k^n operators),
    in ``itertools.product`` order, as one stacked outer product of shape
    ``(k^n, 2^n, 2^n)``.

    Validation path only; raises SizeLimitError above MAX_ENUMERATED_QUBITS.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_ENUMERATED_QUBITS:
        raise SizeLimitError(
            f"enumerated lift limited to {MAX_ENUMERATED_QUBITS} qubits, "
            f"got {n_qubits}")
    singles = kraus_stack(spec.kind, spec.p)[0]
    ops = singles
    for _ in range(n_qubits - 1):
        k, d = len(ops), ops.shape[-1]
        ops = (ops[:, None, :, None, :, None]
               * singles[None, :, None, :, None, :]
               ).reshape(k * len(singles), 2 * d, 2 * d)
    return ops


def build_unitary(plan: SequencePlan, cfg: GameConfig) -> np.ndarray:
    """Compile a plan to one register unitary (earliest game applied first).

    Starts from the identity on the seed qubits. A game touches no qubit
    after its target, so each game grows U by one tensor product with its
    target qubit: game A gives U (x) a, and game B, whose sub-coin s_h is
    picked by history bits h = the last two qubits played, gives
    U'[(r,i),(c,j)] = U[r,c] s_{r mod 4}[i,j]. A game ending at qubit t
    costs O(4^(t+1)), and only the new U and the previous one are held."""
    n = plan.total_qubits
    if n > MAX_QUBITS:
        raise SizeLimitError(f"register of {n} qubits exceeds limit")
    b = make_coin_b(cfg.coin_b)
    # game A has one sub-coin whatever the history
    subcoins = {"A": make_coin_a(cfg.coin_a)[None],
                "B": np.stack([b[2 * h:2 * h + 2, 2 * h:2 * h + 2]
                               for h in range(4)])}
    u = np.eye(2 ** plan.seed_count, dtype=np.complex128)
    for kind in plan.games:
        dim, coins = len(u), subcoins[kind]
        u = (u.reshape(dim // len(coins), len(coins), 1, dim, 1)
             * coins[None, :, :, None, :]).reshape(2 * dim, 2 * dim)
    return u


def play_dense(sequence: str, cfg: GameConfig, noise: NoiseSpec,
               convention: PayoffConvention = DEFAULT_CONVENTION
               ) -> PayoffReport:
    """Play ``sequence`` the literal way: GHZ matrix, channel, compiled
    unitary U, then the populations diag(U rho U^H) scored under
    ``convention``. Raises SizeLimitError above MAX_QUBITS before any
    matrix is allocated."""
    plan = parse_sequence(sequence)
    rho = apply_channel(make_initial_state(plan.total_qubits), noise)
    u = build_unitary(plan, cfg)
    # diag(U rho U^H)[i] = sum_k (U rho)[i, k] conj(U[i, k])
    populations = ((u @ rho) * u.conj()).sum(axis=1).real
    return _payoff_report(populations, plan, convention)


def _payoff_report(populations, plan: SequencePlan,
                   convention: PayoffConvention = DEFAULT_CONVENTION
                   ) -> PayoffReport:
    """Score expectation of a register's populations (the diagonal of its
    density matrix, basis state z at index z) under ``convention``."""
    n = plan.total_qubits
    z = np.arange(2 ** n)
    per_qubit = tuple(
        float(np.sum((2.0 * ((z >> (n - 1 - q)) & 1) - 1.0) * populations))
        for q in range(n)
    )
    return PayoffReport(float(_score(per_qubit, plan, convention)),
                        per_qubit)
