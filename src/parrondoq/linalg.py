"""Dense complex linear algebra with hard size limits.

Everything in this package works on plain ``numpy.ndarray`` matrices of dtype
complex128. This module adds the guard rails: a register-size cap, shape
checks, and the residual norm used by the verification suite.
"""
from __future__ import annotations

import numpy as np

#: Largest matrix dimension any operation may produce (12 qubits).
MAX_DIM = 2 ** 12


class SizeLimitError(Exception):
    """An operation would exceed the supported register size."""


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of square matrices, left factor most significant.

    Raises SizeLimitError if the product dimension would exceed MAX_DIM.
    """
    if not ops:
        raise ValueError("kron needs at least one operand")
    dim = 1
    for op in ops:
        dim *= op.shape[0]
    if dim > MAX_DIM:
        raise SizeLimitError(
            f"tensor product dimension {dim} exceeds limit {MAX_DIM}")
    out = np.asarray(ops[0], dtype=np.complex128)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def embed(op: np.ndarray, first_qubit: int, n_qubits: int) -> np.ndarray:
    """Lift ``op`` to an ``n_qubits`` register, acting on a contiguous block
    starting at ``first_qubit`` (qubit 0 = most significant)."""
    k = int(round(np.log2(op.shape[0])))
    hi = n_qubits - first_qubit - k
    if first_qubit < 0 or hi < 0:
        raise ValueError(f"operator does not fit at qubit {first_qubit}")
    return kron(identity(2 ** first_qubit), op, identity(2 ** hi))


def max_abs(m: np.ndarray) -> float:
    """Largest entrywise magnitude; the norm used for residual checks."""
    return float(np.max(np.abs(m))) if m.size else 0.0
