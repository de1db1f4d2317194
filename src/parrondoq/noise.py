"""Single-qubit Kraus channels and their action on one qubit.

Kraus operators (probability p in [0, 1]):

    amplitude damping  {[[1,0],[0,sqrt(1-p)]], [[0,sqrt(p)],[0,0]]}
    depolarizing       {sqrt(1-3p/4) I, sqrt(p/4) sx, sqrt(p/4) sy, sqrt(p/4) sz}
    phase damping      {[[1,0],[0,sqrt(1-p)]], [[0,0],[0,sqrt(p)]]}
    none               {I}

The channel acts once, on the initial state, independently on every qubit.
``channel_corners`` gives its action on the four single-qubit basis
operators |x><y|: the window sweep in ``engine`` and the dense
``reference.apply_channel`` both apply the channel through it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("ad", "dp", "pd", "none")

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p {self.p} outside [0, 1]")


def kraus_single(spec: NoiseSpec) -> list[np.ndarray]:
    """The single-qubit Kraus set for ``spec``."""
    p = spec.p
    if spec.kind == "none":
        return [_I2.copy()]
    if spec.kind == "ad":
        return [
            np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=np.complex128),
            np.array([[0, np.sqrt(p)], [0, 0]], dtype=np.complex128),
        ]
    if spec.kind == "pd":
        return [
            np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=np.complex128),
            np.array([[0, 0], [0, np.sqrt(p)]], dtype=np.complex128),
        ]
    # depolarizing
    return [
        np.sqrt(1 - 3 * p / 4) * _I2,
        np.sqrt(p / 4) * _SX,
        np.sqrt(p / 4) * _SY,
        np.sqrt(p / 4) * _SZ,
    ]


def completeness_defect(ops: list[np.ndarray]) -> float:
    """max-entry residual of sum_k E_k^dag E_k - I."""
    dim = ops[0].shape[0]
    acc = sum(e.conj().T @ e for e in ops)
    return float(np.max(np.abs(acc - np.eye(dim))))


def channel_corners(noise: NoiseSpec) -> np.ndarray:
    """E(|x><y|) = sum_k E_k |x><y| E_k^dag, stacked at index 2x + y."""
    ops = np.array(kraus_single(noise))
    return np.einsum("kix,kjy->xyij", ops, ops.conj()).reshape(4, 2, 2)
