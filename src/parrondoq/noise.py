"""Single-qubit Kraus channels and their action on one qubit.

Kraus operators (probability p in [0, 1]):

    amplitude damping  {[[1,0],[0,sqrt(1-p)]], [[0,sqrt(p)],[0,0]]}
    depolarizing       {sqrt(1-3p/4) I, sqrt(p/4) sx, sqrt(p/4) sy, sqrt(p/4) sz}
    phase damping      {[[1,0],[0,sqrt(1-p)]], [[0,0],[0,sqrt(p)]]}
    none               {I}

The channel acts once, on the initial state, independently on every qubit.
``corner_stack`` gives its action on the four single-qubit basis operators
|x><y| at many points at once: the window sweep in ``engine`` and the dense
``reference.apply_channel`` both apply the channel through it. Each formula
takes an array of strengths (``kraus_stack`` for one kind, ``corner_stack``
for one kind per point); a one-point caller reads ``kraus_stack(kind, p)[0]``
or ``corner_stack(kind, p)[0]``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("ad", "dp", "pd", "none")

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)
_PAULIS = np.array([_I2, _SX, _SY, _SZ])
#: Depolarizing weights squared are _DP_START + p * _DP_SLOPE: 1 - 0.75 p
#: and 0 + 0.25 p round exactly as 1 - 3p/4 and p/4 do.
_DP_START = np.array([1.0, 0.0, 0.0, 0.0])
_DP_SLOPE = np.array([-0.75, 0.25, 0.25, 0.25])


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p {self.p} outside [0, 1]")


def kraus_stack(kind: str, p) -> np.ndarray:
    """The single-qubit Kraus sets of one channel kind at each of an array
    of strengths, shape ``(G, K, 2, 2)``. Raises ValueError for an unknown
    kind or a strength outside [0, 1], naming the first such one."""
    if kind not in KINDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    valid = (0.0 <= p) & (p <= 1.0)
    if not valid.all():
        raise ValueError(f"p {float(p[valid.argmin()])} outside [0, 1]")
    if kind == "none":
        return np.broadcast_to(_I2, p.shape + (1, 2, 2)).copy()
    if kind == "dp":
        weights = np.sqrt(_DP_START + p[..., None] * _DP_SLOPE)
        return weights[..., None, None] * _PAULIS
    ops = np.zeros(p.shape + (2, 2, 2), dtype=np.complex128)
    ops[..., 0, 0, 0] = 1.0
    ops[..., 0, 1, 1] = np.sqrt(1 - p)
    if kind == "ad":
        ops[..., 1, 0, 1] = np.sqrt(p)
    else:                                   # phase damping
        ops[..., 1, 1, 1] = np.sqrt(p)
    return ops


def completeness_defect(ops) -> float:
    """max-entry residual of sum_k E_k^dag E_k - I, for one set of K
    operators (a list, or an array ``(K, d, d)``) or the worst over a stack
    of sets ``(..., K, d, d)`` such as ``kraus_stack`` gives."""
    ops = np.asarray(ops)
    acc = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=-3)
    return float(np.max(np.abs(acc - np.eye(ops.shape[-1]))))


def corner_stack(kinds, p) -> np.ndarray:
    """E(|x><y|) = sum_k E_k |x><y| E_k^dag, stacked at index 2x + y, for G
    points at once: shape ``(G, 4, 2, 2)``. ``kinds`` is one channel kind
    or one per point, ``p`` one strength or one per point. Any other pair
    of lengths is a ``ValueError`` before any work."""
    kinds = [kinds] if isinstance(kinds, str) else list(kinds)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if len(p) != len(kinds):
        if len(p) == 1:
            p = np.broadcast_to(p, (len(kinds),))
        elif len(kinds) != 1:
            raise ValueError(f"{len(kinds)} channel kinds and {len(p)} "
                             "strengths: give one of either, or one per "
                             "point")
    if len(set(kinds)) == 1:
        ops = kraus_stack(kinds[0], p)
        return np.einsum("gkix,gkjy->gxyij", ops, ops.conj()
                         ).reshape(-1, 4, 2, 2)
    corners = np.empty((len(p), 4, 2, 2), dtype=np.complex128)
    for kind in dict.fromkeys(kinds):
        at = np.array([k == kind for k in kinds])
        corners[at] = corner_stack(kind, p[at])
    return corners
