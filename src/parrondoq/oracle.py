"""Closed-form reference payoffs, independent of the simulation engine.

Every function here evaluates an analytic expression directly — no matrices,
no channels — so the engine and these forms can cross-check each other.

Conventions baked into the chain/series forms (``chain_b``, ``series_aab``,
``series_a_ad``): the payoff is the score expectation divided by the register
size, the B-coin winning probabilities are assigned in reversed list order
(the 9/10 branch on history 00), and the phase angles sit at the
payoff-maximizing choice for the given delta. The single-round forms
(``aab_*``) take explicit angles and use the raw (unnormalized) score sum
over all three qubits.

Known coefficient slips in the stock forms, isolated by the cross-checks in
``verify``: ``aab_dp`` carries two factor-of-two discrepancies (the leading
cos 2theta term and the beta_4 cross term) and ``aab_pd`` carries one (the
beta_4 cross term). Pass ``corrected=True`` for the unit-coefficient
versions, which match simulation to machine precision.
"""
from __future__ import annotations

import math

from .coins import GameConfig


def _phase_terms(delta, phis, betas):
    """cos(2*delta + beta_i) and sin(2*phi_i) for the four B-coin branches."""
    ks = tuple(math.cos(2 * delta + b) for b in betas)
    ss = tuple(math.sin(2 * f) for f in phis)
    return ks, ss


def aab_ad(p: float, theta: float, delta: float,
           phis: tuple, betas: tuple) -> float:
    """Amplitude-damping closed form for one AAB round (raw score sum)."""
    c = [math.cos(f) ** 2 for f in phis]
    (k1, k2, k3, k4), (s1, s2, s3, s4) = _phase_terms(delta, phis, betas)
    c1, c2, c3, c4 = c
    ct2 = math.cos(theta) ** 2
    q = 3 - 6 * p + 4 * p * p          # recurring cubic coefficient
    root = math.sqrt(1 - p)
    out = 3 * p + c1 - c4
    out += p * ((-4 + (5 - 2 * p) * p) * c1
                + (-1 + 2 * p) * ((-1 + p) * (c2 + c3) - p * c4))
    out += ct2 ** 2 * (
        p * (-q) * math.cos(2 * phis[0])
        + p * q * math.cos(2 * phis[1])
        + 2 * p * q * c3 - 2 * p * q * c4
        + root ** 3 * (-k1 * s1 + k2 * s2 + k3 * s3 - k4 * s4)
    )
    out += ct2 * (
        -4 * p + 2 * (1 - 2 * p) ** 2 * (-1 + p) * c1
        - 2 * p * q * c2 - 2 * p * q * c3
        + 2 * c4 + 2 * (1 - 2 * p) ** 2 * p * c4
        + root * k1 * s1
        + root * (-p * k1 * s1
                  + (-1 + p) * (k2 * s2 + k3 * s3 - k4 * s4))
    )
    return out


def aab_dp(p: float, theta: float, delta: float, phis: tuple, betas: tuple,
           corrected: bool = False) -> float:
    """Depolarizing closed form for one AAB round (raw score sum)."""
    c1 = math.cos(phis[0]) ** 2
    c4 = math.cos(phis[3]) ** 2
    (k1, k2, k3, k4), (s1, s2, s3, s4) = _phase_terms(delta, phis, betas)
    lead = 1.0 if corrected else 2.0
    tail = 1.0 if corrected else 2.0
    cs = math.cos(theta) ** 2 * math.sin(theta) ** 2
    return (1 - p) ** 2 * (
        lead * math.cos(2 * theta) * (-c1 + c4)
        + (-1 + p) * cs * (-k1 * s1 + k2 * s2 + k3 * s3 - tail * k4 * s4)
    )


def aab_pd(p: float, theta: float, delta: float, phis: tuple, betas: tuple,
           corrected: bool = False) -> float:
    """Phase-damping closed form for one AAB round (raw score sum)."""
    c1 = math.cos(phis[0]) ** 2
    c4 = math.cos(phis[3]) ** 2
    (k1, k2, k3, k4), (s1, s2, s3, s4) = _phase_terms(delta, phis, betas)
    tail = 1.0 if corrected else 2.0
    cs = math.cos(theta) ** 2 * math.sin(theta) ** 2
    return (math.cos(2 * theta) * (-c1 + c4)
            - (1 - p) ** 1.5 * cs
            * (-k1 * s1 + k2 * s2 + k3 * s3 - tail * k4 * s4))


def aab(kind: str, p: float, cfg: GameConfig, corrected: bool = False
        ) -> float:
    """Dispatch the single-round AAB form for a channel kind.

    "none" evaluates the undecohered value (all three forms agree at p=0).
    """
    theta = cfg.coin_a.theta
    delta = cfg.coin_a.delta
    phis = tuple(coin.theta for coin in cfg.coin_b)
    betas = tuple(coin.delta for coin in cfg.coin_b)
    if kind == "ad":
        return aab_ad(p, theta, delta, phis, betas)
    if kind == "dp":
        return aab_dp(p, theta, delta, phis, betas, corrected)
    if kind == "pd":
        return aab_pd(p, theta, delta, phis, betas, corrected)
    if kind == "none":
        return aab_ad(0.0, theta, delta, phis, betas)
    raise ValueError(f"unknown channel kind {kind!r}")


def aab_phase_moments(cfg: GameConfig) -> tuple[float, float]:
    """(C, S) such that the corrected AAB forms depend on delta only through
    sum_i w_i cos(2 delta + beta_i) = C cos 2delta - S sin 2delta.

    Here w = (-sin 2phi_1, sin 2phi_2, sin 2phi_3, -sin 2phi_4),
    C = sum_i w_i cos beta_i and S = sum_i w_i sin beta_i. The payoff is
    therefore mirror-symmetric in delta about pi/2 - atan2(S, C)/2 (mod
    pi/2), and about delta = pi/2 exactly when S = 0.
    """
    signs = (-1.0, 1.0, 1.0, -1.0)
    c = s = 0.0
    for sign, coin in zip(signs, cfg.coin_b):
        w = sign * math.sin(2 * coin.theta)
        c += w * math.cos(coin.delta)
        s += w * math.sin(coin.delta)
    return c, s


def series_aab(kind: str, p: float, eps: float) -> float:
    """Per-qubit payoff of the long repeated-AAB series (n-independent)."""
    if kind == "ad":
        return p / 60 + (2 / 15 - 2.27 * p + 0.27 * p * p) * eps
    if kind == "dp":
        return (2 / 15 - 0.35 * p + 0.24 * p * p) * eps
    if kind in ("pd", "none"):
        return (2 / 15) * eps
    raise ValueError(f"unknown channel kind {kind!r}")


def chain_b(n_games: int, kind: str, p: float, eps: float) -> float:
    """Per-qubit payoff for a chain of 1, 2 or 3 B games.

    "none" maps to the phase-damping branch, whose value is p-independent
    and equals the undecohered payoff.
    """
    if kind == "none":
        kind = "pd"
    if kind not in ("ad", "dp", "pd"):
        raise ValueError(f"unknown channel kind {kind!r}")
    if n_games == 1:
        if kind == "ad":
            return (2 + p * (-7 - 20 * eps + p * (-29 + 22 * p))) / 30
        if kind == "dp":
            return (3 - 4 * p) ** 2 / 135
        return 1 / 15
    if n_games == 2:
        if kind == "ad":
            return (13 - 2 * p * (67 + 2 * p * (51 - 64 * p + 22 * p * p))
                    + 10 * eps * (2 + p * (-11 - 62 * p + 44 * p * p))) / 400
        if kind == "dp":
            return ((3 - 4 * p) ** 2
                    * (117 + 180 * eps + 88 * (3 - 2 * p) * p)) / 32400
        return 13 / 400 + eps / 20
    if n_games == 3:
        # Two-decimal coefficients; expect only ~5e-3 agreement.
        if kind == "ad":
            return ((0.017 - 0.41 * p - 0.13 * p * p + 0.45 * p ** 3)
                    + (0.03 - 1.11 * p + 0.44 * p * p - 2.66 * p ** 3) * eps)
        if kind == "dp":
            return ((0.017 + 0.01 * p - 0.13 * p * p + 0.10 * p ** 3)
                    + (0.03 + 0.15 * p - 0.73 * p * p + 0.83 * p ** 3) * eps)
        return 0.017 + 0.03 * eps
    raise ValueError("chain forms cover 1, 2 or 3 games")


def series_a_ad(p: float, eps: float) -> float:
    """Stock amplitude-damping slope for the all-A series.

    Simulation gives -2*eps*p for every chain length >= 2 instead; verify
    reports the discrepancy. Depolarizing and phase damping give exactly 0.
    """
    return -(3 / 32) * eps * p
