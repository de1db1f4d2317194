"""Cross-validation between the simulation engine and the closed forms.

Each check compares two independent routes to the same number and reports a
status:

* ``pass`` — the routes agree within the stated tolerance.
* ``FAIL`` — they disagree and no documented classification applies.
* ``classified:<tag>`` — they disagree in a reproducible, explained way (a
  coefficient slip in a stock form, a different channel parametrization, a
  truncated printed polynomial, a reference claim the simulation contradicts).
  Classified findings are reported, not hidden, and do not fail the run.

A check that compares over a grid of strengths, channels, phases or biases
builds its ``(GameConfig, NoiseSpec)`` points first and plays them with one
``engine.play_many`` call per sequence, calibrating one configuration per
distinct set of knobs; only the timing check plays a single point. A batch
returns exactly the payoffs of the same points played one by one, so the
residuals do not depend on the batching.

The payoff-convention searches live here too: they compare the B chains
with their quoted values as the chain checks do, with the same point rule
(``_chain_points``), eps pair and per-length tolerances.

``run_all`` executes the registry and records each check's wall time on its
result; the CLI renders one line per check and exits nonzero only on hard
failures.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from . import oracle
from .coins import (calibrate_classical, embed, make_coin_a, make_coin_b,
                    max_payoff_phases, parse_sequence, CoinParams)
from .engine import (DEFAULT_CONVENTION, MASKS, NORMALIZATIONS,
                     PayoffConvention, _score, play, play_many)
from .figures import FIGURES, figure_csv, figure_rows
from .noise import NoiseSpec, completeness_defect, kraus_single
from .reference import (apply_channel, build_unitary, lift_enumerated,
                        make_initial_state)

_PI = math.pi
_FIG1 = dict(eps=1 / 168, delta=_PI / 5,
             betas=(_PI / 2, _PI / 2, _PI / 4, _PI / 3))
_PER_QUBIT = PayoffConvention("all", "per_qubit")
#: The strength grid most checks sweep: 0, 0.1, ..., 1.
_P11 = [float(p) for p in np.linspace(0.0, 1.0, 11)]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str          # "pass" | "FAIL" | "classified:<tag>"
    residual: float      # the measured worst-case discrepancy
    tolerance: float     # what a pass requires (or required, if classified)
    detail: str = ""
    #: wall time of the check in seconds, filled in by ``run_all``
    elapsed: float = field(default=0.0, compare=False)

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"


def _result(check_id, residual, tolerance, detail=""):
    status = "pass" if residual <= tolerance else "FAIL"
    return CheckResult(check_id, status, float(residual), tolerance, detail)


def _classified(check_id, tag, residual, tolerance, detail):
    return CheckResult(check_id, f"classified:{tag}", float(residual),
                       tolerance, detail)


def _fig1_config(assignment="printed"):
    return calibrate_classical(_FIG1["eps"], delta=_FIG1["delta"],
                               betas=_FIG1["betas"], assignment=assignment)


def _payoffs(sequence, points, convention=DEFAULT_CONVENTION) -> list:
    """Payoffs of ``sequence`` at every ``(GameConfig, NoiseSpec)`` point, in
    order, from one batched sweep."""
    return [report.payoff
            for report in play_many(sequence, points, convention)]


def check_kraus_completeness() -> CheckResult:
    """Every channel's operators satisfy sum E^dag E = I at every p."""
    worst = 0.0
    for kind in ("ad", "dp", "pd", "none"):
        for p in np.linspace(0.0, 1.0, 11):
            worst = max(worst, completeness_defect(kraus_single(
                NoiseSpec(kind, float(p)))))
    return _result("kraus_completeness", worst, 1e-12)


def check_channel_routes_agree() -> CheckResult:
    """Per-qubit sequential application equals the enumerated lifted sum."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n in (1, 2, 3, 4):
        dim = 2 ** n
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        for kind in ("ad", "dp", "pd"):
            for p in (0.0, 0.3, 1.0):
                spec = NoiseSpec(kind, p)
                seq = apply_channel(rho, spec)
                ops = np.array(lift_enumerated(spec, n))
                summed = (ops @ rho @ ops.conj().swapaxes(-1, -2)).sum(axis=0)
                worst = max(worst, np.abs(seq - summed).max())
    return _result("channel_routes_agree", worst, 1e-12)


def check_pd_diagonal_invariance() -> CheckResult:
    """Phase damping never changes populations, only coherences. The Kraus
    pair is diagonal, so the invariance is exact up to a couple of ulps."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (1, 2, 3):
        dim = 2 ** n
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        for p in (0.0, 0.3, 0.77, 1.0):
            out = apply_channel(rho, NoiseSpec("pd", p))
            worst = max(worst, float(np.max(np.abs(
                np.diag(out) - np.diag(rho)))))
    return _result("pd_diagonal_invariance", worst, 1e-15)


def check_gamma_alpha_independence() -> CheckResult:
    """The payoff never depends on the gamma-type phases of either coin."""
    points = []
    for gamma in (0.0, 1.1, 5.9):
        for alpha in (0.0, 0.7, 2.3):
            cfg = calibrate_classical(
                _FIG1["eps"], gamma=gamma, delta=_FIG1["delta"],
                alphas=(alpha, 0.3, alpha, 1.9), betas=_FIG1["betas"])
            points += [(cfg, NoiseSpec(kind, 0.4))
                       for kind in ("ad", "dp", "pd")]
    base: dict = {}
    worst = 0.0
    for (_, noise), value in zip(points, _payoffs("AAB", points)):
        worst = max(worst, abs(value - base.setdefault(noise.kind, value)))
    return _result("gamma_alpha_independence", worst, 1e-10)


def check_coin_unitarity() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(12):
        theta = float(rng.uniform(-_PI, _PI))
        gamma, delta = (float(rng.uniform(0, 2 * _PI)) for _ in range(2))
        a = make_coin_a(CoinParams(theta, gamma, delta))
        worst = max(worst, np.abs(a @ a.conj().T - np.eye(2)).max())
    cfg = _fig1_config()
    b = make_coin_b(cfg.coin_b)
    worst = max(worst, np.abs(b @ b.conj().T - np.eye(8)).max())
    return _result("coin_unitarity", worst, 1e-12)


def check_compiler_layout() -> CheckResult:
    """Register sizes, seed counts and history wiring of parsed sequences."""
    bad = 0
    plan = parse_sequence("AAB")
    bad += plan.total_qubits != 3 or plan.seed_count != 0
    bad += plan.games[2].history != (0, 1)
    plan = parse_sequence("B")
    bad += plan.total_qubits != 3 or plan.seed_count != 2
    bad += plan.games[0].history != (0, 1) or plan.games[0].target != 2
    plan = parse_sequence("(AAB)^3")
    bad += plan.total_qubits != 9 or len(plan.games) != 9
    bad += plan.games[5].history != (3, 4)
    plan = parse_sequence("AB^2")
    bad += plan.total_qubits != 4 or plan.seed_count != 1
    bad += plan.games[1].history != (0, 1) or plan.games[2].history != (1, 2)
    return _result("compiler_layout", float(bad), 0.5,
                   "structural mismatches" if bad else "")


def check_compiler_products() -> CheckResult:
    """Axis-wise compiled unitaries equal literally assembled tensor
    products."""
    cfg = _fig1_config()
    a = make_coin_a(cfg.coin_a)
    b = make_coin_b(cfg.coin_b)
    id2 = np.eye(2)
    worst = 0.0
    # B chains: each successive factor lifts B one qubit later.
    for n in (1, 2, 3):
        u = build_unitary(parse_sequence("B" * n), cfg)
        literal = np.eye(2 ** (n + 2))
        for k in range(n):
            literal = embed(b, k, n + 2) @ literal
        worst = max(worst, np.abs(u - literal).max())
    # Repeated AAB blocks never share qubits, so the compiled unitary is a
    # tensor power of the single-block unitary.
    block = build_unitary(parse_sequence("AAB"), cfg)
    for n in (1, 2, 3):
        u = build_unitary(parse_sequence(f"(AAB)^{n}"), cfg)
        worst = max(worst, np.abs(u - reduce(np.kron, [block] * n)).max())
    # And embed() itself: A on qubit 1 of 3, B on qubits 1-3 of 4.
    for lifted, factors in ((embed(a, 1, 3), (id2, a, id2)),
                            (embed(b, 1, 4), (id2, b))):
        worst = max(worst, np.abs(lifted - reduce(np.kron, factors)).max())
    return _result("compiler_products", worst, 1e-13)


def check_initial_state() -> CheckResult:
    rho = make_initial_state(3)
    worst = abs(np.trace(rho).real - 1.0)
    worst = max(worst, np.abs(rho - rho.conj().T).max())
    worst = max(worst, np.abs(rho @ rho - rho).max())   # purity
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[0, 7] = expected[7, 0] = expected[7, 7] = 0.5
    worst = max(worst, np.abs(rho - expected).max())
    return _result("initial_state", worst, 1e-12)


def check_aab_p0_channel_agreement() -> CheckResult:
    """At p=0 every channel must reproduce the undecohered payoff."""
    cfg = _fig1_config()
    base, *others = _payoffs("AAB", [(cfg, NoiseSpec(kind, 0.0)) for kind
                                     in ("none", "ad", "dp", "pd")])
    worst = max(abs(value - base) for value in others)
    return _result("aab_p0_channel_agreement", worst, 1e-12)


def check_aab_ad_tracks_reference() -> CheckResult:
    """Simulated AAB payoff vs the amplitude-damping closed form."""
    phase_sets = (
        _FIG1,
        dict(eps=1 / 112, delta=_PI / 3,
             betas=(_PI / 6, _PI, _PI / 5, 2 * _PI / 3)),
    )
    configs = [calibrate_classical(ps["eps"], delta=ps["delta"],
                                   betas=ps["betas"]) for ps in phase_sets]
    points = [(cfg, NoiseSpec("ad", p)) for cfg in configs for p in _P11]
    worst = max(abs(sim - oracle.aab("ad", noise.p, cfg))
                for (cfg, noise), sim in zip(points, _payoffs("AAB", points)))
    return _result("aab_ad_tracks_reference", worst, 1e-9)


def _misprint_check(check_id, kind, tag, detail) -> CheckResult:
    cfg = _fig1_config()
    sims = _payoffs("AAB", [(cfg, NoiseSpec(kind, p)) for p in _P11])
    stock = corrected = 0.0
    for p, sim in zip(_P11, sims):
        stock = max(stock, abs(sim - oracle.aab(kind, p, cfg)))
        corrected = max(corrected, abs(
            sim - oracle.aab(kind, p, cfg, corrected=True)))
    if corrected <= 1e-9 and stock > 1e-3:
        return _classified(
            check_id, tag, corrected, 1e-9,
            f"stock form off by {stock:.3g}; {detail}")
    return _result(check_id, corrected, 1e-9,
                   f"stock residual {stock:.3g}")


def check_aab_dp_coefficients() -> CheckResult:
    return _misprint_check(
        "aab_dp_coefficients", "dp", "misprint",
        "unit coefficients on the cos 2theta and beta_4 terms match "
        "simulation to machine precision")


def check_aab_pd_coefficients() -> CheckResult:
    return _misprint_check(
        "aab_pd_coefficients", "pd", "misprint",
        "unit coefficient on the beta_4 term matches simulation to "
        "machine precision")


# ---------------------------------------------------------------------------
# B chains against their quoted values: the convention searches and checks.

#: The two biases the chain and series values are quoted at.
_CHAIN_EPS = (1 / 168, 1 / 112)
#: Chain-value tolerance by number of B games; chain_b3's printed
#: coefficients are rounded to two decimals.
_CHAIN_TOL = {1: 1e-6, 2: 1e-6, 3: 5e-3}


def _chain_points(grid) -> list:
    """``(GameConfig, NoiseSpec)`` of every ``(channel, p, eps, order)`` of
    ``grid``, in order: the max-payoff phases and the given probability
    order, with one calibrated configuration per distinct (eps, order)."""
    keys = dict.fromkeys((eps, order) for _, _, eps, order in grid)
    configs = {(eps, order): calibrate_classical(
        eps, betas=max_payoff_phases(0.0), assignment=order)
        for eps, order in keys}
    return [(configs[eps, order], NoiseSpec(kind, p))
            for kind, p, eps, order in grid]


def _chain_play(seq, grid) -> list:
    """Per-qubit payoffs of ``seq`` at every ``(channel, p, eps)`` of
    ``grid``, in order, from one batched sweep in canonical order."""
    return _payoffs(seq, _chain_points([(*point, "canonical")
                                        for point in grid]), _PER_QUBIT)


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


def _chain_search(orders, normalizations, rows=None) -> tuple:
    """The candidates (probability order, convention) within the chain
    tolerance of each row's length on ``rows``, or on every row, and the
    residual table: candidate name -> {"seq:channel": max |simulated -
    reference| over both eps and p in {0, 0.25, 0.5}}.

    Each chain sequence is played once, as one batch over every order, eps,
    strength and channel; every candidate convention scores that batch."""
    kinds = ("ad", "dp", "pd")
    conventions = [PayoffConvention(mask, norm) for mask in MASKS
                   for norm in normalizations]
    table = {(order, c): {} for order in orders for c in conventions}
    grid = [(kind, p, eps, order) for order in orders for eps in _CHAIN_EPS
            for p in (0.0, 0.25, 0.5) for kind in kinds]
    points = _chain_points(grid)
    for seq in ("B", "BB", "BBB"):
        plan = parse_sequence(seq)
        per_qubit = [report.per_qubit for report in play_many(seq, points)]
        refs = np.array([oracle.chain_b(len(seq), kind, p, eps)
                         for kind, p, eps, _ in grid])
        names = [f"{seq}:{kind}" for kind in kinds]
        for c in conventions:
            # grid axes: order, then eps and p, then channel
            worst = np.abs(_score(per_qubit, plan, c) - refs).reshape(
                len(orders), -1, len(kinds)).max(axis=1)
            for order, residuals in zip(orders, worst.tolist()):
                table[order, c].update(zip(names, residuals))
    matches = [cell for cell, residuals in table.items()
               if all(residuals[row] <= _CHAIN_TOL[len(row.split(":")[0])]
                      for row in rows or residuals)]
    return matches, {f"{order}/{c.name}": residuals
                     for (order, c), residuals in table.items()}


def calibrate_convention() -> PayoffConvention:
    """Search mask x {total, per_game} for a convention that reproduces the
    chain reference values (printed probability order).

    Raises CalibrationError with the full residual table when none matches —
    which is the actual outcome here; see discover_convention for the
    extended search that does succeed.
    """
    matches, named = _chain_search(("printed",), ("total", "per_game"))
    if matches:
        return matches[0][1]
    raise CalibrationError(
        "no candidate convention reproduces the chain reference values; "
        "best residuals per candidate: "
        + ", ".join(f"{name}={max(rows.values()):.3g}"
                    for name, rows in sorted(named.items())),
        named,
    )


#: Rows used to anchor the extended search. The dp rows are excluded (the
#: reference dp rows assume a different channel scaling, as
#: check_chain_dp_scaling classifies) and chain_b3's ad row is excluded
#: (truncated printed cubic).
_ANCHOR_ROWS = ("B:ad", "B:pd", "BB:ad", "BB:pd", "BBB:pd")


def discover_convention() -> ConventionFinding:
    """Extended search: probability-list order x mask x normalization.

    Anchors on the amplitude-damping and phase-damping chain rows, which pin
    a unique candidate: canonical order, all qubits, per-qubit normalization.
    """
    matches, named = _chain_search(("printed", "canonical"), NORMALIZATIONS,
                                   _ANCHOR_ROWS)
    if len(matches) != 1:
        raise CalibrationError(
            f"extended search found {len(matches)} matching conventions "
            "(expected exactly 1)", named)
    (assignment, convention), = matches
    return ConventionFinding(convention, assignment, named, _ANCHOR_ROWS)


def check_convention_search() -> CheckResult:
    """The direct mask x normalization search must come up empty..."""
    try:
        convention = calibrate_convention()
    except CalibrationError as err:
        best = min(max(rows.values()) for rows in err.residuals.values())
        return _classified(
            "convention_search", "no-direct-match", best, _CHAIN_TOL[1],
            "no candidate over printed-order x mask x {total,per_game} "
            f"reproduces the chain values (best residual {best:.3g}); "
            "the extended search below pins the working convention")
    return CheckResult("convention_search", "FAIL", 0.0, _CHAIN_TOL[1],
                       f"unexpectedly matched {convention.name}")


def check_convention_discovery() -> CheckResult:
    """...while the extended search pins exactly one working convention."""
    try:
        finding = discover_convention()
    except CalibrationError as err:
        return CheckResult("convention_discovery", "FAIL", math.inf,
                           _CHAIN_TOL[1], str(err))
    found = f"{finding.assignment}/{finding.convention.name}"
    worst = max(finding.residuals[found][row] for row in finding.anchor_rows
                if not row.startswith("BBB"))
    if found != "canonical/all-perqubit":
        return CheckResult("convention_discovery", "FAIL", worst,
                           _CHAIN_TOL[1],
                           f"found {found}, expected canonical/all-perqubit")
    return _result("convention_discovery", worst, _CHAIN_TOL[1],
                   "reversed probability order, all qubits, per-qubit "
                   "normalization")


def check_chain_b1_b2_track_reference() -> CheckResult:
    """Single and double B games vs their closed forms (ad and pd)."""
    grid = [(kind, p, eps) for kind in ("ad", "pd")
            for eps in _CHAIN_EPS for p in _P11]
    worst = 0.0
    for seq, n in (("B", 1), ("BB", 2)):
        for (kind, p, eps), sim in zip(grid, _chain_play(seq, grid)):
            worst = max(worst, abs(sim - oracle.chain_b(n, kind, p, eps)))
    return _result("chain_b1_b2_track_reference", worst, _CHAIN_TOL[1])


def check_chain_dp_scaling() -> CheckResult:
    """The depolarizing chain forms assume a p/3-per-flip parametrization:
    simulating at strength p matches the forms evaluated at 3p/4."""
    grid = [("dp", p, eps) for eps in _CHAIN_EPS for p in _P11]
    direct = rescaled = 0.0
    for seq, n in (("B", 1), ("BB", 2)):
        for (_, p, eps), sim in zip(grid, _chain_play(seq, grid)):
            direct = max(direct, abs(sim - oracle.chain_b(n, "dp", p, eps)))
            rescaled = max(rescaled, abs(
                sim - oracle.chain_b(n, "dp", 0.75 * p, eps)))
    if rescaled <= 1e-9 and direct > 1e-3:
        return _classified(
            "chain_dp_scaling", "channel-scaling", rescaled, 1e-9,
            f"direct evaluation off by {direct:.3g}; strength remap "
            "p -> 3p/4 agrees to machine precision")
    return _result("chain_dp_scaling", rescaled, 1e-9,
                   f"direct residual {direct:.3g}")


def check_chain_b3_pd() -> CheckResult:
    """Triple-B phase-damping form (two-decimal coefficients)."""
    grid = [("pd", p, eps) for eps in _CHAIN_EPS for p in (0.0, 0.5, 1.0)]
    worst = max(abs(sim - oracle.chain_b(3, "pd", p, eps))
                for (_, p, eps), sim in zip(grid, _chain_play("BBB", grid)))
    return _result("chain_b3_pd", worst, _CHAIN_TOL[3])


def check_chain_b3_ad_truncation() -> CheckResult:
    """The triple-B amplitude-damping cubic is truncated: its constant term
    agrees with simulation at coefficient-rounding level, but its
    p-dependence underestimates the decay (gap ~2e-2 at p=0.5, ~2.8e-1 at
    p=1)."""
    grid = [("ad", p, _CHAIN_EPS[0]) for p in _P11]
    gaps = [abs(sim - oracle.chain_b(3, "ad", p, eps))
            for (_, p, eps), sim in zip(grid, _chain_play("BBB", grid))]
    at_zero, worst = gaps[0], max(gaps)     # the grid starts at p = 0
    if at_zero <= _CHAIN_TOL[3] < worst:
        return _classified(
            "chain_b3_ad_truncation", "truncated-cubic", worst, _CHAIN_TOL[3],
            f"agrees at p=0 ({at_zero:.1e}) then diverges with p; "
            "rounding alone cannot explain the gap")
    return _result("chain_b3_ad_truncation", worst, _CHAIN_TOL[3])


def check_a_series() -> CheckResult:
    """All-A chains at the phase-neutral point delta = pi/2.

    A lone A keeps a coherent term proportional to cos(delta)*sqrt(1-p); at
    delta = pi/2 it vanishes, isolating the decoherence effect. There the
    payoff is exactly 0 for depolarizing and phase damping and exactly
    -2*eps*p for amplitude damping, at every length. The stock slope
    -(3/32)*eps*p matches at no chain length."""
    configs = {eps: calibrate_classical(eps, delta=_PI / 2,
                                        assignment="canonical")
               for eps in _CHAIN_EPS}
    grid = [(kind, p, eps) for eps in configs
            for p in (0.0, 0.25, 0.5, 1.0) for kind in ("dp", "pd", "ad")]
    points = [(configs[eps], NoiseSpec(kind, p)) for kind, p, eps in grid]
    worst_zero = 0.0
    worst_linear = 0.0
    matches = []
    for n in (1, 2, 3, 4):
        sims = _payoffs("A" * n, points, _PER_QUBIT)
        stock_worst = 0.0
        for (kind, p, eps), sim in zip(grid, sims):
            if kind != "ad":
                worst_zero = max(worst_zero, abs(sim))
                continue
            worst_linear = max(worst_linear, abs(sim - (-2 * eps * p)))
            stock_worst = max(stock_worst,
                              abs(sim - oracle.series_a_ad(p, eps)))
        if stock_worst <= 1e-6:
            matches.append(n)
    worst = max(worst_zero, worst_linear)
    if worst <= 1e-10 and not matches:
        return _classified(
            "a_series", "stock-slope-mismatch", worst, 1e-10,
            "simulation gives -2*eps*p at every length; the stock "
            "-(3/32)*eps*p slope matches at no length in {1,2,3,4}")
    return _result("a_series", worst, 1e-10,
                   f"stock slope matches at lengths {matches}")


def check_series_aab_p0() -> CheckResult:
    """Repeated-AAB series at p=0 equals (2/15)*eps exactly."""
    grid = [("none", 0.0, eps) for eps in _CHAIN_EPS]
    sims = _chain_play("(AAB)^2", grid)
    worst = max(abs(sim - (2 / 15) * eps)
                for (_, _, eps), sim in zip(grid, sims))
    return _result("series_aab_p0", worst, 1e-9)


def check_series_aab_tracks_reference() -> CheckResult:
    """Repeated-AAB series vs its closed forms.

    The reference coefficients are printed to two decimals, so the deviation
    scales with eps (the same residual/eps profile appears at both eps
    values); the check therefore bounds |sim - ref| / eps. The exact-at-p=0
    value has its own tight check above."""
    grid = [(kind, p, eps) for eps in _CHAIN_EPS
            for kind in ("ad", "dp", "pd")
            for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
    sims = _chain_play("(AAB)^2", grid)
    worst = max(abs(sim - oracle.series_aab(kind, p, eps)) / eps
                for (kind, p, eps), sim in zip(grid, sims))
    return _result("series_aab_tracks_reference", worst, 3e-2,
                   "residual measured relative to eps (rounded reference "
                   "coefficients)")


def check_series_aab_stability() -> CheckResult:
    """The per-qubit series payoff does not depend on the chain length."""
    grid = [(kind, p, _CHAIN_EPS[0]) for kind in ("ad", "dp")
            for p in (0.0, 0.5)]
    worst = max(abs(two - three) for two, three in zip(
        _chain_play("(AAB)^2", grid), _chain_play("(AAB)^3", grid)))
    return _result("series_aab_stability", worst, 1e-12)


def check_chain_phase_independence() -> CheckResult:
    """Pure-B chain payoffs ignore the quantum phases entirely."""
    phase_sets = ((0.0, 0.0, 0.0, 0.0), max_payoff_phases(_PI / 5),
                  (_PI / 7, 1.1, 2.2, 5.5))
    points = [(calibrate_classical(1 / 168, delta=_PI / 5, betas=betas,
                                   assignment="canonical"),
               NoiseSpec("ad", 0.3)) for betas in phase_sets]
    worst = 0.0
    for seq in ("B", "BB"):
        base, *others = _payoffs(seq, points, _PER_QUBIT)
        for val in others:
            worst = max(worst, abs(val - base))
    return _result("chain_phase_independence", worst, 1e-12)


def check_fig2_symmetry() -> CheckResult:
    """Claim: payoffs vary symmetrically about delta = pi/2 under
    decoherence. The AAB payoff depends on delta only through
    C cos 2delta - S sin 2delta (``oracle.aab_phase_moments``), so the claim
    holds exactly when S = 0. Preset 2's phases give S = -0.103: the
    phase-damping curve's reflection residual about pi/2 is ~1.8e-2, and its
    symmetry axis is delta* = pi/2 - atan2(S, C)/2 = pi/2 + 0.0704."""
    rows = figure_rows(2)
    pd = {round(v, 12): pay for _, v, ch, pay in rows if ch == "pd"}
    values = sorted(pd)
    worst = 0.0
    paired = 0
    for v in values:
        mirror = (_PI - v) % (2 * _PI)
        match = next((w for w in values if abs(w - mirror) < 1e-9), None)
        if match is not None:
            paired += 1
            worst = max(worst, abs(pd[v] - pd[match]))
    counted = f"{paired} of {len(values)} points paired"
    if worst > 1e-9:
        c, s = oracle.aab_phase_moments(FIGURES[2].point(0.0, "pd")[0])
        return _classified(
            "fig2_symmetry", "asymmetric-about-pi/2", worst, 1e-9,
            f"phase-damping curve reflected about pi/2, {counted}; the "
            f"phases give S = {s:.5g} != 0, so the axis is "
            f"pi/2 - atan2(S, C)/2 = pi/2 + {-0.5 * math.atan2(s, c):.6f}")
    return _result("fig2_symmetry", worst, 1e-9, counted)


def check_performance() -> CheckResult:
    """Nine-qubit triple-AAB depolarizing play inside the time budget.
    ``play`` sweeps a window of at most three qubits, not the
    512-dimensional register."""
    cfg = _fig1_config()
    start = time.perf_counter()
    play("(AAB)^3", cfg, NoiseSpec("dp", 0.3))
    elapsed = time.perf_counter() - start
    return _result("performance_9q_pipeline", elapsed, 0.25,
                   f"{elapsed * 1e3:.2f} ms for the nine-qubit window sweep")


def check_figure_determinism() -> CheckResult:
    same = (figure_csv(1) == figure_csv(1)) and (figure_csv(8) == figure_csv(8))
    header_ok = figure_csv(7).splitlines()[0] == "sweep_var,value,channel,payoff"
    bad = 0.0 if (same and header_ok) else 1.0
    return _result("figure_determinism", bad, 0.5,
                   "repeated renders byte-identical")


CHECKS = (
    check_kraus_completeness,
    check_channel_routes_agree,
    check_pd_diagonal_invariance,
    check_gamma_alpha_independence,
    check_coin_unitarity,
    check_compiler_layout,
    check_compiler_products,
    check_initial_state,
    check_aab_p0_channel_agreement,
    check_aab_ad_tracks_reference,
    check_aab_dp_coefficients,
    check_aab_pd_coefficients,
    check_convention_search,
    check_convention_discovery,
    check_chain_b1_b2_track_reference,
    check_chain_dp_scaling,
    check_chain_b3_pd,
    check_chain_b3_ad_truncation,
    check_a_series,
    check_series_aab_p0,
    check_series_aab_tracks_reference,
    check_series_aab_stability,
    check_chain_phase_independence,
    check_fig2_symmetry,
    check_performance,
    check_figure_determinism,
)


def run_all() -> list:
    """Every check's result, in registry order, each carrying its wall time
    in ``elapsed``."""
    results = []
    for check in CHECKS:
        start = time.perf_counter()
        result = check()
        results.append(replace(result,
                               elapsed=time.perf_counter() - start))
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        lines.append(f"{r.check_id:<32} residual={r.residual:<12.3e} "
                     f"tol={r.tolerance:<8.1e} {r.status}"
                     + (f"  [{r.detail}]" if r.detail else ""))
    n_pass = sum(r.status == "pass" for r in results)
    n_cls = sum(r.status.startswith("classified") for r in results)
    n_fail = sum(r.failed for r in results)
    lines.append(f"verify: {len(results)} checks, {n_pass} pass, "
                 f"{n_cls} classified, {n_fail} fail")
    return "\n".join(lines) + "\n"
