"""Cross-validation between the simulation engine and the closed forms.

Each check compares two independent routes to the same number and reports a
status:

* ``pass`` — the routes agree within the stated tolerance.
* ``FAIL`` — they disagree and no documented classification applies.
* ``classified:<tag>`` — they disagree in a reproducible, explained way (a
  coefficient slip in a stock form, a different channel parametrization, a
  truncated printed polynomial, a reference claim the simulation contradicts).
  Classified findings are reported, not hidden, and do not fail the run.

``run_all`` executes the registry; the CLI renders one line per check and
exits nonzero only on hard failures.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import oracle
from .coins import (calibrate_classical, make_coin_a, make_coin_b,
                    max_payoff_phases, parse_sequence, build_unitary,
                    CoinParams)
from .engine import (CalibrationError, PayoffConvention, calibrate_convention,
                     discover_convention, make_initial_state, play)
from .figures import FIGURES, figure_csv, figure_rows
from .linalg import embed, identity, kron, max_abs
from .noise import (NoiseSpec, apply_channel, completeness_defect,
                    kraus_single, lift_enumerated)

_PI = math.pi
_FIG1 = dict(eps=1 / 168, delta=_PI / 5,
             betas=(_PI / 2, _PI / 2, _PI / 4, _PI / 3))
_PER_QUBIT = PayoffConvention("all", "per_qubit")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str          # "pass" | "FAIL" | "classified:<tag>"
    residual: float      # the measured worst-case discrepancy
    tolerance: float     # what a pass requires (or required, if classified)
    detail: str = ""

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
                ops = lift_enumerated(spec, n)
                summed = sum(e @ rho @ e.conj().T for e in ops)
                worst = max(worst, max_abs(seq - summed))
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
    base: dict = {}
    worst = 0.0
    for gamma in (0.0, 1.1, 5.9):
        for alpha in (0.0, 0.7, 2.3):
            cfg = calibrate_classical(
                _FIG1["eps"], gamma=gamma, delta=_FIG1["delta"],
                alphas=(alpha, 0.3, alpha, 1.9), betas=_FIG1["betas"])
            for kind in ("ad", "dp", "pd"):
                value = play("AAB", cfg, NoiseSpec(kind, 0.4)).payoff
                worst = max(worst, abs(value - base.setdefault(kind, value)))
    return _result("gamma_alpha_independence", worst, 1e-10)


def check_coin_unitarity() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(12):
        theta = float(rng.uniform(-_PI, _PI))
        gamma, delta = (float(rng.uniform(0, 2 * _PI)) for _ in range(2))
        a = make_coin_a(CoinParams(theta, gamma, delta))
        worst = max(worst, max_abs(a @ a.conj().T - identity(2)))
    cfg = _fig1_config()
    b = make_coin_b(cfg.coin_b)
    worst = max(worst, max_abs(b @ b.conj().T - identity(8)))
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
    """Compiled unitaries equal literally assembled tensor products."""
    cfg = _fig1_config()
    a = make_coin_a(cfg.coin_a)
    b = make_coin_b(cfg.coin_b)
    id2 = identity(2)
    worst = 0.0
    # B chains: each successive factor places B one qubit later.
    for n in (1, 2, 3):
        u = build_unitary(parse_sequence("B" * n), cfg)
        literal = identity(2 ** (n + 2))
        for k in range(n):
            pads = [id2] * (n - 1)
            pads.insert(k, b)
            literal = kron(*pads) @ literal
        worst = max(worst, max_abs(u - literal))
    # Repeated AAB blocks never share qubits, so the compiled unitary is a
    # tensor power of the single-block unitary.
    block = build_unitary(parse_sequence("AAB"), cfg)
    for n in (1, 2, 3):
        u = build_unitary(parse_sequence(f"(AAB)^{n}"), cfg)
        worst = max(worst, max_abs(u - kron(*([block] * n))))
    # And embed() itself: A acting on qubit 1 of 3.
    worst = max(worst, max_abs(embed(a, 1, 3) - kron(id2, a, id2)))
    return _result("compiler_products", worst, 1e-13)


def check_initial_state() -> CheckResult:
    rho = make_initial_state(3)
    worst = abs(np.trace(rho).real - 1.0)
    worst = max(worst, max_abs(rho - rho.conj().T))
    worst = max(worst, max_abs(rho @ rho - rho))   # purity
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[0, 7] = expected[7, 0] = expected[7, 7] = 0.5
    worst = max(worst, max_abs(rho - expected))
    return _result("initial_state", worst, 1e-12)


def check_aab_p0_channel_agreement() -> CheckResult:
    """At p=0 every channel must reproduce the undecohered payoff."""
    cfg = _fig1_config()
    base = play("AAB", cfg, NoiseSpec("none", 0.0)).payoff
    worst = max(abs(play("AAB", cfg, NoiseSpec(kind, 0.0)).payoff - base)
                for kind in ("ad", "dp", "pd"))
    return _result("aab_p0_channel_agreement", worst, 1e-12)


def check_aab_ad_tracks_reference() -> CheckResult:
    """Simulated AAB payoff vs the amplitude-damping closed form."""
    worst = 0.0
    phase_sets = (
        _FIG1,
        dict(eps=1 / 112, delta=_PI / 3,
             betas=(_PI / 6, _PI, _PI / 5, 2 * _PI / 3)),
    )
    for ps in phase_sets:
        cfg = calibrate_classical(ps["eps"], delta=ps["delta"],
                                  betas=ps["betas"])
        for p in np.linspace(0.0, 1.0, 11):
            sim = play("AAB", cfg, NoiseSpec("ad", float(p))).payoff
            ref = oracle.aab("ad", float(p), cfg)
            worst = max(worst, abs(sim - ref))
    return _result("aab_ad_tracks_reference", worst, 1e-9)


def _misprint_check(check_id, kind, tag, detail) -> CheckResult:
    cfg = _fig1_config()
    stock = corrected = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        sim = play("AAB", cfg, NoiseSpec(kind, float(p))).payoff
        stock = max(stock, abs(sim - oracle.aab(kind, float(p), cfg)))
        corrected = max(corrected, abs(
            sim - oracle.aab(kind, float(p), cfg, corrected=True)))
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


def check_convention_search() -> CheckResult:
    """The direct mask x normalization search must come up empty..."""
    try:
        convention = calibrate_convention()
    except CalibrationError as err:
        best = min(max(rows.values()) for rows in err.residuals.values())
        return _classified(
            "convention_search", "no-direct-match", best, 1e-6,
            "no candidate over printed-order x mask x {total,per_game} "
            f"reproduces the chain values (best residual {best:.3g}); "
            "the extended search below pins the working convention")
    return CheckResult("convention_search", "FAIL", 0.0, 1e-6,
                       f"unexpectedly matched {convention.name}")


def check_convention_discovery() -> CheckResult:
    """...while the extended search pins exactly one working convention."""
    finding = discover_convention()
    cell = (finding.assignment, finding.convention.mask,
            finding.convention.normalization)
    rows = finding.residuals[f"{cell[0]}/{cell[1]}-{cell[2].replace('_', '')}"]
    worst = max(rows[row] for row in finding.anchor_rows
                if not row.startswith("BBB"))
    expected = ("canonical", "all", "per_qubit")
    if cell != expected:
        return CheckResult("convention_discovery", "FAIL", worst, 1e-6,
                           f"found {cell}, expected {expected}")
    return _result("convention_discovery", worst, 1e-6,
                   "reversed probability order, all qubits, per-qubit "
                   "normalization")


def _chain_play(seq, kind, p, eps):
    cfg = calibrate_classical(eps, betas=max_payoff_phases(0.0),
                              assignment="canonical")
    return play(seq, cfg, NoiseSpec(kind, p), _PER_QUBIT).payoff


def check_chain_b1_b2_track_reference() -> CheckResult:
    """Single and double B games vs their closed forms (ad and pd)."""
    worst = 0.0
    for seq, n in (("B", 1), ("BB", 2)):
        for kind in ("ad", "pd"):
            for eps in (1 / 168, 1 / 112):
                for p in np.linspace(0.0, 1.0, 11):
                    sim = _chain_play(seq, kind, float(p), eps)
                    ref = oracle.chain_b(n, kind, float(p), eps)
                    worst = max(worst, abs(sim - ref))
    return _result("chain_b1_b2_track_reference", worst, 1e-6)


def check_chain_dp_scaling() -> CheckResult:
    """The depolarizing chain forms assume a p/3-per-flip parametrization:
    simulating at strength p matches the forms evaluated at 3p/4."""
    direct = rescaled = 0.0
    for seq, n in (("B", 1), ("BB", 2)):
        for eps in (1 / 168, 1 / 112):
            for p in np.linspace(0.0, 1.0, 11):
                sim = _chain_play(seq, "dp", float(p), eps)
                direct = max(direct, abs(
                    sim - oracle.chain_b(n, "dp", float(p), eps)))
                rescaled = max(rescaled, abs(
                    sim - oracle.chain_b(n, "dp", 0.75 * float(p), eps)))
    if rescaled <= 1e-9 and direct > 1e-3:
        return _classified(
            "chain_dp_scaling", "channel-scaling", rescaled, 1e-9,
            f"direct evaluation off by {direct:.3g}; strength remap "
            "p -> 3p/4 agrees to machine precision")
    return _result("chain_dp_scaling", rescaled, 1e-9,
                   f"direct residual {direct:.3g}")


def check_chain_b3_pd() -> CheckResult:
    """Triple-B phase-damping form (two-decimal coefficients)."""
    worst = 0.0
    for eps in (1 / 168, 1 / 112):
        for p in (0.0, 0.5, 1.0):
            worst = max(worst, abs(_chain_play("BBB", "pd", p, eps)
                                   - oracle.chain_b(3, "pd", p, eps)))
    return _result("chain_b3_pd", worst, 5e-3)


def check_chain_b3_ad_truncation() -> CheckResult:
    """The triple-B amplitude-damping cubic is truncated: its constant term
    agrees with simulation at coefficient-rounding level, but its
    p-dependence underestimates the decay (gap ~2e-2 at p=0.5, ~2.8e-1 at
    p=1)."""
    at_zero = abs(_chain_play("BBB", "ad", 0.0, 1 / 168)
                  - oracle.chain_b(3, "ad", 0.0, 1 / 168))
    worst = at_zero
    for p in np.linspace(0.0, 1.0, 11):
        worst = max(worst, abs(_chain_play("BBB", "ad", float(p), 1 / 168)
                               - oracle.chain_b(3, "ad", float(p), 1 / 168)))
    if at_zero <= 5e-3 < worst:
        return _classified(
            "chain_b3_ad_truncation", "truncated-cubic", worst, 5e-3,
            f"agrees at p=0 ({at_zero:.1e}) then diverges with p; "
            "rounding alone cannot explain the gap")
    return _result("chain_b3_ad_truncation", worst, 5e-3)


def check_a_series() -> CheckResult:
    """All-A chains at the phase-neutral point delta = pi/2.

    A lone A keeps a coherent term proportional to cos(delta)*sqrt(1-p); at
    delta = pi/2 it vanishes, isolating the decoherence effect. There the
    payoff is exactly 0 for depolarizing and phase damping and exactly
    -2*eps*p for amplitude damping, at every length. The stock slope
    -(3/32)*eps*p matches at no chain length."""
    worst_zero = 0.0
    worst_linear = 0.0
    matches = []
    for n in (1, 2, 3, 4):
        seq = "A" * n
        stock_worst = 0.0
        for eps in (1 / 168, 1 / 112):
            cfg = calibrate_classical(eps, delta=_PI / 2,
                                      assignment="canonical")
            for p in (0.0, 0.25, 0.5, 1.0):
                for kind in ("dp", "pd"):
                    worst_zero = max(worst_zero, abs(play(
                        seq, cfg, NoiseSpec(kind, p), _PER_QUBIT).payoff))
                sim = play(seq, cfg, NoiseSpec("ad", p), _PER_QUBIT).payoff
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
    worst = 0.0
    for eps in (1 / 168, 1 / 112):
        cfg = calibrate_classical(eps, betas=max_payoff_phases(0.0),
                                  assignment="canonical")
        sim = play("(AAB)^2", cfg, NoiseSpec("none", 0.0), _PER_QUBIT).payoff
        worst = max(worst, abs(sim - (2 / 15) * eps))
    return _result("series_aab_p0", worst, 1e-9)


def check_series_aab_tracks_reference() -> CheckResult:
    """Repeated-AAB series vs its closed forms.

    The reference coefficients are printed to two decimals, so the deviation
    scales with eps (the same residual/eps profile appears at both eps
    values); the check therefore bounds |sim - ref| / eps. The exact-at-p=0
    value has its own tight check above."""
    worst = 0.0
    for eps in (1 / 168, 1 / 112):
        cfg = calibrate_classical(eps, betas=max_payoff_phases(0.0),
                                  assignment="canonical")
        for kind in ("ad", "dp", "pd"):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                sim = play("(AAB)^2", cfg, NoiseSpec(kind, p),
                           _PER_QUBIT).payoff
                worst = max(worst, abs(
                    sim - oracle.series_aab(kind, p, eps)) / eps)
    return _result("series_aab_tracks_reference", worst, 3e-2,
                   "residual measured relative to eps (rounded reference "
                   "coefficients)")


def check_series_aab_stability() -> CheckResult:
    """The per-qubit series payoff does not depend on the chain length."""
    cfg = calibrate_classical(1 / 168, betas=max_payoff_phases(0.0),
                              assignment="canonical")
    worst = 0.0
    for kind in ("ad", "dp"):
        for p in (0.0, 0.5):
            two = play("(AAB)^2", cfg, NoiseSpec(kind, p), _PER_QUBIT).payoff
            three = play("(AAB)^3", cfg, NoiseSpec(kind, p),
                         _PER_QUBIT).payoff
            worst = max(worst, abs(two - three))
    return _result("series_aab_stability", worst, 1e-12)


def check_chain_phase_independence() -> CheckResult:
    """Pure-B chain payoffs ignore the quantum phases entirely."""
    worst = 0.0
    phase_sets = ((0.0, 0.0, 0.0, 0.0), max_payoff_phases(_PI / 5),
                  (_PI / 7, 1.1, 2.2, 5.5))
    for seq in ("B", "BB"):
        base = None
        for betas in phase_sets:
            cfg = calibrate_classical(1 / 168, delta=_PI / 5, betas=betas,
                                      assignment="canonical")
            val = play(seq, cfg, NoiseSpec("ad", 0.3), _PER_QUBIT).payoff
            if base is None:
                base = val
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
    return [check() for check in CHECKS]


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
