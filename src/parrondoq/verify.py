"""Cross-validation between the simulation engine and the closed forms.

Each check compares two independent routes to the same number and reports a
status:

* ``pass`` — the routes agree within the stated tolerance.
* ``FAIL`` — they disagree and no documented classification applies.
* ``classified:<tag>`` — they disagree in a reproducible, explained way (a
  coefficient slip in a stock form, a different channel parametrization, a
  truncated printed polynomial, a reference claim the simulation contradicts).
  Classified findings are reported, not hidden, and do not fail the run.

The registry ``CHECKS`` is every ``check_*`` function of this module, in
file order; ``REGISTRY`` in ``tests/test_acceptance.py`` pins its ids,
statuses and tolerances. A check over a grid of strengths, channels, phases
or biases builds its ``(GameConfig, NoiseSpec)`` points first and plays them
with one ``engine.play_many`` call per sequence; only the timing check plays
a single point. A batch returns exactly the payoffs of the same points
played one by one, so the residuals do not depend on the batching. The
checks calibrate through two caches of this module, ``_config`` (keyed by
the checks' own knob literals) and ``_preset_config`` (a figure preset's
coins), so the registry's dozen configs are calibrated once per process.

One rule holds the simulation to a printed form (``_classify_printed_form``).
Alone, the printed form passes or fails. Given a model form (a corrected
coefficient, a remapped strength, another slope), the result is
``classified`` when the model form is within tolerance at every point and
the printed form misses by more than 1e-3 on every sequence; otherwise the
model form passes or fails.

Two checks hold the payoff convention. A residual table (``_chain_search``)
scores probability orders and every engine convention on B chain rows, with
the chain checks' points (``_chain_points``), eps pair and per-length
tolerances. Each check plays only the cells it reads:
``check_convention_search`` finds no printed-order cell that fits all nine
rows; ``check_convention_discovery`` finds exactly one cell of both orders
that fits the anchor rows, ``canonical/all-perqubit``.

The three randomized checks (``channel_routes_agree``,
``pd_diagonal_invariance``, ``coin_unitarity``) draw their states and angles
from a seeded stdlib ``random.Random``, so a run never loads ``numpy.random``.

``run_all`` executes the registry, whose checks share no state, and records
each check's wall time on its result; the CLI renders one line per check and
exits nonzero only on hard failures.
"""
from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from . import oracle
from .coins import (calibrate_classical, embed, make_coin_a, make_coin_b,
                    max_payoff_phases, parse_sequence, CoinParams)
from .engine import (CONVENTION_NAMES, DEFAULT_CONVENTION, PayoffConvention,
                     _score, play, play_many)
from .figures import FIGURES, figure_csv, figure_rows
from .noise import NoiseSpec, completeness_defect, kraus_stack
from .reference import (apply_channel, build_unitary, lift_enumerated,
                        make_initial_state)

_PI = math.pi
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


@functools.cache
def _config(epsilon, delta=0.0, betas=(0.0,) * 4, assignment="printed"):
    """``calibrate_classical`` at one of the checks' knob sets, calibrated
    once per process. The function is looked up at call time, so a wrapper
    set on this module's ``calibrate_classical`` sees every miss."""
    return calibrate_classical(epsilon, delta=delta, betas=betas,
                               assignment=assignment)


@functools.cache
def _preset_config(number):
    """The coins of figure preset ``number`` at value 0, built once."""
    return FIGURES[number].point(0.0, "none")[0]


def _payoffs(sequence, points, convention=DEFAULT_CONVENTION) -> list:
    """Payoffs of ``sequence`` at every ``(GameConfig, NoiseSpec)`` point, in
    order, from one batched sweep."""
    return [report.payoff
            for report in play_many(sequence, points, convention)]


def check_kraus_completeness() -> CheckResult:
    """Every channel's operators satisfy sum E^dag E = I at every p."""
    worst = max(completeness_defect(kraus_stack(kind, _P11))
                for kind in ("ad", "dp", "pd", "none"))
    return _result("kraus_completeness", worst, 1e-12)


def _random_state(rng: random.Random, n: int) -> np.ndarray:
    """A random full-rank n-qubit density matrix m m^H / Tr(m m^H), m complex
    Gaussian. The entries come from the seeded stdlib generator ``rng``: its
    bytes give two uniforms per entry in (0, 1], and Box-Muller turns each
    pair into one complex normal."""
    dim = 2 ** n
    words = np.frombuffer(rng.randbytes(16 * dim * dim), "<u8")
    u = ((words >> 11) + 1) * 2.0 ** -53
    m = (np.sqrt(-2.0 * np.log(u[0::2]))
         * np.exp(2j * _PI * u[1::2])).reshape(dim, dim)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def check_channel_routes_agree() -> CheckResult:
    """Per-qubit sequential application equals the enumerated lifted sum."""
    rng = random.Random(20240817)
    worst = 0.0
    for n in (1, 2, 3, 4):
        rho, dim = _random_state(rng, n), 2 ** n
        for kind in ("ad", "dp", "pd"):
            for p in (0.0, 0.3, 1.0):
                spec = NoiseSpec(kind, p)
                seq = apply_channel(rho, spec)
                # sum_K O_K rho O_K^dag as one product over (K, column)
                # pairs: [O_1 rho ... O_k rho] [O_1 ... O_k]^dag
                ops = lift_enumerated(spec, n)
                side = ops.transpose(1, 0, 2).reshape(dim, -1)
                left = (side.reshape(-1, dim) @ rho).reshape(dim, -1)
                summed = left @ side.conj().T
                worst = max(worst, np.abs(seq - summed).max())
    return _result("channel_routes_agree", worst, 1e-12)


def check_pd_diagonal_invariance() -> CheckResult:
    """Phase damping never changes populations, only coherences. The Kraus
    pair is diagonal, so the invariance is exact up to a couple of ulps."""
    rng = random.Random(7)
    worst = 0.0
    for n in (1, 2, 3):
        rho = _random_state(rng, n)
        for p in (0.0, 0.3, 0.77, 1.0):
            out = apply_channel(rho, NoiseSpec("pd", p))
            worst = max(worst, float(np.max(np.abs(
                np.diag(out) - np.diag(rho)))))
    return _result("pd_diagonal_invariance", worst, 1e-15)


def check_gamma_alpha_independence() -> CheckResult:
    """The payoff never depends on the gamma-type phases of either coin."""
    fig1 = _preset_config(1)
    points = []
    for gamma in (0.0, 1.1, 5.9):
        for alpha in (0.0, 0.7, 2.3):
            subs = zip(fig1.coin_b, (alpha, 0.3, alpha, 1.9))
            cfg = replace(fig1, coin_a=replace(fig1.coin_a, gamma=gamma),
                          coin_b=tuple(replace(c, gamma=a) for c, a in subs))
            points += [(cfg, NoiseSpec(kind, 0.4))
                       for kind in ("ad", "dp", "pd")]
    base: dict = {}
    worst = 0.0
    for (_, noise), value in zip(points, _payoffs("AAB", points)):
        worst = max(worst, abs(value - base.setdefault(noise.kind, value)))
    return _result("gamma_alpha_independence", worst, 1e-10)


def check_coin_unitarity() -> CheckResult:
    rng = random.Random(11)
    worst = 0.0
    for _ in range(12):
        theta = rng.uniform(-_PI, _PI)
        gamma, delta = (rng.uniform(0, 2 * _PI) for _ in range(2))
        a = make_coin_a(CoinParams(theta, gamma, delta))
        worst = max(worst, np.abs(a @ a.conj().T - np.eye(2)).max())
    cfg = _preset_config(1)
    b = make_coin_b(cfg.coin_b)
    worst = max(worst, np.abs(b @ b.conj().T - np.eye(8)).max())
    return _result("coin_unitarity", worst, 1e-12)


def check_compiler_layout() -> CheckResult:
    """Game strings, seed counts and register sizes of parsed sequences;
    ``check_compiler_products`` holds the B wiring they imply."""
    layouts = {"AAB": ("AAB", 0, 3), "B": ("B", 2, 3),
               "(AAB)^3": ("AAB" * 3, 0, 9), "AB^2": ("ABB", 1, 4)}
    bad = 0
    for text, layout in layouts.items():
        plan = parse_sequence(text)
        bad += (plan.games, plan.seed_count, plan.total_qubits) != layout
    return _result("compiler_layout", float(bad), 0.5,
                   "structural mismatches" if bad else "")


def check_compiler_products() -> CheckResult:
    """Compiled unitaries equal literally assembled products: B chains
    against products of ``embed`` lifts, and each ``(AAB)^n`` against
    ``block (x) rest`` with rest = block^(x)(n-1), compared one row block
    of ``block`` at a time, so neither the full tensor power nor the
    difference is ever formed."""
    cfg = _preset_config(1)
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
        u -= literal
        worst = max(worst, np.abs(u).max())
    # Repeated AAB blocks never share qubits, so the compiled unitary is a
    # tensor power of the single-block unitary.
    block = build_unitary(parse_sequence("AAB"), cfg)
    for n, rest in enumerate((np.eye(1), block, np.kron(block, block)), 1):
        u = build_unitary(parse_sequence(f"(AAB)^{n}"), cfg)
        u = u.reshape(len(block), len(rest), len(block), len(rest))
        for i, row in enumerate(block):
            literal = rest[:, None, :] * row[None, :, None]
            literal -= u[i]
            worst = max(worst, np.abs(literal).max())
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
    cfg = _preset_config(1)
    base, *others = _payoffs("AAB", [(cfg, NoiseSpec(kind, 0.0)) for kind
                                     in ("none", "ad", "dp", "pd")])
    worst = max(abs(value - base) for value in others)
    return _result("aab_p0_channel_agreement", worst, 1e-12)


def _classify_printed_form(check_id, sequences, points, printed, tolerance,
                           convention=DEFAULT_CONVENTION, *, model=None,
                           tag="", explain="") -> CheckResult:
    """Hold a printed form, ``(sequence, GameConfig, NoiseSpec) -> payoff``,
    to every sequence played once over ``points``.

    With no ``model`` form (same signature), the printed form passes or
    fails on its worst miss. With one, the result is ``classified:<tag>``
    when the model form is within ``tolerance`` at every point while the
    printed form misses by more than 1e-3 on every sequence; the detail is
    ``explain`` formatted with ``miss``, the printed form's worst miss.
    Otherwise the model form passes or fails."""
    fit, misses = 0.0, []
    for seq in sequences:
        played = list(zip(points, _payoffs(seq, points, convention)))
        misses.append(max(abs(sim - printed(seq, *point))
                          for point, sim in played))
        if model is not None:
            fit = max(fit, *(abs(sim - model(seq, *point))
                             for point, sim in played))
    if model is None:
        return _result(check_id, max(misses), tolerance)
    if fit <= tolerance and min(misses) > 1e-3:
        return _classified(check_id, tag, fit, tolerance,
                           explain.format(miss=max(misses)))
    return _result(check_id, fit, tolerance, "printed form off by "
                   + ", ".join(f"{miss:.3g}" for miss in misses))


def check_aab_ad_tracks_reference() -> CheckResult:
    """Simulated AAB payoff vs the amplitude-damping closed form."""
    configs = [_preset_config(1), _config(
        1 / 112, delta=_PI / 3, betas=(_PI / 6, _PI, _PI / 5, 2 * _PI / 3))]
    points = [(cfg, NoiseSpec("ad", p)) for cfg in configs for p in _P11]
    return _classify_printed_form(
        "aab_ad_tracks_reference", ("AAB",), points,
        lambda seq, cfg, noise: oracle.aab("ad", noise.p, cfg), 1e-9)


def _aab_misprint(check_id, kind, explain) -> CheckResult:
    cfg = _preset_config(1)
    points = [(cfg, NoiseSpec(kind, p)) for p in _P11]
    return _classify_printed_form(
        check_id, ("AAB",), points,
        lambda seq, cfg, noise: oracle.aab(kind, noise.p, cfg), 1e-9,
        tag="misprint", model=lambda seq, cfg, noise: oracle.aab(
            kind, noise.p, cfg, corrected=True),
        explain="stock form off by {miss:.3g}; " + explain)


def check_aab_dp_coefficients() -> CheckResult:
    return _aab_misprint(
        "aab_dp_coefficients", "dp", "unit coefficients on the cos 2theta "
        "and beta_4 terms match simulation to machine precision")


def check_aab_pd_coefficients() -> CheckResult:
    return _aab_misprint(
        "aab_pd_coefficients", "pd", "unit coefficient on the beta_4 term "
        "matches simulation to machine precision")


# ---------------------------------------------------------------------------
# B chains against their quoted values: the convention search and checks.

#: The two biases the chain and series values are quoted at.
_CHAIN_EPS = (1 / 168, 1 / 112)
#: Chain-value tolerance by number of B games; chain_b3's printed
#: coefficients are rounded to two decimals.
_CHAIN_TOL = {1: 1e-6, 2: 1e-6, 3: 5e-3}


def _chain_points(grid) -> list:
    """``(GameConfig, NoiseSpec)`` of every ``(channel, p, eps, order)`` of
    ``grid``, in order: the max-payoff phases and the given probability
    order."""
    return [(_config(eps, betas=max_payoff_phases(0.0), assignment=order),
             NoiseSpec(kind, p)) for kind, p, eps, order in grid]


def _chain_play(seq, grid) -> list:
    """Per-qubit payoffs of ``seq`` at every ``(channel, p, eps)`` of
    ``grid``, in order, from one batched sweep in canonical order."""
    return _payoffs(seq, _chain_points([(*point, "canonical")
                                        for point in grid]), _PER_QUBIT)


def _chain_search(orders, rows) -> dict:
    """The residual table of every candidate, a probability order of
    ``orders`` and an engine convention: "order/convention" -> {row: max
    |simulated - reference| over both eps and p in {0, 0.25, 0.5}} for each
    "seq:channel" row of ``rows``. Each chain sequence of ``rows`` is played
    once, as one batch over the orders, eps, strength and its channels;
    every convention scores that batch."""
    table = {f"{order}/{name}": {} for order in orders
             for name in CONVENTION_NAMES}
    kinds_of: dict = {}
    for row in rows:
        seq, kind = row.split(":")
        kinds_of.setdefault(seq, []).append(kind)
    for seq, kinds in kinds_of.items():
        grid = [(kind, p, eps, order) for order in orders
                for eps in _CHAIN_EPS for p in (0.0, 0.25, 0.5)
                for kind in kinds]
        plan = parse_sequence(seq)
        per_qubit = [report.per_qubit
                     for report in play_many(seq, _chain_points(grid))]
        refs = np.array([oracle.chain_b(len(seq), kind, p, eps)
                         for kind, p, eps, _ in grid])
        names = [f"{seq}:{kind}" for kind in kinds]
        for name, c in CONVENTION_NAMES.items():
            # grid axes: order, then eps and p, then channel
            worst = np.abs(_score(per_qubit, plan, c) - refs).reshape(
                len(orders), -1, len(kinds)).max(axis=1)
            for order, residuals in zip(orders, worst.tolist()):
                table[f"{order}/{name}"].update(zip(names, residuals))
    return table


def _fitting(table) -> list:
    """The cells of ``table`` within the chain tolerance of each row's
    length on every row."""
    return [cell for cell, residuals in table.items()
            if all(residual <= _CHAIN_TOL[len(row.split(":")[0])]
                   for row, residual in residuals.items())]


#: Every chain row, "seq:channel", the direct search holds to its value.
_CHAIN_ROWS = tuple(f"{seq}:{kind}" for seq in ("B", "BB", "BBB")
                    for kind in ("ad", "dp", "pd"))

#: Rows used to anchor the extended search. The dp rows are excluded (the
#: reference dp rows assume a different channel scaling, as
#: check_chain_dp_scaling classifies) and chain_b3's ad row is excluded
#: (truncated printed cubic).
_ANCHOR_ROWS = ("B:ad", "B:pd", "BB:ad", "BB:pd", "BBB:pd")


def check_convention_search() -> CheckResult:
    """The search's direct part, printed order x mask x {total, per_game},
    must come up empty..."""
    direct = {cell: rows for cell, rows
              in _chain_search(("printed",), _CHAIN_ROWS).items()
              if not cell.endswith("perqubit")}
    best = min(max(rows.values()) for rows in direct.values())
    matches = _fitting(direct)
    if matches:
        return CheckResult("convention_search", "FAIL", best, _CHAIN_TOL[1],
                           f"unexpectedly matched {matches[0]}")
    return _classified(
        "convention_search", "no-direct-match", best, _CHAIN_TOL[1],
        "no candidate over printed-order x mask x {total,per_game} "
        f"reproduces the chain values (best residual {best:.3g}); "
        "the extended search below pins the working convention")


def check_convention_discovery() -> CheckResult:
    """...while the amplitude- and phase-damping anchor rows pin exactly one
    working convention: canonical order, all qubits, per-qubit
    normalization."""
    table = _chain_search(("printed", "canonical"), _ANCHOR_ROWS)
    matches = _fitting(table)
    if len(matches) != 1:
        return CheckResult("convention_discovery", "FAIL", math.inf,
                           _CHAIN_TOL[1], f"extended search found "
                           f"{len(matches)} matching conventions (expected "
                           "exactly 1)")
    found, = matches
    worst = max(residual for row, residual in table[found].items()
                if not row.startswith("BBB"))
    if found != "canonical/all-perqubit":
        return CheckResult("convention_discovery", "FAIL", worst,
                           _CHAIN_TOL[1],
                           f"found {found}, expected canonical/all-perqubit")
    return _result("convention_discovery", worst, _CHAIN_TOL[1],
                   "reversed probability order, all qubits, per-qubit "
                   "normalization")


def _chain_form(seq, cfg, noise):
    return oracle.chain_b(len(seq), noise.kind, noise.p, cfg.epsilon)


def check_chain_b1_b2_track_reference() -> CheckResult:
    """Single and double B games vs their closed forms (ad and pd)."""
    points = _chain_points([(kind, p, eps, "canonical")
                            for kind in ("ad", "pd")
                            for eps in _CHAIN_EPS for p in _P11])
    return _classify_printed_form("chain_b1_b2_track_reference", ("B", "BB"),
                                  points, _chain_form, _CHAIN_TOL[1],
                                  _PER_QUBIT)


def check_chain_dp_scaling() -> CheckResult:
    """The depolarizing chain forms assume a p/3-per-flip parametrization:
    simulating at strength p matches the forms evaluated at 3p/4."""
    points = _chain_points([("dp", p, eps, "canonical")
                            for eps in _CHAIN_EPS for p in _P11])
    return _classify_printed_form(
        "chain_dp_scaling", ("B", "BB"), points, _chain_form, 1e-9,
        _PER_QUBIT, tag="channel-scaling",
        model=lambda seq, cfg, noise: oracle.chain_b(
            len(seq), "dp", 0.75 * noise.p, cfg.epsilon),
        explain="direct evaluation off by {miss:.3g}; strength remap "
        "p -> 3p/4 agrees to machine precision")


def check_chain_b3_pd() -> CheckResult:
    """Triple-B phase-damping form (two-decimal coefficients)."""
    points = _chain_points([("pd", p, eps, "canonical") for eps in _CHAIN_EPS
                            for p in (0.0, 0.5, 1.0)])
    return _classify_printed_form("chain_b3_pd", ("BBB",), points,
                                  _chain_form, _CHAIN_TOL[3], _PER_QUBIT)


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

    Chains of two or more A games pay exactly 0 per qubit under
    depolarizing and phase damping and exactly -2*eps*p under amplitude
    damping, at every delta. Only a lone A keeps a coherent term,
    proportional to cos(delta)*sqrt(1-p); at delta = pi/2 it vanishes, so
    there every length pays those values. The stock slope -(3/32)*eps*p
    matches at no chain length."""
    configs = {eps: _config(eps, delta=_PI / 2, assignment="canonical")
               for eps in _CHAIN_EPS}
    points = [(configs[eps], NoiseSpec(kind, p)) for eps in configs
              for p in (0.0, 0.25, 0.5, 1.0) for kind in ("dp", "pd", "ad")]
    return _classify_printed_form(
        "a_series", ("A", "AA", "AAA", "AAAA"), points,
        lambda seq, cfg, noise: (oracle.series_a_ad(noise.p, cfg.epsilon)
                                 if noise.kind == "ad" else 0.0),
        1e-10, _PER_QUBIT, tag="stock-slope-mismatch",
        model=lambda seq, cfg, noise: (-2 * cfg.epsilon * noise.p
                                       if noise.kind == "ad" else 0.0),
        explain="simulation gives -2*eps*p at every length; the stock "
        "-(3/32)*eps*p slope matches at no length in {{1,2,3,4}}")


def check_series_aab_p0() -> CheckResult:
    """Repeated-AAB series at p=0 equals (2/15)*eps exactly."""
    points = _chain_points([("none", 0.0, eps, "canonical")
                            for eps in _CHAIN_EPS])
    return _classify_printed_form(
        "series_aab_p0", ("(AAB)^2",), points,
        lambda seq, cfg, noise: (2 / 15) * cfg.epsilon, 1e-9, _PER_QUBIT)


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
    points = [(_config(1 / 168, delta=_PI / 5, betas=betas,
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
        c, s = oracle.aab_phase_moments(_preset_config(2))
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
    cfg = _preset_config(1)
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


#: The registry: every ``check_*`` function above, in file order.
CHECKS = tuple(check for name, check in globals().items()
               if name.startswith("check_"))


def run_all() -> list:
    """Every check's result, in registry order, each carrying its wall time
    in ``elapsed``. The checks share no state, so each time is its own
    check's work."""
    results = []
    for check in CHECKS:
        start = time.perf_counter()
        result = check()
        results.append(replace(result, elapsed=time.perf_counter() - start))
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
