"""End-to-end acceptance gate.

Each test pins one release requirement at its stated tolerance.
``test_figure2_pd_curve_mirror_symmetry`` checks the mirror symmetry that
the phase-damping curve of figure preset 2 has. The AAB payoff depends on
delta only through C cos 2delta - S sin 2delta, so the curve's axis is
delta* = pi/2 - atan2(S, C)/2, which is pi/2 only when S = 0. Preset 2's
phases give S = -0.103 and delta* = pi/2 + 0.0704; see README.md ("Known
divergences", item 6) and the ``fig2_symmetry`` entry of the verification
registry.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from parrondoq import oracle, verify
from parrondoq.coins import (SizeLimitError, calibrate_classical, embed,
                             make_coin_b, parse_sequence)
from parrondoq.engine import (CalibrationError, PayoffConvention,
                              calibrate_convention, discover_convention, play)
from parrondoq.figures import FIGURES, figure_csv, figure_rows, sweep_rows
from parrondoq.noise import KINDS, NoiseSpec, completeness_defect, kraus_single
from parrondoq.reference import (MAX_ENUMERATED_QUBITS, apply_channel,
                                 build_unitary, lift_enumerated)

PI = math.pi
FIG1_BETAS = (PI / 2, PI / 2, PI / 4, PI / 3)
PER_QUBIT = PayoffConvention("all", "per_qubit")


def fig1_config(eps=1 / 168):
    return calibrate_classical(eps, delta=PI / 5, betas=FIG1_BETAS)


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    dim = 2 ** n_qubits
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


# -- 1. coherent limit ------------------------------------------------------

def test_zero_strength_limit_agrees_across_channels_and_reference():
    """At p=0 every channel reproduces the undecohered payoff, which in
    turn matches the closed-form reference, in under a second."""
    t0 = time.perf_counter()
    cfg = fig1_config()
    base = play("AAB", cfg, NoiseSpec("none", 0.0)).payoff
    for kind in ("ad", "dp", "pd"):
        sim = play("AAB", cfg, NoiseSpec(kind, 0.0)).payoff
        assert abs(sim - base) <= 1e-12, kind
    assert abs(base - oracle.aab("ad", 0.0, cfg)) <= 1e-9
    assert time.perf_counter() - t0 < 1.0


# -- 2. closed-form tracking over decoherence -------------------------------

def test_amplitude_damping_tracks_closed_form():
    t0 = time.perf_counter()
    cfg = fig1_config()
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        sim = play("AAB", cfg, NoiseSpec("ad", p)).payoff
        assert abs(sim - oracle.aab("ad", p, cfg)) <= 1e-8, p
    assert time.perf_counter() - t0 < 1.0


def test_dp_pd_closed_forms_match_after_unit_coefficients():
    """The depolarizing and phase-damping references carry two coefficient
    slips; with unit coefficients substituted they track simulation to
    1e-9, and the verification registry classifies (not fails) them."""
    for check in (verify.check_aab_dp_coefficients,
                  verify.check_aab_pd_coefficients):
        result = check()
        assert result.status == "classified:misprint", result
        assert result.residual <= 1e-9


# -- 3. channel correctness -------------------------------------------------

def test_kraus_completeness():
    for kind in KINDS:
        for p in np.linspace(0.0, 1.0, 11):
            spec = NoiseSpec(kind, float(p))
            assert completeness_defect(kraus_single(spec)) <= 1e-12


def test_sequential_equals_enumerated_application():
    for n in (1, 2, 3):
        rho = random_state(n, seed=100 + n)
        for kind in ("ad", "dp", "pd"):
            spec = NoiseSpec(kind, 0.37)
            seq = apply_channel(rho, spec)
            ops = lift_enumerated(spec, n)
            enum = sum(k @ rho @ k.conj().T for k in ops)
            assert np.abs(seq - enum).max() <= 1e-12, (kind, n)


def test_phase_damping_preserves_diagonals():
    rho = random_state(3, seed=7)
    for p in (0.25, 0.5, 1.0):
        out = apply_channel(rho, NoiseSpec("pd", p))
        assert np.abs(np.diag(out) - np.diag(rho)).max() <= 1e-15


# -- 4. sequence-compiler equivalence ---------------------------------------

def test_compiler_matches_literal_products():
    cfg = fig1_config()
    coin_b = make_coin_b(cfg.coin_b)
    single = build_unitary(parse_sequence("AAB"), cfg)
    for n in (1, 2, 3):
        # history-dependent chain: one 8x8 coin slid along the register
        total = n + 2
        literal = np.eye(2 ** total)
        for k in range(n):
            literal = embed(coin_b, k, total) @ literal
        built = build_unitary(parse_sequence(f"B^{n}"), cfg)
        assert np.abs(built - literal).max() <= 1e-13, f"B^{n}"
        # independent three-qubit blocks: a Kronecker power
        power = single
        for _ in range(n - 1):
            power = np.kron(power, single)
        built = build_unitary(parse_sequence(f"(AAB)^{n}"), cfg)
        assert np.abs(built - power).max() <= 1e-13, f"(AAB)^{n}"


# -- 5. payoff-convention calibration ----------------------------------------

def test_direct_convention_search_fails_with_full_residual_table():
    """None of the four direct counting conventions reproduces the
    history-dependent chain references; the search must say so loudly,
    with a complete residual table."""
    with pytest.raises(CalibrationError) as exc:
        calibrate_convention()
    table = exc.value.residuals
    assert len(table) == 4
    for cell, rows in table.items():
        assert len(rows) == 9, cell
        assert min(rows.values()) > 1e-6, cell


def test_extended_search_pins_unique_convention():
    finding = discover_convention()
    assert finding.assignment == "canonical"
    assert finding.convention == PER_QUBIT


def test_chain_references_under_discovered_convention():
    for eps in (1 / 168, 1 / 112):
        cfg = calibrate_classical(eps, assignment="canonical")
        for p in (0.0, 0.25, 0.5):
            for n, seq in ((1, "B"), (2, "BB")):
                for kind in ("ad", "pd"):
                    sim = play(seq, cfg, NoiseSpec(kind, p),
                               PER_QUBIT).payoff
                    ref = oracle.chain_b(n, kind, p, eps)
                    assert abs(sim - ref) <= 1e-6, (seq, kind, p)
            sim = play("BBB", cfg, NoiseSpec("pd", p), PER_QUBIT).payoff
            assert abs(sim - oracle.chain_b(3, "pd", p, eps)) <= 5e-3
        # the two exactly-quoted phase-damping values
        sim = play("B", cfg, NoiseSpec("pd", 0.5), PER_QUBIT).payoff
        assert abs(sim - 1 / 15) <= 1e-6
        sim = play("BB", cfg, NoiseSpec("pd", 0.5), PER_QUBIT).payoff
        assert abs(sim - (13 / 400 + eps / 20)) <= 1e-6
        # triple-B amplitude damping: constant term only (the reference
        # cubic is truncated; see the chain_b3_ad_truncation entry)
        sim = play("BBB", cfg, NoiseSpec("ad", 0.0), PER_QUBIT).payoff
        assert abs(sim - oracle.chain_b(3, "ad", 0.0, eps)) <= 5e-3


def test_chain_divergences_are_classified_not_failed():
    assert (verify.check_chain_dp_scaling().status
            == "classified:channel-scaling")
    assert (verify.check_chain_b3_ad_truncation().status
            == "classified:truncated-cubic")


# -- 6. uniform-A chains ------------------------------------------------------

def test_a_chain_zero_payoff_and_damping_slope():
    """At the phase-neutral point delta = pi/2 (where the lone coherent
    term, proportional to cos delta, vanishes) depolarizing and phase
    damping give payoff 0 and amplitude damping gives exactly -2*eps*p.
    The quoted -(3/32)*eps*p slope matches at no chain length."""
    matches = []
    report = {}
    for n in (1, 2, 3):
        seq = "A" * n
        stock_worst = 0.0
        for eps in (1 / 168, 1 / 112):
            cfg = calibrate_classical(eps, delta=PI / 2,
                                      assignment="canonical")
            for p in (0.0, 0.25, 0.5, 1.0):
                for kind in ("dp", "pd"):
                    payoff = play(seq, cfg, NoiseSpec(kind, p),
                                  PER_QUBIT).payoff
                    assert abs(payoff) <= 1e-10, (seq, kind, p)
                sim = play(seq, cfg, NoiseSpec("ad", p), PER_QUBIT).payoff
                assert abs(sim - (-2 * eps * p)) <= 1e-10, (seq, p)
                stock_worst = max(stock_worst,
                                  abs(sim - oracle.series_a_ad(p, eps)))
        report[n] = stock_worst
        if stock_worst <= 1e-6:
            matches.append(n)
    assert matches == [], (
        f"quoted slope unexpectedly matches at lengths {matches}; "
        f"residuals by length: {report}")


# -- 7. phase independence ----------------------------------------------------

def test_payoff_independent_of_gamma_and_alphas():
    payoffs = []
    for gamma in (0.0, PI / 3, PI, 3 * PI / 2):
        cfg = calibrate_classical(1 / 168, gamma=gamma, delta=PI / 5,
                                  betas=FIG1_BETAS)
        payoffs.append(play("AAB", cfg, NoiseSpec("ad", 0.37)).payoff)
    for alphas in ((0.0,) * 4, (PI / 7, 0.4, 2 * PI / 3, 5.0),
                   (PI,) * 4, (1.0, 2.0, 3.0, 4.0)):
        cfg = calibrate_classical(1 / 168, delta=PI / 5, alphas=alphas,
                                  betas=FIG1_BETAS)
        payoffs.append(play("AAB", cfg, NoiseSpec("ad", 0.37)).payoff)
    assert max(payoffs) - min(payoffs) < 1e-10


# -- 8. performance and size guards ------------------------------------------

def test_nine_qubit_pipeline_under_budget():
    cfg = fig1_config()
    t0 = time.perf_counter()
    play("(AAB)^3", cfg, NoiseSpec("dp", 0.5))
    assert time.perf_counter() - t0 < 5.0


def test_eleven_qubit_play_under_a_second():
    """B^9 fills the 11-qubit register; the window sweep's cost grows with
    the number of games, not with the 2048-dimensional state."""
    cfg = fig1_config()
    t0 = time.perf_counter()
    play("B^9", cfg, NoiseSpec("dp", 0.5))
    assert time.perf_counter() - t0 < 1.0


def test_enumerated_channel_path_is_capped():
    assert MAX_ENUMERATED_QUBITS == 4
    with pytest.raises(SizeLimitError):
        lift_enumerated(NoiseSpec("dp", 0.5), 5)


# -- 9. figure presets ---------------------------------------------------------

def test_all_figure_presets_render_deterministic_csv():
    for number in range(1, 10):
        first = figure_csv(number)
        second = figure_csv(number)
        assert first == second, number
        assert first.splitlines()[0] == "sweep_var,value,channel,payoff"


def test_figure2_pd_curve_mirror_symmetry():
    """The phase-damping curve of figure preset 2 is mirror-symmetric about
    the axis its closed form gives, and about delta = pi/2 when S = 0.

    The corrected AAB form depends on delta only through
    C cos 2delta - S sin 2delta (``oracle.aab_phase_moments``). Hence the
    curve mirrors about delta* = pi/2 - atan2(S, C)/2, and
    f(delta) - f(pi - delta) = 2 (1-p)^(3/2) sin^2(theta) cos^2(theta)
    * S * sin 2delta.
    Preset 2's phases give S = -0.103, so the mirrored-pair gap about pi/2
    reaches 1.8e-2 (README divergence 6); phases in {0, pi} give S = 0 and
    the pi/2 symmetry.
    """
    setup = FIGURES[2]
    rows = [r for r in figure_rows(2) if r[2] == "pd"]
    assert len(rows) == 51
    deltas = [r[1] for r in rows]
    values = [r[3] for r in rows]

    cfg, spec = setup.point(0.0, "pd")
    c, s = oracle.aab_phase_moments(cfg)
    axis = PI / 2 - 0.5 * math.atan2(s, c)
    for delta, value in zip(deltas, values):
        mirror_cfg, mirror_spec = setup.point((2 * axis - delta) % (2 * PI),
                                              "pd")
        mirror = play(setup.sequence, mirror_cfg, mirror_spec,
                      setup.convention).payoff
        assert abs(value - mirror) <= 1e-9, delta

    # grid point k holds delta = k*2*pi/50, so k and (25-k) mod 50 mirror
    # about pi/2
    gaps = [values[k] - values[(25 - k) % 50] for k in range(51)]
    theta = cfg.coin_a.theta
    amplitude = (2 * (1 - spec.p) ** 1.5
                 * (math.sin(theta) * math.cos(theta)) ** 2 * s)
    for delta, gap in zip(deltas, gaps):
        assert abs(gap - amplitude * math.sin(2 * delta)) <= 1e-9, delta
    assert max(map(abs, gaps)) > 1e-2

    neutral = dataclasses.replace(setup, channels=("pd",),
                                  betas=(0.0, PI, 0.0, PI))
    flat = [r[3] for r in sweep_rows(neutral)]
    assert max(flat) - min(flat) > 1e-2
    assert max(abs(flat[k] - flat[(25 - k) % 50]) for k in range(51)) <= 1e-9
