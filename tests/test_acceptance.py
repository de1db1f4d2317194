"""End-to-end acceptance gate.

The gate is the registry table plus what the registry cannot express.
``REGISTRY`` pins every check of ``verify.run_all`` by id: its status, its
tolerance and, where a release requirement sets one, a bound on its wall
time. So a new, dropped or reclassified check, a loosened tolerance or a
failing comparison fails here, and each cross-check is computed once, by
the registry. The tests below it pin what the registry does not check:
the search table both convention checks read (its span, its direct cells
and the cell it pins), the enumerated route's cap, an eleven-qubit play's
time budget, the presets' determinism, and the cause of the figure 2
symmetry finding.

``test_figure2_pd_curve_mirror_symmetry`` checks the mirror symmetry that
the phase-damping curve of figure preset 2 has. The AAB payoff depends on
delta only through C cos 2delta - S sin 2delta, so the curve's axis is
delta* = pi/2 - atan2(S, C)/2, which is pi/2 only when S = 0. Preset 2's
phases give S = -0.103 and delta* = pi/2 + 0.0704; see README.md ("Known
divergences", item 6) and the ``fig2_symmetry`` entry of the registry.
"""
import dataclasses
import math
import time

import pytest

from parrondoq import oracle, verify
from parrondoq.coins import SizeLimitError, calibrate_classical
from parrondoq.engine import CONVENTION_NAMES, PayoffConvention, play
from parrondoq.figures import FIGURES, figure_csv, figure_rows, sweep_rows
from parrondoq.noise import NoiseSpec
from parrondoq.reference import MAX_ENUMERATED_QUBITS, lift_enumerated

PI = math.pi

#: check id -> (status, tolerance, wall-time bound in seconds or None), in
#: registry order.
REGISTRY = {
    # channels
    "kraus_completeness": ("pass", 1e-12, None),
    "channel_routes_agree": ("pass", 1e-12, None),
    "pd_diagonal_invariance": ("pass", 1e-15, None),
    "gamma_alpha_independence": ("pass", 1e-10, None),
    # coins, sequence compiler, initial state
    "coin_unitarity": ("pass", 1e-12, None),
    "compiler_layout": ("pass", 0.5, None),
    "compiler_products": ("pass", 1e-13, None),
    "initial_state": ("pass", 1e-12, None),
    # the AAB round against its closed forms; the coherent limit and the
    # amplitude-damping sweep each within a second
    "aab_p0_channel_agreement": ("pass", 1e-12, 1.0),
    "aab_ad_tracks_reference": ("pass", 1e-9, 1.0),
    "aab_dp_coefficients": ("classified:misprint", 1e-9, None),
    "aab_pd_coefficients": ("classified:misprint", 1e-9, None),
    # the payoff-convention search
    "convention_search": ("classified:no-direct-match", 1e-6, None),
    "convention_discovery": ("pass", 1e-6, None),
    # history-dependent B chains and uniform A chains
    "chain_b1_b2_track_reference": ("pass", 1e-6, None),
    "chain_dp_scaling": ("classified:channel-scaling", 1e-9, None),
    "chain_b3_pd": ("pass", 5e-3, None),
    "chain_b3_ad_truncation": ("classified:truncated-cubic", 5e-3, None),
    "a_series": ("classified:stock-slope-mismatch", 1e-10, None),
    # repeated AAB; B chains ignore the quantum phases
    "series_aab_p0": ("pass", 1e-9, None),
    "series_aab_tracks_reference": ("pass", 3e-2, None),
    "series_aab_stability": ("pass", 1e-12, None),
    "chain_phase_independence": ("pass", 1e-12, None),
    # figures and performance
    "fig2_symmetry": ("classified:asymmetric-about-pi/2", 1e-9, None),
    "performance_9q_pipeline": ("pass", 0.25, None),
    "figure_determinism": ("pass", 0.5, None),
}

#: The summary line ``verify`` ends with, counted from ``REGISTRY``'s
#: statuses; the CLI and report tests read it from here.
SUMMARY = "verify: {} checks, {} pass, {} classified, {} fail".format(
    len(REGISTRY), *(sum(status.startswith(kind)
                         for status, _, _ in REGISTRY.values())
                     for kind in ("pass", "classified:", "FAIL")))


def test_registry_runs_exactly_the_table(registry):
    assert [r.check_id for r in registry] == list(REGISTRY)


@pytest.mark.parametrize("check_id", REGISTRY)
def test_registry_entry(registry, check_id):
    status, tolerance, seconds = REGISTRY[check_id]
    result = next(r for r in registry if r.check_id == check_id)
    assert (result.status, result.tolerance) == (status, tolerance), result
    if seconds is not None:
        assert result.elapsed < seconds, result


def test_direct_convention_search_fails_with_full_residual_table():
    """No direct counting convention reproduces the chain references: the
    search's direct cells, printed order x the engine's total and per-game
    conventions, carry a residual for every reference row, and every row
    misses."""
    residuals = verify._chain_search(("printed",), verify._CHAIN_ROWS)
    direct = [f"printed/{name}" for name, c in CONVENTION_NAMES.items()
              if c.normalization != "per_qubit"]
    assert len(direct) == 4           # the direct candidate space
    for cell in direct:
        rows = residuals[cell]
        assert set(rows) == {"B:ad", "B:dp", "B:pd", "BB:ad", "BB:dp",
                             "BB:pd", "BBB:ad", "BBB:dp", "BBB:pd"}, cell
        assert min(rows.values()) > 1e-6, cell    # every row misses


def test_extended_search_pins_unique_convention():
    """The search table spans both probability orders and every engine
    convention, and the cell ``convention_discovery`` pins, canonical order
    with all qubits counted per qubit, fits the anchor rows."""
    residuals = verify._chain_search(("printed", "canonical"),
                                     verify._ANCHOR_ROWS)
    assert set(residuals) == {f"{order}/{name}"
                              for order in ("printed", "canonical")
                              for name in CONVENTION_NAMES}
    assert CONVENTION_NAMES["all-perqubit"] == PayoffConvention("all",
                                                                "per_qubit")
    winner = residuals["canonical/all-perqubit"]
    for row in ("B:ad", "B:pd", "BB:ad", "BB:pd"):
        assert winner[row] < 1e-9, row
    assert winner["BBB:pd"] < 5e-3
    # and the direct-space cells all miss
    assert residuals["printed/all-total"]["B:pd"] > 1e-3


def test_enumerated_channel_path_is_capped():
    assert MAX_ENUMERATED_QUBITS == 4
    with pytest.raises(SizeLimitError):
        lift_enumerated(NoiseSpec("dp", 0.5), 5)


def test_eleven_qubit_play_under_a_second():
    """B^9 fills the 11-qubit register; the window sweep's cost grows with
    the number of games, not with the 2048-dimensional state."""
    cfg = calibrate_classical(1 / 168, delta=PI / 5,
                              betas=(PI / 2, PI / 2, PI / 4, PI / 3))
    t0 = time.perf_counter()
    play("B^9", cfg, NoiseSpec("dp", 0.5))
    assert time.perf_counter() - t0 < 1.0


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
