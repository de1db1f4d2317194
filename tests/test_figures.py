import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from parrondoq import engine, figures
from parrondoq.coins import (SizeLimitError, calibrate_classical,
                             max_payoff_phases)
from parrondoq.engine import CONVENTION_NAMES, PayoffConvention, play
from parrondoq.figures import (CSV_HEADER, FIGURES, GRID_POINTS, SWEEP_VARS,
                               SweepSetup, figure_csv, figure_rows,
                               rows_to_csv, sweep_rows)
from parrondoq.noise import KINDS, corner_stack

PI = math.pi


def small_setup(**overrides):
    base = dict(sequence="AAB", var="p", start=0.0, stop=1.0, count=3,
                channels=("ad", "none"), eps=1 / 168, delta=PI / 5,
                betas=(PI / 2, PI / 2, PI / 4, PI / 3))
    base.update(overrides)
    return SweepSetup(**base)


def test_sweep_setup_validation():
    with pytest.raises(ValueError):
        small_setup(var="theta")
    with pytest.raises(ValueError):
        small_setup(count=0)
    with pytest.raises(ValueError):
        small_setup(channels=("bad",))
    with pytest.raises(ValueError):
        small_setup(channels=())
    with pytest.raises(ValueError, match="^channel 'ad' given twice$"):
        small_setup(channels=("ad", "dp", "ad"))


OUT_OF_DOMAIN = [
    # (id, overrides, message): each message names the first bad point in
    # grid-major, channel-minor order, as a point-by-point sweep would meet
    # it. Each id is fixed text, so restating a message does not rename its
    # case; the ids are the names the cases had when pytest derived them
    # from the messages.
    ("overrides0-epsilon 0.10000250006250158 outside [0, 0.1]",
     dict(var="eps", start=0.0, stop=0.2, count=40000, channels=("ad",),
          p=0.3), f"epsilon {np.linspace(0.0, 0.2, 40000)[20000]} outside "
                  "[0, 0.1]"),
    ("overrides1-p 1.5 outside [0, 1]",
     dict(var="p", start=0.0, stop=2.0, count=5, channels=("none", "ad")),
     "p 1.5 outside [0, 1]"),
    ("overrides2-delta -1.0 outside [0, 2pi]",
     dict(var="delta", start=-1.0, stop=1.0, count=5), "delta -1.0 outside "
                                                       "[0, 2pi]"),
    ("overrides3-beta3 6.5221235381197245 outside [0, 2pi]",
     dict(var="beta3", start=2 * PI, stop=7.0, count=4, channels=("ad",)),
     f"beta3 {np.linspace(2 * PI, 7.0, 4)[1]} outside [0, 2pi]"),
    ("overrides4-delta 7.0 outside [0, 2pi]",
     dict(var="beta2", start=0.0, stop=7.0, count=8, delta=7.0),
     "delta 7.0 outside [0, 2pi]"),
    ("overrides5-p 1.5 outside [0, 1]",
     dict(var="eps", start=0.0, stop=0.05, count=3, p=1.5,
          channels=("none", "dp")), "p 1.5 outside [0, 1]"),
    ("overrides6-beta4 -2.0 outside [0, 2pi]",
     dict(var="eps", start=0.0, stop=0.05, count=3, p=1.5,
          channels=("dp",), betas=(0.0, 0.0, 0.0, -2.0)),
     "beta4 -2.0 outside [0, 2pi]"),
    ("overrides7-p -1.0 outside [0, 1]",
     dict(var="p", start=-1.0, stop=1.0, count=5, channels=("none",)),
     "p -1.0 outside [0, 1]"),
]


@pytest.mark.parametrize("overrides,message",
                         [row[1:] for row in OUT_OF_DOMAIN],
                         ids=[row[0] for row in OUT_OF_DOMAIN])
def test_out_of_domain_sweep_is_refused_before_any_play(overrides, message,
                                                        monkeypatch):
    plays = []
    monkeypatch.setattr(figures, "play_arrays",
                        lambda *args: plays.append(args))
    with pytest.raises(ValueError) as err:
        sweep_rows(small_setup(**overrides))
    assert str(err.value) == message
    assert plays == []


def test_domain_check_accepts_what_every_point_accepts():
    # p is checked under the none channel too, and grids that touch the
    # bounds pass
    with pytest.raises(ValueError, match=r"^p 7\.0 outside \[0, 1\]$"):
        small_setup(var="eps", stop=0.05, p=7.0, channels=("none",))
    with pytest.raises(ValueError, match=r"^p 3\.0 outside \[0, 1\]$"):
        small_setup(var="p", start=3.0, stop=-1.0, channels=("none",))
    rows = sweep_rows(small_setup(var="p", start=1.0, stop=0.0,
                                  channels=("none",)))
    assert len({r[3] for r in rows}) == 1
    for var, stop in (("eps", 0.1), ("delta", 2 * PI), ("beta1", 2 * PI)):
        assert len(sweep_rows(small_setup(var=var, stop=stop))) == 6
    assert len(sweep_rows(small_setup(delta=2 * PI, max_phases=True))) == 6


def test_oversized_sweep_is_refused_before_its_grid_exists():
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError,
                           match="sweep needs 2000000000000 points"):
            small_setup(count=10 ** 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # the cap counts (grid value, channel) points
    cap = figures.MAX_SWEEP_POINTS
    assert small_setup(count=cap // 2).count == cap // 2
    with pytest.raises(SizeLimitError):
        small_setup(count=cap // 2 + 1)


def test_sweep_rows_order_grid_major():
    rows = sweep_rows(small_setup())
    assert len(rows) == 6
    assert [(r[1], r[2]) for r in rows] == [
        (0.0, "ad"), (0.0, "none"), (0.5, "ad"), (0.5, "none"),
        (1.0, "ad"), (1.0, "none")]
    assert all(r[0] == "p" for r in rows)


def test_sweep_none_channel_ignores_p():
    rows = sweep_rows(small_setup())
    none_payoffs = [r[3] for r in rows if r[2] == "none"]
    assert none_payoffs[0] == none_payoffs[1] == none_payoffs[2]
    ad_payoffs = [r[3] for r in rows if r[2] == "ad"]
    assert ad_payoffs[0] != ad_payoffs[2]


def test_sweep_beta_var_overrides_slot():
    # sweeping beta4 over a 2-point grid must change the payoff
    rows = sweep_rows(small_setup(var="beta4", start=0.0, stop=PI, count=2,
                                  channels=("pd",), p=0.5))
    assert rows[0][3] != rows[1][3]


def test_sweep_point_beta_precedence():
    # explicit beats max_phases beats 0
    setup = small_setup(var="p", delta=0.7, max_phases=True,
                        betas=(1.0, None, None, None))
    cfg, _ = setup.point(0.0, "none")
    want = calibrate_classical(1 / 168, delta=0.7,
                               betas=(1.0,) + max_payoff_phases(0.7)[1:])
    assert cfg == want
    unset = small_setup(betas=(None, 2.0, None, None))
    cfg, _ = unset.point(0.0, "none")
    assert [c.delta for c in cfg.coin_b] == [0.0, 2.0, 0.0, 0.0]


def point_by_point(setup):
    """The sweep as a plain loop of single-point plays."""
    rows = []
    for value in np.linspace(setup.start, setup.stop, setup.count):
        for channel in setup.channels:
            cfg, spec = setup.point(float(value), channel)
            rows.append((setup.var, float(value), channel,
                         play(setup.sequence, cfg, spec,
                              setup.convention).payoff))
    return rows


def random_setup(rng, var):
    """A random sweep of ``var``: sequence, grid, channels, fixed knobs,
    probability order and convention all drawn from ``rng``."""
    stop = {"p": 1.0, "eps": 0.1}.get(var, 2 * PI)
    start, stop = sorted(float(x) for x in rng.uniform(0.0, stop, 2))
    kinds = [str(k) for k in rng.permutation(KINDS)]
    return SweepSetup(
        str(rng.choice(("AAB", "B", "BB", "BBB", "ABAB", "(AAB)^2"))), var,
        start, stop, int(rng.integers(1, 12)),
        tuple(kinds[:int(rng.integers(1, 5))]),
        p=float(rng.uniform()), eps=float(rng.uniform(0.0, 0.1)),
        delta=float(rng.uniform(0.0, 2 * PI)),
        betas=tuple(None if rng.uniform() < 0.5 else float(b)
                    for b in rng.uniform(0.0, 2 * PI, 4)),
        max_phases=bool(rng.integers(2)),
        assignment=str(rng.choice(("printed", "canonical"))),
        convention=CONVENTION_NAMES[str(rng.choice(list(CONVENTION_NAMES)))])


def assert_rows_match(got, want, tol):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:3] == w[:3]
        assert abs(g[3] - w[3]) <= tol, (g, w)


def test_sweep_rows_equal_single_point_plays():
    """Every figure preset and one random sweep of each variable."""
    rng = np.random.default_rng(424242)
    setups = list(FIGURES.values()) + [random_setup(rng, var)
                                       for var in SWEEP_VARS]
    for setup in setups:
        assert_rows_match(sweep_rows(setup), point_by_point(setup), 0.0)


@pytest.mark.parametrize("max_phases", [False, True])
@pytest.mark.parametrize("var", SWEEP_VARS)
def test_sweep_rows_equal_single_point_plays_exactly(var, max_phases):
    rng = np.random.default_rng([2009, SWEEP_VARS.index(var), max_phases])
    for _ in range(3):
        setup = dataclasses.replace(random_setup(rng, var),
                                    max_phases=max_phases)
        assert_rows_match(sweep_rows(setup), point_by_point(setup), 0.0)


def test_block_is_the_one_point_rule_at_every_point():
    for var in ("delta", "p"):
        # several values on every channel, so a channel-major block shows
        setup = dataclasses.replace(
            random_setup(np.random.default_rng(5), var), count=7,
            channels=("pd", "ad", "none", "dp"))
        values, channels = setup.grid(), setup.channels
        angles, corners = setup.block(values, channels)
        # a p-sweep block holds its one angle set once
        assert len(angles) == (1 if var == "p" else len(values))
        # row i K + k is value i on channel k, the CSV's row order
        assert corners.shape == (len(values) * len(channels), 4, 2, 2)
        for i, (value, row) in enumerate(zip(
                values.tolist(),
                np.broadcast_to(angles, (len(values), 5, 3)))):
            for k, channel in enumerate(channels):
                cfg, spec = setup.point(value, channel)
                assert row.tolist() == [[c.theta, c.gamma, c.delta]
                                        for c in (cfg.coin_a, *cfg.coin_b)]
                assert np.array_equal(corners[i * len(channels) + k],
                                      corner_stack(spec.kind, spec.p)[0])


def test_sweep_block_boundaries_do_not_change_rows(monkeypatch):
    rng = np.random.default_rng(77)
    setups = [FIGURES[1], FIGURES[9], random_setup(rng, "beta2")]
    monkeypatch.setattr(figures, "SWEEP_BLOCK", 10 ** 6)
    whole = [sweep_rows(setup) for setup in setups]
    monkeypatch.setattr(figures, "SWEEP_BLOCK", 7)
    for setup, want in zip(setups, whole):
        assert_rows_match(sweep_rows(setup), want, 0.0)


@pytest.mark.parametrize("block", [7, 64])
def test_sweep_plays_each_chunk_in_one_call(monkeypatch, block):
    """A chunk of grid values builds its coin angles once, shares them across
    its channels, builds each channel's corners from one kind and plays all
    of its (value, channel) points in one call, which builds its coins once
    per angle set."""
    calls = {"angles": [], "kinds": [], "points": [], "sets": []}

    def counted(module, name, log, record):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[log].append(record(args, result))
            return result
        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(figures, "SWEEP_BLOCK", block)
    counted(figures, "coin_angles", "angles",
            lambda args, result: len(result))
    counted(figures, "corner_stack", "kinds",
            lambda args, result: args[0])
    counted(figures, "play_arrays", "points",
            lambda args, result: len(result[0]))
    counted(engine, "coin_matrices", "sets",
            lambda args, result: len(result))
    chunks = -(-GRID_POINTS // block)
    sizes = [min(block, GRID_POINTS - at)
             for at in range(0, GRID_POINTS, block)]
    for number, shared_angles in ((2, False), (1, True)):
        for log in calls.values():
            log.clear()
        setup = FIGURES[number]
        sweep_rows(setup)
        want_sets = [1] * chunks if shared_angles else sizes
        assert calls["angles"] == want_sets
        assert calls["kinds"] == list(setup.channels) * chunks
        assert all(isinstance(kind, str) for kind in calls["kinds"])
        assert calls["points"] == [g * len(setup.channels) for g in sizes]
        assert calls["sets"] == want_sets


def test_rows_to_csv_format():
    text = rows_to_csv([("p", 0.5, "ad", -0.012345678901234),
                        ("p", -0.0, "none", 1e-17)])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "p,0.5,ad,-0.0123456789012"
    assert lines[2].startswith("p,0,none,")     # -0.0 normalized
    assert text.endswith("\n")


def test_csv_prints_rounding_noise_about_zero_as_zero():
    text = rows_to_csv([("p", 1.0, "dp", -9.9e-15), ("p", 1.0, "dp", 1e-14),
                        ("p", 1.0, "dp", 2.5e-7)])
    assert text.splitlines()[1:] == ["p,1,dp,0", "p,1,dp,1e-14",
                                     "p,1,dp,2.5e-07"]


def test_depolarized_presets_print_zero_at_full_strength():
    # the fully depolarized register pays exactly 0; the engine's sum
    # leaves ~1e-16 of rounding, which must not reach the CSV
    for number in (1, 8, 9):
        rows = [line for line in figure_csv(number).splitlines()
                if line.startswith("p,1,dp,")]
        assert rows == ["p,1,dp,0"], number


def test_figure_presets_cover_expected_setups():
    assert set(FIGURES) == {1, 2, 3, 4, 5, 6, 8, 9}
    assert FIGURES[1].var == "p" and FIGURES[1].sequence == "AAB"
    assert FIGURES[2].var == "delta"
    for n in (3, 4, 5, 6):
        assert FIGURES[n].var == f"beta{n - 2}"
    assert FIGURES[8].sequence == "BB" and FIGURES[9].sequence == "BBB"
    for n in (8, 9):
        assert FIGURES[n].assignment == "canonical"
        assert FIGURES[n].convention == PayoffConvention("all", "per_qubit")
        assert FIGURES[n].eps == pytest.approx(1 / 112)


def test_figure_rows_shapes():
    rows = figure_rows(7)
    assert len(rows) == GRID_POINTS * 4
    labels = {r[2] for r in rows}
    assert labels == {"ad:eps=1/168", "dp:eps=1/168",
                      "ad:eps=1/112", "dp:eps=1/112"}
    with pytest.raises(ValueError):
        figure_rows(10)
    with pytest.raises(ValueError):
        figure_rows(0)


def test_figure_csv_deterministic_and_anchored():
    text1 = figure_csv(1)
    text2 = figure_csv(1)
    assert text1 == text2
    lines = text1.splitlines()
    assert len(lines) == 1 + GRID_POINTS * 4
    # first grid point, amplitude damping: frozen reference value
    assert lines[1] == "p,0,ad,-0.0227287919225"
    # all four channels agree at p=0
    first = {line.split(",")[3] for line in lines[1:5]}
    assert len(first) == 1


def test_figure7_matches_series_form():
    rows = figure_rows(7)
    from parrondoq import oracle
    for var, value, label, payoff in rows[:8]:
        kind = label.split(":")[0]
        eps = 1 / 168 if label.endswith("1/168") else 1 / 112
        assert payoff == oracle.series_aab(kind, value, eps)
