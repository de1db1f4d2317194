"""Parameter sweeps and the preset figure set, rendered as CSV text.

A sweep varies one quantity (decoherence strength, a bias offset, or a phase
angle) over a uniform grid, recalibrating the coins at every point, and
reports one payoff per (grid value, channel) pair. Rows are ordered
grid-major, channel-minor. ``SweepSetup.point`` is the one place that turns
game knobs into a coin configuration and a noise spec; the CLI's ``payoff``
is a one-point sweep. ``sweep_rows`` plays the points as one batched window
sweep (``engine.play_many``), in blocks of at most ``SWEEP_BLOCK`` points.
Payoffs within 1e-14 of zero print as ``0`` in the CSV. Presets 1-9 pin the
parameter choices for the standard plots; preset 7 evaluates the
repeated-sequence closed forms instead of simulating.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .coins import GameConfig, calibrate_classical, max_payoff_phases
from .engine import DEFAULT_CONVENTION, PayoffConvention, play_many
# Not called here: bench/tracing.py wraps ``figures.play``, so it stays
# importable from this module.
from .engine import play  # noqa: F401
from .noise import KINDS, NoiseSpec

SWEEP_VARS = ("p", "eps", "delta", "beta1", "beta2", "beta3", "beta4")
CSV_HEADER = "sweep_var,value,channel,payoff"
_PI = math.pi


@dataclass(frozen=True)
class SweepSetup:
    """One sweep: the varied quantity, its grid, and the fixed game knobs.

    A beta left as None is derived: from delta under ``max_phases``, else 0.
    An explicit or swept beta always wins.
    """
    sequence: str
    var: str
    start: float
    stop: float
    count: int
    channels: tuple = ("none",)
    p: float = 0.0
    eps: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    alphas: tuple = (0.0, 0.0, 0.0, 0.0)
    betas: tuple = (None, None, None, None)
    max_phases: bool = False       # re-derive unset betas from delta
    assignment: str = "printed"
    convention: PayoffConvention = DEFAULT_CONVENTION

    def __post_init__(self):
        if self.var not in SWEEP_VARS:
            raise ValueError(f"unknown sweep variable {self.var!r}")
        if self.count < 1:
            raise ValueError("grid needs at least one point")
        for ch in self.channels:
            if ch not in KINDS:
                raise ValueError(f"unknown channel {ch!r}")
        if not self.channels:
            raise ValueError("need at least one channel")

    def point(self, value: float, channel: str) -> tuple[GameConfig, NoiseSpec]:
        """Coin configuration and noise spec with ``var`` set to ``value``;
        the ``none`` channel ignores p."""
        knobs = {"p": self.p, "eps": self.eps, "delta": self.delta}
        betas = list(self.betas)
        if self.var.startswith("beta"):
            betas[int(self.var[-1]) - 1] = value
        else:
            knobs[self.var] = value
        derived = (max_payoff_phases(knobs["delta"]) if self.max_phases
                   else (0.0, 0.0, 0.0, 0.0))
        cfg = calibrate_classical(
            knobs["eps"], gamma=self.gamma, delta=knobs["delta"],
            alphas=self.alphas,
            betas=tuple(d if b is None else b for b, d in zip(betas, derived)),
            assignment=self.assignment)
        spec = (NoiseSpec("none", 0.0) if channel == "none"
                else NoiseSpec(channel, knobs["p"]))
        return cfg, spec


#: Most points one batched play takes, so memory stays flat on long grids.
#: Blocks of 128 to 1024 points measured no faster, and every point holds
#: two 4 KB window stacks while a game is applied.
SWEEP_BLOCK = 64


def sweep_rows(setup: SweepSetup) -> list:
    """Evaluate a sweep; returns (var, value, channel, payoff) tuples."""
    keys = [(float(value), channel)
            for value in np.linspace(setup.start, setup.stop, setup.count)
            for channel in setup.channels]
    rows = []
    for at in range(0, len(keys), SWEEP_BLOCK):
        block = keys[at:at + SWEEP_BLOCK]
        reports = play_many(setup.sequence,
                            [setup.point(value, channel)
                             for value, channel in block],
                            setup.convention)
        rows.extend((setup.var, value, channel, report.payoff)
                    for (value, channel), report in zip(block, reports))
    return rows


#: Payoffs smaller than this print as 0: they are rounding noise about an
#: exact zero, and their digits would depend on the summation order.
_CSV_ZERO = 1e-14


def _csv_num(x: float) -> str:
    return f"{x + 0.0:.12g}"        # + 0.0 folds -0.0 into 0


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for var, value, channel, payoff in rows:
        payoff = 0.0 if abs(payoff) < _CSV_ZERO else payoff
        lines.append(f"{var},{_csv_num(value)},{channel},{_csv_num(payoff)}")
    return "\n".join(lines) + "\n"


GRID_POINTS = 51
_AAB_CHANNELS = ("ad", "dp", "pd", "none")
_CHAIN_CONVENTION = PayoffConvention("all", "per_qubit")

#: Presets 1-6 sweep a single AAB round (raw score sum, as the single-round
#: closed forms report it); 8-9 sweep B chains under the per-qubit
#: convention with the reversed probability order, phases at the
#: payoff-maximizing choice. A 0.0 in a swept beta slot is a placeholder.
FIGURES = {
    1: SweepSetup("AAB", "p", 0.0, 1.0, GRID_POINTS, _AAB_CHANNELS,
                  eps=1 / 168, delta=_PI / 5,
                  betas=(_PI / 2, _PI / 2, _PI / 4, _PI / 3)),
    2: SweepSetup("AAB", "delta", 0.0, 2 * _PI, GRID_POINTS, _AAB_CHANNELS,
                  p=0.5, eps=1 / 168,
                  betas=(_PI / 2, _PI / 3, _PI / 4, _PI / 3)),
    3: SweepSetup("AAB", "beta1", 0.0, 2 * _PI, GRID_POINTS, _AAB_CHANNELS,
                  p=0.5, eps=1 / 168, delta=_PI / 2,
                  betas=(0.0, _PI / 3, _PI / 2, _PI)),
    4: SweepSetup("AAB", "beta2", 0.0, 2 * _PI, GRID_POINTS, _AAB_CHANNELS,
                  p=0.5, eps=1 / 168, delta=_PI,
                  betas=(_PI / 2, 0.0, _PI, _PI / 2)),
    5: SweepSetup("AAB", "beta3", 0.0, 2 * _PI, GRID_POINTS, _AAB_CHANNELS,
                  p=0.5, eps=1 / 168, delta=_PI / 2,
                  betas=(2 * _PI, _PI / 6, 0.0, _PI)),
    6: SweepSetup("AAB", "beta4", 0.0, 2 * _PI, GRID_POINTS, _AAB_CHANNELS,
                  p=0.5, eps=1 / 168, delta=_PI / 2,
                  betas=(_PI / 4, _PI / 4, _PI / 4, 0.0)),
    8: SweepSetup("BB", "p", 0.0, 1.0, GRID_POINTS, ("ad", "dp"),
                  eps=1 / 112, max_phases=True, assignment="canonical",
                  convention=_CHAIN_CONVENTION),
    9: SweepSetup("BBB", "p", 0.0, 1.0, GRID_POINTS, ("ad", "dp"),
                  eps=1 / 112, max_phases=True, assignment="canonical",
                  convention=_CHAIN_CONVENTION),
}

#: Preset 7: repeated-AAB closed-form payoff vs p at two bias offsets.
_SERIES_PRESET = (("ad", 1 / 168, "ad:eps=1/168"),
                  ("dp", 1 / 168, "dp:eps=1/168"),
                  ("ad", 1 / 112, "ad:eps=1/112"),
                  ("dp", 1 / 112, "dp:eps=1/112"))


def figure_rows(number: int) -> list:
    if number == 7:
        grid = np.linspace(0.0, 1.0, GRID_POINTS)
        return [("p", float(v), label, oracle.series_aab(kind, float(v), eps))
                for v in grid for kind, eps, label in _SERIES_PRESET]
    try:
        setup = FIGURES[number]
    except KeyError:
        raise ValueError("figure number must be 1..9") from None
    return sweep_rows(setup)


def figure_csv(number: int) -> str:
    """CSV text for one preset; deterministic for a given number."""
    return rows_to_csv(figure_rows(number))
