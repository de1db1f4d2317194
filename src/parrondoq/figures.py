"""Parameter sweeps and the preset figure set, rendered as CSV text.

A sweep varies one quantity (decoherence strength, a bias offset, or a phase
angle) over a uniform grid, recalibrating the coins at every point, and
reports one payoff per (grid value, channel) pair. Rows are ordered
grid-major, channel-minor. ``SweepSetup._knobs`` is the one place that
turns game knobs into each point's calibration inputs and strength;
``SweepSetup.block`` builds a chunk's coin angles once, shared by all of
its channels, and the noise corners of its (value, channel) points in row
order as arrays, and ``SweepSetup.point`` builds one point's coin
configuration and noise spec. A sweep with any out-of-domain point is
refused when it is set up. ``sweep_rows`` walks the grid in chunks of at
most ``SWEEP_BLOCK`` values and plays each chunk, values times channels
points, as one batched window sweep (``engine.play_arrays``), as the CLI's
``payoff`` plays its one point. ``payoff_text`` prints a payoff, as ``0``
within 1e-14 of zero, for both. Presets 1-9 pin the parameter choices for
the standard plots; preset 7 evaluates the repeated-sequence closed forms
instead of simulating.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .coins import (GameConfig, SizeLimitError, calibrate_classical,
                    coin_angles, max_payoff_phases)
from .engine import DEFAULT_CONVENTION, PayoffConvention, play_arrays
# Not called here: bench/tracing.py wraps ``figures.play``, so it stays
# importable from this module.
from .engine import play  # noqa: F401
from .noise import KINDS, NoiseSpec, corner_stack

SWEEP_VARS = ("p", "eps", "delta", "beta1", "beta2", "beta3", "beta4")
CSV_HEADER = "sweep_var,value,channel,payoff"
_PI = math.pi

#: Most (grid value, channel) points one sweep may ask for; larger grids are
#: refused before any of their points is built.
MAX_SWEEP_POINTS = 10 ** 6


@dataclass(frozen=True)
class SweepSetup:
    """One sweep: the varied quantity, its grid, and the fixed game knobs.

    A beta left as None is derived: from delta under ``max_phases``, else 0.
    An explicit or swept beta always wins. The knobs are those
    ``coin_angles`` takes.
    """
    sequence: str
    var: str
    start: float
    stop: float
    count: int
    channels: tuple = ("none",)
    p: float = 0.0
    eps: float = 0.0
    delta: float = 0.0
    betas: tuple = (None, None, None, None)
    max_phases: bool = False       # re-derive unset betas from delta
    assignment: str = "printed"
    convention: PayoffConvention = DEFAULT_CONVENTION

    def __post_init__(self):
        if self.var not in SWEEP_VARS:
            raise ValueError(f"unknown sweep variable {self.var!r}")
        if self.count < 1:
            raise ValueError("grid needs at least one point")
        for i, ch in enumerate(self.channels):
            if ch not in KINDS:
                raise ValueError(f"unknown channel {ch!r}")
            # (var, value, channel) keys a CSV row
            if ch in self.channels[:i]:
                raise ValueError(f"channel {ch!r} given twice")
        if not self.channels:
            raise ValueError("need at least one channel")
        points = self.count * len(self.channels)
        if points > MAX_SWEEP_POINTS:
            raise SizeLimitError(
                f"sweep needs {points} points, limit is {MAX_SWEEP_POINTS}")
        self._refuse_out_of_domain()

    def grid(self) -> np.ndarray:
        """The values ``var`` takes, in order."""
        return np.linspace(self.start, self.stop, self.count)

    def _knobs(self, values):
        """epsilon, delta, the channel strength and the four betas with
        ``var`` set to ``values``, each a scalar or one value per point; a
        swept or explicit beta beats ``max_phases``, which beats 0."""
        knobs = {"p": self.p, "eps": self.eps, "delta": self.delta}
        betas = list(self.betas)
        if self.var.startswith("beta"):
            betas[int(self.var[-1]) - 1] = values
        else:
            knobs[self.var] = values
        derived = (max_payoff_phases(knobs["delta"]) if self.max_phases
                   else (0.0, 0.0, 0.0, 0.0))
        betas = tuple(d if b is None else b for b, d in zip(betas, derived))
        return knobs["eps"], knobs["delta"], knobs["p"], betas

    def block(self, values, channels) -> tuple[np.ndarray, np.ndarray]:
        """Coin angles ``(g, 5, 3)`` of g grid values, with ``var`` set to
        ``values[i]`` at value i, and the noise corners ``(g K, 4, 2, 2)``
        of the g K points on the K ``channels``, point-major: value i on
        channel k is row i K + k, as the CSV orders rows. Every channel
        shares its value's angle set, and a p-sweep's values share one,
        returned once, as ``(1, 5, 3)``; any other sweep's values share one
        strength, whose corners are built once per channel and
        broadcast."""
        values = np.asarray(values, dtype=float)
        eps, delta, p, betas = self._knobs(values)
        angles = coin_angles(eps, delta=delta, betas=betas,
                             assignment=self.assignment)
        corners = np.stack([corner_stack(channel, p) for channel in channels],
                           axis=1)
        return angles, np.broadcast_to(
            corners, (len(values),) + corners.shape[1:]).reshape(-1, 4, 2, 2)

    def point(self, value: float, channel: str) -> tuple[GameConfig, NoiseSpec]:
        """Coin configuration and noise spec of one point, from the same
        knob rule as ``block``."""
        eps, delta, p, betas = self._knobs(value)
        cfg = calibrate_classical(eps, delta=delta, betas=betas,
                                  assignment=self.assignment)
        return cfg, NoiseSpec(channel, float(p))

    def _refuse_out_of_domain(self) -> None:
        """Raise the error the first out-of-domain point would raise, before
        any point is played. Every knob's domain is an interval and the grid
        is monotone with exact ends, so the points are all valid when both
        ends are; otherwise the invalid ones are a prefix or a suffix."""
        grid = self.grid()

        def check(*at: int) -> None:
            self.block(grid[list(at)], self.channels)

        def valid(*at: int) -> bool:
            try:
                check(*at)
            except ValueError:
                return False
            return True

        if valid(0, self.count - 1):
            return
        check(0)
        check(bisect.bisect(range(self.count), False,
                            key=lambda at: not valid(at)))


#: Most grid values one batched play takes, so memory stays flat on long
#: grids. A chunk is played as one call of its values times its channels
#: points.
SWEEP_BLOCK = 64


def sweep_rows(setup: SweepSetup) -> list:
    """Evaluate a sweep; returns (var, value, channel, payoff) tuples."""
    grid, channels = setup.grid(), setup.channels
    payoffs = np.empty((setup.count, len(channels)))
    for at in range(0, setup.count, SWEEP_BLOCK):
        chunk = slice(at, at + SWEEP_BLOCK)
        angles, corners = setup.block(grid[chunk], channels)
        played = play_arrays(setup.sequence, angles, corners,
                             setup.convention)
        payoffs[chunk] = played[0].reshape(-1, len(channels))
    values = np.repeat(grid, len(channels)).tolist()
    return list(zip([setup.var] * len(values), values,
                    list(channels) * setup.count, payoffs.ravel().tolist()))


#: Payoffs smaller than this print as 0: they are rounding noise about an
#: exact zero, and their digits would depend on the summation order.
_PAYOFF_ZERO = 1e-14


def _csv_num(x: float) -> str:
    return f"{x + 0.0:.12g}"        # + 0.0 folds -0.0 into 0


def payoff_text(payoff: float) -> str:
    """A payoff as the CSV and ``payoff`` print it."""
    return _csv_num(0.0 if abs(payoff) < _PAYOFF_ZERO else payoff)


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for var, value, channel, payoff in rows:
        lines.append(f"{var},{_csv_num(value)},{channel},"
                     f"{payoff_text(payoff)}")
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
