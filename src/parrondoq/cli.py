"""Command-line interface.

Subcommands: ``payoff`` (one game sequence, one number), ``sweep`` (CSV over
a parameter grid), ``figure`` (preset sweeps 1-9), ``verify`` (cross-check
registry). Exit codes: 0 success, 1 verification failure, 2 usage error,
3 register size limit, 4 calibration failure.

Angles accept multiples of pi ("pi/5", "2pi/3", "-pi/2") as well as plain
floats and fractions of them ("0.25", ".5", "1e-3", "1/168"). An INI config
file can supply any flag's value; explicit flags win, and a malformed file
is a usage error.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import math
import re
import sys
from dataclasses import replace

from .coins import CoinParams, ParseError, SizeLimitError
from .engine import CONVENTION_NAMES, play
from .figures import SWEEP_VARS, SweepSetup, rows_to_csv, sweep_rows, figure_csv
from .noise import KINDS
from .verify import (CalibrationError, discover_convention, format_report,
                     run_all)

#: An unsigned plain float: "5", "5.", ".5", "2.5", "1e-3", "2.5E-1".
_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?"
_NUMBER = re.compile(
    rf"^(?P<sign>[+-]?)(?P<num>{_FLOAT})?(?P<pi>pi)?(?:/(?P<den>{_FLOAT}))?$")


def parse_angle(text: str) -> float:
    """Parse "pi/5", "2pi/3", "-pi", "0.4", "1e-3", "1/168" into a finite
    float."""
    m = _NUMBER.match(text.strip().lower().replace(" ", ""))
    if not m or (m.group("num") is None and m.group("pi") is None):
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}")
    value = float(m.group("num")) if m.group("num") else 1.0
    if m.group("pi"):
        value *= math.pi
    if m.group("den"):
        den = float(m.group("den"))
        if den == 0:
            raise argparse.ArgumentTypeError("division by zero in "
                                             f"{text!r}")
        value /= den
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"number {text!r} is not finite")
    return -value if m.group("sign") == "-" else value


def parse_grid(text: str) -> tuple:
    """Parse "start:stop:count" (angle syntax allowed in start/stop)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:count, got {text!r}")
    start, stop = (parse_angle(p) for p in parts[:2])
    try:
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid count must be an integer, got {parts[2]!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    return start, stop, count


_ANGLE_KEYS = ("theta", "gamma", "delta",
               "phi1", "phi2", "phi3", "phi4",
               "alpha1", "alpha2", "alpha3", "alpha4",
               "beta1", "beta2", "beta3", "beta4")
_BOOL_KEYS = ("canonical", "max_phases", "identity_coins")


def _add_game_flags(sub: argparse.ArgumentParser, sweepable: bool) -> None:
    sub.add_argument("--seq", help="game sequence, e.g. AAB, B^3, (AAB)^2")
    sub.add_argument("--eps", type=parse_angle, metavar="E",
                     help="classical bias offset (e.g. 1/168)")
    for key in _ANGLE_KEYS:
        sub.add_argument(f"--{key}", type=parse_angle, metavar="ANGLE")
    sub.add_argument("--max-phases", action="store_const", const=True,
                     dest="max_phases",
                     help="set the four beta phases to the payoff-maximizing "
                          "choice for delta")
    sub.add_argument("--identity-coins", action="store_const", const=True,
                     dest="identity_coins",
                     help="replace both coins with the identity")
    sub.add_argument("--canonical", action="store_const", const=True,
                     help="assign the four winning probabilities in "
                          "reversed list order")
    sub.add_argument("--convention",
                     choices=sorted(CONVENTION_NAMES) + ["auto"],
                     help="payoff counting convention (auto = run the "
                          "convention search)")
    sub.add_argument("--channel", action="append", choices=KINDS,
                     help="noise channel" + (" (repeatable)" if sweepable
                                             else ""))
    sub.add_argument("--p", type=parse_angle, metavar="P",
                     help="decoherence strength in [0, 1]")
    sub.add_argument("--config", metavar="FILE",
                     help="INI file supplying any of these values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parrondoq",
        description="History-dependent quantum coin games on entangled "
                    "registers under decoherence.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_pay = subs.add_parser("payoff", help="payoff of one game sequence")
    _add_game_flags(p_pay, sweepable=False)

    p_sweep = subs.add_parser("sweep", help="payoff over a parameter grid")
    _add_game_flags(p_sweep, sweepable=True)
    p_sweep.add_argument("--var", choices=SWEEP_VARS,
                         help="the swept quantity")
    p_sweep.add_argument("--grid", type=parse_grid, metavar="START:STOP:N")
    p_sweep.add_argument("--out", metavar="FILE",
                         help="write CSV here instead of stdout")

    p_fig = subs.add_parser("figure", help="render a preset sweep as CSV")
    p_fig.add_argument("number", type=int, choices=range(1, 10),
                       metavar="N", help="preset number, 1-9")
    p_fig.add_argument("--out", metavar="FILE")

    subs.add_parser("verify", help="run the cross-validation registry")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call. Parsing keeps no
    state in it: each call starts from a fresh namespace."""
    return build_parser()


def _load_config(path: str) -> dict:
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    flat: dict = {}
    if cp.has_section("game"):
        game = cp["game"]
        for key in ("seq", "convention"):
            if key in game:
                flat[key] = game[key]
        for key in ("eps",) + _ANGLE_KEYS:
            if key in game:
                flat[key] = parse_angle(game[key])
        for key in _BOOL_KEYS:
            if key in game:
                flat[key] = game.getboolean(key)
    if cp.has_section("noise"):
        noise = cp["noise"]
        if "channel" in noise:
            flat["channel"] = [c.strip() for c in noise["channel"].split(",")]
        if "p" in noise:
            flat["p"] = parse_angle(noise["p"])
    if cp.has_section("sweep"):
        sweep = cp["sweep"]
        if "var" in sweep:
            flat["var"] = sweep["var"]
        if "grid" in sweep:
            flat["grid"] = parse_grid(sweep["grid"])
        if "out" in sweep:
            flat["out"] = sweep["out"]
    return flat


def _merge_config(ns: argparse.Namespace) -> None:
    """Fill unset flags from the config file; explicit flags win."""
    if not getattr(ns, "config", None):
        return
    try:
        values = _load_config(ns.config)
    except (configparser.Error, argparse.ArgumentTypeError,
            ValueError) as err:       # not INI, or a value its flag refuses
        raise UsageError(f"config file {ns.config}: {err}") from None
    for key, value in values.items():
        if hasattr(ns, key) and getattr(ns, key) is None:
            setattr(ns, key, value)


class UsageError(Exception):
    pass


def _resolve_convention(ns) -> tuple:
    """Returns (convention, assignment, note_line_or_None)."""
    assignment = "canonical" if getattr(ns, "canonical", None) else "printed"
    name = ns.convention or "all-total"
    if name == "auto":
        finding = discover_convention()
        convention = finding.convention
        assignment = finding.assignment
        note = (f"convention={convention.name} assignment={assignment}")
        return convention, assignment, note
    return CONVENTION_NAMES[name], assignment, None


def _sweep_setup(ns, var: str, grid: tuple) -> tuple:
    """The game knobs of ``ns`` as a sweep of ``var`` over ``grid``.

    Returns (setup, convention note or None).
    """
    convention, assignment, note = _resolve_convention(ns)
    start, stop, count = grid
    setup = SweepSetup(
        sequence=ns.seq, var=var, start=start, stop=stop, count=count,
        channels=tuple(ns.channel or ("none",)),
        p=ns.p or 0.0, eps=ns.eps or 0.0,
        gamma=ns.gamma or 0.0, delta=ns.delta or 0.0,
        alphas=tuple(getattr(ns, f"alpha{i}") or 0.0 for i in range(1, 5)),
        betas=tuple(getattr(ns, f"beta{i}") for i in range(1, 5)),
        max_phases=bool(ns.max_phases), assignment=assignment,
        convention=convention)
    return setup, note


def cmd_payoff(ns) -> int:
    if not ns.seq:
        raise UsageError("payoff requires --seq")
    if ns.channel and len(ns.channel) != 1:
        raise UsageError("payoff takes exactly one --channel")
    p = ns.p or 0.0
    setup, note = _sweep_setup(ns, "p", (p, p, 1))
    cfg, spec = setup.point(p, setup.channels[0])
    if ns.identity_coins:
        zero = CoinParams(0.0, 0.0, 0.0)
        cfg = replace(cfg, coin_a=zero, coin_b=(zero,) * 4)
    else:
        if ns.theta is not None:
            cfg = replace(cfg, coin_a=replace(cfg.coin_a, theta=ns.theta))
        phis = (ns.phi1, ns.phi2, ns.phi3, ns.phi4)
        cfg = replace(cfg, coin_b=tuple(
            coin if phi is None else replace(coin, theta=phi)
            for coin, phi in zip(cfg.coin_b, phis)))
    report = play(setup.sequence, cfg, spec, setup.convention)
    if note:
        print(note)
    print(f"payoff={report.payoff + 0.0:.12g}")
    return 0


def _write_csv(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_sweep(ns) -> int:
    if not ns.seq:
        raise UsageError("sweep requires --seq")
    if not ns.var or not ns.grid:
        raise UsageError("sweep requires --var and --grid")
    fixed = [k for k in ("theta", "phi1", "phi2", "phi3", "phi4",
                         "identity_coins")
             if getattr(ns, k, None)]
    if fixed:
        raise UsageError("sweep recalibrates the coins at each grid point; "
                         f"--{fixed[0].replace('_', '-')} applies to "
                         "`payoff` only")
    setup, note = _sweep_setup(ns, ns.var, ns.grid)
    if note:
        print(note, file=sys.stderr)
    _write_csv(rows_to_csv(sweep_rows(setup)), ns.out)
    return 0


def cmd_figure(ns) -> int:
    _write_csv(figure_csv(ns.number), ns.out)
    return 0


def cmd_verify(_ns) -> int:
    results = run_all()
    sys.stdout.write(format_report(results))
    return 1 if any(r.failed for r in results) else 0


_COMMANDS = {"payoff": cmd_payoff, "sweep": cmd_sweep,
             "figure": cmd_figure, "verify": cmd_verify}


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:        # argparse handles --help/usage itself
        code = exc.code
        return int(code) if code else 0
    try:
        _merge_config(ns)
        return _COMMANDS[ns.command](ns)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ParseError as err:
        print(f"error: invalid sequence: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SizeLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except CalibrationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
