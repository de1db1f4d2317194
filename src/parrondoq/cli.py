"""Command-line interface.

Subcommands: ``payoff`` (one game sequence, one number), ``sweep`` (CSV over
a parameter grid), ``figure`` (preset sweeps 1-9), ``verify`` (cross-check
registry); ``payoff`` is the one-point ``sweep`` of the same flags, plus
the fixed-coin overrides ``--theta`` and ``--phi1..4``, which ``sweep`` does
not take: it recalibrates the coins at each grid point. The game flags are
the knobs a payoff can depend on; those that calibrate the coins are
exactly the ones ``coins.coin_angles`` takes.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 register
size limit. Only the ``verify`` command calls into the ``verify`` module;
the paper's chain convention is ``--canonical --convention all-perqubit``.

Angles accept multiples of pi ("pi/5", "2pi/3", "-pi/2") as well as plain
floats and fractions of them ("0.25", ".5", "1e-3", "1/168"). On every
angle flag, a negative value other than a plain decimal follows its flag
after "=", as in ``--theta=-pi/2``: argparse takes the "-pi/2" of
``--theta -pi/2`` for an option. Where the flag's domain refuses negatives
anyway, only the message differs: ``--delta -1e-3`` reports "expected one
argument", ``--delta=-1e-3`` the domain.

``--config FILE`` reads an INI file whose ``[game]``, ``[noise]`` and
``[sweep]`` keys are the flags' dests (``max_phases = true``), each read
through its flag's own type and choices as declared once in ``_KNOBS``: a
repeatable flag takes a comma-separated list, a switch an INI boolean.
Explicit flags win and undeclared keys are ignored, except the removed
``[game] identity_coins``, which would otherwise silently play calibrated
coins. A file that is not INI, a value its flag refuses, that removed key or
an override under ``sweep`` is a usage error naming the file and the key.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import math
import re
import sys

from .coins import ParseError, SizeLimitError
from .engine import CONVENTION_NAMES, play_arrays
from .figures import (SWEEP_VARS, SweepSetup, figure_csv, payoff_text,
                      sweep_csv)
from .noise import KINDS
from .verify import format_report, run_all

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


def _parse_coin_angle(text: str) -> float:
    """``parse_angle`` held to a coin rotation's range [-pi, pi]."""
    value = parse_angle(text)
    if not -math.pi <= value <= math.pi:
        raise argparse.ArgumentTypeError(f"angle {text!r} outside [-pi, pi]")
    return value


_ANGLE = dict(type=parse_angle, metavar="ANGLE")
_COIN_ANGLE = dict(type=_parse_coin_angle, metavar="ANGLE")
_SWITCH = dict(action="store_const", const=True)

#: The help note of the flags that take negative angles (see the module
#: docstring).
_EQUALS_FORM = ("a negative value written with pi, / or an exponent needs "
                "the = form (--{}=-pi/2)")

#: The coin rotations only ``payoff`` sets, in ``coin_angles`` row order.
_COIN_OVERRIDES = ("theta", "phi1", "phi2", "phi3", "phi4")

#: Every ``payoff``/``sweep`` knob once, in ``--help`` order: (INI section,
#: dest, ``add_argument`` keywords). The flag is ``--dest`` with "-" for "_";
#: a config file's ``[section] dest`` goes through the same type and choices.
_KNOBS = (
    ("game", "seq", dict(help="game sequence, e.g. AAB, B^3, (AAB)^2")),
    ("game", "eps", dict(type=parse_angle, metavar="E",
                         help="classical bias offset (e.g. 1/168)")),
    ("game", "theta", dict(_COIN_ANGLE, help="rotation of coin A in "
                           "[-pi, pi], in place of its calibrated one; "
                           + _EQUALS_FORM.format("theta"))),
    ("game", "delta", dict(_ANGLE, help="phase of coin A, in [0, 2pi]")),
    *(("game", f"phi{i}", dict(_COIN_ANGLE, help=f"rotation of B's sub-coin "
                               f"{i} in [-pi, pi], in place of its "
                               "calibrated one; "
                               + _EQUALS_FORM.format(f"phi{i}")))
      for i in range(1, 5)),
    *(("game", f"beta{i}", dict(_ANGLE, help=f"phase of B's sub-coin {i}, "
                                "in [0, 2pi]")) for i in range(1, 5)),
    ("game", "max_phases", dict(_SWITCH, help="set the four beta phases to "
                                "the payoff-maximizing choice for delta")),
    ("game", "canonical", dict(_SWITCH, help="assign the four winning "
                               "probabilities in reversed list order")),
    ("game", "convention", dict(choices=sorted(CONVENTION_NAMES),
                                help="payoff counting convention")),
    ("noise", "channel", dict(action="append", choices=KINDS,
                              help="noise channel")),
    ("noise", "p", dict(type=parse_angle, metavar="P",
                        help="decoherence strength in [0, 1]")),
    ("sweep", "var", dict(choices=SWEEP_VARS, help="the swept quantity")),
    ("sweep", "grid", dict(type=parse_grid, metavar="START:STOP:N",
                           help="N evenly spaced values, ends included")),
    ("sweep", "out", dict(metavar="FILE",
                          help="write CSV here instead of stdout")),
)


def _add_flags(sub: argparse.ArgumentParser, sections: tuple,
               leave_out: tuple = ()) -> dict:
    """Add the flags of the knobs in ``sections``, but for the dests in
    ``leave_out``; returns them by dest."""
    return {dest: sub.add_argument("--" + dest.replace("_", "-"), **kw)
            for section, dest, kw in _KNOBS
            if section in sections and dest not in leave_out}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parrondoq",
        description="History-dependent quantum coin games on entangled "
                    "registers under decoherence.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_pay = subs.add_parser("payoff", help="payoff of one game sequence")
    p_sweep = subs.add_parser("sweep", help="payoff over a parameter grid")
    for sub, leave_out in ((p_pay, ()), (p_sweep, _COIN_OVERRIDES)):
        flags = _add_flags(sub, ("game", "noise"), leave_out)
        sub.add_argument("--config", metavar="FILE",
                         help="INI file supplying any of these values")
    flags["channel"].help += " (repeatable)"        # sweep's, added last
    _add_flags(p_sweep, ("sweep",))

    p_fig = subs.add_parser("figure", help="render a preset sweep as CSV")
    p_fig.add_argument("number", type=int, choices=range(1, 10),
                       metavar="N", help="preset number, 1-9")
    p_fig.add_argument("--out", metavar="FILE",
                       help="write CSV here instead of stdout")

    subs.add_parser("verify", help="run the cross-validation registry")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call. Parsing keeps no
    state in it: each call starts from a fresh namespace."""
    return build_parser()


def _config_value(section: configparser.SectionProxy, dest: str, kw: dict):
    """``section[dest]`` read as its flag reads it: a switch as an INI
    boolean, a repeatable flag as a comma-separated list."""
    if kw.get("action") == "store_const":
        return section.getboolean(dest)
    append = kw.get("action") == "append"
    texts = section[dest].split(",") if append else [section[dest]]
    values = [kw.get("type", str)(text.strip()) for text in texts]
    for value in values:
        if value not in kw.get("choices", (value,)):
            raise ValueError(f"invalid choice: {value!r} (choose from "
                             f"{', '.join(map(repr, kw['choices']))})")
    return values if append else values[0]


def _merge_config(ns: argparse.Namespace) -> None:
    """Fill unset flags from the config file; explicit flags win. Every
    declared key is read, whatever the subcommand; other keys are
    ignored, but ``[game] identity_coins`` is refused, and so is an
    override under ``sweep``."""
    if not getattr(ns, "config", None):
        return
    cp, where = configparser.ConfigParser(), ""
    try:
        with open(ns.config, encoding="utf-8") as fh:
            cp.read_file(fh)
        if cp.has_option("game", "identity_coins"):
            where = "[game] identity_coins: "
            raise ValueError("removed; " + (
                "delete the key: sweep recalibrates the coins at each grid "
                "point" if ns.command == "sweep"
                else "set theta and phi1..phi4 to 0"))
        for section, dest, kw in _KNOBS:
            if cp.has_option(section, dest):
                where = f"[{section}] {dest}: "
                if ns.command == "sweep" and dest in _COIN_OVERRIDES:
                    raise ValueError("applies to `payoff` only; sweep "
                                     "recalibrates the coins at each grid "
                                     "point")
                value = _config_value(cp[section], dest, kw)
                if getattr(ns, dest, False) is None:
                    setattr(ns, dest, value)
    except (configparser.Error, argparse.ArgumentTypeError,
            ValueError) as err:       # not INI, or a value its flag refuses
        raise UsageError(f"config file {ns.config}: {where}{err}") from None


class UsageError(Exception):
    pass


def _sweep_setup(ns, var: str, grid: tuple) -> SweepSetup:
    """The game knobs of ``ns`` as a sweep of ``var`` over ``grid``."""
    start, stop, count = grid
    return SweepSetup(
        sequence=ns.seq, var=var, start=start, stop=stop, count=count,
        channels=tuple(ns.channel or ("none",)),
        p=ns.p or 0.0, eps=ns.eps or 0.0, delta=ns.delta or 0.0,
        betas=tuple(getattr(ns, f"beta{i}") for i in range(1, 5)),
        max_phases=bool(ns.max_phases),
        assignment="canonical" if ns.canonical else "printed",
        convention=CONVENTION_NAMES[ns.convention or "all-total"])


def cmd_payoff(ns) -> int:
    if not ns.seq:
        raise UsageError("payoff requires --seq")
    if ns.channel and len(ns.channel) != 1:
        raise UsageError("payoff takes exactly one --channel")
    p = ns.p or 0.0
    setup = _sweep_setup(ns, "p", (p, p, 1))
    angles, corners = setup.block([p], setup.channels)
    for row, name in enumerate(_COIN_OVERRIDES):
        if (theta := getattr(ns, name)) is not None:
            angles[:, row, 0] = theta
    payoffs = play_arrays(setup.sequence, angles, corners, setup.convention)[0]
    print(f"payoff={payoff_text(payoffs[0])}")
    return 0


def _write_csv(pieces, out: str | None) -> None:
    """Write CSV text pieces as they come. ``out`` is opened once the first
    piece exists, so a command that fails before any output makes no
    file."""
    pieces = iter(pieces)
    first = next(pieces)
    with (open(out, "w", encoding="utf-8", newline="") if out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(first)
        for piece in pieces:
            fh.write(piece)


def cmd_sweep(ns) -> int:
    if not ns.seq:
        raise UsageError("sweep requires --seq")
    if not ns.var or not ns.grid:
        raise UsageError("sweep requires --var and --grid")
    _write_csv(sweep_csv(_sweep_setup(ns, ns.var, ns.grid)), ns.out)
    return 0


def cmd_figure(ns) -> int:
    _write_csv([figure_csv(ns.number)], ns.out)
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
    except ParseError as err:
        print(f"error: invalid sequence: {err}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SizeLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
