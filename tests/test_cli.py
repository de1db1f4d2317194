import importlib
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from parrondoq import cli, figures
from parrondoq.coins import CoinParams, GameConfig
from parrondoq.engine import CONVENTION_NAMES, play
from parrondoq.figures import SweepSetup, payoff_text, rows_to_csv, sweep_rows
from parrondoq.noise import KINDS, NoiseSpec
from test_acceptance import SUMMARY

PI = math.pi


# --- number parsing --------------------------------------------------------

@pytest.mark.parametrize("text,want", [
    ("pi", PI),
    ("pi/5", PI / 5),
    ("2pi", 2 * PI),
    ("2pi/3", 2 * PI / 3),
    ("-pi/2", -PI / 2),
    ("0.5", 0.5),
    ("1/168", 1 / 168),
    ("3/4", 0.75),
    ("+0.25", 0.25),
    ("1.5pi", 1.5 * PI),
    ("1e-3", 1e-3),
    (".5", 0.5),
    ("5.", 5.0),
    ("2.5e-1", 0.25),
    ("-2.5E+1", -25.0),
    ("1/1e3", 1e-3),
    ("3/.5", 6.0),
    ("pi/2.5e-1", 4 * PI),
])
def test_parse_angle(text, want):
    assert cli.parse_angle(text) == pytest.approx(want)


@pytest.mark.parametrize("bad", ["", "pie", "x/2", "/5", "1//2", "1/0", "--",
                                 "nan", "inf", "-inf", "1e400", ".", "e5",
                                 "1e", "1/0e5"])
def test_parse_angle_rejects(bad):
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_angle(bad)


def test_parse_grid():
    assert cli.parse_grid("0:1:11") == (0.0, 1.0, 11)
    start, stop, count = cli.parse_grid("0:2pi:51")
    assert stop == pytest.approx(2 * PI)
    assert count == 51
    import argparse
    for bad in ("0:1", "0:1:0", "0:1:x", "1:2:3:4"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_grid(bad)


# --- payoff command --------------------------------------------------------

def last_payoff(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith("payoff=")
    return float(out[-1].split("=")[1])


def test_payoff_fig1_value(capsys):
    rc = cli.main(["payoff", "--seq", "AAB", "--eps", "1/168",
                   "--delta", "pi/5", "--beta1", "pi/2", "--beta2", "pi/2",
                   "--beta3", "pi/4", "--beta4", "pi/3",
                   "--channel", "ad", "--p", "0.25"])
    assert rc == 0
    assert last_payoff(capsys) == pytest.approx(-1.109887395048137e-02,
                                                abs=1e-12)


def test_payoff_identity_coins(capsys):
    """All five rotations at 0 play the identity coins."""
    rc = cli.main(["payoff", "--seq", "B", "--theta", "0", "--phi1", "0",
                   "--phi2", "0", "--phi3", "0", "--phi4", "0"])
    assert rc == 0
    assert last_payoff(capsys) == 0.0


def test_payoff_canonical_perqubit_single_b(capsys):
    rc = cli.main(["payoff", "--seq", "B", "--channel", "pd", "--p", "0.7",
                   "--eps", "1/168", "--max-phases", "--canonical",
                   "--convention", "all-perqubit"])
    assert rc == 0
    assert last_payoff(capsys) == pytest.approx(1 / 15, abs=1e-12)


def test_payoff_default_single_a_wins(capsys):
    # the calibrated fair coin rotates the one-qubit superposition
    # exactly onto the winning state
    rc = cli.main(["payoff", "--seq", "A"])
    assert rc == 0
    assert last_payoff(capsys) == pytest.approx(1.0, abs=1e-12)


def test_payoff_theta_override_beats_calibration(capsys):
    rc = cli.main(["payoff", "--seq", "A", "--theta=-pi/4"])
    assert rc == 0
    assert last_payoff(capsys) == pytest.approx(-1.0, abs=1e-12)


# --- exit codes ------------------------------------------------------------

def test_usage_exit_codes(capsys):
    assert cli.main(["payoff"]) == 2                       # missing --seq
    assert cli.main(["payoff", "--seq", "AXB"]) == 2       # parse error
    assert cli.main(["payoff", "--seq", "AAB", "--eps", "0.3"]) == 2
    assert cli.main(["payoff", "--seq", "AAB", "--channel", "ad",
                     "--channel", "dp"]) == 2
    assert cli.main(["sweep", "--seq", "AAB"]) == 2        # missing var/grid
    assert cli.main(["nonsense"]) == 2                     # unknown command
    capsys.readouterr()
    assert cli.main(["payoff", "--seq", "(" * 1000 + "A" + ")" * 1000]) == 2
    assert "error: invalid sequence: groups nested too deeply" in (
        capsys.readouterr().err)


def test_size_limit_exit_code(capsys):
    assert cli.main(["payoff", "--seq", "(AAB)^8"]) == 3
    err = capsys.readouterr().err
    assert "limit" in err
    assert cli.main(["sweep", "--seq", "AAB", "--var", "p",
                     "--grid", "0:1:1000000000000"]) == 3
    assert "limit is 1000000" in capsys.readouterr().err
    assert cli.main(["payoff", "--seq", "A^" + "9" * 5000]) == 3
    assert capsys.readouterr().err == (
        "error: exponent at offset 2 is too large, limit is 11 qubits\n")
    nest = "(" * 500 + "A" + ")^999999999" * 500
    assert cli.main(["payoff", "--seq", nest]) == 3
    assert capsys.readouterr().err == (
        "error: sequence needs more than 999999999 qubits, limit is 11\n")


def test_negative_angle_needs_the_equals_form(capsys):
    """argparse takes "-1e-3" after a space for an option, on every angle
    flag; after "=" it is read as the value, and delta's domain refuses
    it."""
    assert cli.main(["payoff", "--seq", "AAB", "--delta", "-1e-3"]) == 2
    assert "argument --delta: expected one argument" in (
        capsys.readouterr().err)
    assert cli.main(["payoff", "--seq", "AAB", "--delta=-1e-3"]) == 2
    assert capsys.readouterr().err == (
        "error: delta -0.001 outside [0, 2pi]\n")


@pytest.mark.parametrize("flag", ["theta", "phi1", "phi4"])
def test_coin_override_out_of_range_names_its_flag(tmp_path, capsys, flag):
    assert cli.main(["payoff", "--seq", "B", f"--{flag}", "4"]) == 2
    assert f"argument --{flag}: angle '4' outside [-pi, pi]" in (
        capsys.readouterr().err)
    ini = tmp_path / "coin.ini"
    ini.write_text(f"[game]\nseq = B\n{flag} = 4\n")
    assert cli.main(["payoff", "--config", str(ini)]) == 2
    assert capsys.readouterr().err == (f"error: config file {ini}: [game] "
                                       f"{flag}: angle '4' outside [-pi, pi]\n")


@pytest.mark.parametrize("flag", ["theta", "phi1"])
def test_sweep_refuses_a_zero_coin_override(tmp_path, capsys, flag):
    """An override of 0 is refused like any other: ``sweep`` has no such
    flag, and a config file's key names the file and the key."""
    base = ["sweep", "--seq", "A", "--var", "p", "--grid", "0:1:2"]
    assert cli.main(base + [f"--{flag}", "0"]) == 2
    refused = capsys.readouterr()
    assert f"unrecognized arguments: --{flag} 0" in refused.err
    assert refused.out == ""
    ini = tmp_path / "coin.ini"
    ini.write_text(f"[game]\n{flag} = 0\n")
    assert cli.main(base + ["--config", str(ini)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: config file {ini}: [game] {flag}: applies to `payoff` "
        "only; sweep recalibrates the coins at each grid point\n"))


def test_out_of_domain_sweep_exits_before_playing(capsys, monkeypatch):
    from parrondoq import engine, figures
    calls = []
    monkeypatch.setattr(engine, "_window_expectations",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(figures, "play_arrays",
                        lambda *args: calls.append(args))
    rc = cli.main(["sweep", "--seq", "AAB", "--var", "eps",
                   "--grid", "0:0.2:40000", "--channel", "ad", "--p", "0.3"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: epsilon 0.10000250006250158 outside [0, 0.1]\n")
    assert calls == []


def test_sweep_rejects_fixed_angle_overrides(capsys):
    rc = cli.main(["sweep", "--seq", "AAB", "--var", "p", "--grid", "0:1:3",
                   "--theta", "pi/3"])
    assert rc == 2
    assert "unrecognized arguments: --theta pi/3" in capsys.readouterr().err


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_out_of_range_beta_names_its_flag(capsys, n):
    """A sub-coin phase out of range is named as its flag, not as the coin
    field it sets."""
    assert cli.main(["payoff", "--seq", "AAB", f"--beta{n}", "7"]) == 2
    assert capsys.readouterr().err == (f"error: beta{n} 7.0 outside "
                                       "[0, 2pi]\n")
    assert cli.main(["sweep", "--seq", "AAB", "--var", f"beta{n}",
                     "--grid", "0:7:3"]) == 2
    assert capsys.readouterr().err == (f"error: beta{n} 7.0 outside "
                                       "[0, 2pi]\n")


def test_sweep_refuses_a_repeated_channel(tmp_path, capsys):
    """A channel given twice would print each of its rows twice."""
    base = ["sweep", "--seq", "AAB", "--var", "p", "--grid", "0:1:2"]
    assert cli.main(base + ["--channel", "ad", "--channel", "ad"]) == 2
    assert capsys.readouterr() == ("", "error: channel 'ad' given twice\n")
    ini = tmp_path / "twice.ini"
    ini.write_text("[noise]\nchannel = ad, dp, ad\n")
    assert cli.main(base + ["--config", str(ini)]) == 2
    assert capsys.readouterr() == ("", "error: channel 'ad' given twice\n")


# --- sweep / figure output -------------------------------------------------

def test_sweep_csv_stdout(capsys):
    rc = cli.main(["sweep", "--seq", "AAB", "--var", "p", "--grid", "0:1:3",
                   "--channel", "ad", "--channel", "dp",
                   "--eps", "1/168", "--delta", "pi/5", "--max-phases"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "sweep_var,value,channel,payoff"
    assert len(lines) == 1 + 3 * 2
    assert lines[1].startswith("p,0,ad,")
    assert lines[2].startswith("p,0,dp,")
    assert lines[3].startswith("p,0.5,ad,")


def test_streamed_sweep_equals_whole_csv(tmp_path, capsys, monkeypatch):
    """The CLI writes a sweep chunk by chunk; with chunks of 7 values, 23
    values on two channels leave a short last chunk, and the bytes are
    those of the whole sweep rendered at once."""
    flags = ["sweep", "--seq", "AAB", "--var", "delta", "--grid", "0:pi:23",
             "--channel", "ad", "--channel", "pd", "--p", "0.3",
             "--eps", "1/168", "--max-phases"]
    setup = SweepSetup("AAB", "delta", 0.0, PI, 23, ("ad", "pd"), p=0.3,
                       eps=1 / 168, max_phases=True)
    want = rows_to_csv(sweep_rows(setup))
    monkeypatch.setattr(figures, "SWEEP_BLOCK", 7)
    assert len(list(figures.sweep_csv(setup))) == 4
    assert cli.main(flags) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "sweep.csv"
    assert cli.main(flags + ["--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("seq,code", [("AXB", 2), ("B^12", 3)])
def test_failed_sweep_writes_no_file(tmp_path, capsys, seq, code):
    """The sequence is parsed when the first chunk plays; the file is
    opened only after that."""
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--seq", seq, "--var", "p", "--grid", "0:1:3",
                     "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_streamed_sweep_holds_one_chunk(tmp_path):
    """10^5 points hold one chunk's rows and text at a time: about 1 MiB
    traced, where the whole rows and text took 28 MiB."""
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        assert cli.main(["sweep", "--seq", "A", "--var", "p",
                         "--grid", "0:1:25000", "--channel", "ad",
                         "--channel", "dp", "--channel", "pd",
                         "--channel", "none", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    with open(out, "rb") as fh:
        assert sum(1 for _ in fh) == 1 + 10 ** 5


def sweep_payoffs(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "sweep_var,value,channel,payoff"
    return [line.split(",")[3] for line in lines[1:]]


def test_sweep_beta_with_max_phases_varies(capsys):
    rc = cli.main(["sweep", "--seq", "AAB", "--eps", "1/168",
                   "--delta", "pi/5", "--max-phases", "--channel", "pd",
                   "--p", "0.5", "--var", "beta1", "--grid", "0:pi:3"])
    assert rc == 0
    assert len(set(sweep_payoffs(capsys))) == 3


@pytest.mark.parametrize("flags", [
    ["--seq", "AAB", "--eps", "1/168", "--delta", "pi/5", "--max-phases",
     "--beta1", "pi/2", "--channel", "pd", "--p", "0.5"],
    ["--seq", "AAB", "--eps", "1/168", "--delta", "pi/5", "--beta1", "pi/2",
     "--beta3", "pi/4", "--channel", "dp", "--p", "0.25"],
    # rounding noise about an exact zero prints as 0 on both
    ["--seq", "AA", "--eps", "1/168", "--channel", "dp", "--p", "0.5"],
    ["--seq", "AAB", "--eps", "1/168", "--channel", "dp", "--p", "1"],
])
def test_payoff_equals_one_point_sweep(flags, capsys):
    assert cli.main(["payoff"] + flags) == 0
    payoff = capsys.readouterr().out.strip().split("=")[1]
    p = flags[flags.index("--p") + 1]
    assert cli.main(["sweep"] + flags + ["--var", "p",
                                         "--grid", f"{p}:{p}:1"]) == 0
    assert sweep_payoffs(capsys) == [payoff]


def test_payoff_overrides_equal_the_game_config_route(capsys):
    """``payoff`` with fixed-coin overrides prints exactly what the
    calibrated ``GameConfig``, with the overridden rotations swapped in by
    ``dataclasses.replace``, gives under ``engine.play``."""
    rng = np.random.default_rng(2009)
    for _ in range(40):
        seq = str(rng.choice(["A", "B", "AB", "AAB", "BB", "ABA", "B^3",
                              "(AB)^2"]))
        channel = str(rng.choice(KINDS))
        p = float(rng.choice([0.0, 1.0, rng.uniform()]))
        eps, delta = float(rng.uniform(0, 0.1)), float(rng.uniform(0, 2 * PI))
        max_phases = bool(rng.integers(2))
        overrides = {name: float(rng.uniform(-PI, PI))
                     for name in ("theta", "phi1", "phi2", "phi3", "phi4")
                     if rng.integers(2)}
        flags = [f"--seq={seq}", f"--channel={channel}", f"--p={p!r}",
                 f"--eps={eps!r}", f"--delta={delta!r}",
                 *(f"--{name}={value!r}" for name, value in overrides.items()),
                 *(["--max-phases"] if max_phases else [])]
        assert cli.main(["payoff", *flags]) == 0

        setup = SweepSetup(seq, "p", p, p, 1, (channel,), p=p, eps=eps,
                           delta=delta, max_phases=max_phases)
        cfg, spec = setup.point(p, channel)
        if "theta" in overrides:
            cfg = replace(cfg, coin_a=replace(cfg.coin_a,
                                              theta=overrides["theta"]))
        cfg = replace(cfg, coin_b=tuple(
            replace(coin, theta=overrides.get(f"phi{i}", coin.theta))
            for i, coin in enumerate(cfg.coin_b, start=1)))
        want = payoff_text(play(seq, cfg, spec).payoff)
        assert capsys.readouterr().out == f"payoff={want}\n", flags


def test_zero_rotations_print_the_identity_coins_payoff(capsys):
    """With all five rotations set to 0, ``payoff`` prints what the identity
    coins print under ``engine.play``, whatever the phases: a coin with no
    rotation is diagonal, it moves no population, and a payoff reads only
    populations."""
    rng = np.random.default_rng(2002)
    zero = CoinParams(0.0, 0.0, 0.0)
    for _ in range(30):
        seq = str(rng.choice(["A", "B", "AB", "AAB", "BB", "ABA", "B^3",
                              "(AB)^2"]))
        channel = str(rng.choice(KINDS))
        p = float(rng.choice([0.0, 1.0, rng.uniform()]))
        eps = float(rng.uniform(0, 0.1))
        convention = str(rng.choice(sorted(CONVENTION_NAMES)))
        phases = {name: float(rng.uniform(0, 2 * PI))
                  for name in ("delta", "beta1", "beta2", "beta3", "beta4")
                  if rng.integers(2)}
        flags = [f"--seq={seq}", f"--channel={channel}", f"--p={p!r}",
                 f"--eps={eps!r}", f"--convention={convention}",
                 *(f"--{name}={value!r}" for name, value in phases.items()),
                 *(["--max-phases"] if rng.integers(2) else []),
                 *(["--canonical"] if rng.integers(2) else []),
                 *(f"--{name}=0" for name in ("theta", "phi1", "phi2",
                                               "phi3", "phi4"))]
        assert cli.main(["payoff", *flags]) == 0

        cfg = GameConfig(eps, zero, (zero,) * 4)
        report = play(seq, cfg, NoiseSpec(channel, p),
                      CONVENTION_NAMES[convention])
        want = payoff_text(report.payoff)
        assert capsys.readouterr().out == f"payoff={want}\n", flags


def test_sweep_out_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--seq", "B", "--var", "p", "--grid", "0:1:2",
                   "--channel", "pd", "--canonical",
                   "--convention", "all-perqubit", "--eps", "1/112",
                   "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        assert float(line.split(",")[3]) == pytest.approx(1 / 15, abs=1e-9)


def test_figure_to_file_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["figure", "3", "--out", str(a)]) == 0
    assert cli.main(["figure", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_figure_has_no_jobs_flag(capsys):
    assert cli.main(["figure", "1", "--jobs", "2"]) == 2
    capsys.readouterr()


#: The coin phases no payoff depends on, which have no flag.
NO_FLAG_PHASES = ("gamma", "alpha1", "alpha2", "alpha3", "alpha4")


@pytest.mark.parametrize("command", ["payoff", "sweep"])
@pytest.mark.parametrize("name", NO_FLAG_PHASES)
def test_inert_phases_have_no_flag(capsys, command, name):
    argv = [command, "--seq", "AAB", f"--{name}", "0.3"]
    if command == "sweep":
        argv += ["--var", "p", "--grid", "0:1:2"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert f"--{name}" in err


def test_inert_phase_config_keys_are_ignored(tmp_path, capsys):
    """An old config file that still sets gamma or an alpha prints what the
    file without them prints, even for values no coin would accept."""
    good = "[game]\nseq = AAB\neps = 1/168\n[noise]\nchannel = ad\np = 0.25\n"
    printed = []
    for text in (good, good.replace("[noise]", "gamma = 7\nalpha2 = 0.5\n"
                                              "[noise]")):
        ini = tmp_path / "game.ini"
        ini.write_text(text)
        assert cli.main(["payoff", "--config", str(ini)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] == "payoff=-0.0272548191263\n"


# --- removed options -------------------------------------------------------

def removed_option_argv(command, *flags):
    argv = [command, "--seq", "B", *flags]
    return argv + (["--var", "p", "--grid", "0:1:2"] if command == "sweep"
                   else [])


@pytest.mark.parametrize("command", ["payoff", "sweep"])
def test_identity_coins_flag_is_gone(capsys, command):
    """Zero rotations play the identity coins; the flag that said so is
    gone."""
    assert cli.main(removed_option_argv(command, "--identity-coins")) == 2
    assert "unrecognized arguments: --identity-coins" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", ["payoff", "sweep"])
def test_auto_convention_is_not_a_choice(capsys, command):
    """The convention search runs in ``verify``, not behind a flag."""
    argv = removed_option_argv(command, "--convention", "auto")
    assert cli.main(argv) == 2
    assert "argument --convention: invalid choice: 'auto'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command, advice", [
    ("payoff", "set theta and phi1..phi4 to 0"),
    ("sweep", "delete the key: sweep recalibrates the coins at each grid "
              "point"),
], ids=["payoff", "sweep"])
@pytest.mark.parametrize("value", ["true", "false"])
def test_identity_coins_config_key_is_refused(tmp_path, capsys, command,
                                              advice, value):
    """An old file's ``identity_coins`` is refused, whatever its value:
    ignoring it would silently play calibrated coins. Each command's advice
    works under it: ``sweep`` refuses ``theta`` and ``phiN`` keys too, so
    there the key is simply deleted."""
    ini = tmp_path / "identity.ini"
    ini.write_text(f"[game]\nseq = B\nidentity_coins = {value}\n"
                   "[sweep]\nvar = p\ngrid = 0:1:2\n")
    assert cli.main([command, "--config", str(ini)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: config file {ini}: [game] identity_coins: removed; "
        f"{advice}\n"))


def test_no_command_but_verify_runs_the_convention_search(capsys,
                                                          monkeypatch):
    """``payoff``, ``sweep`` and ``figure`` play no convention search, under
    any convention the parser offers, in either probability order."""
    from parrondoq import verify

    def refuse(orders, rows):
        raise AssertionError("the convention search was played")

    monkeypatch.setattr(verify, "_chain_search", refuse)
    payoff = cli.build_parser()._subparsers._group_actions[0].choices[
        "payoff"]
    convention, = (action for action in payoff._actions
                   if action.dest == "convention")
    base = ["--seq", "AB", "--eps", "1/168", "--channel", "pd", "--p", "0.5"]
    for name in convention.choices:
        for order in ([], ["--canonical"]):
            flags = [*base, "--convention", name, *order]
            assert cli.main(["payoff", *flags]) == 0
            assert cli.main(["sweep", *flags, "--var", "p",
                             "--grid", "0.5:0.5:1"]) == 0
    for number in range(1, 10):
        assert cli.main(["figure", str(number)]) == 0
    capsys.readouterr()


def test_figure_rejects_bad_number(capsys):
    assert cli.main(["figure", "12"]) == 2
    capsys.readouterr()


# --- config file -----------------------------------------------------------

def test_config_file_supplies_values(tmp_path, capsys):
    ini = tmp_path / "game.ini"
    ini.write_text("""
[game]
seq = B
eps = 1/168
max_phases = true
canonical = true
convention = all-perqubit

[noise]
channel = pd
p = 0.7
""")
    rc = cli.main(["payoff", "--config", str(ini)])
    assert rc == 0
    assert last_payoff(capsys) == pytest.approx(1 / 15, abs=1e-12)


def test_cli_flag_beats_config(tmp_path, capsys):
    ini = tmp_path / "game.ini"
    ini.write_text("[game]\nseq = B\n\n[noise]\nchannel = pd\np = 0.0\n")
    rc = cli.main(["payoff", "--config", str(ini), "--channel", "ad",
                   "--p", "1", "--canonical", "--eps", "1/168",
                   "--convention", "all-perqubit"])
    assert rc == 0
    # full amplitude damping drives every qubit to the losing state
    assert last_payoff(capsys) < -0.3


def test_config_sweep_section(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    out = tmp_path / "o.csv"
    ini.write_text(f"""
[game]
seq = AAB
eps = 1/168
delta = pi/5
max_phases = true

[noise]
channel = ad,dp

[sweep]
var = p
grid = 0:1:3
out = {out}
jobs = 2
""")
    rc = cli.main(["sweep", "--config", str(ini)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 7


MALFORMED_CONFIGS = {
    "bad-number": "[game]\nseq = B\neps = abc\n",
    "bad-grid": "[game]\nseq = B\n[sweep]\ngrid = 0:1\n",
    "no-section-header": "[game\nseq = B\n",
    "bad-boolean": "[game]\nseq = B\ncanonical = maybe\n",
    "bad-convention": "[game]\nseq = B\nconvention = bogus\n",
    "bad-channel": "[game]\nseq = B\n[noise]\nchannel = bogus\n",
    "bad-var": "[game]\nseq = B\n[sweep]\nvar = bogus\n",
}


@pytest.mark.parametrize("text", list(MALFORMED_CONFIGS.values()),
                         ids=list(MALFORMED_CONFIGS))
def test_malformed_config_is_a_usage_error(tmp_path, capsys, text):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    assert cli.main(["payoff", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {ini}: ")


@pytest.mark.parametrize("command", ["payoff", "sweep"])
@pytest.mark.parametrize("section,key,value", [
    ("game", "convention", "bogus"),
    # the removed search is no longer a choice
    ("game", "convention", "auto"),
    ("noise", "channel", "bogus"),
    ("sweep", "var", "bogus"),
], ids=["game-convention", "game-convention-auto", "noise-channel",
        "sweep-var"])
def test_config_choice_is_checked_under_every_command(tmp_path, capsys,
                                                      command, section, key,
                                                      value):
    body = {"game": "seq = AAB\n", "noise": "", "sweep": "grid = 0:1:2\n"}
    body[section] += f"{key} = {value}\n"
    ini = tmp_path / "bad.ini"
    ini.write_text("".join(f"[{name}]\n{text}" for name, text in body.items()))
    assert cli.main([command, "--config", str(ini)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config file {ini}: [{section}] {key}: invalid choice: "
        f"{value!r} (choose from ")


#: A value for every knob, unlike the base runs' own, so that each one
#: changes what ``payoff`` or ``sweep`` prints.
KNOB_VALUES = {
    "seq": "B^2", "eps": "1/112", "theta": "pi/7", "delta": "pi/5",
    "phi1": "pi/7", "phi2": "pi/9", "phi3": "pi/11", "phi4": "pi/13",
    "beta1": "pi/2", "beta2": "pi/3", "beta3": "pi/4", "beta4": "pi/5",
    "max_phases": True, "canonical": True, "convention": "all-perqubit",
    "channel": "dp", "p": "0.5", "var": "delta", "grid": "0:0.5:2",
    "out": "knob.csv",
}
KNOB_BASES = {
    "payoff": {"seq": "AAB", "eps": "1/168", "delta": "pi/7",
               "channel": "ad", "p": "0.25"},
    "sweep": {"seq": "AAB", "eps": "1/168", "channel": "ad", "var": "p",
              "grid": "0:1:3"},
}


@pytest.mark.parametrize("section,dest",
                         [(section, dest) for section, dest, _ in cli._KNOBS],
                         ids=[dest for _, dest, _ in cli._KNOBS])
def test_config_key_reads_like_its_flag(tmp_path, capsys, monkeypatch,
                                        section, dest):
    """Each declared knob set by ``[section] dest`` in an INI file does
    what its flag does: same exit code, output and CSV file."""
    monkeypatch.chdir(tmp_path)
    command = "sweep" if section == "sweep" else "payoff"
    base = KNOB_BASES[command]
    rest = {k: v for k, v in base.items() if k != dest}
    value = KNOB_VALUES[dest]

    def run(knobs, *extra):
        Path("knob.csv").unlink(missing_ok=True)
        args = [f"--{k.replace('_', '-')}" + ("" if v is True else f"={v}")
                for k, v in knobs.items()]
        rc = cli.main([command, *args, *extra])
        written = Path("knob.csv")
        return (rc, *capsys.readouterr(),
                written.read_text() if written.exists() else None)

    ini = tmp_path / "knob.ini"
    ini.write_text(f"[{section}]\n{dest} = "
                   f"{'true' if value is True else value}\n")
    by_flag = run({**rest, dest: value})
    assert run(rest, "--config", str(ini)) == by_flag
    baseline = run(base)
    assert baseline[0] == 0 and baseline != by_flag


def test_missing_config_file(capsys):
    assert cli.main(["payoff", "--seq", "A", "--config", "/no/such.ini"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["payoff", "--help"]) == 0
    text = capsys.readouterr().out
    # every game flag, and no flag for the phases no payoff depends on
    assert "--beta1" in text
    assert "--gamma" not in text and "--alpha" not in text
    # nor for the removed options
    assert "--identity-coins" not in text and "auto" not in text
    # the coin overrides are payoff's alone
    assert cli.main(["sweep", "--help"]) == 0
    text = capsys.readouterr().out
    assert "--beta1" in text
    assert "--theta" not in text and "--phi" not in text


def test_every_option_has_help():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    for command, sub in subparsers.items():
        for action in sub._actions:
            assert action.help, (command, action.option_strings)


def test_verify_command_exits_zero(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == SUMMARY


def test_parser_is_built_once_and_keeps_no_state(capsys):
    """``main`` reuses one parser: a repeatable flag given in one call does
    not carry into the next, and ``--help`` leaves the parser usable."""
    sweep = ["sweep", "--seq", "AAB", "--var", "p", "--grid", "0:1:2",
             "--eps", "1/168"]

    def channels():
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        return [line.split(",")[2] for line in lines]

    assert cli.main(sweep + ["--channel", "ad"]) == 0
    assert channels() == ["ad", "ad"]
    assert cli.main(sweep) == 0
    assert channels() == ["none", "none"]
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(sweep + ["--channel", "pd"]) == 0
    assert channels() == ["pd", "pd"]
    assert cli._parser() is cli._parser()


def test_console_script_resolves_to_main():
    """The ``parrondoq`` entry point in pyproject.toml names ``cli.main``."""
    tomllib = pytest.importorskip("tomllib")      # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["parrondoq"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert callable(entry)
    assert entry is cli.main
