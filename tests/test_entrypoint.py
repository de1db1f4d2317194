"""The CLI contract, in its one copy: ``STEP`` holds each pinned
``parrondoq`` command as an argv list, with its exit code and the stdout it
must print. Every row runs twice. ``test_entry_point_step`` runs it through
``cli.main`` in process, but for ``MODULE_ROW``, run as ``python -m
parrondoq.cli`` so that the module entry is covered too.
``test_console_script`` runs it through the ``parrondoq`` on ``PATH`` and is
skipped when there is none; CI installs the package and checks for the
script before its tier-1 step, so there no row is skipped. Rows run in a
directory that holds ``CONFIGS``, and both subprocesses import ``parrondoq``
from the tree under test first.

To run the console rows from a checkout, save a stand-in such as the
wrapper that setuptools writes as an executable ``bin/parrondoq``::

    #!/usr/bin/env python3
    import sys
    from parrondoq.cli import main
    sys.exit(main())

and run ``PATH=$PWD/bin:$PATH python -m pytest tests/test_entrypoint.py``.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import parrondoq
from parrondoq import cli, verify
from test_acceptance import SUMMARY

#: The config files the rows read, by name.
CONFIGS = {
    "good.ini": "[game]\nseq = AAB\neps = 1/168\n[noise]\nchannel = ad\n"
                "p = 0.25\n",
    "bad.ini": "[game]\nseq = AAB\n[noise]\nchannel = bogus\n",
    # an old file that sets the gamma phases, which no longer have keys
    "legacy.ini": "[game]\nseq = AAB\neps = 1/168\ngamma = 0.3\n"
                  "alpha2 = pi/3\n[noise]\nchannel = ad\np = 0.25\n",
}

#: A game whose payoff is exactly 0, printed as 0 by ``payoff`` and
#: ``sweep`` alike.
ZERO = ["--seq", "AA", "--eps", "1/168", "--channel", "dp", "--p", "0.5"]
#: Nested groups whose count saturates without being expanded.
NEST = "(" * 500 + "A" + ")^999999999" * 500

#: (id, argv, exit code, lines printed or None when not counted,
#: {line number: text}); a negative line number counts from the end. A
#: command with ``--out`` is read from its file. An id is the row's command
#: as a shell line, fixed so that editing an argv keeps the test's name:
#: ``$zero`` stands for ``ZERO``, ``$nest`` for ``NEST``, ``$good`` for
#: ``good.ini`` and ``$RUNNER_TEMP`` for the working directory.
STEP = [
    ("verify", ["verify"], 0, None,
     {-1: SUMMARY}),
    ("payoff --seq B --canonical --convention all-perqubit --channel pd "
     "--p 0.5 --eps 1/168",
     ["payoff", "--seq", "B", "--canonical", "--convention", "all-perqubit",
      "--channel", "pd", "--p", "0.5", "--eps", "1/168"], 0, 1,
     {1: "payoff=0.0666666666667"}),
    ("payoff $zero", ["payoff", *ZERO], 0, 1, {1: "payoff=0"}),
    ("sweep $zero --var p --grid 0.5:0.5:1",
     ["sweep", *ZERO, "--var", "p", "--grid", "0.5:0.5:1"], 0, None,
     {-1: "p,0.5,dp,0"}),
    ('payoff --seq "B^9" --eps 1/168 --channel dp --p 0.25',
     ["payoff", "--seq", "B^9", "--eps", "1/168", "--channel", "dp",
      "--p", "0.25"], 0, 1, {1: "payoff=0.110172727781"}),
    ("payoff --seq A --eps 1/168 --channel dp --p 0.25",
     ["payoff", "--seq", "A", "--eps", "1/168", "--channel", "dp",
      "--p", "0.25"], 0, 1, {1: "payoff=0.749946851858"}),
    ('payoff --config "$good"', ["payoff", "--config", "good.ini"], 0, 1,
     {1: "payoff=-0.0272548191263"}),
    ('payoff --config "$legacy"', ["payoff", "--config", "legacy.ini"], 0, 1,
     {1: "payoff=-0.0272548191263"}),
    ('payoff --config "$bad"', ["payoff", "--config", "bad.ini"], 2, 0, {}),
    ("payoff --seq AAB --p 7", ["payoff", "--seq", "AAB", "--p", "7"], 2, 0,
     {}),
    # a negative angle written with pi takes the flag's "=" form
    ("payoff --seq AAB --theta=-pi/2",
     ["payoff", "--seq", "AAB", "--theta=-pi/2"], 0, 1, {1: "payoff=0.2"}),
    ("sweep --seq AAB --var p --grid 0:3:4",
     ["sweep", "--seq", "AAB", "--var", "p", "--grid", "0:3:4"], 2, 0, {}),
    ('payoff --seq "(B^3)^4"', ["payoff", "--seq", "(B^3)^4"], 3, 0, {}),
    ('payoff --seq "$nest"', ["payoff", "--seq", NEST], 3, 0, {}),
    ('figure 2 --out "$RUNNER_TEMP/f2.csv"',
     ["figure", "2", "--out", "f2.csv"], 0, 205, {}),
    ("sweep --seq AAB --var delta --grid 0:6.28:5 --channel ad --channel dp "
     "--p 0.5",
     ["sweep", "--seq", "AAB", "--var", "delta", "--grid", "0:6.28:5",
      "--channel", "ad", "--channel", "dp", "--p", "0.5"], 0, 11, {}),
    # 65 grid values cross the 64-value sweep chunk: row 65 ends the first
    ("sweep --seq AABAB --var delta --grid 0:6.28:65 --channel ad --p 0.5 "
     "--eps 1/168",
     ["sweep", "--seq", "AABAB", "--var", "delta", "--grid", "0:6.28:65",
      "--channel", "ad", "--p", "0.5", "--eps", "1/168"], 0, 66,
     {65: "delta,6.181875,ad,0.0205087515223",
      -1: "delta,6.28,ad,0.0205253049445"}),
    # ... on two channels, so one chunk plays 64 values x 2 channels
    ("sweep --seq AABAB --var delta --grid 0:6.28:65 --channel ad "
     "--channel dp --p 0.5 --eps 1/168",
     ["sweep", "--seq", "AABAB", "--var", "delta", "--grid", "0:6.28:65",
      "--channel", "ad", "--channel", "dp", "--p", "0.5", "--eps", "1/168"],
     0, 131,
     {129: "delta,6.181875,dp,0.000121966560587",
      -1: "delta,6.28,dp,0.000124892819846"}),
]

MODULE_ROW = "payoff --seq A --eps 1/168 --channel dp --p 0.25"

#: ``parrondoq --help`` at 80 columns, byte for byte.
HELP = """\
usage: parrondoq [-h] {payoff,sweep,figure,verify} ...

History-dependent quantum coin games on entangled registers under decoherence.

positional arguments:
  {payoff,sweep,figure,verify}
    payoff              payoff of one game sequence
    sweep               payoff over a parameter grid
    figure              render a preset sweep as CSV
    verify              run the cross-validation registry

options:
  -h, --help            show this help message and exit
"""

ROWS = pytest.mark.parametrize(
    "row_id, argv, code, count, lines", STEP, ids=[row[0] for row in STEP])


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A temporary working directory holding ``CONFIGS``."""
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def run(command: list, argv: list) -> tuple:
    """Exit code, stdout and stderr of ``command`` on ``argv``, importing
    ``parrondoq`` from the tree under test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(parrondoq.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([*command, *argv], capture_output=True, text=True,
                          env=env, check=False)
    return done.returncode, done.stdout, done.stderr


def check(argv, code, count, lines, got_code, out, err) -> None:
    assert got_code == code, err
    if code:
        assert err.startswith("error: ")
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    printed = out.splitlines()
    if count is not None:
        assert len(printed) == count
    for number, text in lines.items():
        assert printed[number - 1 if number > 0 else number] == text


def test_step_ids_are_unique_and_name_the_module_row():
    assert len({row[0] for row in STEP}) == len(STEP)
    assert MODULE_ROW in (row[0] for row in STEP)


@ROWS
def test_entry_point_step(row_id, argv, code, count, lines, workdir, capsys,
                          monkeypatch, registry):
    if row_id == MODULE_ROW:
        got = run([sys.executable, "-m", "parrondoq.cli"], argv)
    else:
        # verify prints the one registry run the other tests read
        monkeypatch.setattr(verify, "run_all", lambda: registry)
        got = (cli.main(argv), *capsys.readouterr())
    check(argv, code, count, lines, *got)


@ROWS
def test_console_script(row_id, argv, code, count, lines, workdir):
    script = shutil.which("parrondoq")
    if script is None:
        pytest.skip("no parrondoq console script on PATH")
    check(argv, code, count, lines, *run([script], argv))


@pytest.mark.parametrize("code, loaded, absent", [
    # every command but verify: the CLI loads no verify, no dense route
    ("import parrondoq.cli", ("parrondoq.figures",),
     ("parrondoq.verify", "parrondoq.reference", "numpy.random")),
    # the whole registry draws its random states from the stdlib
    ("from parrondoq import verify; verify.run_all()",
     ("parrondoq.verify", "parrondoq.reference"), ("numpy.random",)),
], ids=["cli", "run_all"])
def test_fresh_process_loads_only_what_it_runs(code, loaded, absent):
    # a module counts as loaded by ``code`` only if ``import numpy`` alone
    # did not load it, since older numpy releases import numpy.random eagerly
    probe = ("import sys, numpy\nbefore = set(sys.modules)\n"
             f"{code}\nnew = set(sys.modules) - before\n"
             f"print(*(name in new for name in {loaded + absent}))")
    got_code, out, err = run([sys.executable, "-c", probe], [])
    assert got_code == 0, err
    assert out.split() == ["True"] * len(loaded) + ["False"] * len(absent)


def test_help_bytes_in_a_fresh_process(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([sys.executable, "-m", "parrondoq.cli"], ["--help"]) == (
        0, HELP, "")
