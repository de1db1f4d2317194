"""The CLI contract that the CI workflow's entry-point step pins.

``STEP`` holds every ``parrondoq`` command of that step, written as the step
writes it, with its exit code and the stdout it must print. Most rows run
through ``cli.main`` in process; the one in ``MODULE_ROW`` runs
``python -m parrondoq.cli`` in a subprocess, so the module entry is covered
too. The step itself stays, as it alone runs the installed console script;
``test_the_table_copies_every_command_of_the_step`` keeps the two from
drifting apart.
"""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import parrondoq
from parrondoq import cli

WORKFLOW = Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml"

#: The config files the step writes, by the names it gives them.
CONFIGS = {
    "good.ini": "[game]\nseq = AAB\neps = 1/168\n[noise]\nchannel = ad\n"
                "p = 0.25\n",
    "bad.ini": "[game]\nseq = AAB\n[noise]\nchannel = bogus\n",
    # an old file that sets the gamma phases, which no longer have keys
    "legacy.ini": "[game]\nseq = AAB\neps = 1/168\ngamma = 0.3\n"
                  "alpha2 = pi/3\n[noise]\nchannel = ad\np = 0.25\n",
}

#: The step's shell variables, by the word it expands; ``{tmp}`` is the
#: step's ``RUNNER_TEMP``.
VARIABLES = {
    "$zero": "--seq AA --eps 1/168 --channel dp --p 0.5".split(),
    "$good": ["{tmp}/good.ini"],
    "$bad": ["{tmp}/bad.ini"],
    "$legacy": ["{tmp}/legacy.ini"],
    "$nest": ["(" * 500 + "A" + ")^999999999" * 500],
    "$RUNNER_TEMP/f2.csv": ["{tmp}/f2.csv"],
}

#: (command as the step writes it, exit code, lines printed or None when the
#: step does not count them, {line number: text}); a negative line number
#: counts from the end. A command with ``--out`` is read from its file.
STEP = [
    ("verify", 0, None,
     {-1: "verify: 26 checks, 19 pass, 7 classified, 0 fail"}),
    ("payoff --seq B --canonical --convention all-perqubit --channel pd "
     "--p 0.5 --eps 1/168", 0, 1, {1: "payoff=0.0666666666667"}),
    ("payoff $zero", 0, 1, {1: "payoff=0"}),
    ("sweep $zero --var p --grid 0.5:0.5:1", 0, None, {-1: "p,0.5,dp,0"}),
    ('payoff --seq "B^9" --eps 1/168 --channel dp --p 0.25', 0, 1,
     {1: "payoff=0.110172727781"}),
    ("payoff --seq A --eps 1/168 --channel dp --p 0.25", 0, 1,
     {1: "payoff=0.749946851858"}),
    ('payoff --config "$good"', 0, 1, {1: "payoff=-0.0272548191263"}),
    ('payoff --config "$legacy"', 0, 1, {1: "payoff=-0.0272548191263"}),
    ('payoff --config "$bad"', 2, 0, {}),
    ("payoff --seq AAB --p 7", 2, 0, {}),
    ("sweep --seq AAB --var p --grid 0:3:4", 2, 0, {}),
    ('payoff --seq "(B^3)^4"', 3, 0, {}),
    ('payoff --seq "$nest"', 3, 0, {}),
    ('figure 2 --out "$RUNNER_TEMP/f2.csv"', 0, 205, {}),
    ("sweep --seq AAB --var delta --grid 0:6.28:5 --channel ad --channel dp "
     "--p 0.5", 0, 11, {}),
    # 65 grid values cross the 64-value sweep chunk
    ("sweep --seq AABAB --var delta --grid 0:6.28:65 --channel ad --p 0.5 "
     "--eps 1/168", 0, 66,
     {65: "delta,6.181875,ad,0.0205087515223",
      -1: "delta,6.28,ad,0.0205253049445"}),
    # ... on two channels, so one chunk plays 128 points
    ("sweep --seq AABAB --var delta --grid 0:6.28:65 --channel ad "
     "--channel dp --p 0.5 --eps 1/168", 0, 131,
     {129: "delta,6.181875,dp,0.000121966560587",
      -1: "delta,6.28,dp,0.000124892819846"}),
]

MODULE_ROW = "payoff --seq A --eps 1/168 --channel dp --p 0.25"


def step_commands() -> list:
    """The ``parrondoq`` commands of the workflow's entry-point step, as
    written there, without the pipes or ``||`` that follow them."""
    text = WORKFLOW.read_text(encoding="utf-8")
    step = text[text.index("name: Installed entry point"):]
    return re.findall(r'parrondoq (.*?)(?: \||\)"|\)$|$)', step, re.M)


def argv_of(command: str, tmp: Path) -> list:
    words = [arg for word in shlex.split(command)
             for arg in VARIABLES.get(word, [word])]
    return [word.replace("{tmp}", str(tmp)) for word in words]


def test_the_table_copies_every_command_of_the_step():
    assert sorted(step_commands()) == sorted(row[0] for row in STEP)
    assert MODULE_ROW in (row[0] for row in STEP)


@pytest.mark.parametrize("command, code, count, lines", STEP,
                         ids=[row[0][:60] for row in STEP])
def test_entry_point_step(command, code, count, lines, tmp_path, capsys,
                          monkeypatch, registry):
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = argv_of(command, tmp_path)
    if command == MODULE_ROW:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(parrondoq.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "parrondoq.cli", *argv],
                              capture_output=True, text=True, env=env,
                              check=False)
        got_code, out, err = done.returncode, done.stdout, done.stderr
    else:
        # verify prints the one registry run the other tests read
        monkeypatch.setattr(cli, "run_all", lambda: registry)
        got_code = cli.main(argv)
        out, err = capsys.readouterr()
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
