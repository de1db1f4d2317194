"""Every narrative script in ``demos/`` runs to completion, and so do the
README's Python and command-line quick starts, printing the payoffs the
README quotes.

The demos use the public API the way a reader would, so an API change that
breaks one fails here instead of going unnoticed.
"""
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from parrondoq import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_the_quoted_payoffs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block, = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    quoted = ["-0.0227", "-0.0012", "+0.0120"]
    assert ", ".join(f"`{value}`" for value in quoted) in readme
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    payoffs = [float(line.split()[1]) for line in proc.stdout.splitlines()]
    assert [f"{payoff:+.4f}" for payoff in payoffs] == quoted


def test_readme_command_line_quick_start_prints_the_quoted_payoff(capsys):
    """The README's ``parrondoq payoff`` example prints the AAB payoff that
    its Python quick start quotes, at p = 0.5."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    command, = (block for block in re.findall(r"```sh\n(.*?)```", readme,
                                              re.DOTALL)
                if block.startswith("parrondoq payoff "))
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[0] == "parrondoq"
    assert cli.main(argv[1:]) == 0
    out = capsys.readouterr().out
    assert out == "payoff=-0.00120269278589\n"
    assert f"{float(out.split('=')[1]):+.4f}" == "-0.0012"
