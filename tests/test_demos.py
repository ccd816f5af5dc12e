"""Every demo script runs to completion, and README's examples do what
they say."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wickalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def readme_block(heading, lang):
    """The first ``lang`` code block in README's section ``heading``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_runs():
    exec(readme_block("Library quickstart", "python"), {})


def test_readme_commands_print_what_they_claim(capsys, monkeypatch):
    # Each `# -> ` line claims the stdout of the command on the line above it.
    monkeypatch.chdir(ROOT)
    lines = readme_block("Command line", "sh").splitlines()
    claims = [(cmd, line[len("# -> "):]) for cmd, line in zip(lines, lines[1:])
              if line.startswith("# -> ")]
    assert len(claims) == 2
    for cmd, expected in claims:
        argv = shlex.split(cmd)
        assert argv[0] == "wickalg"
        assert main(argv[1:]) == 0
        assert capsys.readouterr().out == expected + "\n"
