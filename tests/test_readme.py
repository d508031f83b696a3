"""Every CLI example in the README is executed here."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_commands():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```bash\n(.*?)```", text, flags=re.S)
    cmds = []
    for block in blocks:
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("dynirf "):
                cmds.append(line)
    return cmds


COMMANDS = readme_cli_commands()


def test_readme_has_examples():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("cmd", COMMANDS, ids=[c[:60] for c in COMMANDS])
def test_readme_command_runs(cmd):
    argv = [sys.executable, "-m", "dynirf.cli"] + cmd.split()[1:]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=560)
    assert proc.returncode == 0, f"{cmd}\nstderr: {proc.stderr[:500]}"
    assert proc.stdout


def test_option_table_matches_the_parser():
    # the "subcommand | its other options" table names exactly the options
    # build_parser() gives each subcommand, less the ones every subcommand
    # takes; only the backticked --names of a row are read
    from dynirf.cli import build_parser

    (action,) = [a for a in build_parser()._actions if a.dest == "command"]
    common = {"--seed", "--threads", "--out", "-h", "--help"}
    parsed = {
        name: {opt for a in parser._actions for opt in a.option_strings} - common
        for name, parser in action.choices.items()
    }
    text = README.read_text(encoding="utf-8")
    table = re.search(r"\| subcommand \| its other options \|\n\|[-|]+\|\n((?:\|.*\n)+)", text).group(1)
    rows = {}
    for row in table.splitlines():
        name, options = row.split("|")[1:3]
        rows[name.strip().strip("`")] = set(re.findall(r"`(--[\w-]+)`", options))
    assert rows == parsed
