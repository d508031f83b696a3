"""Every CLI example in the README is executed here, and its stdout checked."""

import hashlib
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

# the first 16 hex digits of the sha256 of each README command's stdout (as
# tests/cli_digests.py prints them); a command's output changes only with a
# stated reason, and its digest is re-pinned with it
STDOUT_SHA256 = {
    "dynirf verify --suite weights --seed 0": "cc2ba3134230042f",
    "dynirf verify --suite identities --preset trig-admissible": "edf3859c38db66a3",
    "dynirf verify --suite identities --preset rational-positive": "ba6b16435d00c52b",
    "dynirf simulate --model ssep --lambda-bar 2 --t 1 --trajectories 50 --seed 7 --dump snapshot": "3d1e610854a17a4d",
    "dynirf simulate --model asep --q 0.5 --alpha 2 --t 2 --trajectories 4 --seed 3": "f46f1b9b20ac5f2d",
    "dynirf observables --model dyn6v --xs 3,2 --N 4 --compare exact,mc,enum --samples 5000 --seed 1": "ab550de59d2a50a1",
    "dynirf observables --model ssep --xs 1,0 --t 1 --lambda-bar 2 --compare exact,mc --samples 20000 --seed 2": "306a1a4638317374",
    "dynirf observables --model ssep --xs 3,0 --t 20 --compare exact,mc": "4be7486bb9d488ac",
    "dynirf observables --model dyn6v --xs 4,3,2,1 --N 4 --compare exact,enum": "665e18a557652498",
    "dynirf observables --model dyn6v --xs 2,1 --N 3 --compare enum --lambdas 0.1:0.2,0.3:-0.1,-0.2:0.15": "ec2d5117023faa90",
    "dynirf asymptotics --check hydro": "628778260cbc002f",
    "dynirf asymptotics --check profile --L 50 --samples 120 --chi=-0.5,0.0,0.5": "d2b537fccfe8dd93",
}


def test_readme_has_examples():
    assert len(COMMANDS) >= 8
    assert sorted(COMMANDS) == sorted(STDOUT_SHA256), "every README command has its stdout digest pinned"


@pytest.mark.parametrize("cmd", COMMANDS, ids=[c[:60] for c in COMMANDS])
def test_readme_command_runs(cmd):
    argv = [sys.executable, "-m", "dynirf.cli"] + cmd.split()[1:]
    proc = subprocess.run(argv, capture_output=True, timeout=560)
    assert proc.returncode == 0, f"{cmd}\nstderr: {proc.stderr[:500].decode(errors='replace')}"
    assert hashlib.sha256(proc.stdout).hexdigest()[:16] == STDOUT_SHA256.get(cmd), f"{cmd}: its stdout changed"


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
