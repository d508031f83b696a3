"""Digests of the CLI's stdout, to compare two checkouts byte for byte.

    python tests/cli_digests.py > digests.txt

Runs each command below with this checkout's ``src`` first on PYTHONPATH,
one at a time, and prints one line per command: its exit code, the first 16
hex digits of the sha256 of its stdout, and the command.  The commands are
every README command (``test_readme.readme_cli_commands``), ``dynirf verify
--suite all`` at seeds 0, 1, 5 and 337, ``dynirf verify --suite identities
--preset rational-positive``, ``dynirf simulate --model irf`` and
``dynirf asymptotics --check all``.  Run it in two checkouts and diff the
outputs: an empty diff means the same stdout and exit code for every command.
pytest does not collect this file; it runs a few minutes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from test_readme import readme_cli_commands  # noqa: E402

EXTRA = [
    *(f"dynirf verify --suite all --seed {seed}" for seed in (0, 1, 5, 337)),
    "dynirf verify --suite identities --preset rational-positive",
    "dynirf simulate --model irf --cols 6 --rows 6 --trajectories 50 --seed 7",
    "dynirf asymptotics --check all",
]


def commands() -> list:
    """The README commands, then those of EXTRA that the README lacks."""
    cmds = readme_cli_commands()
    return cmds + [c for c in EXTRA if c not in cmds]


def main() -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for cmd in commands():
        proc = subprocess.run([sys.executable, "-m", "dynirf.cli", *cmd.split()[1:]], capture_output=True, env=env)
        print(proc.returncode, hashlib.sha256(proc.stdout).hexdigest()[:16], cmd, flush=True)


if __name__ == "__main__":
    main()
