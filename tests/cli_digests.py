"""Digests of the CLI's stdout, to compare two checkouts byte for byte.

    python tests/cli_digests.py > digests.txt
    python tests/cli_digests.py --against OTHER_CHECKOUT

Runs each command below with this checkout's ``src`` first on PYTHONPATH,
one at a time, and prints one line per command: its exit code, the first 16
hex digits of the sha256 of its stdout, and the command.  The commands are
every README command (``test_readme.readme_cli_commands``), ``dynirf verify
--suite all`` at seeds 0, 1, 5 and 337, ``dynirf verify --suite identities
--preset rational-positive``, ``dynirf simulate --model irf`` and
``dynirf asymptotics --check all``.  Run it in two checkouts and diff the
outputs: an empty diff means the same stdout and exit code for every command.

With ``--against OTHER_CHECKOUT`` each command also runs with
``OTHER_CHECKOUT/src``, and the line holds both exit codes (this checkout's
first), then ``same`` where the stdouts are byte-equal, else the largest
``special._rel`` move over the numbers at matching positions of the two
JSON stdouts, or ``differs`` where a stdout is not JSON or the two differ
in anything but their numbers.
pytest does not collect this file; it runs a few minutes (twice that with
``--against``).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

from test_readme import readme_cli_commands  # noqa: E402

from dynirf.special import _rel  # noqa: E402

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


def run(src: Path, cmd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "dynirf.cli", *cmd.split()[1:]], capture_output=True, env=env)


def largest_move(got, want) -> float | None:
    """The largest ``_rel(got, want)`` over the numbers at matching positions
    of two parsed JSON values, or None if they differ in anything else."""
    number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if number(got) and number(want):
        return 0.0 if got == want or (got != got and want != want) else _rel(got, want)
    if isinstance(got, dict) and isinstance(want, dict) and got.keys() == want.keys():
        pairs = [(got[k], want[k]) for k in got]
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        pairs = list(zip(got, want))
    else:
        return 0.0 if type(got) is type(want) and got == want else None
    moves = [largest_move(a, b) for a, b in pairs]
    return None if None in moves else max(moves, default=0.0)


def compare(here: bytes, there: bytes) -> str:
    if here == there:
        return "same"
    try:
        move = largest_move(json.loads(here), json.loads(there))
    except ValueError:
        move = None
    return "differs" if move is None else f"{move:.2e}"


def main() -> None:
    parser = argparse.ArgumentParser(description="Digests of the CLI's stdout, or its moves against another checkout.")
    parser.add_argument("--against", type=Path, help="a checkout whose src to run each command with as well")
    args = parser.parse_args()
    for cmd in commands():
        proc = run(ROOT / "src", cmd)
        if args.against is None:
            print(proc.returncode, hashlib.sha256(proc.stdout).hexdigest()[:16], cmd, flush=True)
        else:
            other = run(args.against / "src", cmd)
            print(proc.returncode, other.returncode, compare(proc.stdout, other.stdout), cmd, flush=True)


if __name__ == "__main__":
    main()
