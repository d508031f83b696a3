"""The statements of src/dynirf that no shipped path runs.

    PYTHONPATH=src python tests/shipped_traffic.py

Runs, in one process under a ``sys.settrace`` line trace: every README
command, ``dynirf verify --suite all`` at seeds 0, 1 and 5, ``dynirf
asymptotics --check all``, the command lines of ``EXTRA``, and one round of
each perfbench workload with its references.  Then prints each run of
consecutive statements in a function body of src/dynirf/*.py that none of
them reached, as ``module.py:first-last  function``, and their count.  A
statement counts as reached when any line of its own span (the header of an
if, for, while or with) ran; docstrings and ``try:``/``def`` headers are not
statements here.  pytest does not collect this file; it runs a few minutes.
"""

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dynirf"
EXTRA = [
    "simulate --model irf --rows 4 --cols 4 --trajectories 3 --seed 1",
    "simulate --model rational --rows 3 --cols 3 --trajectories 2",
    "simulate --model ssep --t 2 --trajectories 2 --dump events",
    "observables --model asep --q 0.5 --alpha 2 --xs 1,0 --t 1 --compare exact,mc --samples 2000",
    "observables --model rational --xs 3,2 --N 3 --compare exact,mc,enum --samples 2000 --lambdas 0.1:0.2,0.3:-0.1",
    "observables --model irf --preset trig-admissible --xs 2,1 --N 2 --compare exact,enum",
    "observables --model ssep --xs 0,0 --t 1000 --compare exact",
    "observables --model asep --q 0.99 --alpha 1 --xs 1,0 --t 1 --compare exact",
    "verify --suite stochastic --preset dyn6v-positive",
    "asymptotics --check ks --samples 50",
    "asymptotics --check regimes --L-big 1e6",
]

ran = set()  # (file name, line) pairs that ran


def _local(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(str(SRC)) else None


def _shipped_runs():
    from test_readme import COMMANDS

    from dynirf import cli

    argvs = [cmd.split()[1:] for cmd in COMMANDS]
    argvs += [["verify", "--suite", "all", "--seed", str(seed)] for seed in (0, 1, 5)]
    argvs += [["asymptotics", "--check", "all"]] + [cmd.split() for cmd in EXTRA]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        wl = workload(1)
        wl.setup()
        outputs = {}
        for _, step in wl.steps():
            outputs.update(step())
        wl.references(outputs)


def _statements(tree):
    """(first line, last line, function name) of each statement in a function body."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.stmt) and func is not None:
                docstring = isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant) and isinstance(child.value.value, str)
                body = getattr(child, "body", None)
                if not docstring and not isinstance(child, (ast.Try, ast.ClassDef)):
                    last = body[0].lineno - 1 if isinstance(body, list) and body else child.end_lineno
                    out.append((child.lineno, max(child.lineno, last), func))
            visit(child, func)

    visit(tree, None)
    return sorted(out)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    os.chdir(ROOT)
    sys.settrace(_global)
    try:
        _shipped_runs()
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = {line for name, line in ran if name == str(path)}
        unrun = [s for s in _statements(ast.parse(path.read_text(encoding="utf-8"))) if not lines & set(range(s[0], s[1] + 1))]
        total += len(unrun)
        groups = []
        for first, last, func in unrun:
            if groups and groups[-1][2] == func and groups[-1][1] >= first - 1:
                groups[-1][1] = max(groups[-1][1], last)
            else:
                groups.append([first, last, func])
        for first, last, func in groups:
            print(f"{path.name}:{first}-{last}  {func}")
    print(f"{total} statements no shipped path ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
