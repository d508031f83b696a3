"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py [--seed 0] [--workload verify ...]

Runs one round of each workload, checks that every operation passes against
its true reference, then shifts the reference of one operation at a time
(a Monte Carlo exact value by 5 standard errors, a theta value by 1e-8, a
second route by ten times its tolerance, ...) and checks that exactly that
operation is counted as failed.  Soft reports, which gate nothing, are
skipped.  Also checks the two mpmath routes to the SSEP mean height against
each other.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _selftest(name: str, seed: int) -> list:
    from workloads import WORKLOADS, perturb, tally

    wl = WORKLOADS[name](seed)
    for mod in wl.modules:
        importlib.import_module(mod)
    wl.setup()
    outputs, errors = {}, []
    for step_name, step in wl.steps():
        try:
            outputs.update(step())
        except Exception as exc:
            errors.append(f"{step_name}: {type(exc).__name__}: {exc}")
    refs = wl.references(outputs)
    problems = []
    base = tally(refs, outputs, errors)
    if base["failed"]:
        problems.append(f"{name}: unperturbed round failed: {base['failures']}")
        return problems
    shifted = 0
    for op in refs:
        if outputs[op]["kind"] == "report" and outputs[op]["soft"]:
            continue
        outs, rs = copy.deepcopy(outputs), copy.deepcopy(refs)
        perturb(outs[op], rs[op])
        counts = tally(rs, outs, [])
        if counts["failed"] != 1 or counts["incorrect"] != 1 or not counts["failures"][0].startswith(f"{op}:"):
            problems.append(f"{name}: shifting the reference of {op} gave {counts['failures']}")
        shifted += 1
    print(f"{name}: {len(refs)} operations pass; {shifted} shifted references each failed their operation")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append", choices=("verify", "exact", "stochastic"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import references as ref

    problems = []
    for x, t in ((0, 5.0), (-20, 400.0), (3, 300.0)):
        a, b = ref.ssep_mean_height_miller(x, t), ref.ssep_mean_height_besseli(x, t)
        if abs(a - b) > 1e-12 * abs(b):
            problems.append(f"mean height routes disagree at x={x}, t={t}: {a} vs {b}")
    for name in args.workload or ("verify", "exact", "stochastic"):
        problems += _selftest(name, args.seed)
    for line in problems:
        print(f"SELFTEST FAILED: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
