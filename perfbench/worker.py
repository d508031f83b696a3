"""One workload process: set up, run timed rounds, then check every output.

    python3 perfbench/worker.py --workload exact --seed 1 --mode run --rounds 2

``--mode setup`` only imports dynirf and builds the workload's presets and
prints the time taken.  ``--mode run`` also runs ``--rounds`` whole rounds
of the workload's steps, back to back; then computes the references and
checks the outputs of every round.  With
``--trace 1`` the public dynirf functions are wrapped before the presets
are built.  The result is one JSON line on stdout.

Only the standard library is imported before set-up is timed, so the
import of dynirf's dependencies counts toward set-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_round(steps) -> tuple[float, dict, list]:
    outputs, errors = {}, []
    t0 = time.perf_counter()
    for name, step in steps:
        try:
            outputs.update(step())
        except Exception as exc:  # a failed step is counted, not fatal
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, outputs, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="write the aggregated spans here")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    from workloads import WORKLOADS  # numpy loads here, inside the set-up time

    wl = WORKLOADS[args.workload](args.seed)
    for mod in wl.modules:
        importlib.import_module(mod)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wl.setup()
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    steps = wl.steps()
    rounds, all_outputs, all_errors = [], [], []
    for _ in range(args.rounds):
        dt, outputs, errors = _run_round(steps)
        rounds.append(dt)
        all_outputs.append(outputs)
        all_errors.append(errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    from workloads import tally

    refs = wl.references(all_outputs[0])
    totals = {"attempted": 0, "failed": 0, "incorrect": 0}
    failures = set()
    for outputs, errors in zip(all_outputs, all_errors):
        counts = tally(refs, outputs, errors)
        for key in totals:
            totals[key] += counts[key]
        failures.update(counts["failures"])

    result = {
        "setup_s": setup_s,
        "rounds_s": rounds,
        "wall_s": statistics.median(rounds),
        "peak_rss_mb": peak_rss_mb,
        **totals,
        "failures": sorted(failures),
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
