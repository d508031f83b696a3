"""Benchmark of dynirf: three checked workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; dynirf is imported from ``src/``.  Every
workload runs in fresh single-threaded processes (BLAS and OpenMP pools
pinned to one thread):

* ``--trace 0``: five set-up-only processes, then one workload process that
  sets up and runs ``--seconds`` / (the workload's nominal round time)
  whole rounds, at least one.  The count is fixed before the first round,
  so a slow round cannot change how many rounds a run reports.  Prints ``wall_s``
  (median round), ``setup_s`` (median of the six set-ups) and
  ``peak_rss_mb`` (the workload process's peak resident memory).
* ``--trace 1``: one untraced round and one traced round, each in its own
  process.  Prints the per-layer metrics of the traced round and
  ``trace.overhead_s``, the traced round's time minus the untraced one's.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Failures exit non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 5
NOMINAL_ROUND_S = {"verify": 14.0, "exact": 14.5, "stochastic": 8.0}  # on the reference machine
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SPECIAL = ("theta", "f_eval", "contour_integral", "contour_integral_factored")
SYMFUNC = ("B_mu", "D_nu", "skew_B_lattice", "stoch_B_formula", "row_transfer", "stoch_B_sum", "c_matrix_formula")
IDENTITIES = (
    "check_symmetrization_lemma",
    "check_skew_cauchy",
    "check_skew_cauchy_general",
    "check_pieri",
    "check_cauchy_rho",
    "check_orthogonality",
    "check_D_integral",
    "check_D_rho_integral",
)
PER_LAYER = (
    ["special.theta.calls", "special.theta.scalar_calls", "special.theta.self_s"]
    + ["special.f_eval.calls", "special.f_eval.self_s"]
    + [f"special.{f}.{q}" for f in SPECIAL[2:] for q in ("calls", "self_s")]
    + ["params.preset.calls", "params.preset.self_s"]
    + [f"weights.{f}.{q}" for f in ("weight", "spin_half_weights") for q in ("calls", "self_s")]
    + ["oracle.apply_operator.calls", "oracle.apply_operator.self_s"]
    + [f"oracle.{f}.self_s" for f in ("skew_B_oracle", "skew_D_oracle", "c_matrix_element")]
    + [f"symfunc.{f}.{q}" for f in SYMFUNC for q in ("calls", "self_s")]
    + [f"identities.{f}.self_s" for f in IDENTITIES]
    + ["samplers.uniform_hash.calls", "samplers.uniform_hash.values", "samplers.uniform_hash.self_s"]
    + ["samplers.sample_irf_batch.trajectories", "samplers.sample_irf_batch.self_s"]
    + ["samplers.exclusion_farm.trajectories", "samplers.exclusion_farm.self_s"]
    + ["samplers.simulate_exclusion.events", "samplers.simulate_exclusion.self_s"]
    + ["samplers.enumerate_heights.calls", "samplers.enumerate_heights.states", "samplers.enumerate_heights.self_s"]
    + ["observables.exact_E.calls", "observables.exact_E.self_s"]
    + [
        f"observables.{f}.self_s"
        for f in ("enum_E", "hs6v_q_moment", "ssep_mean_height", "ssep_falling_moment", "ssep_f2_duality", "mc_E")
    ]
    + [f"asymptotics.{f}.self_s" for f in ("hydro_check", "regime_moment_check", "regime_iv_ks_check")]
    + ["cli.main.self_s"]
    + [
        f"{m}.errors"
        for m in ("special", "params", "weights", "oracle", "symfunc", "identities", "samplers", "observables", "asymptotics", "cli")
    ]
    + ["trace.overhead_s"]
)


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, mode: str, deadline: float, *extra: str) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    setups = [_worker(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    run = _worker(workload, seed, "run", deadline, "--rounds", str(rounds))
    setups.append(run["setup_s"])
    metrics = {
        "wall_s": {"value": run["wall_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    return run, metrics


def _traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    plain = _worker(workload, seed, "run", deadline)
    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace-{workload}-{seed}.json"
    run = _worker(workload, seed, "run", deadline, "--trace", "1", "--trace-out", str(trace_path))
    layer = run["per_layer"]
    layer["trace.overhead_s"] = run["wall_s"] - plain["wall_s"]
    metrics = {name: {"value": layer.get(name, 0), "unit": _unit(name)} for name in PER_LAYER}
    return run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=tuple(NOMINAL_ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "dynirf" / "__init__.py").is_file():
        print(f"perfbench: no dynirf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            run, metrics = _traced(args.workload, args.seed, deadline)
        else:
            run, metrics = _end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in run["failures"]:
        print(f"FAILED: {line}", file=sys.stderr)
    result = {
        "correct": run["incorrect"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
