"""The benchmark's three workloads run and check out against this tree.

They call dynirf the way the benchmark does, keywords included (for example
``ssep_f2_duality(0, 5.0, dt=0.05)``), and check every output against its
reference, so a signature or value change that would break the benchmark,
an exclusion-engine change that would fail its Monte Carlo checks, or a
verification-suite change that would fail a report, fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def run_round(workload: str) -> dict:
    args = ["--workload", workload, "--seed", "1", "--mode", "run", "--rounds", "1"]
    proc = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_exact_workload_round_passes():
    result = run_round("exact")
    assert result["failed"] == 0 and result["incorrect"] == 0, result["failures"]


def test_stochastic_workload_round_passes():
    result = run_round("stochastic")
    assert result["failed"] == 0 and result["incorrect"] == 0, result["failures"]


def test_verify_workload_round_passes():
    result = run_round("verify")
    assert result["failed"] == 0 and result["incorrect"] == 0, result["failures"]
