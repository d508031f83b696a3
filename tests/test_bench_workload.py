"""The benchmark's `exact` workload runs and checks out against this tree.

It calls dynirf the way the benchmark does, keywords included (for example
``ssep_f2_duality(0, 5.0, dt=0.05)``), and checks every output against its
reference, so a signature or value change that would break the benchmark
fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def test_exact_workload_round_passes():
    args = ["--workload", "exact", "--seed", "1", "--mode", "run", "--rounds", "1"]
    proc = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["incorrect"] == 0, result["failures"]
