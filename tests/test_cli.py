import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "dynirf.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check and proc.returncode not in (0, 1):
        raise AssertionError(f"CLI crashed: {proc.stderr}")
    return proc


class TestVerifyCommand:
    def test_weights_suite_passes(self):
        proc = run_cli("verify", "--suite", "weights", "--seed", "0")
        assert proc.returncode == 0
        reports = json.loads(proc.stdout)
        assert all(r["passed"] for r in reports)
        names = [r["name"] for r in reports]
        assert names == sorted(names)

    def test_exit_code_on_forced_failure(self):
        # an absurd tolerance scale cannot rescue a forced failure; scale
        # tolerances down so near-machine-precision residuals "fail"
        proc = run_cli("verify", "--suite", "weights", "--tolerance", "1e-16")
        assert proc.returncode == 1
        assert "FAILED" in proc.stderr

    def test_usage_error(self):
        proc = run_cli("verify", "--suite", "nonsense", check=False)
        assert proc.returncode == 2

    def test_format_flag_is_gone(self):
        # --format was parsed and never read; it is now an unknown option
        from dynirf.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["verify", "--format", "json"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_verify_byte_identical(self):
        a = run_cli("verify", "--suite", "weights", "--seed", "5")
        b = run_cli("verify", "--suite", "weights", "--seed", "5")
        assert a.stdout == b.stdout

    def test_simulate_byte_identical_across_threads(self):
        args = ["simulate", "--model", "ssep", "--lambda-bar", "2", "--t", "1",
                "--trajectories", "50", "--seed", "7", "--dump", "snapshot"]
        a = run_cli(*args, "--threads", "1")
        b = run_cli(*args, "--threads", "4")
        assert a.stdout == b.stdout and a.stdout.startswith("traj,x,s")

    def test_simulate_ssep_lambda_bar_one(self):
        # lambda_bar = 1 used to divide by zero in the unused down-rate at s_0 = 0
        proc = run_cli("simulate", "--model", "ssep", "--lambda-bar", "1", "--t", "1", check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("traj,t,x,s\n")

    def test_event_log_format(self):
        proc = run_cli("simulate", "--model", "asep", "--q", "0.5", "--alpha", "2",
                       "--t", "2", "--trajectories", "4", "--seed", "3")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "traj,t,x,s"
        assert len(lines) > 1  # four trajectories up to t=2 produce events

    def test_observables_byte_identical(self):
        args = ["observables", "--model", "dyn6v", "--xs", "2,1", "--N", "2",
                "--compare", "exact,mc", "--samples", "2000", "--seed", "9"]
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout


class TestObservablesCommand:
    def test_three_method_comparison(self):
        proc = run_cli("observables", "--model", "dyn6v", "--xs", "3,2", "--N", "4",
                       "--compare", "exact,mc,enum", "--samples", "5000", "--seed", "1")
        assert proc.returncode == 0
        records = json.loads(proc.stdout)
        methods = {r["method"] for r in records if "method" in r}
        assert methods == {"exact", "mc", "enum"}
        for r in records:
            if "method" in r:
                assert "discrepancy_vs_exact" in r

    def test_ssep_exact_vs_mc(self):
        proc = run_cli("observables", "--model", "ssep", "--xs", "1,0", "--t", "1",
                       "--lambda-bar", "2", "--compare", "exact,mc", "--samples", "20000", "--seed", "2")
        assert proc.returncode == 0

    def test_lambda_report(self):
        proc = run_cli("observables", "--model", "dyn6v", "--xs", "2,1", "--N", "3",
                       "--compare", "enum", "--lambdas", "0.1:0.2,0.3:-0.1,-0.2:0.15")
        assert proc.returncode == 0
        records = json.loads(proc.stdout)
        rep = [r for r in records if r.get("name", "").startswith("lambda-independence")]
        assert rep and rep[0]["passed"]


class TestAsymptoticsCommand:
    def test_heat_and_hydro(self):
        proc = run_cli("asymptotics", "--check", "hydro")
        assert proc.returncode == 0
        proc = run_cli("asymptotics", "--check", "heat")
        assert proc.returncode == 0

    def test_profile_csv(self):
        proc = run_cli("asymptotics", "--check", "profile", "--L", "50",
                       "--samples", "120", "--chi=-0.5,0.0,0.5")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "chi,profile,empirical"
        assert len(lines) == 4


class TestConfigFile:
    def test_config_roundtrip(self, tmp_path):
        from dynirf.params import params_to_json_dict, preset

        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps(params_to_json_dict(preset("trig-admissible"))), encoding="utf-8")
        proc = run_cli("verify", "--suite", "stochastic", "--config", str(cfg))
        assert proc.returncode == 0


@pytest.mark.slow
class TestFullSuite:
    def test_verify_all_passes(self):
        proc = run_cli("verify", "--suite", "all", "--seed", "0")
        assert proc.returncode == 0
        reports = json.loads(proc.stdout)
        assert len(reports) > 35
        assert all(r["passed"] for r in reports)
