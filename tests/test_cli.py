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

    def test_stochastic_draws_are_not_vacuous(self):
        # kappa used to add i to its i-th part, which mostly failed to
        # interlace nu, so both routes read 0 in most draws
        proc = run_cli("verify", "--suite", "stochastic", "--seed", "0")
        rep = next(r for r in json.loads(proc.stdout) if r["name"] == "stoch-B-two-routes-50draws")
        assert rep["parameters"]["nonzero_draws"] >= 45

    def test_usage_error(self):
        proc = run_cli("verify", "--suite", "nonsense", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["verify", "--seed", "-1"], "nonnegative --seed"),
            (["verify", "--tolerance", "0"], "--tolerance"),
            (["verify", "--tolerance", "-1"], "--tolerance"),
            (["verify", "--tolerance", "nan"], "--tolerance"),
            (["simulate", "--model", "ssep", "--trajectories", "-3"], "--trajectories"),
            (["simulate", "--model", "irf", "--cols", "0"], "--cols"),
            (["asymptotics", "--check", "hydro", "--L", "-5"], "--L"),
            (["asymptotics", "--check", "regimes", "--lambda-bar", "-1"], "--lambda-bar"),
            (["observables", "--model", "dyn6v", "--xs", "a,b", "--N", "2"], "--xs"),
            (["asymptotics", "--check", "profile", "--chi", "a"], "--chi"),
            (["verify", "--config", "/nonexistent/p.json"], "cannot read config"),
            (["observables", "--model", "dyn6v", "--xs", "2,1", "--N", "3", "--lambdas", "0.1:a"], "--lambdas"),
            (["simulate", "--model", "irf", "--preset", "trig-admissible", "--rows", "3", "--cols", "3"], "outside [0,1]"),
            (["asymptotics", "--check", "ks", "--samples", "0"], "--samples"),
            (["asymptotics", "--check", "all", "--samples", "-3"], "--samples"),
            (["asymptotics", "--check", "profile", "--samples", "0"], "--samples"),
            (["asymptotics", "--check", "profile", "--chi", "0.5,nan"], "--chi"),
            (["asymptotics", "--check", "profile", "--chi", "inf"], "--chi"),
        ],
        ids=["negative-seed", "zero-tolerance", "negative-tolerance", "nan-tolerance",
             "negative-trajectories", "zero-cols", "negative-L", "negative-lambda-bar", "non-integer-sites",
             "non-numeric-chi", "missing-config", "non-numeric-lambdas", "non-positive-irf-weights",
             "zero-ks-samples", "negative-samples", "zero-profile-samples", "nan-chi", "infinite-chi"],
    )
    def test_bad_input_is_a_usage_error(self, args, message):
        # each of these used to end in a traceback or to exit 0 (a zero
        # tolerance silently became 1.0; a negative lambda-bar gave a
        # negative regime-IV moment that passed)
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr

    def test_format_flag_is_gone(self):
        # --format was parsed and never read; it is now an unknown option
        from dynirf.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["verify", "--format", "json"])
        assert exc.value.code == 2


def _subparsers():
    from dynirf.cli import build_parser

    (action,) = [a for a in build_parser()._actions if a.dest == "command"]
    return action.choices


# options a subcommand parsed but its handler never read, so they changed nothing
DROPPED = [
    ("verify", ["--samples", "5"]), ("verify", ["--timings"]),
    ("simulate", ["--samples", "3"]), ("simulate", ["--tolerance", "5"]), ("simulate", ["--timings"]),
    ("observables", ["--tolerance", "2"]),
    ("asymptotics", ["--preset", "trig-admissible"]), ("asymptotics", ["--config", "p.json"]),
    ("asymptotics", ["--tolerance", "2"]), ("asymptotics", ["--timings"]),
]
REQUIRED = {"verify": [], "simulate": ["--model", "ssep"], "observables": ["--model", "ssep", "--xs", "0"], "asymptotics": []}


class TestOptionsAreRead:
    def test_every_option_is_read_by_its_handler(self):
        # each option dest must be read as args.<dest> by the handler or by
        # a helper it calls; --threads alone is a scheduling hint that by
        # design never changes a result
        import ast
        import inspect

        from dynirf import cli

        helpers = {"_load_params", "_write", "_emit_reports"}
        for name, parser in _subparsers().items():
            trees, todo, seen = [], [parser.get_default("func")], set()
            while todo:  # the handler and the helpers it reaches
                trees.append(ast.parse(inspect.getsource(todo.pop())))
                called = {n.func.id for n in ast.walk(trees[-1]) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
                todo += [getattr(cli, h) for h in sorted((helpers & called) - seen)]
                seen |= helpers & called
            read = {
                n.attr for t in trees for n in ast.walk(t)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
            }
            dests = {a.dest for a in parser._actions if a.dest not in ("help", "threads")}
            assert dests <= read, f"{name} parses options its handler never reads: {sorted(dests - read)}"

    @pytest.mark.parametrize("command, option", DROPPED, ids=[f"{c}{o[0]}" for c, o in DROPPED])
    def test_dropped_option_is_unknown(self, capsys, command, option):
        from dynirf.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *REQUIRED[command], *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_threads_is_taken_everywhere(self, command):
        from dynirf.cli import build_parser

        assert build_parser().parse_args([command, *REQUIRED[command], "--threads", "4"]).threads == 4


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

    def test_simulate_rejects_bad_horizon(self):
        # a negative horizon used to print an empty table and exit 0
        for t in ("-1", "nan"):
            proc = run_cli("simulate", "--model", "ssep", "--lambda-bar", "2", "--t", t, check=False)
            assert proc.returncode == 2 and proc.stdout == ""
            assert "time horizon" in proc.stderr and "Traceback" not in proc.stderr

    def test_observables_exact_rejects_negative_time(self):
        # the exact route used to print a value for t < 0 and exit 0
        proc = run_cli("observables", "--model", "ssep", "--xs", "1,0", "--t", "-1",
                       "--lambda-bar", "2", "--compare", "exact", check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "time horizon" in proc.stderr

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

    def test_lambda_report_rational(self):
        # printed "unknown model 'rational'"; enum_E reads 1.31211147413268 at each lambda_0
        proc = run_cli("observables", "--model", "rational", "--xs", "3,2", "--N", "3",
                       "--compare", "enum", "--lambdas=-60:0,-50:0,-70.5:0,-61.3:0")
        assert proc.returncode == 0, proc.stderr
        (rep,) = [r for r in json.loads(proc.stdout) if "name" in r]
        assert rep["name"] == "lambda-independence-rational-n2-N3" and rep["passed"]
        assert abs(rep["rhs"][0] - 1.31211147413268) < 1e-12

    @pytest.mark.parametrize("model", ["ssep", "asep"])
    def test_lambda_report_refused_for_exclusion_models(self, monkeypatch, capsys, model):
        # ended in a TypeError traceback (samples=None reached mc_E) after the methods ran
        from dynirf import cli, observables

        def no_work(*args, **kwargs):
            raise AssertionError("ran a method before --lambdas was checked")

        for name in ("exact_E", "mc_E", "enum_E", "lambda_independence_report"):
            monkeypatch.setattr(observables, name, no_work)
        assert cli.main(["observables", "--model", model, "--xs", "1,0", "--t", "1", "--lambdas", "1.5:0,3:0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "only available for lattice models" in err

    @pytest.mark.parametrize(
        "model, compare, message",
        [("ssep", "mc,foo", "unknown method foo"), ("asep", "exact,enum", "enum is only available for lattice models")],
    )
    def test_compare_checked_before_any_method(self, monkeypatch, capsys, model, compare, message):
        # --compare mc,foo ran the whole Monte Carlo before it exited 2
        from dynirf import cli, observables

        def no_work(*args, **kwargs):
            raise AssertionError("ran a method before --compare was checked")

        for name in ("exact_E", "mc_E", "enum_E"):
            monkeypatch.setattr(observables, name, no_work)
        assert cli.main(["observables", "--model", model, "--xs", "0", "--t", "1", "--compare", compare]) == 2
        assert message in capsys.readouterr().err


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

    def test_malformed_config_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text("{not json", encoding="utf-8")
        proc = run_cli("verify", "--config", str(cfg), check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "not valid JSON" in proc.stderr and "Traceback" not in proc.stderr


ALL_REPORT_NAMES = sorted([
    "D-integral-(1,)-n1", "D-integral-(2, 1)-n2",
    "D-rho-integral-(1,)", "D-rho-integral-(2, 0)", "D-rho-integral-(2, 1)",
    "cauchy-k1l1", "cauchy-k2l2",
    "cauchy-rho-N1-symmetrization", "cauchy-rho-N2-lattice", "cauchy-rho-N2-symmetrization",
    "hat-ratio-consistency", "nested-sum-n3",
    "oracle-B-symmetrization-50draws", "oracle-D-symmetrization-50draws", "oracle-c-string-formula",
    "orthogonality-(1,)-(1,)", "orthogonality-(2, 1)-(2, 1)", "orthogonality-(2, 1, 1)-(2, 1, 1)",
    "orthogonality-(2,)-(1,)", "orthogonality-(3, 1, 1)-(2, 1, 1)",
    "pieri-mu(2, 1)", "pieri2-nu()-l1", "pieri2-nu(2,)-l2",
    "sine-identity-1000draws",
    "skew-cauchy-(1,)-()-l1", "skew-cauchy-(2, 1)-()-l2", "skew-cauchy-(2, 1)-(1,)-l1",
    "stoch-B-two-routes-50draws",
    "stoch-sum-to-one-()-k1", "stoch-sum-to-one-(2,)-k1", "stoch-sum-to-one-(3, 1)-k2",
    "stochasticity-1000draws-elliptic", "stochasticity-1000draws-rational", "stochasticity-1000draws-trigonometric",
    "symmetrization-m1-elliptic", "symmetrization-m1-trigonometric",
    "symmetrization-m3-elliptic", "symmetrization-m3-trigonometric",
    "symmetrization-m6-elliptic", "symmetrization-m6-trigonometric",
])


@pytest.mark.slow
class TestFullSuite:
    def test_verify_all_passes(self):
        for seed in ("0", "3"):
            proc = run_cli("verify", "--suite", "all", "--seed", seed)
            assert proc.returncode == 0
            reports = json.loads(proc.stdout)
            assert sorted(r["name"] for r in reports) == ALL_REPORT_NAMES
            assert all(r["passed"] for r in reports)
            names = [r["name"] for r in reports]
            assert len(names) == len(set(names)), "report names must be unique"
