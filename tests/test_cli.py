import json
import math
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

    def test_python_m_dynirf_is_the_cli(self):
        # the package runs as ``python -m dynirf``, byte for byte as dynirf.cli
        args = ["verify", "--suite", "weights", "--seed", "0"]
        package = subprocess.run([sys.executable, "-m", "dynirf", *args], capture_output=True)
        assert package.returncode == 0 and package.stdout
        assert package.stdout == subprocess.run(CLI + args, capture_output=True).stdout

    def test_exit_code_on_forced_failure(self, monkeypatch, capsys):
        # no option scales a gate; a closed-form gate of 1e-30 makes the
        # round-off residuals of the weights suite fail
        from dynirf import cli, identities

        monkeypatch.setattr(identities, "TOL_CLOSED", 1e-30)
        assert cli.main(["verify", "--suite", "weights"]) == 1
        assert "FAILED: " in capsys.readouterr().err

    def test_stochastic_draws_are_not_vacuous(self):
        # kappa used to add i to its i-th part, which mostly failed to
        # interlace nu, so both routes read 0 in most draws
        proc = run_cli("verify", "--suite", "stochastic", "--seed", "0")
        rep = next(r for r in json.loads(proc.stdout) if r["name"] == "stoch-B-two-routes-50draws")
        assert rep["parameters"]["nonzero_draws"] >= 45

    def test_usage_error(self):
        proc = run_cli("verify", "--suite", "nonsense", check=False)
        assert proc.returncode == 2

    def test_suite_choices_are_the_suites_table(self):
        from dynirf import identities

        (suite,) = [a for a in _subparsers()["verify"]._actions if a.dest == "suite"]
        assert tuple(suite.choices) == (*identities.SUITES, "all")

    def test_identities_on_an_elliptic_config(self, tmp_path):
        # the rho reports are trigonometric only; an elliptic pack used to
        # exit 2 before any report ("the rho specialization lives in
        # trigonometric mode")
        from dynirf.params import params_to_json_dict
        from test_elliptic import elliptic_pack

        cfg = tmp_path / "ell.json"
        cfg.write_text(json.dumps(params_to_json_dict(elliptic_pack(1.2, 0.7j))), encoding="utf-8")
        proc = run_cli("verify", "--suite", "identities", "--config", str(cfg), check=False)
        assert proc.returncode == 0, proc.stderr
        names = [r["name"] for r in json.loads(proc.stdout)]
        assert len(names) == 23 and "D-rho-integral-(2, 1)" in names
        assert not any(n.startswith("cauchy-rho") for n in names)

    def test_zero_block_norm_is_a_message(self):
        # c_mu((1, 1)) on dyn6v-positive's Lambda = 1 columns divided by
        # f(0) and ended in a ZeroDivisionError traceback
        proc = run_cli("verify", "--suite", "identities", "--preset", "dyn6v-positive", check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("dynirf: error: c_mu of (1, 1)") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (["verify", "--seed", "-1"], "--seed must be an integer >= 0"),
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
            (["simulate", "--model", "dyn6v", "--rows", "11"], "rows"),
            (["simulate", "--model", "dyn6v", "--cols", "28"], "columns"),
            (["observables", "--model", "dyn6v", "--xs", "2,1", "--N", "3", "--compare", "enum",
              "--lambdas", "nan:0,0.3:0.1"], "--lambdas part must be a finite real"),
            (["observables", "--model", "dyn6v", "--xs", "2,1", "--N", "3", "--compare", "enum",
              "--lambdas", "0.1:0.2,0.3:inf"], "--lambdas part must be a finite real"),
        ],
        ids=["negative-seed", "negative-trajectories", "zero-cols", "negative-L", "negative-lambda-bar", "non-integer-sites",
             "non-numeric-chi", "missing-config", "non-numeric-lambdas", "non-positive-irf-weights",
             "zero-ks-samples", "negative-samples", "zero-profile-samples", "nan-chi", "infinite-chi",
             "rows-past-the-pack", "cols-past-the-pack", "nan-lambdas", "infinite-lambdas"],
    )
    def test_bad_input_is_a_usage_error(self, args, message):
        # each of these used to end in a traceback or to exit 0 (a negative
        # lambda-bar gave a negative regime-IV moment that passed)
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
    ("verify", ["--samples", "5"]), ("verify", ["--timings"]), ("verify", ["--tolerance", "2"]),
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

        helpers = {"_load_params", "_model", "_write", "_emit"}
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

    def test_constant_observable_passes_mc(self):
        # at x <= 1 every trajectory has h = N, so every sample is one float;
        # mc_E returned rounding noise (3.5e-18) as the stderr, and the 4
        # sigma gate failed mc at a gap of 1.4e-16
        proc = run_cli("observables", "--model", "dyn6v", "--xs", "1", "--N", "2",
                       "--compare", "exact,mc,enum", "--samples", "1000")
        assert proc.returncode == 0, proc.stderr
        (mc,) = [r for r in json.loads(proc.stdout) if r["method"] == "mc"]
        assert mc["stderr"] == 0.0

    def test_ssep_exact_vs_mc(self):
        proc = run_cli("observables", "--model", "ssep", "--xs", "1,0", "--t", "1",
                       "--lambda-bar", "2", "--compare", "exact,mc", "--samples", "20000", "--seed", "2")
        assert proc.returncode == 0

    def test_asep_at_alpha_zero(self):
        # used to end in a ZeroDivisionError traceback from the mc product
        proc = run_cli("observables", "--model", "asep", "--xs", "2", "--t", "1", "--q", "0.5",
                       "--alpha", "0", "--compare", "exact,mc", "--samples", "1000")
        assert proc.returncode == 0, proc.stderr
        assert {r["method"] for r in json.loads(proc.stdout)} == {"exact", "mc"}

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--model", "dyn6v", "--xs", "2", "--compare", "enum"], "needs the row index --N"),
            (["--model", "dyn6v", "--xs", "2", "--t", "3"], "takes no --t"),
            (["--model", "irf", "--xs", "2,1", "--N", "3", "--t", "3"], "takes no --t"),
            (["--model", "ssep", "--xs", "0", "--N", "3"], "not --N"),
        ],
        ids=["lattice-without-N", "lattice-t-as-N", "lattice-N-and-t", "exclusion-N-as-t"],
    )
    def test_N_and_t_belong_to_their_models(self, monkeypatch, capsys, argv, message):
        # --t's default 1 became the row index N = 1 of a lattice model, a
        # lattice --t became N, and an exclusion --N became t; each exited 0
        from dynirf import cli, observables

        def no_work(*args, **kwargs):
            raise AssertionError("ran a method before --N and --t were checked")

        for name in ("exact_E", "mc_E", "enum_E"):
            monkeypatch.setattr(observables, name, no_work)
        assert cli.main(["observables", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_convergence_error_is_a_message(self):
        # the ASEP loop integral passes its grid cap here; this used to end
        # in a ConvergenceError traceback
        proc = run_cli("observables", "--model", "asep", "--xs", "1,0", "--t", "20", "--q", "0.8", check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("dynirf: error: contour quadrature did not converge")
        assert "Traceback" not in proc.stderr

    def test_irf_cap_at_a_later_level_names_enum_E(self, capsys):
        # rational-positive's 4-point integral passes the grid cap at its
        # third level; the message named the quadrature only
        from dynirf import cli

        assert cli.main(["observables", "--model", "rational", "--xs", "4,3,2,1", "--N", "4", "--compare", "exact,enum"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "98 nodes/variable" in err and "enum_E enumerates the height law" in err

    def test_singular_parameter_error_is_a_message(self, monkeypatch, capsys):
        from dynirf import cli, observables
        from dynirf.weights import SingularParameterError

        def singular(*args, **kwargs):
            raise SingularParameterError("coincident row parameters")

        monkeypatch.setattr(observables, "exact_E", singular)
        assert cli.main(["observables", "--model", "dyn6v", "--xs", "2,1", "--N", "3"]) == 1
        assert capsys.readouterr().err == "dynirf: error: coincident row parameters\n"


class TestModelAndPack:
    # the CLI's --model still names rational, and ``_model`` refuses a pack
    # of the other mode; simulate used to sample it silently (exit 0)
    PAIRS = [
        ("rational", "dyn6v-positive", "model 'rational' needs a rational-mode pack, got trigonometric"),
        ("dyn6v", "rational-positive", "model 'irf' needs a non-rational-mode pack, got rational"),
        ("irf", "rational-positive", "model 'irf' needs a non-rational-mode pack, got rational"),
    ]

    @pytest.mark.parametrize("command", ["observables", "simulate"])
    @pytest.mark.parametrize("model, pack, message", PAIRS, ids=[f"{m}-{p}" for m, p, _ in PAIRS])
    def test_contradictory_pack_is_a_usage_error(self, monkeypatch, capsys, command, model, pack, message):
        from dynirf import cli, observables

        def no_work(*args, **kwargs):
            raise AssertionError("ran on a contradictory pack")

        monkeypatch.setattr(cli, "_irf_batch", no_work)
        for name in ("exact_E", "mc_E", "enum_E"):
            monkeypatch.setattr(observables, name, no_work)
        extra = ["--xs", "2,1", "--N", "3", "--compare", "enum,exact,mc"] if command == "observables" else []
        assert cli.main([command, "--model", model, "--preset", pack, *extra]) == 2
        assert capsys.readouterr() == ("", f"dynirf: error: {message}\n")

    @pytest.mark.parametrize("command", ["observables", "simulate"])
    @pytest.mark.parametrize("model", ["ssep", "asep"])
    @pytest.mark.parametrize("option", [["--preset", "dyn6v-positive"], ["--config", "p.json"]], ids=["preset", "config"])
    def test_pack_given_to_an_exclusion_model_is_a_usage_error(self, monkeypatch, capsys, command, model, option):
        # the exclusion models read rates, never a pack: each of these ran
        # and exited 0 without reading the pack (a missing config file too)
        from dynirf import cli, observables

        def no_work(*args, **kwargs):
            raise AssertionError("ran with a pack it does not read")

        monkeypatch.setattr(cli, "simulate_exclusion", no_work)
        for name in ("exact_E", "mc_E"):
            monkeypatch.setattr(observables, name, no_work)
        extra = ["--xs", "1,0"] if command == "observables" else []
        assert cli.main([command, "--model", model, *option, *extra]) == 2
        message = f"the exclusion model {model} takes no --preset or --config"
        assert capsys.readouterr() == ("", f"dynirf: error: {message}\n")


class TestAsymptoticsCommand:
    def test_heat_and_hydro(self):
        proc = run_cli("asymptotics", "--check", "hydro")
        assert proc.returncode == 0
        proc = run_cli("asymptotics", "--check", "heat")
        assert proc.returncode == 0

    def test_regimes_past_the_saddle_reach_is_an_error(self, capsys):
        # from L = 1e6 the saddle route read F2 = -7.0e-23: a regime-iv-moment-n2
        # report with that lhs and a FAILED: line, in place of an error
        from dynirf import cli

        assert cli.main(["asymptotics", "--check", "regimes", "--L-big", "1e6"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("dynirf: error:") == 1 and "saddle" in err and "FAILED" not in err

    def test_ks_at_a_small_lambda_bar(self, capsys):
        # at shape 0.05 gammainc's continued fraction ran out of steps on the
        # law's cdf, and this run exited 1 with a ConvergenceError
        from dynirf import cli

        args = ["asymptotics", "--check", "ks", "--lambda-bar", "0.05", "--samples", "50", "--seed", "4"]
        assert cli.main(args) == 0
        assert '"name": "regime-iv-ks-soft"' in capsys.readouterr().out

    def test_profile_csv(self):
        proc = run_cli("asymptotics", "--check", "profile", "--L", "50",
                       "--samples", "120", "--chi=-0.5,0.0,0.5")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "chi,profile,empirical"
        assert len(lines) == 4
        # the reference column is E[Z_chi] of the regime-IV limit, which
        # moves with chi (it read sqrt(E Y) = 0.7511255444649425 on every row)
        profile = [float(line.split(",")[1]) for line in lines[1:]]
        assert [round(p, 4) for p in profile] == [0.9743, 0.6657, 0.4743]

    def test_profile_runs_the_samples_it_is_given(self, monkeypatch, capsys):
        # --samples 5 used to be raised to 100 trajectories
        from dynirf import cli

        real, counts = cli.exclusion_farm, []

        def farm(model, rates, T, n_traj, seed, xs):
            counts.append(n_traj)
            return real(model, rates, T, n_traj, seed, xs)

        monkeypatch.setattr(cli, "exclusion_farm", farm)
        assert cli.main(["asymptotics", "--check", "profile", "--L", "50", "--samples", "5", "--chi=0.0"]) == 0
        assert counts == [5]
        assert len(capsys.readouterr().out.splitlines()) == 2


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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: {k: v for k, v in c.items() if k != "eta"}, "eta"),
            (lambda c: [c], "JSON object"),
            (lambda c: {**c, "columns": [{**c["columns"][0], "Lambda": "x"}, *c["columns"][1:]]}, "columns[0].Lambda"),
            (lambda c: {**c, "eta": [0.04, 0.01, 5]}, "eta"),
            (lambda c: {**c, "eta": True}, "eta"),
            (lambda c: {**c, "eta": [math.nan, 0.01]}, "eta"),
            (lambda c: {**c, "mode": "elliptic"}, "tau"),
            (lambda c: {**c, "mode": "hyperbolic"}, "hyperbolic"),
            (lambda c: {**c, "tau": [0.0, 1.5]}, "takes no tau"),
            (lambda c: {**c, "eta": 0}, "eta is 0"),
            (lambda c: {**c, "columns": []}, "columns list is empty"),
        ],
        ids=["missing-eta", "top-level-list", "non-numeric-Lambda", "three-number-pair", "bool-eta", "nan-eta",
             "elliptic-without-tau", "unknown-mode", "tau-outside-elliptic-mode", "zero-eta", "no-columns"],
    )
    def test_refused_config_is_a_usage_error(self, tmp_path, edit, message):
        # each of these but the unknown mode used to end in a KeyError,
        # IndexError, TypeError or (eta = 0, through --suite identities)
        # ZeroDivisionError traceback or to be read without a word; an empty
        # column list also printed numpy warnings before its error line
        from dynirf.params import params_to_json_dict, preset

        path = tmp_path / "p.json"
        path.write_text(json.dumps(edit(params_to_json_dict(preset("trig-admissible")))), encoding="utf-8")
        proc = run_cli("verify", "--suite", "weights", "--config", str(path), check=False)
        assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("dynirf: error: ") and proc.stderr.count("\n") == 1 and message in proc.stderr


ALL_REPORT_NAMES = sorted([
    "D-integral-(1,)-n1", "D-integral-(2, 1)-n2",
    "D-rho-integral-(1,)", "D-rho-integral-(2, 0)", "D-rho-integral-(2, 1)",
    "cauchy-k1l1", "cauchy-k2l2",
    "cauchy-rho-N1-symmetrization", "cauchy-rho-N2-lattice", "cauchy-rho-N2-symmetrization",
    "dyn6v-weights-50draws", "hat-ratio-consistency", "nested-sum-n3",
    "oracle-B-symmetrization-50draws", "oracle-D-symmetrization-50draws", "oracle-c-string-formula",
    "orthogonality-(1,)-(1,)", "orthogonality-(2, 1)-(2, 1)", "orthogonality-(2, 1, 1)-(2, 1, 1)",
    "orthogonality-(2,)-(1,)", "orthogonality-(3, 1, 1)-(2, 1, 1)",
    "pieri-mu(2, 1)", "pieri2-nu()-l1", "pieri2-nu(2,)-l2", "rational-weights-50draws",
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


class TestSpinJSimulate:
    def test_irf_dump_of_a_spin_two_pack(self, tmp_path, capsys):
        # the dump is the batch sampler's; it equals the scalar reference's
        from reference_routes import sample_irf, spin_pack

        from dynirf import cli
        from dynirf.params import params_to_json_dict
        from dynirf.samplers import trajectory_seed

        params = spin_pack(2)
        path = tmp_path / "spin2.json"
        path.write_text(json.dumps(params_to_json_dict(params)), encoding="utf-8")
        args = ["--cols", "8", "--rows", "10", "--trajectories", "20", "--seed", "3"]
        assert cli.main(["simulate", "--model", "irf", "--config", str(path), *args]) == 0
        lines = ["traj,x,y,vout,hout"]
        for i in range(20):
            st = sample_irf(params, 8, 10, trajectory_seed(3, i))
            lines += [f"{i},{x},{y},{st.vout[x, y]},{st.hout[x, y]}" for x in range(1, 9) for y in range(1, 11)]
        out = capsys.readouterr().out
        assert out == "\n".join(lines) + "\n" and ",2," in out


# Commands that fail at this head, pinned so that the change mending one sees
# its XPASS fail the suite and removes the pin: ROADMAP item 9 (round-off in
# the m = 6 symmetrization sum) and item 6 (a Monte Carlo stderr of 0 on a
# rare observable)
KNOWN_FAILURES = [
    ("verify --suite identities --seed 337", "item 9: symmetrization-m6 round-off"),
    ("verify --suite identities --preset rational-positive --seed 1", "item 9: symmetrization-m6-rational round-off"),
    ("observables --model ssep --xs 2,1,0 --t 1 --compare exact,mc --samples 20000 --seed 1", "item 6: mc stderr 0"),
]


@pytest.mark.parametrize(
    "command",
    [pytest.param(c, marks=pytest.mark.xfail(strict=True, reason=r)) for c, r in KNOWN_FAILURES],
    ids=[c.split(" --")[0].replace(" ", "-") + f"-{i}" for i, (c, _) in enumerate(KNOWN_FAILURES)],
)
def test_known_failing_command_exits_0(capsys, command):
    from dynirf import cli

    assert cli.main(command.split()) == 0
