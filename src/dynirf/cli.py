"""Command-line front end: verification suites, simulations, observables, asymptotics.

All outputs are deterministic functions of (arguments, seed): reports are
sorted by name, floats rendered by repr, and Monte Carlo streams are
counter-based, so reruns are byte-identical at any --threads value (the
flag is accepted as a scheduling hint and never affects results).
Wall-clock timings are only embedded when ``observables --timings`` is
passed, since they would break byte-identity.

Exit codes: 0 all hard checks passed, 1 at least one failed (names go to
stderr), 2 usage errors, invalid parameters included.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import identities as idn
from .params import IrfParams, _c2pair, load_config, preset, PRESET_NAMES
from .special import FunctionMode, InvalidParameterError
from .samplers import exclusion_farm, sample_irf, simulate_exclusion, step_exclusion_state, trajectory_seed


def _load_params(args) -> IrfParams:
    if args.config:
        try:
            return load_config(args.config)
        except OSError as exc:
            raise InvalidParameterError(f"cannot read config {args.config}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"config {args.config} is not valid JSON: {exc}") from None
    return preset(args.preset or "trig-admissible")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _comma_list(convert, what: str):
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be comma-separated {what}, got {text}") from None

    return parse


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_reports(args, reports) -> int:
    reports = sorted(reports, key=lambda r: r.name)
    payload = json.dumps([r.to_json_dict() for r in reports], indent=1, sort_keys=True)
    _write(args, payload + "\n")
    failed = [r.name for r in reports if not r.passed and not r.parameters.get("soft")]
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise InvalidParameterError(f"verify needs a nonnegative --seed, got {args.seed}")
    params = _load_params(args)
    tol_scale = args.tolerance if args.tolerance is not None else 1.0
    reports = []
    if args.suite in ("weights", "all"):
        rng = np.random.default_rng(args.seed ^ 0xA11CE)
        modes = (FunctionMode.trigonometric(), FunctionMode.rational(), FunctionMode.elliptic(6j))
        reports += [idn.check_stochasticity(rng, mode, tol_scale) for mode in modes]
        reports += [idn.check_sine_identity(rng, tol_scale), idn.check_hat_ratios(rng, tol_scale)]
    if args.suite in ("oracle", "all"):
        reports += idn.check_oracle_formulas(np.random.default_rng(args.seed ^ 0x0AC1E), tol_scale)
    if args.suite in ("stochastic", "all"):
        reports += idn.check_stochastic_weights(np.random.default_rng(args.seed ^ 0x570C4), tol_scale)
    if args.suite in ("identities", "all"):
        reports += idn.run_identity_suite(params, seed=args.seed, tolerance_scale=tol_scale)
    return _emit_reports(args, reports)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    lines = []
    if args.model in ("ssep", "asep"):
        rates = (args.lambda_bar,) if args.model == "ssep" else (args.q, args.alpha)
        if args.dump == "events":
            lines.append("traj,t,x,s")
            for i in range(args.trajectories):
                st = simulate_exclusion(
                    step_exclusion_state(args.model, rates), args.t, trajectory_seed(args.seed, i), record=True
                )
                for (t, x, s) in st.events:
                    lines.append(f"{i},{t!r},{x},{s}")
        else:
            lines.append("traj,x,s")
            for i in range(args.trajectories):
                st = simulate_exclusion(step_exclusion_state(args.model, rates), args.t, trajectory_seed(args.seed, i))
                for x in range(st.lo, st.hi + 1):
                    lines.append(f"{i},{x},{st.value(x)}")
    else:
        params = _load_params(args) if (args.preset or args.config) else preset(
            "rational-positive" if args.model == "rational" else "dyn6v-positive"
        )
        lines.append("traj,x,y,vout,hout")
        for i in range(args.trajectories):
            st = sample_irf(params, args.cols, args.rows, trajectory_seed(args.seed, i))
            for x in range(1, st.X + 1):
                for y in range(1, st.Y + 1):
                    lines.append(f"{i},{x},{y},{st.vout[x, y]},{st.hout[x, y]}")
    _write(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def _cmd_observables(args) -> int:
    from . import observables as obs

    xs = args.xs
    spec = obs.ObservableSpec(xs, args.N if args.N is not None else args.t)
    methods = args.compare.split(",")
    for method in methods:
        if method not in ("exact", "mc", "enum"):
            print(f"unknown method {method}", file=sys.stderr)
            return 2
        if method == "enum" and args.model in ("ssep", "asep"):
            print("enum is only available for lattice models", file=sys.stderr)
            return 2
    if args.lambdas and args.model in ("ssep", "asep"):
        print("--lambdas takes lattice corner fillings; it is only available for lattice models", file=sys.stderr)
        return 2
    records = []
    failures = []

    if args.model in ("dyn6v", "irf"):
        params = _load_params(args) if (args.preset or args.config) else preset("dyn6v-positive")
        model, rates = "irf", params
    elif args.model == "rational":
        params = _load_params(args) if (args.preset or args.config) else preset("rational-positive")
        model, rates = "rational", params
    elif args.model == "ssep":
        model, rates = "ssep", (args.lambda_bar,)
    else:
        model, rates = "asep", (args.q, args.alpha)

    values = {}
    for method in methods:
        t0 = time.monotonic()
        stderr = None
        if method == "exact":
            val = obs.exact_E(model, spec, rates)
        elif method == "mc":
            val, stderr = obs.mc_E(model, spec, rates, args.samples, args.seed)
        else:
            val = obs.enum_E(spec, rates)
        rec = {
            "model": args.model,
            "spec": {"xs": list(xs), "N_or_t": spec.N_or_t},
            "method": method,
            "value": _c2pair(val),
        }
        if stderr is not None:
            rec["stderr"] = stderr
        if args.timings:
            rec["runtime_ms"] = (time.monotonic() - t0) * 1e3
        values[method] = (val, stderr)
        records.append(rec)

    # discrepancy columns against the first method
    base = methods[0]
    for rec, method in zip(records, methods):
        v0 = values[base][0]
        v = values[method][0]
        rec["discrepancy_vs_" + base] = abs(v - v0)
        se = values[method][1] or values[base][1]
        if method != base and se:
            if abs(v - v0) > 4 * se:
                failures.append(method)
        elif method != base and abs(v - v0) > 1e-6 * max(1.0, abs(v0)):
            failures.append(method)

    if args.lambdas:
        rep = obs.lambda_independence_report(model, spec, args.lambdas, rates)
        records.append(rep.to_json_dict())
        if not rep.passed:
            failures.append(rep.name)

    _write(args, json.dumps(records, indent=1, sort_keys=True) + "\n")
    for name in failures:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def _cmd_asymptotics(args) -> int:
    from . import asymptotics as asy

    if args.check == "profile":
        lines = ["chi,profile,empirical"]
        n_traj = max(args.samples, 100)
        L, tau, lb = args.L, args.tau, args.lambda_bar
        chis = args.chi
        xs = [int(round(c * L**0.25)) for c in chis]
        svals = exclusion_farm("ssep", (lb,), L * tau, n_traj, args.seed, xs)
        for j, chi in enumerate(chis):
            law = asy.RegimeIVLaw(chi=chi, tau=tau, lambda_bar=lb)
            emp = float(np.mean((svals[:, j] - xs[j]) / 2.0)) / L**0.25
            prof = law.moment(1) ** 0.5  # scale reference; profile itself random in IV
            lines.append(f"{chi!r},{prof!r},{emp!r}")
        _write(args, "\n".join(lines) + "\n")
        return 0

    reports = []
    if args.check in ("heat", "all"):
        worst = max(asy.heat_equation_residual(c, t) for c in (-1.5, -0.3, 0.0, 0.8) for t in (0.5, 1.0, 2.0))
        reports.append(idn.CheckReport("heat-equation-residual", {"h": 1e-4}, worst, 0.0, 1e-5))
    if args.check in ("hydro", "all"):
        reports.append(asy.hydro_check(L=args.L, tau=args.tau))
    if args.check in ("regimes", "all"):
        reports.append(asy.regime_moment_check(1, args.L_big, args.tau, args.lambda_bar))
        reports.append(asy.regime_moment_check(2, args.L_big, args.tau, args.lambda_bar))
    if args.check in ("ks", "all"):
        reports.append(
            asy.regime_iv_ks_check(L=args.L_ks, tau=args.tau, lambda_bar=args.lambda_bar, n_traj=args.samples, seed=args.seed)
        )
    return _emit_reports(args, reports)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dynirf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, params=True):
        # each subcommand takes only the options its handler reads
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1, help="scheduling hint; never affects results")
        p.add_argument("--out", help="output path (default stdout)")
        if params:
            p.add_argument("--preset", choices=PRESET_NAMES)
            p.add_argument("--config", help="JSON parameter file")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--tolerance", type=_positive_float, help="scale factor on suite tolerances")
    p.add_argument("--suite", choices=("weights", "oracle", "stochastic", "identities", "all"), default="identities")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="sample trajectories and dump them as CSV")
    common(p)
    p.add_argument("--model", required=True, choices=("ssep", "asep", "irf", "dyn6v", "rational"))
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--rows", type=_positive_int, default=5)
    p.add_argument("--cols", type=_positive_int, default=5)
    p.add_argument("--lambda-bar", dest="lambda_bar", type=float, default=2.0)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--trajectories", type=_positive_int, default=1)
    p.add_argument("--dump", choices=("events", "snapshot"), default="events")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("observables", help="compare exact / MC / enumeration averages")
    common(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--timings", action="store_true", help="embed wall-clock timings (breaks byte-identity)")
    p.add_argument("--model", required=True, choices=("dyn6v", "irf", "rational", "asep", "ssep"))
    p.add_argument("--xs", type=_comma_list(int, "integers"), required=True, help="comma-separated nonincreasing sites")
    p.add_argument("--N", type=int, help="row index for lattice models")
    p.add_argument("--t", type=float, default=1.0, help="time for exclusion processes")
    p.add_argument("--compare", default="exact")
    p.add_argument("--lambda-bar", dest="lambda_bar", type=float, default=2.0)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=2.0)
    re_im = _comma_list(lambda pair: complex(*map(float, pair.split(":", 1))), "re:im pairs")
    p.add_argument("--lambdas", type=re_im, help="lambda_0 values (re:im) for the independence report")
    p.set_defaults(func=_cmd_observables)

    p = sub.add_parser("asymptotics", help="hydrodynamic and long-time regime checks")
    common(p, params=False)
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--check", choices=("heat", "hydro", "regimes", "ks", "profile", "all"), default="all")
    p.add_argument("--L", type=_positive_float, default=400.0)
    p.add_argument("--L-big", dest="L_big", type=_positive_float, default=1e4)
    p.add_argument("--L-ks", dest="L_ks", type=_positive_float, default=200.0)
    p.add_argument("--tau", type=_positive_float, default=1.0)
    p.add_argument("--lambda-bar", dest="lambda_bar", type=_positive_float, default=1.0)
    p.add_argument("--chi", type=_comma_list(_finite_float, "finite numbers"), default="-1.0,0.0,1.0")
    p.set_defaults(func=_cmd_asymptotics)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"dynirf: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
