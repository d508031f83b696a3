"""Command-line front end: verification suites, simulations, observables, asymptotics.

All outputs are deterministic functions of (arguments, seed): reports are
sorted by name, floats rendered by repr, and Monte Carlo streams are
counter-based, so reruns are byte-identical at any --threads value (the
flag is accepted as a scheduling hint and never affects results).
Wall-clock timings are only embedded when --timings is passed, since they
would break byte-identity.

Exit codes: 0 all hard checks passed, 1 at least one failed (names go to
stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import asymptotics as asy
from . import identities as idn
from . import observables as obs
from .params import IrfParams, load_config, preset, PRESET_NAMES
from .special import FunctionMode, f_eval
from .samplers import sample_irf, simulate_exclusion, step_exclusion_state, trajectory_seed
from .symfunc import skew_B_lattice, stoch_B_formula, stoch_B_sum
from .weights import WeightContext, hat_ratio, weight


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def _load_params(args) -> IrfParams:
    if getattr(args, "config", None):
        return load_config(args.config)
    return preset(getattr(args, "preset", None) or "trig-admissible")


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


def _suite_weights(seed: int, tol_scale: float):
    rng = np.random.default_rng(seed ^ 0xA11CE)
    reports = []
    modes = [
        ("trigonometric", FunctionMode.trigonometric()),
        ("rational", FunctionMode.rational()),
        ("elliptic", FunctionMode.elliptic(6j)),
    ]
    for label, mode in modes:
        worst = 0.0
        for _ in range(1000):
            lam, w, z, L = rng.standard_normal(4) * 0.4 + 1j * rng.standard_normal(4) * 0.15
            eta = rng.standard_normal() * 0.08 + 1j * rng.standard_normal() * 0.03
            k = int(rng.integers(0, 4))
            ctx = WeightContext(lam, w, z, L, eta, mode)
            a = weight("A", k, ctx, stochastic=True)
            b = weight("B", k, ctx, stochastic=True)
            d = weight("D", k, ctx, stochastic=True)
            worst = max(worst, abs(b + d - 1))
            if k >= 1:
                c = weight("C", k, ctx, stochastic=True)
                worst = max(worst, abs(a + c - 1))
        reports.append(
            idn.CheckReport(
                name=f"stochasticity-1000draws-{label}",
                parameters={"draws": 1000, "mode": label},
                lhs=worst,
                rhs=0.0,
                tolerance=1e-10 * tol_scale,
            )
        )
    worst = 0.0
    for _ in range(1000):
        A, B, C, w = rng.standard_normal(4) * 0.7 + 1j * rng.standard_normal(4) * 0.3
        f = lambda x: f_eval(FunctionMode.trigonometric(), x)
        lhs = f(B - C) * f(w - A)
        rhs = f(A - C) * f(w - B) - f(A - B) * f(w - C)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    reports.append(
        idn.CheckReport(
            name="sine-identity-1000draws",
            parameters={"draws": 1000},
            lhs=worst,
            rhs=0.0,
            tolerance=1e-10 * tol_scale,
        )
    )
    worst = 0.0
    for _ in range(200):
        lam, w, z, L = rng.standard_normal(4) * 0.4 + 1j * rng.standard_normal(4) * 0.15
        eta = rng.standard_normal() * 0.08 + 1j * rng.standard_normal() * 0.03
        k = int(rng.integers(1, 4))
        ctx = WeightContext(lam, w, z, L, eta, FunctionMode.trigonometric())
        for kind in "ABCD":
            hat = hat_ratio(kind, k, lam, L, eta, ctx.mode)
            got = hat * weight(kind, k, ctx)
            want = weight(kind, k, ctx, stochastic=True)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    reports.append(
        idn.CheckReport(
            name="hat-ratio-consistency",
            parameters={"draws": 200},
            lhs=worst,
            rhs=0.0,
            tolerance=1e-12 * tol_scale,
        )
    )
    return reports


def _suite_oracle(seed: int, tol_scale: float):
    from dynirf.oracle import c_matrix_element, skew_B_oracle, skew_D_oracle
    from dynirf.symfunc import B_mu, D_nu, c_matrix_formula

    rng = np.random.default_rng(seed ^ 0x0AC1E)

    def rnd_params(mode):
        n_cols = 9
        cols = tuple(
            (complex(a, b), complex(c, d))
            for a, b, c, d in zip(
                0.3 + 0.25 * rng.standard_normal(n_cols),
                0.12 * rng.standard_normal(n_cols),
                1.15 + 0.3 * rng.standard_normal(n_cols),
                0.1 * rng.standard_normal(n_cols),
            )
        )
        eta = complex(0.06 + 0.04 * rng.random(), 0.02 + 0.02 * rng.random())
        return IrfParams(mode, eta, 0.0, cols, (0.0,))

    worst_b = worst_d = worst_c = 0.0
    for i in range(50):
        mode = FunctionMode.trigonometric() if i % 2 else FunctionMode.elliptic(1.4j)
        P = rnd_params(mode)
        lam = complex(0.3 + 0.2 * rng.standard_normal(), 0.15 + 0.1 * rng.standard_normal())
        mu = tuple(sorted(rng.integers(0, 5, size=rng.integers(1, 4)))[::-1])
        us = [complex(a, b) for a, b in 0.3 + 0.2 * rng.standard_normal((len(mu), 2))]
        want = skew_B_oracle(mu, (), lam, us, P)
        got = B_mu(mu, lam, us, P)
        worst_b = max(worst_b, abs(got - want) / max(1.0, abs(want)))
        nu = tuple(sorted(rng.integers(0, 5, size=rng.integers(1, 4)))[::-1])
        n = int(rng.integers(max(1, len([p for p in nu if p > 0])), 4))
        vs = [complex(a, b) for a, b in 0.3 + 0.2 * rng.standard_normal((n, 2))]
        want = skew_D_oracle(nu, (0,) * len(nu), lam, vs, P)
        got = D_nu(nu, lam, vs, P)
        worst_d = max(worst_d, abs(got - want) / max(1.0, abs(want)))
    for i in range(15):
        mode = FunctionMode.trigonometric() if i % 2 else FunctionMode.elliptic(1.4j)
        P = rnd_params(mode)
        lam = complex(0.3 + 0.2 * rng.standard_normal(), 0.15)
        m = int(rng.integers(1, 4))
        ks = tuple(int(v) for v in rng.integers(0, 3, size=m))
        p = sum(ks)
        if p == 0 or p > 3:
            continue
        ws = [complex(a, b) for a, b in 0.3 + 0.2 * rng.standard_normal((p, 2))]
        want = c_matrix_element(ws, ks, lam, P)
        got = c_matrix_formula(ws, ks, lam, P)
        worst_c = max(worst_c, abs(got - want) / max(1.0, abs(want)))
    return [
        idn.CheckReport("oracle-B-symmetrization-50draws", {"draws": 50}, worst_b, 0.0, 1e-8 * tol_scale),
        idn.CheckReport("oracle-D-symmetrization-50draws", {"draws": 50}, worst_d, 0.0, 1e-8 * tol_scale),
        idn.CheckReport("oracle-c-string-formula", {"draws": 15}, worst_c, 0.0, 1e-8 * tol_scale),
    ]


def _suite_stochastic(seed: int, tol_scale: float):
    from dynirf.params import pq_grid

    rng = np.random.default_rng(seed ^ 0x570C4)
    P = preset("trig-admissible")
    grid = pq_grid(P)
    lam = 0.41 + 0.23j
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        ell_nu = int(rng.integers(0, 3))
        nu = tuple(sorted(rng.integers(1, 5, size=ell_nu))[::-1]) if ell_nu else ()
        extra = tuple(sorted(rng.integers(1, 7, size=k))[::-1])
        merged = tuple(sorted(nu + extra)[::-1])
        kappa = tuple(p + i for i, p in enumerate(sorted(merged, reverse=True)))  # force distinct-ish growth
        kappa = tuple(sorted(kappa, reverse=True))
        us = [complex(grid.p[1]) + 0.002 * rng.standard_normal() + 0.0015j * rng.standard_normal() for _ in range(k)]
        dp = skew_B_lattice(kappa, nu, lam, us, P, stochastic=True)
        formula = stoch_B_formula(kappa, nu, lam, us, P)
        worst = max(worst, abs(dp - formula) / max(1.0, abs(formula)))
    reports = [
        idn.CheckReport("stoch-B-two-routes-50draws", {"draws": 50}, worst, 0.0, 1e-8 * tol_scale)
    ]
    for nu, k in [((), 1), ((2,), 1), ((3, 1), 2)]:
        us = [complex(grid.p[1]) + 0.002 * rng.standard_normal() + 0.0015j * rng.standard_normal() for _ in range(k)]
        total, tail = stoch_B_sum(nu, lam, us, P)
        reports.append(
            idn.CheckReport(
                f"stoch-sum-to-one-{nu}-k{k}",
                {"nu": nu, "k": k},
                total,
                1.0,
                1e-6 * tol_scale,
                truncation_info={"terms_used": tail.terms_used, "tail_estimate": tail.tail_estimate, "converged": tail.converged},
            )
        )
    return reports


def _cmd_verify(args) -> int:
    params = _load_params(args)
    tol_scale = args.tolerance if args.tolerance else 1.0
    reports = []
    if args.suite in ("weights", "all"):
        reports += _suite_weights(args.seed, tol_scale)
    if args.suite in ("oracle", "all"):
        reports += _suite_oracle(args.seed, tol_scale)
    if args.suite in ("stochastic", "all"):
        reports += _suite_stochastic(args.seed, tol_scale)
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
    elif args.model in ("irf", "dyn6v", "rational"):
        params = _load_params(args) if (args.preset or args.config) else preset(
            "rational-positive" if args.model == "rational" else "dyn6v-positive"
        )
        lines.append("traj,x,y,vout,hout")
        for i in range(args.trajectories):
            st = sample_irf(params, args.cols, args.rows, trajectory_seed(args.seed, i))
            for x in range(1, st.X + 1):
                for y in range(1, st.Y + 1):
                    lines.append(f"{i},{x},{y},{st.vout[x, y]},{st.hout[x, y]}")
    else:
        print(f"unknown model {args.model}", file=sys.stderr)
        return 2
    _write(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def _cmd_observables(args) -> int:
    xs = tuple(int(v) for v in args.xs.split(","))
    spec = obs.ObservableSpec(xs, args.N if args.N is not None else args.t)
    methods = args.compare.split(",")
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
    elif args.model == "asep":
        model, rates = "asep", (args.q, args.alpha)
    else:
        print(f"unknown model {args.model}", file=sys.stderr)
        return 2

    values = {}
    for method in methods:
        t0 = time.monotonic()
        stderr = None
        if method == "exact":
            val = obs.exact_E(model, spec, rates)
        elif method == "mc":
            val, stderr = obs.mc_E(model, spec, rates, args.samples, args.seed)
        elif method == "enum":
            if model not in ("irf", "rational"):
                print("enum is only available for lattice models", file=sys.stderr)
                return 2
            val = obs.enum_E(spec, rates)
        else:
            print(f"unknown method {method}", file=sys.stderr)
            return 2
        rec = {
            "model": args.model,
            "spec": {"xs": list(xs), "N_or_t": spec.N_or_t},
            "method": method,
            "value": _c(val),
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
        lams = [complex(*[float(p) for p in pair.split(":")]) for pair in args.lambdas.split(",")]
        rep = obs.lambda_independence_report(model, spec, lams, rates)
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
    if args.check == "profile":
        lines = ["chi,profile,empirical"]
        n_traj = max(args.samples, 100)
        from .samplers import exclusion_farm

        L, tau, lb = args.L, args.tau, args.lambda_bar
        chis = [float(c) for c in args.chi.split(",")]
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
        worst = max(
            asy.heat_equation_residual(c, t) for c in (-1.5, -0.3, 0.0, 0.8) for t in (0.5, 1.0, 2.0)
        )
        reports.append(
            idn.CheckReport("heat-equation-residual", {"h": 1e-4}, worst, 0.0, 1e-5)
        )
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

    def common(p):
        p.add_argument("--preset", choices=PRESET_NAMES)
        p.add_argument("--config", help="JSON parameter file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--threads", type=int, default=1, help="scheduling hint; never affects results")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--tolerance", type=float, help="scale factor on suite tolerances")
        p.add_argument("--timings", action="store_true", help="embed wall-clock timings (breaks byte-identity)")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=("weights", "oracle", "stochastic", "identities", "all"), default="identities")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="sample trajectories and dump them as CSV")
    common(p)
    p.add_argument("--model", required=True, choices=("ssep", "asep", "irf", "dyn6v", "rational"))
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--rows", type=int, default=5)
    p.add_argument("--cols", type=int, default=5)
    p.add_argument("--lambda-bar", dest="lambda_bar", type=float, default=2.0)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--trajectories", type=int, default=1)
    p.add_argument("--dump", choices=("events", "snapshot"), default="events")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("observables", help="compare exact / MC / enumeration averages")
    common(p)
    p.add_argument("--model", required=True, choices=("dyn6v", "irf", "rational", "asep", "ssep"))
    p.add_argument("--xs", required=True, help="comma-separated nonincreasing sites")
    p.add_argument("--N", type=int, help="row index for lattice models")
    p.add_argument("--t", type=float, default=1.0, help="time for exclusion processes")
    p.add_argument("--compare", default="exact")
    p.add_argument("--lambda-bar", dest="lambda_bar", type=float, default=2.0)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--lambdas", help="comma-separated re:im pairs for the independence report")
    p.set_defaults(func=_cmd_observables)

    p = sub.add_parser("asymptotics", help="hydrodynamic and long-time regime checks")
    common(p)
    p.add_argument("--check", choices=("heat", "hydro", "regimes", "ks", "profile", "all"), default="all")
    p.add_argument("--L", type=float, default=400.0)
    p.add_argument("--L-big", dest="L_big", type=float, default=1e4)
    p.add_argument("--L-ks", dest="L_ks", type=float, default=200.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--lambda-bar", dest="lambda_bar", type=float, default=1.0)
    p.add_argument("--chi", default="-1.0,0.0,1.0")
    p.set_defaults(func=_cmd_asymptotics)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
