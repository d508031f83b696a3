"""Command-line front end: verification suites, simulations, observables, asymptotics.

``verify`` applies ``identities.SUITES``: each selected battery runs on its
own Generator, seeded by --seed ^ its salt, on the --preset/--config pack.
All outputs are deterministic functions of (arguments, seed): reports are
sorted by name, floats rendered by repr, and Monte Carlo streams are
counter-based, so reruns are byte-identical at any --threads value (the
flag is a scheduling hint and never affects results).  Wall-clock timings
are only embedded with ``observables --timings``, which breaks byte-identity.

Exit codes: 0 all hard checks passed; 1 at least one failed (names go to
stderr) or a computation raised ConvergenceError or SingularParameterError
(message on stderr, no traceback); 2 usage errors, invalid parameters
included.  Every numeric option is read by ``special._as_int`` or
``_as_real`` through ``_number``, so a refused value is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import identities as idn
from .params import IrfParams, _c2pair, load_config, preset, PRESET_NAMES
from .special import ConvergenceError, InvalidParameterError, _as_int, _as_real, _rel
from .weights import SingularParameterError
from .samplers import _blocks, _check_rows, _check_sites, _irf_batch, exclusion_farm, simulate_exclusion, step_exclusion_state, trajectory_seed


def _load_params(args, default: str = "trig-admissible") -> IrfParams:
    """The pack of --config or --preset, else the preset ``default``."""
    return load_config(args.config) if args.config else preset(args.preset or default)


def _model(args):
    """(library model, pack or rates) of --model; the pack picks the lattice
    model, and one whose mode contradicts --model is refused, as is a pack
    given to an exclusion model."""
    if args.model in ("ssep", "asep"):
        if args.preset or args.config:
            raise InvalidParameterError(f"the exclusion model {args.model} takes no --preset or --config")
        return args.model, (args.lambda_bar,) if args.model == "ssep" else (args.q, args.alpha)
    rational = args.model == "rational"
    params = _load_params(args, "rational-positive" if rational else "dyn6v-positive")
    if (params.mode.kind == "rational") != rational:
        model, need = ("rational", "a rational-mode") if rational else ("irf", "a non-rational-mode")
        raise InvalidParameterError(f"model {model!r} needs {need} pack, got {params.mode.kind}")
    return "irf", params


def _number(read, what: str, *bounds, **kw):
    """An argparse type: ``read`` (``special._as_int`` or ``_as_real``) on the
    option's text as an int or a float, or as it is if it is not one, so the
    reader's message says what it needs; its error is a usage error (exit 2)."""

    def parse(text: str):
        try:
            value = int(text) if read is _as_int else float(text)
        except ValueError:
            value = text
        try:
            return read(value, what, *bounds, **kw)
        except InvalidParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _comma_list(convert, what: str):
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be comma-separated {what}, got {text}") from None

    return parse


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, reports, records=(), failed=()) -> int:
    """Write ``records``, then the CheckReports ``reports`` sorted by name, as
    one JSON list; name each of ``failed`` and each failed hard report on
    stderr, and return 1 if there is one."""
    reports = sorted(reports, key=lambda r: r.name)
    _write(args, json.dumps([*records, *(r.to_json_dict() for r in reports)], indent=1, sort_keys=True) + "\n")
    failed = [*failed, *(r.name for r in reports if not r.passed and not r.parameters.get("soft"))]
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    seed, pack = _as_int(args.seed, "verify's --seed", 0), _load_params(args)
    suites = [(salt, battery) for name, (salt, battery) in idn.SUITES.items() if args.suite in (name, "all")]
    return _emit(args, [r for salt, battery in suites for r in battery(np.random.default_rng(seed ^ salt), pack)])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    lines = []
    model, pack = _model(args)
    if model != "irf":
        record = args.dump == "events"
        lines.append("traj,t,x,s" if record else "traj,x,s")
        for i in range(args.trajectories):
            st = simulate_exclusion(step_exclusion_state(model, pack), args.t, trajectory_seed(args.seed, i), record=record)
            if record:
                lines += [f"{i},{t!r},{x},{s}" for (t, x, s) in st.events.tolist()]
            else:
                lines += [f"{i},{x},{st.value(x)}" for x in range(st.lo, st.hi + 1)]
    else:
        (X,), Y = _check_sites(pack, (args.cols,), "the column count X", 0), _check_rows(pack, args.rows)
        lines.append("traj,x,y,vout,hout")
        for lo, hi in _blocks(args.trajectories):
            batch = _irf_batch(pack, X, Y, args.seed, lo, hi)
            for i, vout, hout in zip(range(lo, hi), batch["vout"][:, 1:, 1:].tolist(), batch["hout"][:, 1:, 1:].tolist()):
                for x, (vs, hs) in enumerate(zip(vout, hout), 1):
                    lines += [f"{i},{x},{y},{v},{h}" for y, (v, h) in enumerate(zip(vs, hs), 1)]
    _write(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def _cmd_observables(args) -> int:
    from . import observables as obs

    xs, lattice = args.xs, args.model not in ("ssep", "asep")
    if lattice and (args.N is None or args.t is not None):
        raise InvalidParameterError(f"the lattice model {args.model} needs the row index --N and takes no --t")
    if not lattice and args.N is not None:
        raise InvalidParameterError(f"the exclusion model {args.model} takes the time --t, not --N")
    spec = obs.ObservableSpec(xs, args.N if lattice else 1.0 if args.t is None else args.t)
    methods = args.compare.split(",")
    for method in methods:
        if method not in ("exact", "mc", "enum"):
            raise InvalidParameterError(f"unknown method {method}")
        if method == "enum" and not lattice:
            raise InvalidParameterError("enum is only available for lattice models")
    if args.lambdas and not lattice:
        raise InvalidParameterError("--lambdas takes lattice corner fillings; it is only available for lattice models")
    records = []
    failures = []
    model, rates = _model(args)
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
    v0, se0 = values[base]
    for rec, method in zip(records, methods):
        v, se = values[method]
        rec["discrepancy_vs_" + base] = abs(v - v0)
        se = se or se0
        if method != base and (abs(v - v0) > 4 * se if se else _rel(v, v0) > 1e-6):
            failures.append(method)

    reports = [obs.lambda_independence_report(spec, args.lambdas, rates)] if args.lambdas else []
    return _emit(args, reports, records, failures)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def _cmd_asymptotics(args) -> int:
    from . import asymptotics as asy

    if args.check == "profile":
        lines = ["chi,profile,empirical"]
        L, tau, lb = args.L, args.tau, args.lambda_bar
        chis = args.chi
        xs = [int(round(c * L**0.25)) for c in chis]
        svals = exclusion_farm("ssep", (lb,), L * tau, args.samples, args.seed, xs)
        for j, chi in enumerate(chis):
            law = asy.RegimeIVLaw(chi=chi, tau=tau, lambda_bar=lb)
            emp = float(np.mean((svals[:, j] - xs[j]) / 2.0)) / L**0.25
            lines.append(f"{chi!r},{law.mean()!r},{emp!r}")  # the limit's mean; the profile itself is random in IV
        _write(args, "\n".join(lines) + "\n")
        return 0

    reports = []
    if args.check in ("heat", "all"):
        reports.append(asy.heat_check())
    if args.check in ("hydro", "all"):
        reports.append(asy.hydro_check(L=args.L, tau=args.tau))
    if args.check in ("regimes", "all"):
        reports.append(asy.regime_moment_check(1, args.L_big, args.tau, args.lambda_bar))
        reports.append(asy.regime_moment_check(2, args.L_big, args.tau, args.lambda_bar))
    if args.check in ("ks", "all"):
        reports.append(
            asy.regime_iv_ks_check(L=args.L_ks, tau=args.tau, lambda_bar=args.lambda_bar, n_traj=args.samples, seed=args.seed)
        )
    return _emit(args, reports)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dynirf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, params=True):
        # each subcommand takes only the options its handler reads
        p.add_argument("--seed", type=_number(_as_int, "--seed"), default=0)
        p.add_argument("--threads", type=_number(_as_int, "--threads"), default=1, help="scheduling hint; never affects results")
        p.add_argument("--out", help="output path (default stdout)")
        if params:
            p.add_argument("--preset", choices=PRESET_NAMES)
            p.add_argument("--config", help="JSON parameter file")

    rates = argparse.ArgumentParser(add_help=False)  # the exclusion rates, for simulate and observables
    rates.add_argument("--lambda-bar", dest="lambda_bar", type=_number(_as_real, "--lambda-bar"), default=2.0)
    rates.add_argument("--q", type=_number(_as_real, "--q"), default=0.5)
    rates.add_argument("--alpha", type=_number(_as_real, "--alpha"), default=2.0)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=(*idn.SUITES, "all"), default="identities")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", parents=[rates], help="sample trajectories and dump them as CSV")
    common(p)
    p.add_argument("--model", required=True, choices=("ssep", "asep", "irf", "dyn6v", "rational"))
    p.add_argument("--t", type=_number(_as_real, "the time horizon --t"), default=1.0)
    p.add_argument("--rows", type=_number(_as_int, "--rows", 1), default=5)
    p.add_argument("--cols", type=_number(_as_int, "--cols", 1), default=5)
    p.add_argument("--trajectories", type=_number(_as_int, "--trajectories", 1), default=1)
    p.add_argument("--dump", choices=("events", "snapshot"), default="events")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("observables", parents=[rates], help="compare exact / MC / enumeration averages")
    common(p)
    p.add_argument("--samples", type=_number(_as_int, "--samples"), default=1000)
    p.add_argument("--timings", action="store_true", help="embed wall-clock timings (breaks byte-identity)")
    p.add_argument("--model", required=True, choices=("dyn6v", "irf", "rational", "asep", "ssep"))
    p.add_argument("--xs", type=_comma_list(_number(_as_int, "a site of --xs"), "integers"), required=True, help="comma-separated nonincreasing sites")
    p.add_argument("--N", type=_number(_as_int, "--N"), help="row index, which the lattice models need")
    p.add_argument("--t", type=_number(_as_real, "the time horizon --t"), help="time of the exclusion models (default 1)")
    p.add_argument("--compare", default="exact")
    part = _number(_as_real, "a --lambdas part")
    re_im = _comma_list(lambda pair: complex(*map(part, pair.split(":", 1))), "re:im pairs")
    p.add_argument("--lambdas", type=re_im, help="lambda_0 values (re:im) for the independence report")
    p.set_defaults(func=_cmd_observables)

    p = sub.add_parser("asymptotics", help="hydrodynamic and long-time regime checks")
    common(p, params=False)
    p.add_argument("--samples", type=_number(_as_int, "--samples", 1), default=1000)
    p.add_argument("--check", choices=("heat", "hydro", "regimes", "ks", "profile", "all"), default="all")
    p.add_argument("--L", type=_number(_as_real, "--L", 0, above=True), default=400.0)
    p.add_argument("--L-big", dest="L_big", type=_number(_as_real, "--L-big", 0, above=True), default=1e4)
    p.add_argument("--L-ks", dest="L_ks", type=_number(_as_real, "--L-ks", 0, above=True), default=200.0)
    p.add_argument("--tau", type=_number(_as_real, "--tau", 0, above=True), default=1.0)
    p.add_argument("--lambda-bar", dest="lambda_bar", type=_number(_as_real, "--lambda-bar", 0, above=True), default=1.0)
    p.add_argument("--chi", type=_comma_list(_number(_as_real, "a --chi value"), "finite numbers"), default="-1.0,0.0,1.0")
    p.set_defaults(func=_cmd_asymptotics)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, ConvergenceError, SingularParameterError) as exc:
        print(f"dynirf: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidParameterError) else 1


if __name__ == "__main__":
    sys.exit(main())
