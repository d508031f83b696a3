"""The three workloads: their operations, references and checks.

A workload runs a fixed list of steps through dynirf's public entry points.
Each step returns one or more named operation outputs.  Every output carries
a ``kind`` that selects its check; the check compares the output with a
reference made apart from the timed steps (mpmath, a closed form, another
route of the program) or with a property the method must have.

Every input a step hands to dynirf is generated from the workload seed.  All
rounds of one run repeat the same inputs, except the seed of ``dynirf verify``,
which is drawn afresh for each round: the suite's cost depends on its seed
(the elliptic oracle draws), and a run's rounds then average over seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import numpy as np


def derive_seed(seed: int, label: str) -> int:
    """A 62-bit seed for one input stream, hashed from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 2


# ---------------------------------------------------------------------------
# checks: kind -> (check(out, ref) -> bool, perturb(out, ref) for the self-test)
# ---------------------------------------------------------------------------


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def _finite(*vals) -> bool:
    return all(math.isfinite(abs(complex(v))) for v in vals)


def _check_report(out, _ref):
    lhs, rhs = _z(out["lhs"]), _z(out["rhs"])
    if not _finite(lhs, rhs):
        return False
    if out["soft"]:
        return True
    residual = abs(lhs - rhs) / max(1.0, abs(rhs))
    return bool(out["passed"]) and residual <= out["tolerance"]


def _perturb_report(out, _ref):
    rhs = _z(out["rhs"])
    out["rhs"] = _c(rhs + 10 * out["tolerance"] * max(1.0, abs(rhs)) + 1e-300)


def _check_pointwise(out, r):
    return all(
        _finite(_z(v)) and abs(_z(v) - _z(w)) <= out["rtol"] * max(1.0, abs(_z(w)))
        for v, w in zip(out["values"], r["values"], strict=True)
    )


def _perturb_pointwise(_out, r):
    r["values"][0] = _c(_z(r["values"][0]) + 1e-8)


def _check_agree(out, r):
    """Every route agrees with the first one: the reference if there is one."""
    vals = [_z(v) for v in r.get("values", []) + out["values"]]
    base = vals[0]
    return _finite(*vals) and all(abs(v - base) <= out["rtol"] * max(1.0, abs(base)) for v in vals[1:])


def _shift_away(value: complex, anchor: complex, amount: float) -> complex:
    return value + amount if (value - anchor).real >= 0 else value - amount


def _perturb_agree(out, r):
    if r.get("values"):
        base = _z(r["values"][0])
        r["values"][0] = _c(_shift_away(base, _z(out["values"][0]), 10 * out["rtol"] * max(1.0, abs(base))))
    else:
        base = _z(out["values"][0])
        out["values"][-1] = _c(_shift_away(_z(out["values"][-1]), base, 10 * out["rtol"] * max(1.0, abs(base))))


def _check_mc(out, r):
    return _finite(_z(out["mean"]), r["exact"][0]) and abs(_z(out["mean"]) - _z(r["exact"])) <= 4 * out["se"]


def _perturb_mc(out, r):
    r["exact"] = _c(_shift_away(_z(r["exact"]), _z(out["mean"]), 5 * out["se"]))


def _check_f2(out, r):
    """Routes agree, and (E h)^2 - E h <= E[h(h-1)] <= (E h)^2.

    The height of the SSEP from the step state is a sum of negatively
    correlated indicators, so 0 <= Var h <= E h.
    """
    mean_h = r["mean_h"]
    f2 = _z(out["values"][0]).real
    slack = 1e-9 * mean_h * mean_h
    return _check_agree(out, r) and mean_h * mean_h - mean_h - slack <= f2 <= mean_h * mean_h + slack


def _perturb_f2(out, r):
    r["mean_h"] = 0.999 * math.sqrt(_z(out["values"][0]).real)


def _check_hydro(out, r):
    """The reported worst pair is one of the independently computed pairs,
    and every scaled mean height is within the tolerance of H(chi, tau)."""
    lhs, rhs = _z(out["lhs"]), _z(out["rhs"])
    pairs = list(zip(r["scaled"], r["profile"]))
    matched = any(abs(lhs - s) <= 1e-9 * abs(s) and abs(rhs - h) <= 1e-12 * abs(h) for s, h in pairs)
    return matched and all(abs(s - h) <= out["rtol"] * abs(h) for s, h in pairs)


def _perturb_hydro(_out, r):
    r["profile"] = [h * 1.05 for h in r["profile"]]


def _check_ortho(out, _ref):
    integral, c_mu = _z(out["integral"]), _z(out["c_mu"])
    if not _finite(integral, c_mu):
        return False
    if out["diagonal"]:
        return abs(integral - c_mu) <= out["rtol"] * max(1.0, abs(c_mu))
    return abs(integral) <= out["rtol"] * abs(c_mu)


def _perturb_ortho(out, _ref):
    c_mu = _z(out["c_mu"])
    out["integral"] = _c(_z(out["integral"]) + 10 * out["rtol"] * max(1.0, abs(c_mu)))


def _check_ks(out, _ref):
    return bool(out["soft"]) and 1.0 / (2 * out["n"]) <= out["ks"] <= 1.0


def _perturb_ks(out, _ref):
    out["ks"] = 1.5


def _replay_ok(events, T: float, final: int, x_obs: int) -> bool:
    """Replays one event log from the step state s_x = |x|."""
    s: dict = {}
    t_prev = 0.0
    for t, x, s_new in events:
        if not (t_prev < t <= T):
            return False
        old = s.get(x, abs(x))
        if abs(s_new - old) != 2:
            return False
        s[x] = s_new
        left, right = s.get(x - 1, abs(x - 1)), s.get(x + 1, abs(x + 1))
        if abs(s_new - left) != 1 or abs(right - s_new) != 1 or s_new < abs(x):
            return False
        t_prev = t
    return s.get(x_obs, abs(x_obs)) == final


def _check_trajectories(out, r):
    if not all(
        _replay_ok(ev, out["T"], fin, out["x"]) for ev, fin in zip(out["events"], out["final"], strict=True)
    ):
        return False
    exact, besseli = _z(r["exact"]).real, r["besseli"]
    if abs(exact - besseli) > 1e-10 * max(1.0, abs(besseli)):
        return False
    return abs(out["mean"] - exact) <= 4 * out["se"]


def _perturb_trajectories(out, r):
    r["exact"] = _c(_shift_away(_z(r["exact"]), complex(out["mean"]), 5 * out["se"]))


CHECKS = {
    "report": (_check_report, _perturb_report),
    "pointwise": (_check_pointwise, _perturb_pointwise),
    "agree": (_check_agree, _perturb_agree),
    "mc": (_check_mc, _perturb_mc),
    "f2": (_check_f2, _perturb_f2),
    "hydro": (_check_hydro, _perturb_hydro),
    "ortho": (_check_ortho, _perturb_ortho),
    "ks": (_check_ks, _perturb_ks),
    "trajectories": (_check_trajectories, _perturb_trajectories),
}


def check(out: dict, r: dict) -> bool:
    return CHECKS[out["kind"]][0](out, r)


def perturb(out: dict, r: dict) -> None:
    CHECKS[out["kind"]][1](out, r)


def tally(refs: dict, outputs: dict, errors: list) -> dict:
    """Counts one round: each referenced output is one operation, and each
    step that raised is one failed operation.  A missing output or a failed
    check fails its operation; a failed check also marks it incorrect."""
    attempted, failed, incorrect, failures = len(refs) + len(errors), len(errors), 0, list(errors)
    for name, r in refs.items():
        out = outputs.get(name)
        if out is None:
            failed += 1
            failures.append(f"{name}: missing")
        elif not check(out, r):
            failed += 1
            incorrect += 1
            failures.append(f"{name}: check failed")
    return {"attempted": attempted, "failed": failed, "incorrect": incorrect, "failures": failures}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """A fixed list of steps with the modules and presets it needs."""

    name = ""
    modules: tuple = ()
    presets: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from dynirf.params import preset

        self.packs = {name: preset(name) for name in self.presets}

    def steps(self) -> list:
        """[(step name, callable returning {op name: output})]."""
        raise NotImplementedError

    def references(self, outputs: dict) -> dict:
        """{op name: reference}; computed outside the timed region."""
        return {name: {} for name in outputs}


THETA_TAUS = (1.4j, 1.5j, 6j)  # the nomes the verify suites use


class Verify(Workload):
    """``dynirf verify --suite all`` in process, plus theta against mpmath."""

    name = "verify"
    modules = ("dynirf", "dynirf.cli")
    presets = ("trig-admissible", "trig-admissible-wide")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rounds = 0
        rng = np.random.default_rng(derive_seed(seed, "verify.theta"))
        self.theta_points = [
            complex(a, b) for a, b in zip(rng.uniform(-1.5, 1.5, 48), rng.uniform(-0.6, 0.6, 48))
        ]

    def _cli(self) -> dict:
        from dynirf import cli

        cli_seed = derive_seed(self.seed, f"verify.cli.{self.rounds}") % (1 << 31)
        self.rounds += 1
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["verify", "--suite", "all", "--seed", str(cli_seed)])
        out = {}
        for rep in json.loads(buf.getvalue()):
            out[f"report:{rep['name']}"] = {
                "kind": "report",
                "lhs": rep["lhs"],
                "rhs": rep["rhs"],
                "tolerance": rep["tolerance"],
                "passed": rep["passed"],
                "soft": bool((rep.get("parameters") or {}).get("soft")),
            }
        return out

    def _theta(self) -> dict:
        from dynirf.special import theta

        return {
            f"theta:tau={tau.imag}i": {
                "kind": "pointwise",
                "values": [_c(theta(z, tau)) for z in self.theta_points],
                "rtol": 1e-12,
            }
            for tau in THETA_TAUS
        }

    def steps(self):
        return [("cli.verify", self._cli), ("special.theta", self._theta)]

    def references(self, outputs):
        import references as ref

        refs = super().references(outputs)
        for tau in THETA_TAUS:
            refs[f"theta:tau={tau.imag}i"] = {"values": [_c(ref.jtheta1(z, tau)) for z in self.theta_points]}
        return refs


class Exact(Workload):
    """Exact averages by routes that check each other."""

    name = "exact"
    modules = ("dynirf", "dynirf.observables", "dynirf.asymptotics", "dynirf.identities")
    presets = ("dyn6v-positive", "trig-admissible", "trig-admissible-wide")

    C8 = ((5, 3, 2), 5)
    LARGE = ((9, 6, 3), 9)
    ORTHO = (
        ((1,), (1,), "trig-admissible"),
        ((2,), (1,), "trig-admissible"),
        ((2, 1), (2, 1), "trig-admissible-wide"),
        ((2, 1, 1), (2, 1, 1), "trig-admissible-wide"),
        ((3, 1, 1), (2, 1, 1), "trig-admissible-wide"),
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(derive_seed(seed, "exact.lambdas"))
        self.lambdas = [complex(a, b) for a, b in zip(rng.uniform(-0.45, 0.45, 2), rng.uniform(-0.1, 0.35, 2))]

    def _criterion8(self):
        from dynirf.observables import ObservableSpec, enum_E, exact_E, hs6v_q_moment

        P = self.packs["dyn6v-positive"]
        spec = ObservableSpec(*self.C8)
        quad = exact_E("irf", spec, P)  # asserts the residue sum internally
        enum = enum_E(spec, P)
        lams = [P.lambda0] + self.lambdas
        at_lams = [enum_E(spec, P, lam=lam) for lam in lams]
        limit = enum_E(spec, P, lam=-5j)
        q_moment = hs6v_q_moment(spec, P)
        return {
            "c8:quadrature-vs-enumeration": {"kind": "agree", "values": [_c(enum), _c(quad)], "rtol": 1e-6},
            "c8:lambda-independence": {"kind": "agree", "values": [_c(v) for v in at_lams], "rtol": 1e-9},
            "c8:lambda-limit-vs-q-moment": {"kind": "agree", "values": [_c(q_moment), _c(limit)], "rtol": 1e-6},
        }

    def _large(self):
        from dynirf.observables import ObservableSpec, enum_E, exact_E

        P = self.packs["dyn6v-positive"]
        spec = ObservableSpec(*self.LARGE)
        enum = enum_E(spec, P)
        quad = exact_E("irf", spec, P)
        return {"large:quadrature-vs-enumeration": {"kind": "agree", "values": [_c(enum), _c(quad)], "rtol": 1e-6}}

    def _one_point(self):
        from dynirf.observables import ObservableSpec, exact_E

        asep = exact_E("asep", ObservableSpec((2,), 1.0), (0.5, 2.0))
        ssep = exact_E("ssep", ObservableSpec((1,), 1.0), (2.0,))
        return {
            "one-point:asep": {"kind": "agree", "values": [_c(asep)], "rtol": 1e-8},
            "one-point:ssep": {"kind": "agree", "values": [_c(ssep)], "rtol": 1e-8},
        }

    def _falling_moments(self):
        from dynirf.observables import _ssep_f2_large_t, ssep_falling_moment

        t5 = ssep_falling_moment(0, 5.0, 2)
        duality = ssep_falling_moment(0, 300.0, 2)
        saddle = _ssep_f2_large_t(0, 300.0)
        t1e4 = ssep_falling_moment(0, 1e4, 2)
        return {
            "f2:t=5": {"kind": "f2", "values": [_c(t5)], "rtol": 1e-6},
            "f2:t=300": {"kind": "f2", "values": [_c(duality), _c(saddle)], "rtol": 2e-4},
            "f2:t=1e4": {"kind": "f2", "values": [_c(t1e4)], "rtol": 0.0},
        }

    def _asymptotics(self):
        from dynirf.asymptotics import hydro_check, regime_moment_check

        out = {}
        for n, rtol in ((1, 0.05), (2, 0.08)):
            rep = regime_moment_check(n, 1e4, 1.0, 1.0)
            out[f"regime-iv:n={n}"] = {"kind": "agree", "values": [_c(rep.lhs)], "rtol": rtol}
        hy = hydro_check(L=400.0, tau=1.0)
        out["hydrodynamics:L=400"] = {"kind": "hydro", "lhs": _c(hy.lhs), "rhs": _c(hy.rhs), "rtol": 0.02}
        return out

    def _orthogonality(self):
        from dynirf.identities import check_orthogonality

        out = {}
        for mu, nu, pack in self.ORTHO:
            rep = check_orthogonality(mu, nu, self.packs[pack])
            out[f"orthogonality:{mu}-{nu}"] = {
                "kind": "ortho",
                "integral": _c(rep.lhs),
                "c_mu": rep.parameters["c_mu"],
                "diagonal": mu == nu,
                "rtol": 1e-6,
            }
        return out

    def steps(self):
        return [
            ("criterion8", self._criterion8),
            ("large-enumeration", self._large),
            ("one-point", self._one_point),
            ("falling-moments", self._falling_moments),
            ("asymptotics", self._asymptotics),
            ("orthogonality", self._orthogonality),
        ]

    def references(self, outputs):
        import references as ref
        from dynirf.observables import ssep_f2_duality

        refs = super().references(outputs)
        refs["one-point:asep"] = {"values": [_c(ref.asep_one_point(2, 1.0, 0.5))]}
        refs["one-point:ssep"] = {"values": [_c(-ref.ssep_mean_height_miller(1, 1.0))]}
        for name, t in (("f2:t=5", 5.0), ("f2:t=300", 300.0), ("f2:t=1e4", 1e4)):
            refs[name] = {"mean_h": ref.ssep_mean_height_miller(0, t)}
        refs["f2:t=5"]["values"] = [_c(ssep_f2_duality(0, 5.0, dt=0.05))]
        for n in (1, 2):
            refs[f"regime-iv:n={n}"] = {"values": [_c(ref.regime_iv_moment(n, 1e4, 1.0, 1.0))]}
        chis = (-1.0, 0.0, 1.0)
        refs["hydrodynamics:L=400"] = {
            "scaled": [ref.ssep_mean_height_miller(round(c * 20), 400.0) / 20 for c in chis],
            "profile": [ref.hydro_profile(c, 1.0) for c in chis],
        }
        return refs


class Stochastic(Workload):
    """Monte Carlo runs, each checked against an exact value."""

    name = "stochastic"
    modules = ("dynirf", "dynirf.observables", "dynirf.asymptotics", "dynirf.samplers")
    presets = ("dyn6v-positive",)

    SAMPLES = 100_000
    EVENT_TRAJECTORIES = 400
    EVENT_T = 20.0  # beyond the direct n=1 quadrature's range (t <= ~16)
    EVENT_LAMBDA_BAR = 2.0

    def __init__(self, seed: int):
        super().__init__(seed)
        base = self._seed("events")
        self.event_seeds = [derive_seed(base, str(i)) for i in range(self.EVENT_TRAJECTORIES)]

    def _seed(self, label: str) -> int:
        return derive_seed(self.seed, f"stochastic.{label}")

    def _mc_runs(self) -> dict:
        from dynirf.observables import ObservableSpec

        return {
            "mc:irf": ("irf", ObservableSpec((3, 2), 4), self.packs["dyn6v-positive"]),
            "mc:ssep": ("ssep", ObservableSpec((1, 0), 1.0), (2.0,)),
            "mc:asep": ("asep", ObservableSpec((2,), 1.0), (0.5, 2.0)),
        }

    def _mc(self):
        from dynirf.observables import mc_E

        out = {}
        for name, (model, spec, pack) in self._mc_runs().items():
            mean, se = mc_E(model, spec, pack, self.SAMPLES, self._seed(name))
            out[name] = {"kind": "mc", "mean": _c(mean), "se": se}
        return out

    def _ks(self):
        from dynirf.asymptotics import regime_iv_ks_check

        rep = regime_iv_ks_check(L=200.0, tau=1.0, lambda_bar=1.0, n_traj=200, seed=self._seed("ks"))
        return {
            "ks:regime-iv": {
                "kind": "ks",
                "ks": complex(rep.lhs).real,
                "soft": bool(rep.parameters.get("soft")),
                "n": rep.parameters["n_traj"],
            }
        }

    def _events(self):
        from dynirf.samplers import simulate_exclusion, step_exclusion_state

        x, lb, T = 0, self.EVENT_LAMBDA_BAR, self.EVENT_T
        events, final = [], []
        for seed in self.event_seeds:
            st = simulate_exclusion(step_exclusion_state("ssep", (lb,)), T, seed=seed, record=True)
            events.append(st.events)
            final.append(st.value(x))
        # n = 1 observable -h (h + x + lambda_bar) / lambda_bar, h = (s_x - x) / 2
        h = (np.array(final, dtype=float) - x) / 2
        vals = -h * (h + x + lb) / lb
        return {
            "events:ssep": {
                "kind": "trajectories",
                "T": T,
                "x": x,
                "events": events,
                "final": final,
                "mean": float(vals.mean()),
                "se": float(vals.std(ddof=1) / math.sqrt(vals.size)),
            }
        }

    def steps(self):
        return [("monte-carlo", self._mc), ("regime-iv-ks", self._ks), ("event-log", self._events)]

    def references(self, outputs):
        import references as ref
        from dynirf.observables import exact_E, ssep_mean_height

        refs = super().references(outputs)
        for name, (model, spec, pack) in self._mc_runs().items():
            refs[name] = {"exact": _c(exact_E(model, spec, pack))}
        refs["events:ssep"] = {
            "exact": _c(-ssep_mean_height(0, self.EVENT_T)),
            "besseli": -ref.ssep_mean_height_besseli(0, self.EVENT_T),
        }
        return refs


WORKLOADS = {w.name: w for w in (Verify, Exact, Stochastic)}
