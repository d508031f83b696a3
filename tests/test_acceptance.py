"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 1, 2, 4 and 5 call the random-draw batteries of
``dynirf.identities`` that ``dynirf verify`` runs, on their own streams
(default_rng(1001), 1002, 1004, 1005) and, for criterion 1, their own mode
order; the other checks are reachable through the CLI's verify /
observables / asymptotics commands.
"""

import subprocess
import sys

import numpy as np
import pytest

from dynirf.identities import (
    check_cauchy_rho,
    check_D_integral,
    check_D_rho_integral,
    check_nested_sum_lemma,
    check_oracle_formulas,
    check_orthogonality,
    check_cauchy,
    check_pieri,
    check_pieri2,
    check_sine_identity,
    check_skew_cauchy,
    check_stochastic_weights,
    check_stochasticity,
    check_symmetrization_lemma,
)
from dynirf.params import pq_grid, preset
from dynirf.special import FunctionMode
from dynirf.observables import (
    ObservableSpec,
    enum_E,
    exact_E,
    hs6v_q_moment,
    lambda_independence_report,
    mc_E,
)
from dynirf.asymptotics import (
    heat_equation_residual,
    hydro_check,
    regime_iv_ks_check,
    regime_moment_check,
)

pytestmark = pytest.mark.acceptance

TRIG = FunctionMode.trigonometric()
RAT = FunctionMode.rational()
ELL = FunctionMode.elliptic(6j)


def report(num, name, worst, tol, extra=""):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status}  {name}  (worst {worst:.3e} vs tol {tol:.1e}){extra}")
    assert worst <= tol, f"criterion {num} ({name}): {worst} > {tol}"


def test_criterion_1_stochasticity():
    rng = np.random.default_rng(1001)
    worst = max(check_stochasticity(rng, mode).residual for mode in (ELL, TRIG, RAT))
    report(1, "stochastic sum rules, 1000 draws x 3 modes", worst, 1e-10)


def test_criterion_2_sine_identity():
    worst = check_sine_identity(np.random.default_rng(1002)).residual
    report(2, "three-term sine identity, 1000 draws", worst, 1e-10)


def test_criterion_3_symmetrization():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for mode in (TRIG, FunctionMode.elliptic(1.5j)):
        for m in range(1, 7):
            vs = [complex(a, b) for a, b in 0.4 * rng.standard_normal((m, 2))]
            beta = complex(0.2 + 0.1 * rng.standard_normal(), 0.1)
            rep = check_symmetrization_lemma(m, vs, beta, mode)
            worst = max(worst, rep.residual)
    report(3, "symmetrization lemma m <= 6, trig + elliptic", worst, 1e-10)


def test_criterion_4_oracle_equivalence():
    worst = max(r.residual for r in check_oracle_formulas(np.random.default_rng(1004)))
    report(4, "closed formulas vs operator oracle (B, D, c-string)", worst, 1e-8)


def test_criterion_5_stochastic_weights_theorem():
    two_routes, *sums = check_stochastic_weights(np.random.default_rng(1005))
    worst_sum = max(r.residual for r in sums)
    tails_ok = all(r.truncation_info["converged"] for r in sums)
    extra = "" if tails_ok else "  [tail monitor not converged]"
    report(5, "stochastic-weight theorem: DP = conjugation formula", two_routes.residual, 1e-8)
    report(5, "stochastic sum-to-one with monitored tail", worst_sum, 1e-6, extra)
    assert tails_ok


def test_criterion_6_cauchy_family():
    rng = np.random.default_rng(1006)
    P = preset("trig-admissible")
    grid = pq_grid(P)
    p0 = complex(np.mean(np.array(grid.p)))
    q0 = complex(np.mean(np.array(grid.q)))

    def near_p(k):
        return [p0 + complex(0.002 * rng.standard_normal(), 0.0015 * rng.standard_normal()) for _ in range(k)]

    def near_q(k):
        return [q0 + 0.03 + 0.01j + complex(0.004 * rng.standard_normal(), 0.004 * rng.standard_normal()) for _ in range(k)]

    reps = [
        check_skew_cauchy((1,), (), near_p(1), near_q(1), P),
        check_skew_cauchy((2, 1), (1,), near_p(1), near_q(1), P),
        check_skew_cauchy((2, 1), (), near_p(2), near_q(2), P),
        check_pieri2((2,), near_p(1)[0], near_q(2), P),
        check_pieri((2, 1), near_p(2), near_q(1)[0], P),
        check_cauchy(near_p(2), near_q(2), P),
        check_cauchy_rho(1, near_p(1), P),
        check_cauchy_rho(2, near_p(2), P),
    ]
    worst = max(r.residual for r in reps)
    report(6, "skew-Cauchy / Pieri / Cauchy / rho-Cauchy series", worst, 1e-7)


def test_criterion_7_orthogonality_and_integrals():
    rng = np.random.default_rng(1007)
    trig = preset("trig-admissible")
    wide = preset("trig-admissible-wide")
    gw = pq_grid(wide)
    qw = complex(np.mean(np.array(gw.q)))
    vs = [qw + 0.05 + 0.02j + complex(0.005 * rng.standard_normal(), 0.005 * rng.standard_normal()) for _ in range(2)]
    diag = [
        check_orthogonality((1,), (1,), trig),
        check_orthogonality((2, 1), (2, 1), wide),
        check_orthogonality((2, 1, 1), (2, 1, 1), wide),
    ]
    worst_diag = max(r.residual for r in diag)
    off = [
        check_orthogonality((2,), (1,), trig),
        check_orthogonality((3, 1, 1), (2, 1, 1), wide),
    ]
    worst_off = 0.0
    for r in off:
        c_norm = abs(complex(*r.parameters["c_mu"]))
        worst_off = max(worst_off, abs(r.lhs) / max(c_norm, 1e-30))
    ints = [
        check_D_integral((1,), 1, [complex(np.mean(np.array(pq_grid(trig).q))) + 0.03 + 0.01j], trig),
        check_D_integral((2, 1), 2, vs, wide),
        check_D_rho_integral((1,), trig),
        check_D_rho_integral((2, 0), trig),
        check_D_rho_integral((2, 1), wide),
    ]
    worst_int = max(r.residual for r in ints)
    report(7, "orthogonality diagonal, M <= 3", worst_diag, 1e-6)
    report(7, "orthogonality off-diagonal (relative to c_mu)", worst_off, 1e-6)
    report(7, "D-integral and rho-specialization quadrature", worst_int, 1e-6)


def test_criterion_8_lambda_independence():
    P = preset("dyn6v-positive")
    spec = ObservableSpec((5, 3, 2), 5)
    lams = [P.lambda0, 0.2 + 0.3j, -0.4 + 0.1j]
    rep = lambda_independence_report(spec, lams, P)
    report(8, "lambda-independence of enumeration averages (n=3, N=5)", rep.residual, 1e-9)
    integral = exact_E("irf", spec, P)
    enum_val = enum_E(spec, P)
    rel = abs(integral - enum_val) / max(1.0, abs(enum_val))
    report(8, "enumeration vs contour integral", rel, 1e-6)
    at_limit = enum_E(spec, P, lam=-5j)
    qm = hs6v_q_moment(spec, P)
    rel2 = abs(at_limit - qm) / max(1.0, abs(qm))
    report(8, "lambda -> -5i vs six-vertex q-moment", rel2, 1e-6)


def test_criterion_9_monte_carlo():
    P = preset("dyn6v-positive")
    spec = ObservableSpec((3, 2), 4)
    exact = exact_E("irf", spec, P)
    mean, se = mc_E("irf", spec, P, 100_000, seed=90)
    z6v = abs(mean - exact) / se
    spec_s = ObservableSpec((1, 0), 1.0)
    exact_s = exact_E("ssep", spec_s, (2.0,))
    mean_s, se_s = mc_E("ssep", spec_s, (2.0,), 100_000, seed=91)
    zs = abs(mean_s - exact_s) / se_s
    rng = np.random.default_rng(1009)
    nested = [
        check_nested_sum_lemma(1, (5,), rng.standard_normal((1, 8))),
        check_nested_sum_lemma(3, (2, 3, 5), rng.standard_normal((3, 8))),
        check_nested_sum_lemma(3, (1, 1, 5), rng.standard_normal((3, 8))),
    ]
    worst_nested = max(r.residual for r in nested)
    report(9, "dynamic six-vertex MC vs exact (z-score vs 4)", z6v, 4.0)
    report(9, "dynamic SSEP MC vs exact (z-score vs 4)", zs, 4.0)
    report(9, "nested-sum lemma brute force", worst_nested, 1e-12)


def test_criterion_10_asymptotics():
    hy = hydro_check(L=400.0, tau=1.0)
    report(10, "SSEP hydrodynamics at L=400", hy.residual, 0.02)
    r1 = regime_moment_check(1, 1e4, 1.0, 1.0)
    report(10, "regime-IV moment ratio n=1 at L=1e4", r1.residual, 0.05)
    r2 = regime_moment_check(2, 1e4, 1.0, 1.0)
    report(10, "regime-IV moment ratio n=2 at L=1e4", r2.residual, 0.08)
    worst_heat = max(
        heat_equation_residual(chi, tau) for chi in (-1.5, -0.3, 0.0, 0.8) for tau in (0.5, 1.0, 2.0)
    )
    report(10, "heat-equation residual of the limit profile", worst_heat, 1e-5)
    soft = regime_iv_ks_check(L=200.0, n_traj=200, seed=10)
    print(
        f"ACCEPTANCE 10: SOFT  regime-IV KS distance at reduced scale "
        f"L=200 (criterion quotes L=4e4): {soft.lhs.real:.3f} (reported, not gated)"
    )


def test_criterion_11_determinism():
    cli = [sys.executable, "-m", "dynirf.cli"]

    def run(*args):
        return subprocess.run(cli + list(args), capture_output=True, text=True).stdout

    a = run("verify", "--suite", "weights", "--seed", "5")
    b = run("verify", "--suite", "weights", "--seed", "5")
    sim = ["simulate", "--model", "ssep", "--lambda-bar", "2", "--t", "1", "--trajectories", "40", "--seed", "7"]
    c = run(*sim, "--threads", "1")
    d = run(*sim, "--threads", "8")
    obs_args = ["observables", "--model", "dyn6v", "--xs", "2,1", "--N", "2", "--compare", "mc", "--samples", "2000", "--seed", "9"]
    e = run(*obs_args)
    f = run(*obs_args)
    identical = (a == b) and (c == d) and (e == f) and len(a) > 0 and len(c) > 0
    report(11, "byte-identical reruns across seeds and thread counts", 0.0 if identical else 1.0, 0.5)
