"""Executable verification of the named identities; every check returns a CheckReport.

Tolerances are stratified by error source: closed-form against closed-form
comparisons run at 1e-10, truncated series at 1e-7, and quadrature-based
checks at 1e-6.  A passing check whose monitored truncation tail exceeds a
tenth of its tolerance is downgraded to "passed-with-warning".

Every truncated kappa-sum (skew-Cauchy, Pieri, Cauchy, rho-Cauchy) runs
through :func:`_capped_sum`, whose tail is the mass on kappa_1 = cap.  A
lattice factor with a fixed bottom (B_{kappa/nu} in skew-Cauchy and pieri2,
D_{nu/rho} in skew-Cauchy, the lattice rho-Cauchy B_kappa) is read off one
``symfunc._strip`` law of that bottom, not one lattice call per kappa.  The
skew-Cauchy, Pieri and Cauchy right-hand sides take their Cauchy-kernel
product from :func:`_cauchy_kernel`.  The contour checks (orthogonality,
the D and D-rho integrals) take their nested circles from
:func:`_strong_family`; the two D integrals share :func:`_kernel_integral`.

The random-draw batteries (``check_stochasticity`` to
``check_stochastic_weights``) draw a fixed number of times from the caller's
numpy Generator; a report names its worst draw and that draw's inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .oracle import c_matrix_element, skew_B_oracle, skew_D_oracle
from .params import AdmissibilityDiagnostic, IrfParams, check_admissible, params_to_json_dict, pq_grid, preset, random_pack, _c2pair as _c
from .special import (
    Circle,
    FunctionMode,
    InvalidParameterError,
    contour_integral_factored,
)
from .symfunc import (
    B_mu,
    _bmu_prefactor,
    _pair_table,
    _perm_sum,
    _strip,
    c_matrix_formula,
    phi,
    D_nu,
    D_rho,
    Signature,
    c_mu,
    normalize,
    psi,
    signatures_in_box,
    skew_B_lattice,
    skew_D_lattice,
    stoch_B_formula,
    stoch_B_sum,
)
from .weights import SingularParameterError, WeightContext, hat_ratio, weight

__all__ = [
    "CheckReport",
    "TOL_CLOSED",
    "TOL_SERIES",
    "TOL_QUAD",
    "check_symmetrization_lemma",
    "check_skew_cauchy",
    "check_pieri",
    "check_cauchy_rho",
    "check_orthogonality",
    "check_D_integral",
    "check_D_rho_integral",
    "check_stoch_sum",
    "check_nested_sum_lemma",
    "check_stochasticity",
    "check_sine_identity",
    "check_hat_ratios",
    "check_oracle_formulas",
    "check_stochastic_weights",
    "run_identity_suite",
]

TOL_CLOSED = 1e-10
TOL_SERIES = 1e-7
TOL_QUAD = 1e-6


@dataclass
class CheckReport:
    """Structured residual record for one identity check."""

    name: str
    parameters: dict
    lhs: complex
    rhs: complex
    tolerance: float
    truncation_info: dict | None = None
    residual: float = field(init=False)
    passed: bool = field(init=False)
    status: str = field(init=False)

    def __post_init__(self):
        self.lhs = complex(self.lhs)
        self.rhs = complex(self.rhs)
        self.residual = abs(self.lhs - self.rhs) / max(1.0, abs(self.rhs))
        self.passed = self.residual <= self.tolerance
        if not self.passed:
            self.status = "failed"
        elif (
            self.truncation_info is not None
            and self.truncation_info.get("tail_estimate", 0.0) > self.tolerance / 10.0
        ):
            self.status = "passed-with-warning"
        else:
            self.status = "passed"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "lhs": _c(self.lhs),
            "rhs": _c(self.rhs),
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "status": self.status,
            "truncation_info": self.truncation_info,
        }


def check_symmetrization_lemma(m: int, vs: Sequence[complex], beta: complex, mode: FunctionMode, tolerance: float = TOL_CLOSED) -> CheckReport:
    """Permutation sum against f(beta)f(2beta)...f(m beta)/f(beta)^m.

    The terms divide by f(v_i - v_j), f(v_k) and f(beta): a zero among them
    raises SingularParameterError before the sum.  truncation_info carries
    the sum's conditioning sum|term| / |sum term|, the factor by which close
    v's amplify rounding in the lhs; both sums come from one
    ``symfunc._perm_sum``.
    """
    if not 1 <= m <= 7:
        raise InvalidParameterError("symmetrization check supports 1 <= m <= 7")
    if len(vs) != m:
        raise InvalidParameterError("need exactly m points")
    f = mode.f
    poles = [vs[a] - vs[b] for a in range(m) for b in range(a + 1, m)] + list(vs) + [beta]
    if min(abs(f(x)) for x in poles) <= 1e-12:
        raise SingularParameterError("symmetrization check needs distinct v's and f(v_k), f(beta) away from 0")
    U = [[f(v + (m - 2 * k - 1) * beta) / f(v) for v in vs] for k in range(m)]
    total, size = _perm_sum(U, _pair_table(vs, lambda d: f(d - beta) / f(d)))
    rhs = 1.0 + 0.0j
    for j in range(1, m + 1):
        rhs *= f(j * beta)
    rhs /= f(beta) ** m
    return CheckReport(
        name=f"symmetrization-m{m}-{mode.kind}",
        parameters={"m": m, "beta": _c(beta), "vs": [_c(v) for v in vs]},
        lhs=total,
        rhs=rhs,
        tolerance=tolerance,
        truncation_info={"conditioning": size / abs(total) if total else math.inf},
    )


def _capped_sum(kappas, first, second, cap: int):
    """Sum of first(kappa) * second(kappa) over kappas, and its tail.

    A kappa whose first factor is 0 is skipped before its second factor is
    evaluated.  The tail sums |term| over kappa_1 = cap, the last layer a
    sum truncated at kappa_1 <= cap keeps.
    """
    total, tail = 0.0 + 0.0j, 0.0
    for kappa in kappas:
        a = first(kappa)
        if a == 0:
            continue
        term = a * second(kappa)
        total += term
        if kappa.max_part() == cap:
            tail += abs(term)
    return total, tail


def _cauchy_kernel(us, vs, params: IrfParams) -> complex:
    """The Cauchy-kernel product prod_{u in us, v in vs} f(v - u - 2*eta) / f(v - u)."""
    f, eta = params.f, params.eta
    return math.prod(f(v - u - 2 * eta) / f(v - u) for u in us for v in vs)


def _convergence_monitor(u: complex, v: complex, lam: complex, n: int, params: IrfParams, depth: int) -> float:
    """|product| in the skew-Cauchy convergence condition at a given depth."""
    f, eta = params.f, params.eta
    out = f(u - v + lam - 2 * eta * (params.lam_sum(0, depth + 1) - 2 * n)) / f(
        lam - 2 * eta * (params.lam_sum(0, depth + 1) - 2 * n)
    )
    for i in range(depth + 1):
        z_i, L_i = params.columns[i]
        out *= f(z_i - u + (-L_i + 1) * eta) / f(z_i - u + (L_i + 1) * eta)
        out *= f(z_i - v + (L_i + 1) * eta) / f(z_i - v + (-L_i + 1) * eta)
    return abs(out)


def check_skew_cauchy(mu, nu, us, vs, params: IrfParams, cap: int = 12, lam: complex | None = None, tolerance: float = TOL_SERIES) -> CheckReport:
    """Skew-Cauchy identity with k = len(us), l = len(vs), kappa-sum truncated at kappa_1 <= cap.

    At k = l = 1 the report also carries the convergence-condition product
    at two depths.
    """
    mu, nu = Signature(tuple(mu)), Signature(tuple(nu))
    k, l = len(us), len(vs)
    if not k or not l or mu.length != nu.length + k:
        raise InvalidParameterError("need len(mu) = len(nu) + len(us) and at least one u and one v")
    if cap < mu.max_part():
        raise InvalidParameterError(f"cap {cap} is below mu_1 = {mu.max_part()}: the kappa-box would be empty")
    lam = params.lambda0 if lam is None else lam
    eta = params.eta
    b_law = _strip(nu, lam + 2 * eta * l, us, params, "B", cap=cap)
    lhs, tail = _capped_sum(
        signatures_in_box(mu.parts, (cap,) * mu.length),
        lambda kappa: skew_D_lattice(kappa, mu, lam, vs, params),
        lambda kappa: b_law.get(kappa, 0.0 + 0.0j),
        cap,
    )
    # rho runs over the whole D law of nu: every rho that nu lowers to
    d_law = _strip(nu, lam + 2 * eta * k, vs, params, "D")
    rhs, _ = _capped_sum(d_law, lambda rho: skew_B_lattice(mu, rho, lam, us, params), d_law.get, mu.max_part())
    rhs *= _cauchy_kernel(us, vs, params)
    info = {"cap": cap, "tail_estimate": tail}
    if k == l == 1:
        depth = (params.n_cols - 1) // 2
        info["convergence_product"] = [_convergence_monitor(us[0], vs[0], lam, mu.length, params, d) for d in (depth, 2 * depth)]
    return CheckReport(
        name=f"skew-cauchy-{mu.parts}-{nu.parts}-l{l}",
        parameters={"mu": mu.parts, "nu": nu.parts, "us": [_c(u) for u in us], "vs": [_c(v) for v in vs], "lam": _c(lam)},
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
        truncation_info=info,
    )


def _b0k_norm_factor(count: int, lam: complex, u: complex, params: IrfParams) -> complex:
    # B^norm of the column-zero stack: the per-variable closed factor of the
    # Cauchy identity right-hand side.
    f, eta = params.f, params.eta
    z0, L0 = params.columns[0]
    return f(2 * eta) * f(lam - z0 + u + eta * (-L0 + 2 * count - 1)) / f(z0 - u + (L0 + 1) * eta)


def check_pieri(variant: str, params: IrfParams, *, nu=(), us=(), vs=(), u=None, v=None, cap: int = 12, lam: complex | None = None, tolerance: float = TOL_SERIES) -> CheckReport:
    """The two Pieri rules and the Cauchy identity, truncated on the left.

    variant "pieri2": sum_kappa D_kappa(lam; vs) B_{kappa/nu}(lam+2*eta*l; u)
    variant "pieri":  sum_kappa D^norm_{kappa/nu}(lam; v) B^norm_kappa(lam+2*eta; us)
    variant "cauchy": sum_kappa D^norm_kappa(lam; vs) B^norm_kappa(lam+2*eta*l; us)
    """
    lam = params.lambda0 if lam is None else lam
    eta = params.eta
    f = params.f
    nu = Signature(tuple(nu))

    if variant == "pieri2":
        if u is None or not len(vs):
            raise InvalidParameterError("pieri2 needs u and vs")
        l = len(vs)
        b_law = _strip(nu, lam + 2 * eta * l, [u], params, "B", cap=cap)
        lhs, last = _capped_sum(
            signatures_in_box(nu.parts + (0,), (cap,) + nu.parts),
            lambda kappa: D_nu(kappa, lam, list(vs), params),
            lambda kappa: b_law.get(kappa, 0.0 + 0.0j),
            cap,
        )
        rhs = _b0k_norm_factor(nu.length + 1, lam, u, params) / f(lam) * _cauchy_kernel([u], vs, params)
        rhs *= D_nu(nu, lam + 2 * eta, list(vs), params)
        name = f"pieri2-nu{nu.parts}-l{l}"
        pars = {"nu": nu.parts, "u": _c(u), "vs": [_c(x) for x in vs], "lam": _c(lam)}
    elif variant == "pieri":
        if v is None or not len(us):
            raise InvalidParameterError("pieri needs v and us")
        k = len(us)
        if nu.length != k:
            raise InvalidParameterError("pieri needs len(nu) = len(us)")
        lhs, last = _capped_sum(
            signatures_in_box(nu.parts, (cap,) * nu.length),
            lambda kappa: normalize(skew_D_lattice(kappa, nu, lam, [v], params), lam, 1, params),
            lambda kappa: normalize(B_mu(kappa, lam + 2 * eta, list(us), params), lam + 2 * eta, k, params),
            cap,
        )
        rhs = normalize(B_mu(nu, lam, list(us), params), lam, k, params) * _cauchy_kernel(us, [v], params)
        name = f"pieri-mu{nu.parts}"
        pars = {"mu": nu.parts, "v": _c(v), "us": [_c(x) for x in us], "lam": _c(lam)}
    elif variant == "cauchy":
        if not len(us) or not len(vs):
            raise InvalidParameterError("cauchy needs us and vs")
        k, l = len(us), len(vs)
        lhs, last = _capped_sum(
            signatures_in_box((0,) * k, (cap,) * k),
            lambda kappa: normalize(D_nu(kappa, lam, list(vs), params), lam, l, params),
            lambda kappa: normalize(B_mu(kappa, lam + 2 * eta * l, list(us), params), lam + 2 * eta * l, k, params),
            cap,
        )
        rhs = math.prod(_b0k_norm_factor(k, lam, u_i, params) for u_i in us) * _cauchy_kernel(us, vs, params)
        name = f"cauchy-k{k}l{l}"
        pars = {"us": [_c(x) for x in us], "vs": [_c(x) for x in vs], "lam": _c(lam)}
    else:
        raise InvalidParameterError(f"unknown pieri variant {variant!r}")

    return CheckReport(
        name=name,
        parameters=pars,
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
        truncation_info={"cap": cap, "tail_estimate": last},
    )


def check_cauchy_rho(N: int, us, params: IrfParams, cap: int = 14, lam: complex | None = None, tolerance: float = TOL_SERIES) -> CheckReport:
    """rho-specialized Cauchy identity (trigonometric mode only)."""
    lam = params.lambda0 if lam is None else lam
    if len(us) != N:
        raise InvalidParameterError("need exactly N spectral arguments")
    f, eta = params.f, params.eta
    grid = pq_grid(params)
    # the symmetrization formula has removable singularities at coincident
    # u's; the lattice DP is the natural evaluator there
    distinct = all(
        abs(us[a] - us[b]) > 1e-8 for a in range(N) for b in range(a + 1, N)
    )
    if distinct:
        route, b_eval = "symmetrization", lambda kappa: B_mu(kappa, lam, list(us), params)
    else:
        route, b_law = "lattice", _strip((), lam, list(us), params, "B", cap=cap)
        b_eval = lambda kappa: b_law.get(kappa, 0.0 + 0.0j)
    lhs, last = _capped_sum(
        signatures_in_box((1,) * N, (cap,) * N),
        lambda kappa: D_rho(kappa, lam, params),
        lambda kappa: normalize(b_eval(kappa), lam, N, params),
        cap,
    )
    rhs = (-f(2 * eta)) ** N
    for u in us:
        rhs *= f(u - grid.p[0]) / f(u - grid.q[0])
    return CheckReport(
        name=f"cauchy-rho-N{N}-{route}",
        parameters={"us": [_c(u) for u in us], "lam": _c(lam)},
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
        truncation_info={"cap": cap, "tail_estimate": last},
    )


def _pair_guard(contours: Sequence[Circle], shift: complex, params: IrfParams, floor: float = 1e-6) -> None:
    """Assert |f(u_i - u_j + shift)| stays above ``floor`` over node pairs."""
    probes = [c.points(64) for c in contours]
    for i in range(len(contours)):
        for j in range(len(contours)):
            if i == j:
                continue
            diff = probes[i][:, None] - probes[j][None, :] + shift
            vals = np.abs(params.f(diff))
            if float(vals.min()) <= floor:
                raise InvalidParameterError(
                    f"contour pair ({i}, {j}) violates the 2*eta-shift pole guard"
                )


def _strong_family(params: IrfParams, M: int) -> list:
    """The nested (strong) circles of an M-fold kernel integral, pair-guarded."""
    fam = check_admissible(params, M, strong=True)
    if isinstance(fam, AdmissibilityDiagnostic):
        raise InvalidParameterError(f"contour construction failed: {fam.reason}")
    _pair_guard(fam.gammas, -2 * params.eta, params)
    return fam.gammas


def _kernel_unary(nu: Signature, lam: complex, params: IrfParams):
    """Per-variable factors of the orthogonality kernel (psi's and shifts)."""
    grid = pq_grid(params)
    f, eta = params.f, params.eta
    M = nu.length
    fns = []
    for i in range(M):
        part = nu.parts[i]
        shift = lam + grid.p[part] + 2 * eta + 4 * eta * (M - 1 - i) - 2 * eta * params.lam_sum(0, part)
        fns.append(lambda x, part=part, shift=shift: psi(part, x, grid, params.mode) * f(shift - x))
    return fns


def _bmu_factored_terms(mu: Signature, nu: Signature, lam: complex, params: IrfParams):
    """Factored terms for B_mu(lam; u) times the psi-kernel of nu.

    Returns (prefactor, terms) for :func:`contour_integral_factored`; the
    permutation sum of B_mu contributes one term per sigma.  B_mu's cross
    factor for a pair a < b that sigma keeps in order cancels the kernel's,
    so a term carries a binary on the pairs sigma inverts only; as f is odd,
    that binary is -f(y - x - 2*eta) / f(x - y - 2*eta).  The M^2 unaries,
    one per (slot, variable), are shared across the terms.
    """
    grid = pq_grid(params)
    f, eta = params.f, params.eta
    M = mu.length
    pref, shifts_b = _bmu_prefactor(mu, lam, params)
    kern = _kernel_unary(nu, lam, params)

    def reversed_(x, y):
        return -f(y - x - 2 * eta) / f(x - y - 2 * eta)

    def unary(i, v):
        part, shift = mu.parts[i], shifts_b[i]
        return lambda x: phi(part, x, grid, params.mode) * f(shift + x) * kern[v](x)

    unaries_at = [[unary(i, v) for v in range(M)] for i in range(M)]  # [slot][variable]
    terms = []
    for sigma in itertools.permutations(range(M)):
        pos = [0] * M  # pos[v] = i with sigma(i) = v
        for i, v in enumerate(sigma):
            pos[v] = i
        unaries = [unaries_at[pos[v]][v] for v in range(M)]
        binaries = {(a, b): reversed_ for a in range(M) for b in range(a + 1, M) if pos[a] > pos[b]}
        terms.append((unaries, binaries))
    return pref, terms


def check_orthogonality(mu, nu, params: IrfParams, lam: complex | None = None, tolerance: float = TOL_QUAD) -> CheckReport:
    """M-fold contour integral of B_mu against the psi-kernel vs c_mu 1_{nu=mu}."""
    mu, nu = Signature(tuple(mu)), Signature(tuple(nu))
    if mu.length != nu.length:
        raise InvalidParameterError("orthogonality needs equal lengths")
    lam = params.lambda0 if lam is None else lam
    gammas = _strong_family(params, mu.length)
    pref, terms = _bmu_factored_terms(mu, nu, lam, params)
    lhs = pref * contour_integral_factored(terms, gammas, tol=1e-9)
    norm = c_mu(mu, lam, params)
    rhs = norm if mu == nu else 0.0 + 0.0j
    return CheckReport(
        name=f"orthogonality-{mu.parts}-{nu.parts}",
        parameters={"mu": mu.parts, "nu": nu.parts, "lam": _c(lam), "c_mu": _c(norm)},
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance if mu == nu else tolerance * max(1.0, abs(norm)),
    )


def _kernel_integral(nu: Signature, n: int, extra, gammas, params: IrfParams, lam: complex) -> complex:
    """(-1)^N f(2*eta)^N / (c_nu prod_{i=-n}^{N-1} f(lam + 2*eta*i)) times the
    N-fold contour integral of the psi-kernel of nu with ``extra`` on each variable."""
    f, eta = params.f, params.eta
    N = nu.length
    unaries = [lambda x, k=k: k(x) * extra(x) for k in _kernel_unary(nu, lam, params)]
    cross = lambda x, y: f(x - y) / f(x - y - 2 * eta)
    binaries = {(a, b): cross for a in range(N) for b in range(a + 1, N)}
    integral = contour_integral_factored([(unaries, binaries)], gammas, tol=1e-9)
    pref = (-1.0) ** N * f(2 * eta) ** N / c_mu(nu, lam, params)
    for i in range(-n, N):
        pref /= f(lam + 2 * eta * i)
    return pref * integral


def check_D_integral(nu, n: int, vs, params: IrfParams, lam: complex | None = None, tolerance: float = TOL_QUAD) -> CheckReport:
    """Integral representation of D_nu(lam - 2*eta*n; vs) vs the formula."""
    nu = Signature(tuple(nu))
    if len(vs) != n:
        raise InvalidParameterError("need exactly n spectral points")
    lam = params.lambda0 if lam is None else lam
    N = nu.length
    f, eta = params.f, params.eta
    grid = pq_grid(params)
    gammas = _strong_family(params, N)
    if any(abs(v - g.center) <= g.radius for g in gammas for v in vs):
        raise InvalidParameterError("v-points must lie outside the contours")

    def extra(x):
        out = f(lam + x - grid.q[0] + 2 * eta * (N - n)) / f(x - grid.q[0])
        for v in vs:
            out = out * f(x - v + 2 * eta) / f(x - v)
        return out

    return CheckReport(
        name=f"D-integral-{nu.parts}-n{n}",
        parameters={"nu": nu.parts, "n": n, "vs": [_c(v) for v in vs], "lam": _c(lam)},
        lhs=_kernel_integral(nu, n, extra, gammas, params, lam),
        rhs=D_nu(nu, lam - 2 * eta * n, list(vs), params),
        tolerance=tolerance,
    )


def check_D_rho_integral(nu, params: IrfParams, lam: complex | None = None, tolerance: float = TOL_QUAD) -> CheckReport:
    """rho-specialized integral of D^norm vs the closed form (incl. the
    vanishing at nu_N = 0)."""
    nu = Signature(tuple(nu))
    lam = params.lambda0 if lam is None else lam
    f, grid = params.f, pq_grid(params)
    gammas = _strong_family(params, nu.length)
    return CheckReport(
        name=f"D-rho-integral-{nu.parts}",
        parameters={"nu": nu.parts, "lam": _c(lam)},
        lhs=_kernel_integral(nu, 0, lambda x: f(x - grid.p[0]) / f(x - grid.q[0]), gammas, params, lam),
        rhs=D_rho(nu, lam, params),
        tolerance=tolerance,
    )


def check_stoch_sum(nu, us, params: IrfParams, lam: complex | None = None, max_part: int | None = None, tolerance: float = 1e-6) -> CheckReport:
    """Stochastic sum-to-one with the monitored geometric tail."""
    lam = params.lambda0 if lam is None else lam
    total, tail = stoch_B_sum(nu, lam, list(us), params, max_part=max_part)
    return CheckReport(
        name=f"stoch-sum-to-one-{tuple(nu)}-k{len(us)}",
        parameters={"nu": tuple(nu), "us": [_c(u) for u in us], "lam": _c(lam)},
        lhs=total,
        rhs=1.0 + 0.0j,
        tolerance=tolerance,
        truncation_info={
            "terms_used": tail.terms_used,
            "tail_estimate": tail.tail_estimate,
            "converged": tail.converged,
        },
    )


def check_nested_sum_lemma(n: int, Ts: Sequence[int], Y) -> CheckReport:
    """Brute-force distinct-tuple sum with inv-shifted indices vs the product.

    Stated and used for weakly increasing bounds T_1 <= ... <= T_n (that is
    the shape the height function produces); the product side is 0 when a
    factor's index range is empty (T_j < j).
    """
    Ts = tuple(Ts)
    if any(Ts[i] > Ts[i + 1] for i in range(len(Ts) - 1)):
        raise InvalidParameterError("nested-sum lemma needs weakly increasing T's")
    if n > 5 or any(t > 8 for t in Ts):
        raise InvalidParameterError("nested-sum check capped at n <= 5, T <= 8")
    if len(Ts) != n:
        raise InvalidParameterError("need one T per factor")
    if len(Y) < n or any(len(Y[j]) < Ts[j] for j in range(n)):
        raise InvalidParameterError("Y needs n rows, row j holding at least T_j values")

    def y(j: int, t: int) -> float:
        return float(Y[j - 1][t - 1])

    lhs = 0.0
    for tup in itertools.product(*[range(1, T + 1) for T in Ts]):
        if len(set(tup)) != n:
            continue
        term = 1.0
        for i in range(1, n + 1):
            inv = sum(1 for j in range(i - 1) if tup[j] > tup[i - 1])
            term *= y(i, tup[i - 1] + inv)
        lhs += term
    rhs = 1.0
    for j in range(1, n + 1):
        if Ts[j - 1] < j:
            rhs = 0.0
            break
        rhs *= sum(y(j, t) for t in range(j, Ts[j - 1] + 1))
    return CheckReport(
        name=f"nested-sum-n{n}",
        parameters={"n": n, "Ts": list(Ts)},
        lhs=lhs,
        rhs=rhs,
        tolerance=1e-12,
    )


# Random-draw batteries; a caller can thread one Generator through several.
WEIGHT_DRAWS = SINE_DRAWS = 1000
HAT_DRAWS, ORACLE_DRAWS, CSTRING_DRAWS, STOCH_DRAWS = 200, 50, 15, 50


class _Worst:
    """Running max(worst, residual) and the parameters of the draw that set it."""

    def __init__(self):
        self.value, self.draw = 0.0, None

    def see(self, residual, draw) -> None:
        """``draw()`` builds the draw's parameters; it runs only when they are kept."""
        if residual > self.value or self.draw is None:
            self.draw = draw()
        self.value = max(self.value, residual)

    def report(self, name: str, parameters: dict, tolerance: float) -> CheckReport:
        return CheckReport(name, {**parameters, **(self.draw or {})}, self.value, 0.0, tolerance)


def _rel(got, want) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _random_plaquette(rng: np.random.Generator, mode: FunctionMode) -> WeightContext:
    lam, w, z, L = rng.standard_normal(4) * 0.4 + 1j * rng.standard_normal(4) * 0.15
    eta = rng.standard_normal() * 0.08 + 1j * rng.standard_normal() * 0.03
    return WeightContext(lam, w, z, L, eta, mode)


def _plaquette_draw(i: int, k: int, ctx: WeightContext) -> dict:
    return {"worst_draw": i, "k": k, "lam": _c(ctx.lam), "w": _c(ctx.w), "z": _c(ctx.z), "Lambda": _c(ctx.Lambda), "eta": _c(ctx.eta)}


def check_stochasticity(rng: np.random.Generator, mode: FunctionMode, tolerance_scale: float = 1.0) -> CheckReport:
    """Stochastic sum rules B + D = 1 and, for k >= 1, A + C = 1 over random plaquettes."""
    worst = _Worst()
    for i in range(WEIGHT_DRAWS):
        ctx = _random_plaquette(rng, mode)
        k = int(rng.integers(0, 4))
        draw = lambda: _plaquette_draw(i, k, ctx)
        wt = lambda kind: weight(kind, k, ctx, stochastic=True)
        worst.see(abs(wt("B") + wt("D") - 1), draw)
        if k >= 1:
            worst.see(abs(wt("A") + wt("C") - 1), draw)
    return worst.report(f"stochasticity-{WEIGHT_DRAWS}draws-{mode.kind}", {"draws": WEIGHT_DRAWS, "mode": mode.kind}, TOL_CLOSED * tolerance_scale)


def check_sine_identity(rng: np.random.Generator, tolerance_scale: float = 1.0) -> CheckReport:
    """f(B-C) f(w-A) = f(A-C) f(w-B) - f(A-B) f(w-C) for f = sin at random points (A, B, C, w)."""
    f = FunctionMode.trigonometric().f
    worst = _Worst()
    for i in range(SINE_DRAWS):
        A, B, C, w = rng.standard_normal(4) * 0.7 + 1j * rng.standard_normal(4) * 0.3
        rhs = f(A - C) * f(w - B) - f(A - B) * f(w - C)
        worst.see(_rel(f(B - C) * f(w - A), rhs), lambda: {"worst_draw": i, "points": [_c(x) for x in (A, B, C, w)]})
    return worst.report(f"sine-identity-{SINE_DRAWS}draws", {"draws": SINE_DRAWS}, TOL_CLOSED * tolerance_scale)


def check_hat_ratios(rng: np.random.Generator, tolerance_scale: float = 1.0) -> CheckReport:
    """hat_ratio times the plain weight against the stochastic weight, all four
    kinds, over random trigonometric plaquettes with k in 1..3."""
    worst = _Worst()
    for i in range(HAT_DRAWS):
        ctx = _random_plaquette(rng, FunctionMode.trigonometric())
        k = int(rng.integers(1, 4))
        for kind in "ABCD":
            got = hat_ratio(kind, k, ctx.lam, ctx.Lambda, ctx.eta, ctx.mode) * weight(kind, k, ctx)
            worst.see(_rel(got, weight(kind, k, ctx, stochastic=True)), lambda: _plaquette_draw(i, k, ctx))
    return worst.report("hat-ratio-consistency", {"draws": HAT_DRAWS}, 1e-12 * tolerance_scale)


def check_oracle_formulas(rng: np.random.Generator, tolerance_scale: float = 1.0) -> list:
    """B, D and c-string reports: closed forms against the operator oracle on
    random packs, trigonometric at odd draws and elliptic (tau = 1.4i) at even
    ones; a c-string draw with sum(ks) outside 1..3 is skipped."""
    worst_b, worst_d, worst_c = _Worst(), _Worst(), _Worst()
    pack = lambda i: random_pack(rng, FunctionMode.trigonometric() if i % 2 else FunctionMode.elliptic(1.4j))
    points = lambda n: [complex(a, b) for a, b in 0.3 + 0.2 * rng.standard_normal((n, 2))]
    signature = lambda: tuple(sorted(rng.integers(0, 5, size=rng.integers(1, 4)))[::-1])

    def draw(i, P, lam, sig_key, sig, points_key, pts):
        return {"worst_draw": i, "pack": params_to_json_dict(P), "lam": _c(lam), sig_key: [int(p) for p in sig], points_key: [_c(x) for x in pts]}

    for i in range(ORACLE_DRAWS):
        P = pack(i)
        lam = complex(0.3 + 0.2 * rng.standard_normal(), 0.15 + 0.1 * rng.standard_normal())
        mu = signature()
        us = points(len(mu))
        worst_b.see(_rel(B_mu(mu, lam, us, P), skew_B_oracle(mu, (), lam, us, P)), lambda: draw(i, P, lam, "mu", mu, "us", us))
        nu = signature()
        vs = points(int(rng.integers(max(1, len([p for p in nu if p > 0])), 4)))
        worst_d.see(_rel(D_nu(nu, lam, vs, P), skew_D_oracle(nu, (0,) * len(nu), lam, vs, P)), lambda: draw(i, P, lam, "nu", nu, "vs", vs))
    for i in range(CSTRING_DRAWS):
        P = pack(i)
        lam = complex(0.3 + 0.2 * rng.standard_normal(), 0.15)
        ks = tuple(int(v) for v in rng.integers(0, 3, size=int(rng.integers(1, 4))))
        if not 1 <= sum(ks) <= 3:
            continue
        ws = points(sum(ks))
        worst_c.see(_rel(c_matrix_formula(ws, ks, lam, P), c_matrix_element(ws, ks, lam, P)), lambda: draw(i, P, lam, "ks", ks, "ws", ws))
    tol = 1e-8 * tolerance_scale
    return [
        worst_b.report(f"oracle-B-symmetrization-{ORACLE_DRAWS}draws", {"draws": ORACLE_DRAWS}, tol),
        worst_d.report(f"oracle-D-symmetrization-{ORACLE_DRAWS}draws", {"draws": ORACLE_DRAWS}, tol),
        worst_c.report("oracle-c-string-formula", {"draws": CSTRING_DRAWS}, tol),
    ]


def check_stochastic_weights(rng: np.random.Generator, tolerance_scale: float = 1.0) -> list:
    """Stochastic-weight theorem on trig-admissible, lam = 0.41 + 0.23i, u's
    near p_1: the lattice DP of B^stoch_{kappa/nu}, kappa = nu plus k extra
    parts, against its conjugation formula (``nonzero_draws`` counts the
    draws where either is nonzero), then three :func:`check_stoch_sum`."""
    P, lam = preset("trig-admissible"), 0.41 + 0.23j
    p1 = complex(pq_grid(P).p[1])
    near_p1 = lambda k: [p1 + 0.002 * rng.standard_normal() + 0.0015j * rng.standard_normal() for _ in range(k)]

    worst, nonzero = _Worst(), 0
    for i in range(STOCH_DRAWS):
        k = int(rng.integers(1, 4))
        ell_nu = int(rng.integers(0, 3))
        nu = tuple(sorted(rng.integers(1, 5, size=ell_nu))[::-1]) if ell_nu else ()
        kappa = tuple(sorted(nu + tuple(rng.integers(1, 7, size=k)), reverse=True))
        us = near_p1(k)
        dp = skew_B_lattice(kappa, nu, lam, us, P, stochastic=True)
        formula = stoch_B_formula(kappa, nu, lam, us, P)
        nonzero += bool(dp or formula)
        worst.see(_rel(dp, formula), lambda: {"worst_draw": i, "kappa": [int(p) for p in kappa], "nu": [int(p) for p in nu], "us": [_c(u) for u in us]})
    reports = [worst.report(f"stoch-B-two-routes-{STOCH_DRAWS}draws", {"draws": STOCH_DRAWS, "nonzero_draws": nonzero, "lam": _c(lam)}, 1e-8 * tolerance_scale)]
    for nu, k in (((), 1), ((2,), 1), ((3, 1), 2)):
        reports.append(check_stoch_sum(nu, near_p1(k), P, lam=lam, tolerance=1e-6 * tolerance_scale))
    return reports


def run_identity_suite(params: IrfParams, seed: int = 0, tolerance_scale: float = 1.0) -> list:
    """The standard identity battery over a parameter pack.

    Deterministic given (params, seed); reports are sorted by name.
    """
    rng = np.random.default_rng(seed ^ 0x5D1F)
    grid = pq_grid(params)
    p0 = complex(np.mean(np.array(grid.p)))
    q0 = complex(np.mean(np.array(grid.q)))

    def near_p(k):
        return [p0 + complex(0.002 * rng.standard_normal(), 0.0015 * rng.standard_normal()) for _ in range(k)]

    def near_q(k):
        return [q0 + 0.03 + 0.01j + complex(0.004 * rng.standard_normal(), 0.004 * rng.standard_normal()) for _ in range(k)]

    tc, ts, tq = TOL_CLOSED * tolerance_scale, TOL_SERIES * tolerance_scale, TOL_QUAD * tolerance_scale
    reports = []
    # symmetrization, trig and elliptic
    for m in (1, 3, 6):
        vs = [complex(a, b) for a, b in 0.4 * rng.standard_normal((m, 2))]
        beta = complex(0.23 + 0.1 * rng.standard_normal(), 0.11)
        reports.append(check_symmetrization_lemma(m, vs, beta, params.mode, tolerance=tc))
        reports.append(check_symmetrization_lemma(m, vs, beta, FunctionMode.elliptic(1.5j), tolerance=tc))
    # skew-Cauchy at k = l = 1 and at k = l = 2
    u1, v1 = near_p(1), near_q(1)
    reports.append(check_skew_cauchy((1,), (), u1, v1, params, tolerance=ts))
    reports.append(check_skew_cauchy((2, 1), (1,), u1, v1, params, tolerance=ts))
    reports.append(check_skew_cauchy((2, 1), (), near_p(2), near_q(2), params, tolerance=ts))
    # Pieri rules and Cauchy
    reports.append(check_pieri("pieri2", params, nu=(2,), u=near_p(1)[0], vs=near_q(2), tolerance=ts))
    reports.append(check_pieri("pieri2", params, nu=(), u=near_p(1)[0], vs=near_q(1), tolerance=ts))
    reports.append(check_pieri("pieri", params, nu=(2, 1), us=near_p(2), v=near_q(1)[0], tolerance=ts))
    reports.append(check_pieri("cauchy", params, us=near_p(1), vs=near_q(1), tolerance=ts))
    reports.append(check_pieri("cauchy", params, us=near_p(2), vs=near_q(2), tolerance=ts))
    # rho-Cauchy, distinct and coincident arguments
    reports.append(check_cauchy_rho(1, near_p(1), params, tolerance=ts))
    reports.append(check_cauchy_rho(2, near_p(2), params, tolerance=ts))
    reports.append(check_cauchy_rho(2, near_p(1) * 2, params, tolerance=ts))
    # orthogonality / integral representations; M >= 2 uses the wide pack,
    # whose larger p/q separation admits the nested (strong) circle
    # families those integrals require
    wide = preset("trig-admissible-wide")
    qw = complex(np.mean(np.array(pq_grid(wide).q)))

    def wide_near_q(k):
        return [qw + 0.05 + 0.02j + complex(0.005 * rng.standard_normal(), 0.005 * rng.standard_normal()) for _ in range(k)]

    reports.append(check_orthogonality((1,), (1,), params, tolerance=tq))
    reports.append(check_orthogonality((2,), (1,), params, tolerance=tq))
    reports.append(check_orthogonality((2, 1), (2, 1), wide, tolerance=tq))
    reports.append(check_orthogonality((2, 1, 1), (2, 1, 1), wide, tolerance=tq))
    reports.append(check_orthogonality((3, 1, 1), (2, 1, 1), wide, tolerance=tq))
    reports.append(check_D_integral((1,), 1, near_q(1), params, tolerance=tq))
    reports.append(check_D_integral((2, 1), 2, wide_near_q(2), wide, tolerance=tq))
    reports.append(check_D_rho_integral((1,), params, tolerance=tq))
    reports.append(check_D_rho_integral((2, 0), params, tolerance=tq))
    reports.append(check_D_rho_integral((2, 1), wide, tolerance=tq))
    # nested-sum lemma (the stochastic sum-to-one reports come from
    # check_stochastic_weights)
    Y = rng.standard_normal((3, 8))
    reports.append(check_nested_sum_lemma(3, (2, 3, 5), Y))
    reports.sort(key=lambda r: r.name)
    return reports
