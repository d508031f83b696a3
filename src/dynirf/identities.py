"""Executable verification of the named identities; every check returns a CheckReport.

Tolerances are stratified by error source: closed-form against closed-form
comparisons run at 1e-10, truncated series at 1e-7, and quadrature-based
checks at 1e-6.  A passing check whose monitored truncation tail exceeds a
tenth of its tolerance is downgraded to "passed-with-warning".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .params import AdmissibilityDiagnostic, IrfParams, check_admissible, pq_grid
from .special import (
    Circle,
    FunctionMode,
    InvalidParameterError,
    contour_integral_factored,
    f_eval,
)
from .symfunc import (
    B_mu,
    _bmu_prefactor,
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
    stoch_B_sum,
)

__all__ = [
    "CheckReport",
    "TOL_CLOSED",
    "TOL_SERIES",
    "TOL_QUAD",
    "check_symmetrization_lemma",
    "check_skew_cauchy",
    "check_skew_cauchy_general",
    "check_pieri",
    "check_cauchy_rho",
    "check_orthogonality",
    "check_D_integral",
    "check_D_rho_integral",
    "check_stoch_sum",
    "check_nested_sum_lemma",
    "run_identity_suite",
]

TOL_CLOSED = 1e-10
TOL_SERIES = 1e-7
TOL_QUAD = 1e-6


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


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
    """Permutation sum against f(beta)f(2beta)...f(m beta)/f(beta)^m."""
    if not 1 <= m <= 7:
        raise InvalidParameterError("symmetrization check supports 1 <= m <= 7")
    if len(vs) != m:
        raise InvalidParameterError("need exactly m points")
    f = lambda x: f_eval(mode, x)
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(m)):
        term = 1.0 + 0.0j
        for a in range(m):
            for b in range(a + 1, m):
                d = vs[perm[a]] - vs[perm[b]]
                term *= f(d - beta) / f(d)
        for k in range(1, m + 1):
            vk = vs[perm[k - 1]]
            term *= f(vk + (m - 2 * k + 1) * beta) / f(vk)
        total += term
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
    )


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


def check_skew_cauchy(mu, nu, u: complex, v: complex, params: IrfParams, cap: int = 12, lam: complex | None = None, tolerance: float = TOL_SERIES) -> CheckReport:
    """Elementary skew-Cauchy identity, kappa-sum truncated at kappa_1 <= cap."""
    mu, nu = Signature(tuple(mu)), Signature(tuple(nu))
    if mu.length != nu.length + 1:
        raise InvalidParameterError("need len(mu) = len(nu) + 1")
    lam = params.lambda0 if lam is None else lam
    eta = params.eta
    f = params.f

    lhs = 0.0 + 0.0j
    last = 0.0
    for kappa in signatures_in_box(mu.parts, (cap,) * mu.length):
        d_term = skew_D_lattice(kappa, mu, lam, [v], params)
        if d_term == 0:
            continue
        term = d_term * skew_B_lattice(kappa, nu, lam + 2 * eta, [u], params)
        lhs += term
        if kappa.max_part() == cap:
            last += abs(term)
    rhs = 0.0 + 0.0j
    for rho in signatures_in_box(nu.parts, (mu.max_part(),) * nu.length):
        b_term = skew_B_lattice(mu, rho, lam, [u], params)
        if b_term == 0:
            continue
        rhs += b_term * skew_D_lattice(nu, rho, lam + 2 * eta, [v], params)
    rhs *= f(v - u - 2 * eta) / f(v - u)
    depth = (params.n_cols - 1) // 2
    info = {
        "cap": cap,
        "tail_estimate": last,
        "convergence_product": [
            _convergence_monitor(u, v, lam, nu.length + 1, params, depth),
            _convergence_monitor(u, v, lam, nu.length + 1, params, 2 * depth),
        ],
    }
    return CheckReport(
        name=f"skew-cauchy-{mu.parts}-{nu.parts}",
        parameters={"mu": mu.parts, "nu": nu.parts, "u": _c(u), "v": _c(v), "lam": _c(lam)},
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
        truncation_info=info,
    )


def check_skew_cauchy_general(mu, nu, us, vs, params: IrfParams, cap: int = 12, lam: complex | None = None, tolerance: float = TOL_SERIES) -> CheckReport:
    """General skew-Cauchy identity with k = len(us), l = len(vs)."""
    mu, nu = Signature(tuple(mu)), Signature(tuple(nu))
    k, l = len(us), len(vs)
    if mu.length != nu.length + k:
        raise InvalidParameterError("need len(mu) = len(nu) + len(us)")
    lam = params.lambda0 if lam is None else lam
    eta = params.eta
    f = params.f

    lhs = 0.0 + 0.0j
    last = 0.0
    for kappa in signatures_in_box(mu.parts, (cap,) * mu.length):
        d_term = skew_D_lattice(kappa, mu, lam, vs, params)
        if d_term == 0:
            continue
        term = d_term * skew_B_lattice(kappa, nu, lam + 2 * eta * l, us, params)
        lhs += term
        if kappa.max_part() == cap:
            last += abs(term)

    rhs = 0.0 + 0.0j
    for rho in signatures_in_box(nu.parts, (mu.max_part(),) * nu.length):
        b_term = skew_B_lattice(mu, rho, lam, us, params)
        if b_term == 0:
            continue
        rhs += b_term * skew_D_lattice(nu, rho, lam + 2 * eta * k, vs, params)
    for u in us:
        for v in vs:
            rhs *= f(v - u - 2 * eta) / f(v - u)
    return CheckReport(
        name=f"skew-cauchy-general-k{k}l{l}",
        parameters={
            "mu": mu.parts,
            "nu": nu.parts,
            "us": [_c(u) for u in us],
            "vs": [_c(v) for v in vs],
            "lam": _c(lam),
        },
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
        truncation_info={"cap": cap, "tail_estimate": last},
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
        N = nu.length
        lhs = 0.0 + 0.0j
        last = 0.0
        for kappa in signatures_in_box(nu.parts + (0,), (cap,) + nu.parts):
            term = D_nu(kappa, lam, list(vs), params) * skew_B_lattice(
                kappa, nu, lam + 2 * eta * l, [u], params
            )
            lhs += term
            if kappa.max_part() == cap:
                last += abs(term)
        rhs = _b0k_norm_factor(N + 1, lam, u, params) / f(lam)
        for v_j in vs:
            rhs *= f(v_j - u - 2 * eta) / f(v_j - u)
        rhs *= D_nu(nu, lam + 2 * eta, list(vs), params)
        name = f"pieri2-nu{nu.parts}-l{l}"
        pars = {"nu": nu.parts, "u": _c(u), "vs": [_c(x) for x in vs], "lam": _c(lam)}
    elif variant == "pieri":
        if v is None or not len(us):
            raise InvalidParameterError("pieri needs v and us")
        k = len(us)
        if nu.length != k:
            raise InvalidParameterError("pieri needs len(nu) = len(us)")
        lhs = 0.0 + 0.0j
        last = 0.0
        for kappa in signatures_in_box(nu.parts, (cap,) * nu.length):
            d_term = skew_D_lattice(kappa, nu, lam, [v], params)
            if d_term == 0:
                continue
            term = (
                normalize(d_term, lam, 1, params)
                * normalize(B_mu(kappa, lam + 2 * eta, list(us), params), lam + 2 * eta, k, params)
            )
            lhs += term
            if kappa.max_part() == cap:
                last += abs(term)
        rhs = normalize(B_mu(nu, lam, list(us), params), lam, k, params)
        for u_i in us:
            rhs *= f(v - u_i - 2 * eta) / f(v - u_i)
        name = f"pieri-mu{nu.parts}"
        pars = {"mu": nu.parts, "v": _c(v), "us": [_c(x) for x in us], "lam": _c(lam)}
    elif variant == "cauchy":
        if not len(us) or not len(vs):
            raise InvalidParameterError("cauchy needs us and vs")
        k, l = len(us), len(vs)
        lhs = 0.0 + 0.0j
        last = 0.0
        for kappa in signatures_in_box((0,) * k, (cap,) * k):
            dval = D_nu(kappa, lam, list(vs), params)
            if dval == 0:
                continue
            term = (
                normalize(dval, lam, l, params)
                * normalize(B_mu(kappa, lam + 2 * eta * l, list(us), params), lam + 2 * eta * l, k, params)
            )
            lhs += term
            if kappa.max_part() == cap:
                last += abs(term)
        rhs = 1.0 + 0.0j
        for u_i in us:
            rhs *= _b0k_norm_factor(k, lam, u_i, params)
            for v_j in vs:
                rhs *= f(v_j - u_i - 2 * eta) / f(v_j - u_i)
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
        b_eval = lambda kappa: B_mu(kappa, lam, list(us), params)
    else:
        b_eval = lambda kappa: skew_B_lattice(kappa, (), lam, list(us), params)
    lhs = 0.0 + 0.0j
    last = 0.0
    for kappa in signatures_in_box((1,) * N, (cap,) * N):
        dval = D_rho(kappa, lam, params)
        if dval == 0:
            continue
        term = dval * normalize(b_eval(kappa), lam, N, params)
        lhs += term
        if kappa.max_part() == cap:
            last += abs(term)
    rhs = (-f(2 * eta)) ** N
    for u in us:
        rhs *= f(u - grid.p[0]) / f(u - grid.q[0])
    return CheckReport(
        name=f"cauchy-rho-N{N}",
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
            vals = np.abs(f_eval(params.mode, diff))
            if float(vals.min()) <= floor:
                raise InvalidParameterError(
                    f"contour pair ({i}, {j}) violates the 2*eta-shift pole guard"
                )


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


def _bmu_factored_terms(mu: Signature, nu: Signature, lam: complex, params: IrfParams, extra_unary=None):
    """Factored terms for B_mu(lam; u) times the psi-kernel of nu.

    Returns (prefactor, terms) for :func:`contour_integral_factored`; the
    permutation sum of B_mu contributes one term per sigma.
    """
    grid = pq_grid(params)
    f, eta = params.f, params.eta
    M = mu.length
    pref, shifts_b = _bmu_prefactor(mu, lam, params)
    kern = _kernel_unary(nu, lam, params)

    def cross_kernel(x, y):
        return f(x - y) / f(x - y - 2 * eta)

    terms = []
    for sigma in itertools.permutations(range(M)):
        pos = [0] * M  # pos[v] = i with sigma(i) = v
        for i, v in enumerate(sigma):
            pos[v] = i

        def uf(v, sigma=sigma, pos=pos):
            i = pos[v]
            part, shift = mu.parts[i], shifts_b[i]

            def fn(x, part=part, shift=shift, v=v):
                out = phi(part, x, grid, params.mode) * f(shift + x) * kern[v](x)
                if extra_unary is not None:
                    out = out * extra_unary(x)
                return out

            return fn

        unaries = [uf(v) for v in range(M)]
        binaries = {}
        for a in range(M):
            for b in range(a + 1, M):

                def bf(x, y, a=a, b=b, pos=pos):
                    if pos[a] < pos[b]:
                        bcross = f(x - y - 2 * eta) / f(x - y)
                    else:
                        bcross = f(y - x - 2 * eta) / f(y - x)
                    return bcross * cross_kernel(x, y)

                binaries[(a, b)] = bf
        terms.append((unaries, binaries))
    return pref, terms


def check_orthogonality(mu, nu, params: IrfParams, lam: complex | None = None, tolerance: float = TOL_QUAD, nodes: int = 48) -> CheckReport:
    """M-fold contour integral of B_mu against the psi-kernel vs c_mu 1_{nu=mu}."""
    mu, nu = Signature(tuple(mu)), Signature(tuple(nu))
    if mu.length != nu.length:
        raise InvalidParameterError("orthogonality needs equal lengths")
    lam = params.lambda0 if lam is None else lam
    M = mu.length
    fam = check_admissible(params, M, strong=True)
    if isinstance(fam, AdmissibilityDiagnostic):
        raise InvalidParameterError(f"contour construction failed: {fam.reason}")
    _pair_guard(fam.gammas, -2 * params.eta, params)
    pref, terms = _bmu_factored_terms(mu, nu, lam, params)
    lhs = pref * contour_integral_factored(terms, fam.gammas, nodes=nodes, tol=1e-9)
    norm = c_mu(mu, lam, params)
    rhs = norm if mu == nu else 0.0 + 0.0j
    return CheckReport(
        name=f"orthogonality-{mu.parts}-{nu.parts}",
        parameters={"mu": mu.parts, "nu": nu.parts, "lam": _c(lam), "c_mu": _c(norm)},
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance if mu == nu else tolerance * max(1.0, abs(norm)),
    )


def _kernel_only_term(nu: Signature, lam: complex, params: IrfParams, extra_unary):
    f, eta = params.f, params.eta
    kern = _kernel_unary(nu, lam, params)
    M = nu.length

    def uf(v):
        def fn(x, v=v):
            return kern[v](x) * extra_unary(x)

        return fn

    unaries = [uf(v) for v in range(M)]
    binaries = {}
    for a in range(M):
        for b in range(a + 1, M):
            binaries[(a, b)] = lambda x, y: f(x - y) / f(x - y - 2 * eta)
    return [(unaries, binaries)]


def check_D_integral(nu, n: int, vs, params: IrfParams, lam: complex | None = None, tolerance: float = TOL_QUAD, nodes: int = 48) -> CheckReport:
    """Integral representation of D_nu(lam - 2*eta*n; vs) vs the formula."""
    nu = Signature(tuple(nu))
    if len(vs) != n:
        raise InvalidParameterError("need exactly n spectral points")
    lam = params.lambda0 if lam is None else lam
    N = nu.length
    f, eta = params.f, params.eta
    grid = pq_grid(params)
    fam = check_admissible(params, N, strong=True)
    if isinstance(fam, AdmissibilityDiagnostic):
        raise InvalidParameterError(f"contour construction failed: {fam.reason}")
    _pair_guard(fam.gammas, -2 * eta, params)
    for g in fam.gammas:
        for v in vs:
            if abs(v - g.center) <= g.radius:
                raise InvalidParameterError("v-points must lie outside the contours")

    def extra(x):
        out = f(lam + x - grid.q[0] + 2 * eta * (N - n)) / f(x - grid.q[0])
        for v in vs:
            out = out * f(x - v + 2 * eta) / f(x - v)
        return out

    terms = _kernel_only_term(nu, lam, params, extra)
    integral = contour_integral_factored(terms, fam.gammas, nodes=nodes, tol=1e-9)
    pref = (-1.0) ** N * f(2 * eta) ** N / c_mu(nu, lam, params)
    for i in range(-n, N):
        pref /= f(lam + 2 * eta * i)
    lhs = pref * integral
    rhs = D_nu(nu, lam - 2 * eta * n, list(vs), params)
    return CheckReport(
        name=f"D-integral-{nu.parts}-n{n}",
        parameters={"nu": nu.parts, "n": n, "vs": [_c(v) for v in vs], "lam": _c(lam)},
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
    )


def check_D_rho_integral(nu, params: IrfParams, lam: complex | None = None, tolerance: float = TOL_QUAD, nodes: int = 48) -> CheckReport:
    """rho-specialized integral of D^norm vs the closed form (incl. the
    vanishing at nu_N = 0)."""
    nu = Signature(tuple(nu))
    lam = params.lambda0 if lam is None else lam
    N = nu.length
    f, eta = params.f, params.eta
    grid = pq_grid(params)
    fam = check_admissible(params, N, strong=True)
    if isinstance(fam, AdmissibilityDiagnostic):
        raise InvalidParameterError(f"contour construction failed: {fam.reason}")
    _pair_guard(fam.gammas, -2 * eta, params)

    def extra(x):
        return f(x - grid.p[0]) / f(x - grid.q[0])

    terms = _kernel_only_term(nu, lam, params, extra)
    integral = contour_integral_factored(terms, fam.gammas, nodes=nodes, tol=1e-9)
    pref = (-1.0) ** N * f(2 * eta) ** N / c_mu(nu, lam, params)
    for i in range(N):
        pref /= f(lam + 2 * eta * i)
    lhs = pref * integral
    rhs = D_rho(nu, lam, params)
    return CheckReport(
        name=f"D-rho-integral-{nu.parts}",
        parameters={"nu": nu.parts, "lam": _c(lam)},
        lhs=lhs,
        rhs=rhs,
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


def check_nested_sum_lemma(n: int, Ts: Sequence[int], Y, tolerance: float = 1e-12) -> CheckReport:
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
        tolerance=tolerance,
    )


def run_identity_suite(params: IrfParams, seed: int = 0, tolerance_scale: float = 1.0) -> list:
    """The standard identity battery over a parameter pack.

    Deterministic given (params, seed); reports are sorted by name.
    """
    rng = np.random.default_rng(seed ^ 0x5D1F)
    grid = pq_grid(params)
    lam = params.lambda0
    eta = params.eta
    p0 = complex(np.mean(np.array(grid.p)))
    q0 = complex(np.mean(np.array(grid.q)))

    def near_p(k):
        return [p0 + complex(0.002 * rng.standard_normal(), 0.0015 * rng.standard_normal()) for _ in range(k)]

    def near_q(k):
        return [q0 + 0.03 + 0.01j + complex(0.004 * rng.standard_normal(), 0.004 * rng.standard_normal()) for _ in range(k)]

    reports = []
    # symmetrization, trig and elliptic
    for m in (1, 3, 6):
        vs = [complex(a, b) for a, b in 0.4 * rng.standard_normal((m, 2))]
        beta = complex(0.23 + 0.1 * rng.standard_normal(), 0.11)
        reports.append(check_symmetrization_lemma(m, vs, beta, params.mode, tolerance=TOL_CLOSED * tolerance_scale))
        reports.append(
            check_symmetrization_lemma(m, vs, beta, FunctionMode.elliptic(1.5j), tolerance=TOL_CLOSED * tolerance_scale)
        )
    # skew-Cauchy, elementary and general
    u1, v1 = near_p(1)[0], near_q(1)[0]
    reports.append(check_skew_cauchy((1,), (), u1, v1, params, tolerance=TOL_SERIES * tolerance_scale))
    reports.append(check_skew_cauchy((2, 1), (1,), u1, v1, params, tolerance=TOL_SERIES * tolerance_scale))
    reports.append(
        check_skew_cauchy_general((2, 1), (), near_p(2), near_q(2), params, tolerance=TOL_SERIES * tolerance_scale)
    )
    # Pieri rules and Cauchy
    reports.append(
        check_pieri("pieri2", params, nu=(2,), u=near_p(1)[0], vs=near_q(2), tolerance=TOL_SERIES * tolerance_scale)
    )
    reports.append(
        check_pieri("pieri2", params, nu=(), u=near_p(1)[0], vs=near_q(1), tolerance=TOL_SERIES * tolerance_scale)
    )
    reports.append(
        check_pieri("pieri", params, nu=(2, 1), us=near_p(2), v=near_q(1)[0], tolerance=TOL_SERIES * tolerance_scale)
    )
    reports.append(check_pieri("cauchy", params, us=near_p(1), vs=near_q(1), tolerance=TOL_SERIES * tolerance_scale))
    reports.append(check_pieri("cauchy", params, us=near_p(2), vs=near_q(2), tolerance=TOL_SERIES * tolerance_scale))
    # rho-Cauchy
    reports.append(check_cauchy_rho(1, near_p(1), params, tolerance=TOL_SERIES * tolerance_scale))
    reports.append(check_cauchy_rho(2, near_p(2), params, tolerance=TOL_SERIES * tolerance_scale))
    us_eq = near_p(1) * 2
    reports.append(check_cauchy_rho(2, us_eq, params, tolerance=TOL_SERIES * tolerance_scale))
    # orthogonality / integral representations; M >= 2 uses the wide pack,
    # whose larger p/q separation admits the nested (strong) circle
    # families those integrals require
    from .params import preset as _preset

    wide = _preset("trig-admissible-wide")
    gw = pq_grid(wide)
    qw = complex(np.mean(np.array(gw.q)))

    def wide_near_q(k):
        return [qw + 0.05 + 0.02j + complex(0.005 * rng.standard_normal(), 0.005 * rng.standard_normal()) for _ in range(k)]

    reports.append(check_orthogonality((1,), (1,), params, tolerance=TOL_QUAD * tolerance_scale))
    reports.append(check_orthogonality((2,), (1,), params, tolerance=TOL_QUAD * tolerance_scale))
    reports.append(check_orthogonality((2, 1), (2, 1), wide, tolerance=TOL_QUAD * tolerance_scale))
    reports.append(check_orthogonality((2, 1, 1), (2, 1, 1), wide, tolerance=TOL_QUAD * tolerance_scale))
    reports.append(check_orthogonality((3, 1, 1), (2, 1, 1), wide, tolerance=TOL_QUAD * tolerance_scale))
    reports.append(check_D_integral((1,), 1, near_q(1), params, tolerance=TOL_QUAD * tolerance_scale))
    reports.append(check_D_integral((2, 1), 2, wide_near_q(2), wide, tolerance=TOL_QUAD * tolerance_scale))
    reports.append(check_D_rho_integral((1,), params, tolerance=TOL_QUAD * tolerance_scale))
    reports.append(check_D_rho_integral((2, 0), params, tolerance=TOL_QUAD * tolerance_scale))
    reports.append(check_D_rho_integral((2, 1), wide, tolerance=TOL_QUAD * tolerance_scale))
    # stochastic sum-to-one
    reports.append(check_stoch_sum((2,), near_p(1), params))
    # nested-sum lemma
    Y = rng.standard_normal((3, 8))
    reports.append(check_nested_sum_lemma(3, (2, 3, 5), Y))
    reports.sort(key=lambda r: r.name)
    return reports
