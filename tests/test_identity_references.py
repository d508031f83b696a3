"""The merged skew-Cauchy and D-integral checks against their earlier code.

``check_skew_cauchy`` once had a k = l = 1 twin with its own kappa-sum
loop, and ``check_D_rho_integral`` built its integrand from a one-term
helper of its own.  The references below keep those loops as they were;
the merged code must reproduce their numbers bit for bit on a
trigonometric and on an elliptic pack.
"""

import numpy as np
import pytest

from dynirf import identities as idn
from dynirf.params import check_admissible, pq_grid, preset
from dynirf.special import contour_integral_factored
from dynirf.symfunc import Signature, c_mu, signatures_in_box, skew_B_lattice, skew_D_lattice
from test_elliptic import anchors, elliptic_pack


def ref_skew_cauchy(mu, nu, u, v, params, cap=12):
    """The k = l = 1 skew-Cauchy loop: (lhs, rhs, truncation_info)."""
    mu, nu = Signature(tuple(mu)), Signature(tuple(nu))
    lam, eta, f = params.lambda0, params.eta, params.f
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
            idn._convergence_monitor(u, v, lam, nu.length + 1, params, depth),
            idn._convergence_monitor(u, v, lam, nu.length + 1, params, 2 * depth),
        ],
    }
    return complex(lhs), complex(rhs), info


def ref_kernel_only_term(nu, lam, params, extra_unary):
    f, eta = params.f, params.eta
    kern = idn._kernel_unary(nu, lam, params)
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


def ref_D_rho_lhs(nu, params, nodes=48):
    """The lhs of the rho-specialized D integral, as its own loop built it."""
    nu = Signature(tuple(nu))
    lam, f, eta = params.lambda0, params.f, params.eta
    N = nu.length
    grid = pq_grid(params)
    gammas = check_admissible(params, N, strong=True)

    def extra(x):
        return f(x - grid.p[0]) / f(x - grid.q[0])

    integral = contour_integral_factored(ref_kernel_only_term(nu, lam, params, extra), gammas, nodes=nodes, tol=1e-9)
    pref = (-1.0) ** N * f(2 * eta) ** N / c_mu(nu, lam, params)
    for i in range(N):
        pref /= f(lam + 2 * eta * i)
    return complex(pref * integral)


PACKS = {
    "trig": lambda: preset("trig-admissible"),
    "elliptic": lambda: elliptic_pack(1.2),
}


@pytest.mark.parametrize("pack", sorted(PACKS))
@pytest.mark.parametrize("mu, nu", [((1,), ()), ((2, 1), (1,))])
def test_skew_cauchy_matches_the_k1_l1_loop(pack, mu, nu):
    params = PACKS[pack]()
    u, v = anchors(params, np.random.default_rng(41))
    lhs, rhs, info = ref_skew_cauchy(mu, nu, u, v, params)
    rep = idn.check_skew_cauchy(mu, nu, [u], [v], params)
    assert (rep.lhs, rep.rhs, rep.truncation_info) == (lhs, rhs, info)
    assert rep.passed


@pytest.mark.parametrize("pack", sorted(PACKS))
def test_D_rho_integral_matches_the_kernel_only_term(pack):
    # D_rho itself lives in trigonometric mode, so on the elliptic pack the
    # merged lhs is read from _kernel_integral directly
    params = PACKS[pack]()
    grid = pq_grid(params)
    f, lam = params.f, params.lambda0
    for nu in [(1,), (2, 0)]:
        want = ref_D_rho_lhs(nu, params)
        if pack == "trig":
            got = idn.check_D_rho_integral(nu, params).lhs
        else:
            sig = Signature(nu)
            extra = lambda x: f(x - grid.p[0]) / f(x - grid.q[0])
            got = idn._kernel_integral(sig, 0, extra, idn._strong_family(params, sig.length), params, lam)
        assert complex(got) == want, nu
