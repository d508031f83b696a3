"""Elliptic-mode coverage beyond the formula-level oracle checks.

The Cauchy-type identities, orthogonality relations, and integral
representations hold verbatim for the theta-function realization of f;
these tests run them on elliptic analogues of the admissible packs.
"""

import numpy as np
import pytest

from dynirf.identities import (
    check_D_integral,
    check_orthogonality,
    check_cauchy,
    check_skew_cauchy,
)
from dynirf.params import IrfParams, pq_grid
from dynirf.special import FunctionMode


def elliptic_pack(lam_center: float, tau: complex = 1.5j) -> IrfParams:
    rng = np.random.default_rng(611953)
    eta = 0.04 + 0.01j
    n_cols, n_rows = 20, 10
    zs = 0.1 + 0.01 * (rng.random(n_cols) - 0.5)
    lams = lam_center + 0.05 * (rng.random(n_cols) - 0.5)
    cols = tuple((complex(z), complex(l)) for z, l in zip(zs, lams))
    p_center = complex(np.mean([z + (1 - l) * eta for z, l in cols]))
    ws = p_center + 0.005 * (rng.random(n_rows) - 0.5 + 1j * (rng.random(n_rows) - 0.5))
    return IrfParams(FunctionMode.elliptic(tau), eta, 0.37 + 0.21j, cols, tuple(ws))


@pytest.fixture(scope="module")
def ell():
    return elliptic_pack(1.2)


@pytest.fixture(scope="module")
def ell_wide():
    return elliptic_pack(3.4)


def anchors(params, rng):
    grid = pq_grid(params)
    p0 = complex(np.mean(np.array(grid.p)))
    q0 = complex(np.mean(np.array(grid.q)))
    u = p0 + complex(0.002 * rng.standard_normal(), 0.0015 * rng.standard_normal())
    v = q0 + 0.03 + 0.01j + complex(0.004 * rng.standard_normal(), 0.004 * rng.standard_normal())
    return u, v


class TestEllipticCauchyFamily:
    def test_skew_cauchy(self, ell):
        rng = np.random.default_rng(4)
        u, v = anchors(ell, rng)
        r1 = check_skew_cauchy((1,), (), [u], [v], ell)
        r2 = check_skew_cauchy((2, 1), (1,), [u], [v], ell)
        assert r1.passed and r2.passed
        # the convergence-condition product must decay with depth
        a, b = r1.truncation_info["convergence_product"]
        assert b < a < 1e-10

    def test_general_skew_cauchy(self, ell):
        rng = np.random.default_rng(5)
        us = [anchors(ell, rng)[0] for _ in range(2)]
        vs = [anchors(ell, rng)[1] for _ in range(2)]
        assert check_skew_cauchy((2, 1), (), us, vs, ell).passed

    def test_cauchy(self, ell):
        rng = np.random.default_rng(6)
        u, v = anchors(ell, rng)
        assert check_cauchy([u], [v], ell).passed


class TestEllipticOrthogonality:
    def test_diagonal_and_off_diagonal_m1(self, ell):
        r_diag = check_orthogonality((1,), (1,), ell)
        r_off = check_orthogonality((2,), (1,), ell)
        assert r_diag.passed and r_diag.residual < 1e-6
        assert r_off.passed

    def test_diagonal_m2_wide(self, ell_wide):
        assert check_orthogonality((2, 1), (2, 1), ell_wide).passed

    def test_D_integral(self, ell):
        rng = np.random.default_rng(7)
        _, v = anchors(ell, rng)
        assert check_D_integral((1,), 1, [v], ell).passed
