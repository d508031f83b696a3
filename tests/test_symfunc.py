import itertools

import numpy as np
import pytest

from dynirf.oracle import c_matrix_element, skew_B_oracle, skew_D_oracle
from dynirf.params import IrfParams, pq_grid, preset
from dynirf.special import FunctionMode, InvalidParameterError
from dynirf.symfunc import (
    B_mu,
    D_nu,
    D_rho,
    Signature,
    c_matrix_formula,
    c_mu,
    normalize,
    phi,
    psi,
    signatures_in_box,
    skew_B_lattice,
    skew_D_lattice,
    stoch_B_formula,
    stoch_B_sum,
)

RNG = np.random.default_rng(99)


def random_params(n_cols=9, mode=FunctionMode.trigonometric(), rng=RNG):
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


def rand_lam(rng=RNG):
    return complex(0.3 + 0.2 * rng.standard_normal(), 0.15 + 0.1 * rng.standard_normal())


def rand_ws(n, rng=RNG):
    return [complex(a, b) for a, b in 0.3 + 0.2 * rng.standard_normal((n, 2))]


class TestSignature:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            Signature((1, 2))
        with pytest.raises(InvalidParameterError):
            Signature((-1,))

    def test_views(self):
        s = Signature((3, 1, 1, 0))
        assert s.length == 4
        assert s.multiplicity(1) == 2
        assert s.n_less(3) == 3
        assert s.nonzero() == (3, 1, 1)


class TestPhiPsi:
    def test_base_cases(self):
        P = random_params()
        grid = pq_grid(P)
        u = 0.4 + 0.1j
        assert abs(phi(0, u, grid, P.mode) - 1 / P.f(u - grid.q[0])) < 1e-14
        assert abs(psi(0, u, grid, P.mode) - 1 / P.f(u - grid.p[0])) < 1e-14

    def test_phi1_rearrangement(self):
        P = random_params()
        grid = pq_grid(P)
        u = 0.37 - 0.21j
        val = phi(1, u, grid, P.mode) * P.f(u - grid.q[1]) * P.f(u - grid.q[0]) / P.f(u - grid.p[0])
        assert abs(val - 1) < 1e-12


@pytest.mark.parametrize("mode", [FunctionMode.trigonometric(), FunctionMode.elliptic(1.4j)], ids=["trig", "elliptic"])
class TestOracleEquivalence:
    """The closed formulas against the operator oracle, both f-modes."""

    def test_B_mu(self, mode):
        rng = np.random.default_rng(17)
        for _ in range(6):
            P = random_params(mode=mode, rng=rng)
            lam = rand_lam(rng)
            mu = tuple(sorted(rng.integers(0, 5, size=rng.integers(1, 4)))[::-1])
            us = rand_ws(len(mu), rng)
            want = skew_B_oracle(mu, (), lam, us, P)
            got = B_mu(mu, lam, us, P)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_B_empty(self, mode):
        P = random_params(mode=mode)
        assert B_mu((), rand_lam(), [], P) == 1

    def test_B_symmetric_in_us(self, mode):
        P = random_params(mode=mode)
        lam = rand_lam()
        us = rand_ws(3)
        vals = {B_mu((2, 1, 0), lam, [us[i] for i in p], P) for p in itertools.permutations(range(3))}
        ref = vals.pop()
        assert all(abs(v - ref) < 1e-10 * abs(ref) for v in vals)

    def test_D_nu(self, mode):
        rng = np.random.default_rng(23)
        for _ in range(6):
            P = random_params(mode=mode, rng=rng)
            lam = rand_lam(rng)
            nu = tuple(sorted(rng.integers(0, 5, size=rng.integers(1, 4)))[::-1])
            n = int(rng.integers(max(1, len([p for p in nu if p > 0])), 4))
            vs = rand_ws(n, rng)
            want = skew_D_oracle(nu, (0,) * len(nu), lam, vs, P)
            got = D_nu(nu, lam, vs, P)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_D_zero_signature_reduces_to_empty_subset(self, mode):
        P = random_params(mode=mode)
        lam = rand_lam()
        vs = rand_ws(2)
        want = skew_D_oracle((0, 0), (0, 0), lam, vs, P)
        got = D_nu((0, 0), lam, vs, P)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_D_too_many_nonzero_parts(self, mode):
        P = random_params(mode=mode)
        assert D_nu((2, 1), rand_lam(), rand_ws(1), P) == 0

    def test_c_formula(self, mode):
        rng = np.random.default_rng(31)
        for ks in [(1,), (2, 0), (1, 1, 0), (2, 1)]:
            P = random_params(mode=mode, rng=rng)
            lam = rand_lam(rng)
            ws = rand_ws(sum(ks), rng)
            want = c_matrix_element(ws, ks, lam, P)
            got = c_matrix_formula(ws, ks, lam, P)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_c_formula_count_mismatch(self, mode):
        P = random_params(mode=mode)
        assert c_matrix_formula(rand_ws(1), (1, 1), rand_lam(), P) == 0


class TestLatticeDP:
    def test_plain_matches_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            P = random_params(rng=rng)
            lam = rand_lam(rng)
            kappa = (4, 2, 1)
            nu = (3, 1)
            us = rand_ws(1, rng)
            want = skew_B_oracle(kappa, nu, lam, us, P)
            got = skew_B_lattice(kappa, nu, lam, us, P)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_multirow_matches_oracle(self):
        P = random_params(rng=np.random.default_rng(54))
        lam = rand_lam()
        us = rand_ws(2)
        want = skew_B_oracle((3, 2, 0), (1,), lam, us, P)
        got = skew_B_lattice((3, 2, 0), (1,), lam, us, P)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_skew_D_matches_oracle(self):
        P = random_params(rng=np.random.default_rng(55))
        lam = rand_lam()
        ws = rand_ws(2)
        want = skew_D_oracle((3, 1), (1, 0), lam, ws, P)
        got = skew_D_lattice((3, 1), (1, 0), lam, ws, P)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_normalize(self):
        P = random_params()
        lam = rand_lam()
        assert normalize(2.5, lam, 0, P) == 2.5
        assert abs(normalize(1.0, lam, 1, P) - P.f(lam)) < 1e-14
        val = 0.3 + 0.1j
        got = normalize(val, lam, 3, P)
        want = val * P.f(lam) * P.f(lam + 2 * P.eta) * P.f(lam + 4 * P.eta)
        assert abs(got - want) < 1e-13 * abs(want)


class TestStochasticB:
    def setup_method(self):
        self.P = preset("trig-admissible")
        self.grid = pq_grid(self.P)
        self.lam = 0.41 + 0.23j

    def us(self, k, rng):
        return [
            complex(self.grid.p[1]) + 0.002 * rng.standard_normal() + 0.0015j * rng.standard_normal()
            for _ in range(k)
        ]

    def test_single_part_product_form(self):
        # One part K: a run of d0 plaquettes through columns 1..K-1 and a
        # final b0, with fillings lambda - 2*eta*Lambda_[0,j).
        from dynirf.weights import WeightContext, weight

        rng = np.random.default_rng(1)
        u = self.us(1, rng)[0]
        K = 5
        got = skew_B_lattice((K,), (), self.lam, [u], self.P, stochastic=True)
        want = 1.0 + 0.0j
        for j in range(1, K + 1):
            lam_j = self.lam - 2 * self.P.eta * self.P.lam_sum(0, j)
            kind = "D" if j < K else "B"
            ctx = WeightContext(lam_j, u, self.P.z(j), self.P.lam(j), self.P.eta, self.P.mode)
            want *= weight(kind, 0, ctx, stochastic=True)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_dp_equals_conjugation_formula(self):
        rng = np.random.default_rng(2)
        cases = [((3, 1), (), 2), ((4, 2, 1), (2,), 2), ((3, 2), (2,), 1), ((4, 4, 1), (4,), 2)]
        for kappa, nu, k in cases:
            us = self.us(k, rng)
            a = skew_B_lattice(kappa, nu, self.lam, us, self.P, stochastic=True)
            b = stoch_B_formula(kappa, nu, self.lam, us, self.P)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))

    def test_sum_to_one(self):
        rng = np.random.default_rng(3)
        for nu, k in [((), 1), ((2,), 1), ((3, 1), 2)]:
            total, tail = stoch_B_sum(nu, self.lam, self.us(k, rng), self.P)
            assert tail.converged
            assert abs(total - 1) < 1e-6
            assert tail.tail_estimate < 1e-7

    def test_spin_half_repeated_parts_vanish(self):
        # With Lambda = 1 everywhere, no stochastic configuration can stack
        # two paths on a vertical edge.
        P = preset("dyn6v-positive")
        val = skew_B_lattice((2, 2), (), P.lambda0, [P.w(1), P.w(2)], P, stochastic=True)
        assert abs(val) < 1e-12
        val2 = skew_B_lattice((3, 3, 1), (3, 1), P.lambda0, [P.w(1)], P, stochastic=True)
        assert abs(val2) < 1e-12

    def test_stochastic_requires_positive_parts(self):
        with pytest.raises(InvalidParameterError):
            skew_B_lattice((2, 0), (0,), self.lam, [0.1], self.P, stochastic=True)


class TestNormConstants:
    def test_c_mu_single_cluster_formula(self):
        # All parts equal: the in-proof per-cluster product, including the
        # prefactor, against the general formula.
        P = random_params(rng=np.random.default_rng(77))
        lam = rand_lam()
        M, x = 3, 2
        mu = (x,) * M
        got = c_mu(mu, lam, P)
        f, eta = P.f, P.eta
        want = (f(2 * eta) / P.fp0()) ** M
        for i in range(M):
            want /= f(lam + 2 * eta * i)
        for j in range(M):
            want *= f(lam + 2 * eta * (M + j - P.lam_sum(0, x + 1)))
            want *= f(lam + 2 * eta * (j + 1 - P.lam_sum(0, x)))
            want /= f(2 * eta * (P.lam(x) - j))
        assert abs(got - want) < 1e-12 * abs(want)

    def test_D_rho_empty_and_zero_part(self):
        P = preset("trig-admissible")
        assert D_rho((), 0.3 + 0.2j, P) == 1
        assert D_rho((2, 0), 0.3 + 0.2j, P) == 0

    def test_D_rho_single_part_identity(self):
        # D^norm_(K)(lam; rho) in closed form, cf. the one-row base case of
        # the stochastic-weight theorem.
        P = preset("trig-admissible")
        lam = 0.37 + 0.19j
        K = 3
        f, eta = P.f, P.eta
        want = (
            f(lam + 2 * eta - 2 * eta * P.lam(0))
            * (-f(2 * eta * P.lam(K)))
            / (f(lam + 2 * eta - 2 * eta * P.lam_sum(0, K)) * f(lam + 2 * eta - 2 * eta * P.lam_sum(0, K + 1)))
        )
        got = D_rho((K,), lam, P)
        assert abs(got - want) < 1e-10 * abs(want)

    def test_D_rho_needs_trig(self):
        P = random_params(mode=FunctionMode.elliptic(2j))
        with pytest.raises(InvalidParameterError):
            D_rho((1,), 0.2, P)


class TestSignatureProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_occupation_roundtrip(self, parts):
        from dynirf.oracle import occupations_from_parts, parts_from_occupations

        parts = tuple(sorted(parts, reverse=True))
        occ = occupations_from_parts(parts, 10)
        assert parts_from_occupations(occ) == parts
        assert sum(occ) == len(parts)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(-1, 5)), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_box_enumerator_matches_product_filter(self, bounds):
        # lows[i] <= kappa_i <= highs[i], weakly decreasing, lexicographic;
        # a negative span gives an empty range
        lows = tuple(lo for lo, _ in bounds)
        highs = tuple(lo + span for lo, span in bounds)
        ranges = [range(lo, hi + 1) for lo, hi in zip(lows, highs)]
        want = [c for c in itertools.product(*ranges) if all(c[i] >= c[i + 1] for i in range(len(c) - 1))]
        assert [sig.parts for sig in signatures_in_box(lows, highs)] == want

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_multiplicity_views_consistent(self, parts):
        sig = Signature(tuple(sorted(parts, reverse=True)))
        mults = sig.multiplicities()
        assert sum(mults.values()) == sig.length
        rebuilt = []
        for value in sorted(mults, reverse=True):
            rebuilt.extend([value] * mults[value])
        assert tuple(rebuilt) == sig.parts
        for k in range(11):
            assert sig.n_less(k) == sum(m for v, m in mults.items() if v < k)
