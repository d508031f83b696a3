import hashlib
import itertools

import numpy as np
import pytest

from dynirf.oracle import c_matrix_element, skew_B_oracle, skew_D_oracle
from dynirf.params import IrfParams, pq_grid, preset, random_pack
from dynirf.special import FunctionMode, InvalidParameterError
from dynirf.symfunc import (
    _perm_sum,
    _row_sweep,
    _strip,
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
from dynirf.weights import SingularParameterError, plaquette_weights

RNG = np.random.default_rng(99)


def random_params(mode=FunctionMode.trigonometric(), rng=RNG):
    return random_pack(rng, mode)


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
            assert tail["converged"]
            assert abs(total - 1) < 1e-6
            assert tail["tail_estimate"] < 1e-7

    def test_spin_half_repeated_parts_vanish(self):
        # With Lambda = 1 everywhere, no stochastic configuration can stack
        # two paths on a vertical edge.
        P = preset("dyn6v-positive")
        val = skew_B_lattice((2, 2), (), P.lambda0, [P.w(1), P.w(2)], P, stochastic=True)
        assert abs(val) < 1e-12
        val2 = skew_B_lattice((3, 3, 1), (3, 1), P.lambda0, [P.w(1)], P, stochastic=True)
        assert abs(val2) < 1e-12

    @pytest.mark.parametrize("nu, cap", [((21,), 20), ((26,), 25), ((2,), 1), ((), 0)])
    def test_sum_rejects_caps_outside_the_pack(self, nu, cap):
        # the cap is n_cols - 2, so the pack's columns (cycled or cut to
        # cap + 2) set it: a cap below max(nu_1, 1) leaves no kappa, and
        # used to return (0, converged=False)
        cols = (self.P.columns * 2)[: cap + 2]
        P = IrfParams(self.P.mode, self.P.eta, self.P.lambda0, cols, self.P.rows)
        with pytest.raises(InvalidParameterError, match=f"cap n_cols - 2 = {cap} is below"):
            stoch_B_sum(nu, self.lam, [0.1], P)

    def test_stochastic_requires_positive_parts(self):
        # stoch_B_sum((2, 0), ...) used to drop the 0 part and return the sum for nu = (2,)
        for call in (
            lambda: skew_B_lattice((2, 0), (0,), self.lam, [0.1], self.P, stochastic=True),
            lambda: stoch_B_sum((2, 0), self.lam, [0.1], self.P),
        ):
            with pytest.raises(InvalidParameterError):
                call()


def d_row(P, nu, kappa, lam_row, w, last):
    """One D row from nu to kappa over the columns 0..last, factor written out."""
    eta, f = P.eta, P.f
    tops = kappa.occupations(0, last)
    sweep = _row_sweep(P, {nu.occupations(0, last): 1.0 + 0.0j}, 0, lam_row, plaquette_weights(P, w, False), tops)
    amp, lam_x = sweep.get((tops, 1), 0.0 + 0.0j), lam_row
    for x in range(last + 1):
        amp *= f(P.z(x) - w + (P.lam(x) + 1) * eta) / f(P.z(x) - w + (1 - P.lam(x)) * eta)
        lam_x += 4 * eta * tops[x] - 2 * eta * P.lam(x)
    return amp / f(lam_x)


class TestStrip:
    """``_strip``'s whole law against its end-mode value, kappa by kappa."""

    @staticmethod
    def assert_law_matches(law, box, value):
        # every signature of the box, in the law or not, against the value
        # the end mode gives it; the law holds nothing outside the box
        box = list(box)
        assert set(law) <= set(box)
        for sig in box:
            want = value(sig)
            assert abs(law.get(sig, 0.0) - want) <= 1e-13 * max(1.0, abs(want)), sig

    @pytest.mark.parametrize("mode", [FunctionMode.trigonometric(), FunctionMode.elliptic(1.5j)], ids=["trig", "elliptic"])
    def test_B_law_matches_end_mode(self, mode):
        rng = np.random.default_rng(61)
        P, lam, ws = random_params(mode=mode, rng=rng), rand_lam(rng), rand_ws(2, rng)
        law = _strip((2,), lam, ws, P, "B", cap=5)
        assert len(law) > 10
        self.assert_law_matches(law, signatures_in_box((0, 0, 0), (5, 5, 5)), lambda kappa: skew_B_lattice(kappa, (2,), lam, ws, P))

    @pytest.mark.parametrize("mode", [FunctionMode.trigonometric(), FunctionMode.elliptic(1.5j)], ids=["trig", "elliptic"])
    def test_D_law_matches_end_mode(self, mode):
        rng = np.random.default_rng(62)
        P, lam, ws = random_params(mode=mode, rng=rng), rand_lam(rng), rand_ws(2, rng)
        law = _strip((4, 2, 1), lam, ws, P, "D")
        assert len(law) > 10
        self.assert_law_matches(law, signatures_in_box((0, 0, 0), (4, 4, 4)), lambda mu: skew_D_lattice((4, 2, 1), mu, lam, ws, P))

    def test_stochastic_law_matches_end_mode(self):
        P = preset("trig-admissible")
        rng = np.random.default_rng(63)
        us = [complex(pq_grid(P).p[1]) + 0.002 * rng.standard_normal() + 0.0015j * rng.standard_normal() for _ in range(2)]
        law = _strip((3, 1), 0.41 + 0.23j, us, P, "stoch", cap=6)
        assert len(law) > 10
        self.assert_law_matches(
            law, signatures_in_box((1,) * 4, (6,) * 4), lambda kappa: skew_B_lattice(kappa, (3, 1), 0.41 + 0.23j, us, P, stochastic=True)
        )

    @pytest.mark.parametrize("pack", ["trig-admissible", "trig-admissible-wide"])
    @pytest.mark.parametrize("nu, kappa", [((3, 1), (2, 1)), ((3, 1), (1, 0)), ((2, 2), (2, 0)), ((1,), (0,))])
    def test_D_row_unchanged_by_empty_columns(self, pack, nu, kappa):
        # the kernel runs every D row of a strip over columns 0..start_1,
        # past the row's own last part: empty columns must telescope away
        P = preset(pack)
        nu, kappa = Signature(nu), Signature(kappa)
        lam, w = 0.37 + 0.21j, 0.31 - 0.08j
        base = d_row(P, nu, kappa, lam, w, nu.max_part())
        assert abs(base) > 1e-8
        assert abs(skew_D_lattice(nu, kappa, lam, [w], P) - base) <= 1e-15 * abs(base)
        for extra in (1, 2, 5):
            assert abs(d_row(P, nu, kappa, lam, w, nu.max_part() + extra) - base) <= 1e-14 * abs(base), extra

    def test_column_check(self):
        P = random_params()
        with pytest.raises(InvalidParameterError, match="columns"):
            _strip((2,), 0.3, [0.1], P, "B", cap=P.n_cols)
        with pytest.raises(InvalidParameterError, match="columns"):
            skew_D_lattice((P.n_cols - 1,), (1,), 0.3, [0.1], P)


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
        want = (f(2 * eta) / P.mode.fp0) ** M
        for i in range(M):
            want /= f(lam + 2 * eta * i)
        for j in range(M):
            want *= f(lam + 2 * eta * (M + j - P.lam_sum(0, x + 1)))
            want *= f(lam + 2 * eta * (j + 1 - P.lam_sum(0, x)))
            want /= f(2 * eta * (P.lam(x) - j))
        assert abs(got - want) < 1e-12 * abs(want)

    def test_c_mu_zero_block_norm_is_singular(self):
        # dyn6v-positive has Lambda = 1 on its columns: the part 1 repeated
        # makes the block norm f(2*eta*(1 - 1)) = 0, which was a bare
        # ZeroDivisionError
        P = preset("dyn6v-positive")
        with pytest.raises(SingularParameterError, match=r"c_mu of \(1, 1\)"):
            c_mu((1, 1), P.lambda0, P)

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
        from dynirf.oracle import occupations_from_parts
        from reference_routes import parts_from_occupations

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


class TestPermSum:
    def test_matches_brute_force_over_injective_maps(self):
        rng = np.random.default_rng(2024)
        for n, N in ((0, 3), (1, 4), (2, 2), (3, 5)):
            U = rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))
            C = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            terms = [
                np.prod([C[t[a], t[b]] for a in range(n) for b in range(a + 1, n)]) * np.prod([U[i, t[i]] for i in range(n)])
                for t in itertools.permutations(range(N), n)
            ]
            total, size = _perm_sum(U.tolist(), C.tolist())
            assert abs(total - sum(terms)) <= 1e-13 * sum(map(abs, terms)), (n, N)
            assert abs(size - sum(map(abs, terms))) <= 1e-13 * size, (n, N)

    def test_zero_signature_D_takes_coincident_points(self):
        # with no nonzero part D_nu reads no pair factor, so no f(v_i - v_j)
        # denominator may be evaluated at coincident v's
        P = preset("trig-admissible")
        lam, vs = 0.3 + 0.1j, [0.2 + 0.05j] * 2
        for nu in ((0, 0), (0, 0, 0)):
            want = skew_D_lattice(nu, (0,) * len(nu), lam, vs, P)
            assert abs(D_nu(nu, lam, vs, P) - want) <= 1e-12 * abs(want)

    def test_each_factor_is_evaluated_once_per_table_entry(self, monkeypatch):
        # the permutation sums used to re-evaluate every f-ratio once per
        # term: 30,269 f's for the m = 6 lemma and 43,848 for the residue
        # sum below; one table entry per (slot, point) and per point pair
        # needs 161 and 873
        import dynirf.identities as idn
        from dynirf.observables import ObservableSpec, _irf_residue_sum

        calls = []
        mode = FunctionMode.elliptic(1.5j)
        real_f = mode.f
        monkeypatch.setitem(vars(mode), "f", lambda x: calls.append(x) or real_f(x))
        vs = [0.11 + 0.05j, 0.23 - 0.02j, 0.37 + 0.04j, 0.52 + 0.01j, 0.68 - 0.03j, 0.81 + 0.02j]
        idn.check_symmetrization_lemma(6, vs, 0.17 + 0.03j, mode)
        assert 0 < len(calls) <= 200

        calls.clear()
        params = preset("dyn6v-positive")
        real_f = params.mode.f
        monkeypatch.setitem(vars(params.mode), "f", lambda x: calls.append(x) or real_f(x))
        _irf_residue_sum(ObservableSpec((9, 6, 3), 9), params)
        assert 0 < len(calls) <= 1000


class TestFormulaPin:
    def test_closed_forms_pinned(self):
        # B_mu, D_nu, c_mu, c_matrix_formula in both f-modes and D_rho,
        # stoch_B_formula in trigonometric mode, on signatures with repeated
        # and zero parts: every value bit for bit, so a change to the shared
        # part shift, block norm or ratio chain must reproduce each rounding
        out = []
        lams = (0.31 + 0.17j, -0.12 + 0.26j)
        for mode in (FunctionMode.trigonometric(), FunctionMode.elliptic(1.4j)):
            P = random_pack(np.random.default_rng(5), mode)
            us = [0.27 + 0.08j, 0.41 - 0.05j, 0.19 + 0.13j, 0.36 + 0.02j]
            for lam in lams:
                for mu in ((2,), (2, 2), (3, 1, 1), (2, 1, 0), (1, 1, 1), (4, 2, 2, 0)):
                    out.append(B_mu(mu, lam, us[: len(mu)], P))
                    out.append(c_mu(mu, lam, P))
                for nu, n in (((2,), 1), ((2, 0), 2), ((3, 3, 1), 3), ((2, 1, 0), 3), ((1, 1, 0, 0), 3), ((0, 0), 2)):
                    out.append(D_nu(nu, lam, us[:n], P))
                for ks in ((1,), (2, 1), (1, 0, 2), (0, 1, 1, 1), (2, 2)):
                    out.append(c_matrix_formula(us[: sum(ks)], ks, lam, P))
                if mode.kind == "trigonometric":
                    for nu in ((1,), (2, 2), (3, 1, 1)):
                        out.append(D_rho(nu, lam, P))
                    for kappa, nu, k in (((3, 1), (2,), 1), ((2, 2, 1), (1,), 2), ((3, 2, 1), (2, 1), 1)):
                        out.append(stoch_B_formula(kappa, nu, lam, us[:k], P))
        text = "\n".join(repr(complex(v)) for v in out)
        assert len(out) == 104
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "8da38e80f9e1328c"
