import numpy as np
import pytest

from dynirf.oracle import (
    CapExceededError,
    FinitaryVector,
    apply_operator,
    c_matrix_element,
    occupations_from_parts,
    parts_from_occupations,
    skew_B_oracle,
    skew_D_oracle,
)
from dynirf.params import random_pack
from dynirf.special import FunctionMode, InvalidParameterError

RNG = np.random.default_rng(41)


def random_params(mode=FunctionMode.trigonometric(), seed=None):
    return random_pack(np.random.default_rng(seed) if seed is not None else RNG, mode)


LAM = 0.31 + 0.17j
W = [0.41 + 0.1j, 0.23 - 0.05j, 0.52 + 0.02j]


class TestOccupations:
    def test_roundtrip(self):
        occ = occupations_from_parts((3, 1, 1, 0), 5)
        assert occ == (1, 2, 0, 1, 0)
        assert parts_from_occupations(occ) == (3, 1, 1, 0)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            occupations_from_parts((5,), 3)


class TestApplyOperator:
    def test_a_fixes_vacuum(self):
        P = random_params()
        v = FinitaryVector.from_parts((), 4)
        out = apply_operator("a", LAM, 0.4, v, P)
        assert abs(out.coeff(()) - 1) < 1e-14 and len(out.terms) == 1

    def test_c_kills_vacuum(self):
        P = random_params()
        v = FinitaryVector.from_parts((), 4)
        assert apply_operator("c", LAM, 0.4, v, P).terms == {}

    def test_b_raises_occupation_by_one(self):
        P = random_params()
        v = FinitaryVector.from_parts((), 3)
        out = apply_operator("b", LAM, 0.4, v, P)
        assert out.terms and all(sum(occ) == 1 for occ in out.terms)

    def test_occupation_conservation(self):
        P = random_params()
        v = FinitaryVector.from_parts((2, 1), 5)
        assert apply_operator("a", LAM, 0.4, v, P).total_occupation() == 2
        assert apply_operator("d", LAM, 0.4, v, P).total_occupation() == 2
        assert apply_operator("b", LAM, 0.4, v, P).total_occupation() == 3
        assert apply_operator("c", LAM, 0.4, v, P).total_occupation() == 1

    def test_cap_exceeded(self):
        P = random_params()
        v = FinitaryVector.from_parts((0,), 3, cap=1)
        with pytest.raises(CapExceededError):
            apply_operator("b", LAM, 0.4, v, P)


class TestSkewOracles:
    def test_empty_variable_list_is_identity(self):
        P = random_params()
        assert skew_B_oracle((2, 1), (2, 1), LAM, [], P) == 1

    def test_b_symmetric_in_ws(self):
        P = random_params()
        a = skew_B_oracle((3, 1, 0), (2,), LAM, W[:2], P)
        b = skew_B_oracle((3, 1, 0), (2,), LAM, [W[1], W[0]], P)
        assert abs(a - b) < 1e-12 * abs(a)

    def test_b_interlacing_vanishing(self):
        P = random_params()
        assert skew_B_oracle((3, 3), (1,), LAM, W[:1], P) == 0

    def test_b_branching(self):
        P = random_params(seed=2)
        nu, mu = (3, 1, 0), (2,)
        lhs = skew_B_oracle(nu, mu, LAM, W[:2], P)
        tot = 0.0
        for a in range(5):
            for b in range(a + 1):
                t1 = skew_B_oracle(nu, (a, b), LAM, W[:1], P)
                if abs(t1) < 1e-18:
                    continue
                tot += t1 * skew_B_oracle((a, b), mu, LAM + 2 * P.eta, [W[1]], P)
        assert abs(lhs - tot) < 1e-10 * abs(lhs)

    def test_d_empty_value(self):
        P = random_params(seed=3)
        got = skew_D_oracle((), (), LAM, W[:2], P)
        want = 1 / (P.f(LAM) * P.f(LAM + 2 * P.eta))
        assert abs(got - want) < 1e-12 * abs(want)

    def test_d_symmetric_and_dominance(self):
        P = random_params(seed=4)
        a = skew_D_oracle((2, 1), (1, 0), LAM, W[:2], P)
        b = skew_D_oracle((2, 1), (1, 0), LAM, [W[1], W[0]], P)
        assert abs(a - b) < 1e-12 * abs(a)
        assert skew_D_oracle((1, 1), (2, 0), LAM, W[:1], P) == 0

    def test_d_branching(self):
        P = random_params(seed=5)
        nu, mu = (2, 1), (1, 0)
        lhs = skew_D_oracle(nu, mu, LAM, W[:2], P)
        tot = 0.0
        for a in range(4):
            for b in range(a + 1):
                t1 = skew_D_oracle((a, b), mu, LAM, W[:1], P)
                if abs(t1) < 1e-18:
                    continue
                tot += t1 * skew_D_oracle(nu, (a, b), LAM + 2 * P.eta, [W[1]], P)
        assert abs(lhs - tot) < 1e-10 * abs(lhs)

    def test_trailing_columns_harmless(self):
        # computing in a wider tensor product changes nothing; this is the
        # column-count independence that skew_B_oracle asserts internally.
        P = random_params(seed=6)
        v1 = skew_B_oracle((2, 1), (1,), LAM, W[:1], P)
        assert abs(v1) > 0


class TestCMatrixElement:
    def test_count_mismatch_vanishes(self):
        P = random_params()
        assert c_matrix_element(W[:1], (1, 1), LAM, P) == 0

    def test_single_application(self):
        # p = 1, one column with k = 1: a single c-coefficient.
        P = random_params(seed=8)
        got = c_matrix_element(W[:1], (1,), LAM, P)
        z, L = P.columns[1]
        eta, f, w = P.eta, P.f, W[0]
        want = (
            -f(-LAM - z + w + (L + 1 - 2) * eta)
            / f(z - w + (L + 1) * eta)
            * f(2 * L * eta)
            / f(LAM)
            * f(2 * eta)
            / f(2 * eta)
        )
        assert abs(got - want) < 1e-12 * abs(want)
