import numpy as np
import pytest

from dynirf.oracle import (
    OCCUPATION_CAP,
    FinitaryVector,
    c_matrix_element,
    occupations_from_parts,
    skew_B_oracle,
    skew_D_oracle,
)
from dynirf.params import random_pack
from dynirf.special import ConvergenceError, FunctionMode, InvalidParameterError
from dynirf.weights import SingularParameterError, plaquette_weights
from reference_routes import apply_operator, parts_from_occupations

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
        # column 0 holds the cap's worth of paths, and b brings one more
        P = random_params()
        v = FinitaryVector.from_parts((0,) * OCCUPATION_CAP, 3)
        with pytest.raises(ConvergenceError):
            apply_operator("b", LAM, 0.4, v, P)


def reference_apply(op, lam, w, v, params, col_offset=0):
    """The operator walk as it was before its per-term branch tables: every
    path node computes its dynamic parameter, checks the cap and asks the
    row callback for its weights."""
    weight_fn = plaquette_weights(params, w)
    eta = params.eta
    global_in = {"a": 0, "c": 0, "b": 1, "d": 1}[op]
    global_out = {"a": 0, "b": 0, "c": 1, "d": 1}[op]
    out = {}
    for occ, coeff in v.terms.items():
        h_old = 0j
        prefix_weights = []
        for j in range(v.n_cols):
            prefix_weights.append(h_old)
            h_old += params.lam(col_offset + j) - 2 * occ[j]
        stack = [(0, global_in, coeff, ())]
        while stack:
            j, carry, amp, new_prefix = stack.pop()
            if j == v.n_cols:
                if carry == global_out:
                    out[new_prefix] = out.get(new_prefix, 0.0 + 0.0j) + amp
                continue
            k = occ[j]
            lam_here = lam - 2 * eta * (prefix_weights[j] - 2 * global_in + 2 * carry)
            moves = []
            if carry == 0:
                moves.append(("A", k, 0))
                if k >= 1:
                    moves.append(("C", k - 1, 1))
            else:
                if k + 1 > OCCUPATION_CAP:
                    raise ConvergenceError(f"occupation cap {OCCUPATION_CAP} hit at column {j}")
                moves.append(("B", k + 1, 0))
                moves.append(("D", k, 1))
            for kind, k_new, carry_out in moves:
                amp_new = amp * weight_fn(kind, k, col_offset + j, lam_here)
                if amp_new != 0:
                    stack.append((j + 1, carry_out, amp_new, new_prefix + (k_new,)))
    return FinitaryVector(out, v.n_cols)


def _hex_items(v):
    return [(occ, complex(c).real.hex(), complex(c).imag.hex()) for occ, c in v.terms.items()]


class TestBitEqualToReferenceWalk:
    MODES = [FunctionMode.elliptic(1.4j), FunctionMode.trigonometric(), FunctionMode.rational()]

    @staticmethod
    def random_vector(rng, n_cols):
        terms = {}
        for _ in range(int(rng.integers(1, 5))):
            occ = tuple(int(m) for m in rng.integers(0, 3, size=n_cols))
            terms[occ] = complex(rng.standard_normal(), rng.standard_normal())
        return FinitaryVector(terms, n_cols)

    @pytest.mark.parametrize("col_offset", [0, 1])
    @pytest.mark.parametrize("mode", MODES, ids=["elliptic", "trig", "rational"])
    @pytest.mark.parametrize("op", "abcd")
    def test_same_terms_in_the_same_order(self, op, mode, col_offset):
        rng = np.random.default_rng(["abcd".index(op), col_offset, len(mode.kind)])
        nonempty = 0
        for _ in range(4):
            P = random_pack(rng, mode)
            v = self.random_vector(rng, int(rng.integers(1, 6)))
            lam = complex(0.3 + 0.2 * rng.standard_normal(), 0.15 + 0.1 * rng.standard_normal())
            w = complex(0.3 + 0.2 * rng.standard_normal(), 0.2 * rng.standard_normal())
            got = apply_operator(op, lam, w, v, P, col_offset)
            want = reference_apply(op, lam, w, v, P, col_offset)
            assert _hex_items(got) == _hex_items(want)
            nonempty += bool(got.terms)
        assert nonempty

    # a full column 0 (b) or 1 (d) that the operator's carry reaches
    @pytest.mark.parametrize(("op", "parts", "n_cols"), [("b", (0,) * OCCUPATION_CAP, 3), ("d", (1,) * OCCUPATION_CAP, 3)])
    def test_cap_error_unchanged(self, op, parts, n_cols):
        P = random_params(seed=13)
        v = FinitaryVector.from_parts(parts, n_cols)
        with pytest.raises(ConvergenceError) as want:
            reference_apply(op, LAM, 0.4, v, P)
        with pytest.raises(ConvergenceError) as got:
            apply_operator(op, LAM, 0.4, v, P)
        assert str(got.value) == str(want.value)


class TestNonFiniteCoefficient:
    # a NaN or infinite coefficient used to empty the vector, so that every
    # coeff read 0, or (NaN stored second) to be dropped alone
    @pytest.mark.parametrize(
        "terms",
        [
            {(1, 0): float("nan"), (0, 1): 1.0},
            {(0, 1): 1.0, (1, 0): float("inf")},
            {(0, 1): 1.0, (1, 0): float("nan")},
        ],
        ids=["nan-first", "inf-second", "nan-second"],
    )
    def test_raises_naming_the_occupation(self, terms):
        with pytest.raises(SingularParameterError, match=r"\(1, 0\)"):
            FinitaryVector(terms, 2)


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
