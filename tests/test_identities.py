import json

import numpy as np
import pytest

from dynirf.identities import (
    check_cauchy_rho,
    check_degenerate_weights,
    check_D_integral,
    check_D_rho_integral,
    check_nested_sum_lemma,
    check_oracle_formulas,
    check_orthogonality,
    check_cauchy,
    check_pieri,
    check_pieri2,
    check_skew_cauchy,
    check_stoch_sum,
    check_stochasticity,
    check_symmetrization_lemma,
)
from dynirf import asymptotics, identities, observables
from dynirf.asymptotics import regime_moment_check
from dynirf.observables import ObservableSpec, lambda_independence_report
from dynirf.oracle import skew_B_oracle
from dynirf.params import params_from_json_dict, pq_grid, preset
from dynirf.special import CheckReport, FunctionMode, InvalidParameterError
from dynirf.symfunc import B_mu
from dynirf.weights import SingularParameterError, WeightContext, weight

RNG = np.random.default_rng(2024)
TRIG = FunctionMode.trigonometric()


@pytest.fixture(scope="module")
def trig():
    return preset("trig-admissible")


@pytest.fixture(scope="module")
def wide():
    return preset("trig-admissible-wide")


def near_p(params, k, rng):
    grid = pq_grid(params)
    p0 = complex(np.mean(np.array(grid.p)))
    return [p0 + complex(0.002 * rng.standard_normal(), 0.0015 * rng.standard_normal()) for _ in range(k)]


def near_q(params, k, rng, off=0.03 + 0.01j):
    grid = pq_grid(params)
    q0 = complex(np.mean(np.array(grid.q)))
    return [q0 + off + complex(0.004 * rng.standard_normal(), 0.004 * rng.standard_normal()) for _ in range(k)]


class TestCheckReport:
    def test_invariant_and_serialization(self):
        r = CheckReport("x", {"a": 1}, 1.0 + 1e-12j, 1.0, tolerance=1e-10)
        assert r.passed and r.status == "passed"
        d = r.to_json_dict()
        assert json.dumps(d)  # serializes losslessly
        assert d["lhs"] == [1.0, 1e-12]

    def test_warning_status(self):
        r = CheckReport("x", {}, 1.0, 1.0, tolerance=1e-7, truncation_info={"tail_estimate": 1e-7})
        assert r.status == "passed-with-warning"

    def test_failed(self):
        r = CheckReport("x", {}, 2.0, 1.0, tolerance=1e-10)
        assert not r.passed and r.status == "failed"


class TestSymmetrization:
    def test_m1_trivial(self):
        r = check_symmetrization_lemma(1, [0.3 + 0.2j], 0.17, TRIG)
        assert r.passed and abs(r.rhs - 1) < 1e-14

    @pytest.mark.parametrize("mode", [TRIG, FunctionMode.elliptic(1.5j)], ids=["trig", "ell"])
    def test_m3_random(self, mode):
        vs = [complex(a, b) for a, b in 0.4 * RNG.standard_normal((3, 2))]
        r = check_symmetrization_lemma(3, vs, 0.21 + 0.08j, mode)
        assert r.passed

    def test_single_term_at_special_points(self):
        # vs = (beta, 2*beta, 3*beta): exactly one permutation contributes.
        import itertools

        beta = 0.19 + 0.07j
        vs = [beta, 2 * beta, 3 * beta]
        r = check_symmetrization_lemma(3, vs, beta, TRIG)
        assert r.passed
        f = TRIG.f
        nonzero = 0
        for perm in itertools.permutations(range(3)):
            term = 1.0 + 0j
            for a in range(3):
                for b in range(a + 1, 3):
                    term *= f(vs[perm[a]] - vs[perm[b]] - beta) / f(vs[perm[a]] - vs[perm[b]])
            for k in range(1, 4):
                term *= f(vs[perm[k - 1]] + (3 - 2 * k + 1) * beta) / f(vs[perm[k - 1]])
            if abs(term) > 1e-12:
                nonzero += 1
        assert nonzero == 1


class TestSeriesIdentities:
    def test_skew_cauchy_seed(self, trig):
        rng = np.random.default_rng(5)
        u, v = near_p(trig, 1, rng)[0], near_q(trig, 1, rng)[0]
        r = check_skew_cauchy((0,), (), [u], [v], trig)
        assert r.passed, r.residual

    def test_skew_cauchy_small(self, trig):
        rng = np.random.default_rng(6)
        u, v = near_p(trig, 1, rng)[0], near_q(trig, 1, rng)[0]
        r = check_skew_cauchy((2, 1), (1,), [u], [v], trig)
        assert r.passed and r.residual < 1e-7

    def test_skew_cauchy_general_k2l2(self, trig):
        rng = np.random.default_rng(7)
        r = check_skew_cauchy((2, 1), (), near_p(trig, 2, rng), near_q(trig, 2, rng), trig)
        assert r.passed

    def test_skew_cauchy_rhs_sums_every_rho_below_nu(self, trig):
        # the rhs used to sum over rho >= nu, where D_{nu/rho} vanishes
        # unless rho = nu: (3, 1)/(2,) lost its rho = (1,) term and failed
        # with residual 6.4e-5
        rng = np.random.default_rng(8)
        r = check_skew_cauchy((3, 1), (2,), near_p(trig, 1, rng), near_q(trig, 1, rng), trig)
        assert r.passed and r.residual < 1e-12, r.residual

    def test_pieri_variants(self, trig):
        rng = np.random.default_rng(8)
        r1 = check_pieri2((), near_p(trig, 1, rng)[0], near_q(trig, 1, rng), trig)
        r2 = check_pieri((2, 1), near_p(trig, 2, rng), near_q(trig, 1, rng)[0], trig)
        r3 = check_cauchy(near_p(trig, 1, rng), near_q(trig, 1, rng), trig)
        assert r1.passed and r2.passed and r3.passed

    def test_cauchy_rhs_structure_at_p0(self, trig):
        # at u = p_0 the closed factor reduces to the displayed f-call
        from dynirf.identities import _b0k_norm_factor

        grid = pq_grid(trig)
        lam, k = 0.31 + 0.2j, 2
        u = grid.p[0]
        z0, L0 = trig.columns[0]
        direct = trig.f(2 * trig.eta) * trig.f(lam - z0 + u + trig.eta * (-L0 + 2 * k - 1)) / trig.f(
            z0 - u + (L0 + 1) * trig.eta
        )
        assert abs(_b0k_norm_factor(k, lam, u, trig) - direct) < 1e-14 * abs(direct)

    def test_cauchy_rho(self, trig):
        rng = np.random.default_rng(9)
        r1 = check_cauchy_rho(1, near_p(trig, 1, rng), trig)
        us = near_p(trig, 1, rng) * 2
        r2 = check_cauchy_rho(2, us, trig)  # coincident arguments stay defined
        assert r1.passed and r2.passed

    def test_bad_shapes(self, trig):
        with pytest.raises(InvalidParameterError):
            check_skew_cauchy((1,), (1,), [0.1], [0.2], trig)
        with pytest.raises(InvalidParameterError, match="len"):
            check_pieri((2, 1), [0.1], 0.2, trig)
        with pytest.raises(InvalidParameterError, match="needs us and vs"):
            check_cauchy([0.1], [], trig)


class TestQuadratureIdentities:
    def test_orthogonality_diagonal_m1(self, trig):
        r = check_orthogonality((1,), (1,), trig)
        assert r.passed and r.residual < 1e-6

    def test_orthogonality_offdiagonal(self, trig):
        r = check_orthogonality((2,), (1,), trig)
        assert r.passed
        assert abs(r.lhs) < 1e-6 * max(1.0, abs(complex(*r.parameters["c_mu"])))

    def test_orthogonality_m2_diagonal(self, wide):
        r = check_orthogonality((2, 1), (2, 1), wide)
        assert r.passed, r.residual

    def test_orthogonality_evaluates_each_distinct_binary_once(self, wide, monkeypatch):
        # B_(2,1,1) gives 3! permutation terms, each with a binary on the
        # pairs its sigma inverts: 9 binaries in all, which share 3 distinct
        # (pair, closure) factors: 3 matrix evaluations per level.  Wrapping
        # every term's binaries apart brings back 9 per level, and the lhs
        # does not move by a bit.
        import dynirf.identities as idn

        real = idn.contour_integral_factored
        calls = []

        def counting(fn):
            def wrapped(x, y):
                calls.append(np.shape(y)[-1])
                return fn(x, y)

            return wrapped

        def spy(share):
            def run(terms, *args, **kwargs):
                wrappers = {}

                def wrap(fn):
                    return wrappers.setdefault(fn, counting(fn)) if share else counting(fn)

                return real([(u, {k: wrap(fn) for k, fn in b.items()}) for u, b in terms], *args, **kwargs)

            return run

        lhs = {}
        for share, per_level in ((True, 3), (False, 9)):
            calls.clear()
            monkeypatch.setattr(idn, "contour_integral_factored", spy(share))
            lhs[share] = check_orthogonality((2, 1, 1), (2, 1, 1), wide).lhs
            levels = sorted(set(calls))
            assert len(levels) >= 2
            assert [calls.count(n) for n in levels] == [per_level] * len(levels)
        assert lhs[True] == lhs[False]

    def test_orthogonality_evaluates_each_distinct_unary_once(self, wide, monkeypatch):
        # the 3! terms of B_(2,1,1) carry 18 unaries, which share 9 distinct
        # (slot, variable) closures: 9 vector evaluations per level, 27 over
        # the 3 levels.  Wrapping every term's unaries apart brings back 18
        # per level, and the lhs does not move by a bit.
        import dynirf.identities as idn

        real = idn.contour_integral_factored
        calls = []

        def counting(fn):
            def wrapped(x):
                calls.append(np.size(x))
                return fn(x)

            return wrapped

        def spy(share):
            def run(terms, *args, **kwargs):
                wrappers = {}

                def wrap(fn):
                    return wrappers.setdefault(fn, counting(fn)) if share else counting(fn)

                return real([([wrap(fn) for fn in u], b) for u, b in terms], *args, **kwargs)

            return run

        lhs, total = {}, {}
        for share, per_level in ((True, 9), (False, 18)):
            calls.clear()
            monkeypatch.setattr(idn, "contour_integral_factored", spy(share))
            lhs[share] = check_orthogonality((2, 1, 1), (2, 1, 1), wide).lhs
            levels = sorted(set(calls))
            assert len(levels) == 3
            assert [calls.count(n) for n in levels] == [per_level] * len(levels)
            total[share] = len(calls)
        assert total == {True: 27, False: 54}
        assert lhs[True] == lhs[False]

    def test_bmu_terms_carry_the_inverted_pairs_only(self, wide):
        # B_mu's cross factor on a pair sigma keeps in order cancels the
        # kernel's, so that pair has no binary; an inverted pair keeps one
        import itertools

        from dynirf.identities import _bmu_factored_terms
        from dynirf.symfunc import Signature

        mu = Signature((3, 2, 1, 1))
        _, terms = _bmu_factored_terms(mu, mu, wide.lambda0, wide)
        sigmas = list(itertools.permutations(range(4)))
        assert len(terms) == len(sigmas)
        for sigma, (unaries, binaries) in zip(sigmas, terms):
            inverted = {(a, b) for a in range(4) for b in range(a + 1, 4) if sigma.index(a) > sigma.index(b)}
            assert len(unaries) == 4 and set(binaries) == inverted, sigma

    def test_D_integral(self, trig):
        rng = np.random.default_rng(11)
        r = check_D_integral((1,), 1, near_q(trig, 1, rng), trig)
        assert r.passed, r.residual

    def test_D_rho_integral_and_vanishing(self, trig):
        r1 = check_D_rho_integral((1,), trig)
        r2 = check_D_rho_integral((2, 0), trig)  # nu_N = 0: integral vanishes
        assert r1.passed and r2.passed
        assert abs(r2.lhs) < 1e-10 and r2.rhs == 0

    def test_lambda_dependent_identities_at_a_second_lambda(self, trig):
        # the identities take lam from the pack: another lam is another pack
        shifted = trig.with_lambda0(trig.lambda0 + 0.05)
        rng = np.random.default_rng(13)
        reports = [
            check_skew_cauchy((2, 1), (1,), near_p(shifted, 1, rng), near_q(shifted, 1, rng), shifted),
            check_cauchy(near_p(shifted, 1, rng), near_q(shifted, 1, rng), shifted),
            check_orthogonality((1,), (1,), shifted),
            check_D_rho_integral((1,), shifted),
        ]
        for r in reports:
            assert r.passed, (r.name, r.residual)
            assert r.parameters["lam"] == [shifted.lambda0.real, shifted.lambda0.imag]

    def test_stoch_sum_report(self, trig):
        rng = np.random.default_rng(12)
        r = check_stoch_sum((2,), near_p(trig, 1, rng), trig)
        assert r.passed and r.truncation_info["converged"]


class TestNestedSum:
    def test_n1(self):
        Y = RNG.standard_normal((1, 8))
        r = check_nested_sum_lemma(1, (5,), Y)
        assert r.passed and abs(r.lhs - sum(Y[0][:5])) < 1e-12

    def test_empty_sum_vanishes(self):
        Y = RNG.standard_normal((3, 8))
        r = check_nested_sum_lemma(3, (1, 1, 5), Y)  # T_2 < 2
        assert r.rhs == 0 and r.passed

    def test_n3_random(self):
        Y = RNG.standard_normal((3, 8))
        r = check_nested_sum_lemma(3, (2, 3, 5), Y)
        assert r.passed and r.residual < 1e-12


class TestRandomBatteries:
    def test_worst_draw_reruns_from_its_report(self):
        # the parameters name the worst draw's inputs; rerunning them gives the residual bit for bit
        ell = FunctionMode.elliptic(6j)
        rep = check_stochasticity(np.random.default_rng(3), ell)
        p = rep.parameters
        ctx = WeightContext(*(complex(*p[key]) for key in ("lam", "w", "z", "Lambda", "eta")), ell)
        pairs = ("BD", "AC") if p["k"] >= 1 else ("BD",)
        assert rep.residual == max(abs(weight(a, p["k"], ctx, stochastic=True) + weight(b, p["k"], ctx, stochastic=True) - 1) for a, b in pairs)
        rep = check_oracle_formulas(np.random.default_rng(3))[0]
        p = rep.parameters
        P, lam, us = params_from_json_dict(p["pack"]), complex(*p["lam"]), [complex(*u) for u in p["us"]]
        want = skew_B_oracle(tuple(p["mu"]), (), lam, us, P)
        assert rep.residual == abs(B_mu(tuple(p["mu"]), lam, us, P) - want) / max(1.0, abs(want))
        assert p["draws"] == 50 and 0 <= p["worst_draw"] < 50


class TestDegenerateWeights:
    NAMES = ["dyn6v-weights-50draws", "rational-weights-50draws"]

    @pytest.mark.parametrize("seed", range(30))
    def test_both_tables_pass(self, seed):
        reports = check_degenerate_weights(np.random.default_rng(seed))
        assert [r.name for r in reports] == self.NAMES
        assert all(r.passed and r.tolerance == identities.TOL_CLOSED for r in reports)

    @pytest.mark.parametrize("table", ["dyn6v_weight", "rational_weight"])
    def test_a_relative_error_of_1e_9_fails(self, monkeypatch, table):
        real = getattr(identities, table)
        monkeypatch.setattr(identities, table, lambda *args: real(*args) * (1 + 1e-9))
        failed = {r.name for r in check_degenerate_weights(np.random.default_rng(0)) if not r.passed}
        assert failed == {self.NAMES[table == "rational_weight"]}

    def test_worst_draw_reruns_from_its_report(self):
        from dynirf.weights import dyn6v_weight

        rep = check_degenerate_weights(np.random.default_rng(7))[0]
        p = rep.parameters
        lam, w, z, eta = (complex(*p[key]) for key in ("lam", "w", "z", "eta"))
        kind, k = identities._SPIN_HALF[p["symbol"]]
        want = weight(kind, k, WeightContext(lam, w, z, 1.0, eta, TRIG), stochastic=True)
        q, xi, u = np.exp(-4j * np.pi * eta), np.exp(2j * np.pi * z), np.exp(2j * np.pi * (eta - w))
        assert rep.residual == abs(dyn6v_weight(p["symbol"], lam, q, xi, u) - want) / max(1.0, abs(want))
        assert abs(eta.real) <= 0.2 and p["draws"] == 50


BAD_INPUTS = {
    # each used to end in a bare ZeroDivisionError, IndexError or ValueError,
    # or (mu_1 past the kappa-sum's cap of 12) in a silently failed report
    "symmetrization-coincident-v": (SingularParameterError, lambda P: check_symmetrization_lemma(2, [0.1, 0.1], 0.2, TRIG)),
    "symmetrization-coincident-v-elliptic": (
        SingularParameterError,
        lambda P: check_symmetrization_lemma(2, [0.1, 0.1], 0.2, FunctionMode.elliptic(1.5j)),
    ),
    "symmetrization-beta-0": (SingularParameterError, lambda P: check_symmetrization_lemma(2, [0.1, 0.3], 0.0, TRIG)),
    "symmetrization-v-0": (SingularParameterError, lambda P: check_symmetrization_lemma(2, [0.0, 0.3], 0.2, TRIG)),
    "nested-sum-short-Y": (InvalidParameterError, lambda P: check_nested_sum_lemma(2, (2, 3), [[1.0]])),
    "lambda-independence-one-lambda": (
        InvalidParameterError,
        lambda P: lambda_independence_report(ObservableSpec((2,), 2), [P.lambda0], P),
    ),
    "regime-moment-n0": (InvalidParameterError, lambda P: regime_moment_check(0, 1e4, 1.0, 1.0)),
    "skew-cauchy-cap-below-mu1": (
        InvalidParameterError,
        lambda P: check_skew_cauchy((13, 1), (1,), [0.1], [0.2], P),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_check_input_raises_documented_error(case, trig, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("did work on a rejected input")

    for module, name in [
        (identities, "skew_B_lattice"),
        (identities, "skew_D_lattice"),
        (identities, "_strip"),
        (observables, "enum_E"),
        (asymptotics, "ssep_falling_moment"),
    ]:
        monkeypatch.setattr(module, name, never)
    exc, call = BAD_INPUTS[case]
    with pytest.raises(exc):
        call(trig)
