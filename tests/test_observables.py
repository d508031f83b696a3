import cmath
import functools
import hashlib
import json
import math
import re
import time

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
import scipy.special
from mpmath import mp

from dynirf import observables, samplers
from dynirf.observables import (
    ObservableSpec,
    enum_E,
    exact_E,
    hs6v_q_moment,
    lambda_independence_report,
    mc_E,
    obs_O,
    rising,
    ssep_f2_duality,
    ssep_falling_moment,
    ssep_mean_height,
    _asep_walk_sum,
    _irf_residue_sum,
    _lattice_product,
    _ssep_f2_large_t,
    _walk_sum,
)
from dynirf.params import IrfParams, preset, to_six_vertex
from dynirf.samplers import enumerate_heights
from dynirf.special import ConvergenceError, FunctionMode, InvalidParameterError
from dynirf.weights import SingularParameterError
from mp_reference import mp_scaled_bessel
from reference_routes import irf_batch_heights, mc_lambda_independence, obs_O_six_vertex


def q_pochhammer(x, q, n: int):
    """(x; q)_n = (1-x)(1-qx)...(1-q^{n-1}x); the empty product (n=0) is 1."""
    out = 1.0 + 0.0j
    for k in range(n):
        out *= 1.0 - q**k * x
    return out


def irf_product_scalar(hs, spec, params, lam) -> complex:
    """Reference for _lattice_product on a trigonometric pack: the normalized observable product of one realization."""
    N = int(spec.N_or_t)
    a = cmath.exp(2j * math.pi * lam)
    q_pow = lambda m: cmath.exp(-4j * math.pi * params.eta * m)
    out = 1.0 + 0.0j
    norm = 1.0 + 0.0j
    for k in range(spec.n):
        x = spec.xs[k]
        lsum = params.lam_sum(1, x)
        o = obs_O(hs[k], x, N, params, lam)
        out *= q_pow(N - lsum) + a * q_pow(2 * k) - q_pow(k) * o
        norm *= 1.0 - a * q_pow(1) ** k
    return out / norm


def ssep_f2_expm(xs, t: float) -> float:
    """Reference for the two-point duality route: E[h(x_1) (h(x_2) - 1)],
    x_1 >= x_2, by expm_multiply on ordered pairs y1 < y2.

    A frozen edge like the library's, on the wider window [-M, M], but the
    state holds each unordered pair once, L is an explicit sparse matrix
    (each unblocked move of either walker at rate 1) and e^{tL} comes from
    scipy's truncated-Taylor expm_multiply, not a Chebyshev series.  A pair
    y1 < y2 counts once for each of its orderings that fits the box
    y_k > x_k.
    """
    x1, x2 = xs
    M = int(5.5 * math.sqrt(max(t, 1.0)) + max(abs(x1), abs(x2)) + 25)
    size = 2 * M + 1
    a, b = np.triu_indices(size, k=1)  # window indices of y1 < y2
    index = np.full((size, size), -1)
    index[a, b] = np.arange(a.size)
    interior = (a > 0) & (b < size - 1)
    rows, cols = [], []
    for da, db in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        move = interior & (a + da < b + db)
        rows.append(np.flatnonzero(move))
        cols.append(index[a[move] + da, b[move] + db])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    L = scipy.sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(a.size, a.size)).tocsr()
    L -= scipy.sparse.diags(np.bincount(rows, minlength=a.size).astype(float))
    c = scipy.sparse.linalg.expm_multiply(t * L, (b <= M).astype(float))
    y1, y2 = a - M, b - M
    return float(c @ (((y1 > x1) & (y2 > x2)).astype(float) + ((y2 > x1) & (y1 > x2))))


def asep_one_site_expm(xs, t: float, q: float) -> list:
    """Reference for G(x, t) = E[q^{h(x,t)}] of the usual ASEP by expm_multiply.

    dG/dt = q G(x+1) + G(x-1) - (1+q) G(x), G(x, 0) = g0(x) = q^{max(-x, 0)},
    on the window [-M, M] with its edge frozen at g0, which the equation
    keeps fixed far from 0 (q^{-x} on the left, 1 on the right).  The state
    is H = G / g0, so that no entry grows like q^{-x}: dH/dt = D^{-1} A D H
    with D = diag(g0), a sparse matrix for scipy's truncated-Taylor
    expm_multiply, not a Bessel sum.
    """
    M = int(15 * math.sqrt((1 + q) * max(t, 1.0)) + abs(q - 1) * t + 40)
    y = np.arange(-M, M + 1)
    g0 = q ** np.maximum(-y, 0).astype(float)
    inner = np.arange(1, y.size - 1)
    rows = np.concatenate([inner, inner, inner])
    cols = np.concatenate([inner + 1, inner - 1, inner])
    vals = np.concatenate([q * g0[inner + 1] / g0[inner], g0[inner - 1] / g0[inner], np.full(inner.size, -(1 + q))])
    A = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(y.size, y.size)).tocsr()
    H = scipy.sparse.linalg.expm_multiply(t * A, np.ones(y.size))
    return [float(H[x + M] * g0[x + M]) for x in xs]


def asep_walk_mp(x: int, t: float, q: float):
    """Reference for _asep_walk_sum in 40-digit arithmetic: the sum over
    k < -x of P(Y_t = k) (q^{-(x + k)} - 1), P(Y_t = k) = e^{-(1+q)t} q^{k/2}
    I_k(2 sqrt(q) t), on the window |k| <= |q - 1| t + 12 sqrt((1 + q) t) + 60."""
    with mp.workdps(40):
        q, t = mp.mpf(q), mp.mpf(t)
        z = 2 * mp.sqrt(q) * t
        K = int(abs(q - 1) * t + 12 * mp.sqrt((1 + q) * t) + 60)
        ive = mp_scaled_bessel(z, K)
        pre = mp.exp(z - (1 + q) * t)
        return mp.fsum(pre * q ** (mp.mpf(k) / 2) * ive[abs(k)] * (q ** (-(x + k)) - 1) for k in range(-K, -x))


falling = functools.lru_cache(maxsize=None)(ssep_falling_moment)


def direct_falling(x: int, t: float, n: int) -> float:
    """F_n(x, t) by the direct contour route, reached through the
    particle-hole reflection F_n(-a) = sum_k C(n, k) (a)_{n-k} F_k(a) at
    x = -a < 0, (a)_m falling and F_0 = 1."""
    if n == 0:
        return 1.0
    if x < 0:
        return sum(math.comb(n, k) * math.perm(-x, n - k) * direct_falling(-x, t, k) for k in range(n + 1))
    return ((-1) ** n * observables._ssep_direct((x,) * n, t, 64)).real


@pytest.fixture(scope="module")
def dyn6v():
    return preset("dyn6v-positive")


@pytest.fixture(scope="module")
def rational():
    return preset("rational-positive")


class TestObservableSpec:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ObservableSpec((1, 2), 3)
        with pytest.raises(InvalidParameterError):
            ObservableSpec((), 3)
        assert ObservableSpec((3, 2, 2), 4).n == 3

    def test_sites_must_be_integers(self, dyn6v):
        # (2.7, 1.2) used to become (2, 1), and enum_E answered for x = 2
        for xs in ((2.7, 1.2), (2, 0.5), (np.nan,)):
            with pytest.raises(InvalidParameterError, match="integer"):
                ObservableSpec(xs, 3)
        assert ObservableSpec((3.0, np.int64(1)), 2).xs == (3, 1)


class TestObsO:
    def test_two_forms_agree(self, dyn6v):
        for h, x, N in [(0, 1, 1), (2, 3, 4), (1, 2, 5)]:
            a = obs_O(h, x, N, dyn6v)
            b = obs_O_six_vertex(h, x, N, dyn6v)
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_factorization(self, dyn6v):
        # q^{N-Lam} + e^{2 pi i lam} q^{2k} - q^k O factors through q^{k-h}
        sv = to_six_vertex(dyn6v)
        q = sv.q.real
        alpha = sv.alpha.real
        lam = dyn6v.lambda0
        h, x, N, k = 2, 3, 4, 1
        lsum = int(dyn6v.lam_sum(1, x).real)
        o = obs_O(h, x, N, dyn6v)
        lhs = q ** (N - lsum) + cmath.exp(2j * math.pi * lam) * q ** (2 * k) - q**k * o
        rhs = q ** (N - lsum) * (1 - q ** (k - h)) * (1 + alpha**-1 * q ** (k + h - N + lsum))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_vanishes_at_k_equals_h(self, dyn6v):
        sv = to_six_vertex(dyn6v)
        q = sv.q.real
        h = k = 2
        x, N = 2, 4
        lsum = int(dyn6v.lam_sum(1, x).real)
        o = obs_O(h, x, N, dyn6v)
        lhs = q ** (N - lsum) + cmath.exp(2j * math.pi * dyn6v.lambda0) * q ** (2 * k) - q**k * o
        assert abs(lhs) < 1e-12


class TestObservableProduct:
    def test_irf_product_matches_scalar_reference(self, dyn6v):
        # on an enumerated law (complex lambda) and on a small sampled batch
        spec = ObservableSpec((3, 2), 4)
        lam = 0.2 + 0.3j
        law = enumerate_heights(dyn6v.with_lambda0(lam), 4, spec.xs)
        drawn = irf_batch_heights(dyn6v, spec.xs, 4, 8, 40)
        for hs, at in ((np.array(list(law)), lam), (drawn, dyn6v.lambda0)):
            got = _lattice_product(hs, spec, dyn6v, at)
            assert got.shape == (hs.shape[0],)
            for row, val in zip(hs, got):
                want = irf_product_scalar(row, spec, dyn6v, at)
                assert abs(val - want) <= 1e-13 * max(1.0, abs(want))


class TestExactIrf:
    def test_integral_matches_enumeration(self, dyn6v):
        for xs, N in [((1,), 1), ((3,), 2), ((2, 1), 3), ((3, 2, 1), 3)]:
            spec = ObservableSpec(xs, N)
            ei = exact_E("irf", spec, dyn6v)
            ee = enum_E(spec, dyn6v)
            assert abs(ei - ee) <= 1e-8 * max(1.0, abs(ee)), (xs, N)

    @pytest.mark.parametrize("xs", [(3, 0), (3, -1), (0,)])
    def test_sites_left_of_column_one(self, dyn6v, xs):
        # every path enters at column 1, so h(x, N) = N at x <= 1
        spec = ObservableSpec(xs, 3)
        ee = enum_E(spec, dyn6v)
        assert abs(exact_E("irf", spec, dyn6v) - ee) <= 1e-8 * max(1.0, abs(ee))

    def test_residue_route_n1(self, dyn6v):
        spec = ObservableSpec((2,), 4)
        quad = exact_E("irf", spec, dyn6v)
        res, cond = _irf_residue_sum(spec, dyn6v)
        assert abs(quad - res) <= 1e-8 * max(1.0, abs(res))

    @pytest.mark.parametrize(
        "ws, rows",
        [((0j,) * 8, "[1, 2, 3, 4, 5, 6, 7, 8]"), ((0.02j, 0j, 0.05j, 0j), "[2, 4]")],
    )
    def test_coincident_rows_raise(self, ws, rows):
        # the 8-row pack of the dyn6v -> ASEP drift test, and a pack with two
        # coincident rows among four: the residue sum divided by f(0) = 0
        q, alpha, eps = 0.64, 2.0, 0.1
        eta = 1j * math.log(q) / (4 * math.pi)
        z = -1j * math.log(q**-0.5 * (1 + (1 - q) * eps)) / (2 * math.pi) - eta
        lam0 = -0.5 + 1j * math.log(alpha) / (2 * math.pi)
        params = IrfParams(FunctionMode.trigonometric(), eta, lam0, tuple((z, 1.0 + 0j) for _ in range(14)), ws)
        with pytest.raises(SingularParameterError, match=re.escape(f"rows {rows} have coincident parameters")):
            exact_E("irf", ObservableSpec((9,), len(ws)), params)

    @pytest.mark.parametrize(
        "pack, xs, N",
        [
            ("dyn6v-positive", (4, 3, 2, 1), 4),  # 4.3e-18 apart
            ("dyn6v-positive", (12, 9, 6, 3), 10),  # 1.0e-12 apart
            ("trig-admissible", (4, 3, 2, 1), 4),  # 3.5e-17 apart
        ],
        ids=["dyn6v-positive-N4", "dyn6v-positive-N10", "trig-admissible-N4"],
    )
    def test_four_sites_match_enumeration(self, pack, xs, N):
        # the 4-fold ladder 48 -> 68 -> 98 agrees at its 68-node level; with
        # doubling, the second level's 96**4 points passed the 2^26 cap
        spec = ObservableSpec(xs, N)
        ee = enum_E(spec, preset(pack))
        assert abs(exact_E("irf", spec, preset(pack)) - ee) <= 1e-10 * max(1.0, abs(ee))

    def test_four_sites_trig_admissible_wide(self):
        # enum_E takes about 40 s here, so its value is pinned: it agreed with
        # the quadrature to 2.2e-15
        ee = -0.0003058431220973171 + 0.00014589131614695016j
        got = exact_E("irf", ObservableSpec((12, 9, 6, 3), 10), preset("trig-admissible"))
        assert abs(got - ee) <= 1e-10

    def test_cap_at_a_later_level_names_enum_E(self):
        # rational-positive's 48- and 68-node estimates differ by 4.8e-8; the
        # third level's 98**4 points pass the 2^26 cap, and the error used to
        # name the quadrature only, not the route that answers
        with pytest.raises(ConvergenceError, match=r"n = 4: .*98 nodes/variable.*enum_E") as exc:
            exact_E("irf", ObservableSpec((4, 3, 2, 1), 4), preset("rational-positive"))
        older, prev = exc.value.estimates
        assert older is not None and abs(older - prev) > 1e-10 * abs(prev)

    def test_five_sites_refused_before_quadrature(self, monkeypatch):
        # the second level, 64 nodes in 5 variables, passes the 2^26 cap
        monkeypatch.setattr(observables, "_site_integral", None)
        monkeypatch.setattr(observables, "_irf_residue_sum", None)
        with pytest.raises(ConvergenceError, match=r"n = 5 .*64 nodes/variable.*enum_E"):
            exact_E("irf", ObservableSpec((5, 4, 3, 2, 1), 5), preset("dyn6v-positive"))

    def test_lambda_free(self, dyn6v):
        # the integral contains no dynamic parameter at all; rebuilt packs
        # with different corner fillings give the identical value
        spec = ObservableSpec((2, 1), 2)
        a = exact_E("irf", spec, dyn6v.with_lambda0(0.3 + 0.2j))
        b = exact_E("irf", spec, dyn6v.with_lambda0(-1.1 + 0.4j))
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


class TestLambdaIndependence:
    def test_exact_enumeration(self, dyn6v):
        spec = ObservableSpec((3, 2), 4)
        rep = lambda_independence_report(spec, [dyn6v.lambda0, 0.2 + 0.3j, -0.4 + 0.1j], dyn6v)
        assert rep.passed and rep.residual < 1e-9

    def test_hs6v_limit(self, dyn6v):
        spec = ObservableSpec((3, 2), 4)
        at_limit = enum_E(spec, dyn6v, lam=-5j)
        qm = hs6v_q_moment(spec, dyn6v)
        assert abs(at_limit - qm) <= 1e-6 * max(1.0, abs(qm))

    @pytest.mark.parametrize("lambdas", [[-60.0, -50.0, -70.5, -61.3], [-60.0, -60.0 + 5j, -50.0 + 2j]], ids=["real", "complex"])
    def test_rational_by_enumeration(self, rational, lambdas):
        # the rational product dropped Im lambda_0: -60 + 5i read 1.31219 - 0.00095i
        rep = lambda_independence_report(ObservableSpec((3, 2), 3), lambdas, rational)
        assert rep.name == "lambda-independence-rational-n2-N3"
        assert rep.passed and abs(rep.rhs - 1.31211147413268) < 1e-12

    def test_mc_variant(self, dyn6v):
        spec = ObservableSpec((2,), 2)
        rep = mc_lambda_independence("irf", spec, [dyn6v.lambda0, dyn6v.lambda0 - 2 * dyn6v.eta], dyn6v, 20000, seed=3)
        assert rep.passed


class TestRational:
    def test_integral_enum_mc(self, rational):
        spec = ObservableSpec((2, 1), 3)
        vi = exact_E("irf", spec, rational)
        ve = enum_E(spec, rational)
        assert abs(vi - ve) <= 1e-10 * max(1.0, abs(ve))
        m, se = mc_E("irf", spec, rational, 20000, seed=5)
        assert abs(m - vi) <= 4 * se

    @pytest.mark.parametrize(
        "xs, N", [((2,), 3), ((2, 1), 3), ((3, 2), 4), ((4, 2, 1), 4), ((5, 3, 2), 5), ((1,), 2)]
    )
    def test_integral_matches_enumeration(self, rational, xs, N):
        # (5, 3, 2) at N = 5 has residue-sum conditioning 2.1e11; a flat
        # 1e-8 residue gate used to reject its quadrature with ArithmeticError
        spec = ObservableSpec(xs, N)
        vi = exact_E("irf", spec, rational)
        ve = enum_E(spec, rational)
        assert abs(vi - ve) <= 1e-10 * max(1.0, abs(ve))

    def test_irf_on_the_rational_pack_is_the_rational_model(self, rational):
        # the pack picks the model: "irf" on a rational pack is the rational
        # model, pinned bit for bit to the values of the former "rational" label
        spec = ObservableSpec((3, 2), 3)
        assert exact_E("irf", spec, rational) == complex(1.312111474132678, -4.310123740443025e-16)
        assert mc_E("irf", spec, rational, 4000, 1) == (complex(1.3085616120218582, 0.0), 0.011098850766248747)

    @pytest.mark.parametrize(
        "lambdas, samples, digest",
        [
            ([-60.0, -50.0, -70.5, -61.3], None, "d808abb3372dcca8"),
            ([-60.0, -60.0 + 5j, -50.0 + 2j], None, "f979bfeebedbf643"),
            ([-60.0, -50.0], 2000, "a6c3a44143d1c83c"),
        ],
        ids=["real", "complex", "mc"],
    )
    def test_lambda_report_on_the_rational_pack_is_pinned(self, rational, lambdas, samples, digest):
        # the report is named by the pack's mode and reads the bytes the
        # "rational" label gave (sha256 of its sorted JSON); the Monte Carlo
        # report is the test reference's
        if samples is None:
            rep = lambda_independence_report(ObservableSpec((3, 2), 3), lambdas, rational)
        else:
            rep = mc_lambda_independence("irf", ObservableSpec((2,), 2), lambdas, rational, samples, seed=3)
        assert rep.name.startswith("lambda-independence-rational-")
        text = json.dumps(rep.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("name", ["exact_E", "mc_E"])
    def test_rational_is_not_a_model(self, rational, name):
        route = {
            "exact_E": lambda: exact_E("rational", ObservableSpec((2, 1), 3), rational),
            "mc_E": lambda: mc_E("rational", ObservableSpec((2, 1), 3), rational, 4000, 1),
        }[name]
        with pytest.raises(InvalidParameterError, match="unknown model 'rational'"):
            route()
        assert observables.MODELS == ("irf", "asep", "ssep")


class TestQuadratureRunaway:
    def test_factored_grid_cap_raises(self, dyn6v):
        # the estimates stall ~4e-9 apart above tol; doubling used to run on
        # toward 16384 nodes/variable (768**3 points alone took ~19 s)
        from dynirf.special import ConvergenceError

        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError) as exc:
            exact_E("irf", ObservableSpec((7, 4, 2), 10), dyn6v)
        assert time.perf_counter() - t0 < 30
        older, prev = exc.value.estimates
        assert older is not None and abs(older - prev) < 1e-7


class TestBadTolerance:
    @pytest.mark.parametrize(
        "xs, t, nodes, message",
        [((0,), 20.0, 16.7, "integer"), ((0, 0), 1e3, -5, "integer >= 16")],
        ids=["walk-sum-fractional", "saddle-negative"],
    )
    def test_exact_E_refuses_bad_nodes_before_choosing_a_route(self, monkeypatch, xs, t, nodes, message):
        # the walk sum returned -2.515 at nodes = 16.7 and the saddle route
        # 305.7 at nodes = -5: neither reads nodes, so neither checked it
        def no_work(*args, **kwargs):
            raise AssertionError("a route ran")

        with pytest.raises(InvalidParameterError, match=message):
            exact_E("ssep", ObservableSpec(xs, t), (1.0,), nodes=nodes)
        for name in ("_exact_E_irf", "_exact_E_asep", "_exact_E_ssep", "contour_integral_factored"):
            monkeypatch.setattr(observables, name, no_work)
        with pytest.raises(InvalidParameterError, match=message):
            exact_E("ssep", ObservableSpec(xs, t), (1.0,), nodes=nodes)


class TestFactoredGridMemory:
    def test_cross_factor_blocks_stay_under_max_grid(self, monkeypatch):
        # the saddle F2 route reaches 4096 nodes/variable at t = 1e4; its
        # 4096 x 4096 cross matrix used to be built whole (about 270 MB),
        # then in blocks of every node pair.  g underflows to 0 on about 91%
        # of each circle, and the binaries now see the kept nodes only
        import dynirf.observables as obs
        from dynirf import special

        nodes, seen = [], []
        real = obs.contour_integral_factored

        def spy_factors(terms, contours, **kwargs):
            if len(contours) == 1:  # the correction integral
                return real(terms, contours, **kwargs)

            def spy1(fn):
                def wrapped(x):
                    nodes.append(np.size(x))
                    return fn(x)

                return wrapped

            def spy2(fn):
                def wrapped(x, y):
                    seen.append((np.broadcast(x, y).size, np.shape(y)[-1]))
                    return fn(x, y)

                return wrapped

            terms = [([spy1(fn) for fn in u], {k: spy2(fn) for k, fn in b.items()}) for u, b in terms]
            return real(terms, contours, **kwargs)

        monkeypatch.setattr(obs, "contour_integral_factored", spy_factors)
        _ssep_f2_large_t(0, 1e4)
        assert max(nodes) == 4096
        assert 0 < max(cols for _, cols in seen) <= 0.1 * 4096
        assert max(size for size, _ in seen) <= special._MAX_GRID
        # every level's pairs together, against the dense 4096 x 4096 level alone
        assert sum(size for size, _ in seen) <= 0.02 * 4096**2

    def test_saddle_route_traced_peak(self):
        # the kept x kept Cauchy kernel (about 2.4 MB traced peak); dense
        # blocks of every node pair traced about 17 MB, the one-term cross
        # form about 200 MB
        import tracemalloc

        tracemalloc.start()
        try:
            _ssep_f2_large_t(0, 1e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestSaddlePoleForm:
    @pytest.mark.parametrize("t", [300.0, 1e4])
    def test_matches_cross_form(self, monkeypatch, t):
        # the same main integral with the cross factor in one term, as
        # (u2-u1)/(u1 u2 - 2 u1 + 1) on every node pair
        real = observables.contour_integral_factored

        def cross_form(terms, contours, **kwargs):
            if len(contours) == 1:  # the correction integral
                return real(terms, contours, **kwargs)
            g = terms[0][0][0]
            return real([([g, g], {(0, 1): lambda a, b: (b - a) / (a * b - 2 * a + 1.0)})], contours, **kwargs)

        pole = _ssep_f2_large_t(0, t)
        monkeypatch.setattr(observables, "contour_integral_factored", cross_form)
        cross = _ssep_f2_large_t(0, t)
        assert abs(pole - cross) <= 1e-9 * abs(cross)

    def test_second_moment_at_1e5_between_bounds(self):
        # the caps of 2**13 nodes and 2**26 dense grid points per level used
        # to stop this doubling; it needs 16384 nodes per circle.  Jensen
        # puts F2 above F1**2 - F1, and Var h <= E h (h is a sum of
        # negatively correlated occupations) puts it below F1**2
        f1 = ssep_mean_height(0, 1e5)
        f2 = ssep_falling_moment(0, 1e5, 2)
        assert f1**2 - f1 <= f2 <= f1**2

    def test_route_reach_ends_before_3e5(self):
        with pytest.raises(ConvergenceError) as exc:
            _ssep_f2_large_t(0, 3e5)
        assert None not in exc.value.estimates

    def test_a_missed_saddle_raises(self):
        # from t = 1e6 every level of nodes misses the saddle, about
        # 1/sqrt(2t) wide, and two levels agreed on about 0: -7.0e-23 at 1e6
        with pytest.raises(ConvergenceError, match="below F1") as exc:
            ssep_falling_moment(0, 1e6, 2)
        f2, bound = exc.value.estimates
        assert abs(f2) < 1.0 and bound > 3e5

    def test_falling_moment_pinned_at_large_t(self):
        # the cross-form value; the pole form moves it by 1.0e-10 relative
        assert abs(ssep_falling_moment(0, 1e4, 2) - 3143.2451536338) <= 1e-9 * 3143.2451536338


class TestMcSeeds:
    def test_irf_seeds_give_different_samples(self, dyn6v):
        # with seed ^ index as the trajectory seed, seeds 0, 1 and 2 drew the
        # same 2000 trajectories in another order: a bit-identical (mean, stderr)
        spec = ObservableSpec((3, 2), 4)
        results = [mc_E("irf", spec, dyn6v, 2000, s) for s in (0, 1, 2)]
        assert len(set(results)) == 3

    @pytest.mark.parametrize("samples", [1500.7, "2000", None, 999])
    def test_samples_must_be_an_integer_of_at_least_1000(self, samples):
        # 1500.7 ended in a bare TypeError from numpy
        with pytest.raises(InvalidParameterError):
            mc_E("ssep", ObservableSpec((1,), 1.0), (2.0,), samples, 0)

    def test_neighbouring_seeds_are_uncorrelated(self):
        # corr(m(s), m(s + 1)) of the means over consecutive seeds, against
        # 4 / sqrt(pairs - 1); seed + index as the trajectory seed would share
        # 999 of 1000 trajectories between neighbours (corr near 1)
        seeds = 400
        spec = ObservableSpec((2,), 1.0)
        means = np.array([mc_E("asep", spec, (0.5, 2.0), 1000, s)[0].real for s in range(seeds + 1)])
        assert means.std() > 0
        assert abs(np.corrcoef(means[:-1], means[1:])[0, 1]) < 4 / math.sqrt(seeds - 1)


def _mc_runs(dyn6v, rational):
    return {
        "irf": (ObservableSpec((3, 2), 4), dyn6v),
        "rational": (ObservableSpec((3, 1), 3), rational),  # run as "irf": the pack picks the model
        "ssep": (ObservableSpec((1, 0), 1.0), (2.0,)),
        "asep": (ObservableSpec((2,), 1.0), (0.5, 2.0)),
    }


class TestMcBlocks:
    """mc_E runs its engines in blocks of ``samplers._BLOCK`` trajectories."""

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("model", ["irf", "rational", "ssep", "asep"])
    def test_any_block_size_gives_one_sweep(self, monkeypatch, dyn6v, rational, model, block):
        # 1000 samples: 142 blocks of 7 and one of 6, or 1000 blocks of one
        spec, pack = _mc_runs(dyn6v, rational)[model]
        model = "irf" if model == "rational" else model
        whole = mc_E(model, spec, pack, 1000, 11)
        monkeypatch.setattr(samplers, "_BLOCK", block)
        assert mc_E(model, spec, pack, 1000, 11) == whole

    @pytest.mark.parametrize("block", [3000, 10_000])
    @pytest.mark.parametrize("model", ["irf", "rational", "ssep", "asep"])
    def test_chunks_straddling_blocks_give_one_sweep(self, monkeypatch, dyn6v, rational, model, block):
        # 40,000 samples: an mc_E chunk of 2^15 and one of 7232, each built
        # from blocks of 3000 or 10,000, one of which straddles the two
        spec, pack = _mc_runs(dyn6v, rational)[model]
        model = "irf" if model == "rational" else model
        whole = mc_E(model, spec, pack, 40_000, 11)
        monkeypatch.setattr(samplers, "_BLOCK", block)
        assert mc_E(model, spec, pack, 40_000, 11) == whole

    @staticmethod
    def _traced_peak(model, spec, pack, samples):
        import tracemalloc

        tracemalloc.start()
        try:
            mc_E(model, spec, pack, samples, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_traced_peak_at_1e5_samples(self, dyn6v, rational):
        # 4.3 / 5.5 / 4.9 MB traced for irf / ssep / asep: one block of 2^13
        # trajectories or one chunk's product of 2^15 samples, with 1.3x
        # headroom over the largest; a product over every sample traced 8.6-9.7 MB
        runs = _mc_runs(dyn6v, rational)
        for model in ("irf", "ssep", "asep"):
            assert self._traced_peak(model, *runs[model], 100_000) < 7e6, model

    def test_traced_peak_does_not_grow_with_samples(self, dyn6v, rational):
        # 10^6 samples trace within one chunk's product (2^15 complex values)
        # of 10^5; a peak that grows with the sample count traced 56-96 MB
        runs = _mc_runs(dyn6v, rational)
        for model in ("irf", "ssep", "asep"):
            small, large = (self._traced_peak(model, *runs[model], n) for n in (100_000, 1_000_000))
            assert large < small + observables._MC_CHUNK * 16, (model, small, large)


class TestSsep:
    def test_t0_values(self):
        for x, want in [(2, 0.0), (0, 0.0), (-3, -3.0)]:
            v = exact_E("ssep", ObservableSpec((x,), 0.0), (2.0,))
            assert abs(v - want) < 1e-10

    def test_mean_height_series(self):
        assert abs(ssep_mean_height(0, 1.0) - 0.5237776118026084) < 1e-12
        assert ssep_mean_height(3, 0.0) == 0.0
        assert ssep_mean_height(-4, 0.0) == 4.0
        # the series at x = -100 stopped after five zero terms and returned 7.6e-147
        assert abs(ssep_mean_height(-100, 1.0) - 100.0) <= 1e-12 * 100.0

    def test_internal_series_check_runs(self):
        v = exact_E("ssep", ObservableSpec((1,), 1.0), (2.0,))
        assert v.real < 0  # -E h < 0 for t > 0

    def test_mc_agreement(self):
        spec = ObservableSpec((1, 0), 1.0)
        v = exact_E("ssep", spec, (2.0,))
        m, se = mc_E("ssep", spec, (2.0,), 30000, seed=11)
        assert abs(m - v) <= 4 * se

    def test_direct_route_refuses_large_t(self):
        # used to raise InvalidParameterError; past the direct route's range
        # one site is served by the walk sum
        assert exact_E("ssep", ObservableSpec((0,), 100.0), (1.0,)) == -ssep_mean_height(0, 100.0)

    def test_falling_moment_routes_agree(self):
        # direct quadrature and the duality propagator across their seam
        # (1.4e-9 apart at t = 10)
        d1 = ssep_falling_moment(0, 10.0, 2)
        ode = ssep_f2_duality(0, 10.0, dt=0.05)
        assert abs(d1 - ode) <= 1e-8 * abs(ode)

    @pytest.mark.slow
    def test_saddle_engine_vs_duality(self):
        # 7.5e-7 apart at t = 250 and 2.1e-6 at t = 400, mostly the duality
        # window's truncation
        for t in (250.0, 400.0):
            eng = _ssep_f2_large_t(0, t)
            ode = ssep_f2_duality(0, t)
            assert abs(eng - ode) <= 1e-5 * abs(ode), t

    def test_duality_matches_quadrature(self):
        ref = exact_E("ssep", ObservableSpec((0, 0), 5.0), (1.0,), nodes=64).real
        assert abs(ssep_f2_duality(0, 5.0) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize(
        "x, t, dt",
        [
            (0, 0.05, 0.1),  # F2 about 1e-6: the series must stop relative to the sum
            (0, 5.0, 0.05),
            (0, 10.0, 0.1),
            (2, 10.0, 0.1),
            (-3, 7.0, 0.1),
            (-2, 0.0, 0.1),  # the step profile itself
            pytest.param(0, 300.0, 0.1, marks=pytest.mark.slow),
            pytest.param(0, 400.0, 0.1, marks=pytest.mark.slow),
            pytest.param(0, 500.0, 0.34, marks=pytest.mark.slow),
        ],
    )
    def test_duality_matches_rk4_loop(self, x, t, dt):
        # named after the RK4 reference it once had; the reference is now
        # expm_multiply, and the dt values of those cases must not move F2
        ref = ssep_f2_expm((x, x), t)
        assert abs(ssep_f2_duality(x, t, dt=dt) - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize(
        "t, dt",
        [
            (10.0, 0.0),  # used to raise ZeroDivisionError
            (10.0, float("nan")),  # used to raise a bare ValueError
            (10.0, float("inf")),
            (10.0, -0.1),  # used to return 1666.67
            (-1.0, 0.1),
        ],
    )
    def test_duality_rejects_bad_input(self, t, dt):
        with pytest.raises(InvalidParameterError):
            ssep_f2_duality(0, t, dt=dt)

    def test_third_falling_moment_runs(self):
        # the n = 3 circles used to fail the radius check at any t
        v = ssep_falling_moment(0, 4.0, 3)
        assert math.isfinite(v) and v > 0

    @pytest.mark.parametrize("x", [-1, 0, 2])
    @pytest.mark.parametrize("t", [2.0, 5.0, 7.5])
    def test_third_moment_duality_vs_direct(self, x, t):
        # the direct route is the three-fold integral, reached through the
        # reflection at x = -1 (the integral itself fails at (-1, 7.5))
        direct = direct_falling(x, t, 3)
        assert abs(-observables._duality_moment((x,) * 3, t) - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_third_moment_past_direct_range(self):
        # n = 3 used to be refused past t = 7.5; this runs on a 111^3 cube
        v = falling(0, 30.0, 3)
        assert math.isfinite(v) and falling(0, 7.5, 3) < v < falling(0, 30.0, 1) ** 3

    @pytest.mark.parametrize("t, n", [(60.0, 3), (1.0, 4)])
    def test_falling_moment_refuses_unsupported_range(self, monkeypatch, t, n):
        # n = 3 at t = 60 needs a 135^3 window, past the propagator's cap;
        # n = 4 needs at least a 51^4 window
        import dynirf.observables as obs

        def no_work(*args, **kwargs):
            raise AssertionError("quadrature or window allocation ran")

        monkeypatch.setattr(obs, "contour_integral_factored", no_work)
        monkeypatch.setattr(obs.np, "zeros", no_work)
        with pytest.raises(InvalidParameterError):
            ssep_falling_moment(0, t, n)

    @pytest.mark.parametrize(
        "x, t, n",
        [
            (0, float("nan"), 1),  # looped forever in the Bessel series
            (0, float("inf"), 1),  # looped forever in the Bessel series
            (0, -1.0, 1),  # returned -0.0932
            (0.5, 1.0, 1),  # returned a number for a non-integer site
            (0.5, 1.0, 2),  # returned a number for a non-integer site
            (0, float("inf"), 2),  # ConvergenceError after the quadrature ran
            (0, float("nan"), 2),  # "circle radius must be positive"
            (0, 1.0, 0),
            (0, 1.0, 2.5),
        ],
    )
    def test_falling_moment_rejects_bad_input_before_work(self, monkeypatch, x, t, n):
        def no_work(*args, **kwargs):
            raise AssertionError("series or quadrature ran")

        monkeypatch.setattr(observables, "contour_integral_factored", no_work)
        monkeypatch.setattr(observables, "log_ive", no_work)
        with pytest.raises(InvalidParameterError):
            ssep_falling_moment(x, t, n)

    @pytest.mark.parametrize(
        "x, t, want, rtol",
        [
            (-12, 1.0, 132.0000000006484, 1e-12),  # ConvergenceError in the direct route
            (-5, 10.0, 22.958256310917925, 1e-10),  # ConvergenceError in the direct route
            (-100, 1e4, 14283.052782912042, 1e-9),  # the u-saddle left |u| < 1
        ],
    )
    def test_negative_site_is_reflected(self, x, t, want, rtol):
        got = ssep_falling_moment(x, t, 2)
        assert abs(got - want) <= rtol * want
        # F2(-a) = F2(a) + 2a F1(a) + a(a - 1)
        a = -x
        assert abs(got - (falling(a, t, 2) + 2 * a * falling(a, t, 1) + a * (a - 1))) <= 1e-12 * want

    @pytest.mark.parametrize("x, t", [(3, 2.0), (1, 5.0)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_reflection_matches_direct_route(self, x, t, n):
        # where the integral at -x converges, against the duality route that
        # exact_E takes at x < 0 and the reflection of the direct route at x
        direct = ((-1) ** n * observables._ssep_direct((-x,) * n, t, 64)).real
        assert abs(ssep_falling_moment(-x, t, n) - direct) <= 1e-11 * max(1.0, abs(direct))
        assert abs(direct_falling(-x, t, n) - direct) <= 1e-11 * max(1.0, abs(direct))

    @pytest.mark.parametrize(
        "x, t, n_max",
        [
            (0, 2.0, 3),  # direct
            (2, 5.0, 3),  # direct
            (-3, 5.0, 3),  # duality
            (0, 30.0, 3),  # duality
            (12, 30.0, 3),  # duality on a 123^3 window; refused past 2^21 sites when it widened by |x| on both sides
            (-2, 12.0, 3),  # duality
            (0, 300.0, 2),  # duality
            (0, 1e4, 2),  # saddle
            (-100, 1e4, 2),  # reflected saddle
        ],
    )
    def test_strong_rayleigh_inequalities(self, x, t, n_max):
        # h is a sum of independent Bernoullis (the step-start SSEP is strong
        # Rayleigh), so F2 <= F1^2 and Newton's (F2/2)^2 >= (3/2) F1 (F3/6)
        f1, f2 = falling(x, t, 1), falling(x, t, 2)
        assert 0 < f2 <= f1 * f1
        if n_max == 3:
            f3 = falling(x, t, 3)
            assert 0 < f3 and (f2 / 2) ** 2 >= 1.5 * f1 * (f3 / 6)

    def test_direct_route_refuses_overlapping_pairs(self):
        # five circles put the largest pair past r_i + r_j = 0.95; exact_E
        # sends n = 5 to the duality route, whose 51^5 cube is past its cap
        with pytest.raises(InvalidParameterError, match="cross pole"):
            observables._ssep_direct((0,) * 5, 1.0, 48)
        with pytest.raises(InvalidParameterError, match="past the cap"):
            exact_E("ssep", ObservableSpec((0,) * 5, 1.0), (1.0,))

    @pytest.mark.slow
    def test_third_moment_direct_route_vs_mc(self):
        # sites x < 0: exact_E takes the duality route here
        spec = ObservableSpec((0, -1, -2), 4.0)
        v = exact_E("ssep", spec, (2.0,))
        m, se = mc_E("ssep", spec, (2.0,), 100000, seed=31)
        assert abs(m - v) <= 4 * se


class TestSsepRoutes:
    """exact_E("ssep") picks one route per (n, t, xs); each is checked against another."""

    @pytest.mark.parametrize("xs, t", [((3, 0), 4.0), ((4, 1, -2), 5.0), ((0, 0, 0), 5.0), ((3, 0), 12.0)])
    def test_duality_matches_direct_route(self, xs, t):
        # within the direct route's stated tolerance: 5e-15 exp(t / (r (1 + r))), r = 0.42
        direct = observables._ssep_direct(xs, t, 64)
        tol = max(1e-10, 5e-15 * math.exp(t / (0.42 * 1.42)))
        assert abs(observables._duality_moment(xs, t) - direct) <= tol * max(1.0, abs(direct))

    def test_pair_duality_matches_expm(self):
        ref = ssep_f2_expm((3, 0), 10.0)
        assert abs(observables._duality_moment((3, 0), 10.0) - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("xs, t", [((0,), 12.0), ((-5,), 10.0)])
    def test_one_site_past_direct_range(self, xs, t):
        # the direct route used to fail its walk-sum check here with a bare ArithmeticError
        assert exact_E("ssep", ObservableSpec(xs, t), (1.0,)) == -ssep_mean_height(xs[0], t)

    @pytest.mark.parametrize("xs, t", [((0, 0), 15.0), ((-5, -5), 10.0)])
    def test_coincident_pair_past_direct_range(self, xs, t):
        # the direct route used to raise ConvergenceError here
        ref = ssep_f2_expm(xs, t)
        assert abs(exact_E("ssep", ObservableSpec(xs, t), (1.0,)) - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("xs, seed", [((3, 0), 11), ((5, 2, 0), 12)])
    def test_distinct_sites_past_direct_range_vs_mc(self, xs, seed):
        # exact_E used to refuse these with InvalidParameterError
        spec = ObservableSpec(xs, 20.0)
        v = exact_E("ssep", spec, (2.0,))
        m, se = mc_E("ssep", spec, (2.0,), 20000, seed=seed)
        assert abs(m - v) <= 4 * se

    @pytest.mark.parametrize(
        "xs, t",
        [((3, 0), t) for t in (20.0, 100.0, 500.0)]
        + [((5, -5), t) for t in (20.0, 100.0, 500.0)]
        + [((4, 2, 0), 20.0), ((4, 2, 0), 40.0), ((3, -1, -2), 20.0)],
    )
    def test_distinct_sites_between_coincident_moments(self, xs, t):
        # (-1)^n exact_E counts injective particle tuples in the box y_k > x_k,
        # which lies between the boxes of (x_1,) * n and (x_n,) * n
        n = len(xs)
        got = (-1) ** n * exact_E("ssep", ObservableSpec(xs, t), (2.0,)).real
        assert falling(xs[0], t, n) < got < falling(xs[-1], t, n)


def per_axis_duality_moment(xs, t: float) -> float:
    """``observables._duality_moment`` with its stencil as 2n in-place adds on
    strided per-axis views of a zeroed cube, the form the flat-shift stencil
    replaced; the set-up and the Chebyshev loop are copied unchanged."""
    n = len(xs)
    W = int(observables._DUALITY_WINDOW * math.sqrt(max(t, 1.0)) + 25)
    lo, hi = min(min(xs), 0) - W, max(max(xs), 0) + W
    shape = (hi - lo + 1,) * n
    ys = np.arange(lo, hi + 1)
    axes = [ys.reshape((-1,) + (1,) * (n - 1 - i)) for i in range(n)]
    coincident = np.zeros(shape, dtype=bool)
    blocked = np.zeros(shape)
    for i in range(n):
        for j in range(i + 1, n):
            gap = np.abs(axes[i] - axes[j])
            coincident |= gap == 0
            blocked += 2.0 * (gap == 1)
    C, fixed = (~coincident).astype(float), coincident.copy()
    for a in axes:
        C *= a <= 0
        fixed |= (a == lo) | (a == hi)
    fixed_at, blocked_at = np.flatnonzero(fixed), np.flatnonzero(~fixed & (blocked > 0))
    fixed_val, blocked_val = C.reshape(-1)[fixed_at], blocked.reshape(-1)[blocked_at]
    cut = lambda ax, part: (slice(None),) * ax + (part,) + (slice(None),) * (n - 1 - ax)
    shifts = [(cut(ax, slice(1, None)), cut(ax, slice(None, -1))) for ax in range(n)]

    def step(c, prev, out):
        out.fill(0.0)
        for up, down in shifts:
            out[up] += c[down]
            out[down] += c[up]
        flat = out.reshape(-1)
        flat[blocked_at] += blocked_val * c.reshape(-1)[blocked_at]
        out *= 1.0 / n
        out -= prev
        flat[fixed_at] = fixed_val
        return out

    z = 2.0 * n * t
    coef = 2.0 * np.exp(observables.log_ive(z, int(z + 10.0 * math.sqrt(z) + 40.0) - 1))
    coef[0] /= 2.0
    box = tuple(slice(x - lo + 1, None) for x in xs)
    prev, cur, nxt = C, step(0.5 * C, 0.0, np.empty(shape)), np.empty(shape)
    total = coef[0] * C[box].sum() + coef[1] * cur[box].sum()
    for c in coef[2:]:
        step(cur, prev, nxt)
        prev, cur, nxt = cur, nxt, prev
        term = c * cur[box].sum()
        total += term
        if c < observables._IVE_TAIL and abs(term) <= observables._IVE_TAIL * abs(total):
            break
    return (-1) ** n * float(total)


@pytest.mark.parametrize(
    "xs, t",
    [((0, 0), 0.0), ((0, 0), 5.0), ((0, 0), 300.0), ((3, 0), 20.0), ((-3, -3), 50.0), ((2, 2), 100.0)]
    + [((0, -1, -2), 4.0), ((2, 1, -1), 10.0)],
)
def test_flat_stencil_bit_equal_to_per_axis(xs, t):
    # the flat shifts wrap past rows onto frozen sites only, and keep each
    # site's order of additions, so every step rounds as before
    assert observables._duality_moment(xs, t) == per_axis_duality_moment(xs, t)


class TestExclusionBadTime:
    @pytest.mark.parametrize("model,rates,xs", [("ssep", (2.0,), (1, 0)), ("asep", (0.5, 2.0), (2,))])
    @pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
    def test_exact_E_rejects_bad_time(self, monkeypatch, model, rates, xs, t):
        # a negative t used to return a number, and nan ran the whole
        # doubling loop before a ConvergenceError; now no quadrature runs
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran on a bad time")

        monkeypatch.setattr(observables, "contour_integral_factored", no_quadrature)
        with pytest.raises(InvalidParameterError, match="time horizon"):
            exact_E(model, ObservableSpec(xs, t), rates)
        with pytest.raises(InvalidParameterError, match="time horizon"):
            mc_E(model, ObservableSpec(xs, t), rates, 1000, seed=0)


class TestExclusionRates:
    """exact_E and mc_E share one rate check: (q, alpha) for ASEP, (lambda_bar,) for SSEP."""

    @pytest.mark.parametrize(
        "call",
        [
            # used to raise a bare TypeError while unpacking q, alpha
            lambda spec: mc_E("asep", spec, 0.5, 1000, 1),
            # used to raise a bare ValueError while unpacking q, alpha
            lambda spec: exact_E("asep", spec, (0.5,)),
            # used to be accepted silently
            lambda spec: exact_E("ssep", spec, 2.0),
        ],
        ids=["mc-asep-bare-q", "exact-asep-one-rate", "exact-ssep-bare-lambda-bar"],
    )
    def test_malformed_rates_raise(self, monkeypatch, call):
        def no_work(*args, **kwargs):
            raise AssertionError("ran on malformed rates")

        monkeypatch.setattr(observables, "contour_integral_factored", no_work)
        monkeypatch.setattr(observables, "_farm_blocks", no_work)
        with pytest.raises(InvalidParameterError, match="rates are"):
            call(ObservableSpec((1,), 1.0))

    def test_out_of_range_rates_raise_in_both_routes(self):
        spec = ObservableSpec((1,), 1.0)
        for model, rates in (("asep", (0.5, -0.2)), ("ssep", (0.0,))):
            with pytest.raises(InvalidParameterError):
                exact_E(model, spec, rates)
            with pytest.raises(InvalidParameterError):
                mc_E(model, spec, rates, 1000, 1)


class TestAsep:
    @pytest.mark.parametrize(
        "q, t",
        [
            (0.5, 5.0), (0.5, 8.0), (0.8, 20.0),  # the loop integral passes its node cap
            (0.5, 20.0), (0.5, 100.0), (0.8, 100.0),  # its rounding noise swamps the value
            (0.5, 1000.0), (1.5, 200.0),  # its integrand overflows: a bare OverflowError
        ],
    )
    def test_one_site_past_the_contour_range(self, q, t):
        # exact_E raised ConvergenceError or OverflowError; n = 1 now returns
        # the walk sum, whose log form rounds on terms of order |1 - q| t
        v = exact_E("asep", ObservableSpec((0,), t), (q, 1.0))
        assert v.imag == 0.0
        assert abs(v.real - asep_walk_mp(0, t, q)) <= 1e-15 * max(1.0, abs(1.0 - q) * t)

    def test_one_site_with_the_pole_inside_is_the_walk_sum(self, monkeypatch):
        # at q in (0.909, 1.111) the circle around 1 holds the pole y = 1/q:
        # the quadrature read 1e-17 against the walk sum -0.0264585, which
        # Monte Carlo confirms, and exact_E raised a route disagreement
        monkeypatch.setattr(observables, "_site_integral", None)
        assert exact_E("asep", ObservableSpec((0,), 1.0), (0.95, 1.0)) == complex(_asep_walk_sum(0, 1.0, 0.95))

    def test_two_sites_with_the_pole_inside_refused(self, monkeypatch):
        # exact_E returned 1.0101e-4 here, against mc_E 1.636e-6 +- 3.0e-8
        monkeypatch.setattr(observables, "_site_integral", None)
        with pytest.raises(ConvergenceError, match=r"ASEP at n = 2.*pole y = 1/q"):
            exact_E("asep", ObservableSpec((1, 0), 1.0), (0.99, 1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "q, t, xs",
        [(0.5, 200.0, (1, 0)), (0.5, 1e4, (0, 0)), (0.5, 20.0, (2, 1)), (0.8, 200.0, (1, 0)), (1.5, 200.0, (1, 0))],
    )
    def test_two_sites_past_the_peak_test_refused(self, monkeypatch, q, t, xs):
        # n >= 2 has no walk sum: where the n = 1 peak test fails, exact_E
        # raised a bare OverflowError (t = 200 at q = 0.5) or ran the
        # quadrature to its node cap; now ConvergenceError before any quadrature
        monkeypatch.setattr(observables, "_site_integral", None)
        with pytest.raises(ConvergenceError, match=r"ASEP at n = 2.*no exact route"):
            exact_E("asep", ObservableSpec(xs, t), (q, 1.0))

    @pytest.mark.parametrize(
        "q, t, want",
        [
            (0.5, 4.0, 0.07014416870739026 - 3.751665644813329e-12j),
            (0.8, 5.0, 0.020457221935654434 - 4.5295452707217745e-17j),
            (0.8, 8.0, 0.042531324092594816 + 4.2268657709756655e-15j),
        ],
    )
    def test_two_sites_below_the_peak_test_unchanged(self, q, t, want):
        # the (1, 0) calls that returned before the peak test ran at n >= 2
        assert exact_E("asep", ObservableSpec((1, 0), t), (q, 1.0)) == pytest.approx(want, abs=1e-12)

    def test_contour_still_checked_where_it_converges(self, monkeypatch):
        real = observables._walk_sum
        monkeypatch.setattr(observables, "_walk_sum", lambda *args: real(*args) + 1e-6)
        with pytest.raises(ConvergenceError, match="ASEP routes disagree"):
            exact_E("asep", ObservableSpec((0,), 4.0), (0.5, 1.0))

    def test_t0_vanishing_for_positive_sites(self):
        v = exact_E("asep", ObservableSpec((2,), 0.0), (0.5, 2.0))
        assert abs(v) < 1e-10

    def test_series_check_and_mc(self):
        spec = ObservableSpec((0,), 1.0)
        v = exact_E("asep", spec, (0.5, 2.0))
        m, se = mc_E("asep", spec, (0.5, 2.0), 20000, seed=8)
        assert abs(m - v) <= 4 * se

    @pytest.mark.parametrize("xs", [(2,), (1, 0)])
    def test_mc_at_alpha_zero(self, xs):
        # the product's alpha^-1 form raised a bare ZeroDivisionError here;
        # at alpha = 0 it is its limit prod_k (q^h(x_k) - q^k)
        spec = ObservableSpec(xs, 1.0)
        m, se = mc_E("asep", spec, (0.5, 0.0), 20000, seed=3)
        assert abs(m - exact_E("asep", spec, (0.5, 0.0))) <= 4 * se

    def test_alpha_independence_of_usual_limit(self):
        # E^ASEP is alpha-free; two alphas give the same exact integral
        a = exact_E("asep", ObservableSpec((1,), 0.8), (0.5, 1.0))
        b = exact_E("asep", ObservableSpec((1,), 0.8), (0.5, 3.0))
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


class TestWalkSum:
    @pytest.mark.parametrize("t", [1.0, 5.0, 20.0])
    @pytest.mark.parametrize("q", [0.5, 0.8, 1.5])
    def test_asep_matches_expm_reference(self, q, t):
        xs = (-3, 0, 4)
        for x, ref in zip(xs, asep_one_site_expm(xs, t, q)):
            assert abs(_asep_walk_sum(x, t, q) - (ref - 1.0)) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("x, q, alpha", [(0, 0.5, 2.0), (2, 0.8, 1.0), (-3, 0.5, 2.0), (1, 1.5, 0.5)])
    def test_asep_matches_mc_at_t20(self, x, q, alpha):
        # the contour route raises ConvergenceError from t = 5 at q = 0.5
        m, se = mc_E("asep", ObservableSpec((x,), 20.0), (q, alpha), 20000, seed=11)
        assert abs(m - _asep_walk_sum(x, 20.0, q)) <= 4 * se

    def test_asep_values_far_past_the_contour_range(self):
        # _asep_residue_series returned -6.7e10 at (0, 20, 0.5)
        assert abs(_asep_walk_sum(0, 20.0, 0.5) + 0.93486) < 1e-5
        assert abs(_asep_walk_sum(0, 500.0, 0.8) + 0.99916) < 1e-5

    def test_mirror_image_of_the_window(self):
        # for q > 1 and large t, E[q^h] = P(Y >= -x) + q^{-x} P(Y > x) -> 1 + q^{-x};
        # the q^{-x} half is carried by P(k) q^{-k} = P(-k) about (1 - q) t
        for x in (0, 2, -3):
            assert abs(_asep_walk_sum(x, 1000.0, 1.5) - 1.5**-x) <= 1e-12 * max(1.0, 1.5**-x)

    def test_mirror_half_past_double_range(self):
        # 1.5^{-y} overflows where P(k) underflows: 0 * inf made the sum NaN
        assert abs(_walk_sum(0, 3000.0, 1.5, lambda y: 1.5 ** np.maximum(-y, 0)) - 2.0) <= 1e-12

    def test_large_drift_value(self):
        # scipy's ive underflowed where the walk's mass sits, and the window
        # held 3.8e-6 of it at (0, 1e4, 0.5); the mass sits near k = -5000,
        # where the log form's terms reach 1.7e3, so rounding allows 1e-12
        assert _asep_walk_sum(0, 1e4, 0.5) == -1.0
        ref = asep_walk_mp(5000, 1e4, 0.5)
        assert abs(ref + 0.4949336993) < 1e-10
        assert abs(_asep_walk_sum(5000, 1e4, 0.5) - ref) <= 1e-12

    def test_wrong_normalization_fails_the_mass_check(self, monkeypatch):
        # every probability 1e-9 relative too large: the window holds 1 + 1e-9
        real = observables.log_ive
        monkeypatch.setattr(observables, "log_ive", lambda z, kmax: real(z, kmax) + 1e-9)
        with pytest.raises(ConvergenceError, match="holds mass"):
            ssep_mean_height(0, 5.0)
        with pytest.raises(ConvergenceError, match="holds mass"):
            _asep_walk_sum(0, 5.0, 0.5)

    @pytest.mark.parametrize("t", [0.3, 5.0, 400.0, 1e4, 1e6])
    def test_mean_height_at_the_origin(self, t):
        # E h(0, t) = E|Y_t| / 2 = t e^{-2t} (I_0(2t) + I_1(2t))
        want = t * (scipy.special.ive(0, 2 * t) + scipy.special.ive(1, 2 * t))
        assert abs(ssep_mean_height(0, t) - want) <= 1e-13 * want

    @pytest.mark.parametrize("x", [1, 7, 100])
    @pytest.mark.parametrize("t", [0.0, 1.0, 20.0, 1e4])
    def test_mean_height_reflection(self, x, t):
        # particle-hole symmetry of the step state: E h(-x) = E h(x) + x
        assert abs(ssep_mean_height(-x, t) - ssep_mean_height(x, t) - x) <= 1e-13 * max(1.0, x)

    @pytest.mark.parametrize(
        "x, t, want",
        [(20, 400.0, 3.991680329929697), (-7, 1e4, 59.987705569140026), (150, 400.0, 2.9643492615082125e-07),
         (3, 5.0, 0.2833362621400121), (-100, 20.0, 100.0), (1, 0.3, 0.031111088326372906)],
    )
    def test_mean_height_pins(self, x, t, want):
        # values of the Bessel loop with x < 0 reflection that the walk sum replaced
        assert abs(ssep_mean_height(x, t) - want) <= 1e-14 * max(1.0, abs(want))


class TestRouteAgreementIsNanSafe:
    def test_irf_residue_nan(self, dyn6v, monkeypatch):
        nan = float("nan")
        monkeypatch.setattr(observables, "_irf_residue_sum", lambda spec, params: (complex(nan, nan), nan))
        with pytest.raises(ConvergenceError):
            exact_E("irf", ObservableSpec((2,), 4), dyn6v)

    def test_asep_walk_sum_nan(self, monkeypatch):
        monkeypatch.setattr(observables, "_walk_sum", lambda *args: float("nan"))
        with pytest.raises(ConvergenceError):
            exact_E("asep", ObservableSpec((0,), 1.0), (0.5, 2.0))

    def test_ssep_walk_sum_nan(self, monkeypatch):
        monkeypatch.setattr(observables, "ssep_mean_height", lambda x, t: float("nan"))
        with pytest.raises(ConvergenceError):
            exact_E("ssep", ObservableSpec((1,), 1.0), (2.0,))

    def test_irf_residue_disagreement(self, dyn6v, monkeypatch):
        # a finite disagreement raised a bare ArithmeticError, not a documented error
        real = observables._irf_residue_sum
        monkeypatch.setattr(observables, "_irf_residue_sum", lambda spec, params: (real(spec, params)[0] + 1, 1.0))
        with pytest.raises(ConvergenceError, match="quadrature .* vs residue sum") as exc:
            exact_E("irf", ObservableSpec((2,), 4), dyn6v)
        value, ref = exc.value.estimates
        assert abs(ref - value - 1) < 1e-6

    def test_walk_sum_disagreement(self, monkeypatch):
        real = observables.ssep_mean_height
        monkeypatch.setattr(observables, "ssep_mean_height", lambda x, t: real(x, t) + 1)
        with pytest.raises(ConvergenceError, match="SSEP routes disagree: quadrature .* vs walk sum") as exc:
            exact_E("ssep", ObservableSpec((1,), 1.0), (2.0,))
        value, ref = exc.value.estimates
        assert abs(value - ref - 1) < 1e-6

    def test_asep_negative_site_check_is_finite(self, monkeypatch):
        # _asep_residue_series was NaN at every x < 0, so this check passed unchecked
        refs = []

        def spy(*args):
            refs.append(_walk_sum(*args) - 1.0)
            return refs[-1] + 1.0

        monkeypatch.setattr(observables, "_walk_sum", spy)
        v = exact_E("asep", ObservableSpec((-2,), 1.0), (0.5, 2.0))
        assert len(refs) == 1 and math.isfinite(refs[0])
        assert abs(v - refs[0]) <= 1e-8


class TestEqualSitesFactorization:
    def test_pochhammer_form(self, dyn6v):
        # with all sites equal the product collapses to the two q-Pochhammer
        # factors of the height
        from dynirf.samplers import enumerate_heights

        sv = to_six_vertex(dyn6v)
        q, alpha = sv.q.real, sv.alpha.real
        x, N, n = 2, 3, 2
        spec = ObservableSpec((x,) * n, N)
        lsum = int(dyn6v.lam_sum(1, x).real)
        law = enumerate_heights(dyn6v, N, (x,))
        direct = 0.0 + 0.0j
        for (h,), amp in law.items():
            direct += amp * q ** (n * (N - lsum)) * q_pochhammer(q**-h, q, n) * q_pochhammer(
                -(alpha**-1) * q ** (h - N + lsum), q, n
            )
        direct /= rising(-(alpha**-1.0), 0) or 1.0
        norm = 1.0
        for k in range(n):
            norm *= 1 + alpha**-1 * q**k
        direct /= norm
        via_product = enum_E(spec, dyn6v)
        assert abs(direct - via_product) < 1e-10 * max(1.0, abs(via_product))


class TestExclusionLambdaIndependence:
    def test_ssep_two_dynamic_parameters_mc(self):
        spec = ObservableSpec((1, 0), 1.0)
        rep = mc_lambda_independence("ssep", spec, [1.5, 3.0], None, 20000, seed=21)
        assert rep.passed, (rep.lhs, rep.rhs, rep.tolerance)

    def test_asep_alpha_pairs_mc(self):
        spec = ObservableSpec((0,), 0.8)
        rep = mc_lambda_independence("asep", spec, [(0.5, 1.0), (0.5, 2.5)], None, 20000, seed=22)
        assert rep.passed


class TestGeneralSpinAverages:
    def test_integral_matches_enumeration_any_spin(self):
        # the observable theorem at inhomogeneous non-integer spins with
        # complex weights: integral vs absorbing enumeration
        P = preset("trig-admissible")
        for xs, N in [((2,), 2), ((2, 1), 2), ((3, 2), 3)]:
            spec = ObservableSpec(xs, N)
            ei = exact_E("irf", spec, P)
            ee = enum_E(spec, P)
            assert abs(ei - ee) <= 1e-10 * max(1.0, abs(ee)), (xs, N)

    def test_lambda_independence_any_spin(self):
        P = preset("trig-admissible")
        spec = ObservableSpec((2, 1), 2)
        rep = lambda_independence_report(spec, [P.lambda0, 0.8 + 0.1j, -0.3 + 0.4j], P)
        assert rep.passed and rep.residual < 1e-9


class TestLatticeInputs:
    """Out-of-range lattice specs raise before any row is swept or integrated."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("did work on a rejected spec")

        monkeypatch.setattr(samplers, "_row_sweep", never)
        monkeypatch.setattr(samplers, "_irf_batch", never)
        monkeypatch.setattr(observables, "contour_integral_factored", never)
        monkeypatch.setattr(observables, "_irf_height_blocks", never)

    @staticmethod
    def _routes(params):
        return [
            lambda spec: enum_E(spec, params),
            lambda spec: hs6v_q_moment(spec, params),
            lambda spec: exact_E("irf", spec, params),
            lambda spec: mc_E("irf", spec, params, 1000, seed=0),
            lambda spec: lambda_independence_report(spec, [params.lambda0, 0.2 + 0.3j], params),
        ]

    def test_more_rows_than_the_pack(self, dyn6v, no_work):
        for route in self._routes(dyn6v):
            with pytest.raises(InvalidParameterError, match="rows"):
                route(ObservableSpec((3,), dyn6v.n_rows + 1))

    def test_sites_past_the_last_column(self, dyn6v, no_work):
        # exact_E and mc_E once raised a bare IndexError at n_cols + 1 and
        # returned a value at n_cols; the batch sampler a bare ValueError on ()
        for x in (dyn6v.n_cols, dyn6v.n_cols + 1):
            for route in self._routes(dyn6v):
                with pytest.raises(InvalidParameterError, match="columns"):
                    route(ObservableSpec((x, 2), 3))
            for xs, match in (((x, 2), "columns"), ((), "at least one site")):
                with pytest.raises(InvalidParameterError, match=match):
                    irf_batch_heights(dyn6v, xs, 3, 1, 10)
                with pytest.raises(InvalidParameterError, match=match):
                    samplers.enumerate_heights(dyn6v, 3, xs)

    def test_non_integral_row_index(self, dyn6v, rational, no_work):
        routes = self._routes(dyn6v) + [lambda spec: exact_E("irf", spec, rational)]
        for route in routes:
            with pytest.raises(InvalidParameterError, match="integer"):
                route(ObservableSpec((3,), 2.5))

    @pytest.mark.parametrize("xs", [(3, 0), (0,), (2, -1)])
    def test_rational_exact_E_needs_sites_from_column_one(self, rational, no_work, xs):
        # the integral used to wrap its column slice: 0.4655 against
        # enumeration's 2.4220 at (3, 0), a bare ValueError at (0,)
        with pytest.raises(InvalidParameterError, match="x >= 1"):
            exact_E("irf", ObservableSpec(xs, 3), rational)

    @pytest.mark.parametrize("xs", [(3, 0), (0,), (2, -1)])
    def test_rational_enum_E_needs_sites_from_column_one(self, rational, no_work, xs):
        with pytest.raises(InvalidParameterError, match="x >= 1"):
            enum_E(ObservableSpec(xs, 3), rational)

    @pytest.mark.parametrize("xs", [(3, 0), (0,), (2, -1)])
    def test_rational_mc_E_needs_sites_from_column_one(self, rational, no_work, xs):
        with pytest.raises(InvalidParameterError, match="x >= 1"):
            mc_E("irf", ObservableSpec(xs, 3), rational, 1000, seed=0)


def pin_digest(values) -> str:
    return hashlib.sha256("\n".join(repr(complex(v)) for v in values).encode()).hexdigest()[:16]


class TestRoutePin:
    # the enumeration and six-vertex routes, bit for bit: a change to how
    # the law is enumerated or the product reduced must reproduce each rounding

    def test_enum_E_pinned(self, dyn6v, rational):
        vals = [enum_E(ObservableSpec((5, 3, 2), 5), dyn6v, lam) for lam in (dyn6v.lambda0, 0.2 + 0.3j, -0.4 + 0.1j, -5j)]
        vals += [enum_E(ObservableSpec((3, 2), 3), rational, lam) for lam in (rational.lambda0, -45.5 + 0.3j)]
        assert pin_digest(vals) == "f227f0851ddf78c2"

    def test_hs6v_q_moment_pinned(self, dyn6v):
        specs = (((5, 3, 2), 5), ((3, 2), 4), ((9, 6, 3), 9), ((4,), 3), ((6, 4, 3, 1), 5))
        assert pin_digest(hs6v_q_moment(ObservableSpec(xs, N), dyn6v) for xs, N in specs) == "82b1bdf3b6189a55"
