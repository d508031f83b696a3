import cmath
import dataclasses
import hashlib
import math
import pickle
import time

import mpmath
import numpy as np
import pytest
import scipy.special
from mpmath import mp

from dynirf import special
from dynirf.asymptotics import H_profile
from dynirf.special import (
    Circle,
    ConvergenceError,
    FunctionMode,
    InvalidParameterError,
    contour_integral_factored,
    gammainc,
    log_ive,
    theta,
)
from mp_reference import mp_scaled_bessel

RNG = np.random.default_rng(20260810)
TRIG = FunctionMode.trigonometric()


def _bits(x) -> tuple:
    x = complex(x)
    return (x.real.hex(), x.imag.hex())


class TestTheta:
    def test_zero_at_origin(self):
        assert abs(theta(0.0, 2j)) < 1e-13

    def test_period_one_antisymmetry(self):
        z, tau = 0.3 + 0.1j, 1.5j
        assert abs(theta(z + 1, tau) + theta(z, tau)) < 1e-12

    @pytest.mark.parametrize("tau", [1.5j, 2j, 0.3 + 1.1j])
    def test_periodicity_relations_random(self, tau):
        # theta(z+1) = -theta(z) = theta(-z) and the tau-quasiperiod, 1e-10
        # relative over 100 points in the fundamental parallelogram.
        zs = RNG.random(100) + tau * RNG.random(100)
        th = theta(zs, tau)
        scale = np.abs(th)
        assert np.all(np.abs(theta(zs + 1, tau) + th) <= 1e-10 * scale)
        assert np.all(np.abs(theta(-zs, tau) + th) <= 1e-10 * scale)
        quasi = -np.exp(-1j * np.pi * (tau + 2 * zs)) * th
        assert np.all(np.abs(theta(zs + tau, tau) - quasi) <= 1e-10 * np.abs(quasi))

    def test_trig_limit(self):
        # For large Im(tau), theta(z, tau) ~ 2 exp(-pi Im(tau)/4) sin(pi z).
        val = theta(0.25, 10j) / (2 * math.exp(-10 * math.pi / 4))
        assert abs(val - math.sin(math.pi * 0.25)) < 1e-6

    def test_rejects_bad_tau(self):
        with pytest.raises(InvalidParameterError):
            theta(0.1, -2j)


class TestThetaMpmathOracle:
    # theta(z, tau) = jtheta(1, pi z, exp(i pi tau)) in mpmath's convention,
    # computed at 30 digits, independently of the truncated series here.
    TAUS = [1.4j, 1.5j, 2j, 6j]

    @staticmethod
    def _points(tau, n=40):
        rng = np.random.default_rng(int(abs(tau) * 10))
        return rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-0.6, 0.6, n)

    @staticmethod
    def _ref(z, tau, derivative=0):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            val = mpmath.jtheta(1, mpmath.pi * mpmath.mpc(z), q, derivative)
            return complex(val * mpmath.pi**derivative)

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("fn, order", [(theta, 0)])
    def test_scalar_and_array(self, fn, order, tau):
        zs = self._points(tau)
        refs = np.array([self._ref(z, tau, order) for z in zs])
        bound = 1e-14 * np.maximum(1.0, np.abs(refs))
        scalar = np.array([fn(complex(z), tau) for z in zs])
        assert np.all(np.abs(scalar - refs) <= bound)
        assert np.all(np.abs(fn(zs, tau) - refs) <= bound)
        assert np.all(np.abs(fn(zs.reshape(5, 8), tau).ravel() - refs) <= bound)

    @pytest.mark.parametrize("tau", TAUS)
    def test_f_deriv0(self, tau):
        ref = self._ref(0.0, tau, 1)
        assert abs(FunctionMode.elliptic(tau).fp0 - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_scalar_types(self):
        for z in (0.3, 1, 0.2 + 0.1j, np.float64(0.3), np.array(0.3 + 0.1j)):
            assert type(theta(z, 1.5j)) is complex
        assert theta(np.float64(0.3), 1.5j) == theta(0.3, 1.5j)
        assert abs(theta(np.array(0.3 + 0.1j), 1.5j) - theta(0.3 + 0.1j, 1.5j)) <= 1e-15

    @pytest.mark.parametrize("tau", [0.5j, 0.3 + 1.1j, -0.45 + 0.6j])
    def test_quasi_period_reduction(self, tau):
        # |Im z| up to 4 Im(tau): z is reduced by up to four quasi-periods
        # before the product runs, so the prefactor exp(-pi*i*m*(z + z0)) is
        # checked as well as the product
        rng = np.random.default_rng(int(100 * abs(tau)))
        zs = rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(-4, 4, 40) * tau.imag
        refs = np.array([self._ref(z, tau) for z in zs])
        scalar = np.array([theta(complex(z), tau) for z in zs])
        array = theta(zs, tau)
        assert np.all(np.abs(scalar - refs) <= 1e-13 * np.abs(refs))
        assert np.all(np.abs(array - refs) <= 1e-13 * np.abs(refs))
        assert np.all(np.abs(array - scalar) <= 4e-15 * np.abs(scalar))

    @pytest.mark.parametrize("tau", TAUS + [0.5j, 0.3 + 1.1j])
    def test_f_deriv0_is_pi_K(self, tau):
        # theta'(0) = pi K with K = 2 q^(1/4) prod (1 - q^2n)^3: the product's
        # other factors are exactly 1 at z = 0
        fp0 = FunctionMode.elliptic(tau).fp0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            K = complex(2 * q ** mpmath.mpf(0.25) * mpmath.qp(q * q) ** 3)
        assert abs(fp0 - math.pi * K) <= 1e-14 * abs(math.pi * K)


class TestThetaOffRange:
    # the scalar and array paths agree: NaN in gives NaN out, and an infinite
    # z or a value past double range is one InvalidParameterError naming z and
    # tau
    TAU = 1.4j
    NAN = float("nan")
    INF = float("inf")

    @pytest.mark.parametrize("z", [complex(NAN, 0.3), complex(0.3, NAN), complex(NAN, 20.0), complex(NAN, NAN)])
    def test_nan_gives_nan(self, z):
        assert cmath.isnan(theta(z, self.TAU))
        out = theta(np.array([0.3 + 0.1j, z, 0.2 + 3j]), self.TAU)
        assert cmath.isnan(out[1])
        assert out[0] == pytest.approx(theta(0.3 + 0.1j, self.TAU), rel=1e-15) and np.isfinite(out[2])

    @pytest.mark.parametrize("z", [complex(0, INF), complex(0.3, -INF), complex(INF, 0.3), complex(INF, NAN), INF])
    def test_infinite_z_raises(self, z):
        with pytest.raises(InvalidParameterError, match=r"finite z.*tau="):
            theta(z, self.TAU)
        with pytest.raises(InvalidParameterError, match=r"finite z.*tau="):
            theta(np.array([0.3, z]), self.TAU)

    @pytest.mark.parametrize("z, tau", [(0.3 + 20j, TAU), (0.3 - 20j, TAU), (1e300j, TAU), (0.5 + 36.9j, 6j)])
    def test_past_double_range_raises(self, z, tau):
        with pytest.raises(InvalidParameterError, match=r"past double range at z=.*tau="):
            theta(z, tau)
        with pytest.raises(InvalidParameterError, match=r"past double range at z=.*tau="):
            theta(np.array([0.3, z]), tau)

    @pytest.mark.parametrize("z, tau", [(0.3 + 17.5j, 1.4j), (0.5 + 36.86j, 6j)])
    def test_large_but_finite_value(self, z, tau):
        # |theta| near 1e298 and 1e307 is still a value, in both paths; at
        # 0.5 + 36.86i, tau = 6i, exp(-pi*i*m*(z + z0)) alone passes double range
        ref = TestThetaMpmathOracle._ref(z, tau)
        assert 1e290 < abs(ref) < 1e308
        assert abs(theta(z, tau) - ref) <= 1e-13 * abs(ref)
        assert abs(theta(np.array([z]), tau)[0] - ref) <= 1e-13 * abs(ref)


class TestFEval:
    def test_trig_values(self):
        assert abs(TRIG.f(0.5) - 1.0) < 1e-15
        z = 0.2 + 0.3j
        assert abs(TRIG.f(-z) + TRIG.f(z)) < 1e-15

    def test_rational_identity(self):
        assert FunctionMode.rational().f(2.5) == 2.5

    def test_elliptic_dispatch(self):
        mode = FunctionMode.elliptic(2j)
        assert abs(mode.f(0.3) - theta(0.3, 2j)) == 0.0

    def test_fprime0(self):
        assert TRIG.fp0 == math.pi
        assert FunctionMode.rational().fp0 == 1.0
        mode = FunctionMode.elliptic(1.9j)
        h = 1e-6
        fd = (theta(h, 1.9j) - theta(-h, 1.9j)) / (2 * h)
        assert abs(mode.fp0 - fd) < 1e-8

    def test_fp0_pinned(self):
        # pi K from theta's product constants, bit for bit
        fp0s = [FunctionMode.elliptic(tau).fp0 for tau in (1.4j, 1.5j, 2j, 6j, 0.5j, 0.3 + 1.1j)]
        text = "\n".join(repr(complex(v)) for v in fp0s)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "face05b9c3f4a34f"

    def test_trig_and_rational_f_are_plain(self):
        z = 0.37 - 0.12j
        assert _bits(TRIG.f(z)) == _bits(cmath.sin(math.pi * z))
        assert _bits(FunctionMode.rational().f(z)) == _bits(complex(z))

    def test_bound_f_is_not_a_field(self):
        # eq, hash, repr, pickling and the JSON round trip see kind and tau
        # only; f and f'(0) are rebuilt from them
        from dynirf.params import params_from_json_dict, params_to_json_dict, random_pack

        a, b = FunctionMode.elliptic(1.4j), FunctionMode("elliptic", 1.4j)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != FunctionMode.elliptic(1.5j) and a != TRIG
        assert [f.name for f in dataclasses.fields(FunctionMode)] == ["kind", "tau"]
        for mode in (a, TRIG, FunctionMode.rational()):
            again = pickle.loads(pickle.dumps(mode))
            assert again == mode and _bits(again.f(0.3 + 0.2j)) == _bits(mode.f(0.3 + 0.2j))
            assert _bits(again.fp0) == _bits(mode.fp0)
            P = random_pack(np.random.default_rng(3), mode)
            Q = params_from_json_dict(params_to_json_dict(P))
            assert Q == P and hash(Q.mode) == hash(P.mode)
            assert params_to_json_dict(Q) == params_to_json_dict(P)
            assert _bits(Q.f(0.3 + 0.2j)) == _bits(P.f(0.3 + 0.2j))

    def test_mode_validation(self):
        with pytest.raises(InvalidParameterError):
            FunctionMode.elliptic(-1j)
        with pytest.raises(InvalidParameterError):
            FunctionMode("elliptic")


class TestErfc:
    # dynirf relies on math.erfc in the erfc term of asymptotics.H_profile.
    # H_profile(2x, 1) = exp(-x^2)/sqrt(pi) - x erfc(x), so each case checks
    # math.erfc and the H_profile term it feeds.
    @staticmethod
    def _h_at(x, erfc):
        return math.exp(-x * x) / math.sqrt(math.pi) - x * erfc(x)

    def test_at_zero(self):
        assert math.erfc(0.0) == 1.0
        assert H_profile(0.0, 1.0) == 1.0 / math.sqrt(math.pi)

    def test_reflection(self):
        x = 0.7
        assert abs(math.erfc(-x) - (2 - math.erfc(x))) < 1e-14
        # erfc(-x) = 2 - erfc(x) gives H(-chi) = H(chi) + chi
        assert abs(H_profile(-2 * x, 1.0) - (H_profile(2 * x, 1.0) + 2 * x)) < 1e-14

    def test_known_value(self):
        assert abs(math.erfc(1.0) - 0.15729920705028513) < 1e-13
        ref = math.exp(-1.0) / math.sqrt(math.pi) - 0.15729920705028513
        assert abs(H_profile(2.0, 1.0) - ref) < 1e-13

    @pytest.mark.parametrize("x", [-6.0, -1.3, -0.2, 0.1, 0.5, 1.9, 2.0, 2.1, 3.7, 8.0, 15.0])
    def test_against_scipy(self, x):
        ref = scipy.special.erfc(x)
        assert abs(math.erfc(x) - ref) <= 1e-12 * max(1.0, abs(ref))
        h_ref = self._h_at(x, scipy.special.erfc)
        assert abs(H_profile(2 * x, 1.0) - h_ref) <= 1e-12 * max(1.0, abs(h_ref))


def one_term(unaries, contours, nodes=32, tol=1e-10, **kwargs):
    """contour_integral_factored of one term without binaries, one circle
    per unary, from 32 nodes to tol 1e-10."""
    return contour_integral_factored([(unaries, {})], contours, nodes=nodes, tol=tol, **kwargs)


class TestContourIntegral:
    def test_simple_pole(self):
        val = one_term([lambda v: 1.0 / v], [Circle(0, 1.0)])
        assert abs(val - 1.0) < 1e-12

    def test_no_enclosed_pole(self):
        val = one_term([lambda v: 1.0 / (v - 5.0)], [Circle(0, 1.0)])
        assert abs(val) < 1e-12

    def test_product_rule_two_variables(self):
        val = one_term([lambda v: 1.0 / v] * 2, [Circle(0, 1.0), Circle(0, 2.0)])
        assert abs(val - 1.0) < 1e-11

    def test_rational_residue_sum(self):
        # (3v^2+1)/((v-0.2)(v+0.3j)) has residues at both enclosed poles.
        def g(v):
            return (3 * v**2 + 1) / ((v - 0.2) * (v + 0.3j))

        r1 = (3 * 0.2**2 + 1) / (0.2 + 0.3j)
        r2 = (3 * (-0.3j) ** 2 + 1) / (-0.3j - 0.2)
        val = one_term([g], [Circle(0, 1.0)])
        assert abs(val - (r1 + r2)) < 1e-11

    def test_essential_singularity(self):
        # exp(1/v) has residue 1 at 0.
        val = one_term([lambda v: np.exp(1.0 / v)], [Circle(0, 0.8)])
        assert abs(val - 1.0) < 1e-11

    def test_offcenter_circle(self):
        val = one_term([lambda v: 1.0 / (v - 0.5j)], [Circle(0.5j, 0.25)])
        assert abs(val - 1.0) < 1e-12

    def test_convergence_error_carries_estimates(self):
        # A pole close to the contour keeps successive estimates moving at
        # this tolerance, so a tiny node cap must trip the failure path.
        def g(v):
            return 1.0 / (v - 1.02)

        with pytest.raises(ConvergenceError) as exc:
            one_term([g], [Circle(0, 1.0)], nodes=16, tol=1e-13, node_cap=64)
        assert exc.value.estimates is not None

    def test_grid_cap_stops_before_evaluating(self):
        # 16**9 > 2**26 kept grid points: the level is refused after its
        # O(n) unary pass (one call per axis) and before any binary runs
        calls = []

        def g(v):
            calls.append(np.size(v))
            return 1.0 / v

        def never(x, y):
            raise AssertionError("level evaluated")

        with pytest.raises(ConvergenceError) as exc:
            contour_integral_factored([([g] * 9, {(0, 1): never, (3, 8): never})], [Circle(0, 1.0)] * 9, nodes=16)
        assert exc.value.estimates == (None, None)
        assert calls == [16] * 9

    @pytest.mark.parametrize(
        "m, ladder",
        [(1, [48, 96, 192]), (2, [48, 96, 192]), (3, [48, 78, 124]), (4, [48, 68, 98])],
    )
    def test_level_ladder(self, monkeypatch, m, ladder):
        # m <= 2 doubles; beyond, each level's node count grows by 4^(1/m),
        # rounded up to even; estimates that never agree run until node_cap.
        # Axis 0 vanishes on half its circle, so 98**4 / 2 kept points stay
        # under the 2^26 cap and the node cap stops every ladder
        levels = []

        def spy(terms, nodes, vecs, n):
            levels.append(n)
            return complex(n)

        monkeypatch.setattr(special, "_contract_level", spy)
        half = lambda v: np.where(v.real > 0, 1.0 / v, 0.0)
        with pytest.raises(ConvergenceError, match="nodes/variable") as exc:
            one_term([half] + [lambda v: 1.0 / v] * (m - 1), [Circle(0, 1.0)] * m, nodes=48, node_cap=ladder[-1])
        assert levels == ladder
        assert exc.value.estimates == tuple(map(complex, ladder[1:]))

    def test_grid_cap_counts_kept_points(self):
        # the second level's 408**3 points pass the 2**26 cap, but a unary
        # that vanishes on all but 1/8 of its circle leaves 50 * 408**2 kept
        def g(v):
            return np.where(abs(np.angle(v)) < math.pi / 8, np.exp(v) / v, 0.0)

        val = contour_integral_factored([([g, lambda v: 1.0 / v, lambda v: 1.0 / v], {})], [Circle(0, 1.0)] * 3, nodes=256, tol=1.0)
        assert np.isfinite(val)
        with pytest.raises(ConvergenceError):
            contour_integral_factored([([lambda v: 1.0 / v] * 3, {})], [Circle(0, 1.0)] * 3, nodes=256, tol=1.0)

    def test_node_minimum(self):
        with pytest.raises(InvalidParameterError):
            one_term([lambda v: 1.0 / v], [Circle(0, 1.0)], nodes=8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": -1.0},
            {"tol": 0.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": 1j},
            {"nodes": 16.7},
            {"nodes": 32, "node_cap": 16},
        ],
    )
    def test_bad_tol_nodes_and_cap_refused_before_evaluation(self, kwargs):
        # tol = nan used to run every level up to the node cap and then
        # raise ConvergenceError; tol = -1 and nodes = 16.7 ran as given
        def never(v):
            raise AssertionError("evaluated with a refused argument")

        with pytest.raises(InvalidParameterError):
            contour_integral_factored([([never], {})], [Circle(0, 1.0)], **kwargs)

    def test_integral_float_nodes_accepted(self):
        assert abs(one_term([lambda v: 1.0 / v], [Circle(0, 1.0)], nodes=32.0) - 1.0) < 1e-12


def factored_grid_value(terms, contours, n):
    """One level's trapezoid estimate on n nodes per circle, residue-normalized:
    the unary pass and the contraction of ``contour_integral_factored``."""
    return special._contract_level(terms, *special._level_unaries(terms, contours, n), n)


def broadcast_factored_reference(terms, contours, n):
    """The reference for ``factored_grid_value``: every term multiplied out to the
    full n**m grid by numpy broadcasting, chunked along variable 0."""
    m = len(contours)
    pts = [c.points(n) for c in contours]
    weights = [pts[j] - contours[j].center for j in range(m)]

    def axis_shape(vec, axis, length=None):
        shape = [1] * m
        shape[axis] = len(vec) if length is None else length
        return np.asarray(vec).reshape(shape)

    cached = []
    for unaries, binaries in terms:
        uvecs = [np.asarray(unaries[j](pts[j])) for j in range(m)]
        bmats = {
            (i, j): np.asarray(fn(pts[i][:, None], pts[j][None, :]))
            for (i, j), fn in binaries.items()
        }
        cached.append((uvecs, bmats))

    total = 0.0 + 0.0j
    chunk = max(1, special._MAX_GRID // max(1, n ** (m - 1)))
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        clen = sl.stop - sl.start
        acc = None
        for uvecs, bmats in cached:
            g = axis_shape(uvecs[0][sl], 0, clen)
            for j in range(1, m):
                g = g * axis_shape(uvecs[j], j)
            for (i, j), mat in bmats.items():
                sub = mat[sl] if i == 0 else mat
                shape = [1] * m
                shape[i], shape[j] = sub.shape
                g = g * sub.reshape(shape)
            acc = g if acc is None else acc + g
        wchunk = axis_shape(weights[0][sl], 0, clen)
        for j in range(1, m):
            wchunk = wchunk * axis_shape(weights[j], j)
        total += np.sum(acc * wchunk)
    return complex(total / float(n**m))


class TestFactoredContraction:
    @staticmethod
    def _random_terms(m, rng):
        # two terms with different binary sets (all pairs but the last, and
        # every other pair), so one call needs two contraction paths;
        # Laurent unaries in 1/v put poles inside every circle, so the
        # integral is O(1) rather than a trapezoid-rule zero
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        terms = []
        for kept in (pairs[:-1], pairs[::2]):
            unaries = []
            for _ in range(m):
                c = rng.normal(size=4) + 1j * rng.normal(size=4)
                unaries.append(lambda v, c=c: np.polyval(c, 1.0 / v))
            binaries = {}
            for pair in kept:
                a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
                binaries[pair] = lambda x, y, a=a, b=b: (x - a * y + 0.3) / (x - 0.2 * b * y + 3.0)
            terms.append((unaries, binaries))
        return terms

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_broadcast_reference(self, m, monkeypatch):
        rng = np.random.default_rng(100 + m)
        terms = self._random_terms(m, rng)
        contours = [Circle(0.1 * j + 0.05j, 0.5 + 0.2 * j) for j in range(m)]
        n = 12
        ref = broadcast_factored_reference(terms, contours, n)
        # row blocks of 5, 5 and 2 nodes of variable 0
        monkeypatch.setattr(special, "_MAX_GRID", 5 * n)
        t0 = time.perf_counter()
        val = factored_grid_value(terms, contours, n)
        assert time.perf_counter() - t0 < 1.0
        assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_shared_binaries_match_broadcast_reference(self, m, monkeypatch):
        # terms that share binary function objects, on the pairs (0, j) and
        # on the others, next to one private binary and one term without any;
        # Laurent unaries in 1/v put poles inside every circle, so the
        # integral is O(1) rather than a trapezoid-rule zero
        rng = np.random.default_rng(200 + m)

        def unaries():
            cs = rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4))
            return [lambda v, c=c: np.polyval(c, 1.0 / v) for c in cs]

        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        shared = [
            lambda x, y, a=a: (x - a * y + 0.3) / (x - 0.2 * y + 3.0)
            for a in rng.normal(size=2) + 1j * rng.normal(size=2)
        ]
        terms = [
            (unaries(), {pair: shared[0] for pair in pairs}),
            (unaries(), {pair: shared[k % 2] for k, pair in enumerate(pairs)}),
            (unaries(), {pairs[0]: shared[1], pairs[-1]: lambda x, y: x * y + 2.0}),
            (unaries(), {}),
        ]
        contours = [Circle(0.1 * j + 0.05j, 0.5 + 0.2 * j) for j in range(m)]
        n = 12
        ref = broadcast_factored_reference(terms, contours, n)
        assert abs(ref) > 0.1
        monkeypatch.setattr(special, "_MAX_GRID", 5 * n)
        val = factored_grid_value(terms, contours, n)
        assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize(
        "unaries, keys",
        [(2, [(0, 0)]), (2, [(1, 1)]), (2, [(1, 0)]), (2, [(0, 2)]), (2, [(-1, 1)]), (2, [(0, 1, 2)]), (2, [0]), (1, []), (3, [])],
    )
    def test_malformed_terms_rejected_before_evaluation(self, unaries, keys):
        def never(*args):
            raise AssertionError("evaluated a malformed term")

        terms = [([never] * unaries, {key: never for key in keys})]
        with pytest.raises(InvalidParameterError):
            special.contour_integral_factored(terms, [Circle(0.0, 1.0), Circle(0.0, 2.0)])

    @staticmethod
    def _masked(c, zero):
        # a Laurent polynomial in 1/v, exactly 0 on the nodes where zero(v)
        return lambda v: np.where(zero(v), 0.0, np.polyval(c, 1.0 / v))

    def _pruned_terms(self, rng, contours):
        # on every axis one unary is zero on the right half of its circle and
        # another on the upper half: only the upper right quarter is zero in
        # every term and dropped, while the lower right and upper left
        # quarters are zero in one term only and kept.  Axis 0's right-half
        # unary and the upper-half unaries of axes j >= 1 are shared by two
        # terms, the others are private
        m = len(contours)
        cs = rng.normal(size=(2 * m, 4)) + 1j * rng.normal(size=(2 * m, 4))
        right = [self._masked(cs[j], lambda v, c=c.center: (v - c).real > 0) for j, c in enumerate(contours)]
        upper = [self._masked(cs[m + j], lambda v, c=c.center: (v - c).imag > 0) for j, c in enumerate(contours)]
        cross = lambda x, y: (x - 0.7 * y + 0.3) / (x - 0.2 * y + 3.0)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        return [
            (right, {pair: cross for pair in pairs}),
            (upper, {pair: lambda x, y: x * y + 2.0 for pair in pairs[:1]}),
            ([right[0]] + upper[1:], {}),
        ]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_dropped_nodes_match_broadcast_reference(self, m, monkeypatch):
        rng = np.random.default_rng(300 + m)
        contours = [Circle(0.1 * j + 0.05j, 0.5 + 0.2 * j) for j in range(m)]
        terms = self._pruned_terms(rng, contours)
        n = 12
        ref = broadcast_factored_reference(terms, contours, n)
        assert abs(ref) > 0.01
        monkeypatch.setattr(special, "_MAX_GRID", 5 * n)
        kept, _ = special._level_unaries(terms, contours, n)
        for x, c in zip(kept, contours):
            rel = c.points(n) - c.center
            assert np.array_equal(x - c.center, rel[(rel.real <= 0) | (rel.imag <= 0)])
            assert x.size == 9
        val = factored_grid_value(terms, contours, n)
        assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_node_zero_in_one_term_only_is_kept(self):
        # the first term is zero on the upper half circle, the last on the
        # lower half and the middle one nowhere: every node is kept
        terms = [
            ([lambda v: np.where(v.imag > 0, 0.0, 1.0 / v**2)], {}),
            ([lambda v: 1.0 / v], {}),
            ([lambda v: np.where(v.imag < 0, 0.0, 1.0 / v**3)], {}),
        ]
        kept, _ = special._level_unaries(terms, [Circle(0.0, 1.0)], 16)
        assert kept[0].size == 16
        val = factored_grid_value(terms, [Circle(0.0, 1.0)], 16)
        ref = broadcast_factored_reference(terms, [Circle(0.0, 1.0)], 16)
        assert abs(val - ref) <= 1e-13 and abs(ref) > 0.1

    @pytest.mark.parametrize("axis", [0, 1])
    def test_nan_unary_propagates(self, axis):
        # NaN is not 0: its node is kept, next to nodes another term drops
        def nan_at_one_node(v):
            out = np.where(v.real > 0.2, 0.0, 1.0 / v)
            out[3] = np.nan
            return out

        ones = lambda v: np.ones_like(v)
        unaries = [ones, ones]
        unaries[axis] = nan_at_one_node
        terms = [(unaries, {(0, 1): lambda x, y: 1.0 / (x - y - 3.0)})]
        val = factored_grid_value(terms, [Circle(0.0, 1.0), Circle(0.0, 1.5)], 16)
        assert np.isnan(val)

    def test_all_zero_unaries_call_no_binary(self, monkeypatch):
        def never(x, y):
            raise AssertionError("a binary ran on an empty grid")

        zero = lambda v: np.zeros_like(v)
        terms = [([lambda v: 1.0 / v, zero, lambda v: v], {(0, 1): never, (1, 2): never}), ([zero, zero, zero], {(0, 2): never})]
        monkeypatch.setattr(special, "_MAX_GRID", 5 * 16)
        contours = [Circle(0.0, 1.0), Circle(0.0, 1.5), Circle(0.0, 2.0)]
        assert factored_grid_value(terms, contours, 16) == 0
        assert contour_integral_factored(terms, contours, nodes=16) == 0


def _walk_window(t: float, q: float) -> int:
    """The top order of ``observables._walk_sum``'s log_ive call."""
    return int(abs(q - 1.0) * t + 10.0 * math.sqrt((1.0 + q) * t) + 30.0)


def _duality_window(z: float) -> int:
    """The top order of ``observables._duality_moment``'s Chebyshev coefficients."""
    return int(z + 10.0 * math.sqrt(z) + 40.0) - 1


class TestLogIve:
    # z with the widest order window a caller asks for there: the duality
    # series up to z = 2e4 (n = 2, t = 5000 fits its cube), the driftless
    # walk at z = 2e6 (ssep_mean_height at t = 1e6) and a drifting walk
    # (q = 0.5, t = 1e4) whose top orders lie far below double range
    @pytest.mark.parametrize(
        "z, kmax",
        [
            (0, 0),
            (0.0, 40),
            (1e-3, _duality_window(1e-3)),
            (0.5, _duality_window(0.5)),
            (20.0, _duality_window(20.0)),
            (1200.0, _duality_window(1200.0)),
            (2e4, _duality_window(2e4)),
            (2e6, _walk_window(1e6, 1.0)),
            (2 * math.sqrt(0.5) * 1e4, _walk_window(1e4, 0.5)),
        ],
    )
    def test_against_40_digits(self, z, kmax):
        got = log_ive(z, kmax)
        assert got.shape == (kmax + 1,) and not np.isnan(got).any()
        ref = mp_scaled_bessel(z, kmax)
        top = max(ref)
        with mp.workdps(40):
            for k, (g, r) in enumerate(zip(got, ref)):
                if r == 0:
                    assert g == -math.inf
                elif r >= 1e-280:
                    # relative error of the value e^g
                    err = abs(mp.expm1(mp.mpf(g) - mp.log(r)))
                    assert err <= (1e-13 if r >= 1e-6 * top else 1e-11), (k, float(err))
                else:
                    # past double range only the log is held
                    assert abs(g - mp.log(r)) <= 1e-13 * abs(mp.log(r)), k
        # scipy as a second reference, itself 3e-12 off at z = 2e6
        iv = scipy.special.ive(np.arange(kmax + 1), z)
        big = iv >= 1e-280
        assert np.max(np.abs(np.exp(got[big] - np.log(iv[big])) - 1.0)) <= 1e-11

    def test_reference_matches_besseli(self):
        with mp.workdps(40):
            for z, k in [(20, 0), (20, 7), (20, 60), (1200, 1500)]:
                ref = mp_scaled_bessel(z, k)[k]
                assert abs(ref / (mpmath.besseli(k, z) * mp.exp(-z)) - 1) < mp.mpf(10) ** -35

    @pytest.mark.parametrize("z", [-1.0, -1e-300, math.nan, math.inf, -math.inf, "1", 1j])
    def test_rejects_bad_z(self, z):
        with pytest.raises(InvalidParameterError):
            log_ive(z, 5)

    @pytest.mark.parametrize("kmax", [-1, 2.5, math.nan])
    def test_rejects_bad_kmax(self, kmax):
        with pytest.raises(InvalidParameterError):
            log_ive(1.0, kmax)


class TestGammainc:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.7, 10.0])
    def test_against_40_digits(self, a):
        # the series / continued-fraction switch at x = a + 1 included
        x = np.concatenate([np.linspace(0.0, 60.0, 241), [a + 1.0, np.nextafter(a + 1.0, 0.0)]])
        got = gammainc(a, x)
        with mp.workdps(40):
            ref = np.array([float(mpmath.gammainc(a, 0, v, regularized=True)) for v in x])
        assert np.max(np.abs(got - ref)) <= 1e-14
        assert np.max(np.abs(got - scipy.special.gammainc(a, x))) <= 1e-14

    @pytest.mark.parametrize("a", [0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 3.7, 10.0, 100.0, 1000.0])
    def test_sweep_against_mpmath(self, a):
        # x from (a + 1) / 1000 to 1000 (a + 1) on a log grid; below a = 1
        # the continued fraction needs up to 99 steps just past x = a + 1
        # (at a = 0.05 it ran out of steps on x in [1.05, 1.60]); the error
        # grows like a, as a log x - x - lgamma(a) rounds to a few ulp of a
        x = (a + 1.0) * np.logspace(-3.0, 3.0, 61)
        got = gammainc(a, x)
        with mp.workdps(30):
            ref = np.array([float(mpmath.gammainc(a, 0, v, regularized=True)) for v in x])
        assert np.max(np.abs(got - ref)) <= 2e-15 * (1.0 + a)

    @pytest.mark.parametrize("a, bound", [(100.0, 1e-15), (1000.0, 4e-15)])
    def test_large_shape_past_its_mean(self, a, bound):
        # from a = 10 on the prefactor x^a e^-x / Gamma(a) is formed in
        # Temme's form; exp(a log x - x - lgamma(a)) rounded an exponent of
        # size a log a and read 3.9e-14 (a = 100) and 5.1e-13 (a = 1000)
        # relative here, the Temme form 2.0e-16 and 1.3e-15
        with mp.workdps(40):
            ref = float(mpmath.gammainc(a, 0, a + 1.0, regularized=True))
        assert abs(gammainc(a, a + 1.0) / ref - 1.0) <= bound

    @pytest.mark.parametrize("a", [100.0, 200.0, 500.0, 1000.0])
    def test_large_shapes_within_8_sigma(self, a):
        # x = a +- 8 sqrt(a): the old prefactor's error grew like a log a,
        # to 3.5e-14 (a = 100) and 4.4e-13 (a = 1000) absolute; the Temme
        # form reads at most 5.6e-16 absolute, and 2.0e-14 relative in the
        # lower tail, where a (log1p(eps) - eps) reaches -80 and its last
        # bits set the error (the old form read 8.2e-14 to 1.4e-12 there)
        x = a + 8.0 * math.sqrt(a) * np.linspace(-1.0, 1.0, 161)
        got = gammainc(a, x)
        with mp.workdps(40):
            ref = np.array([float(mpmath.gammainc(a, 0, v, regularized=True)) for v in x])
        assert np.max(np.abs(got - ref)) <= 2e-15
        assert np.max(np.abs(got - ref) / ref) <= 4e-14

    def test_shapes(self):
        assert gammainc(1.0, 2.0).shape == ()
        assert abs(gammainc(1.0, 2.0) + math.expm1(-2.0)) <= 1e-16
        x = np.array([[0.0, 1.0], [5.0, 50.0]])
        assert gammainc(2.0, x).shape == (2, 2)
        assert gammainc(2.0, x)[0, 0] == 0.0

    @pytest.mark.parametrize("x", [-1.0, math.nan, math.inf, [0.5, -0.1], [1.0, math.inf]])
    def test_rejects_bad_x(self, x):
        with pytest.raises(InvalidParameterError):
            gammainc(1.0, x)

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf, "1"])
    def test_rejects_bad_a(self, a):
        with pytest.raises(InvalidParameterError):
            gammainc(a, 1.0)
