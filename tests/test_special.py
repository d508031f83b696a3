import math
import time

import numpy as np
import pytest
import scipy.special

from dynirf import special
from dynirf.asymptotics import H_profile
from dynirf.special import (
    TRIG,
    Circle,
    ConvergenceError,
    FunctionMode,
    InvalidParameterError,
    contour_integral,
    f_deriv0,
    f_eval,
    theta,
    theta_deriv,
)

RNG = np.random.default_rng(20260810)


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

    def test_deriv_matches_finite_difference(self):
        z, tau, h = 0.21 + 0.13j, 1.7j, 1e-6
        fd = (theta(z + h, tau) - theta(z - h, tau)) / (2 * h)
        assert abs(theta_deriv(z, tau) - fd) < 1e-8


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
    @pytest.mark.parametrize("fn, order", [(theta, 0), (theta_deriv, 1)])
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
        assert abs(f_deriv0(FunctionMode.elliptic(tau)) - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("tol", [1e-16, 1e-6])
    def test_non_default_tol(self, tol):
        tau = 1.4j
        zs = self._points(tau, 12)
        for z in zs:
            for fn, order in ((theta, 0), (theta_deriv, 1)):
                ref = self._ref(z, tau, order)
                bound = (1e-14 + tol) * max(1.0, abs(ref))
                assert abs(fn(complex(z), tau, tol) - ref) <= bound
                assert abs(fn(np.array([z]), tau, tol)[0] - ref) <= bound

    def test_scalar_types(self):
        for z in (0.3, 1, 0.2 + 0.1j, np.float64(0.3), np.array(0.3 + 0.1j)):
            assert type(theta(z, 1.5j)) is complex
            assert type(theta_deriv(z, 1.5j)) is complex
        assert theta(np.float64(0.3), 1.5j) == theta(0.3, 1.5j)
        assert abs(theta(np.array(0.3 + 0.1j), 1.5j) - theta(0.3 + 0.1j, 1.5j)) <= 1e-15

    def test_rejects_bad_tol(self):
        for fn in (theta, theta_deriv):
            with pytest.raises(InvalidParameterError):
                fn(0.1, 1.5j, tol=0.0)
            with pytest.raises(InvalidParameterError):
                fn(np.array([0.1]), 1.5j, tol=-1.0)


class TestFEval:
    def test_trig_values(self):
        assert abs(f_eval(TRIG, 0.5) - 1.0) < 1e-15
        z = 0.2 + 0.3j
        assert abs(f_eval(TRIG, -z) + f_eval(TRIG, z)) < 1e-15

    def test_rational_identity(self):
        assert f_eval(FunctionMode.rational(), 2.5) == 2.5

    def test_elliptic_dispatch(self):
        mode = FunctionMode.elliptic(2j)
        assert abs(f_eval(mode, 0.3) - theta(0.3, 2j)) == 0.0

    def test_fprime0(self):
        assert f_deriv0(TRIG) == math.pi
        assert f_deriv0(FunctionMode.rational()) == 1.0
        mode = FunctionMode.elliptic(1.9j)
        h = 1e-6
        fd = (theta(h, 1.9j) - theta(-h, 1.9j)) / (2 * h)
        assert abs(f_deriv0(mode) - fd) < 1e-8

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


class TestContourIntegral:
    def test_simple_pole(self):
        val = contour_integral(lambda v: 1.0 / v[0], [Circle(0, 1.0)])
        assert abs(val - 1.0) < 1e-12

    def test_no_enclosed_pole(self):
        val = contour_integral(lambda v: 1.0 / (v[0] - 5.0), [Circle(0, 1.0)])
        assert abs(val) < 1e-12

    def test_product_rule_two_variables(self):
        val = contour_integral(
            lambda v: 1.0 / (v[0] * v[1]), [Circle(0, 1.0), Circle(0, 2.0)]
        )
        assert abs(val - 1.0) < 1e-11

    def test_rational_residue_sum(self):
        # (3v^2+1)/((v-0.2)(v+0.3j)) has residues at both enclosed poles.
        def g(v):
            return (3 * v[0] ** 2 + 1) / ((v[0] - 0.2) * (v[0] + 0.3j))

        r1 = (3 * 0.2**2 + 1) / (0.2 + 0.3j)
        r2 = (3 * (-0.3j) ** 2 + 1) / (-0.3j - 0.2)
        val = contour_integral(g, [Circle(0, 1.0)])
        assert abs(val - (r1 + r2)) < 1e-11

    def test_essential_singularity(self):
        # exp(1/v) has residue 1 at 0.
        val = contour_integral(lambda v: np.exp(1.0 / v[0]), [Circle(0, 0.8)])
        assert abs(val - 1.0) < 1e-11

    def test_offcenter_circle(self):
        val = contour_integral(lambda v: 1.0 / (v[0] - 0.5j), [Circle(0.5j, 0.25)])
        assert abs(val - 1.0) < 1e-12

    def test_convergence_error_carries_estimates(self):
        # A pole close to the contour keeps successive estimates moving at
        # this tolerance, so a tiny node cap must trip the failure path.
        def g(v):
            return 1.0 / (v[0] - 1.02)

        with pytest.raises(ConvergenceError) as exc:
            contour_integral(g, [Circle(0, 1.0)], nodes=16, tol=1e-13, node_cap=64)
        assert exc.value.estimates is not None

    def test_grid_cap_stops_before_evaluating(self):
        # 16**9 > 2**26 tensor-grid points: refused before the integrand runs
        def g(v):
            raise AssertionError("level evaluated")

        with pytest.raises(ConvergenceError) as exc:
            contour_integral(g, [Circle(0, 1.0)] * 9, nodes=16)
        assert exc.value.estimates == (None, None)

    def test_node_minimum(self):
        with pytest.raises(InvalidParameterError):
            contour_integral(lambda v: 1.0 / v[0], [Circle(0, 1.0)], nodes=8)


def broadcast_factored_reference(terms, contours, n):
    """The former _factored_grid_value: every term multiplied out to the
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
        # every other pair), so one call needs two contraction paths
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        terms = []
        for kept in (pairs[:-1], pairs[::2]):
            unaries = []
            for _ in range(m):
                c = rng.normal(size=4) + 1j * rng.normal(size=4)
                unaries.append(lambda v, c=c: np.polyval(c, v))
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
        val = special._factored_grid_value(terms, contours, n)
        assert time.perf_counter() - t0 < 1.0
        assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))
