import cmath
import math
import time

import numpy as np
import pytest

from dynirf import observables, samplers
from dynirf.observables import (
    ObservableSpec,
    enum_E,
    exact_E,
    hs6v_q_moment,
    lambda_independence_report,
    mc_E,
    obs_O,
    obs_O_six_vertex,
    rising,
    ssep_f2_duality,
    ssep_falling_moment,
    ssep_mean_height,
    _irf_product,
    _irf_residue_sum,
    _ssep_f2_large_t,
)
from dynirf.params import preset, to_six_vertex
from dynirf.samplers import batch_heights, enumerate_heights, sample_irf_batch
from dynirf.special import InvalidParameterError


def q_pochhammer(x, q, n: int):
    """(x; q)_n = (1-x)(1-qx)...(1-q^{n-1}x); the empty product (n=0) is 1."""
    out = 1.0 + 0.0j
    for k in range(n):
        out *= 1.0 - q**k * x
    return out


def irf_product_scalar(hs, spec, params, lam) -> complex:
    """Reference for _irf_product: the normalized observable product of one realization."""
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


def ssep_f2_rk4(x: int, t: float, dt: float = 0.1, window_factor: float = 5.5) -> float:
    """Reference for ssep_f2_duality: the two-point equations stepped by RK4.

    The same window, stencil and step h = t / ceil(t / dt) as the library,
    applied one classical RK4 step at a time.
    """
    M = int(window_factor * math.sqrt(max(t, 1.0)) + abs(x) + 25)
    size = 2 * M + 1
    ys = np.arange(-M, M + 1)
    occ0 = (ys <= 0).astype(float)
    C = np.outer(occ0, occ0)
    np.fill_diagonal(C, 0.0)
    band = np.arange(size - 1)

    def rhs(c):
        lap = -4.0 * c
        lap[1:, :] += c[:-1, :]
        lap[:-1, :] += c[1:, :]
        lap[:, 1:] += c[:, :-1]
        lap[:, :-1] += c[:, 1:]
        upper = np.zeros(size - 1)
        upper[1:] += c[band[1:] - 1, band[1:] + 1]
        upper[:-1] += c[band[:-1], band[:-1] + 2]
        upper -= 2.0 * c[band, band + 1]
        lap[band, band + 1] = upper
        lap[band + 1, band] = upper
        np.fill_diagonal(lap, 0.0)
        lap[0, :] = lap[-1, :] = 0.0
        lap[:, 0] = lap[:, -1] = 0.0
        return lap

    steps = max(1, int(math.ceil(t / dt)))
    h = t / steps
    for _ in range(steps):
        k1 = rhs(C)
        k2 = rhs(C + 0.5 * h * k1)
        k3 = rhs(C + 0.5 * h * k2)
        k4 = rhs(C + h * k3)
        C += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    mask = ys > x
    sub = C[np.ix_(mask, mask)]
    return float(np.triu(sub, k=1).sum() * 2.0)


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
        law = enumerate_heights(dyn6v, 4, spec.xs, lam0=lam)
        batch = sample_irf_batch(dyn6v, 3, 4, seed=8, n_traj=40)
        drawn = np.stack([batch_heights(batch, x, 4) for x in spec.xs], axis=1)
        for hs, at in ((np.array(list(law)), lam), (drawn, dyn6v.lambda0)):
            got = _irf_product(hs, spec, dyn6v, at)
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
        quad = exact_E("irf", spec, dyn6v, check_residue=False)
        res, cond = _irf_residue_sum(spec, dyn6v)
        assert abs(quad - res) <= 1e-8 * max(1.0, abs(res))

    def test_lambda_free(self, dyn6v):
        # the integral contains no dynamic parameter at all; rebuilt packs
        # with different corner fillings give the identical value
        spec = ObservableSpec((2, 1), 2)
        a = exact_E("irf", spec, dyn6v.with_lambda0(0.3 + 0.2j), check_residue=False)
        b = exact_E("irf", spec, dyn6v.with_lambda0(-1.1 + 0.4j), check_residue=False)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


class TestLambdaIndependence:
    def test_exact_enumeration(self, dyn6v):
        spec = ObservableSpec((3, 2), 4)
        rep = lambda_independence_report("irf", spec, [dyn6v.lambda0, 0.2 + 0.3j, -0.4 + 0.1j], dyn6v)
        assert rep.passed and rep.residual < 1e-9

    def test_hs6v_limit(self, dyn6v):
        spec = ObservableSpec((3, 2), 4)
        at_limit = enum_E(spec, dyn6v, lam=-5j)
        qm = hs6v_q_moment(spec, dyn6v)
        assert abs(at_limit - qm) <= 1e-6 * max(1.0, abs(qm))

    def test_mc_variant(self, dyn6v):
        spec = ObservableSpec((2,), 2)
        rep = lambda_independence_report(
            "irf", spec, [dyn6v.lambda0, dyn6v.lambda0 - 2 * dyn6v.eta], dyn6v, samples=20000, seed=3
        )
        assert rep.passed


class TestRational:
    def test_integral_enum_mc(self, rational):
        spec = ObservableSpec((2, 1), 3)
        vi = exact_E("rational", spec, rational)
        ve = enum_E(spec, rational)
        assert abs(vi - ve) <= 1e-10 * max(1.0, abs(ve))
        m, se = mc_E("rational", spec, rational, 20000, seed=5)
        assert abs(m - vi) <= 4 * se

    @pytest.mark.parametrize(
        "xs, N", [((2,), 3), ((2, 1), 3), ((3, 2), 4), ((4, 2, 1), 4), ((5, 3, 2), 5), ((1,), 2)]
    )
    def test_integral_matches_enumeration(self, rational, xs, N):
        # (5, 3, 2) at N = 5 has residue-sum conditioning 2.1e11; a flat
        # 1e-8 residue gate used to reject its quadrature with ArithmeticError
        spec = ObservableSpec(xs, N)
        vi = exact_E("rational", spec, rational)
        ve = enum_E(spec, rational)
        assert abs(vi - ve) <= 1e-10 * max(1.0, abs(ve))

    def test_model_and_pack_mode_must_agree(self, dyn6v, rational, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran on a mismatched pack")

        monkeypatch.setattr(observables, "contour_integral_factored", no_quadrature)
        spec = ObservableSpec((2, 1), 3)
        with pytest.raises(InvalidParameterError, match="rational-mode pack"):
            exact_E("rational", spec, dyn6v)
        with pytest.raises(InvalidParameterError, match="non-rational-mode pack"):
            exact_E("irf", spec, rational)

    def test_mc_E_model_and_pack_mode_must_agree(self, dyn6v, rational, monkeypatch):
        # mc_E used to sample either pack under either model: "irf" on the
        # rational pack read 0.412 where the rational average is 4.079
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a mismatched pack")

        monkeypatch.setattr(observables, "sample_irf_batch", no_sampling)
        spec = ObservableSpec((2, 1), 3)
        with pytest.raises(InvalidParameterError, match="rational-mode pack"):
            mc_E("rational", spec, dyn6v, 4000, 1)
        with pytest.raises(InvalidParameterError, match="non-rational-mode pack"):
            mc_E("irf", spec, rational, 4000, 1)


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


class TestFactoredGridMemory:
    def test_cross_factor_blocks_stay_under_max_grid(self, monkeypatch):
        # the saddle F2 route reaches 4096 nodes/variable at t = 1e4; its
        # 4096 x 4096 cross matrix used to be built whole (about 270 MB)
        import dynirf.observables as obs
        from dynirf import special

        seen = []
        real = obs.contour_integral_factored

        def spy_binaries(terms, *args, **kwargs):
            def spy(fn):
                def wrapped(x, y):
                    seen.append((np.broadcast(x, y).size, np.shape(y)[-1]))
                    return fn(x, y)

                return wrapped

            terms = [(u, {k: spy(fn) for k, fn in b.items()}) for u, b in terms]
            return real(terms, *args, **kwargs)

        monkeypatch.setattr(obs, "contour_integral_factored", spy_binaries)
        _ssep_f2_large_t(0, 1e4)
        assert max(cols for _, cols in seen) == 4096
        assert max(size for size, _ in seen) <= special._MAX_GRID

    def test_saddle_route_traced_peak(self):
        # the pole form builds one Cauchy-kernel block at a time (about 17 MB
        # traced peak); the one-term cross form traced about 200 MB
        import tracemalloc

        tracemalloc.start()
        try:
            _ssep_f2_large_t(0, 1e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


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


class TestSsep:
    def test_t0_values(self):
        for x, want in [(2, 0.0), (0, 0.0), (-3, -3.0)]:
            v = exact_E("ssep", ObservableSpec((x,), 0.0), (2.0,))
            assert abs(v - want) < 1e-10

    def test_mean_height_series(self):
        assert abs(ssep_mean_height(0, 1.0) - 0.5237776118026084) < 1e-12
        assert ssep_mean_height(3, 0.0) == 0.0
        assert ssep_mean_height(-4, 0.0) == 4.0

    def test_internal_series_check_runs(self):
        v = exact_E("ssep", ObservableSpec((1,), 1.0), (2.0,))
        assert v.real < 0  # -E h < 0 for t > 0

    def test_mc_agreement(self):
        spec = ObservableSpec((1, 0), 1.0)
        v = exact_E("ssep", spec, (2.0,))
        m, se = mc_E("ssep", spec, (2.0,), 30000, seed=11)
        assert abs(m - v) <= 4 * se

    def test_direct_route_refuses_large_t(self):
        with pytest.raises(InvalidParameterError):
            exact_E("ssep", ObservableSpec((0,), 100.0), (1.0,))

    def test_falling_moment_routes_agree(self):
        # direct quadrature / duality ODE / saddle engine across their seams
        d1 = ssep_falling_moment(0, 10.0, 2)
        ode = ssep_f2_duality(0, 10.0, dt=0.05)
        assert abs(d1 - ode) <= 1e-6 * abs(ode)

    @pytest.mark.slow
    def test_saddle_engine_vs_duality(self):
        for t in (250.0, 400.0):
            eng = _ssep_f2_large_t(0, t)
            ode = ssep_f2_duality(0, t)
            assert abs(eng - ode) <= 2e-4 * abs(ode), t

    @pytest.mark.parametrize(
        "x, t, dt",
        [
            (0, 0.05, 0.1),  # a single RK4 step
            (0, 5.0, 0.05),
            (0, 10.0, 0.1),
            (2, 10.0, 0.1),
            (-3, 7.0, 0.1),
            (-2, 0.0, 0.1),  # the step profile itself
            pytest.param(0, 300.0, 0.1, marks=pytest.mark.slow),
            pytest.param(0, 400.0, 0.1, marks=pytest.mark.slow),
            pytest.param(0, 500.0, 0.34, marks=pytest.mark.slow),  # 8h near RK4's stability limit
        ],
    )
    def test_duality_matches_rk4_loop(self, x, t, dt):
        ref = ssep_f2_rk4(x, t, dt)
        assert abs(ssep_f2_duality(x, t, dt=dt) - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize(
        "t, dt",
        [
            (10.0, 0.0),  # used to raise ZeroDivisionError
            (10.0, float("nan")),  # used to raise a bare ValueError
            (10.0, float("inf")),
            (10.0, -0.1),  # used to return 1666.67
            (10.0, 0.5),  # 8h = 4 is past RK4's real-axis limit; used to return 2.4e8
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

    @pytest.mark.parametrize("t, n", [(8.0, 3), (1.0, 4)])
    def test_falling_moment_refuses_unsupported_range(self, monkeypatch, t, n):
        # n = 3 converged erratically past t = 7.6 (0.65 at t = 8, ConvergenceError
        # at 8.05); n = 4's second level always passed the grid cap
        import dynirf.observables as obs

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(obs, "contour_integral_factored", no_quadrature)
        with pytest.raises(InvalidParameterError):
            ssep_falling_moment(0, t, n)

    def test_direct_route_refuses_overlapping_pairs(self):
        # five circles put the largest pair past r_i + r_j = 0.95
        with pytest.raises(InvalidParameterError):
            exact_E("ssep", ObservableSpec((0,) * 5, 1.0), (1.0,))

    @pytest.mark.slow
    def test_third_moment_direct_route_vs_mc(self):
        spec = ObservableSpec((0, -1, -2), 4.0)
        v = exact_E("ssep", spec, (2.0,))
        m, se = mc_E("ssep", spec, (2.0,), 100000, seed=31)
        assert abs(m - v) <= 4 * se


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


class TestAsep:
    def test_t0_vanishing_for_positive_sites(self):
        v = exact_E("asep", ObservableSpec((2,), 0.0), (0.5, 2.0))
        assert abs(v) < 1e-10

    def test_series_check_and_mc(self):
        spec = ObservableSpec((0,), 1.0)
        v = exact_E("asep", spec, (0.5, 2.0))
        m, se = mc_E("asep", spec, (0.5, 2.0), 20000, seed=8)
        assert abs(m - v) <= 4 * se

    def test_alpha_independence_of_usual_limit(self):
        # E^ASEP is alpha-free; two alphas give the same exact integral
        a = exact_E("asep", ObservableSpec((1,), 0.8), (0.5, 1.0))
        b = exact_E("asep", ObservableSpec((1,), 0.8), (0.5, 3.0))
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


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
        law = enumerate_heights(dyn6v, N, (x,), lam0=dyn6v.lambda0)
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
        rep = lambda_independence_report("ssep", spec, [1.5, 3.0], None, samples=20000, seed=21)
        assert rep.passed, (rep.lhs, rep.rhs, rep.tolerance)

    def test_asep_alpha_pairs_mc(self):
        spec = ObservableSpec((0,), 0.8)
        rep = lambda_independence_report("asep", spec, [(0.5, 1.0), (0.5, 2.5)], None, samples=20000, seed=22)
        assert rep.passed


class TestGeneralSpinAverages:
    def test_integral_matches_enumeration_any_spin(self):
        # the observable theorem at inhomogeneous non-integer spins with
        # complex weights: integral vs absorbing enumeration
        P = preset("trig-admissible")
        for xs, N in [((2,), 2), ((2, 1), 2), ((3, 2), 3)]:
            spec = ObservableSpec(xs, N)
            ei = exact_E("irf", spec, P, check_residue=False)
            ee = enum_E(spec, P)
            assert abs(ei - ee) <= 1e-10 * max(1.0, abs(ee)), (xs, N)

    def test_lambda_independence_any_spin(self):
        P = preset("trig-admissible")
        spec = ObservableSpec((2, 1), 2)
        rep = lambda_independence_report("irf", spec, [P.lambda0, 0.8 + 0.1j, -0.3 + 0.4j], P)
        assert rep.passed and rep.residual < 1e-9


class TestLatticeInputs:
    """Out-of-range lattice specs raise before any row is swept or integrated."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("did work on a rejected spec")

        monkeypatch.setattr(samplers, "_row_sweep", never)
        monkeypatch.setattr(observables, "contour_integral_factored", never)
        monkeypatch.setattr(observables, "sample_irf_batch", never)

    @staticmethod
    def _routes(params):
        return [
            lambda spec: enum_E(spec, params),
            lambda spec: hs6v_q_moment(spec, params),
            lambda spec: exact_E("irf", spec, params),
        ]

    def test_more_rows_than_the_pack(self, dyn6v, no_work):
        for route in self._routes(dyn6v):
            with pytest.raises(InvalidParameterError, match="rows"):
                route(ObservableSpec((3,), dyn6v.n_rows + 1))

    def test_sites_past_the_last_column(self, dyn6v, no_work):
        for route in self._routes(dyn6v)[:2]:
            with pytest.raises(InvalidParameterError, match="columns"):
                route(ObservableSpec((dyn6v.n_cols,), 3))

    def test_non_integral_row_index(self, dyn6v, rational, no_work):
        routes = self._routes(dyn6v) + [lambda spec: exact_E("rational", spec, rational)]
        for route in routes:
            with pytest.raises(InvalidParameterError, match="integer"):
                route(ObservableSpec((3,), 2.5))

    @pytest.mark.parametrize("xs", [(3, 0), (0,), (2, -1)])
    def test_rational_exact_E_needs_sites_from_column_one(self, rational, no_work, xs):
        # the integral used to wrap its column slice: 0.4655 against
        # enumeration's 2.4220 at (3, 0), a bare ValueError at (0,)
        with pytest.raises(InvalidParameterError, match="x >= 1"):
            exact_E("rational", ObservableSpec(xs, 3), rational)

    @pytest.mark.parametrize("xs", [(3, 0), (0,), (2, -1)])
    def test_rational_enum_E_needs_sites_from_column_one(self, rational, no_work, xs):
        with pytest.raises(InvalidParameterError, match="x >= 1"):
            enum_E(ObservableSpec(xs, 3), rational)

    @pytest.mark.parametrize("xs", [(3, 0), (0,), (2, -1)])
    def test_rational_mc_E_needs_sites_from_column_one(self, rational, no_work, xs):
        with pytest.raises(InvalidParameterError, match="x >= 1"):
            mc_E("rational", ObservableSpec(xs, 3), rational, 1000, seed=0)
