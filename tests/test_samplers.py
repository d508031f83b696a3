import numpy as np
import pytest

from dynirf.params import preset
from dynirf.samplers import (
    batch_heights,
    enumerate_distribution,
    exclusion_farm,
    filling,
    height,
    sample_irf,
    sample_irf_batch,
    PositivityError,
    simulate_exclusion,
    step_exclusion_state,
    trajectory_seed,
    uniform_hash,
)
from dynirf.samplers import _rate, _site_move
from dynirf.special import InvalidParameterError
from dynirf.symfunc import Signature, row_transfer, skew_B_lattice


@pytest.fixture(scope="module")
def dyn6v():
    return preset("dyn6v-positive")


@pytest.fixture(scope="module")
def rational():
    return preset("rational-positive")


class TestUniformHash:
    def test_deterministic_and_in_range(self):
        a = uniform_hash(42, 3, 7)
        assert a == uniform_hash(42, 3, 7)
        assert 0.0 <= a < 1.0

    def test_vector_matches_scalar(self):
        seeds = np.arange(5, dtype=np.int64)
        vec = uniform_hash(seeds, np.int64(2), np.int64(9))
        for i, s in enumerate(seeds):
            assert vec[i] == uniform_hash(int(s), 2, 9)

    def test_key_sensitivity(self):
        assert uniform_hash(1, 2, 3) != uniform_hash(1, 3, 2)


class TestTrajectorySeed:
    def test_vector_matches_scalar(self):
        vec = trajectory_seed(77, np.arange(6, dtype=np.int64))
        assert vec.dtype == np.int64
        assert [int(v) for v in vec] == [trajectory_seed(77, i) for i in range(6)]

    def test_no_xor_collisions(self):
        # seed ^ index maps (0, 1) and (1, 0) to the same trajectory; the
        # hash of the pair as separate keys does not
        seeds = {trajectory_seed(s, i) for s in range(8) for i in range(64)}
        assert len(seeds) == 8 * 64

    def test_farm_streams_differ_across_seeds(self):
        a = exclusion_farm("ssep", (2.0,), 1.0, 64, seed=4, xs=[0, 1])
        b = exclusion_farm("ssep", (2.0,), 1.0, 64, seed=5, xs=[0, 1])
        assert not np.array_equal(np.sort(a, axis=0), np.sort(b, axis=0))


class TestQuadrantSampler:
    def test_empty_window(self, dyn6v):
        st = sample_irf(dyn6v, 4, 0, seed=1)
        assert st.vout.sum() == 0 and st.hout.sum() == 0

    def test_reproducible(self, dyn6v):
        a = sample_irf(dyn6v, 5, 5, seed=9)
        b = sample_irf(dyn6v, 5, 5, seed=9)
        assert np.array_equal(a.vout, b.vout) and np.array_equal(a.hout, b.hout)

    def test_conservation_and_heights(self, dyn6v):
        st = sample_irf(dyn6v, 5, 5, seed=3)
        st.validate()
        for N in range(6):
            assert height(st, 1, N) == N
        hs = [height(st, x, 4) for x in range(1, 6)]
        assert all(hs[i] >= hs[i + 1] for i in range(4))
        assert all(0 <= h <= 4 for h in hs)

    def test_boundary_fillings(self, dyn6v):
        st = sample_irf(dyn6v, 4, 4, seed=5)
        lam0, eta = dyn6v.lambda0, dyn6v.eta
        for y in range(5):
            assert abs(filling(st, 0, y) - (lam0 - 2 * eta * y)) < 1e-12
        for x in range(5):
            want = lam0 - 2 * eta * dyn6v.lam_sum(1, x + 1)
            assert abs(filling(st, x, 0) - want) < 1e-12

    def test_filling_path_independence(self, dyn6v):
        st = sample_irf(dyn6v, 5, 5, seed=11)
        for x in range(4):
            for y in range(5):
                filling(st, x, y, check=True)

    def test_rational_sampler(self, rational):
        st = sample_irf(rational, 5, 5, seed=2)
        st.validate()
        assert height(st, 1, 5) == 5

    def test_batch_equals_scalar(self, dyn6v):
        batch = sample_irf_batch(dyn6v, 4, 4, seed=77, n_traj=5)
        for i in range(5):
            sc = sample_irf(dyn6v, 4, 4, seed=int(batch["seeds"][i]))
            assert np.array_equal(sc.vout, batch["vout"][i])
            assert np.array_equal(sc.hout, batch["hout"][i])
            assert batch_heights(batch, 3, 4)[i] == height(sc, 3, 4)

    def test_spin_half_cap(self, dyn6v):
        st = sample_irf(dyn6v, 6, 6, seed=13)
        assert st.vout.max() <= 1

    @pytest.mark.parametrize("bad", [float("nan"), 0.5 + 0.1j, 1.5])
    def test_batch_rejects_non_probability(self, dyn6v, monkeypatch, bad):
        # a NaN turn weight used to read as "no turn", and a complex one
        # passed on its real part
        import dynirf.samplers as samplers

        real = samplers.spin_half_weights

        def patched(*args):
            a0, a1, b0, c1, d0, d1 = real(*args)
            return a0, a1, b0, c1, np.full_like(d0, bad), d1

        monkeypatch.setattr(samplers, "spin_half_weights", patched)
        with pytest.raises(PositivityError):
            sample_irf_batch(dyn6v, 3, 3, seed=1, n_traj=8)

    @pytest.mark.parametrize("bad", [float("nan"), 0.5 + 0.1j])
    def test_scalar_rejects_non_probability(self, dyn6v, monkeypatch, bad):
        import dynirf.weights

        monkeypatch.setattr(dynirf.weights, "weight", lambda *args, **kwargs: bad)
        with pytest.raises(PositivityError):
            sample_irf(dyn6v, 3, 3, seed=1)


class TestEnumeration:
    def test_normalization_with_escape(self, dyn6v):
        dist, esc = enumerate_distribution(dyn6v, 3, 8)
        assert abs(sum(dist.values()) + esc - 1) < 1e-10
        assert abs(esc) < 0.01

    def test_matches_stochastic_B(self, dyn6v):
        N = 2
        dist, _ = enumerate_distribution(dyn6v, N, 7)
        lam_arg = dyn6v.lambda0 - 2 * dyn6v.eta * (N - dyn6v.lam(0))
        ws = [dyn6v.w(k) for k in range(1, N + 1)]
        # a non-empty bottom signature, pushed up row by row (bottom row,
        # w_N at lambda + 2*eta*(N-1), first)
        nu = Signature((2, 1))
        dist_nu = {nu: 1.0 + 0.0j}
        for j in range(N, 0, -1):
            dist_nu = row_transfer(dist_nu, lam_arg + 2 * dyn6v.eta * (j - 1), ws[j - 1], dyn6v, 7)
        for bottom, law in (((), dist), (nu, dist_nu)):
            for kappa, prob in list(law.items())[:6]:
                direct = skew_B_lattice(kappa, bottom, lam_arg, ws, dyn6v, stochastic=True)
                assert abs(prob - direct) < 1e-12

    def test_single_row_is_product_form(self, dyn6v):
        dist, _ = enumerate_distribution(dyn6v, 1, 8)
        lam_arg = dyn6v.lambda0 - 2 * dyn6v.eta * (1 - dyn6v.lam(0))
        for kappa, prob in dist.items():
            direct = skew_B_lattice(kappa, (), lam_arg, [dyn6v.w(1)], dyn6v, stochastic=True)
            assert abs(prob - direct) < 1e-13

    def test_empirical_frequencies(self, dyn6v):
        # sampled crossing signatures against the exact law, 4 sigma
        N, X, n = 2, 6, 30_000
        dist, _ = enumerate_distribution(dyn6v, N, X)
        batch = sample_irf_batch(dyn6v, X, N, seed=515, n_traj=n)
        vtop = batch["vout"][:, 1:, N]
        counts: dict = {}
        for i in range(n):
            cols = tuple(int(c) for c in np.nonzero(vtop[i])[0][::-1] + 1)
            counts[cols] = counts.get(cols, 0) + 1
        for kappa, prob in sorted(dist.items(), key=lambda kv: -abs(kv[1]))[:6]:
            p = prob.real
            emp = counts.get(kappa.parts, 0) / n
            se = max((p * (1 - p) / n) ** 0.5, 1e-9)
            assert abs(emp - p) < 4 * se, (kappa, emp, p)


class TestExclusion:
    def test_step_state(self):
        st = step_exclusion_state("ssep", (2.0,))
        assert st.value(0) == 0 and st.value(-3) == 3 and st.value(100) == 100
        assert st.particles() == [x for x in range(st.lo, 0)]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            step_exclusion_state("ssep", (-1.0,))
        with pytest.raises(InvalidParameterError):
            step_exclusion_state("asep", (0.5, -0.2))
        with pytest.raises(InvalidParameterError):
            step_exclusion_state("tasep", (1.0,))

    def test_asep_alpha_zero_rates(self):
        down, up = _rate("asep", (0.7, 0.0), 5, -2), _rate("asep", (0.7, 0.0), 5, 2)
        assert abs(down - 0.7) < 1e-15 and abs(up - 1.0) < 1e-15

    def test_ssep_large_lambda_rates(self):
        down, up = _rate("ssep", (1e9,), 3, -2), _rate("ssep", (1e9,), 3, 2)
        assert abs(down - 1) < 1e-8 and abs(up - 1) < 1e-8

    def test_rate_on_arrays_matches_scalar_calls(self):
        # exclusion_farm prices every site at once; the elementwise values
        # must be those of the scalar calls _site_move makes
        s = np.array([[0.0, 1.0, 2.0, 5.0], [3.0, 1.0, 4.0, 7.0]])
        delta = np.array([[2, -2, 2, -2], [-2, 2, -2, 2]], dtype=np.int8)  # the farm's dtype
        for kind, rates in (("asep", (0.5, 2.0)), ("asep", (1.7, -0.4)), ("ssep", (1.0,)), ("ssep", (2.5,))):
            got = _rate(kind, rates, s, delta)
            for i, j in np.ndindex(s.shape):
                assert got[i, j] == _rate(kind, rates, int(s[i, j]), int(delta[i, j])), (kind, i, j)

    def test_ssep_lambda_bar_one_at_origin(self):
        # s_0 = 0 is a local minimum: only the up-rate (0+1)/(0+1+1) exists;
        # the down-rate's denominator s-1+lambda_bar vanishes there
        st = step_exclusion_state("ssep", (1.0,))
        assert _site_move(st, 0) == (2, 0.5)
        assert _site_move(st, 3) is None
        out = simulate_exclusion(st, 1.0, seed=3, record=True)
        assert all(abs(out.value(x + 1) - out.value(x)) == 1 for x in range(out.lo, out.hi))

    def test_t_zero_identity(self):
        st = step_exclusion_state("asep", (0.5, 2.0))
        out = simulate_exclusion(st, 0.0, seed=4)
        assert out.s == st.s and out.t == 0.0

    def test_adjacency_and_boundary(self):
        st = step_exclusion_state("ssep", (1.5,))
        out = simulate_exclusion(st, 2.0, seed=8, record=True)
        for x in range(out.lo, out.hi):
            assert abs(out.value(x + 1) - out.value(x)) == 1
        assert out.value(out.lo) == abs(out.lo) and out.value(out.hi) == out.hi

    def test_particle_count_conserved(self):
        st = step_exclusion_state("asep", (0.6, 1.0))
        before = len(st.particles())
        out = simulate_exclusion(st, 1.5, seed=21)
        after = len(out.particles())
        # the window only ever grows into untouched step regions, adding
        # one particle per site on the left and none on the right
        assert after - before == (st.lo - out.lo)

    def test_particles_roundtrip(self):
        st = simulate_exclusion(step_exclusion_state("ssep", (2.0,)), 1.0, seed=31)
        occupied = set(st.particles())
        s = {st.lo: st.value(st.lo)}
        for x in range(st.lo, st.hi):
            s[x + 1] = s[x] + (-1 if x in occupied else 1)
        assert all(s[x] == st.value(x) for x in range(st.lo, st.hi + 1))

    def test_deterministic(self):
        st = step_exclusion_state("ssep", (2.0,))
        a = simulate_exclusion(st, 1.0, seed=99, record=True)
        b = simulate_exclusion(st, 1.0, seed=99, record=True)
        assert a.s == b.s and a.events == b.events

    def test_heights(self):
        st = step_exclusion_state("ssep", (2.0,))
        assert st.heights([-2, 0, 3]) == [2, 0, 0]


class TestExclusionFarm:
    def test_batch_size_independent(self):
        small = exclusion_farm("ssep", (2.0,), 1.0, 4, seed=6, xs=[0, 1])
        large = exclusion_farm("ssep", (2.0,), 1.0, 64, seed=6, xs=[0, 1])
        assert np.array_equal(small, large[:4])

    def test_matches_heap_engine_distribution(self):
        # same CTMC law from the two independent engines, 4 sigma on E[s_0]
        n = 4000
        farm = exclusion_farm("ssep", (2.0,), 1.0, n, seed=1, xs=[0]).astype(float)
        heap_vals = np.array(
            [simulate_exclusion(step_exclusion_state("ssep", (2.0,)), 1.0, seed=i).value(0) for i in range(800)],
            dtype=float,
        )
        se = (farm.var() / n + heap_vals.var() / len(heap_vals)) ** 0.5
        assert abs(farm.mean() - heap_vals.mean()) < 4 * se

    def test_adjacency_in_farm(self):
        n = 50
        xs = list(range(-6, 7))
        out = exclusion_farm("asep", (0.6, 1.5), 1.0, n, seed=2, xs=xs)
        diffs = np.abs(np.diff(out, axis=1))
        assert set(np.unique(diffs)) <= {1}


class TestVertexFrequencies:
    def test_conditional_plaquette_probabilities(self, dyn6v):
        # at a fixed interior vertex, group trajectories by the local
        # context (incoming arrows and filling) and compare the empirical
        # branch frequency with the conditional Bernoulli bias, 4 sigma
        from dynirf.weights import WeightContext, weight

        n = 100_000
        x0, y0 = 2, 2
        batch = sample_irf_batch(dyn6v, 3, 3, seed=1234, n_traj=n)
        i1 = batch["vout"][:, x0, y0 - 1]
        j1 = batch["hout"][:, x0 - 1, y0]
        v_left = batch["vout"][:, 1, y0]  # fixes the filling left of (2, 2)
        turned = batch["hout"][:, x0, y0] == 1
        two_eta = 2 * dyn6v.eta
        for iv in (0, 1):
            for jv in (0, 1):
                for vl in (0, 1):
                    mask = (i1 == iv) & (j1 == jv) & (v_left == vl)
                    m = int(mask.sum())
                    if m < 500:
                        continue
                    lam_v = dyn6v.lambda0 - two_eta * y0 + 2 * two_eta * vl - two_eta * dyn6v.lam(1)
                    ctx = WeightContext(lam_v, dyn6v.w(y0), dyn6v.z(x0), 1.0, dyn6v.eta, dyn6v.mode)
                    if jv == 0:
                        p = weight("C", 1, ctx, stochastic=True).real if iv else 0.0
                    else:
                        p = weight("D", iv, ctx, stochastic=True).real
                    emp = float(turned[mask].mean())
                    se = max((p * (1 - p) / m) ** 0.5, 1e-9)
                    assert abs(emp - p) <= 4 * se, (iv, jv, vl, emp, p)


class TestExclusionLimitSanity:
    def test_dyn6v_to_asep_height_drift(self, dyn6v):
        # light numerical sanity for the six-vertex -> exclusion limit: on
        # the diagonal window at xi*u = q^{-1/2}(1 + (1-q) eps), the height
        # drift matches the dynamic ASEP at time t = eps * rows, up to
        # O(eps) corrections and Monte Carlo error
        import math

        from dynirf.params import IrfParams
        from dynirf.special import FunctionMode

        q, alpha, eps = 0.64, 2.0, 0.1
        t = 0.8
        T = int(round(t / eps))  # 8 rows
        eta = 1j * math.log(q) / (4 * math.pi)
        xi_u = q**-0.5 * (1 + (1 - q) * eps)
        z = -1j * math.log(xi_u) / (2 * math.pi) - eta  # w = 0 rows
        lam0 = -0.5 + 1j * math.log(alpha) / (2 * math.pi)
        params = IrfParams(
            FunctionMode.trigonometric(), eta, lam0,
            tuple((z, 1.0 + 0j) for _ in range(T + 6)), (0j,) * T,
        )
        n = 30_000
        x_obs = 0  # diagonal site
        col = T + x_obs + 1
        batch = sample_irf_batch(params, col, T, seed=77, n_traj=n)
        h6v = batch_heights(batch, col, T).astype(float)
        s6v = 2 * h6v + x_obs  # s = 2h + x for step-type states
        sa = exclusion_farm("asep", (q, alpha), t, n, seed=78, xs=[x_obs]).astype(float)[:, 0]
        se = (s6v.var() / n + sa.var() / n) ** 0.5
        assert abs(s6v.mean() - sa.mean()) <= 4 * se + 3.0 * eps
