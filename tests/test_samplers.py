import itertools
import math
import signal
from dataclasses import replace

import numpy as np
import pytest

from dynirf import samplers
from dynirf.params import IrfParams, preset
from dynirf.samplers import (
    ExclusionState,
    enumerate_heights,
    exclusion_farm,
    PositivityError,
    simulate_exclusion,
    step_exclusion_state,
    trajectory_seed,
    uniform_hash,
)
from dynirf.samplers import _rate
from dynirf.special import FunctionMode, InvalidParameterError
from dynirf.symfunc import Signature, _strip, skew_B_lattice
import reference_routes
from reference_routes import QuadrantState, enumerate_distribution, filling, height, irf_batch_heights, sample_irf, spin_pack


@pytest.fixture(scope="module")
def dyn6v():
    return preset("dyn6v-positive")


@pytest.fixture(scope="module")
def rational():
    return preset("rational-positive")


@pytest.fixture(scope="module")
def dyn6v_elliptic(dyn6v):
    # at tau = 6i the elliptic weights miss a + c = 1 and b + d = 1 by 3.7e-13
    return replace(dyn6v, mode=FunctionMode.elliptic(6j))


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


def numpy_path(seed, *keys):
    return int(samplers._hash64(seed, *keys))


class TestScalarHashPath:
    """``_fold``, the event engine's SplitMix64 on Python ints, gives the bits of the numpy ``_hash64``."""

    LO, HI = -(2**63), 2**63 - 1

    @pytest.mark.parametrize(
        "seed,keys",
        [
            (0, (0, 0)),
            (-1, (-5, 3)),
            (-(2**63), (7,)),
            (2**63, (1, 2)),
            (2**64 - 1, (HI, LO)),
            (2**64 + 11, (0,)),
            (12345, (LO, 0, HI)),
            (98765, ()),
        ],
    )
    def test_edge_values_match_numpy(self, seed, keys):
        assert samplers._fold(0, seed, *keys) == numpy_path(seed, *keys)

    def test_random_values_match_numpy(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            seed = int(rng.integers(-(2**63), 2**63)) * int(rng.integers(1, 4))  # some seeds pass 2**63
            keys = [int(k) for k in rng.integers(self.LO, self.HI, size=int(rng.integers(0, 4)), endpoint=True)]
            assert samplers._fold(0, seed, *keys) == numpy_path(seed, *keys)

    def test_numpy_scalars_and_bools_give_the_same_draw(self):
        want = uniform_hash(42, 1, -3)
        assert uniform_hash(np.int64(42), 1, -3) == want
        assert uniform_hash(42, np.int64(1), np.int32(-3)) == want
        assert uniform_hash(42, True, -3) == want
        assert uniform_hash(np.uint64(2**63 + 9), 4) == uniform_hash(2**63 + 9, 4)
        assert want == (samplers._fold(0, 42, 1, -3) >> 11) * 2.0**-53

    def test_routing(self, monkeypatch):
        # uniform_hash has one path: plain ints, numpy scalars and bools all reach the numpy hash
        seen = []
        real = samplers._hash64
        monkeypatch.setattr(samplers, "_hash64", lambda *a: seen.append(a) or real(*a))
        uniform_hash(3, 4, -5)
        uniform_hash(3, np.int64(4))
        uniform_hash(3, True)
        uniform_hash(np.int64(3), 4)
        assert len(seen) == 4

    @pytest.mark.parametrize("key", [2**63, -(2**63) - 1])
    def test_key_outside_int64_raises(self, key):
        with pytest.raises(OverflowError):
            uniform_hash(1, key)


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

    def test_no_collisions_at_sample_counts_in_use(self):
        # seeds 0-15, each with the 10^5 trajectories of an mc_E run
        seeds = np.sort(np.concatenate([trajectory_seed(s, np.arange(100_000, dtype=np.int64)) for s in range(16)]))
        assert seeds.size == 16 * 100_000 and (seeds[1:] != seeds[:-1]).all()

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

    def test_filling_check_refuses_the_last_column(self, dyn6v):
        # the path check climbs the column right of x, which x = X lacks
        st = sample_irf(dyn6v, 5, 5, seed=11)
        for y in range(1, 6):
            with pytest.raises(InvalidParameterError, match="needs x < X"):
                filling(st, st.X, y, check=True)
        assert filling(st, st.X, 0, check=True) == filling(st, st.X, 0)

    def test_rational_sampler(self, rational):
        st = sample_irf(rational, 5, 5, seed=2)
        st.validate()
        assert height(st, 1, 5) == 5

    def test_batch_equals_scalar(self, dyn6v):
        batch = samplers._irf_batch(dyn6v, 4, 4, 77, 0, 5)
        heights = irf_batch_heights(dyn6v, (3, 2, 1), 4, 77, 5)
        for i in range(5):
            sc = sample_irf(dyn6v, 4, 4, seed=trajectory_seed(77, i))
            assert np.array_equal(sc.vout, batch["vout"][i])
            assert np.array_equal(sc.hout, batch["hout"][i])
            assert list(heights[i]) == [height(sc, x, 4) for x in (3, 2, 1)]

    def test_spin_half_cap(self, dyn6v):
        st = sample_irf(dyn6v, 6, 6, seed=13)
        assert st.vout.max() <= 1

    @pytest.mark.parametrize("lams, ok", [((1, 2), True), ((3, 1), False)])
    def test_cap_is_each_columns_own(self, lams, ok):
        # two paths go up column 2: one turns up in row 1, and row 2's path
        # crosses column 1 and joins it.  Every column used to be capped by
        # Lambda_1: Lambda = (., 1, 2) refused this state, (., 3, 1) passed it
        params = IrfParams(FunctionMode.trigonometric(), 0.1j, 0.0, [(0.1, 1.0)] + [(0.1, l) for l in lams], (0.0, 0.0))
        vout, hout = np.zeros((3, 3), dtype=np.int64), np.zeros((3, 3), dtype=np.int64)
        hout[1, 1:] = 1
        vout[2, 1:] = 1, 2
        st = QuadrantState(2, 2, vout, hout, params)
        if ok:
            st.validate()
        else:
            with pytest.raises(InvalidParameterError, match="cap violated in column 2"):
                st.validate()

    def test_validate_refuses_a_window_past_the_pack(self):
        # column 3 of a 3-column pack has no Lambda to cap it by
        params = IrfParams(FunctionMode.trigonometric(), 0.1j, 0.0, [(0.1, 1.0)] * 3, (0.0,))
        vout, hout = np.zeros((4, 2), dtype=np.int64), np.ones((4, 2), dtype=np.int64)
        with pytest.raises(InvalidParameterError, match="the parameter pack has 3 columns"):
            QuadrantState(3, 1, vout, hout, params).validate()

    @pytest.mark.parametrize("bad", [float("nan"), 0.5 + 0.1j, 1.5])
    def test_batch_rejects_non_probability(self, dyn6v, monkeypatch, bad):
        # a NaN turn weight used to read as "no turn", and a complex one
        # passed on its real part; here every d_0 is ``bad``
        real = samplers._turn_table

        def patched(*args):
            stay, turn = real(*args)
            turn[1, 0] = bad
            return stay, turn

        monkeypatch.setattr(samplers, "_turn_table", patched)
        with pytest.raises(PositivityError):
            samplers._irf_batch(dyn6v, 3, 3, 1, 0, 8)

    @pytest.mark.parametrize("bad", [float("nan"), 0.5 + 0.1j])
    def test_scalar_rejects_non_probability(self, dyn6v, monkeypatch, bad):
        # every row's weight callback returns ``bad``
        monkeypatch.setattr(reference_routes, "plaquette_weights", lambda *args: lambda *weight_args: bad)
        with pytest.raises(PositivityError):
            sample_irf(dyn6v, 3, 3, seed=1)

    def test_samplers_refuse_weights_that_do_not_sum_to_one(self, dyn6v):
        # at tau = i the elliptic weights miss a + c = 1 and b + d = 1 by
        # about 1e-3 while each lies in [0, 1]: mc_E returned -0.59617 +-
        # 0.00016 here (10^5 samples, seed 1) against exact_E's -0.59537
        from dynirf.observables import ObservableSpec, mc_E

        ell = replace(dyn6v, mode=FunctionMode.elliptic(1j))
        with pytest.raises(InvalidParameterError, match=r"vertex \(1,1\) do not sum to one: residual"):
            mc_E("irf", ObservableSpec((2,), 3), ell, 1000, 1)
        with pytest.raises(InvalidParameterError, match=r"vertex \(1,1\) do not sum to one: residual"):
            sample_irf(ell, 3, 3, seed=1)

    @pytest.mark.parametrize("slot", [1, 2])
    def test_batch_checks_both_sums(self, dyn6v, monkeypatch, slot):
        # a_1 or b_0 off by 1e-6: every turn probability stays in [0, 1]
        real = samplers._turn_table
        c, m = {1: (0, 1), 2: (1, 0)}[slot]

        def patched(*args):
            stay, turn = real(*args)
            if m < stay.shape[1]:  # row 1 has no a_1
                stay[c, m] += 1e-6
            return stay, turn

        monkeypatch.setattr(samplers, "_turn_table", patched)
        with pytest.raises(InvalidParameterError, match=r"residual 1\.00e-06"):
            samplers._irf_batch(dyn6v, 3, 3, 1, 0, 8)


class TestSpinJ:
    """The batch sampler on spin-J columns (``spin_pack(J)``: every Lambda = J)."""

    @pytest.mark.parametrize("J", [2, 3])
    def test_batch_equals_scalar(self, J):
        params = spin_pack(J)
        batch = samplers._irf_batch(params, 8, 10, 5, 0, 200)
        for i in range(200):
            sc = sample_irf(params, 8, 10, seed=trajectory_seed(5, i))
            assert np.array_equal(sc.vout, batch["vout"][i]) and np.array_equal(sc.hout, batch["hout"][i])
        assert batch["vout"].max() == J  # occupations reach the cap

    @pytest.mark.parametrize("J", [2, 3])
    def test_mc_E_matches_enumeration(self, J):
        # 10^5 samples, seed 1: z = -1.57 at J = 2 and -0.60 at J = 3
        from dynirf.observables import ObservableSpec, enum_E, mc_E

        params, spec = spin_pack(J), ObservableSpec((3, 2), 4)
        mean, stderr = mc_E("irf", spec, params, 100_000, 1)
        assert abs(mean - enum_E(spec, params)) < 4 * stderr

    @pytest.mark.parametrize("J", [2, 3])
    def test_exact_E_matches_enumeration(self, J):
        from dynirf.observables import ObservableSpec, enum_E, exact_E

        params, spec = spin_pack(J), ObservableSpec((3, 2), 4)
        assert abs(exact_E("irf", spec, params) - enum_E(spec, params)) < 1e-12

    def test_occupations_past_127_are_not_wrapped(self, dyn6v, monkeypatch):
        # a column of non-integer spin holds up to Y arrows; with every path
        # turning up in column 1, it holds y of them at row y <= 130
        columns = dyn6v.columns[:1] + ((dyn6v.z(1), 1.5),) + dyn6v.columns[2:]
        params = replace(dyn6v, columns=columns, rows=dyn6v.rows * 13)

        def absorb(lam, zw, L, eta, f, M):
            return np.ones((2, M + 1, np.size(lam)), dtype=complex), np.zeros((2, M + 1, np.size(lam)), dtype=complex)

        monkeypatch.setattr(samplers, "_turn_table", absorb)
        vout = samplers._irf_batch(params, 2, 130, 1, 0, 3)["vout"]
        assert (vout[:, 1, 1:] == np.arange(1, 131)).all() and (vout[:, 2] == 0).all()


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
        dist_nu = _strip(nu, lam_arg, ws, dyn6v, "stoch", cap=7)
        for bottom, law in (((), dist), (nu, dist_nu)):
            for kappa, prob in list(law.items())[:6]:
                direct = skew_B_lattice(kappa, bottom, lam_arg, ws, dyn6v, stochastic=True)
                assert abs(prob - direct) < 1e-12

    @pytest.mark.parametrize("N, X", [(2, 28), (2, 40), (11, 5), (-1, 5)])
    def test_rejects_rows_and_columns_outside_the_pack(self, dyn6v, N, X):
        # the pack has 28 columns and 10 rows: X past the columns and N past
        # the rows raised a bare IndexError, N = -1 returned the empty law
        with pytest.raises(InvalidParameterError):
            enumerate_distribution(dyn6v, N, X)

    def test_heights_reject_empty_sites(self, dyn6v):
        # used to raise a bare ValueError from max()
        with pytest.raises(InvalidParameterError, match="site"):
            enumerate_heights(dyn6v, 2, ())

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
        batch = samplers._irf_batch(dyn6v, X, N, 515, 0, n)
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



class TestEngineInputs:
    """Counts, rows, columns and sites the engines cannot serve raise
    InvalidParameterError before any sweep."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("did work on rejected input")

        for name in ("_irf_batch", "_farm_block", "_row_sweep"):
            monkeypatch.setattr(samplers, name, never)
        for name in ("_strip", "plaquette_weights"):  # enumerate_distribution's and sample_irf's
            monkeypatch.setattr(reference_routes, name, never)

    # the pack has 28 columns and 10 rows
    @pytest.mark.parametrize(
        "call, match",
        [
            # a bare IndexError, and heights 0 with no error
            (lambda P: irf_batch_heights(P, (3,), 11, 1, 10), "rows"),
            (lambda P: irf_batch_heights(P, (3,), -1, 1, 3), "rows"),
            # bare IndexErrors, a traceback from `dynirf simulate`
            (lambda P: sample_irf(P, 3, 11, 1), "rows"),
            (lambda P: sample_irf(P, 28, 3, 1), "columns"),
            (lambda P: sample_irf(P, -1, 3, 1), r"column count X .*>= 0 and <= 27"),
            (lambda P: sample_irf(P, 2.5, 3, 1), "integer"),
            # returned ({}, 1.0)
            (lambda P: enumerate_distribution(P, 2, -1), "X must be an integer >= 0"),
            # a bare ValueError, TypeErrors and an IndexError
            (lambda P: exclusion_farm("ssep", (2.0,), 1.0, -5, 1, [0]), "trajectory count"),
            (lambda P: exclusion_farm("ssep", (2.0,), 1.0, 2.5, 1, [0]), "integer"),
            (lambda P: exclusion_farm("ssep", (2.0,), 1.0, 4, 1, [0.5]), "integer"),
            (lambda P: irf_batch_heights(P, (3,), 2, 1, -5), "trajectory count"),
            (lambda P: irf_batch_heights(P, (3,), 2, 1, 2.5), "integer"),
            (lambda P: irf_batch_heights(P, (0.5,), 2, 1, 4), "integer"),
        ],
        ids=["batch-rows-past", "batch-rows-negative", "sample-rows-past", "sample-cols-past",
             "sample-cols-negative", "sample-cols-fraction", "distribution-negative-cap", "farm-negative-count",
             "farm-fractional-count", "farm-fractional-site", "batch-negative-count", "batch-fractional-count",
             "batch-fractional-site"],
    )
    def test_refused_before_any_sweep(self, dyn6v, no_work, call, match):
        with pytest.raises(InvalidParameterError, match=match):
            call(dyn6v)

    def test_integral_floats_accepted(self, dyn6v):
        assert np.array_equal(
            exclusion_farm("ssep", (2.0,), 1.0, 3.0, 1, [1.0, 0]), exclusion_farm("ssep", (2.0,), 1.0, 3, 1, [1, 0])
        )
        assert np.array_equal(irf_batch_heights(dyn6v, (3.0, 2), 4.0, 1, 5.0), irf_batch_heights(dyn6v, (3, 2), 4, 1, 5))
        st = sample_irf(dyn6v, 3.0, 2.0, 1)
        assert (st.X, st.Y) == (3, 2)
        assert np.array_equal(st.hout, sample_irf(dyn6v, 3, 2, 1).hout)


def particles(state) -> list:
    """Occupied half-integer sites x + 1/2 within the state's window."""
    return [x for x in range(state.lo, state.hi) if state.value(x + 1) - state.value(x) == -1]


def heights(state, xs) -> list:
    return [(state.value(x) - x) // 2 for x in xs]


class TestExclusion:
    def test_step_state(self):
        st = step_exclusion_state("ssep", (2.0,))
        assert st.value(0) == 0 and st.value(-3) == 3 and st.value(100) == 100
        assert particles(st) == [x for x in range(st.lo, 0)]

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
        # the down-rate's denominator s-1+lambda_bar vanishes there.  The
        # step state's one admissible flip is the origin's, up at rate 1/2,
        # so the run's first event is that flip at its Exp(1/2) clock
        assert _rate("ssep", (1.0,), 0, 2) == 0.5
        st = step_exclusion_state("ssep", (1.0,))
        out = simulate_exclusion(st, 5.0, seed=3, record=True)
        assert out.events[0].item() == (-math.log1p(-uniform_hash(3, 0, 1)) / 0.5, 0, 2)
        assert all(abs(out.value(x + 1) - out.value(x)) == 1 for x in range(out.lo, out.hi))

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_bad_rate_raises(self, monkeypatch, bad):
        # both engines check the rates they use; a NaN used to pass the heap
        # engine's rate <= 0 check.  Height 2 is reached at once: the
        # origin's first flip makes it a local maximum there
        real = samplers._rate

        def patched(kind, rate_params, s_x, delta):
            rate = real(kind, rate_params, s_x, delta)
            return np.where(s_x == 2, bad, rate) if np.ndim(s_x) else (bad if s_x == 2 else rate)

        monkeypatch.setattr(samplers, "_rate", patched)
        with pytest.raises(InvalidParameterError, match="nonpositive or singular jump rate"):
            exclusion_farm("ssep", (2.0,), 5.0, 50, 1, [0])
        with pytest.raises(InvalidParameterError, match="nonpositive .*rate"):
            simulate_exclusion(step_exclusion_state("ssep", (2.0,)), 5.0, seed=1)

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

    def test_frozen_window_is_caught(self, monkeypatch):
        # lo and hi are never scheduled, so a window that stops growing shows
        # as a flip at lo + 1 or hi - 1; the old check read only lo and hi
        monkeypatch.setattr(samplers, "_grow_window", lambda state: None)
        caught = 0
        for seed in range(20):
            try:
                simulate_exclusion(step_exclusion_state("ssep", (1.0,)), 50.0, seed)
            except InvalidParameterError as exc:
                assert "boundary" in str(exc)
                caught += 1
        assert caught >= 1

    def test_particle_count_conserved(self):
        st = step_exclusion_state("asep", (0.6, 1.0))
        before = len(particles(st))
        out = simulate_exclusion(st, 1.5, seed=21)
        after = len(particles(out))
        # the window only ever grows into untouched step regions, adding
        # one particle per site on the left and none on the right
        assert after - before == (st.lo - out.lo)

    def test_particles_roundtrip(self):
        st = simulate_exclusion(step_exclusion_state("ssep", (2.0,)), 1.0, seed=31)
        occupied = set(particles(st))
        s = {st.lo: st.value(st.lo)}
        for x in range(st.lo, st.hi):
            s[x + 1] = s[x] + (-1 if x in occupied else 1)
        assert all(s[x] == st.value(x) for x in range(st.lo, st.hi + 1))

    def test_deterministic(self):
        st = step_exclusion_state("ssep", (2.0,))
        a = simulate_exclusion(st, 1.0, seed=99, record=True)
        b = simulate_exclusion(st, 1.0, seed=99, record=True)
        assert a.s == b.s and np.array_equal(a.events, b.events)

    def test_heights(self):
        st = step_exclusion_state("ssep", (2.0,))
        assert heights(st, [-2, 0, 3]) == [2, 0, 0]

    def test_heights_checked_once_per_run(self, monkeypatch):
        # the step state's constructor and simulate_exclusion's replace()
        # each ran the heights check; a run from a step state runs it once
        calls = []
        real = samplers._check_heights
        monkeypatch.setattr(samplers, "_check_heights", lambda *args: calls.append(args) or real(*args))
        simulate_exclusion(step_exclusion_state("ssep", (2.0,)), 1.0, seed=1)
        assert len(calls) == 1

    def test_state_edited_after_construction_is_refused(self):
        st = step_exclusion_state("ssep", (2.0,))
        st.s[0] = 4
        with pytest.raises(InvalidParameterError, match="step by"):
            simulate_exclusion(st, 1.0, seed=1)
        assert samplers._STEP_HEIGHTS[0] == 0  # the step heights are not the state's dict


class TestEventLog:
    RATES = [("ssep", (1.0,)), ("ssep", (2.0,)), ("asep", (0.5, 2.0)), ("asep", (1.7, -0.4))]

    @pytest.mark.parametrize("kind, rates", RATES)
    def test_log_replays_to_the_returned_state(self, kind, rates):
        T, start, grew = 20.0, step_exclusion_state(kind, rates), 0
        for seed in range(5):
            out = simulate_exclusion(start, T, seed, record=True)
            t = out.events["t"]
            assert len(t) > 0 and t[0] > 0 and np.all(np.diff(t) > 0) and t[-1] <= T
            s = dict(start.s)  # the initial state, frozen at |x| off its window
            for x, new in zip(out.events["x"].tolist(), out.events["s"].tolist()):
                left, old, right = (s.get(y, abs(y)) for y in (x - 1, x, x + 1))
                assert abs(new - old) == 2 and abs(new - left) == 1 and abs(new - right) == 1, (seed, x)
                s[x] = new
            assert all(s.get(x, abs(x)) == out.value(x) for x in range(out.lo, out.hi + 1))
            grew += out.lo < start.lo
        assert grew  # the replay crossed a window growth at least once

    def test_record_format(self):
        start = step_exclusion_state("ssep", (2.0,))
        out = simulate_exclusion(start, 5.0, seed=1, record=True)
        assert out.events.dtype == np.dtype([("t", np.float64), ("x", np.int32), ("s", np.int32)])
        assert out.events.dtype.itemsize == 16 and len(out.events) > 0
        t, x, s = out.events[0]  # rows unpack as (t, x, s)
        assert (float(t), int(x), int(s)) == out.events.tolist()[0]
        assert [type(v) for v in out.events.tolist()[0]] == [float, int, int]
        unrecorded = simulate_exclusion(start, 5.0, seed=1)
        built = ExclusionState("ssep", (2.0,), -6, 6, dict(start.s))
        for st in (start, unrecorded, built):
            assert st.events.dtype == out.events.dtype and st.events.shape == (0,)
        assert unrecorded == out  # states compare without their logs
        assert len(start.events) == 0 and start.t == 0.0  # the initial state is left as it was

    def test_logs_hold_at_most_24_bytes_an_event(self):
        # a list of (t, x, s) tuples held 98.7 bytes an event here; the
        # record array holds 16, plus one array header per trajectory
        import tracemalloc

        start = step_exclusion_state("ssep", (2.0,))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logs = [simulate_exclusion(start, 20.0, seed, record=True).events for seed in range(400)]
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held / sum(map(len, logs)) <= 24


def farm_reference(kind, rate_params, T, n_traj, seed, xs, half_width=8):
    """The farm before local repricing: every site of every row, finished
    ones too, is repriced on every event.  In-window ``xs`` only."""
    step_exclusion_state(kind, rate_params)
    W = half_width
    sites = np.arange(-W, W + 1)
    s = np.abs(np.broadcast_to(sites, (n_traj, sites.size))).astype(np.float64).copy()
    t = np.zeros(n_traj)
    seeds = trajectory_seed(seed, np.arange(n_traj, dtype=np.int64))
    counter = np.zeros(n_traj, dtype=np.int64)
    done = np.zeros(n_traj, dtype=bool)

    def rates_array(sarr):
        inner = sarr[:, 1:-1]
        is_max = (sarr[:, :-2] == inner - 1) & (sarr[:, 2:] == inner - 1)
        is_min = (sarr[:, :-2] == inner + 1) & (sarr[:, 2:] == inner + 1)
        delta = np.where(is_max, np.int8(-2), np.int8(2))
        return _rate(kind, rate_params, inner, delta) * (is_max | is_min), is_max

    while not done.all():
        rates, is_max = rates_array(s)
        total = rates.sum(axis=1)
        counter += 1
        u1 = uniform_hash(0, seeds, counter, np.int64(1))
        u2 = uniform_hash(0, seeds, counter, np.int64(2))
        dt = -np.log1p(-u1) / np.maximum(total, 1e-300)
        fire = ~done & (t + dt <= T)
        t = np.where(~done, np.minimum(t + dt, T), t)
        done |= ~fire
        if fire.any():
            cum = np.cumsum(rates, axis=1)
            # the first site whose running sum passes u2 * total fires
            idx = np.minimum((cum <= (u2 * total)[:, None]).sum(axis=1), rates.shape[1] - 1)
            rows = np.nonzero(fire)[0]
            cols = idx[rows]
            s[rows, cols + 1] += np.where(is_max[rows, cols], -2.0, 2.0)
            if ((cols < 3) | (cols > s.shape[1] - 5)).any():
                grow = W
                left = np.abs(np.broadcast_to(np.arange(-W - grow, -W), (n_traj, grow))).astype(float)
                right = np.abs(np.broadcast_to(np.arange(W + 1, W + grow + 1), (n_traj, grow))).astype(float)
                s = np.concatenate([left, s, right], axis=1)
                W += grow
    return np.stack([s[:, x + W] for x in xs], axis=1).astype(np.int64)


class TimeLimit:
    """Raise TimeoutError if the block runs longer than ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds

    def _expire(self, signum, frame):
        raise TimeoutError(f"still running after {self.seconds} s")

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._expire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


class TestExclusionFarm:
    @pytest.mark.parametrize(
        "kind,rates,T,n,seed",
        [
            ("ssep", (2.0,), 1.0, 2000, 11),
            ("ssep", (1.0,), 2.0, 2000, 12),
            ("asep", (0.5, 2.0), 1.5, 2000, 13),
            ("asep", (1.7, -0.4), 2.0, 2000, 14),
            ("ssep", (1.0,), 50.0, 200, 15),  # the window grows several times
            ("ssep", (2.0,), 1.0, 10_000, 16),
            ("ssep", (1.0,), 200.0, 200, 7),  # the regime-IV KS run; the window grows three times
            ("asep", (0.5, 2.0), 30.0, 300, 21),
        ],
    )
    def test_bit_identical_to_full_repricing(self, kind, rates, T, n, seed):
        xs = list(range(-8, 9))
        assert np.array_equal(exclusion_farm(kind, rates, T, n, seed, xs), farm_reference(kind, rates, T, n, seed, xs))

    def test_rates_checked_without_a_step_state(self, monkeypatch):
        # the farm built and dropped a 13-site ExclusionState only to check its rates
        def no_state(*args, **kwargs):
            raise AssertionError("built a step state")

        monkeypatch.setattr(samplers, "step_exclusion_state", no_state)
        out = exclusion_farm("asep", [0.5, 2.0], 1.0, 50, 3, [0])
        assert np.array_equal(out, exclusion_farm("asep", (0.5, 2.0), 1.0, 50, 3, [0]))
        with pytest.raises(InvalidParameterError, match=r"asep rates are \(q, alpha\)"):
            exclusion_farm("asep", (0.5, -0.2), 1.0, 50, 3, [0])

    def test_reprices_three_sites_per_live_row(self, monkeypatch):
        # the step row is priced once for every trajectory; each step then
        # prices the three sites around each live row's flip, a growing
        # window none, and finished rows are dropped.  The rates come from
        # one table per window, rebuilt at each growth, and the uniforms of
        # each (row, step) are hashed once, in blocks of steps over the live rows
        priced, tables, blocks = [], [], []
        real_rates, real_table, real_draws = samplers._farm_rates, samplers._rate_table, samplers._farm_draws

        def spy_rates(table, codes):
            priced.append(np.shape(codes))
            return real_rates(table, codes)

        def spy_table(kind, rate_params, W):
            tables.append(W)
            return real_table(kind, rate_params, W)

        def spy_draws(prefix, step, k):
            blocks.append((prefix.copy(), step, k))
            return real_draws(prefix, step, k)

        monkeypatch.setattr(samplers, "_farm_rates", spy_rates)
        monkeypatch.setattr(samplers, "_rate_table", spy_table)
        monkeypatch.setattr(samplers, "_farm_draws", spy_draws)
        n = 200
        exclusion_farm("ssep", (1.0,), 50.0, n, 15, [0])
        assert priced[0] == (15,)
        assert all(shape[1] == 3 for shape in priced[1:])
        local_rows = [shape[0] for shape in priced[1:]]  # the rows each step priced
        growths = len(tables) - 1
        assert growths >= 2 and len(local_rows) > 100
        assert tables == [8 << g for g in range(growths + 1)]
        assert local_rows == sorted(local_rows, reverse=True)
        assert local_rows[0] == n and local_rows[-1] < n // 10
        # blocks cover consecutive steps; each starts with the rows the last
        # step priced, and the run ends inside the last block
        starts = [step for _, step, _ in blocks]
        assert starts == list(itertools.accumulate((k for _, _, k in blocks[:-1]), initial=0))
        assert blocks[0][0].size == n
        assert all(prefix.size == local_rows[step - 1] for prefix, step, _ in blocks[1:])
        assert starts[-1] <= len(local_rows) < starts[-1] + blocks[-1][2]
        drawn = [(int(h), step + i) for prefix, step, k in blocks for h in prefix for i in range(1, k + 1)]
        assert len(drawn) == len(set(drawn))

    def test_singular_unreachable_rate_is_harmless(self, monkeypatch):
        # at lambda_bar = 1 the down-rate (s + 1)/s is infinite at s = 0, a
        # height that is never a local maximum; the rate table computes it
        # without a warning, and the run finishes
        downs = []
        real = samplers._rate

        def spy(kind, rate_params, s_x, delta):
            rate = real(kind, rate_params, s_x, delta)
            if np.ndim(delta) and (delta < 0).all():
                downs.append(rate[0])
            return rate

        monkeypatch.setattr(samplers, "_rate", spy)
        out = exclusion_farm("ssep", (1.0,), 20.0, 100, 2, [0])
        assert downs and all(r == np.inf for r in downs)
        assert (out >= 0).all() and (out % 2 == 0).all()

    def test_frozen_window_is_caught(self, monkeypatch):
        # a frozen window shows as a flip next to its fixed outermost site,
        # caught on the step it happens; a read of the edge sites when the
        # run finishes catches only seeds 5, 8, 10 and 18, since in the
        # other runs the edge flips back before T
        monkeypatch.setattr(samplers, "_grow_farm", lambda s, W: (s, W))
        caught = []
        for seed in range(20):
            try:
                exclusion_farm("ssep", (1.0,), 50.0, 1, seed, [0])
            except InvalidParameterError as exc:
                assert "boundary" in str(exc)
                caught.append(seed)
        assert caught == [3, 4, 5, 8, 10, 11, 16, 17, 18, 19]

    def test_zero_u2_fires_what_the_least_positive_u2_fires(self, monkeypatch):
        # u2 is uniform on [0, 1), so 0 is a legal draw: it fires the first
        # site of positive rate, as the least positive draw 2^-53 does, not
        # rate column 0, the frozen edge ("exclusion boundary was touched").
        # Row 0 draws it at every step of the first hash pass
        real = samplers._farm_draws

        def first_pass_u2(value):
            def draws(prefix, step, k):
                log_u1, u2 = real(prefix, step, k)
                if step == 0:
                    u2[0] = value
                return log_u1, u2

            return draws

        outs = []
        for value in (0.0, 2.0**-53):
            monkeypatch.setattr(samplers, "_farm_draws", first_pass_u2(value))
            outs.append(exclusion_farm("ssep", (2.0,), 1.0, 50, 3, [0, 1, -1]))
        assert np.array_equal(*outs)

    def test_sites_outside_window_read_step_state(self):
        out = exclusion_farm("ssep", (2.0,), 1.0, 50, seed=3, xs=[-20, 30])
        assert np.array_equal(out, np.broadcast_to([20, 30], (50, 2)))

    def test_far_site_matches_exact(self):
        from dynirf.observables import ObservableSpec, exact_E, mc_E

        spec = ObservableSpec((-12,), 1.0)
        mean, _ = mc_E("ssep", spec, (2.0,), 4000, 3)
        assert abs(mean - exact_E("ssep", spec, (2.0,))) < 1e-6

    @pytest.mark.parametrize("T", [float("nan"), float("inf"), -1.0])
    def test_bad_horizon_rejected(self, T):
        with TimeLimit(1.0):
            with pytest.raises(InvalidParameterError):
                exclusion_farm("ssep", (2.0,), T, 10, seed=1, xs=[0])
            with pytest.raises(InvalidParameterError):
                simulate_exclusion(step_exclusion_state("ssep", (2.0,)), T, seed=1)

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


GROWTH_RATES = [("ssep", (1.0,)), ("ssep", (2.0,)), ("asep", (0.5, 2.0)), ("asep", (1.7, -0.4)), ("asep", (1.0, 0.0))]


class TestWindowGrowth:
    """A window grows when a flip comes within three sites of its edge,
    before the site next to the edge can flip, so every site it adds and
    both old edges lie on the slope |x|: neither engine has a clock to
    schedule or a rate to price there.  Each check reads a grown window's
    heights at every inner site that growth made (the added sites and the
    old edges): its two neighbours differ by 2, so it has no admissible flip."""

    @pytest.mark.parametrize("kind, rates", GROWTH_RATES)
    def test_event_engine(self, monkeypatch, kind, rates):
        real, growths = samplers._grow_window, []

        def spy(state):
            old_lo, old_hi = state.lo, state.hi
            real(state)
            s = state.s
            made = [*range(state.lo + 1, old_lo + 1), *range(old_hi, state.hi)]
            assert all(abs(s[x - 1] - s[x + 1]) == 2 for x in made)
            growths.append(state.hi - state.lo)

        monkeypatch.setattr(samplers, "_grow_window", spy)
        for T in (1.0, 20.0, 200.0):
            for seed in range(30):
                simulate_exclusion(step_exclusion_state(kind, rates), T, seed)
        assert len(growths) >= 30

    @pytest.mark.parametrize("kind, rates", GROWTH_RATES)
    def test_farm(self, monkeypatch, kind, rates):
        real, growths = samplers._grow_farm, []

        def spy(s, W):
            grown, W2 = real(s, W)
            g = W2 - W  # height columns g and g + 2W hold the old edges
            made = np.r_[1 : g + 1, g + 2 * W : 2 * W2]
            assert (np.abs(grown[:, made - 1] - grown[:, made + 1]) == 2).all()
            growths.append(W)
            return grown, W2

        monkeypatch.setattr(samplers, "_grow_farm", spy)
        for T in (1.0, 20.0, 200.0):
            exclusion_farm(kind, rates, T, 200, 1, [0])
        assert len(growths) >= 2


class TestTrajectoryBlocks:
    """A run in blocks of ``samplers._BLOCK`` trajectories equals one block, bit for bit."""

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize(
        "kind, rates, T, n, xs, width",
        [
            ("ssep", (1.0,), 200.0, 24, range(-40, 41), 32),  # the regime-IV KS shape
            ("asep", (1.5, 0.5), 20.0, 60, range(-20, 21), 8),
        ],
        ids=["ssep-ks", "asep-q1.5"],
    )
    def test_farm(self, monkeypatch, block, kind, rates, T, n, xs, width):
        whole = exclusion_farm(kind, rates, T, n, 7, list(xs))
        widths = []
        grow = samplers._grow_farm

        def spy(s, W):
            widths.append(W)
            return grow(s, W)

        monkeypatch.setattr(samplers, "_grow_farm", spy)
        monkeypatch.setattr(samplers, "_BLOCK", block)
        assert np.array_equal(exclusion_farm(kind, rates, T, n, 7, list(xs)), whole)
        assert max(widths) >= width  # some block's window grows from half-width ``width``

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("pack", ["dyn6v", "rational", "dyn6v_elliptic"])
    def test_irf_batch_heights(self, request, monkeypatch, block, pack):
        # 200 trajectories: 28 blocks of 7 and one of 4, or 200 blocks of one
        params = request.getfixturevalue(pack)
        # against one block of 2^14, the whole run; test_batch_equals_scalar
        # checks those heights against the scalar sampler's
        whole = irf_batch_heights(params, (1, 3, 2), 4, 5, 200)
        monkeypatch.setattr(samplers, "_BLOCK", block)
        assert np.array_equal(irf_batch_heights(params, (1, 3, 2), 4, 5, 200), whole)

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    def test_irf_batch_weighs_one_filling_per_up_count(self, dyn6v, monkeypatch, block):
        # vertex (x, y) weighs one filling per reachable up-count, 0 .. min(y,
        # x - 1) on spin-1/2 columns, whatever trajectories the block holds
        sizes = []
        real = samplers._turn_table

        def spy(lam, *args):
            sizes.append(np.size(lam))
            return real(lam, *args)

        monkeypatch.setattr(samplers, "_turn_table", spy)
        monkeypatch.setattr(samplers, "_BLOCK", block)
        xs, N, n = (5, 3), 4, 40
        irf_batch_heights(dyn6v, xs, N, 3, n)
        blocks = -(-n // block)
        assert sizes == [min(y, x - 1) + 1 for _ in range(blocks) for y in range(1, N + 1) for x in range(1, max(xs))]

    @pytest.mark.parametrize("pack", ["dyn6v", "rational"])
    def test_irf_batch_heights_match_a_full_sweep(self, request, monkeypatch, pack):
        # the heights stop the sweep at column max(xs) - 1; read off a sweep
        # through column max(xs), they are the same bit for bit
        params = request.getfixturevalue(pack)
        xs, N, n = (4, 4, 3, 1), 5, 50
        full = samplers._irf_batch(params, max(xs), N, 9, 0, n)
        want = [[height(QuadrantState(max(xs), N, full["vout"][i], full["hout"][i], params), x, N) for x in xs] for i in range(n)]
        monkeypatch.setattr(samplers, "_BLOCK", 16)  # three blocks of 16 and one of 2
        assert np.array_equal(irf_batch_heights(params, xs, N, 9, n), want)

    def test_sites_left_of_column_one_read_N(self, dyn6v):
        # every path enters at column 1, so h(x, N) = N at x <= 1; a site
        # x <= 0 used to read column x - 1 from the end of the sweep
        hs = irf_batch_heights(dyn6v, (3, 0, -2), 4, 5, 100)
        assert (hs[:, 1:] == 4).all()
        assert np.array_equal(hs[:, 0], irf_batch_heights(dyn6v, (3,), 4, 5, 100)[:, 0])

    @pytest.mark.parametrize("xs", [(5, 3, 2), (2,), (1,), (1, 0)])
    def test_no_weight_right_of_the_last_read_column(self, dyn6v, monkeypatch, xs):
        # h(x, N) reads columns 1..x-1, so neither engine weighs a plaquette
        # in column max(xs) or beyond
        columns = []
        z = IrfParams.z
        monkeypatch.setattr(IrfParams, "z", lambda self, j: columns.append(j) or z(self, j))
        for run in (lambda: enumerate_heights(dyn6v, 4, xs), lambda: irf_batch_heights(dyn6v, xs, 4, 1, 100)):
            columns.clear()
            run()
            assert set(columns) == set(range(1, max(xs)))


class TestVertexFrequencies:
    def test_conditional_plaquette_probabilities(self, dyn6v):
        # at a fixed interior vertex, group trajectories by the local
        # context (incoming arrows and filling) and compare the empirical
        # branch frequency with the conditional Bernoulli bias, 4 sigma
        from dynirf.weights import WeightContext, weight

        n = 100_000
        x0, y0 = 2, 2
        batch = samplers._irf_batch(dyn6v, 3, 3, 1234, 0, n)
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
        h6v = irf_batch_heights(params, (col,), T, 77, n)[:, 0].astype(float)
        s6v = 2 * h6v + x_obs  # s = 2h + x for step-type states
        sa = exclusion_farm("asep", (q, alpha), t, n, seed=78, xs=[x_obs]).astype(float)[:, 0]
        se = (s6v.var() / n + sa.var() / n) ** 0.5
        assert abs(s6v.mean() - sa.mean()) <= 4 * se + 3.0 * eps
