import cmath
import math

import numpy as np
import pytest

from dynirf.params import preset, to_six_vertex
from dynirf.special import FunctionMode, InvalidParameterError
from dynirf.weights import (
    SingularParameterError,
    WeightContext,
    dyn6v_weight,
    hat_ratio,
    hs6v_weight,
    rational_weight,
    _turn_table,
    weight,
)

RNG = np.random.default_rng(318)

TRIG = FunctionMode.trigonometric()
ELL = FunctionMode.elliptic(6j)
RAT = FunctionMode.rational()


def random_ctx(mode, scale_im=0.15):
    lam, w, z, L = RNG.normal(size=4) * 0.4 + 1j * RNG.normal(size=4) * scale_im
    eta = RNG.normal() * 0.08 + 1j * RNG.normal() * 0.03
    return WeightContext(lam, w, z, L, eta, mode)


def stochasticity_residual(ctx, k):
    a = weight("A", k, ctx, stochastic=True)
    c = weight("C", k, ctx, stochastic=True) if k >= 1 else 1 - a
    b = weight("B", k, ctx, stochastic=True)
    d = weight("D", k, ctx, stochastic=True)
    res_ac = abs(a + c - 1) if k >= 1 else 0.0
    return max(res_ac, abs(b + d - 1))


class TestStochasticity:
    @pytest.mark.parametrize("mode", [TRIG, RAT, ELL], ids=["trig", "rational", "elliptic"])
    def test_sum_to_one(self, mode):
        worst = 0.0
        for _ in range(250):
            worst = max(worst, stochasticity_residual(random_ctx(mode), int(RNG.integers(0, 4))))
        assert worst < 1e-10

    def test_elliptic_residual_scales_with_tau(self):
        # The sum rules are sin identities; on these plaquettes, whose eta
        # is small and mostly real, the elliptic defect falls off fast in
        # Im(tau).  It is no O(exp(-2*pi*Im(tau))) bound in general: on
        # dyn6v-positive it is 0.152 at tau = i (see the weights module).
        worst = {}
        for tau in (1.5j, 3j, 6j):
            rng = np.random.default_rng(99)
            m = FunctionMode.elliptic(tau)
            w = 0.0
            for _ in range(100):
                lam, wv, z, L = rng.normal(size=4) * 0.4 + 1j * rng.normal(size=4) * 0.15
                eta = rng.normal() * 0.08 + 1j * rng.normal() * 0.03
                w = max(w, stochasticity_residual(WeightContext(lam, wv, z, L, eta, m), 2))
            worst[tau] = w
        assert worst[1.5j] > 1e-4
        assert worst[3j] < 1e-2 * worst[1.5j]
        assert worst[6j] < 1e-10

    def test_empty_plaquette_is_one(self):
        for mode in (TRIG, RAT, ELL):
            assert abs(weight("A", 0, random_ctx(mode), stochastic=True) - 1) < 1e-12

    def test_full_crossing_is_one_at_spin_half(self):
        ctx = random_ctx(TRIG)
        ctx = WeightContext(ctx.lam, ctx.w, ctx.z, 1.0, ctx.eta, TRIG)
        assert abs(weight("D", 1, ctx, stochastic=True) - 1) < 1e-12

    def test_intro_form_equals_canonical(self):
        # The a/c weights also appear with every f-argument negated; oddness
        # of f makes the two displays agree, which we pin down here.
        for _ in range(25):
            ctx = random_ctx(TRIG)
            k = int(RNG.integers(1, 4))
            lam, zw, L, eta = ctx.lam, ctx.z - ctx.w, ctx.Lambda, ctx.eta
            f = TRIG.f
            alt_a = (
                f(zw + (L + 1 - 2 * k) * eta)
                / f(zw + (L + 1) * eta)
                * f(lam - 2 * (L + 1 - k) * eta)
                / f(lam - 2 * (L + 1 - 2 * k) * eta)
            )
            assert abs(alt_a - weight("A", k, ctx, stochastic=True)) < 1e-12 * max(1, abs(alt_a))

    def test_c_requires_occupation(self):
        with pytest.raises(InvalidParameterError):
            weight("C", 0, random_ctx(TRIG), stochastic=True)

    def test_singular_denominator_raises(self):
        eta = 0.07 + 0.02j
        L = 1.3 + 0.1j
        k = 1
        lam = 2 * (L - 1 - 2 * k) * eta  # makes f(lam - 2(L-1-2k)eta) = f(0) = 0
        ctx = WeightContext(lam, 0.1, 0.2, L, eta, TRIG)
        with pytest.raises(SingularParameterError):
            weight("B", k, ctx, stochastic=True)


class TestSineIdentity:
    def test_random_draws(self):
        worst = 0.0
        for _ in range(1000):
            A, B, C, w = RNG.normal(size=4) * 0.7 + 1j * RNG.normal(size=4) * 0.3
            f = lambda x: cmath.sin(math.pi * x)
            lhs = f(B - C) * f(w - A)
            rhs = f(A - C) * f(w - B) - f(A - B) * f(w - C)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        assert worst < 1e-10


class TestHatRatios:
    @pytest.mark.parametrize("mode", [TRIG, RAT, ELL], ids=["trig", "rational", "elliptic"])
    @pytest.mark.parametrize("kind,kmin", [("A", 0), ("B", 0), ("C", 1), ("D", 0)])
    def test_hat_times_plain_equals_stochastic(self, mode, kind, kmin):
        for _ in range(20):
            ctx = random_ctx(mode)
            k = int(RNG.integers(kmin, 4))
            lhs = hat_ratio(kind, k, ctx.lam, ctx.Lambda, ctx.eta, mode) * weight(kind, k, ctx)
            rhs = weight(kind, k, ctx, stochastic=True)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_w_independence(self):
        ctx1 = random_ctx(TRIG)
        r = hat_ratio("B", 2, ctx1.lam, ctx1.Lambda, ctx1.eta, TRIG)
        # same (lam, Lambda, eta) with two different spectral parameters
        for w in (0.3, 1.2 + 0.4j):
            ctx2 = WeightContext(ctx1.lam, w, ctx1.z, ctx1.Lambda, ctx1.eta, TRIG)
            ratio = weight("B", 2, ctx2, stochastic=True) / weight("B", 2, ctx2)
            assert abs(ratio - r) < 1e-11 * max(1, abs(r))

    def test_stochasticity_restated(self):
        for _ in range(20):
            ctx = random_ctx(TRIG)
            k = int(RNG.integers(1, 4))
            total = hat_ratio("C", k, ctx.lam, ctx.Lambda, ctx.eta, TRIG) * weight("C", k, ctx) + hat_ratio(
                "A", k, ctx.lam, ctx.Lambda, ctx.eta, TRIG
            ) * weight("A", k, ctx)
            assert abs(total - 1) < 1e-10

    @pytest.mark.parametrize("wrap", [float, np.array], ids=["float", "0-d"])
    def test_zero_denominator_raises_for_0d_lam(self, wrap):
        # lam = 2 (Lambda + 1) eta zeroes kind A's denominator at k = 0; a 0-d
        # array lam used to skip the singularity check and divide by zero,
        # in hat_ratio and in both spin-1/2 tables (lam = 0 is their pole)
        with pytest.raises(SingularParameterError):
            hat_ratio("A", 0, wrap(2 * (2.0 + 1) * 0.1), 2.0, 0.1, TRIG)
        with pytest.raises(SingularParameterError):
            dyn6v_weight("vertical", wrap(0.0), 0.5, 1.0, 1.2)
        with pytest.raises(SingularParameterError):
            rational_weight("vertical", wrap(0.0), 0.5, 0.0)

    def test_occupation_checked_as_in_weight(self):
        # a negative occupation used to return 0.238-0.410i for kind A
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            hat_ratio("A", -1, 0.3 + 0.1j, 1.2, 0.05 + 0.01j, TRIG)
        with pytest.raises(InvalidParameterError, match="turn right"):
            hat_ratio("C", 0, 0.3 + 0.1j, 1.2, 0.05 + 0.01j, TRIG)


def plain_hs6v_weight(i1, j1, i2, j2, q, s, xi, u):
    """The plain higher-spin six-vertex table, the stochastic L-table's
    conjugate, on the patterns ``weights.hs6v_weight`` accepts."""
    k, den = i1, 1 - s * xi * u
    if (j1, j2) == (0, 0):
        return (1 - s * q**k * xi * u) / den
    if (j1, j2) == (1, 0):
        return (1 - q ** (k + 1)) / den
    if (j1, j2) == (0, 1):
        return (1 - s**2 * q ** (k - 1)) * xi * u / den
    return (xi * u - s * q**k) / den


class TestHigherSpinSixVertex:
    def rand_pars(self):
        q, s, xi, u = RNG.normal(size=4) * 0.5 + 0.8 + 1j * RNG.normal(size=4) * 0.2
        return q, s, xi, u

    def test_stochastic_row_sums(self):
        for _ in range(50):
            q, s, xi, u = self.rand_pars()
            k = int(RNG.integers(1, 5))
            no_in = hs6v_weight(k, 0, k, 0, q, s, xi, u) + hs6v_weight(k, 0, k - 1, 1, q, s, xi, u)
            with_in = hs6v_weight(k, 1, k + 1, 0, q, s, xi, u) + hs6v_weight(k, 1, k, 1, q, s, xi, u)
            assert abs(no_in - 1) < 1e-12 and abs(with_in - 1) < 1e-12

    def test_vanishing_b_weight_at_root_of_unity(self):
        q = cmath.exp(2j * math.pi / 3)
        val = plain_hs6v_weight(2, 1, 3, 0, q, 0.5, 0.7, 0.9)  # 1 - q^3 = 0
        assert abs(val) < 1e-12

    def test_illegal_pattern_rejected(self):
        with pytest.raises(InvalidParameterError):
            hs6v_weight(2, 0, 3, 1, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(InvalidParameterError):
            hs6v_weight(1, 1, 1, 2, 0.5, 0.5, 0.5, 0.5)

    def _matched_pars(self, ctx):
        eta = ctx.eta
        q = cmath.exp(-4j * math.pi * eta)
        s = cmath.exp(2j * math.pi * eta * ctx.Lambda)
        xi = cmath.exp(2j * math.pi * ctx.z)
        u = cmath.exp(2j * math.pi * (eta - ctx.w))
        return q, s, xi, u

    def test_stochastic_weights_converge_to_L(self):
        # lambda -> -i*inf sends the stochastic IRF weights to the stochastic
        # higher-spin six-vertex L-table; at lambda = -5i the error is
        # ~exp(-10*pi), far below the 1e-8 assertion.
        base = random_ctx(TRIG)
        ctx = WeightContext(-5j, base.w, base.z, base.Lambda, base.eta, TRIG)
        q, s, xi, u = self._matched_pars(ctx)
        pairs = [
            ("A", 2, (2, 0, 2, 0)),
            ("B", 2, (2, 1, 3, 0)),
            ("C", 2, (2, 0, 1, 1)),
            ("D", 2, (2, 1, 2, 1)),
        ]
        for kind, k, patt in pairs:
            lhs = weight(kind, k, ctx, stochastic=True)
            rhs = hs6v_weight(*patt, q, s, xi, u)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_plain_weights_converge_with_correction_factors(self):
        base = random_ctx(TRIG)
        ctx = WeightContext(-5j, base.w, base.z, base.Lambda, base.eta, TRIG)
        q, s, xi, u = self._matched_pars(ctx)
        eta = ctx.eta
        qh = lambda m: cmath.exp(-2j * math.pi * eta * m)  # q^(m/2) on the model branch
        k = 2
        checks = [
            ("A", (k, 0, k, 0), qh(-2 * k)),
            ("B", (k, 1, k + 1, 0), (q - 1) / (qh(k + 2) * (1 - q ** (k + 1)))),
            ("C", (k, 0, k - 1, 1), (1 - q**k) / (s * qh(3 * (k - 1)) * (1 - q))),
            ("D", (k, 1, k, 1), -qh(-2 * k) / s),
        ]
        for kind, patt, factor in checks:
            lhs = weight(kind, k, ctx)
            rhs = factor * plain_hs6v_weight(*patt, q, s, xi, u)
            assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


class TestDyn6v:
    def test_empty_and_crossing(self):
        assert dyn6v_weight("empty", 0.3j, 0.5, 1.0, 1.2) == 1
        assert dyn6v_weight("crossing", 0.3j, 0.5, 1.0, 1.2) == 1

    def test_stochastic_pairs(self):
        for _ in range(40):
            lam = RNG.normal() * 0.4 + 1j * RNG.normal() * 0.2
            q, xi, u = RNG.normal(size=3) * 0.3 + 0.9
            s1 = dyn6v_weight("vertical", lam, q, xi, u) + dyn6v_weight("turn_right", lam, q, xi, u)
            s2 = dyn6v_weight("turn_up", lam, q, xi, u) + dyn6v_weight("horizontal", lam, q, xi, u)
            assert abs(s1 - 1) < 1e-10 and abs(s2 - 1) < 1e-10

    def test_matches_spin_half_irf_weights(self):
        p = preset("dyn6v-positive")
        sv = to_six_vertex(p)
        x, y = 3, 2
        lam = p.lambda0 - 2 * p.eta * 5
        ctx = WeightContext(lam, p.w(y), p.z(x), 1.0, p.eta, p.mode)
        table = {
            "vertical": ("A", 1),
            "turn_up": ("B", 0),
            "turn_right": ("C", 1),
            "horizontal": ("D", 0),
        }
        for sym, (kind, k) in table.items():
            lhs = dyn6v_weight(sym, lam, sv.q, sv.xi[x - 1], sv.u[y - 1])
            rhs = weight(kind, k, ctx, stochastic=True)
            assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))

    def test_exclusion_rate_expansion(self):
        # At xi*u = q^(-1/2) (1 + (1-q) eps) the vertical weight is
        # eps*(q+alpha)/(1+alpha) + O(eps^2) with alpha = -exp(-2*pi*i*lam).
        q = 0.64
        lam = -0.5 + 1j * math.log(2.0) / (2 * math.pi)
        alpha = -cmath.exp(-2j * math.pi * lam)
        eps = 1e-6
        v = q**-0.5 * (1 + (1 - q) * eps)
        got = dyn6v_weight("vertical", lam, q, 1.0, v) / eps
        want = (q + alpha) / (1 + alpha)
        assert abs(got - want) < 1e-4 * abs(want)

    def test_unknown_symbol(self):
        with pytest.raises(InvalidParameterError):
            dyn6v_weight("diagonal", 0.1, 0.5, 1.0, 1.0)


class TestRationalWeights:
    def test_empty_is_one(self):
        assert rational_weight("empty", -50.0, 0.5, 0.0) == 1

    def test_stochastic_pairs(self):
        for _ in range(40):
            lam, z, w = RNG.normal(size=3) * 3 + np.array([-20.0, 0.5, 0.0])
            s1 = rational_weight("vertical", lam, z, w) + rational_weight("turn_right", lam, z, w)
            s2 = rational_weight("turn_up", lam, z, w) + rational_weight("horizontal", lam, z, w)
            assert abs(s1 - 1) < 1e-12 and abs(s2 - 1) < 1e-12

    def test_positivity_at_large_negative_lambda(self):
        for sym in ("empty", "vertical", "turn_up", "turn_right", "horizontal", "crossing"):
            val = rational_weight(sym, -100.0, 0.5, 0.0)
            assert 0.0 <= val <= 1.0

    def test_matches_rational_mode_weight(self):
        # rational mode with eta = 1/2 and Lambda = 1 reproduces the table.
        lam, z, w = -37.0, 0.52, 0.03
        ctx = WeightContext(lam, w, z, 1.0, 0.5, RAT)
        table = {
            "vertical": ("A", 1),
            "turn_up": ("B", 0),
            "turn_right": ("C", 1),
            "horizontal": ("D", 0),
        }
        for sym, (kind, k) in table.items():
            assert abs(rational_weight(sym, lam, z, w) - weight(kind, k, ctx, stochastic=True)) < 1e-13


class TestTurnTable:
    @pytest.mark.parametrize("J", [1, 2])
    def test_vectorized_matches_scalar(self, J):
        # the batch sampler's table over fillings: [stay or turn, c, m] is
        # (a_m, b_m) or (c_m, d_m) by c, as the scalar weight gives them
        p = preset("dyn6v-positive")
        lams = p.lambda0 - 2 * p.eta * np.arange(4)
        stay, turn = _turn_table(lams, p.z(1) - p.w(1), J, p.eta, p.mode.f, J)
        assert stay.shape == turn.shape == (2, J + 1, 4)
        assert (stay[0, 0] == 1).all() and (turn[0, 0] == 0).all()
        for i, lam in enumerate(lams):
            ctx = WeightContext(complex(lam), p.w(1), p.z(1), J, p.eta, p.mode)
            for m in range(J + 1):
                want = [("B", "D")] + ([("A", "C")] if m else [])
                for c, kinds in zip((1, 0), want):
                    for table, kind in zip((stay, turn), kinds):
                        assert abs(table[c, m, i] - weight(kind, m, ctx, stochastic=True)) < 1e-13
