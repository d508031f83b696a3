"""The memoized row-weight callback ``weights.plaquette_weights``.

The lattice DPs and the operator oracle both take their plaquette weights
from this callback; ``samplers.enumerate_heights_hs6v`` memoizes its
lambda-free six-vertex row weights the same way.  Each memo must save work
without changing a bit of any result.
"""

import numpy as np
import pytest

from dynirf import observables, oracle, samplers, symfunc, weights
from dynirf.observables import ObservableSpec, enum_E, hs6v_q_moment
from dynirf.oracle import FinitaryVector, apply_operator, skew_B_oracle
from dynirf.params import preset, random_pack, to_six_vertex
from dynirf.samplers import enumerate_heights
from dynirf.special import FunctionMode
from dynirf.symfunc import skew_B_lattice, skew_D_lattice
from dynirf.weights import SingularParameterError, WeightContext, plaquette_weights, weight

FACTORY_USERS = (symfunc, samplers, oracle)


def unmemoized(params, w, stochastic=False):
    """The callback without its memo: one ``weight`` call per plaquette."""

    def fn(kind, m, x, lam_x):
        ctx = WeightContext(lam_x, w, params.z(x), params.lam(x), params.eta, params.mode)
        return weights.weight(kind, m, ctx, stochastic=stochastic)

    return fn


def random_params(mode, seed):
    return random_pack(np.random.default_rng(seed), mode)


LAM = 0.31 + 0.17j
WS = [0.41 + 0.1j, 0.23 - 0.05j, 0.52 + 0.02j]


@pytest.fixture(scope="module")
def dyn6v():
    return preset("dyn6v-positive")


def spy_on_weight_formulas(monkeypatch, record):
    """Route every ``weights._weight`` call through ``record(args)`` first.

    The row callbacks evaluate a plaquette through ``_weight`` (the formulas
    of ``weight`` with the row's shared f); ``args`` leaves that f out.
    """
    real = weights._weight

    def spy(kind, k, lam, zw, L, eta, f, check, stochastic):
        record((kind, k, lam, zw, L, eta, check, stochastic))
        return real(kind, k, lam, zw, L, eta, f, check, stochastic)

    monkeypatch.setattr(weights, "_weight", spy)


@pytest.fixture
def grouped_calls(monkeypatch):
    """Record every plaquette evaluation's arguments, grouped by the callback that asked for it."""
    groups = []
    spy_on_weight_formulas(monkeypatch, lambda args: groups[-1].append(args))

    def factory(*args, **kwargs):
        groups.append([])
        return plaquette_weights(*args, **kwargs)

    for module in FACTORY_USERS:
        monkeypatch.setattr(module, "plaquette_weights", factory)
    return groups


def _assert_no_repeats(groups):
    assert groups and any(groups)
    for calls in groups:
        assert len(set(calls)) == len(calls)


class TestWorkCount:
    def test_enumeration_row_evaluates_each_plaquette_once(self, dyn6v, grouped_calls):
        enumerate_heights(dyn6v, 9, (9, 6, 3))
        assert len(grouped_calls) == 9  # one callback per row
        _assert_no_repeats(grouped_calls)

    def test_operator_application_evaluates_each_plaquette_once(self, grouped_calls):
        P = random_params(FunctionMode.elliptic(1.5j), seed=7)
        skew_B_oracle((3, 2, 1, 0), (1,), LAM, WS, P)
        assert len(grouped_calls) == len(WS)  # one callback per w, shared by both column counts
        _assert_no_repeats(grouped_calls)

    def test_oracle_battery_evaluates_each_plaquette_once(self, monkeypatch):
        # skew_B_oracle, skew_D_oracle and c_matrix_element share one
        # callback per w across column counts and depths: the battery made
        # 16,080 weight calls when each application built its own
        from dynirf.identities import check_oracle_formulas

        calls = []
        spy_on_weight_formulas(monkeypatch, calls.append)
        check_oracle_formulas(np.random.default_rng(1 ^ 0x0AC1E))
        assert len(calls) == len(set(calls)) == 8998

    def test_oracle_repeats_plaquettes_without_the_memo(self, monkeypatch):
        # the memo has work to save: the same application unmemoized asks
        # for some argument set more than once
        P = random_params(FunctionMode.trigonometric(), seed=8)
        calls = []
        real_weight = weights.weight

        def spy(kind, k, ctx, stochastic=False):
            calls.append((kind, k, ctx, stochastic))
            return real_weight(kind, k, ctx, stochastic)

        monkeypatch.setattr(weights, "weight", spy)
        monkeypatch.setattr(oracle, "plaquette_weights", unmemoized)
        v = FinitaryVector({(2, 1, 1, 0, 0): 1.0 + 0.0j, (1, 2, 0, 1, 0): 0.5 + 0.0j}, 5)
        apply_operator("b", LAM, WS[0], v, P)
        assert len(set(calls)) < len(calls)


class TestMemoValues:
    def _first_callback(self, monkeypatch, run):
        """Run ``run``; return the last callback it built, that callback's
        arguments and the keys it was asked for."""
        made = []

        def factory(params, w, stochastic=False):
            fn = plaquette_weights(params, w, stochastic)
            keys = []
            made.append((fn, params, w, stochastic, keys))

            def recording(*key):
                keys.append(key)
                return fn(*key)

            return recording

        for module in FACTORY_USERS:
            monkeypatch.setattr(module, "plaquette_weights", factory)
        run()
        return made[-1]

    @pytest.mark.parametrize("stochastic", [True, False])
    def test_returns_exactly_weight(self, dyn6v, monkeypatch, stochastic):
        if stochastic:
            run = lambda: enumerate_heights(dyn6v, 5, (5, 3, 2))
        else:
            P = random_params(FunctionMode.elliptic(1.5j), seed=9)
            run = lambda: skew_B_oracle((3, 1, 0), (2,), LAM, WS[:2], P)
        fn, params, w, stoch, keys = self._first_callback(monkeypatch, run)
        assert stoch == stochastic and len(set(keys)) < len(keys)
        for kind, m, x, lam_x in keys:
            ctx = WeightContext(lam_x, w, params.z(x), params.lam(x), params.eta, params.mode)
            want = complex(weight(kind, m, ctx, stochastic=stoch))
            got = complex(fn(kind, m, x, lam_x))
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_singular_weight_raises_on_every_call(self, monkeypatch):
        P = random_params(FunctionMode.trigonometric(), seed=10)
        calls = []
        spy_on_weight_formulas(monkeypatch, calls.append)
        fn = plaquette_weights(P, WS[0])
        for attempt in range(3):
            with pytest.raises(SingularParameterError):
                fn("A", 1, 2, 0.0)  # f(lambda) = 0 in the denominator
            assert len(calls) == attempt + 1


class TestBitEqualToUnmemoized:
    def _both(self, monkeypatch, compute):
        memoized = compute()
        with monkeypatch.context() as m:
            for module in FACTORY_USERS:
                m.setattr(module, "plaquette_weights", unmemoized)
            plain = compute()
        return memoized, plain

    @pytest.mark.parametrize(
        "compute",
        [
            lambda P: skew_B_lattice((3, 2, 0), (1,), LAM, WS[:2], P),
            lambda P: skew_D_lattice((3, 1), (1, 0), LAM, WS[:2], P),
            lambda P: skew_B_oracle((3, 2, 1, 0), (1,), LAM, WS, P),
        ],
        ids=["skew_B_lattice", "skew_D_lattice", "skew_B_oracle"],
    )
    def test_skew_functions(self, monkeypatch, compute):
        P = random_params(FunctionMode.elliptic(1.5j), seed=11)
        memoized, plain = self._both(monkeypatch, lambda: compute(P))
        assert memoized == plain

    def test_stochastic_skew_B(self, dyn6v, monkeypatch):
        memoized, plain = self._both(
            monkeypatch, lambda: skew_B_lattice((4, 2, 1), (2,), dyn6v.lambda0, [dyn6v.w(1), dyn6v.w(2)], dyn6v, stochastic=True)
        )
        assert memoized == plain

    @pytest.mark.parametrize("lam", [None, -5j])
    def test_enum_E(self, dyn6v, monkeypatch, lam):
        memoized, plain = self._both(monkeypatch, lambda: enum_E(ObservableSpec((5, 3, 2), 5), dyn6v, lam=lam))
        assert memoized == plain


def unmemoized_hs6v(params, N, xs):
    """``enumerate_heights_hs6v`` without its memo: one ``hs6v_weight`` call per plaquette."""
    sv = to_six_vertex(params)
    patt = {"A": (0, 0, 0, 0), "B": (0, 1, 1, 0), "C": (0, 0, -1, 1), "D": (0, 1, 0, 1)}

    def row_weights(y):
        def fn(kind, m, x, lam_x):
            di1, dj1, di2, dj2 = patt[kind]
            return weights.hs6v_weight(
                "stochastic", m + di1, dj1, m + di2, dj2, sv.q, sv.s[x - 1], sv.xi[x - 1], sv.u[y - 1]
            )

        return fn

    return enumerate_heights(params, N, xs, lam0=0.0, row_weights=row_weights)


class TestHs6vRowMemo:
    SPEC = ObservableSpec((5, 3, 2), 5)

    def test_q_moment_bit_equal_to_unmemoized(self, dyn6v, monkeypatch):
        memoized = hs6v_q_moment(self.SPEC, dyn6v)
        monkeypatch.setattr(observables, "enumerate_heights_hs6v", unmemoized_hs6v)
        plain = hs6v_q_moment(self.SPEC, dyn6v)
        assert (memoized.real.hex(), memoized.imag.hex()) == (plain.real.hex(), plain.imag.hex())

    def test_one_call_per_distinct_argument_set(self, dyn6v, monkeypatch):
        calls = []
        real = weights.hs6v_weight

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(weights, "hs6v_weight", spy)
        hs6v_q_moment(self.SPEC, dyn6v)
        memoized = list(calls)
        calls.clear()
        unmemoized_hs6v(dyn6v, 5, (5, 3, 2))
        assert len(memoized) == len(set(memoized)) == len(set(calls))
        # the row sweep asks once per (state, transition): 1,068 unmemoized
        # calls for 122 distinct argument sets
        assert (len(calls), len(memoized)) == (1068, 122)
