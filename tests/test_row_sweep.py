"""The column sweep ``symfunc._row_sweep`` against the per-bottom branching walk.

``enumerate_heights`` and the stochastic ``symfunc._strip`` push their
whole distribution through each row in one sweep.  The reference below
expands every bottom on its own by a depth-first walk over the row's
configurations, as the lattice routes once did, and adds the results up
per top.  Both must give the same keys and the same amplitudes up to
summation order.  A second reference, the sweep as it was before each
column kept a branch table, must give the same laws bit for bit.
"""

import numpy as np
import pytest

from dynirf import samplers, symfunc
from dynirf.params import IrfParams, preset
from dynirf.samplers import enumerate_heights, enumerate_heights_hs6v
from dynirf.special import FunctionMode
from dynirf.symfunc import Signature, _strip, signatures_in_box, skew_B_lattice, skew_D_lattice
from dynirf.weights import plaquette_weights

_ROW_KIND = {(0, 0): "A", (1, 0): "B", (0, 1): "C", (1, 1): "D"}
LAM0 = 0.31 + 0.17j


def walk_row(params, bot, first, last, lam_start, weight_fn):
    """Every configuration of one row above the bottom ``bot`` (column -> occupation).

    Returns {(top occupations from column ``first`` on, carry past the last
    column walked): amplitude}; a path with carry 0 past the last occupied
    column stops there.
    """
    eta = params.eta
    stop = max((x for x, m in bot.items() if m), default=first - 1)
    out: dict = {}
    stack = [(first, 1, lam_start, 1.0 + 0.0j, ())]
    while stack:
        x, carry, lam_x, amp, tops = stack.pop()
        if x > last or (carry == 0 and x > stop):
            key = (tops, carry)
            out[key] = out.get(key, 0.0 + 0.0j) + amp
            continue
        m = bot.get(x, 0)
        for carry_out in (0, 1):
            n = m + carry - carry_out
            if n < 0:
                continue
            kind = _ROW_KIND[(carry, carry_out)]
            wgt = 1.0 + 0.0j if (kind == "A" and m == 0) else weight_fn(kind, m, x, lam_x)
            if wgt == 0:
                continue
            stack.append((x + 1, carry_out, lam_x + 4 * eta * n - 2 * eta * params.lam(x), amp * wgt, tops + (n,)))
    return out


def walk_enumerate_heights(params, N, xs, lam0, cap=None, row_weights=None):
    """The joint height law over columns 1..cap (default max(xs) - 1, where
    ``enumerate_heights`` stops), the paths past it counted as absorbed."""
    cap = max(xs) - 1 if cap is None else cap
    row_weights = row_weights or (lambda y: plaquette_weights(params, params.w(y), True))
    dist = {((0,) * cap, 0): 1.0 + 0.0j}
    for y in range(1, N + 1):
        weight_fn = row_weights(y)
        new: dict = {}
        for (bot, n_abs), amp in dist.items():
            for (top, inc), wgt in walk_row(params, dict(enumerate(bot, 1)), 1, cap, lam0 - 2 * params.eta * y, weight_fn).items():
                key = (top + (0,) * (cap - len(top)), n_abs + inc)
                new[key] = new.get(key, 0.0 + 0.0j) + amp * wgt
        dist = new
    out: dict = {}
    for (occ, n_abs), amp in dist.items():
        hs = tuple(sum(occ[x - 1] for x in range(max(xi, 1), cap + 1)) + n_abs for xi in xs)
        out[hs] = out.get(hs, 0.0 + 0.0j) + amp
    return out


def walk_row_transfer(dist, lam_row, w, params, max_part):
    lam_start = lam_row - 2 * params.eta * params.lam(0)
    weight_fn = plaquette_weights(params, w, True)
    out: dict = {}
    for bot, amp in dist.items():
        if bot.max_part() > max_part:
            continue
        for (tops, carry), val in walk_row(params, bot.multiplicities(), 1, max_part, lam_start, weight_fn).items():
            if carry == 0:
                top = Signature(tuple(col for col in range(len(tops), 0, -1) for _ in range(tops[col - 1])))
                out[top] = out.get(top, 0.0 + 0.0j) + amp * val
    return out


def higher_spin_params(mode, seed, n_cols=9, n_rows=4):
    """Random columns with Lambda near 1.15, so occupations above 1 carry weight."""
    rng = np.random.default_rng(seed)
    cols = tuple(
        (complex(a, b), complex(c, d))
        for a, b, c, d in zip(
            0.3 + 0.25 * rng.standard_normal(n_cols),
            0.12 * rng.standard_normal(n_cols),
            1.15 + 0.3 * rng.standard_normal(n_cols),
            0.1 * rng.standard_normal(n_cols),
        )
    )
    rows = tuple(complex(a, b) for a, b in zip(0.4 + 0.2 * rng.random(n_rows), 0.05 * rng.standard_normal(n_rows)))
    eta = complex(0.06 + 0.04 * rng.random(), 0.02 + 0.02 * rng.random())
    return IrfParams(mode, eta, LAM0, cols, rows)


PACKS = {
    "dyn6v": lambda: preset("dyn6v-positive"),
    "trig": lambda: higher_spin_params(FunctionMode.trigonometric(), seed=31),
    "elliptic": lambda: higher_spin_params(FunctionMode.elliptic(1.5j), seed=32),
}


def assert_same_law(got, want, tol=1e-12):
    assert got.keys() == want.keys()
    for key, amp in want.items():
        assert abs(got[key] - amp) <= tol * max(1.0, abs(amp)), key


@pytest.mark.parametrize("pack", PACKS)
@pytest.mark.parametrize("N, xs", [(4, (5, 3, 2)), (3, (6, 1)), (3, (4, 0))])
def test_enumerate_heights_matches_walk(pack, N, xs):
    params = PACKS[pack]()
    got = enumerate_heights(params.with_lambda0(LAM0), N, xs)
    assert_same_law(got, walk_enumerate_heights(params, N, xs, LAM0))


STOCHASTIC_PACKS = {"dyn6v": PACKS["dyn6v"], "trig": PACKS["trig"], "rational": lambda: preset("rational-positive")}


@pytest.mark.parametrize("pack", STOCHASTIC_PACKS)
@pytest.mark.parametrize("N, xs", [(4, (5, 3, 2)), (3, (6, 1)), (3, (4, 0)), (3, (1,))])
def test_cut_before_the_last_site_is_exact(pack, N, xs):
    # enumerate_heights stops at column max(xs) - 1; a walk that also sweeps
    # column max(xs) gives the same law, since that column's stochastic
    # weights sum to one
    params = STOCHASTIC_PACKS[pack]()
    want = walk_enumerate_heights(params, N, xs, LAM0, cap=max(xs))
    assert_same_law(enumerate_heights(params.with_lambda0(LAM0), N, xs), want, tol=1e-13)


def test_hs6v_cut_before_the_last_site_is_exact(monkeypatch):
    from dynirf import samplers

    params, N, xs = preset("dyn6v-positive"), 5, (5, 3, 2)
    seen = {}
    real = samplers.enumerate_heights

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(samplers, "enumerate_heights", spy)
    got = samplers.enumerate_heights_hs6v(params, N, xs)
    want = walk_enumerate_heights(params, N, xs, params.lambda0, cap=max(xs), row_weights=seen["row_weights"])
    assert_same_law(got, want, tol=1e-13)


@pytest.mark.parametrize("pack", PACKS)
def test_stochastic_strip_matches_walk(pack):
    params = PACKS[pack]()
    cap = 6
    # every bottom of length 2 with parts in 1..5, each pushed through one
    # stochastic row by its own strip and weighed by its amplitude; the cap
    # of 4 drops the bottoms with a part of 5
    dist = {sig: complex(0.3 + 0.1 * k, 0.05 * k) for k, sig in enumerate(signatures_in_box([1, 1], [5, 5]))}
    for max_part in (cap, 4):
        lam_row = LAM0 + 0.2 * params.eta
        got: dict = {}
        for bot, amp in dist.items():
            if bot.max_part() <= max_part:
                for top, val in _strip(bot, lam_row, [params.w(1)], params, "stoch", cap=max_part).items():
                    got[top] = got.get(top, 0.0 + 0.0j) + amp * val
        assert_same_law(got, walk_row_transfer(dist, lam_row, params.w(1), params, max_part))


def test_higher_spin_packs_reach_occupations_above_one():
    # the comparison above only covers multiple occupation if the laws hold it
    for pack in ("trig", "elliptic"):
        params = PACKS[pack]()
        # rows y = 1, 2, 3 (bottom first) at LAM0 - 2*eta*y
        dist = _strip((), LAM0 - 6 * params.eta, [params.w(3), params.w(2), params.w(1)], params, "stoch", cap=6)
        assert any(sig.multiplicity(p) > 1 and abs(amp) > 1e-6 for sig, amp in dist.items() for p in sig.parts)


def test_enum_E_rejects_elliptic_packs(monkeypatch):
    # enumerate_heights runs elliptic packs (compared above), but their
    # stochastic weights miss one (see the weights module docstring), so
    # enum_E's absorbed mass is wrong: it used to return -0.90 + 8.45i here
    from dynirf import samplers
    from dynirf.observables import ObservableSpec, enum_E
    from dynirf.special import InvalidParameterError

    params = PACKS["elliptic"]()

    def never(*args, **kwargs):
        raise AssertionError("swept a row of an elliptic pack")

    monkeypatch.setattr(samplers, "_row_sweep", never)
    with pytest.raises(InvalidParameterError, match="elliptic"):
        enum_E(ObservableSpec((5, 3), 3), params)


def per_state_row_sweep(params, dist, first, lam_start, weight_fn, top=None):
    """``symfunc._row_sweep`` before its branch table: each state asks
    ``weight_fn`` for every branch and prices the next filling itself."""
    four_eta = 4 * params.eta
    states = {(occ, 1): [lam_start, amp] for occ, amp in dist.items()}
    for i in range(len(next(iter(dist), ()))):
        x = first + i
        shift = 2 * params.eta * params.lam(x)
        new: dict = {}
        for (occ, carry), (lam_x, amp) in states.items():
            m = occ[i]
            for carry_out in (0, 1):
                n = m + carry - carry_out
                if n < 0 or (top is not None and n != top[i]):
                    continue
                wgt = 1.0 if carry == carry_out == m == 0 else weight_fn(_ROW_KIND[carry, carry_out], m, x, lam_x)
                if wgt == 0:
                    continue
                key = (occ if n == m else occ[:i] + (n,) + occ[i + 1 :], carry_out)
                entry = new.get(key)
                if entry is None:
                    new[key] = [lam_x + four_eta * n - shift, amp * wgt]
                else:
                    entry[1] += amp * wgt
        states = new
    return {key: amp for key, (_, amp) in states.items()}


def _rows(params, k):
    return [params.w(y) for y in range(1, k + 1)]


SWEEP_RUNS = {
    **{
        f"enumerate-{name}-{N}": (lambda name=name, N=N, xs=xs: enumerate_heights(preset(name), N, xs))
        for name in ("dyn6v-positive", "trig-admissible", "rational-positive")
        for N, xs in ((5, (5, 3, 2)), (4, (6, 1)))
    },
    "enumerate-higher-spin": lambda: enumerate_heights(PACKS["trig"]().with_lambda0(LAM0), 4, (5, 3, 2)),
    "hs6v": lambda: enumerate_heights_hs6v(preset("dyn6v-positive"), 5, (5, 3, 2)),
    "stoch-law": lambda: _strip((2, 1), LAM0, _rows(PACKS["trig"](), 3), PACKS["trig"](), "stoch", cap=6),
    "B-top": lambda: skew_B_lattice((3, 2, 0), (2, 1), LAM0, _rows(PACKS["elliptic"](), 1), PACKS["elliptic"]()),
    "B-top-higher-spin": lambda: skew_B_lattice((4, 3, 1, 1), (3, 1), LAM0, _rows(PACKS["trig"](), 2), PACKS["trig"]()),
    "B-law": lambda: _strip((1,), LAM0, _rows(PACKS["elliptic"](), 2), PACKS["elliptic"](), "B", cap=4),
    "D-bottom": lambda: skew_D_lattice((4, 2), (1, 0), LAM0, _rows(PACKS["elliptic"](), 2), PACKS["elliptic"]()),
    "D-law": lambda: _strip((3, 1), LAM0, _rows(PACKS["trig"](), 2), PACKS["trig"](), "D"),
}


@pytest.mark.parametrize("run", SWEEP_RUNS)
def test_branch_table_bit_equal_to_per_state_sweep(run, monkeypatch):
    # the same additions in the same order: equal reprs, key order included
    got = SWEEP_RUNS[run]()
    monkeypatch.setattr(symfunc, "_row_sweep", per_state_row_sweep)
    monkeypatch.setattr(samplers, "_row_sweep", per_state_row_sweep)
    want = SWEEP_RUNS[run]()
    if isinstance(want, dict):
        assert want and repr(list(got.items())) == repr(list(want.items()))
    else:
        assert want != 0 and repr(got) == repr(want)
