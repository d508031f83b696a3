import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from dynirf.params import (
    IrfParams,
    check_admissible,
    load_config,
    params_from_json_dict,
    params_to_json_dict,
    pq_grid,
    preset,
    random_pack,
    to_six_vertex,
)
from dynirf.special import FunctionMode, InvalidParameterError

RNG = np.random.default_rng(7)


def small_params(eta=0.05, lam0=0.3 + 0.2j, cols=None, rows=(0.11, 0.13)):
    if cols is None:
        cols = ((0.3, 1.0), (0.32, 1.1), (0.29, 0.9))
    return IrfParams(FunctionMode.trigonometric(), eta, lam0, cols, rows)


class TestPQGrid:
    def test_spin_one_example(self):
        grid = pq_grid(small_params())
        assert abs(grid.p[0] - 0.3) < 1e-15
        assert abs(grid.q[0] - 0.4) < 1e-15

    def test_zero_spin_degenerate(self):
        p = small_params(cols=((0.3, 0.0),), rows=(0.1,))
        grid = pq_grid(p)
        assert grid.p[0] == grid.q[0] == 0.3 + 0.05

    def test_sum_rule_and_inversion(self):
        eta = 0.04 + 0.02j
        cols = tuple(
            (complex(a, b), complex(c, d))
            for a, b, c, d in RNG.normal(size=(6, 4))
        )
        p = IrfParams(FunctionMode.trigonometric(), eta, 0.1, cols, (0.0,))
        grid = pq_grid(p)
        for j, (z, lam) in enumerate(cols):
            assert abs(grid.p[j] + grid.q[j] - (2 * eta + 2 * z)) < 1e-12
            z_back = (grid.p[j] + grid.q[j]) / 2 - eta
            lam_back = (grid.q[j] - grid.p[j]) / (2 * eta)
            assert abs(z_back - z) < 1e-12 and abs(lam_back - lam) < 1e-12

    def test_partial_sums(self):
        p = small_params()
        assert p.lam_sum(1, 1) == 0
        assert abs(p.lam_sum(0, 3) - (1.0 + 1.1 + 0.9)) < 1e-15
        assert abs(p.lam_sum(1, 3) - (1.1 + 0.9)) < 1e-15
        # an empty range gives 0 wherever it lies: obs_O reads lam_sum(1, x) at x <= 0
        assert p.lam_sum(1, -2) == p.lam_sum(7, 5) == 0
        assert p.lam_sum(np.int64(1), 3.0) == p.lam_sum(1, 3)


class TestAdmissibility:
    def test_trig_admissible_preset_m3(self):
        assert len(check_admissible(preset("trig-admissible"), 3)) == 3

    def test_single_contour(self):
        assert len(check_admissible(preset("trig-admissible"), 1)) == 1

    def test_family_self_audits(self):
        # Returned contours must satisfy all three conditions with margin.
        params = preset("trig-admissible")
        grid = pq_grid(params)
        gammas = check_admissible(params, 3)
        inner = gammas[-1]
        assert all(abs(p - inner.center) < inner.radius for p in grid.p)
        for a, b in zip(gammas, gammas[1:]):
            assert abs(b.center + 2 * params.eta - a.center) + b.radius < a.radius
        for g in gammas:
            assert all(abs(q - g.center) > g.radius for q in grid.q)

    def test_overlapping_clusters_diagnosed(self):
        # Lambda ~ 0 puts q on top of p: no contour can separate them.
        bad = small_params(cols=((0.3, 1e-9), (0.31, 1e-9)), rows=(0.1,))
        with pytest.raises(InvalidParameterError, match="q.* inside"):
            check_admissible(bad, 2)

    def test_m_validation(self):
        with pytest.raises(InvalidParameterError):
            check_admissible(small_params(), 0)

    def test_circles_and_refusals_pinned(self):
        # both trig presets and 60 random packs at M = 1..4, strong off and
        # on: the circles' repr or the refusal, as the earlier two-pass audit
        # (a pass/fail test, then a clearance) gave them
        packs = [preset("trig-admissible"), preset("trig-admissible-wide")]
        rng = np.random.default_rng(5)
        packs += [random_pack(rng, FunctionMode.trigonometric()) for _ in range(60)]
        out = []
        for P in packs:
            for M in (1, 2, 3, 4):
                for strong in (False, True):
                    try:
                        out.append(repr(check_admissible(P, M, strong=strong)))
                    except InvalidParameterError as exc:
                        out.append(f"refused: {exc}")
        refusals = Counter(o for o in out if o.startswith("refused"))
        assert refusals == {
            "refused: no admissible contour family: q[0] inside gamma_1": 481,
            "refused: no admissible contour family: q[1] inside gamma_1": 1,
        }
        assert hashlib.sha256("\n".join(out).encode()).hexdigest()[:16] == "66fa569b7ec9f73f"

    def test_accepted_families_pinned(self):
        # 150 random packs, each also with eta and every Lambda times 3, at
        # M = 1..4, strong off and on: 524 of the 2,400 cases accepted, as
        # the three hand-built family loops and the literal-nesting audit
        # gave them
        rng = np.random.default_rng(11)
        out = []
        for _ in range(150):
            P = random_pack(rng, FunctionMode.trigonometric())
            wide = IrfParams(P.mode, 3 * P.eta, P.lambda0, tuple((z, 3 * l) for z, l in P.columns), P.rows)
            for Q in (P, wide):
                for M in (1, 2, 3, 4):
                    for strong in (False, True):
                        try:
                            out.append(repr(check_admissible(Q, M, strong=strong)))
                        except InvalidParameterError as exc:
                            out.append(f"refused: {exc}")
        assert len(out) == 2400 and sum(not o.startswith("refused") for o in out) == 524
        assert hashlib.sha256("\n".join(out).encode()).hexdigest()[:16] == "cee8d8db623087b8"


class TestSixVertexMap:
    def test_q_value(self):
        eta = -1j * np.log(4.0) / (4 * np.pi)  # exp(-4*pi*i*eta) = 1/4
        p = small_params(eta=eta)
        sv = to_six_vertex(p)
        assert abs(sv.q - 0.25) < 1e-12

    def test_spin_half_s(self):
        # s = exp(2*pi*i*eta*Lambda) with Lambda = 1 gives s^2 = 1/q; the
        # pair (s, q) is exactly what makes the weight tables match.
        p = preset("dyn6v-positive")
        sv = to_six_vertex(p)
        assert abs(sv.s[0] ** 2 - 1 / sv.q) < 1e-12

    def test_composition_identity(self):
        p = preset("dyn6v-positive")
        sv = to_six_vertex(p)
        eta = p.eta
        assert abs(np.exp(-4j * np.pi * eta) - sv.q) < 1e-12
        for j in range(1, p.n_cols):
            assert abs(np.exp(2j * np.pi * p.z(j)) - sv.xi[j - 1]) < 1e-12


class TestPresetsAndConfig:
    @pytest.mark.parametrize("name", ["trig-admissible", "dyn6v-positive", "rational-positive"])
    def test_presets_load(self, name):
        p = preset(name)
        assert p.n_cols >= 8 and p.n_rows >= 8

    def test_unknown_preset(self):
        with pytest.raises(InvalidParameterError):
            preset("no-such-thing")

    # the six spin-1/2 weights the positivity validation reads, in its order
    SIX = (("A", 1), ("B", 0), ("B", 1), ("C", 1), ("D", 0), ("D", 1))

    @classmethod
    def _six_weights(cls, lam, params, x, y):
        from dynirf.weights import WeightContext, weight

        ctx = WeightContext(lam, params.w(y), params.z(x), params.lam(x), params.eta, params.mode)
        return [weight(kind, k, ctx, stochastic=True) for kind, k in cls.SIX]

    def test_positive_preset_weights_in_unit_interval(self):
        p = preset("dyn6v-positive")
        for m in (-10, 0, 7):
            lam = p.lambda0 - 2 * p.eta * m
            for wgt in self._six_weights(lam, p, 3, 2):
                assert abs(wgt.imag) < 1e-9
                assert -1e-9 <= wgt.real <= 1 + 1e-9

    @classmethod
    def _scalar_validation(cls, params):
        """The former validation loop, one scalar weight call per (shift, x,
        y): the first (shift, weight) outside the unit interval, or None."""
        for m in range(-24, 25):
            lam = params.lambda0 + (-2 * params.eta) * m if params.mode.kind != "rational" else params.lambda0 + m
            for x in range(1, min(6, params.n_cols)):
                for y in range(1, min(6, params.n_rows + 1)):
                    for wgt in cls._six_weights(lam, params, x, y):
                        if abs(wgt.imag) > 1e-9 or wgt.real < -1e-9 or wgt.real > 1 + 1e-9:
                            return m, wgt
        return None

    @pytest.mark.parametrize(
        "name, lam_shift",
        [("dyn6v-positive", 0), ("dyn6v-positive", 0.3), ("trig-admissible", 0), ("rational-positive", 0), ("rational-positive", 57.5)],
    )
    def test_positive_validation_matches_scalar_loop(self, name, lam_shift):
        import dataclasses
        import re

        from dynirf.params import _BUILDERS, _validate_positive_preset

        built = _BUILDERS[name]()
        params = dataclasses.replace(built, lambda0=built.lambda0 + lam_shift)
        want = self._scalar_validation(params)
        if want is None:
            _validate_positive_preset(params, name)
            return
        with pytest.raises(InvalidParameterError, match=f"preset {name} has non-probability weight") as exc:
            _validate_positive_preset(params, name)
        wgt, shift = re.search(r"weight (\S+) at shift (-?\d+)$", str(exc.value)).groups()
        assert int(shift) == want[0] and abs(complex(wgt) - want[1]) < 1e-12

    def test_positive_validation_rejects_out_of_range_and_non_finite(self):
        # the array pass skips the scalar path's singular-denominator check,
        # so a 0/0 weight (rational, lambda0 = 0) must be rejected as non-finite
        import dataclasses

        from dynirf.params import _BUILDERS, _validate_positive_preset

        dyn6v = _BUILDERS["dyn6v-positive"]()
        with pytest.raises(InvalidParameterError, match="non-probability weight .* at shift -24"):
            _validate_positive_preset(dataclasses.replace(dyn6v, lambda0=dyn6v.lambda0 + 0.3), "shifted")
        rational = _BUILDERS["rational-positive"]()
        with pytest.raises(InvalidParameterError, match=r"non-probability weight \(nan"):
            _validate_positive_preset(dataclasses.replace(rational, lambda0=0j), "singular")

    def test_json_roundtrip(self, tmp_path):
        p = preset("trig-admissible")
        cfg = params_to_json_dict(p)
        text = json.dumps(cfg)
        q = params_from_json_dict(json.loads(text))
        assert q == p
        path = tmp_path / "params.json"
        path.write_text(text, encoding="utf-8")
        assert load_config(path) == p

    def test_json_elliptic_tau(self):
        p = IrfParams(FunctionMode.elliptic(1.7j), 0.05, 0.1, ((0.3, 1.0),), (0.1,))
        q = params_from_json_dict(params_to_json_dict(p))
        assert q.mode.tau == 1.7j

    def test_json_rejects_bad_mode(self):
        with pytest.raises(InvalidParameterError):
            params_from_json_dict({"mode": "nope", "eta": [0, 0], "lambda0": [0, 0], "columns": [], "rows": []})
