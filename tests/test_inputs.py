"""Numeric input outside its domain ends in InvalidParameterError before any work.

``special._as_int`` and ``special._as_real`` read every integer and real a
caller passes to a public function of special, params, symfunc, samplers,
observables, asymptotics and identities.  Each row below calls one entry
point with one bad value while the engines behind it (sweeps, quadratures,
hashes, strips) are patched to fail the test if reached.

* ``HOLES``: inputs that once returned NaN, inf or an aliased random stream,
  or ended in a bare TypeError, ValueError or OverflowError.
* ``INTS`` and ``REALS``: every other parameter the readers cover, at NaN,
  +inf and -inf, at 2.5 where an integer is meant, and at True (except the
  three complex tau rows).

``test_every_guarded_parameter_has_a_row`` fails when a public function of
those modules takes a parameter named in ``GUARDED`` that no row feeds.

The rows of ``samplers.enumerate_distribution``, ``samplers.sample_irf``,
``samplers.QuadrantState``, ``samplers.filling``, ``samplers.height``,
``samplers.irf_batch_heights``, ``observables.obs_O_six_vertex``, the
``samples`` and ``seed`` of ``observables.lambda_independence_report``,
``asymptotics.RegimeSpec``, ``asymptotics.height_from_O``,
``asymptotics.gamma_moment`` and ``asymptotics.RegimeIVLaw.moment`` keep
the names those routes had in the package; they now feed the test
references in ``reference_routes``, which read their input the same way.
"""

import importlib
import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest

from dynirf.asymptotics import (
    H_profile,
    RegimeIVLaw,
    heat_equation_residual,
    hydro_check,
    regime_iv_ks_check,
    regime_moment_check,
)
from dynirf.identities import (
    check_cauchy_rho,
    check_D_integral,
    check_nested_sum_lemma,
    check_symmetrization_lemma,
)
from dynirf.observables import (
    ObservableSpec,
    enum_E,
    exact_E,
    mc_E,
    rising,
    ssep_f2_duality,
    ssep_falling_moment,
    ssep_mean_height,
)
from dynirf.params import IrfParams, check_admissible, pq_grid, preset
from dynirf.samplers import (
    ExclusionState,
    enumerate_heights,
    enumerate_heights_hs6v,
    exclusion_farm,
    simulate_exclusion,
    step_exclusion_state,
)
from dynirf.special import CheckReport, Circle, FunctionMode, InvalidParameterError, contour_integral_factored, gammainc, log_ive, theta
from dynirf.symfunc import B_mu, Signature, c_matrix_formula, normalize, phi, psi, signatures_in_box
from reference_routes import (
    QuadrantState,
    RegimeSpec,
    enumerate_distribution,
    filling,
    gamma_moment,
    height,
    height_from_O,
    irf_batch_heights,
    law_moment,
    limit_profile,
    mc_lambda_independence,
    obs_O_six_vertex,
    sample_irf,
)

NAN, INF = math.nan, math.inf
MODULES = ("special", "params", "symfunc", "samplers", "observables", "asymptotics", "identities")

# what each module's entry points reach once their input is read
ENGINES = {
    "special": ("_theta_product", "_level_unaries"),
    "params": ("_audit",),
    "symfunc": ("_perm_sum", "_row_sweep", "_ratio_chain"),
    "samplers": ("_irf_batch", "_farm_block", "_row_sweep", "_fold", "_hash64", "uniform_hash", "plaquette_weights"),
    "observables": (
        "contour_integral_factored", "_exact_E_irf", "_exact_E_asep", "_exact_E_ssep", "_walk_sum", "_duality_moment",
        "enumerate_heights", "enumerate_heights_hs6v", "_farm_blocks", "_irf_height_blocks", "to_six_vertex",
    ),
    "asymptotics": ("ssep_falling_moment", "ssep_mean_height", "exclusion_farm"),
    "identities": ("_perm_sum", "_strip", "_capped_sum", "_strong_family", "contour_integral_factored"),
}


@pytest.fixture(scope="module")
def ctx():
    dyn6v, trig = preset("dyn6v-positive"), preset("trig-admissible")
    zeros = np.zeros((3, 3), dtype=np.int64)
    return SimpleNamespace(
        dyn6v=dyn6v,
        trig=trig,
        elliptic=FunctionMode.elliptic(1.5j),
        grid=pq_grid(trig),
        state=QuadrantState(2, 2, zeros, zeros, dyn6v),
        step=step_exclusion_state("ssep", (2.0,)),
        terms=[([lambda v: 1.0 / v], {})],
    )


@pytest.fixture(autouse=True)
def no_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an engine ran on refused input")

    for module, names in ENGINES.items():
        mod = importlib.import_module(f"dynirf.{module}")
        for name in names:
            monkeypatch.setattr(mod, name, never)


# (target "module.function:parameter", what the call did at the parent, call(ctx))
HOLES = [
    ("observables.mc_E:seed", "bit-identical to seed 2", lambda c: mc_E("irf", ObservableSpec((3, 2), 4), c.dyn6v, 1000, 2.5)),
    ("samplers.exclusion_farm:seed", "bit-identical to seed 2", lambda c: exclusion_farm("ssep", (2.0,), 1.0, 10, 2.5, [0])),
    ("samplers.irf_batch_heights:seed", "bit-identical to seed 2", lambda c: irf_batch_heights(c.dyn6v, (3,), 2, 2.5, 10)),
    ("samplers.simulate_exclusion:seed", "bit-identical to seed 2", lambda c: simulate_exclusion(c.step, 1.0, 2.5)),
    ("samplers.sample_irf:seed", "bit-identical to seed 2", lambda c: sample_irf(c.dyn6v, 3, 3, 2.5)),
    ("observables.mc_E:seed", "bit-identical to seed 1", lambda c: mc_E("irf", ObservableSpec((3, 2), 4), c.dyn6v, 1000, True)),
    ("samplers.exclusion_farm:n_traj", "one trajectory", lambda c: exclusion_farm("ssep", (2.0,), 1.0, True, 1, [0])),
    ("samplers.enumerate_distribution:X", "a bare TypeError", lambda c: enumerate_distribution(c.dyn6v, 2, 2.5)),
    ("params.check_admissible:M", "a bare TypeError", lambda c: check_admissible(c.trig, 2.5)),
    ("symfunc.Signature:parts", "parts (2, 1)", lambda c: Signature((2.5, 1))),
    ("symfunc.B_mu:mu", "B_mu((2,), ...)", lambda c: B_mu((2.5,), 0.1, [0.1], c.trig)),
    ("observables.exact_E:params_or_rates", "a bare OverflowError", lambda c: exact_E("asep", ObservableSpec((1,), 1.0), (INF, 1.0))),
    ("observables.exact_E:params_or_rates", "a value mc_E refused", lambda c: exact_E("asep", ObservableSpec((1,), 1.0), (0.5, INF))),
    ("observables.exact_E:params_or_rates", "a value mc_E refused", lambda c: exact_E("ssep", ObservableSpec((1,), 1.0), (INF,))),
    ("observables.mc_E:params_or_rates", "a farm error after setup", lambda c: mc_E("asep", ObservableSpec((1,), 1.0), (0.5, INF), 1000, 1)),
    ("asymptotics.H_profile:chi", "NaN", lambda c: H_profile(NAN, 1.0)),
    ("asymptotics.H_profile:chi", "NaN", lambda c: H_profile(INF, 1.0)),
    ("asymptotics.heat_equation_residual:chi", "NaN", lambda c: heat_equation_residual(NAN, 1.0)),
    ("asymptotics.gamma_moment:a", "NaN", lambda c: gamma_moment(NAN, 1.0, 1)),
    ("asymptotics.RegimeSpec:chi", "NaN from limit_profile", lambda c: limit_profile(RegimeSpec("I", NAN, 1.0))),
    ("asymptotics.RegimeSpec:l", "NaN from limit_profile", lambda c: limit_profile(RegimeSpec("II", 0.0, 1.0, l=INF))),
    ("asymptotics.regime_moment_check:lambda_bar", "NaN", lambda c: regime_moment_check(1, 100.0, 1.0, INF)),
    ("asymptotics.height_from_O:o", "NaN", lambda c: height_from_O(NAN, 0.0, 1.0)),
    ("asymptotics.height_from_O:o", "a bare ValueError", lambda c: height_from_O(-100.0, 0.0, 1.0)),
    ("asymptotics.RegimeIVLaw:lambda_bar", "an infinite moment", lambda c: law_moment(RegimeIVLaw(0.0, 1.0, INF), 1)),
    ("special.FunctionMode.elliptic:tau", "f identically 0", lambda c: FunctionMode.elliptic(complex(0, INF))),
    ("special.FunctionMode.elliptic:tau", "a later 'past double range'", lambda c: FunctionMode.elliptic(complex(0, NAN))),
    ("special.Circle:radius", "a quadrature run to its node cap", lambda c: Circle(0.0, INF)),
    ("samplers.exclusion_farm:rate_params", "a bare numpy ValueError", lambda c: exclusion_farm("asep", (0.5, (1, 2)), 1.0, 10, 1, [0])),
    ("samplers.ExclusionState.value:x", "2.5", lambda c: c.step.value(2.5)),
    ("params.IrfParams.z:j", "column 27", lambda c: c.dyn6v.z(-1)),
    ("params.IrfParams.lam:j", "column 27", lambda c: c.dyn6v.lam(-1)),
    ("params.IrfParams.w:k", "row 10", lambda c: c.dyn6v.w(0)),
    ("params.IrfParams.lam_sum:a", "-26", lambda c: c.dyn6v.lam_sum(-1, 2)),
    ("params.IrfParams.z:j", "a bare TypeError", lambda c: c.dyn6v.z(2.5)),
    ("params.IrfParams.lam_sum:b", "a bare TypeError", lambda c: c.dyn6v.lam_sum(1, 2.5)),
    ("params.IrfParams.w:k", "a bare IndexError", lambda c: c.dyn6v.w(11)),
    ("samplers.ExclusionState:s", "accepted; a run ended in a bare KeyError: -5", lambda c: ExclusionState("ssep", (2.0,), -6, 6, {})),
    ("samplers.ExclusionState:s", "accepted; a run left flat steps (7, 7) at the ends", lambda c: _heights(c, lambda x: abs(x) + 1)),
    ("samplers.ExclusionState:s", "accepted; a run returned zeros", lambda c: _heights(c, lambda x: 0)),
    ("samplers.ExclusionState:s", "accepted; a run never flipped the origin", lambda c: ExclusionState("ssep", (2.0,), 1, 6, {x: x for x in range(1, 7)})),
    ("samplers.ExclusionState:s", "accepted; a run never flipped lo, a local minimum", lambda c: _heights(c, lambda x: abs(x - 1) + 1 - 2 * (x == -6))),
    ("samplers.ExclusionState:s", "accepted; a run froze at s_0 = 0.5", lambda c: _heights(c, lambda x: abs(x) + 0.5 * (x == 0))),
    ("samplers.ExclusionState:s", "accepted; value(9) read 1 off the window", lambda c: ExclusionState("ssep", (2.0,), -6, 6, {**c.step.s, 9: 1})),
    ("observables.enum_E:lam", "nan+nanj and two numpy RuntimeWarnings", lambda c: enum_E(ObservableSpec((3, 2), 4), c.dyn6v, lam=NAN)),
    ("params.IrfParams:columns", "accepted", lambda c: IrfParams(c.trig.mode, 0.05, 0.0, ((INF, 1.0),), (0.0,))),
    ("params.IrfParams:eta", "accepted; identity reports passed on values near 1e-30", lambda c: IrfParams(c.trig.mode, 0.5, 0.0, c.trig.columns, c.trig.rows)),
    ("params.IrfParams:eta", "accepted; verify --suite identities ended in a bare OverflowError", lambda c: IrfParams(c.trig.mode, 1000j, 0.0, c.trig.columns, c.trig.rows)),
    ("params.IrfParams:eta", "accepted", lambda c: IrfParams(FunctionMode.rational(), 0.0, 0.0, ((0.5, 1.0),), (0.0,))),
    ("params.IrfParams:eta", "accepted", lambda c: IrfParams(c.elliptic, 0.0, 0.0, ((0.5, 1.0),), (0.0,))),
]


def _heights(c, h):
    """The 13-site window of ``c.step`` with heights h(x)."""
    return ExclusionState("ssep", (2.0,), -6, 6, {x: h(x) for x in c.step.s})


@pytest.mark.parametrize("target, before, call", HOLES, ids=[f"{t}-{i}" for i, (t, _, _) in enumerate(HOLES)])
def test_hole_is_closed(ctx, target, before, call):
    with pytest.raises(InvalidParameterError):
        call(ctx)


def _ssep(t):
    return ObservableSpec((1,), t)


# "module.function:parameter" -> call(ctx, value), for parameters where an integer is meant
INTS = {
    "special.Circle.points:n": lambda c, v: Circle(0.0, 1.0).points(v),
    "special.log_ive:kmax": lambda c, v: log_ive(1.0, v),
    "special.contour_integral_factored:nodes": lambda c, v: contour_integral_factored(c.terms, [Circle(0.0, 1.0)], nodes=v),
    "special.contour_integral_factored:node_cap": lambda c, v: contour_integral_factored(c.terms, [Circle(0.0, 1.0)], node_cap=v),
    "params.check_admissible:M": lambda c, v: check_admissible(c.trig, v),
    "symfunc.Signature:parts": lambda c, v: Signature((v, 1)),
    "symfunc.phi:k": lambda c, v: phi(v, 0.1, c.grid, c.trig.mode),
    "symfunc.psi:l": lambda c, v: psi(v, 0.1, c.grid, c.trig.mode),
    "symfunc.normalize:count": lambda c, v: normalize(1.0, 0.1, v, c.trig),
    "symfunc.c_matrix_formula:ks": lambda c, v: c_matrix_formula([0.1], (v,), 0.1, c.trig),
    "symfunc.signatures_in_box:lows": lambda c, v: signatures_in_box((v,), (3,)),
    "symfunc.signatures_in_box:highs": lambda c, v: signatures_in_box((0,), (v,)),
    "samplers.QuadrantState:X": lambda c, v: QuadrantState(v, 2, c.state.vout, c.state.hout, c.dyn6v),
    "samplers.QuadrantState:Y": lambda c, v: QuadrantState(2, v, c.state.vout, c.state.hout, c.dyn6v),
    "samplers.filling:x": lambda c, v: filling(c.state, v, 1),
    "samplers.filling:y": lambda c, v: filling(c.state, 1, v),
    "samplers.height:x": lambda c, v: height(c.state, v, 1),
    "samplers.height:N": lambda c, v: height(c.state, 1, v),
    "samplers.sample_irf:X": lambda c, v: sample_irf(c.dyn6v, v, 3, 1),
    "samplers.sample_irf:Y": lambda c, v: sample_irf(c.dyn6v, 3, v, 1),
    "samplers.sample_irf:seed": lambda c, v: sample_irf(c.dyn6v, 3, 3, v),
    "samplers.enumerate_distribution:N": lambda c, v: enumerate_distribution(c.dyn6v, v, 3),
    "samplers.enumerate_distribution:X": lambda c, v: enumerate_distribution(c.dyn6v, 2, v),
    "samplers.enumerate_heights:N": lambda c, v: enumerate_heights(c.dyn6v, v, (3,)),
    "samplers.enumerate_heights:xs": lambda c, v: enumerate_heights(c.dyn6v, 2, (v,)),
    "samplers.enumerate_heights_hs6v:N": lambda c, v: enumerate_heights_hs6v(c.dyn6v, v, (3,)),
    "samplers.irf_batch_heights:xs": lambda c, v: irf_batch_heights(c.dyn6v, (v,), 2, 1, 10),
    "samplers.irf_batch_heights:N": lambda c, v: irf_batch_heights(c.dyn6v, (3,), v, 1, 10),
    "samplers.irf_batch_heights:seed": lambda c, v: irf_batch_heights(c.dyn6v, (3,), 2, v, 10),
    "samplers.irf_batch_heights:n_traj": lambda c, v: irf_batch_heights(c.dyn6v, (3,), 2, 1, v),
    "samplers.ExclusionState:lo": lambda c, v: ExclusionState("ssep", (2.0,), v, 6, c.step.s),
    "samplers.ExclusionState:hi": lambda c, v: ExclusionState("ssep", (2.0,), -6, v, c.step.s),
    "samplers.simulate_exclusion:seed": lambda c, v: simulate_exclusion(c.step, 1.0, v),
    "samplers.exclusion_farm:n_traj": lambda c, v: exclusion_farm("ssep", (2.0,), 1.0, v, 1, [0]),
    "samplers.exclusion_farm:seed": lambda c, v: exclusion_farm("ssep", (2.0,), 1.0, 10, v, [0]),
    "samplers.exclusion_farm:xs": lambda c, v: exclusion_farm("ssep", (2.0,), 1.0, 10, 1, [v]),
    "observables.ObservableSpec:xs": lambda c, v: ObservableSpec((v,), 3),
    "observables.ObservableSpec:N_or_t": lambda c, v: exact_E("irf", ObservableSpec((3,), v), c.dyn6v),
    "observables.obs_O_six_vertex:hvalue": lambda c, v: obs_O_six_vertex(v, 2, 3, c.dyn6v),
    "observables.obs_O_six_vertex:x": lambda c, v: obs_O_six_vertex(1, v, 3, c.dyn6v),
    "observables.obs_O_six_vertex:N": lambda c, v: obs_O_six_vertex(1, 2, v, c.dyn6v),
    "observables.rising:n": lambda c, v: rising(2.0, v),
    "observables.exact_E:nodes": lambda c, v: exact_E("ssep", _ssep(1.0), (2.0,), nodes=v),
    "observables.mc_E:samples": lambda c, v: mc_E("ssep", _ssep(1.0), (2.0,), v, 1),
    "observables.mc_E:seed": lambda c, v: mc_E("ssep", _ssep(1.0), (2.0,), 1000, v),
    "observables.lambda_independence_report:samples": lambda c, v: mc_lambda_independence("ssep", _ssep(1.0), [1.0, 2.0], (1.0,), v),
    "observables.lambda_independence_report:seed": lambda c, v: mc_lambda_independence("ssep", _ssep(1.0), [1.0, 2.0], (1.0,), 1000, v),
    "observables.ssep_mean_height:x": lambda c, v: ssep_mean_height(v, 1.0),
    "observables.ssep_falling_moment:x": lambda c, v: ssep_falling_moment(v, 1.0, 2),
    "observables.ssep_falling_moment:n": lambda c, v: ssep_falling_moment(0, 1.0, v),
    "observables.ssep_f2_duality:x": lambda c, v: ssep_f2_duality(v, 1.0),
    "asymptotics.RegimeIVLaw.moment:m": lambda c, v: law_moment(RegimeIVLaw(0.0, 1.0, 1.0), v),
    "asymptotics.gamma_moment:m": lambda c, v: gamma_moment(2.0, 1.0, v),
    "asymptotics.regime_moment_check:n": lambda c, v: regime_moment_check(v, 100.0, 1.0, 1.0),
    "asymptotics.regime_iv_ks_check:n_traj": lambda c, v: regime_iv_ks_check(n_traj=v),
    "asymptotics.regime_iv_ks_check:seed": lambda c, v: regime_iv_ks_check(seed=v),
    "identities.check_symmetrization_lemma:m": lambda c, v: check_symmetrization_lemma(v, [0.1], 0.2, c.trig.mode),
    "identities.check_cauchy_rho:N": lambda c, v: check_cauchy_rho(v, [0.1], c.trig),
    "identities.check_D_integral:n": lambda c, v: check_D_integral((1,), v, [0.1], c.trig),
    "identities.check_nested_sum_lemma:n": lambda c, v: check_nested_sum_lemma(v, (2,), np.ones((1, 8))),
    "identities.check_nested_sum_lemma:Ts": lambda c, v: check_nested_sum_lemma(1, (v,), np.ones((1, 8))),
}

# "module.function:parameter" -> call(ctx, value), for parameters where a real is meant
REALS = {
    "special.FunctionMode:tau": lambda c, v: FunctionMode("elliptic", complex(0.0, v)),
    "special.FunctionMode.elliptic:tau": lambda c, v: FunctionMode.elliptic(complex(v, 1.0)),
    "special.theta:tau": lambda c, v: theta(0.1, complex(0.0, v)),
    "special.Circle:radius": lambda c, v: Circle(0.0, v),
    "special.log_ive:z": lambda c, v: log_ive(v, 3),
    "special.gammainc:a": lambda c, v: gammainc(v, [1.0]),
    "special.contour_integral_factored:tol": lambda c, v: contour_integral_factored(c.terms, [Circle(0.0, 1.0)], tol=v),
    "samplers.ExclusionState:t": lambda c, v: ExclusionState("ssep", (2.0,), -6, 6, c.step.s, t=v),
    "samplers.ExclusionState:rate_params": lambda c, v: ExclusionState("asep", (0.5, v), -6, 6, c.step.s),
    "samplers.step_exclusion_state:rate_params": lambda c, v: step_exclusion_state("ssep", (v,)),
    "samplers.simulate_exclusion:T": lambda c, v: simulate_exclusion(c.step, v, 1),
    "samplers.exclusion_farm:rate_params": lambda c, v: exclusion_farm("asep", (v, 1.0), 1.0, 10, 1, [0]),
    "samplers.exclusion_farm:T": lambda c, v: exclusion_farm("ssep", (2.0,), v, 10, 1, [0]),
    "observables.exact_E:params_or_rates": lambda c, v: exact_E("ssep", _ssep(1.0), (v,)),
    "observables.exact_E:spec": lambda c, v: exact_E("ssep", _ssep(v), (2.0,)),
    "observables.mc_E:params_or_rates": lambda c, v: mc_E("asep", _ssep(1.0), (v, 1.0), 1000, 1),
    "observables.mc_E:spec": lambda c, v: mc_E("ssep", _ssep(v), (2.0,), 1000, 1),
    "observables.ssep_mean_height:t": lambda c, v: ssep_mean_height(0, v),
    "observables.ssep_falling_moment:t": lambda c, v: ssep_falling_moment(0, v, 2),
    "observables.ssep_f2_duality:t": lambda c, v: ssep_f2_duality(0, v),
    "observables.ssep_f2_duality:dt": lambda c, v: ssep_f2_duality(0, 1.0, dt=v),
    "asymptotics.RegimeSpec:chi": lambda c, v: RegimeSpec("I", v, 1.0),
    "asymptotics.RegimeSpec:tau": lambda c, v: RegimeSpec("III", 0.0, v),
    "asymptotics.RegimeSpec:l": lambda c, v: RegimeSpec("II", 0.0, 1.0, l=v),
    "asymptotics.RegimeSpec:lambda_bar": lambda c, v: RegimeSpec("IV", 0.0, 1.0, lambda_bar=v),
    "asymptotics.RegimeIVLaw:chi": lambda c, v: RegimeIVLaw(v, 1.0, 1.0),
    "asymptotics.RegimeIVLaw:tau": lambda c, v: RegimeIVLaw(0.0, v, 1.0),
    "asymptotics.RegimeIVLaw:lambda_bar": lambda c, v: RegimeIVLaw(0.0, 1.0, v),
    "asymptotics.H_profile:chi": lambda c, v: H_profile(v, 1.0),
    "asymptotics.H_profile:tau": lambda c, v: H_profile(0.0, v),
    "asymptotics.gamma_moment:a": lambda c, v: gamma_moment(v, 1.0, 1),
    "asymptotics.gamma_moment:b": lambda c, v: gamma_moment(1.0, v, 1),
    "asymptotics.regime_moment_check:L": lambda c, v: regime_moment_check(1, v, 1.0, 1.0),
    "asymptotics.regime_moment_check:tau": lambda c, v: regime_moment_check(1, 100.0, v, 1.0),
    "asymptotics.regime_moment_check:lambda_bar": lambda c, v: regime_moment_check(1, 100.0, 1.0, v),
    "asymptotics.heat_equation_residual:chi": lambda c, v: heat_equation_residual(v, 1.0),
    "asymptotics.heat_equation_residual:tau": lambda c, v: heat_equation_residual(0.0, v),
    "asymptotics.hydro_check:L": lambda c, v: hydro_check(L=v),
    "asymptotics.hydro_check:tau": lambda c, v: hydro_check(tau=v),
    "asymptotics.height_from_O:o": lambda c, v: height_from_O(v, 0.0, 1.0),
    "asymptotics.height_from_O:x": lambda c, v: height_from_O(1.0, v, 1.0),
    "asymptotics.height_from_O:lambda_bar": lambda c, v: height_from_O(1.0, 0.0, v),
    "asymptotics.regime_iv_ks_check:L": lambda c, v: regime_iv_ks_check(L=v),
    "asymptotics.regime_iv_ks_check:tau": lambda c, v: regime_iv_ks_check(tau=v),
    "asymptotics.regime_iv_ks_check:lambda_bar": lambda c, v: regime_iv_ks_check(lambda_bar=v),
    "special.CheckReport:tolerance": lambda c, v: CheckReport("r", {}, 0.0, 0.0, v),
}

# a bool is not a number here (seed=True ran as seed 1); the tau rows wrap
# the value in a complex, and complex(0.0, True) is the valid tau = i
COMPLEX_TAU = {"special.FunctionMode:tau", "special.FunctionMode.elliptic:tau", "special.theta:tau"}
ROWS = [(t, v) for t in INTS for v in (NAN, INF, -INF, 2.5, True)]
ROWS += [(t, v) for t in REALS for v in (NAN, INF, -INF) + (() if t in COMPLEX_TAU else (True,))]


@pytest.mark.parametrize("target, value", ROWS, ids=[f"{t}={v}" for t, v in ROWS])
def test_bad_number_is_refused(ctx, target, value):
    with pytest.raises(InvalidParameterError):
        {**INTS, **REALS}[target](ctx, value)


# the parameters every public function must read, by name
GUARDED = {"seed", "samples", "n_traj", "N", "X", "M", "m", "n", "t", "T", "tau", "L", "chi", "l", "lambda_bar", "nodes", "dt", "tol"}
# array-safe primitives with documented NaN behaviour: hashes keyed by any
# seed array, and the height observable on any height array
EXEMPT = {"samplers.uniform_hash:seed", "samplers.trajectory_seed:seed", "observables.obs_O:N"}


def _public_callables(module):
    """(qualified name, callable) for each public function, class and class
    method defined in ``dynirf.<module>``."""
    mod = importlib.import_module(f"dynirf.{module}")
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue  # the error types take a message only
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield f"{module}.{name}", obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{module}.{name}.{attr}", member


def test_every_guarded_parameter_has_a_row():
    fed = {t for t, _, _ in HOLES} | set(INTS) | set(REALS)
    missing = []
    for module in MODULES:
        for qualname, obj in _public_callables(module):
            params = inspect.signature(obj).parameters
            missing += [f"{qualname}:{p}" for p in params if p in GUARDED and f"{qualname}:{p}" not in fed | EXEMPT]
    assert not missing, f"no bad-input row feeds {missing}"
