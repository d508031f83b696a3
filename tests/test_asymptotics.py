import math

import numpy as np
import pytest

from dynirf.asymptotics import (
    H_profile,
    RegimeIVLaw,
    RegimeSpec,
    gamma_moment,
    heat_equation_residual,
    height_from_O,
    hydro_check,
    limit_profile,
    regime_iv_ks_check,
    regime_moment_check,
)
from dynirf.special import InvalidParameterError


class TestHProfile:
    def test_origin_value(self):
        for tau in (0.5, 1.0, 2.3):
            assert abs(H_profile(0.0, tau) - math.sqrt(tau / math.pi)) < 1e-14

    def test_heat_equation(self):
        worst = max(
            heat_equation_residual(chi, tau)
            for chi in (-1.5, -0.3, 0.0, 0.8, 2.0)
            for tau in (0.5, 1.0, 2.0)
        )
        assert worst < 1e-5

    def test_left_asymptote(self):
        assert abs(H_profile(-8.0, 1.0) - 8.0) < 1e-6

    def test_rejects_bad_tau(self):
        with pytest.raises(InvalidParameterError):
            H_profile(0.0, -1.0)


class TestLimitProfiles:
    def test_regime_II_limits_to_I(self):
        for chi in (-0.7, 0.0, 1.2):
            a = limit_profile(RegimeSpec("I", chi, 1.3))
            b = limit_profile(RegimeSpec("II", chi, 1.3, l=1e3))
            assert abs(a - b) < 1e-3

    def test_regime_III_origin(self):
        assert abs(limit_profile(RegimeSpec("III", 0.0, 2.0)) - (2.0 / math.pi) ** 0.25) < 1e-14

    def test_regime_IV_descriptor(self):
        law = limit_profile(RegimeSpec("IV", 0.4, 1.0, lambda_bar=1.5))
        assert isinstance(law, RegimeIVLaw)
        assert law.gamma_shape == 1.5
        assert abs(law.gamma_scale - math.sqrt(1.0 / math.pi)) < 1e-14
        # s-form: 4Y has scale 4 sqrt(tau/pi)
        assert abs(4 * law.gamma_scale - 4 * math.sqrt(1.0 / math.pi)) < 1e-14
        # transform and cdf consistency at a quantile
        z = 0.8
        assert abs(law.cdf(z) - law.cdf(np.array([z]))[0]) < 1e-14

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            RegimeSpec("V", 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            RegimeSpec("II", 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            RegimeSpec("IV", 0.0, 1.0)

    @pytest.mark.parametrize("tau, lambda_bar", [(1.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 1.0)])
    def test_regime_iv_law_validation(self, tau, lambda_bar):
        # RegimeIVLaw(0.0, 1.0, -1.0) used to construct; tau <= 0 failed later in math.sqrt
        with pytest.raises(InvalidParameterError):
            RegimeIVLaw(0.0, tau, lambda_bar)


class TestGammaMoments:
    def test_values(self):
        assert gamma_moment(1.7, 2.2, 0) == 1.0
        assert abs(gamma_moment(1.7, 2.2, 1) - 1.7 * 2.2) < 1e-14
        assert abs(gamma_moment(2, 3, 2) - 54.0) < 1e-12

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            gamma_moment(-1, 1, 1)


class TestHeightInversion:
    def test_roundtrip(self):
        for h in (0.0, 1.0, 3.5, 10.0):
            x, lb = 2.0, 1.5
            o = h * (h + x + lb)
            assert abs(height_from_O(o, x, lb) - h) < 1e-12


class TestMomentChecks:
    def test_regime_iv_n1(self):
        rep = regime_moment_check(1, 1e4, 1.0, 1.0)
        assert rep.passed and rep.residual < 0.05

    def test_regime_iv_n2(self):
        rep = regime_moment_check(2, 1e4, 1.0, 1.0)
        assert rep.passed and rep.residual < 0.08

    def test_regime_iv_n2_at_1e5(self):
        # the relative gap falls like L**-1/2: 0.0052 at L = 1e4, 0.0016 here
        rep = regime_moment_check(2, 1e5, 1.0, 1.0)
        assert rep.passed and rep.residual < 0.002

    @pytest.mark.parametrize("tau, lambda_bar", [(1.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 1.0)])
    def test_regime_iv_refuses_bad_inputs(self, monkeypatch, tau, lambda_bar):
        # lambda_bar = -1 used to give a passing report with lhs = rhs = -56.42
        import dynirf.asymptotics as asy

        def no_work(*args, **kwargs):
            raise AssertionError("computed moments for a refused input")

        monkeypatch.setattr(asy, "ssep_falling_moment", no_work)
        with pytest.raises(InvalidParameterError):
            regime_moment_check(1, 1e4, tau, lambda_bar)

    def test_hydro(self):
        rep = hydro_check(L=400.0)
        assert rep.passed and rep.residual < 0.02

    def test_ks_soft_reports(self):
        rep = regime_iv_ks_check(L=50.0, n_traj=120, seed=2)
        assert rep.parameters.get("soft") is True
        assert 0.0 <= rep.lhs.real <= 1.0

    @pytest.mark.parametrize("n_traj", [0, -3])
    def test_ks_refuses_no_trajectories(self, n_traj):
        # n_traj = 0 ended in numpy's zero-size reduction error, a negative one in a broadcast error
        with pytest.raises(InvalidParameterError, match="n_traj >= 1"):
            regime_iv_ks_check(L=50.0, n_traj=n_traj)
