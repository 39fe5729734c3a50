import math

import numpy as np
import pytest

from basinwave.core import (
    RunConfig,
    derive_params,
    permeability_factor,
    reaction_rate,
    rederive,
    resolution_nodes,
)
from basinwave.errors import ValidationError


class TestDeriveParams:
    def test_phistar_direct_evaluation(self):
        p = derive_params(m=7, phi0=0.5)
        assert p.phistar == pytest.approx(0.5 * 7 ** (-1.0 / 7.0), rel=1e-14)
        assert p.phistar == pytest.approx(0.37865327106227658, rel=1e-14)

    def test_A_is_direct_ratio(self):
        p = derive_params(beta=21.0, m=7)
        assert p.A == 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"phi0": 1.2},
            {"phi0": 0.0},
            {"m": 5},
            {"m": 6},
            {"phi0": 0.7, "psi0": 0.4},
            {"psi0": -0.1},
            {"a0": -1.0},
            {"zstar": -0.5},
            {"sdot": -2.0},
            {"lam": 0.0},
            {"m": 7.5},
            # non-finite and non-numeric values, which NaN comparisons and
            # int(m) used to let through or turn into untyped errors
            {"lam": math.nan},
            {"beta": math.nan},
            {"psi0": math.nan},
            {"a0": math.inf},
            {"zstar": math.nan},
            {"sdot": math.inf},
            {"m": math.nan},
            {"m": math.inf},
            {"m": "abc"},
            {"beta": "21"},
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            derive_params(**kwargs)

    def test_low_beta_warns(self):
        with pytest.warns(UserWarning, match="beta"):
            derive_params(beta=5.0)

    def test_rederive_is_bit_identical(self):
        p = derive_params(lam=1.3, beta=25.0, m=9, phi0=0.42, psi0=0.17)
        q = rederive(p)
        assert q.phistar == p.phistar
        assert q.A == p.A
        assert q == p
        # overrides re-derive phistar and A exactly as a direct call does
        q = rederive(p, m=11, sdot=2.0)
        direct = derive_params(lam=1.3, beta=25.0, m=11, phi0=0.42, psi0=0.17, sdot=2.0)
        assert q.phistar == direct.phistar != p.phistar
        assert q.A == direct.A != p.A
        assert q == direct

    def test_phistar_below_phi0_and_A_positive(self):
        for m in (7, 11, 40):
            p = derive_params(m=m, beta=4.0 * m)
            assert p.phistar < p.phi0
            assert p.A > 0.0


class TestReactionRate:
    def test_unity_on_the_front(self, params_default):
        for h in (0.5, 1.0, 3.7, 12.0):
            assert reaction_rate(h - params_default.zstar, h, params_default) == 1.0

    def test_direct_evaluation(self):
        p = derive_params(beta=20.0)
        h = 1.0
        z = h - p.zstar + 1.0  # exponent argument beta * (-1)
        assert reaction_rate(z, h, p) == pytest.approx(2.0611536224385578e-9, rel=1e-12)

    def test_clamp_contract(self):
        p = derive_params(beta=1000.0, zstar=0.0)
        # exponent argument beta*(h - z) = 1000
        assert reaction_rate(0.0, 1.0, p) == math.exp(50.0)
        assert reaction_rate(2.0, 1.0, p) == math.exp(-50.0)

    def test_monotone_in_depth_and_boundary(self, params_default):
        z = np.linspace(0.0, 1.0, 50)
        rate = reaction_rate(z, 1.0, params_default)
        assert np.all(np.diff(rate) < 0.0)
        h = np.linspace(0.5, 2.0, 50)
        rate_h = reaction_rate(0.3, h, params_default)
        assert np.all(np.diff(rate_h) > 0.0)


class TestPermeabilityFactor:
    def test_unity_at_phi0(self, params_default):
        assert permeability_factor(params_default.phi0, params_default) == 1.0

    def test_matches_integer_power(self, params_default):
        phi = np.array([0.3, 0.45, 0.5])
        expected = (phi / params_default.phi0) ** params_default.m
        assert permeability_factor(phi, params_default) == pytest.approx(expected, rel=1e-12)


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_nodes": 8},
            {"dt": 0.0},
            {"t_end": -1.0},
            {"n_nodes": 100.5},
            {"output_every": 0.0},
            {"h0": -0.1},
            # constructed only: a run to t_end = inf would never end
            {"t_end": math.inf},
            {"dt": math.nan},
            {"n_nodes": math.inf},
            {"h0": "0.1"},
            {"n_nodes": 100.0},
            {"dt": True},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RunConfig(**kwargs)


class TestResolutionRule:
    def test_default_rule(self, params_default):
        # ceil(8 * 21 * (0.1 + 1 * 8)) = ceil(1360.8)
        assert resolution_nodes(params_default, RunConfig()) == 1361

    def test_overflowing_product_rejected(self):
        huge = derive_params(sdot=1e308)
        with pytest.raises(ValidationError, match="not finite"):
            resolution_nodes(huge, RunConfig())
