import math
import re
import sys
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import basinwave
from basinwave.core import (
    BasinParams,
    RunConfig,
    derive_params,
    permeability_factor,
    reaction_rate,
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
            # the matching takes log(beta) and the stepper divides by it
            {"beta": 0.0},
            {"beta": -1.0},
            # bool is a Real, but no parameter is a flag
            {"lam": True},
            {"psi0": False},
            {"a0": True},
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            derive_params(**kwargs)

    def test_direct_construction_validates(self):
        with pytest.raises(ValidationError, match="phi0"):
            BasinParams(phi0=1.2)
        with pytest.raises(ValidationError, match="phi0"):
            replace(BasinParams(), phi0=1.2)

    def test_stored_types_are_exact(self):
        # manifests and CSVs print the stored values: 1 as 1.0, 7.0 as 7
        p = BasinParams(lam=1, m=7.0)
        assert type(p.lam) is float and p.lam == 1.0
        assert type(p.m) is int and p.m == 7

    @pytest.mark.parametrize(
        "value",
        [True, math.nan, math.inf, -math.inf, "1", None, 10**400, -(10**400)],
        ids=["true", "nan", "inf", "minus-inf", "str", "none", "huge-int", "minus-huge-int"],
    )
    @pytest.mark.parametrize("name", ["lam", "m"])
    def test_exact_float_and_int_fast_path_refuses_what_the_check_refuses(self, name, value):
        # float NaN and infinities and ints beyond the float range have the
        # fast path's type and bool has not; each is refused with the
        # message every refused value gets, an int by its size
        shown = "an integer of 1329 bits, beyond the float range" if type(value) is int else repr(value)
        message = f"parameter {name} must be a finite number, got {shown}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            BasinParams(**{name: value})

    # an int beyond the float range would overflow on conversion; one of
    # 10**5000 is past the int-to-str digit limit, so its message shows
    # its size, not its digits
    @pytest.mark.parametrize(
        "value, bits",
        [(10**400, 1329), (-(10**400), 1329), (10**5000, 16610)],
        ids=["1e400", "minus-1e400", "1e5000"],
    )
    @pytest.mark.parametrize("name", [f.name for f in fields(BasinParams) if f.init])
    def test_every_parameter_refuses_an_int_beyond_the_float_range(self, name, value, bits):
        shown = f"an integer of {bits} bits, beyond the float range"
        message = f"parameter {name} must be a finite number, got {shown}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            derive_params(**{name: value})

    # a Fraction is a Real the check accepts; its repr at 5000 digits is
    # refused, so the message names its type
    @pytest.mark.parametrize(
        "value", [Fraction(10**5000), -Fraction(10**400, 3)], ids=["1e5000", "minus-1e400/3"]
    )
    def test_a_fraction_beyond_the_float_range_is_refused(self, value):
        shown = "got a Fraction beyond the float range"
        with pytest.raises(ValidationError, match=f"^parameter a0 must be a finite number, {shown}$"):
            derive_params(a0=value)
        with pytest.raises(ValidationError, match=f"^config field dt must be positive and finite, {shown}$"):
            RunConfig(dt=value)

    def test_the_largest_float_as_an_int_is_in_range(self):
        largest = int(sys.float_info.max)
        assert derive_params(zstar=largest).zstar == sys.float_info.max
        with pytest.raises(ValidationError, match="got an integer of 1024 bits, beyond the float range"):
            derive_params(zstar=largest + 1)

    def test_numpy_scalars_are_accepted_and_stored_exact(self):
        p = BasinParams(lam=np.float64(1.5), beta=np.int64(30), m=np.int64(9), sdot=np.float64(2.0))
        assert (type(p.lam), type(p.beta), type(p.m), type(p.sdot)) == (float, float, int, float)
        assert p == BasinParams(lam=1.5, beta=30.0, m=9, sdot=2.0)

    def test_low_beta_warns(self):
        with pytest.warns(UserWarning, match="beta"):
            derive_params(beta=5.0)

    def test_replace_is_bit_identical(self):
        p = derive_params(lam=1.3, beta=25.0, m=9, phi0=0.42, psi0=0.17)
        q = replace(p)
        assert q.phistar == p.phistar
        assert q.A == p.A
        assert q == p
        # changes re-derive phistar and A exactly as a direct call does
        q = replace(p, m=11, sdot=2.0)
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


def clipped_reaction_rate(z, h, params):
    """The kernel as it was written with np.clip, kept as the reference."""
    arg = params.beta * (np.asarray(h, dtype=float) - np.asarray(z, dtype=float) - params.zstar)
    return np.exp(np.clip(arg, -50.0, 50.0))


class TestReactionRateClamp:
    def test_array_matches_clip_bit_for_bit(self, params_default):
        p = params_default
        h = 4.0
        z = np.append(np.linspace(-1.0, h + 4.0, 5001), h - p.zstar)
        arg = p.beta * (h - z - p.zstar)
        # both clamps and the exact front are exercised
        assert arg.min() < -50.0 and arg.max() > 50.0 and np.any(arg == 0.0)
        got = reaction_rate(z, h, p)
        assert got.tobytes() == clipped_reaction_rate(z, h, p).tobytes()

    @pytest.mark.parametrize("z", [-10.0, 0.0, 3.0, 3.5, 8.0])
    def test_scalar_matches_clip_bit_for_bit(self, params_default, z):
        got = reaction_rate(z, 4.0, params_default)
        want = clipped_reaction_rate(z, 4.0, params_default)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_nan_propagates(self, params_default):
        assert math.isnan(reaction_rate(np.nan, 4.0, params_default))
        rate = reaction_rate(np.array([0.0, np.nan, 3.5]), 4.0, params_default)
        assert np.isnan(rate).tolist() == [False, True, False]


class TestPermeabilityFactor:
    def test_unity_at_phi0(self, params_default):
        assert permeability_factor(params_default.phi0, params_default) == 1.0

    def test_matches_integer_power(self, params_default):
        phi = np.array([0.3, 0.45, 0.5])
        expected = (phi / params_default.phi0) ** params_default.m
        assert permeability_factor(phi, params_default) == pytest.approx(expected, rel=1e-12)


class TestKernelsInPlace:
    """With ``out`` the kernels write that row and return it, bit for bit
    the allocating call's values."""

    def test_permeability_factor(self, params_default):
        phi = np.array([0.05, 0.3, 0.45, 0.5, 0.7, np.nan, np.inf])
        row = np.empty(phi.size)
        assert permeability_factor(phi, params_default, out=row) is row
        assert row.tobytes() == permeability_factor(phi, params_default).tobytes()

    def test_reaction_rate(self, params_default):
        p, h = params_default, 4.0
        # both clamps, the exact front and a NaN
        z = np.append(np.linspace(-1.0, h + 4.0, 501), [h - p.zstar, np.nan])
        want = reaction_rate(z, h, p).tobytes()
        row = np.empty(z.size)
        assert reaction_rate(z, h, p, out=row) is row
        assert row.tobytes() == want
        # in place over z, as the sweep calls it
        row = z.copy()
        assert reaction_rate(row, h, p, out=row) is row
        assert row.tobytes() == want


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

    # the driver's floor dt/1024 must be positive and split a sample
    # interval into a finite number of steps: the first floor leaves
    # 0.05/1e-323 = inf steps, the second 1e300/9.8e-14
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 1e-320, "n_nodes": 32, "t_end": 0.1, "output_every": 0.05},
            {"dt": 1e-10, "n_nodes": 32, "t_end": 1e300, "output_every": 1e300},
            {"dt": 2e-321},
        ],
        ids=["subnormal-dt", "huge-horizon", "floor-underflows"],
    )
    def test_step_floor_without_a_finite_step_count_rejected(self, kwargs):
        with pytest.raises(ValidationError, match=r"is too small: dt/1024 is 0 or .* inf"):
            RunConfig(**kwargs)

    # an int beyond the float range would overflow where the config or the
    # driver converts it
    @pytest.mark.parametrize("name", ["n_nodes", "dt", "t_end", "output_every", "h0"])
    def test_int_beyond_the_float_range_rejected(self, name):
        shown = "an integer of 1329 bits, beyond the float range"
        message = f"config field {name} must be positive and finite, got {shown}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RunConfig(**{name: 10**400})

    def test_tiny_start_step_with_a_finite_count_accepted(self):
        assert RunConfig(dt=1e-300, t_end=1.0).dt == 1e-300

    def test_subnormal_grid_spacing_rejected(self):
        # dh/dt divides by the grid spacing h0/(n_nodes - 1)
        RunConfig(n_nodes=32, h0=31 * 2.0**-1022)
        with pytest.raises(ValidationError, match="subnormal grid spacing on 32 nodes"):
            RunConfig(n_nodes=32, h0=30 * 2.0**-1022)


class TestResolutionRule:
    def test_default_rule(self, params_default):
        # ceil(8 * 21 * (0.1 + 1 * 8)) = ceil(1360.8)
        assert resolution_nodes(params_default, RunConfig()) == 1361

    def test_overflowing_product_rejected(self):
        huge = derive_params(sdot=1e308)
        with pytest.raises(ValidationError, match="not finite"):
            resolution_nodes(huge, RunConfig())


class TestPackageExports:
    def test_every_exported_name_resolves_and_star_imports(self):
        for name in basinwave.__all__:
            assert hasattr(basinwave, name), name
        namespace = {}
        exec("from basinwave import *", namespace)
        assert set(basinwave.__all__) <= namespace.keys()
