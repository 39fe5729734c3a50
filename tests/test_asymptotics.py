import math

import numpy as np
import pytest
from hypothesis import given
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.rk import RK45

from basinwave import asymptotics as asym
from basinwave.core import derive_params
from basinwave.errors import (
    BasinwaveError,
    NoRootError,
    SingularProfileError,
    SolverError,
    StiffProfileError,
    ValidationError,
)
from conftest import C_MATCHED_DEFAULT, C_MATCHED_PURE, box_params


class TestOuterOdeRhs:
    def test_at_top_porosity(self, params_default):
        p = params_default
        c = 0.25
        expected = p.phi0 + (c - p.sdot) * (1.0 - p.phi0) / p.lam
        assert asym.outer_ode_rhs(p.phi0, c, p) == pytest.approx(expected, rel=1e-14)

    def test_uncompacted_slope_when_c_equals_sdot(self, params_default):
        p = params_default
        assert asym.outer_ode_rhs(p.phi0, p.sdot, p) == pytest.approx(p.phi0, rel=1e-14)

    def test_direct_arithmetic(self):
        p = derive_params(lam=1.0, sdot=1.0, phi0=0.5, m=7)
        got = asym.outer_ode_rhs(0.45, 0.25, p)
        assert got == pytest.approx(-0.30789744821678752, rel=1e-12)

    def test_nonpositive_phi_rejected(self, params_default):
        with pytest.raises(StiffProfileError):
            asym.outer_ode_rhs(0.0, 0.25, params_default)

    def test_overflow_reported_with_phi(self, params_default):
        with pytest.raises(StiffProfileError, match="phi"):
            asym.outer_ode_rhs(1e-80, 0.25, params_default)

    @given(box_params())
    def test_solve_outer_slope_is_the_rhs_across_box(self, params):
        c = asym.solve_c(params).c
        try:
            outer = asym.solve_outer(c, params)
        except BasinwaveError:
            return
        expected = np.array([asym.outer_ode_rhs(phi, c, params) for phi in outer.phi])
        assert np.max(np.abs(outer.phi_zeta - expected)) <= 1e-14 * np.max(np.abs(outer.phi))


@pytest.fixture(scope="module")
def solved(params_default):
    match = asym.solve_c(params_default)
    return match, asym.solve_outer(match.c, params_default)


class TestSolveOuter:
    def test_slope_overflow_names_first_node(self, params_default, monkeypatch):
        def integrated(c, params, zeta_desc):
            phi = np.full(zeta_desc.size, params.phi0)
            phi[[-3, -7]] = (1e-80, 1e-90)  # ascending order puts 1e-80 first
            return phi

        monkeypatch.setattr(asym, "_integrate_outer", integrated)
        with pytest.raises(StiffProfileError, match=r"overflows at phi = np\.float64\(1e-80\)"):
            asym.solve_outer(0.25, params_default)

    def test_reactant_equals_surface_value_at_top(self, solved):
        _, out = solved
        assert out.psi[-1] == pytest.approx(0.3, rel=1e-12)

    def test_flux_first_integral_constant(self, solved, params_default):
        match, out = solved
        p = params_default
        invariant = match.c * out.phi + asym.outer_flux_invariant(out.phi, out.phi_zeta, p)
        expected = match.c * p.phi0 + (match.c - p.sdot) * (1.0 - p.phi0)
        assert np.max(np.abs(invariant - expected)) <= 1e-8

    def test_monotone_and_matches_fixed_step_oracle(self, solved, params_default):
        match, out = solved
        p = params_default
        assert np.all(np.diff(out.phi) > 0.0)  # phi decreases toward the zone

        # brute-force fixed-step RK4 at 10x the output resolution
        phi = p.phi0
        z_hi, z_lo = out.zeta[-1], out.zeta[0]
        steps = 10 * out.zeta.size
        dz = (z_lo - z_hi) / steps
        for _ in range(steps):
            k1 = asym.outer_ode_rhs(phi, match.c, p)
            k2 = asym.outer_ode_rhs(phi + 0.5 * dz * k1, match.c, p)
            k3 = asym.outer_ode_rhs(phi + 0.5 * dz * k2, match.c, p)
            k4 = asym.outer_ode_rhs(phi + dz * k3, match.c, p)
            phi += dz / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert out.phi[0] == pytest.approx(phi, rel=1e-8)

    @pytest.mark.parametrize("c", [0.0, -0.25], ids=["zero", "negative"])
    def test_nonpositive_speed_rejected(self, params_default, c):
        with pytest.raises(ValidationError, match="outer profile needs c > 0"):
            asym.solve_outer(c, params_default)

    def test_zero_zstar_rejected(self):
        with pytest.raises(ValidationError, match="outer region is empty"):
            asym.solve_outer(0.25, derive_params(zstar=0.0))

    def test_singular_reactant_relation(self):
        p = derive_params(sdot=1e-15)
        with pytest.raises(SingularProfileError):
            asym.solve_outer(5e-16, p)


class TestBelowZone:
    def test_origin_value(self, params_default):
        assert asym.below_zone_Phi(0.0, 0.0, params_default) == 0.0

    def test_basement_slope_is_m(self, params_default):
        p = params_default
        eps = 1e-7
        for t in (0.0, 1.3, 8.0):
            fd = (asym.below_zone_Phi(eps, t, p) - asym.below_zone_Phi(0.0, t, p)) / eps
            assert fd == pytest.approx(p.m, rel=1e-5)

    def test_direct_evaluation(self):
        p = derive_params(m=7, lam=1.0)
        got = asym.below_zone_Phi(2.0, 1.0, p)
        assert got == pytest.approx(0.62860865942237414, rel=1e-12)  # ln(15/8)


class TestPhiMaps:
    def test_phistar_at_zero(self, params_default):
        assert asym.phi_from_Phi(0.0, params_default) == params_default.phistar

    def test_ln_m_recovers_phi0(self, params_default):
        p = params_default
        assert asym.phi_from_Phi(math.log(p.m), p) == pytest.approx(p.phi0, rel=1e-14)

    def test_direct_evaluation(self):
        p = derive_params(m=7, phi0=0.5)
        assert asym.phi_from_Phi(-1.0, p) == pytest.approx(0.32824615235200255, rel=1e-12)

    def test_phi_infinity(self, params_default):
        p = params_default
        assert asym.phi_infinity(p.lam, p) == 0.0
        assert asym.phi_infinity(2.0 * p.lam, p) == pytest.approx(math.log(2.0), rel=1e-14)
        with pytest.raises(ValidationError):
            asym.phi_infinity(0.0, p)

    def test_phi_infinity_at_solved_speed(self, params_default):
        c = asym.solve_c(params_default).c
        assert asym.phi_infinity(c, params_default) == pytest.approx(-1.3884982726664410, rel=1e-9)


class TestInnerReactant:
    def test_C_is_psi0_to_ten_digits(self):
        p = derive_params(beta=21.0, zstar=1.0, psi0=0.3)
        C = asym.inner_C(0.25, p)
        assert abs(C - 0.3) / 0.3 <= 1e-9
        assert C != 0.3  # the correction is tiny but real

    def test_C_zero_without_reactant(self, params_pure):
        assert asym.inner_C(0.25, params_pure) == 0.0

    def test_C_limit_deep_reaction_zone(self):
        p = derive_params(zstar=1e6)
        assert asym.inner_C(0.25, p) == p.psi0

    def test_profile_limits(self):
        assert asym.inner_psi(800.0, 0.25, 0.3) == 0.3
        assert asym.inner_psi(-800.0, 0.25, 0.3) == 0.0
        assert asym.inner_psi(0.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_ode_satisfied_analytically(self):
        c, C = 0.7, 0.3
        eta = np.linspace(-2.0, 8.0, 41)
        psi = asym.inner_psi(eta, c, C)
        step = 1e-6
        psi_eta = (asym.inner_psi(eta + step, c, C) - asym.inner_psi(eta - step, c, C)) / (
            2.0 * step
        )
        assert np.max(np.abs(c * psi_eta - np.exp(-eta) * psi)) <= 1e-6

    @pytest.mark.parametrize("c", [0.0, -0.25], ids=["zero", "negative"])
    def test_nonpositive_speed_rejected(self, params_default, c):
        with pytest.raises(ValidationError, match="wave speed must be positive"):
            asym.inner_C(c, params_default)
        with pytest.raises(ValidationError, match="wave speed must be positive"):
            asym.inner_psi(0.0, c, 0.3)

    def test_double_exponential_collapse(self):
        for c in (0.25, 0.5, 1.0):
            C = 0.3
            assert asym.inner_psi(-4.0, c, C) <= 1e-10 * C


class TestInnerPorosity:
    def test_no_reactant_holds_far_field_value(self, params_default):
        p = params_default
        c = 0.25
        phi_inf = asym.phi_infinity(c, p)
        eta = np.linspace(*asym.default_inner_span(c, p), 1201)
        Phi = asym.inner_Phi_ode(c, p, 0.0, eta)
        assert np.max(np.abs(Phi - phi_inf)) <= 1e-9

    def test_lower_end_pinned_at_far_field(self, params_default):
        p = params_default
        c = asym.solve_c(p).c
        eta = np.linspace(*asym.default_inner_span(c, p), 1201)
        Phi = asym.inner_Phi_ode(c, p, asym.inner_C(c, p), eta)
        phi_inf = asym.phi_infinity(c, p)
        assert Phi[0] == phi_inf
        assert abs(Phi[np.searchsorted(eta, eta[0] + 2.0)] - phi_inf) <= 1e-10

    def test_jump_matches_at_eta_12(self, params_default):
        p = params_default
        c = asym.solve_c(p).c
        C = asym.inner_C(c, p)
        # jump_residual's node rule on a span ending at eta = 12
        low, high = -math.log(c) - 12.0, 12.0
        eta = np.linspace(low, high, max(1201, int(math.ceil((high - low) * 400.0))))
        Phi = asym.inner_Phi_ode(c, p, C, eta)
        Phi_eta = np.gradient(Phi, eta)
        bracket = c * p.phistar * Phi + p.lam * p.phistar * np.exp(Phi) * (p.A * Phi_eta - 1.0)
        resid = (bracket[-1] - bracket[0]) - (-c * p.a0 * C / p.A)
        assert abs(resid) <= 1e-6

    def test_jump_zero_without_yield_or_reactant(self, params_default, params_pure):
        p_noyield = derive_params(a0=0.0)
        assert asym.jump_residual(0.25, p_noyield) == 0.0
        assert asym.jump_residual(0.25, params_pure) == 0.0

    def test_jump_integrates_onto_four_linspace_nodes(self, params_default, monkeypatch):
        # the bracket reads only the end nodes and their neighbours
        p = params_default
        c = asym.solve_c(p).c
        seen = []
        real = asym.inner_Phi_ode

        def spy(c, params, C, eta):
            seen.append(eta.copy())
            return real(c, params, C, eta)

        monkeypatch.setattr(asym, "inner_Phi_ode", spy)
        asym.jump_residual(c, p)
        low, high = asym.default_inner_span(c, p)
        full = np.linspace(low, high, max(1201, math.ceil((high - low) * 400.0)))
        assert len(seen) == 1
        assert np.array_equal(seen[0], full[[0, 1, -2, -1]])

    def test_jump_small_at_solved_speed(self, params_default):
        c = asym.solve_c(params_default).c
        assert abs(asym.jump_residual(c, params_default)) <= 1e-6


class TestSolveC:
    def test_matches_independent_oracle(self, params_default):
        match = asym.solve_c(params_default)
        assert abs(match.c - C_MATCHED_DEFAULT) <= 1e-6
        assert abs(match.residual) <= 1e-10
        assert abs(match.c - match.c_fixed_point) <= 1e-8
        assert match.Phi_inf == asym.phi_infinity(match.c, params_default)
        assert match.c > 0.0

    def test_pure_compaction_oracle(self, params_pure):
        match = asym.solve_c(params_pure)
        assert abs(match.c - C_MATCHED_PURE) <= 1e-6

    def test_fixed_point_from_035_contracts_fast(self, params_default):
        p = params_default
        c = 0.35
        target = p.sdot * (1.0 - p.phi0)
        for _ in range(6):
            denom = (
                1.0
                + p.phistar
                - p.phistar * math.log(c / p.lam)
                + p.a0 * asym.inner_C(c, p) / p.A
            )
            c = target / denom
        assert abs(c - C_MATCHED_DEFAULT) <= 1e-5

    def test_speed_below_sedimentation_rate(self, params_default):
        assert asym.solve_c(params_default).c < params_default.sdot

    def test_speed_vanishes_with_sedimentation(self):
        speeds = [
            asym.solve_c(derive_params(sdot=s)).c for s in (0.1, 0.01, 0.001)
        ]
        assert all(np.diff(speeds) < 0.0)
        assert speeds[-1] < 1e-3

    def test_no_root_for_zero_supply(self):
        with pytest.raises(NoRootError):
            asym.solve_c(derive_params(sdot=0.0))

    def test_monotone_in_sdot(self):
        speeds = [asym.solve_c(derive_params(sdot=s)).c for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(np.diff(speeds) > 0.0)

    def test_consistent_variant_honors_conservation_floor(self, params_default, params_pure):
        for p in (params_default, params_pure):
            mc = asym.solve_c_consistent(p)
            assert mc.c >= p.sdot * (1.0 - p.phi0)
            assert abs(mc.residual) <= 1e-10
        assert (
            asym.solve_c_consistent(params_default).c
            < asym.solve_c_consistent(params_pure).c
        )


@pytest.fixture(scope="module")
def profile(params_default):
    match = asym.solve_c(params_default)
    return match, asym.build_wave_profile(match, params_default)


class TestWaveProfile:
    def test_zero_zstar_rejected(self, profile, params_default):
        match, _ = profile
        with pytest.raises(ValidationError, match="profile needs zstar > 0"):
            asym.build_wave_profile(match, derive_params(zstar=0.0))

    def test_top_boundary_data(self, profile, params_default):
        _, prof = profile
        assert prof.phi[-1] == params_default.phi0
        assert prof.psi[-1] == pytest.approx(params_default.psi0, rel=1e-12)

    def test_deep_limits(self, profile, params_default):
        match, prof = profile
        assert prof.phi[0] == asym.phi_from_Phi(match.Phi_inf, params_default)
        assert prof.psi[0] == 0.0

    def test_structure(self, profile, params_default):
        _, prof = profile
        assert np.all(np.diff(prof.zeta) > 0.0)
        assert set(prof.region) == {"outer-above", "inner", "below"}
        assert np.all(prof.phi > 0.0)
        assert np.all(prof.phi <= params_default.phi0 * (1.0 + 1e-12))
        assert np.all(prof.psi >= 0.0)
        # Eq-(10) reactant overshoots psi0 by O(1/m) in the outer region
        assert np.all(prof.psi <= params_default.psi0 * 1.05)

    def test_seam_agreement_in_flux_and_phi_scale(self, profile, params_default):
        match, prof = profile
        p = params_default
        # the construction matches flux invariants exactly at the solved c
        outer_const = match.c * p.phi0 + (match.c - p.sdot) * (1.0 - p.phi0)
        inner_const = asym._B_constant(match.c, p) - match.c * p.a0 * match.C / p.A
        assert abs(outer_const - inner_const) <= 1e-9
        # the phi-level seam defect sits at its O(ln m / m) scale
        inner_idx = np.flatnonzero(prof.region == "inner")
        outer_idx = np.flatnonzero(prof.region == "outer-above")
        phi_in = prof.phi[inner_idx[-1]]
        phi_out = prof.phi[outer_idx[0]]
        defect = abs(phi_out - phi_in) / phi_out
        assert defect <= 2.0 * math.log(p.m) / p.m


def _solve_ivp_rk45(rhs, y0, t_eval, rtol, atol, label):
    """scipy's RK45 behind the signature of ``asymptotics._rk45``: the oracle."""
    sol = solve_ivp(
        lambda t, y: [rhs(t, y[0])],
        (t_eval[0], t_eval[-1]),
        [y0],
        t_eval=t_eval,
        method="RK45",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise SolverError(f"{label} integration failed: {sol.message}")
    return sol.y[0]


def _agree(got, expected, rel):
    return np.max(np.abs(got - expected) / np.abs(expected)) <= rel


# default parameters and box points where both regional integrations succeed
_BOX_POINTS = [
    {},
    dict(m=7, beta=10.0, phi0=0.6, psi0=0.1, sdot=1.5),
    dict(m=20, beta=60.0, phi0=0.3, psi0=0.2, sdot=1.5),
    dict(m=9, beta=60.0, phi0=0.55, psi0=0.4, sdot=0.5),
    dict(m=12, beta=35.0, phi0=0.45, psi0=0.0, sdot=1.0),
]


def _profile_outcome(match, params):
    try:
        return asym.build_wave_profile(match, params)
    except BasinwaveError as exc:
        return type(exc)


class TestRk45:
    def test_tableau_is_dormand_prince(self):
        assert np.array_equal(np.array(asym._DP_C), RK45.C)
        assert np.array_equal(np.array(asym._DP_A), RK45.A)
        assert np.array_equal(np.array(asym._DP_B), RK45.B)
        assert np.array_equal(np.array(asym._DP_E), RK45.E)
        assert np.array_equal(asym._DP_P, RK45.P)

    @pytest.mark.parametrize("point", _BOX_POINTS, ids=["default", "box1", "box2", "box3", "box4"])
    def test_outer_matches_solve_ivp(self, point, monkeypatch):
        p = derive_params(**point)
        c = asym.solve_c_consistent(p).c
        zeta_desc = np.linspace(p.zstar, p.zstar * 1e-6, 400)
        got = asym._integrate_outer(c, p, zeta_desc)
        monkeypatch.setattr(asym, "_rk45", _solve_ivp_rk45)
        assert _agree(got, asym._integrate_outer(c, p, zeta_desc), 1e-12)

    @pytest.mark.parametrize("point", _BOX_POINTS, ids=["default", "box1", "box2", "box3", "box4"])
    def test_inner_matches_solve_ivp(self, point, monkeypatch):
        p = derive_params(**point)
        c = asym.solve_c(p).c
        C = asym.inner_C(c, p)
        eta = np.linspace(*asym.default_inner_span(c, p), 1201)
        got = asym.inner_Phi_ode(c, p, C, eta)
        monkeypatch.setattr(asym, "_rk45", _solve_ivp_rk45)
        assert _agree(got, asym.inner_Phi_ode(c, p, C, eta), 1e-12)

    def test_nan_rhs_fails_like_solve_ivp(self, params_default, monkeypatch):
        def rhs(t, y):
            return -y if t < 0.5 else math.nan

        t_eval = np.linspace(0.0, 1.0, 11)
        with pytest.raises(SolverError, match="test integration failed"):
            asym._rk45(rhs, 1.0, t_eval, rtol=1e-10, atol=1e-12, label="test")
        assert not solve_ivp(lambda t, y: [rhs(t, y[0])], (0.0, 1.0), [1.0], rtol=1e-10, atol=1e-12).success

        # through the package: an outer right-hand side that turns NaN below
        # phi = 0.49 (the default outer profile falls from 0.5 to about 0.48)
        real_rhs = asym.outer_ode_rhs
        monkeypatch.setattr(
            asym, "outer_ode_rhs", lambda phi, c, p: real_rhs(phi, c, p) if phi > 0.49 else math.nan
        )
        with pytest.raises(SolverError, match="outer profile integration failed"):
            asym.solve_outer(asym.solve_c(params_default).c, params_default)

    def test_inner_overflow_is_typed(self):
        # a box point where e^Phi overflows in the inner integration for both
        # roots and for the jump check
        p = derive_params(m=18, beta=24.51, phi0=0.48, psi0=0.06, sdot=1.18)
        for solver in (asym.solve_c, asym.solve_c_consistent):
            with pytest.raises(StiffProfileError, match="overflowed"):
                asym.build_wave_profile(solver(p), p)
        with pytest.raises(StiffProfileError, match="overflowed"):
            asym.jump_residual(asym.solve_c(p).c, p)

    @given(box_params())
    def test_profile_matches_solve_ivp_across_box(self, params):
        for solver in (asym.solve_c, asym.solve_c_consistent):
            match = solver(params)
            got = _profile_outcome(match, params)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(asym, "_rk45", _solve_ivp_rk45)
                expected = _profile_outcome(match, params)
            if isinstance(expected, type):
                assert got is expected
            else:
                assert _agree(got.phi, expected.phi, 1e-12)
                psi_scale = np.where(expected.psi == 0.0, 1.0, expected.psi)
                assert np.max(np.abs(got.psi - expected.psi) / psi_scale) <= 1e-12
