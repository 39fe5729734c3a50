import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.rk import RK45

from basinwave import asymptotics as asym
from basinwave import verify
from basinwave.core import derive_params
from basinwave.errors import (
    BasinwaveError,
    NoRootError,
    ProfileRangeError,
    SingularProfileError,
    SolverError,
    StiffProfileError,
    ValidationError,
)
from conftest import C_MATCHED_DEFAULT, C_MATCHED_PURE, box_params


# every check on a wave speed refuses NaN and infinity as well as c <= 0
_BAD_SPEEDS = [0.0, -0.25, math.nan, math.inf, -math.inf]
_BAD_SPEED_IDS = ["zero", "negative", "nan", "inf", "minus-inf"]

# each speed solver with the denominator D(c) of its residual c D(c) - sdot (1 - phi0)
_SOLVERS = (
    (asym.solve_c, asym._match_denominator),
    (asym.solve_c_consistent, asym._consistent_denominator),
)


# pool point 122: at its consistent root F has no zero below phi0
_POINT_122 = dict(m=19, beta=32.69293339440707, phi0=0.5395480021105685,
                  psi0=0.0013017247276970957, sdot=1.3612919618928756)


def _outer_slope(c, params):
    """The outer slope F(phi) = phi + [c (phi0 - phi) + (c - sdot)(1 - phi0)]
    (phi0/phi)^m / lam at speed c, the inverted flux first integral, written
    out with no package code."""
    phi0, m, lam, sdot = params.phi0, params.m, params.lam, params.sdot

    def F(phi):
        bracket = c * (phi0 - phi) + (c - sdot) * (1.0 - phi0)
        return phi + bracket * math.exp(m * math.log(phi0 / phi)) / lam

    return F


def _tail_slope(c, params, phi):
    """F(phi) from the package's du/dzeta in u = ln(phi - phi_f)."""
    phi_f, rhs = asym._outer_tail(c, params)
    return rhs(None, math.log(phi - phi_f)) * (phi - phi_f)


class TestOuterOdeRhs:
    def test_at_top_porosity(self, params_default):
        p = params_default
        c = 0.25
        expected = p.phi0 + (c - p.sdot) * (1.0 - p.phi0) / p.lam
        assert _outer_slope(c, p)(p.phi0) == pytest.approx(expected, rel=1e-14)
        assert _tail_slope(c, p, p.phi0) == pytest.approx(expected, rel=1e-14)

    def test_uncompacted_slope_when_c_equals_sdot(self, params_default):
        p = params_default
        assert _outer_slope(p.sdot, p)(p.phi0) == pytest.approx(p.phi0, rel=1e-14)
        assert _tail_slope(p.sdot, p, p.phi0) == pytest.approx(p.phi0, rel=1e-14)

    def test_direct_arithmetic(self):
        p = derive_params(lam=1.0, sdot=1.0, phi0=0.5, m=7)
        got = _outer_slope(0.25, p)(0.45)
        assert got == pytest.approx(-0.30789744821678752, rel=1e-12)

    def test_overflow_reported_with_phi(self, params_default):
        # at c = sdot, F has no zero below phi0, so u = ln phi
        phi_f, rhs = asym._outer_tail(params_default.sdot, params_default)
        assert phi_f == 0.0
        with pytest.raises(StiffProfileError, match="phi"):
            rhs(None, math.log(1e-80))

    @given(box_params())
    def test_solve_outer_slope_is_the_rhs_across_box(self, params):
        c = asym.solve_c(params).c
        try:
            outer = asym.solve_outer(c, params)
        except BasinwaveError:
            return
        rhs = _outer_slope(c, params)
        expected = np.array([rhs(phi) for phi in outer.phi])
        assert np.max(np.abs(outer.phi_zeta - expected)) <= 1e-14 * np.max(np.abs(outer.phi))


def _outcome(solve, *args):
    try:
        return solve(*args)
    except BasinwaveError as exc:
        return type(exc)


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
        rhs = _outer_slope(match.c, p)
        for _ in range(steps):
            k1 = rhs(phi)
            k2 = rhs(phi + 0.5 * dz * k1)
            k3 = rhs(phi + 0.5 * dz * k2)
            k4 = rhs(phi + dz * k3)
            phi += dz / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert out.phi[0] == pytest.approx(phi, rel=1e-8)

    @pytest.mark.parametrize("c", _BAD_SPEEDS, ids=_BAD_SPEED_IDS)
    def test_nonpositive_speed_rejected(self, params_default, c):
        with pytest.raises(ValidationError, match="wave speed must be positive"):
            asym.solve_outer(c, params_default)

    def test_zero_zstar_rejected(self):
        with pytest.raises(ValidationError, match="outer region is empty"):
            asym.solve_outer(0.25, derive_params(zstar=0.0))

    def test_negative_top_slope_refused_before_integrating(self, monkeypatch):
        # phi' = phi0 + (c - sdot)(1 - phi0)/lam < 0 at the top: phi rises
        # above phi0 at every node below zstar
        p = derive_params(m=15, beta=27.85, phi0=0.388, psi0=0.259, sdot=1.243)

        def unreachable(*args, **kwargs):
            raise AssertionError("integrated a profile that the top slope refuses")

        monkeypatch.setattr(asym, "_rk45", unreachable)
        match = asym.solve_c(p)
        with pytest.raises(ProfileRangeError, match=r"left the admissible range \(0, phi0\]"):
            asym.solve_outer(match.c, p)
        with pytest.raises(ProfileRangeError, match=r"left the admissible range \(0, phi0\]"):
            asym.build_wave_profile(match, p)

    def test_tiny_negative_top_slope_is_refused(self, monkeypatch):
        # F(phi0) = -1e-10: phi rises above phi0 at every node below zstar,
        # however little, so the sign alone refuses the profile
        p = derive_params(lam=0.5)
        c = p.sdot - (p.phi0 + 1e-10) * p.lam / (1.0 - p.phi0)
        assert _outer_slope(c, p)(p.phi0) == pytest.approx(-1e-10, rel=1e-5)
        match = asym.MatchResult(
            c=c, Phi_inf=asym.phi_infinity(c, p), C=asym.inner_C(c, p),
            residual=0.0, iterations=0,
        )

        def unreachable(*args, **kwargs):
            raise AssertionError("integrated a profile that the top slope refuses")

        monkeypatch.setattr(asym, "_rk45", unreachable)
        with pytest.raises(ProfileRangeError, match=r"left the admissible range \(0, phi0\]"):
            asym.solve_outer(c, p)
        with pytest.raises(ProfileRangeError, match=r"left the admissible range \(0, phi0\]"):
            asym.build_wave_profile(match, p)

    @given(box_params())
    def test_top_slope_refuses_only_profiles_the_range_check_refuses(self, params):
        # with and without the check: where it refuses, the full integration
        # raises or returns phi above phi0 at every outer node below the top;
        # where it passes, both return the same bits
        for solver in (asym.solve_c, asym.solve_c_consistent):
            match = solver(params)
            refused = _outer_slope(match.c, params)(params.phi0) < 0.0
            for solve, arg in ((asym.solve_outer, match.c), (asym.build_wave_profile, match)):
                got = _outcome(solve, arg, params)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(asym, "_check_outer_top", lambda c, params: None)
                    full = _outcome(solve, arg, params)
                if refused:
                    assert got is ProfileRangeError
                    if not isinstance(full, type):
                        phi = full.phi
                        if solve is asym.build_wave_profile:
                            phi = phi[full.region == "outer-above"]
                        assert np.all(phi[:-1] > params.phi0)
                elif isinstance(full, type):
                    assert got is full
                else:
                    for name in full.__dataclass_fields__:
                        assert np.array_equal(getattr(got, name), getattr(full, name)), name

    def test_singular_reactant_relation(self):
        p = derive_params(sdot=1e-15)
        with pytest.raises(SingularProfileError):
            asym.solve_outer(5e-16, p)

    @pytest.mark.parametrize("solver", [asym.solve_c, asym.solve_c_consistent],
                             ids=["primary", "consistent"])
    def test_plateau_costs_a_bounded_number_of_calls(self, solver, monkeypatch):
        # at zstar = 1e5 phi is on its plateau, where phi_f + e^u rounds to
        # phi_f, below the top ~5 of the region; integrated in phi, DP5's
        # stability bound took 1.6M (primary) and 0.87M (consistent) calls
        p = derive_params(zstar=1e5)
        c = solver(p).c
        calls = []

        def counted(rhs):
            def rhs_counted(zeta, y):
                calls.append(zeta)
                assert len(calls) < 10_000
                return rhs(zeta, y)

            return rhs_counted

        real_tail = asym._outer_tail

        def counted_tail(c, params):
            phi_f, rhs = real_tail(c, params)
            return phi_f, counted(rhs)

        monkeypatch.setattr(asym, "_outer_tail", counted_tail)
        outer = asym.solve_outer(c, p)
        assert len(calls) <= 400
        assert outer.phi[0] == outer.phi[1] < p.phi0

    @pytest.mark.parametrize("zstar", [1.0, 100.0, 1e5])
    @pytest.mark.parametrize("solver", [asym.solve_c, asym.solve_c_consistent],
                             ids=["primary", "consistent"])
    def test_matches_a_30_digit_quadrature_oracle(self, solver, zstar):
        p = derive_params(zstar=zstar)
        c = solver(p).c
        outer = asym.solve_outer(c, p)
        # nodes 1, 50, 199 and 399 below the top, deepest last
        nodes = [398, 349, 200, 0]
        expected = _outer_oracle(c, p, outer.zeta[nodes])
        assert np.max(np.abs(outer.phi[nodes] - expected) / expected) <= 1e-10

    @pytest.mark.parametrize(
        "point, solver, outcome",
        [
            # pool point 122 at the consistent root: F has no zero below
            # phi0, so phi has no plateau, and the profile returns
            (_POINT_122, asym.solve_c_consistent, asym.OuterProfile),
            # pool point 878 at the primary root: F(phi0) < 0, so G has no
            # zero below phi0 either, and the top slope refuses the profile
            (dict(m=7, beta=22.417648150621368, phi0=0.30220931209589,
                  psi0=0.31667525661340473, sdot=0.7797556939781252),
             asym.solve_c, ProfileRangeError),
        ],
        ids=["point-122-consistent", "point-878-primary"],
    )
    def test_without_a_plateau_u_is_ln_phi(self, point, solver, outcome):
        p = derive_params(**point)
        c = solver(p).c
        assert asym._outer_tail(c, p)[0] == 0.0
        got = _outcome(asym.solve_outer, c, p)
        assert got is outcome or isinstance(got, outcome)

    def test_without_a_plateau_matches_a_30_digit_quadrature_oracle(self):
        p = derive_params(**_POINT_122)
        c = asym.solve_c_consistent(p).c
        outer = asym.solve_outer(c, p)
        # nodes 1, 50, 199 and 399 below the top, deepest last
        nodes = [398, 349, 200, 0]
        expected = _unfloored_outer_oracle(c, p, outer.zeta[nodes])
        assert np.max(np.abs(outer.phi[nodes] - expected) / expected) <= 1e-10

    @pytest.mark.parametrize(
        "point",
        [
            # pool points 617 and 1414 (plateau) and 1988 (no plateau), where
            # phi_f + e^(ln(phi0 - phi_f)) rounds 1 ulp off phi0 at the
            # consistent root
            dict(m=7, beta=47.88958479105524, phi0=0.49509273997813835,
                 psi0=0.3219467071706723, sdot=0.6676135237443379),
            dict(m=7, beta=16.590853273599308, phi0=0.4909162599934606,
                 psi0=0.28878965795301675, sdot=0.8413973505503054),
            dict(m=18, beta=58.2601295766967, phi0=0.3546189217909346,
                 psi0=0.006584832614294412, sdot=1.4760488161223937),
        ],
        ids=["point-617", "point-1414", "point-1988"],
    )
    def test_top_node_is_phi0_exactly(self, point):
        _assert_exact_top_data(derive_params(**point))

    @given(box_params())
    def test_top_node_is_phi0_exactly_across_box(self, params):
        _assert_exact_top_data(params)


def _assert_exact_top_data(params):
    """Wherever the outer or the wave profile returns at either root, its
    top node holds phi0 exactly."""
    for solver in (asym.solve_c, asym.solve_c_consistent):
        match = solver(params)
        for solve, arg in ((asym.solve_outer, match.c), (asym.build_wave_profile, match)):
            got = _outcome(solve, arg, params)
            if not isinstance(got, type):
                assert got.phi[-1] == params.phi0


def _outer_oracle(c, params, zeta):
    """phi at the nodes ``zeta`` from the 30-digit inversion of
    zeta(phi) = zstar - int_phi^phi0 dphi'/F(phi'), with F written out in
    mpmath and no package code.

    The zero phi_f of F is bracketed by the minimum of the convex
    G = lam (phi/phi0)^m F and phi0. In phi' = phi_f + e^v the integrand is
    bounded, and depth(v) = zstar - zeta is one quadrature from v to
    v0 = ln(phi0 - phi_f); Newton on v inverts it. A node deeper than
    v = -36 (phi - phi_f < 2.3e-16) gets phi_f, which is phi to double
    precision.
    """
    from mpmath import exp, log, mp, mpf

    with mp.workdps(30):
        phi0, m, lam = mpf(params.phi0), mpf(params.m), mpf(params.lam)
        c, zstar = mpf(c), mpf(params.zstar)
        a = c * phi0 + (c - mpf(params.sdot)) * (1 - phi0)

        def F(phi):
            return phi + (a - c * phi) * (phi0 / phi) ** m / lam

        phi_min = phi0 * (c / ((m + 1) * lam)) ** (1 / m)
        phi_f = mp.findroot(lambda phi: lam * (phi / phi0) ** m * F(phi), (phi_min, phi0),
                            solver="anderson")
        v0 = log(phi0 - phi_f)

        def dzeta_dv(v):
            return exp(v) / F(phi_f + exp(v))

        def depth(v):
            return mp.quad(dzeta_dv, [v, v0])

        v_deep = mpf(-36)
        deepest = depth(v_deep)
        phi = []
        for node in zeta:
            target = zstar - mpf(node)
            if target >= deepest:
                phi.append(phi_f)
                continue
            v = mp.findroot(lambda v: depth(v) - target, v_deep / 2, solver="newton",
                            df=lambda v: -dzeta_dv(v))
            phi.append(phi_f + exp(v))
        return np.array([float(x) for x in phi])


def _unfloored_outer_oracle(c, params, zeta):
    """phi at the nodes ``zeta`` (descending) from the 30-digit inversion of
    zeta(phi) = zstar - int_phi^phi0 dphi'/F(phi'), with F written out in
    mpmath and no package code, and no zero of G assumed.

    depth(phi) = zstar - zeta falls as phi rises, so each node is one root
    of depth(phi) - (zstar - zeta) on the bracket from phi0/100 to the node
    above; F must be positive down to the deepest node.
    """
    from mpmath import mp, mpf

    with mp.workdps(30):
        phi0, m, lam = mpf(params.phi0), mpf(params.m), mpf(params.lam)
        c, zstar = mpf(c), mpf(params.zstar)
        a = c * phi0 + (c - mpf(params.sdot)) * (1 - phi0)

        def F(phi):
            return phi + (a - c * phi) * (phi0 / phi) ** m / lam

        phi = phi0
        out = []
        for node in zeta:
            target = zstar - mpf(node)
            phi = mp.findroot(lambda x: mp.quad(lambda y: 1 / F(y), [x, phi0]) - target,
                              (phi0 / 100, phi), solver="anderson")
            out.append(phi)
        return np.array([float(x) for x in out])


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

    @pytest.mark.parametrize("c", _BAD_SPEEDS, ids=_BAD_SPEED_IDS)
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
        # a uniform grid of at least 400 nodes per unit on a span ending at eta = 12
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

    def test_jump_integrates_onto_the_span_ends_and_their_neighbours(self, params_default, monkeypatch):
        # the bracket reads only the end nodes and their neighbours, 1/400 inside
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
        assert len(seen) == 1
        assert np.array_equal(seen[0], [low, low + 0.0025, high - 0.0025, high])

    @pytest.mark.parametrize("zstar", [1.0, 3.0, 1e5, 1e307], ids=["1", "3", "1e5", "1e307"])
    def test_jump_span_is_bounded_whatever_the_zone_depth(self, zstar, monkeypatch):
        # beta * zstar overflows at 1e307; the span stops at -ln c + 38 anyway
        p = derive_params(zstar=zstar)
        c = 0.25
        assert asym.default_inner_span(c, p)[1] <= -math.log(c) + 38.0
        spans = []
        real = asym.inner_Phi_ode

        def spy(c, params, C, eta):
            spans.append(eta[-1] - eta[0])
            return real(c, params, C, eta)

        monkeypatch.setattr(asym, "inner_Phi_ode", spy)
        assert abs(asym.jump_residual(c, p)) <= 1e-6
        assert len(spans) == 1 and spans[0] <= 50.0

    def test_jump_small_at_solved_speed(self, params_default):
        c = asym.solve_c(params_default).c
        assert abs(asym.jump_residual(c, params_default)) <= 1e-6


class TestSolveC:
    def test_matches_independent_oracle(self, params_default):
        match = asym.solve_c(params_default)
        assert abs(match.c - C_MATCHED_DEFAULT) <= 1e-6
        assert abs(match.residual) <= 1e-10
        assert verify.sdot_response(match.c, params_default) > 0.0
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

    # below the validated box (beta < 10) the clamp inside C(c) makes the
    # residual positive at the bracket's low end, where a grown bracket
    # would catch a spurious root on a falling branch of c D(c)
    @pytest.mark.parametrize("beta", [2.0, 5.0], ids=["beta-2", "beta-5"])
    def test_positive_low_end_residual_raises_no_root(self, beta):
        with pytest.warns(UserWarning, match=f"beta = {beta} is below 10"):
            params = derive_params(beta=beta)
        target = params.sdot * (1.0 - params.phi0)
        for solve, build in _SOLVERS:
            assert 1e-6 * build(params)(1e-6) - target > 0.0
            with pytest.raises(
                NoRootError,
                match=r"^matching residual is not negative at the bracket's low end "
                r"c = 1e-06 \(\d\.\d{3}e\+29\d\): "
                + re.escape("C(c) = psi0 exp(min(e^(-eta_top)/c, 700)) is that large"),
            ):
                solve(params)

    @given(box_params())
    def test_roots_are_rising_crossings_above_a_negative_low_end_across_box(self, params):
        target = params.sdot * (1.0 - params.phi0)
        for solve, build in _SOLVERS:
            denominator = build(params)

            def residual(c):
                return c * denominator(c) - target

            c = solve(params).c
            assert residual(1e-6) < 0.0
            assert residual(c * (1.0 - 1e-9)) < 0.0 < residual(c * (1.0 + 1e-9))

    def test_stalled_bisection_evaluates_its_last_midpoint_once(self, params_default):
        # a residual of -1 below c = 0.3 and +1 above it: the bracket closes
        # on the jump, and no midpoint meets the tolerance
        target = params_default.sdot * (1.0 - params_default.phi0)
        calls = []

        def build(params):
            def denominator(c):
                calls.append(c)
                return (target + (1.0 if c > 0.3 else -1.0)) / c

            return denominator

        with pytest.raises(SolverError, match=r"bisection stalled: residual -?1\.000e\+00") as info:
            asym._solve_speed(params_default, build)
        iterations = int(re.search(r"after (\d+) iterations", str(info.value)).group(1))
        # the two bracket ends, one midpoint per iteration, the final midpoint
        assert len(calls) == 2 + iterations + 1

    def test_bracket_grows_by_doubling_to_a_root_above_10_sdot(self, params_default):
        # the root c = 30 sdot of the planted denominator: the high end
        # doubles from 10 sdot while its residual is negative
        p = params_default
        calls = []
        match = asym._solve_speed(p, _constant_denominator(30.0, calls))
        assert calls[:4] == [1e-6, 10.0 * p.sdot, 20.0 * p.sdot, 40.0 * p.sdot]
        assert match.c == pytest.approx(30.0 * p.sdot, rel=1e-12)
        assert abs(match.residual) <= 1e-12

    def test_bracket_stops_growing_past_1e3_sdot(self, params_default):
        # the root c = 2000 sdot lies past the cap: the high end stops at
        # 1280 sdot with its residual still negative
        p = params_default
        calls = []
        with pytest.raises(NoRootError, match=re.escape(
                "no sign change for the matching residual on (1e-06, 1.28e+03)")):
            asym._solve_speed(p, _constant_denominator(2000.0, calls))
        assert calls == [1e-6] + [10.0 * 2.0**i * p.sdot for i in range(8)]

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

    @given(box_params())
    def test_consistent_root_honors_the_floor_and_rises_with_sdot_across_box(self, params):
        c = asym.solve_c_consistent(params).c
        assert c >= params.sdot * (1.0 - params.phi0)
        assert asym.solve_c_consistent(replace(params, sdot=1.1 * params.sdot)).c > c

    @pytest.mark.parametrize(
        "a0, psi0, frozen", [("1", "0.3", C_MATCHED_DEFAULT), ("0", "0", C_MATCHED_PURE)],
        ids=["default", "pure"],
    )
    def test_oracles_rebuilt_at_50_digits(self, a0, psi0, frozen):
        # the un-substituted matched form at the default parameters, with
        # no package code: c phi0 + (c - sdot)(1 - phi0)
        #   = c phistar Phi_inf - lam phistar e^Phi_inf - C c a0 / A
        from mpmath import exp, log, mp, mpf

        with mp.workdps(50):
            lam, beta, m, phi0, zstar, sdot = mpf(1), mpf(21), mpf(7), mpf("0.5"), mpf(1), mpf(1)
            a0, psi0 = mpf(a0), mpf(psi0)
            phistar, A = phi0 * exp(-log(m) / m), beta / m

            def defect(c):
                phi_inf = log(c / lam)
                C = psi0 * exp(exp(-(beta * zstar + log(beta))) / c)
                inner = c * phistar * phi_inf - lam * phistar * exp(phi_inf) - C * c * a0 / A
                return c * phi0 + (c - sdot) * (1 - phi0) - inner

            root = mp.findroot(defect, (mpf("0.1"), mpf("0.5")))
        assert float(root) == frozen

    def test_consistent_variant_honors_conservation_floor(self, params_default, params_pure):
        for p in (params_default, params_pure):
            mc = asym.solve_c_consistent(p)
            assert mc.c >= p.sdot * (1.0 - p.phi0)
            assert abs(mc.residual) <= 1e-10
        assert (
            asym.solve_c_consistent(params_default).c
            < asym.solve_c_consistent(params_pure).c
        )

    def test_repeated_solve_returns_the_same_result(self, params_default):
        for solve, _ in _SOLVERS:
            assert solve(params_default) is solve(params_default)
            # equal params built anew hit the same entry
            assert solve(replace(params_default)) is solve(params_default)

    @given(box_params())
    def test_memoized_roots_equal_the_unmemoized_solve_across_box(self, params):
        for solve, build in _SOLVERS:
            first = solve(params)
            assert solve(params) is first
            fresh = asym._solve_speed.__wrapped__(params, build)
            assert fresh is not first
            assert fresh == first  # every field, bit for bit

    def test_errors_are_raised_afresh_not_memoized(self, monkeypatch):
        # at sdot = 1e-9 the residual is positive at the bracket's low end
        calls = []
        real = asym._match_denominator

        def counted(params):
            calls.append(params)
            return real(params)

        monkeypatch.setattr(asym, "_match_denominator", counted)
        params = derive_params(sdot=1e-9)
        for _ in range(2):
            with pytest.raises(NoRootError):
                asym.solve_c(params)
        # each failing call built its denominator again
        assert len(calls) == 2


def _constant_denominator(k, calls):
    """``build_denominator`` for :func:`asym._solve_speed` whose denominator
    is the constant sdot (1 - phi0)/(k sdot), which puts the root at
    c = k sdot; every argument is appended to ``calls``."""

    def build(params):
        def denominator(c):
            calls.append(c)
            return params.sdot * (1.0 - params.phi0) / (k * params.sdot)

        return denominator

    return build


@pytest.fixture(scope="module")
def profile(params_default):
    match = asym.solve_c(params_default)
    return match, asym.build_wave_profile(match, params_default)


class TestWaveProfile:
    def test_zero_zstar_rejected(self, profile, params_default):
        match, _ = profile
        with pytest.raises(ValidationError, match="outer region is empty"):
            asym.build_wave_profile(match, derive_params(zstar=0.0))

    def test_no_node_inside_the_zone_is_refused(self):
        # for beta < 1 the seam 10 ln(beta)/beta is negative, so the zone
        # holds no node of the profile grid
        with pytest.warns(UserWarning, match="beta = 0.5 is below"):
            p = derive_params(beta=0.5)
        c = 0.7
        match = asym.MatchResult(
            c=c, Phi_inf=asym.phi_infinity(c, p), C=asym.inner_C(c, p),
            residual=0.0, iterations=0,
        )
        with pytest.raises(ValidationError, match="profile grid too coarse"):
            asym.build_wave_profile(match, p)

    def test_top_slope_decides_where_both_regions_fail(self, monkeypatch):
        # pool point 1530: at the primary root F(phi0) < 0 and the inner
        # layer underflows; the top slope is checked first, so its error is
        # raised and the inner layer is never integrated
        p = derive_params(
            m=19, beta=35.765123937107354, phi0=0.3855585849121089,
            psi0=0.040344812471120185, sdot=0.9861309610836789,
        )
        match = asym.solve_c(p)
        assert _outer_slope(match.c, p)(p.phi0) < 0.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(asym, "_check_outer_top", lambda c, params: None)
            with pytest.raises(StiffProfileError, match="inner log-porosity underflowed"):
                asym.build_wave_profile(match, p)

        def unreachable(*args):
            raise AssertionError("integrated the inner layer of a profile the top slope refuses")

        monkeypatch.setattr(asym, "inner_Phi_ode", unreachable)
        with pytest.raises(ProfileRangeError):
            asym.build_wave_profile(match, p)

    def test_inner_layer_is_solved_before_the_outer_integration(self, monkeypatch):
        # a pool point whose primary root has F(phi0) >= 0 and an inner layer
        # that underflows: the inner error is raised before any outer step
        p = derive_params(
            m=16, beta=24.6239679051183, phi0=0.41742298540882894,
            psi0=0.21918830092845504, sdot=0.9629120785388258,
        )
        match = asym.solve_c(p)
        assert _outer_slope(match.c, p)(p.phi0) >= 0.0

        def unreachable(*args):
            raise AssertionError("integrated the outer region before the inner layer")

        monkeypatch.setattr(asym, "_integrate_outer", unreachable)
        with pytest.raises(StiffProfileError, match="inner log-porosity underflowed"):
            asym.build_wave_profile(match, p)

    @given(box_params())
    def test_regions_are_the_seam_masks_across_box(self, params):
        # the grid ascends, so the masks below are three contiguous ranges
        delta = min(10.0 * math.log(params.beta) / params.beta, 0.45 * params.zstar)
        for solver in (asym.solve_c, asym.solve_c_consistent):
            prof = _outcome(asym.build_wave_profile, solver(params), params)
            if isinstance(prof, type):
                continue
            expected = np.where(prof.zeta > delta, "outer-above",
                                np.where(prof.zeta < -delta, "below", "inner"))
            assert prof.region.dtype == np.dtype("<U11")
            assert np.array_equal(prof.region, expected)

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
        phi_inf = math.log(match.c / p.lam)
        B = match.c * p.phistar * phi_inf - p.lam * p.phistar * math.exp(phi_inf)
        inner_const = B - match.c * p.a0 * match.C / p.A
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

    @pytest.mark.parametrize("solver", [asym.solve_c, asym.solve_c_consistent],
                             ids=["primary", "consistent"])
    def test_steps_depend_on_the_grid_only_through_its_ends(self, params_default, solver):
        # a node shared by a 3-node and a 400-node grid with the same ends
        # gets the same bits from both, in both regional integrations
        p = params_default
        c = solver(p).c
        C = asym.inner_C(c, p)
        shared = [0, 199, 399]
        for integrate, grid in (
            (lambda nodes: asym._integrate_outer(c, p, nodes),
             np.linspace(p.zstar, p.zstar * 1e-6, 400)),
            (lambda nodes: asym.inner_Phi_ode(c, p, C, nodes),
             np.linspace(*asym.default_inner_span(c, p), 400)),
        ):
            assert np.array_equal(integrate(grid)[shared], integrate(grid[shared]))

    def test_nan_rhs_fails_like_solve_ivp(self, params_default, monkeypatch):
        def rhs(t, y):
            return -y if t < 0.5 else math.nan

        t_eval = np.linspace(0.0, 1.0, 11)
        with pytest.raises(SolverError, match="test integration failed"):
            asym._rk45(rhs, 1.0, t_eval, rtol=1e-10, atol=1e-12, label="test")
        assert not solve_ivp(lambda t, y: [rhs(t, y[0])], (0.0, 1.0), [1.0], rtol=1e-10, atol=1e-12).success

        # through the package: a right-hand side in u = ln(phi - phi_f) that
        # turns NaN below phi = 0.49 (the default outer profile falls from 0.5
        # toward phi_f = 0.4816)
        real_tail = asym._outer_tail

        def nan_below(c, p):
            phi_f, rhs = real_tail(c, p)
            u_nan = math.log(0.49 - phi_f)
            return phi_f, lambda zeta, u: rhs(zeta, u) if u > u_nan else math.nan

        monkeypatch.setattr(asym, "_outer_tail", nan_below)
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

    def test_steps_are_capped(self, monkeypatch):
        # y' = 1 has no error estimate, so its steps grow tenfold with no
        # rejection and each accepted step costs six calls after the two of
        # the first step's choice
        calls = []

        def rhs(t, y):
            calls.append(t)
            return 1.0

        t_eval = np.array([0.0, 1e6])
        asym._rk45(rhs, 0.0, t_eval, rtol=1e-10, atol=1e-12, label="test")
        steps = (len(calls) - 2) // 6
        assert len(calls) == 2 + 6 * steps and steps > 2
        monkeypatch.setattr(asym, "_MAX_STEPS", steps)
        y = asym._rk45(rhs, 0.0, t_eval, rtol=1e-10, atol=1e-12, label="test")
        assert y[-1] == pytest.approx(1e6)
        monkeypatch.setattr(asym, "_MAX_STEPS", steps - 1)
        message = rf"^test integration took {steps - 1} steps and stopped at t = "
        with pytest.raises(StiffProfileError, match=message):
            asym._rk45(rhs, 0.0, t_eval, rtol=1e-10, atol=1e-12, label="test")

    def test_stiff_inner_layer_is_refused_within_the_step_cap(self):
        # a point far outside the box where the inner layer at the consistent
        # root keeps explicit steps tiny: without the cap the profile ran for
        # minutes; the jump check, over its own span, raises its overflow
        p = derive_params(lam=0.07548, beta=9130.07, m=341, phi0=0.46746, psi0=0.37492,
                          a0=681.55, zstar=4.274e7, sdot=0.35611)
        match = asym.solve_c_consistent(p)
        start = time.perf_counter()
        message = f"^inner profile integration took {asym._MAX_STEPS} steps"
        with pytest.raises(StiffProfileError, match=message):
            asym.build_wave_profile(match, p)
        with pytest.raises(StiffProfileError):
            asym.jump_residual(match.c, p)
        assert time.perf_counter() - start < 1.0

    @given(box_params())
    def test_profile_matches_solve_ivp_across_box(self, params):
        for solver in (asym.solve_c, asym.solve_c_consistent):
            match = solver(params)
            got = _outcome(asym.build_wave_profile, match, params)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(asym, "_rk45", _solve_ivp_rk45)
                expected = _outcome(asym.build_wave_profile, match, params)
            if isinstance(expected, type):
                assert got is expected
            else:
                assert _agree(got.phi, expected.phi, 1e-12)
                psi_scale = np.where(expected.psi == 0.0, 1.0, expected.psi)
                assert np.max(np.abs(got.psi - expected.psi) / psi_scale) <= 1e-12


_RK45_BAD_GRIDS = {
    "no-nodes": [],
    "one-node": [0.0],
    "equal-ends": [1.0, 1.0],
    "nan-node": [0.0, math.nan, 1.0],
    "nan-end": [0.0, math.nan],
    "inf-end": [0.0, math.inf],
    "minus-inf-start": [-math.inf, 0.0],
    "inf-interior": [0.0, math.inf, math.inf, 1.0],
    "not-monotone": [0.0, 2.0, 1.0],
}


class TestRk45Grid:
    @pytest.mark.parametrize("grid", list(_RK45_BAD_GRIDS.values()), ids=list(_RK45_BAD_GRIDS))
    def test_unintegrable_grid_is_refused_before_any_step(self, grid):
        calls = []

        def rhs(t, y):
            # an accepted infinite grid would step without end
            calls.append(t)
            assert len(calls) < 10_000
            return -y

        with pytest.raises(ValidationError, match="test grid"):
            asym._rk45(rhs, 1.0, np.array(grid), rtol=1e-10, atol=1e-12, label="test")
        assert calls == []

    @pytest.mark.parametrize("grid", [[0.0], [0.0, 0.0], [-20.0, math.nan, 24.0]],
                             ids=["one-node", "equal-ends", "nan-node"])
    def test_inner_profile_refuses_bad_grid(self, params_default, grid):
        c = 0.25
        with pytest.raises(ValidationError, match="inner profile grid"):
            asym.inner_Phi_ode(c, params_default, asym.inner_C(c, params_default), np.array(grid))


@pytest.mark.parametrize("c", _BAD_SPEEDS, ids=_BAD_SPEED_IDS)
@pytest.mark.parametrize(
    "solve", [asym.phi_infinity, asym.default_inner_span, asym.jump_residual],
    ids=["phi_infinity", "default_inner_span", "jump_residual"],
)
def test_speed_checked_before_use(params_default, solve, c):
    with pytest.raises(ValidationError, match="wave speed must be positive"):
        solve(c, params_default)


# The matching and profile integrals are evaluated through functions that
# bind their constants once per solve. Outcomes at the edge of the box (which
# profiles build, which roots pass a check) rest on the last bits, so each
# such function must return exactly what the unbound expression below gives.


def _inner_C_unbound(c, params):
    if params.psi0 == 0.0:
        return 0.0
    eta_top = params.beta * params.zstar + math.log(params.beta)
    arg = min(math.exp(-eta_top) / c, asym._POW_OVERFLOW_LIMIT)
    return params.psi0 * math.exp(arg)


@st.composite
def _params_and_speeds(draw):
    """A box point, with lam, a0 and zstar drawn too (the box holds lam at 1,
    where a regrouped division by lam is still exact), and speeds over the
    bracket range (1e-6, 1e3 sdot): one drawn, 32 log-spaced."""
    params = replace(
        draw(box_params()),
        lam=draw(st.floats(0.1, 10.0)),
        a0=draw(st.floats(0.0, 3.0)),
        zstar=draw(st.floats(0.0, 3.0)),
    )
    c = draw(st.floats(1e-6, 1e3 * params.sdot, exclude_min=True))
    return params, [c, *np.geomspace(1e-6, 1e3 * params.sdot, 33)[1:].tolist()]


class TestBoundConstantsAreExact:
    @given(_params_and_speeds(), st.floats(0.0, 600.0, exclude_max=True))
    def test_outer_slope(self, point, depth):
        params, speeds = point
        # u = ln phi with phi in (phi0 e^(-600/m), phi0], where (phi0/phi)^m
        # stays below e^600
        u = math.log(params.phi0) - depth / params.m
        unfloored = 0
        for c in speeds:
            phi_f, rhs = asym._outer_tail(c, params)
            if phi_f:
                continue  # the plateau's closure, in u = ln(phi - phi_f)
            unfloored += 1
            a = c * params.phi0 + (c - params.sdot) * (1.0 - params.phi0)
            arg = params.m * (math.log(params.phi0) - u)
            expected = 1.0 + math.exp(arg) * (a * math.exp(-u) - c) / params.lam
            assert rhs(0.0, u) == expected
        # speeds at or above sdot leave F no zero below phi0
        assert unfloored > 0

    @given(_params_and_speeds(), st.floats(-800.0, 800.0), st.floats(-600.0, 700.0))
    def test_inner_rhs(self, point, eta, Phi):
        params, speeds = point

        def capture(rhs, y0, t_eval, rtol, atol, label):
            seen.append(rhs)
            return np.zeros(t_eval.size)

        for c in speeds:
            C = _inner_C_unbound(c, params)
            seen = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(asym, "_rk45", capture)
                asym.inner_Phi_ode(c, params, C, np.array([0.0, 1.0]))
            phi_inf = math.log(c / params.lam)
            B = c * params.phistar * phi_inf - params.lam * params.phistar * math.exp(phi_inf)
            lam_ps = params.lam * params.phistar
            c_ps = c * params.phistar
            source_scale = c * params.a0 * C / params.A
            s = 0.0 if -eta > 690.0 else math.exp(-math.exp(-eta) / c)
            e_Phi = math.exp(Phi)
            expected = (1.0 + (B - c_ps * Phi - source_scale * s) / (lam_ps * e_Phi)) / params.A
            assert seen[0](eta, Phi) == expected

    @given(_params_and_speeds())
    def test_inner_C(self, point):
        params, speeds = point
        for c in speeds:
            assert asym.inner_C(c, params) == _inner_C_unbound(c, params)

    @given(_params_and_speeds())
    def test_match_denominator(self, point):
        params, speeds = point
        denominator = asym._match_denominator(params)
        for c in speeds:
            expected = (
                1.0
                + params.phistar
                - params.phistar * math.log(c / params.lam)
                + params.a0 * _inner_C_unbound(c, params) / params.A
            )
            assert denominator(c) == expected

    @given(_params_and_speeds())
    def test_consistent_denominator(self, point):
        params, speeds = point
        denominator = asym._consistent_denominator(params)
        for c in speeds:
            phi_inf = math.log(c / params.lam)
            expected = (
                1.0
                - params.phistar
                - (params.phistar / params.m) * (phi_inf - 1.0)
                + params.a0 * _inner_C_unbound(c, params) / (params.A * params.m)
            )
            assert denominator(c) == expected
