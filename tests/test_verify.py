import contextlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from basinwave import asymptotics as asym
from basinwave import pde, verify
from basinwave.core import RunConfig, derive_params, resolution_nodes
from basinwave.errors import BasinwaveError, ProfileRangeError, StiffProfileError, ValidationError
from conftest import below_zone_pde_residual_loop, box_params, inner_psi_ode_residual_loop


@pytest.fixture(scope="module")
def short_config():
    # resolved for h(t_end) ~ 1.7 at the default parameters
    return RunConfig(n_nodes=288, dt=1e-3, t_end=2.0, output_every=0.05, h0=0.1)


class TestResidualBattery:
    def test_defaults_all_pass(self, params_default):
        report = verify.residual_battery(params_default)
        assert not report.failures(), str(report)

    def test_reaction_free_jump_is_exactly_zero(self, params_pure):
        report = verify.residual_battery(params_pure)
        jump = {c.name: c for c in report.checks}["jump_condition_defect"]
        assert jump.value == 0.0
        assert not report.failures(), str(report)

    def test_perturbed_speed_breaks_matching(self, params_default):
        c = asym.solve_c(params_default).c
        defect = abs(verify.matching_defect(1.01 * c, params_default))
        assert defect >= abs(0.01 * c * params_default.phi0)

    def test_reports_are_deterministic(self, params_default):
        a = verify.residual_battery(params_default)
        b = verify.residual_battery(params_default)
        assert a.checks == b.checks

    def test_each_speed_is_solved_once(self, params_default, monkeypatch):
        sdots = []
        real_solve = verify.asymptotics.solve_c

        def counting_solve(params):
            sdots.append(params.sdot)
            return real_solve(params)

        monkeypatch.setattr(verify.asymptotics, "solve_c", counting_solve)
        verify.residual_battery(params_default)
        # only the supplied sdot: the monotonicity row reads dc/dsdot at the root
        assert sdots == [1.0]

    def test_a_benchmark_iteration_solves_each_root_once(self, params_default, monkeypatch):
        # match_box's iteration: both roots, a profile at each, the battery;
        # the battery reads both roots from the memo
        built = []
        for name in ("_match_denominator", "_consistent_denominator"):
            real = getattr(asym, name)

            def counted(params, real=real, name=name):
                built.append(name)
                return real(params)

            monkeypatch.setattr(asym, name, counted)
        for match in (asym.solve_c(params_default), asym.solve_c_consistent(params_default)):
            asym.build_wave_profile(match, params_default)
        verify.residual_battery(params_default)
        assert built == ["_match_denominator", "_consistent_denominator"]

    @given(box_params())
    def test_sdot_response_is_the_derivative_of_the_root(self, params):
        # the implicit-function value against a central difference of two
        # solves, 1e-3 sdot either side (worst 2.2e-8 relative over the
        # first 400 benchmark pool points)
        step = 1e-3 * params.sdot
        c = asym.solve_c(params).c
        above, below = (asym.solve_c(replace(params, sdot=params.sdot + s)).c for s in (step, -step))
        expected = (above - below) / (2.0 * step)
        assert verify.sdot_response(c, params) == pytest.approx(expected, rel=1e-6)

    def test_falling_branch_root_fails_the_sdot_row(self, monkeypatch):
        # below the box, at beta = 2, a bracket grown from a positive low end
        # would land on a root where c D(c) falls with c (solve_c refuses
        # that bracket); planted as the primary root, its dc/dsdot is
        # negative and the row fails
        with pytest.warns(UserWarning, match="beta = 2"):
            p = derive_params(beta=2.0)
        c = 609.1498192850897
        assert abs(c * asym._match_denominator(p)(c) - p.sdot * (1.0 - p.phi0)) <= 1e-12
        match = asym.MatchResult(
            c=c, Phi_inf=asym.phi_infinity(c, p), C=asym.inner_C(c, p),
            residual=0.0, iterations=0,
        )
        monkeypatch.setattr(asym, "solve_c", lambda params: match)
        # at that speed the inner layer underflows and phi drains to zero
        # above the zone, and the consistent variant has no root at beta = 2;
        # stand-ins for all three let the report be built
        monkeypatch.setattr(asym, "solve_c_consistent", lambda params: match)
        monkeypatch.setattr(asym, "jump_residual", lambda c, params: 0.0)
        monkeypatch.setattr(asym, "_integrate_outer",
                            lambda c, params, zeta_desc: np.full(zeta_desc.size, params.phi0))
        report = verify.residual_battery(p)
        row = {check.name: check for check in report.checks}["monotone_sdot_response"]
        assert row.value < 0.0
        assert [check.name for check in report.failures()] == ["monotone_sdot_response"]

    def test_top_slope_decides_before_the_jump_check(self, monkeypatch):
        # a pool point whose primary root fails both the outer top slope and
        # the inner layer: the slope is checked first, so its error is raised
        p = derive_params(
            m=9, beta=15.058087721935717, phi0=0.44462661738501036,
            psi0=0.16698244848259464, sdot=1.1616077354088694,
        )
        c = asym.solve_c(p).c
        with pytest.raises(StiffProfileError):
            asym.jump_residual(c, p)
        monkeypatch.setattr(asym, "jump_residual", _unreachable("jump_residual"))
        with pytest.raises(ProfileRangeError):
            verify.residual_battery(p)

    def test_inner_failure_is_raised_before_the_speed_variants_and_outer_integration(
        self, monkeypatch
    ):
        p = derive_params(
            m=16, beta=24.6239679051183, phi0=0.41742298540882894,
            psi0=0.21918830092845504, sdot=0.9629120785388258,
        )
        real_solve = asym.solve_c

        def primary_only(params):
            if params.sdot != p.sdot:
                raise AssertionError("solved an sdot variant before the jump check")
            return real_solve(params)

        monkeypatch.setattr(asym, "solve_c", primary_only)
        monkeypatch.setattr(asym, "_integrate_outer", _unreachable("_integrate_outer"))
        with pytest.raises(StiffProfileError, match="inner log-porosity underflowed"):
            verify.residual_battery(p)

    def test_top_slope_decides_where_both_regions_fail(self, monkeypatch):
        # pool point 878: at the primary root F(phi0) < 0, and the jump
        # check's upward inner integration overflows at eta = 14.2; the top
        # slope is checked first, so the battery and the profile raise its
        # error and the inner layer is never integrated
        p = derive_params(
            m=7, beta=22.417648150621368, phi0=0.30220931209589,
            psi0=0.31667525661340473, sdot=0.7797556939781252,
        )
        match = asym.solve_c(p)
        c = match.c
        assert p.phi0 + (c - p.sdot) * (1.0 - p.phi0) / p.lam < 0.0
        with pytest.raises(StiffProfileError, match="inner log-porosity overflowed"):
            asym.jump_residual(c, p)
        monkeypatch.setattr(asym, "inner_Phi_ode", _unreachable("inner_Phi_ode"))
        with pytest.raises(ProfileRangeError):
            verify.residual_battery(p)
        with pytest.raises(ProfileRangeError):
            asym.build_wave_profile(match, p)

    def test_empty_outer_region_is_refused_first(self, monkeypatch):
        monkeypatch.setattr(asym, "jump_residual", _unreachable("jump_residual"))
        # without reactant; with it, solve_c refuses zstar = 0 first (beta
        # zstar small puts both ends of its bracket on one side)
        with pytest.raises(ValidationError, match="outer region is empty"):
            verify.residual_battery(derive_params(zstar=0.0, psi0=0.0))

    @given(box_params())
    def test_failures_are_typed_across_box(self, params):
        # a profile at either root and the battery return or raise a package
        # error; anything else (a raw OverflowError, a numpy warning turned
        # error by the suite's filter) fails the test
        calls = [(verify.residual_battery, params)]
        for solver in (asym.solve_c, asym.solve_c_consistent):
            calls.append((asym.build_wave_profile, solver(params), params))
        for call, *args in calls:
            with contextlib.suppress(BasinwaveError):
                call(*args)


class TestPlantedFaults:
    # each planted fault must fail its own battery row and no other

    def test_dropped_jump_term_in_the_matching_fails_the_matching_defect(
        self, params_default, monkeypatch
    ):
        # without a0 C/A, solve_c returns the root of the reaction-free
        # denominator, which the un-substituted matching misses by 0.027
        monkeypatch.setattr(asym, "_match_denominator", _denominator_without_jump)
        report = verify.residual_battery(params_default)
        assert [check.name for check in report.failures()] == ["matching_defect"]

    def test_root_solved_before_the_fault_is_planted_does_not_hide_it(
        self, params_default, monkeypatch
    ):
        # the speed memo keys on the denominator's build function, so the
        # sound root memoized first is not read back once it is replaced
        sound = asym.solve_c(params_default)
        monkeypatch.setattr(asym, "_match_denominator", _denominator_without_jump)
        report = verify.residual_battery(params_default)
        assert [check.name for check in report.failures()] == ["matching_defect"]
        assert asym.solve_c(params_default).c != sound.c

    def test_scaled_reactant_in_the_inner_layer_fails_the_jump_defect(
        self, params_default, monkeypatch
    ):
        # 1.01 C in the inner balance moves the jump across the zone by 1%,
        # 2.5e-4 against the row's 1e-6
        real = asym.inner_Phi_ode

        def scaled(c, params, C, eta):
            return real(c, params, 1.01 * C, eta)

        monkeypatch.setattr(asym, "inner_Phi_ode", scaled)
        report = verify.residual_battery(params_default)
        assert [check.name for check in report.failures()] == ["jump_condition_defect"]


def _denominator_without_jump(params):
    """``_match_denominator`` without its a0 C/A term."""
    one_plus, phistar, lam = 1.0 + params.phistar, params.phistar, params.lam
    return lambda c: one_plus - phistar * math.log(c / lam)


def _unreachable(name):
    def fail(*args):
        raise AssertionError(f"called {name}")

    return fail


def _battery_check(params, name):
    return {c.name: c for c in verify.residual_battery(params).checks}[name]


class TestResidualScans:
    @given(box_params())
    def test_array_scans_match_scalar_loops_across_box(self, params):
        c = asym.solve_c(params).c
        for got, expected in (
            (verify.below_zone_pde_residual(params), below_zone_pde_residual_loop(params)),
            (verify.inner_psi_ode_residual(c, params), inner_psi_ode_residual_loop(c, params)),
        ):
            assert abs(got - expected) <= 1e-12
            assert (got <= 1e-6) == (expected <= 1e-6)

    def test_nan_drainage_sample_fails_its_check(self, params_default, monkeypatch):
        real = asym.below_zone_Phi
        z_bad = np.random.default_rng(0).uniform(0.0, 5.0, verify._DRAINAGE_SAMPLES)[17]

        def poisoned(z, t, params):
            return np.where(np.asarray(z) == z_bad, np.nan, real(z, t, params))

        monkeypatch.setattr(asym, "below_zone_Phi", poisoned)
        check = _battery_check(params_default, "below_zone_pde_residual")
        assert math.isnan(check.value)
        assert not check.passed

    def test_nan_inner_psi_sample_fails_its_check(self, params_default, monkeypatch):
        real = asym.inner_psi
        eta_bad = np.linspace(-3.0, 10.0, verify._INNER_PSI_SAMPLES)[50]

        def poisoned(eta, c, C):
            return np.where(np.asarray(eta) == eta_bad, np.nan, real(eta, c, C))

        monkeypatch.setattr(asym, "inner_psi", poisoned)
        check = _battery_check(params_default, "inner_psi_ode_residual")
        assert math.isnan(check.value)
        assert not check.passed


class TestCrossValidateSpeed:
    def test_report_mechanics_on_short_run(self, params_default, short_config):
        report = verify.cross_validate_speed(params_default, short_config)
        names = [c.name for c in report.checks]
        for expected in (
            "reaction_activated",
            "layer_resolution",
            "speed_gap_matched",
            "speed_gap_consistent",
            "hdot_flatness",
            "speed_fit_quality",
        ):
            assert expected in names
        by_name = {c.name: c for c in report.checks}
        assert by_name["reaction_activated"].passed  # h(2) ~ 1.7 > zstar
        assert by_name["layer_resolution"].tier == "info"

    def test_flags_when_reaction_never_activates(self, params_default):
        config = RunConfig(n_nodes=64, dt=5e-3, t_end=0.5, output_every=0.01, h0=0.1)
        report = verify.cross_validate_speed(params_default, config)
        flag = {c.name: c for c in report.checks}["reaction_activated"]
        assert not flag.passed
        assert flag.tier == "info"
        assert "never activated" in flag.note


#: Bound on |c_num - c_consistent| / c_consistent across the box at
#: t_end = 8. Over every fourth column_ensemble pool point the gap lies in
#: -0.22% ... +1.00% (median |gap| 0.15%); the two +1.00% points have the
#: smallest beta and sdot (14.6 and 10.4; 0.566 and 0.640). 1.5% is half as
#: much again as the largest gap; a 5% scale of the consistent denominator
#: moves that root by 4.9-5.1%.
_BOX_GAP_BOUND = 0.015

_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@pytest.fixture(scope="module")
def box_speeds():
    """(pool index, params, c_num) at every fourth column_ensemble pool point
    of the benchmark reference (read, never written), each simulated to
    t_end = 8 with n_nodes at the resolution rule (436-2668 nodes)."""
    pool = json.loads(_REFERENCE.read_text())["column_ensemble"]
    speeds = []
    for index in range(0, len(pool), 4):
        params = derive_params(**pool[index]["params"])
        config = RunConfig(t_end=8.0)
        config = replace(config, n_nodes=resolution_nodes(params, config))
        c_num, _ = pde.estimate_wave_speed(pde.run_simulation(params, config))
        speeds.append((index, params, c_num))
    return speeds


def _box_disagreements(box_speeds):
    """Each point where c_num is below the floor sdot (1 - phi0) or its gap
    to the consistent root exceeds _BOX_GAP_BOUND."""
    problems = []
    for index, params, c_num in box_speeds:
        floor = params.sdot * (1.0 - params.phi0)
        consistent = asym.solve_c_consistent(params).c
        gap = (c_num - consistent) / consistent
        if not c_num >= floor:
            problems.append(f"point {index}: c_num {c_num:.5f} below the floor {floor:.5f}")
        if not abs(gap) <= _BOX_GAP_BOUND:
            problems.append(f"point {index}: c_num {c_num:.5f} is {gap:+.2%} from {consistent:.5f}")
    return problems


def _primary_gaps(box_speeds):
    """c_num's gap to the primary root at each point: reported, never gated."""
    return ", ".join(
        f"{index}: {c_num / asym.solve_c(params).c - 1.0:+.0%}" for index, params, c_num in box_speeds
    )


class TestBoxAgreement:
    """The two answers to the front speed agree across the validated box,
    not only at the defaults."""

    def test_simulated_speed_is_above_the_floor_and_near_the_consistent_root(self, box_speeds):
        problems = _box_disagreements(box_speeds)
        assert not problems, f"{problems}; primary-root gaps {_primary_gaps(box_speeds)}"

    def test_scaled_consistent_denominator_fails_at_every_point(self, box_speeds, monkeypatch):
        # the sound roots are memoized first; the memo keys on the
        # denominator's build function, so the scaled one is solved afresh
        assert not _box_disagreements(box_speeds)
        real = asym._consistent_denominator

        def scaled(params):
            denominator = real(params)
            return lambda c: 1.05 * denominator(c)

        monkeypatch.setattr(asym, "_consistent_denominator", scaled)
        problems = _box_disagreements(box_speeds)
        assert len(problems) == len(box_speeds)
        assert all("% from" in problem for problem in problems)


@dataclass(frozen=True)
class CheckResult:
    """A report row as a frozen dataclass: the repr that
    ``verify.CheckResult`` keeps, which tools/match_digest.py hashes."""

    name: str
    value: float
    tolerance: float
    passed: bool
    tier: str = "primary"
    note: str = ""


class TestReportType:
    def test_rows_and_failures(self):
        report = verify.VerificationReport()
        report.add("ok_check", 1.0, 2.0, True)
        report.add("bad_check", 3.0, 2.0, False)
        report.add("fyi", 0.0, np.inf, False, tier="info")
        assert report.rows()[0] == ("ok_check", 1.0, 2.0, True)
        assert report.failures()
        assert [c.name for c in report.failures()] == ["bad_check"]
        text = str(report)
        assert "FAIL" in text and "ok_check" in text

    def test_rows_keep_the_dataclass_repr_and_are_immutable(self):
        rows = [
            ("ok_check", 1.0, 2.0, True),
            ("speed_gap_matched", 1.85, 0.15, False, "primary", "c_num=0.71007 c_asym=0.24945"),
            ("fyi", -0.0, math.inf, True, "info", "it's a 'quoted' note"),
            ("nan_check", math.nan, 1e-300, False, "info"),
        ]
        report = verify.VerificationReport()
        for row in rows:
            report.add(*row)
            assert repr(verify.CheckResult(*row)) == repr(CheckResult(*row))
        assert repr(report.checks) == repr([CheckResult(*row) for row in rows])
        for field in ("name", "value", "tolerance", "passed", "tier", "note"):
            with pytest.raises(AttributeError):
                setattr(report.checks[0], field, None)
