import math

import numpy as np
import pytest
from hypothesis import given

from basinwave import asymptotics as asym
from basinwave import verify
from basinwave.core import RunConfig, derive_params
from conftest import below_zone_pde_residual_loop, box_params, inner_psi_ode_residual_loop


@pytest.fixture(scope="module")
def short_config():
    # resolved for h(t_end) ~ 1.7 at the default parameters
    return RunConfig(n_nodes=288, dt=1e-3, t_end=2.0, output_every=0.05, h0=0.1)


class TestResidualBattery:
    def test_defaults_all_pass(self, params_default):
        report = verify.residual_battery(params_default)
        assert report.all_passed("primary"), str(report)

    def test_reaction_free_jump_is_exactly_zero(self, params_pure):
        report = verify.residual_battery(params_pure)
        jump = {c.name: c for c in report.checks}["jump_condition_defect"]
        assert jump.value == 0.0
        assert report.all_passed("primary"), str(report)

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
        # the supplied sdot and the halved and doubled sdot of the monotonicity check
        assert sorted(sdots) == [0.5, 1.0, 2.0]


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


class TestConvergenceStudy:
    def test_manufactured_ladder(self, params_pure):
        errors, orders = verify.manufactured_orders(params_pure)
        assert len(errors) == 3
        assert min(orders) >= 1.9

    def test_each_run_is_made_once(self, params_pure, monkeypatch):
        configs = []
        real_run = verify.pde.run_simulation

        def counting_run(params, config, **kwargs):
            configs.append(config)
            return real_run(params, config, **kwargs)

        monkeypatch.setattr(verify.pde, "run_simulation", counting_run)
        config = RunConfig(n_nodes=32, dt=0.01, t_end=0.1, output_every=0.05, h0=0.1)
        verify.convergence_study(params_pure, config)
        # three ladder levels plus the dt-halved run; level 0 is the dt-halving base
        assert len(configs) == 4
        assert len(set(configs)) == 4

    def test_study_entries_and_determinism(self, params_default):
        config = RunConfig(n_nodes=144, dt=2e-3, t_end=1.0, output_every=0.1, h0=0.1)
        a = verify.convergence_study(params_default, config)
        by_name = {c.name: c for c in a.checks}
        assert by_name["manufactured_order"].passed
        assert by_name["dt_halving_hdot_shift"].passed
        assert by_name["richardson_order_h"].tier == "info"
        b = verify.convergence_study(params_default, config)
        assert a.checks == b.checks


class TestReportType:
    def test_rows_and_failures(self):
        report = verify.VerificationReport()
        report.add("ok_check", 1.0, 2.0, True)
        report.add("bad_check", 3.0, 2.0, False)
        report.add("fyi", 0.0, np.inf, False, tier="info")
        assert report.rows()[0] == ("ok_check", 1.0, 2.0, True)
        assert not report.all_passed("primary")
        assert [c.name for c in report.failures("primary")] == ["bad_check"]
        text = str(report)
        assert "FAIL" in text and "ok_check" in text
