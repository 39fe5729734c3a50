import math
from dataclasses import replace

import numpy as np
import pytest

from basinwave import core, pde
from basinwave.core import (
    BasinState,
    RunConfig,
    derive_params,
    permeability_factor,
    reaction_rate,
)
from basinwave.errors import SolverError, StepRejected, ValidationError
from basinwave.pde import (
    TimeSeries,
    estimate_wave_speed,
    hdot,
    initial_state,
    run_simulation,
    step_predictor_corrector,
)
from conftest import alter_corrector, bottom_robin_residual


def linear_top_state(params, phi_z_top, h=2.0, n=101):
    """State whose one-sided top derivative equals phi_z_top exactly."""
    x = np.linspace(0.0, 1.0, n)
    phi = params.phi0 + phi_z_top * h * (x - 1.0)
    return BasinState(t=0.0, h=h, phi=phi, psi=np.full(n, params.psi0))


def flux_null_state(params, h=1.0, n=201):
    """phi0 * e^(z - h): annihilates the compaction flux factor."""
    x = np.linspace(0.0, 1.0, n)
    phi = params.phi0 * np.exp(h * (x - 1.0))
    return BasinState(t=0.0, h=h, phi=phi, psi=np.zeros(n))


class TestHdot:
    def test_zero_flux_gives_sedimentation_rate(self, params_default):
        state = linear_top_state(params_default, phi_z_top=params_default.phi0)
        assert hdot(state.phi, state.h, params_default) == pytest.approx(params_default.sdot, rel=1e-12)

    def test_inversion_recovers_wave_speed(self, params_default):
        p = params_default
        c = 0.7
        slope = p.phi0 + (c - p.sdot) * (1.0 - p.phi0) / p.lam
        state = linear_top_state(p, phi_z_top=slope)
        assert hdot(state.phi, state.h, p) == pytest.approx(c, rel=1e-12)

    def test_direct_arithmetic(self):
        p = derive_params(sdot=1.0, lam=1.0, phi0=0.5)
        state = linear_top_state(p, phi_z_top=0.25)
        # 1 + (1/0.5) * 1 * (0.25 - 0.5) = 0.5
        assert hdot(state.phi, state.h, p) == pytest.approx(0.5, rel=1e-12)


def transport_rates(state, params, hdot_value):
    """Interior (phi, psi) rates of the assembled sigma-transformed operators.

    Flux divergence plus the +x*hdot*d/dz advective correction, with the
    coefficients frozen at the state itself; the reaction terms are not
    included.
    """
    phi, h = state.phi, state.h
    x = np.linspace(0.0, 1.0, phi.size)
    dx = 1.0 / (x.size - 1)
    phi_half, k_half, adv = pde._frozen_coefficients(phi, h, hdot_value, params, x, dx)
    dphi = pde._apply_tridiag(*pde._phi_operator(k_half, adv, h, params, dx), phi)
    lo, di, up, _row0 = pde._psi_operator(phi, phi_half, k_half, adv, h, params, dx)
    return dphi, pde._apply_tridiag(lo, di, up, state.psi)


class TestSigmaTransformRates:
    def test_uniform_phi_reduces_to_reaction_source(self, params_default):
        # a uniform column carries no net flux, so transport leaves only the
        # reaction exchange terms
        p = params_default
        n = 120
        state = BasinState(t=0.0, h=1.5, phi=np.full(n, p.phi0), psi=np.full(n, p.psi0))
        dphi, dpsi = transport_rates(state, p, hdot_value=0.4)
        assert np.max(np.abs(dphi)) <= 1e-12
        assert np.max(np.abs(dpsi)) <= 1e-12

    def test_flux_terms_vanish_on_manufactured_profile(self, params_default):
        # residual against the pure advective correction must be O(dx^2)
        p = params_default
        h = 1.0
        resid = {}
        for n in (101, 201, 401):
            state = flux_null_state(p, h=h, n=n)
            dphi, _ = transport_rates(state, p, hdot_value=p.sdot)
            advective = np.linspace(0.0, 1.0, n) * p.sdot * state.phi
            resid[n] = np.max(np.abs(dphi - advective[1:-1]))
        for n in resid:
            dx = 1.0 / (n - 1)
            assert resid[n] <= 2.0 * dx**2
        assert resid[101] / resid[401] > 8.0  # at least ~order 1.5 under 4x refinement


class TestBoundaryClosure:
    def test_exponential_profile_satisfies_bottom_row(self, params_default):
        # phi = K e^z has phi_z = phi identically; the second-order one-sided
        # row must agree to its truncation order
        for n in (65, 129, 257):
            dx = 1.0 / (n - 1)
            h = 1.0
            x = np.linspace(0.0, 1.0, n)
            for k in (0.2, 0.7):
                phi = k * np.exp(x * h)
                row = -(3.0 + 2.0 * dx * h) * phi[0] + 4.0 * phi[1] - phi[2]
                # row is the Robin stencil scaled by 2*dx*h
                residual = abs(row) / (2.0 * dx * h)
                assert residual <= 10.0 * dx**2 * np.max(np.abs(phi))

    def test_quasi_steady_bottom_region(self, params_default):
        # before permeability shuts the bottom down, the column relaxes to
        # the flux-free state and the discrete Robin defect is O(dx^2)
        config = RunConfig(n_nodes=128, dt=2e-3, t_end=0.8, output_every=0.2, h0=0.1)
        series = run_simulation(params_default, config)
        state = series.final_state
        dx = 1.0 / (config.n_nodes - 1)
        assert bottom_robin_residual(state, params_default) <= 10.0 * dx**2 * np.max(
            np.abs(state.phi)
        )


class TestStep:
    def test_zero_reactant_stays_exactly_zero(self, params_pure):
        config = RunConfig(n_nodes=64, dt=5e-3, t_end=1.0, h0=0.1)
        state = initial_state(params_pure, config)
        for _ in range(20):
            state = step_predictor_corrector(state, config.dt, params_pure)
        assert np.all(state.psi == 0.0)
        assert not np.all(state.phi == params_pure.phi0)  # compaction acted

    def test_dirichlet_top_exact_every_step(self, params_default):
        config = RunConfig(n_nodes=64, dt=5e-3, t_end=1.0, h0=0.1)
        state = initial_state(params_default, config)
        for _ in range(30):
            state = step_predictor_corrector(state, config.dt, params_default)
            assert state.phi[-1] == params_default.phi0
            assert state.psi[-1] == params_default.psi0

    def test_clamped_reaction_is_identity_on_psi(self, params_default, monkeypatch):
        # shallow basin: exponent <= -_EXP_CLAMP everywhere, so the reaction
        # factor rounds to exactly 1 and psi advances by transport alone
        p = derive_params(a0=0.0, zstar=10.0)
        config = RunConfig(n_nodes=64, dt=5e-3, t_end=1.0, h0=0.1)
        assert math.exp(-math.exp(-core._EXP_CLAMP) * config.dt) == 1.0
        state = initial_state(p, config)
        for _ in range(5):
            state = step_predictor_corrector(state, config.dt, p)
        stepped = step_predictor_corrector(state, config.dt, p)

        monkeypatch.setattr(
            pde, "reaction_rate", lambda z, h, params: np.zeros(np.shape(z))
        )
        stepped_no_reaction = step_predictor_corrector(state, config.dt, p)
        assert np.array_equal(stepped.psi, stepped_no_reaction.psi)
        assert np.array_equal(stepped.phi, stepped_no_reaction.phi)

    def test_shallow_reduction_is_bitwise(self):
        # a0 = 0 and clamped reaction: phi must not feel psi at all
        base = dict(n_nodes=64, dt=5e-3, t_end=1.0, h0=0.1)
        with_psi = run_simulation(derive_params(a0=0.0, zstar=10.0), RunConfig(**base))
        without = run_simulation(derive_params(a0=0.0, psi0=0.0, zstar=10.0), RunConfig(**base))
        assert np.array_equal(with_psi.final_state.phi, without.final_state.phi)
        assert with_psi.final_state.h == without.final_state.h

    @staticmethod
    def planted_state(params, value, n=64, node=50):
        """A uniform column, steady under transport, with one reactant node
        set to ``value``. The whole column lies above the reaction front
        (h < zstar), and a step of 1e-10 moves that node by about 1e-17."""
        psi = np.full(n, params.psi0)
        psi[node] = value
        return BasinState(t=0.0, h=0.5, phi=np.full(n, params.phi0), psi=psi)

    def test_dust_undershoot_is_zeroed(self, params_default):
        p = params_default
        stepped = step_predictor_corrector(self.planted_state(p, -1e-15 * p.psi0), 1e-10, p)
        assert stepped.psi[50] == 0.0
        assert stepped.psi.min() == 0.0

    def test_undershoot_beyond_dust_rejects_the_step(self, params_default):
        p = params_default
        with pytest.raises(StepRejected, match="reactant went negative"):
            step_predictor_corrector(self.planted_state(p, -1e-13 * p.psi0), 1e-10, p)

    def test_no_dust_allowance_without_reactant(self):
        # at psi0 = 0 the dust band is empty: any undershoot is a negative
        p = derive_params(psi0=0.0)
        with pytest.raises(StepRejected, match="reactant went negative"):
            step_predictor_corrector(self.planted_state(p, -1e-30), 1e-10, p)

    @pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
    def test_sweep_guard_rejects_nonpositive_coefficients(self, params_default, bad):
        config = RunConfig(n_nodes=64, dt=5e-3, t_end=1.0, h0=0.1)
        state = initial_state(params_default, config)
        bad_coeff = state.phi.copy()
        bad_coeff[10] = bad
        x = np.linspace(0.0, 1.0, config.n_nodes)
        dx = x[1] - x[0]
        with pytest.raises(StepRejected):
            pde._sweep(
                x, dx, state.phi, state.psi, config.dt, 1.0,
                bad_coeff, state.h, 0.0, state.h, params_default, None,
            )

    @pytest.mark.parametrize(
        "row, value, message",
        [(0, 0.0, "pivot"), (0, np.nan, "pivot"), (1, 0.0, "singular")],
        ids=["zero-pivot", "nan-pivot", "singular"],
    )
    def test_solve_rejects_unusable_system(self, row, value, message):
        # up[0] becomes the elimination pivot a12; lo = up = 0 with di = 1
        # makes grid row 2 of I - L all zeros
        n = 6
        lo = np.full(n - 2, -1.0)
        di = np.full(n - 2, 2.0)
        up = np.full(n - 2, -1.0)
        up[row] = value
        if message == "singular":
            lo[row], di[row] = 0.0, 1.0
        with pytest.raises(StepRejected, match=message):
            pde._solve_closed(1.0, lo, di, up, (1.0, 0.0, 1.0), np.ones(n))


def _dense_reference_sweep(x, phi_n, psi_n, dt, theta, phi_c, h_c, hdot_c, h_bc, p):
    """The sweep's linear systems assembled densely, bottom rows un-eliminated.

    Written row by row from the discretization in the pde module docstring:
    half-node conservative fluxes plus the x*hdot*d/dz advective correction,
    the full Robin row (-3 - 2*dx*h, 4, -1) for phi, and the three-entry
    one-sided transport row for psi, solved with a dense LU.
    """
    n = x.size
    dx = 1.0 / (n - 1)
    inv = 1.0 / (h_c * dx)
    k_half = permeability_factor(0.5 * (phi_c[:-1] + phi_c[1:]), p)
    f_half = k_half * ((phi_c[1:] - phi_c[:-1]) * inv - 0.5 * (phi_c[:-1] + phi_c[1:]))
    mu = p.lam / ((1.0 - p.phi0) * h_c * dx)
    lphi = np.zeros((n, n))
    lpsi = np.zeros((n, n))
    for i in range(1, n - 1):
        adv = x[i] * hdot_c / (2.0 * h_c * dx)
        a = p.lam * inv
        lphi[i, i - 1] = a * k_half[i - 1] * (inv + 0.5) - adv
        lphi[i, i] = -a * (k_half[i] * (inv + 0.5) + k_half[i - 1] * (inv - 0.5))
        lphi[i, i + 1] = a * k_half[i] * (inv - 0.5) + adv
        lpsi[i, i - 1] = 0.5 * mu * f_half[i - 1] - adv
        lpsi[i, i] = -0.5 * mu * (f_half[i] - f_half[i - 1])
        lpsi[i, i + 1] = -0.5 * mu * f_half[i] + adv
    k_nodal = permeability_factor(phi_c[:3], p)
    fluxes = [
        k_nodal[0] * ((-3.0 * phi_c[0] + 4.0 * phi_c[1] - phi_c[2]) * inv / 2.0 - phi_c[0]),
        k_nodal[1] * ((phi_c[2] - phi_c[0]) * inv / 2.0 - phi_c[1]),
        k_nodal[2] * ((phi_c[3] - phi_c[1]) * inv / 2.0 - phi_c[2]),
    ]
    lpsi[0, :3] = 0.5 * mu * np.array([3.0 * fluxes[0], -4.0 * fluxes[1], fluxes[2]])
    eye = np.eye(n)
    rr = reaction_rate(x * h_c, h_c, p)

    mat = eye - theta * dt * lpsi
    mat[-1] = eye[-1]
    rhs = psi_n + (1.0 - theta) * dt * (lpsi @ psi_n)
    rhs[-1] = p.psi0
    psi_t = np.linalg.solve(mat, rhs)
    source = (p.a0 / p.beta) * psi_t * -np.expm1(-rr * dt) / dt
    psi_new = psi_t * np.exp(-rr * dt)
    psi_new[-1] = p.psi0

    mat = eye - theta * dt * lphi
    mat[0] = 0.0
    mat[0, :3] = (-3.0 - 2.0 * dx * h_bc, 4.0, -1.0)
    mat[-1] = eye[-1]
    rhs = phi_n + (1.0 - theta) * dt * (lphi @ phi_n) + dt * source
    rhs[0] = 0.0
    rhs[-1] = p.phi0
    return np.linalg.solve(mat, rhs), psi_new


class TestTridiagonalElimination:
    @pytest.fixture(scope="class")
    def reactive_states(self, params_default):
        # past activation (h > zstar), so psi has a reaction front
        config = RunConfig(n_nodes=256, dt=5e-3, t_end=1.5, h0=0.1, output_every=0.1)
        old = run_simulation(params_default, replace(config, t_end=1.4)).final_state
        return old, run_simulation(params_default, config).final_state

    # a0 = 0 keeps the reactant moving but gives the phi solve an exactly
    # zero source, the pure-compaction limit of the same sweep
    @pytest.mark.parametrize("a0", [1.0, 0.0], ids=["reactive", "compaction"])
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_sweep_matches_dense_unreduced_solve(
        self, params_default, reactive_states, theta, a0
    ):
        p = replace(params_default, a0=a0)
        old, coeff = reactive_states
        x = np.linspace(0.0, 1.0, old.phi.size)
        dx = 1.0 / (x.size - 1)
        dt = 0.02
        hdot_c = hdot(coeff.phi, coeff.h, p)
        h_c = 0.5 * (old.h + coeff.h)
        h_bc = old.h + dt * hdot_c
        assert old.psi.max() > 0.0 and old.psi.min() < 0.5 * p.psi0
        args = (x, old.phi, old.psi, dt, theta, coeff.phi, h_c, hdot_c, h_bc)
        phi, psi = pde._sweep(x, dx, *args[1:], p, None)
        phi_ref, psi_ref = _dense_reference_sweep(*args, p)
        assert np.max(np.abs(phi - phi_ref)) <= 1e-12 * np.max(np.abs(phi_ref))
        assert np.max(np.abs(psi - psi_ref)) <= 1e-12 * np.max(np.abs(psi_ref))


class TestAdvectionCorrection:
    def test_sign_reversal_breaks_manufactured_step(self, params_pure, monkeypatch):
        from basinwave.verify import manufactured_step_error

        err_correct = manufactured_step_error(params_pure, 96)
        frozen = pde._frozen_coefficients

        def reversed_advection(*args):
            phi_half, k_half, adv = frozen(*args)
            return phi_half, k_half, -adv

        monkeypatch.setattr(pde, "_frozen_coefficients", reversed_advection)
        err_flipped = manufactured_step_error(params_pure, 96)
        assert err_flipped > 10.0 * err_correct


class TestRunSimulation:
    def test_horizon_shorter_than_dt_keeps_only_initial_sample(self, params_default):
        config = RunConfig(n_nodes=64, dt=0.5, t_end=0.3, h0=0.1, output_every=0.1)
        series = run_simulation(params_default, config)
        assert series.t.size == 1
        assert series.t[0] == 0.0
        assert series.h[0] == config.h0

    def test_deterministic_bitwise(self, params_default):
        config = RunConfig(n_nodes=64, dt=5e-3, t_end=1.0, h0=0.1, output_every=0.1)
        a = run_simulation(params_default, config)
        b = run_simulation(params_default, config)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.hdot, b.hdot)
        assert np.array_equal(a.final_state.phi, b.final_state.phi)

    def test_sampling_cadence_and_snapshots(self, params_default):
        config = RunConfig(n_nodes=64, dt=0.05, t_end=1.0, h0=0.1, output_every=0.25)
        series = run_simulation(params_default, config)
        assert series.t == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-9)
        assert isinstance(series.final_state, BasinState)
        assert series.final_state.t == pytest.approx(1.0, abs=1e-9)

    def test_driver_halves_dt_on_rejection(self, params_default, monkeypatch):
        calls = {"n": 0}
        real_step = pde.step_predictor_corrector

        def flaky(state, dt, params, **kwargs):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise StepRejected("synthetic rejection")
            return real_step(state, dt, params, **kwargs)

        monkeypatch.setattr(pde, "step_predictor_corrector", flaky)
        config = RunConfig(n_nodes=64, dt=0.2, t_end=0.4, h0=0.1, output_every=0.1)
        series = run_simulation(params_default, config)
        assert calls["n"] > 2
        assert series.final_state.t > 0.3

    def test_diverged_corrector_stops_the_run(self, params_default, monkeypatch):
        alter_corrector(monkeypatch, lambda phi, psi: (10.0 * phi, psi))
        config = RunConfig(n_nodes=64, dt=2e-3, t_end=0.01, h0=0.1)
        with pytest.raises(SolverError, match=r"^corrector diverged at t = 0: "):
            run_simulation(params_default, config)

    # max() drops a NaN that is not its first argument, so a NaN in either
    # field must be caught before the update norm is taken
    @pytest.mark.parametrize("field", ["phi", "psi"])
    def test_non_finite_corrector_fields_stop_the_run(self, params_default, monkeypatch, field):
        self.assert_poisoned_corrector_stops(params_default, monkeypatch, field, np.nan)

    # the update norm's scale max|new| is what sees an inf
    @pytest.mark.parametrize("bad", [np.inf, -np.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize("field", ["phi", "psi"])
    def test_infinite_corrector_fields_stop_the_run(self, params_default, monkeypatch, field, bad):
        self.assert_poisoned_corrector_stops(params_default, monkeypatch, field, bad)

    @staticmethod
    def assert_poisoned_corrector_stops(params, monkeypatch, field, bad):
        def poison(phi, psi):
            fields = {"phi": phi.copy(), "psi": psi.copy()}
            fields[field][3] = bad
            return fields["phi"], fields["psi"]

        alter_corrector(monkeypatch, poison)
        config = RunConfig(n_nodes=64, dt=2e-3, t_end=0.01, h0=0.1)
        with pytest.raises(SolverError, match=r"^non-finite fields after step at t = 0$"):
            run_simulation(params, config)


class TestExtrapolatedPredictor:
    CONFIG = RunConfig(n_nodes=64, dt=5e-3, t_end=0.5, h0=0.1, output_every=0.1)

    @classmethod
    def history(cls, params):
        """Two accepted states, stepped without history from the start."""
        previous = initial_state(params, cls.CONFIG)
        for _ in range(3):
            previous = step_predictor_corrector(previous, cls.CONFIG.dt, params)
        return previous, step_predictor_corrector(previous, cls.CONFIG.dt, params)

    @staticmethod
    def count_sweeps(monkeypatch):
        """Count every ``_sweep`` call and the backward-Euler ones among them."""
        counts = {"sweeps": 0, "backward_euler": 0}
        real_sweep = pde._sweep

        def sweep(*args):
            counts["sweeps"] += 1
            counts["backward_euler"] += args[5] == 1.0
            return real_sweep(*args)

        monkeypatch.setattr(pde, "_sweep", sweep)
        return counts

    @staticmethod
    def spoil_extrapolated_attempts(monkeypatch, failure):
        """Make every extrapolated attempt fail: its corrector sweeps (those
        before the step's backward-Euler sweep) either raise StepRejected
        or return a porosity that makes the corrector diverge."""
        seen = {"spoiled": 0, "backward_euler": 0}
        in_fallback = {"now": False}
        real_step, real_sweep = pde.step_predictor_corrector, pde._sweep

        def step(*args, **kwargs):
            in_fallback["now"] = False
            return real_step(*args, **kwargs)

        def sweep(*args):
            if args[5] == 1.0:
                in_fallback["now"] = True
                seen["backward_euler"] += 1
            phi, psi = real_sweep(*args)
            if in_fallback["now"]:
                return phi, psi
            seen["spoiled"] += 1
            if failure == "rejected":
                raise StepRejected("synthetic rejection")
            return 10.0 * phi, psi

        monkeypatch.setattr(pde, "step_predictor_corrector", step)
        monkeypatch.setattr(pde, "_sweep", sweep)
        return seen

    # a run of k accepted, unrejected steps: only the first, which has no
    # history, runs the backward-Euler sweep; 4000 steps at the defaults
    @pytest.mark.parametrize("config, steps", [(CONFIG, 100), (RunConfig(), 4000)], ids=["small", "default"])
    def test_run_makes_at_most_two_sweeps_per_step(self, params_default, monkeypatch, config, steps):
        counts = self.count_sweeps(monkeypatch)
        series = run_simulation(params_default, config)
        assert series.final_state.t == pytest.approx(steps * config.dt, abs=1e-9)
        assert counts["backward_euler"] == 1
        assert counts["sweeps"] <= 2 * steps + 1

    @pytest.mark.parametrize("failure", ["rejected", "diverged"])
    def test_failed_extrapolation_is_retaken_without_history(
        self, params_default, monkeypatch, failure
    ):
        previous, state = self.history(params_default)
        dt = self.CONFIG.dt
        expected = step_predictor_corrector(state, dt, params_default)
        seen = self.spoil_extrapolated_attempts(monkeypatch, failure)
        stepped = pde.step_predictor_corrector(state, dt, params_default, previous=previous)
        assert seen["spoiled"] >= 1
        assert seen["backward_euler"] == 1
        assert stepped.t == expected.t
        assert stepped.h == expected.h
        assert np.array_equal(stepped.phi, expected.phi)
        assert np.array_equal(stepped.psi, expected.psi)

    @pytest.mark.parametrize("failure", ["rejected", "diverged"])
    def test_driver_keeps_dt_when_extrapolation_fails(self, params_default, monkeypatch, failure):
        # every step retaken from backward Euler is the stepper without history
        calls = {"n": 0}
        real_step = pde.step_predictor_corrector

        def without_history(state, dt, params, previous=None):
            calls["n"] += 1
            return real_step(state, dt, params)

        with monkeypatch.context() as patch:
            patch.setattr(pde, "step_predictor_corrector", without_history)
            expected = run_simulation(params_default, self.CONFIG)
        assert calls["n"] == 100

        seen = self.spoil_extrapolated_attempts(monkeypatch, failure)
        series = run_simulation(params_default, self.CONFIG)
        assert seen["backward_euler"] == 100
        assert seen["spoiled"] >= 99
        assert np.array_equal(series.t, expected.t)
        assert np.array_equal(series.h, expected.h)
        assert np.array_equal(series.final_state.phi, expected.final_state.phi)
        assert np.array_equal(series.final_state.psi, expected.final_state.psi)

    def test_prediction_after_rejection_uses_the_real_interval(self, params_default, monkeypatch):
        steps, predictions = [], []
        real_step, real_extrapolate = pde.step_predictor_corrector, pde._extrapolate

        def flaky(state, dt, params, previous=None):
            steps.append((state, previous, dt))
            if len(steps) == 4:
                raise StepRejected("synthetic rejection")
            return real_step(state, dt, params, previous=previous)

        def extrapolate(state, previous, dt):
            predicted = real_extrapolate(state, previous, dt)
            predictions.append((state, previous, dt, predicted))
            return predicted

        monkeypatch.setattr(pde, "step_predictor_corrector", flaky)
        monkeypatch.setattr(pde, "_extrapolate", extrapolate)
        config = replace(self.CONFIG, t_end=0.03)
        run_simulation(params_default, config)

        # the rejected attempt and its retry share the state and its history
        (state, previous, dt), (retry_state, retry_previous, retry_dt) = steps[3:5]
        assert retry_state is state and retry_previous is previous
        assert retry_dt == 0.5 * dt == 0.5 * config.dt
        # calls 2 and 3 predicted at r = 1; call 4 was rejected before it
        # could, so the third prediction is the retry's
        assert [dt / (s.t - prev.t) for s, prev, dt, _ in predictions[:2]] == pytest.approx([1.0, 1.0])
        state, previous, dt, (phi_p, psi_p, h_p) = predictions[2]
        assert state is retry_state and dt == retry_dt
        r = dt / (state.t - previous.t)
        assert r == pytest.approx(0.5, rel=1e-12)
        assert h_p == state.h + r * (state.h - previous.h)
        assert np.array_equal(phi_p, state.phi + r * (state.phi - previous.phi))
        assert np.array_equal(psi_p, state.psi + r * (state.psi - previous.psi))

    @pytest.mark.parametrize("offset", [0.0, 1e-3], ids=["same-time", "later"])
    def test_previous_must_be_earlier(self, params_default, offset):
        previous, state = self.history(params_default)
        not_earlier = replace(previous, t=state.t + offset)
        with pytest.raises(ValidationError, match="is not earlier than the state"):
            step_predictor_corrector(state, self.CONFIG.dt, params_default, previous=not_earlier)

    def test_previous_must_have_the_same_node_count(self, params_default):
        previous, state = self.history(params_default)
        coarser = replace(previous, phi=previous.phi[::3], psi=previous.psi[::3])
        with pytest.raises(ValidationError, match="previous state has 22 nodes, the state has 64"):
            step_predictor_corrector(state, self.CONFIG.dt, params_default, previous=coarser)


class TestEstimateWaveSpeed:
    @staticmethod
    def _series(t, h):
        t = np.asarray(t, dtype=float)
        h = np.asarray(h, dtype=float)
        return TimeSeries(t=t, h=h, hdot=np.zeros_like(t))

    def test_exact_line(self):
        t = np.linspace(0.0, 10.0, 60)
        c, quality = estimate_wave_speed(self._series(t, 0.5 * t + 1.0), 0.3)
        assert c == pytest.approx(0.5, rel=1e-12)
        assert quality == pytest.approx(1.0, abs=1e-12)

    def test_constant_track(self):
        t = np.linspace(0.0, 10.0, 60)
        c, quality = estimate_wave_speed(self._series(t, np.full_like(t, 2.5)), 0.3)
        assert c == pytest.approx(0.0, abs=1e-14)
        assert quality == 1.0

    def test_noisy_line(self):
        rng = np.random.default_rng(42)
        t = np.linspace(0.0, 10.0, 200)
        noise = rng.uniform(-1e-6, 1e-6, t.size)
        c, quality = estimate_wave_speed(self._series(t, 0.5 * t + 1.0 + noise), 0.3)
        assert abs(c - 0.5) <= 1e-4
        assert quality > 0.9999

    def test_insufficient_samples(self):
        t = np.linspace(0.0, 1.0, 12)
        with pytest.raises(ValidationError):
            estimate_wave_speed(self._series(t, t), 0.3)


class TestSampleBound:
    @pytest.mark.parametrize(
        "dt, t_end, output_every",
        [(0.005, 1.0, 0.05), (0.05, 1.0, 0.25), (0.03, 1.0, 0.05), (0.5, 0.3, 0.1)],
        ids=["cadence", "coarse", "off-cadence-dt", "t_end-below-dt"],
    )
    def test_bounds_the_samples_a_run_returns(self, params_default, dt, t_end, output_every):
        config = RunConfig(n_nodes=64, dt=dt, t_end=t_end, h0=0.1, output_every=output_every)
        n = run_simulation(params_default, config).t.size
        assert n <= pde.sample_bound(config)
        if dt <= output_every and math.isclose(output_every / dt, round(output_every / dt)):
            assert n == pde.sample_bound(config)

    def test_short_horizon_fails_the_speed_window(self):
        # 21 samples at most, so the 0.3 window holds 7 < 10
        short = RunConfig(n_nodes=288, dt=0.002, t_end=1.0, output_every=0.05)
        assert pde.sample_bound(short) == 21
        with pytest.raises(ValidationError, match="got 7 \\(21 total"):
            pde.speed_window(pde.sample_bound(short))
        assert pde.speed_window(pde.sample_bound(replace(short, t_end=2.0))) == 13

    def test_infinite_ratio_is_an_integer(self):
        config = RunConfig(n_nodes=64, t_end=1e308, output_every=1e-300)
        assert pde.sample_bound(config) == 2**53 + 1


class TestIndependentOracle:
    def test_method_of_lines_cross_solver(self, params_pure):
        """Reaction-free run reproduced by an unrelated discretization.

        Spatial terms in non-conservative chain-rule form (K' phi_z
        (phi_z - phi) + K (phi_zz - phi_z)) on reconstructed boundary
        values, integrated by a library adaptive implicit solver; nothing
        is shared with the production stepper beyond the grid.
        """
        from scipy.integrate import solve_ivp

        p = params_pure
        n = 240
        x = np.linspace(0.0, 1.0, n)
        dx = x[1] - x[0]
        h0, t_end = 0.1, 3.0

        def unpack(y):
            phi = np.empty(n)
            phi[1:-1] = y[:-1]
            h = y[-1]
            phi[-1] = p.phi0
            phi[0] = (4.0 * phi[1] - phi[2]) / (3.0 + 2.0 * dx * h)
            return phi, h

        def rhs(_t, y):
            phi, h = unpack(y)
            k = np.exp(p.m * np.log(phi / p.phi0))
            phi_z = np.gradient(phi, dx * h)
            phi_zz = np.empty(n)
            phi_zz[1:-1] = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / (dx * h) ** 2
            phi_zz[0] = phi_zz[1]
            phi_zz[-1] = phi_zz[-2]
            k_prime = p.m * k / phi
            hd = p.sdot + p.lam / (1.0 - p.phi0) * k[-1] * (
                (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * dx * h) - phi[-1]
            )
            dphi = (
                p.lam * (k_prime * phi_z * (phi_z - phi) + k * (phi_zz - phi_z))
                + x * hd * phi_z
            )
            return np.concatenate((dphi[1:-1], [hd]))

        y0 = np.concatenate((np.full(n - 2, p.phi0), [h0]))
        sol = solve_ivp(
            rhs, (0.0, t_end), y0, method="LSODA", rtol=1e-8, atol=1e-10
        )
        assert sol.success
        phi_mol, h_mol = unpack(sol.y[:, -1])

        config = RunConfig(n_nodes=n, dt=1e-3, t_end=t_end, output_every=0.1, h0=h0)
        series = run_simulation(p, config)
        assert abs(h_mol - series.h[-1]) / series.h[-1] <= 1e-3
        assert np.max(np.abs(phi_mol - series.final_state.phi)) <= 1e-4
        hdot_mol = rhs(t_end, sol.y[:, -1])[-1]
        assert abs(hdot_mol - series.hdot[-1]) / series.hdot[-1] <= 5e-3


def test_pure_compaction_reaches_constant_speed(sim_pure):
    n = sim_pure.hdot.size
    k = int(np.ceil(0.3 * n))
    window = sim_pure.hdot[n - k :]
    spread = (window.max() - window.min()) / abs(window.mean())
    assert spread <= 1e-2

