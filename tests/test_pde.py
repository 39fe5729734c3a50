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
from conftest import (
    alter_corrector,
    bottom_robin_residual,
    flux_null_defects,
    spatial_order_ladder,
)


def linear_top_state(params, phi_z_top, h=2.0, n=101):
    """State whose one-sided top derivative equals phi_z_top exactly."""
    x = np.linspace(0.0, 1.0, n)
    phi = params.phi0 + phi_z_top * h * (x - 1.0)
    return BasinState(t=0.0, h=h, phi=phi, psi=np.full(n, params.psi0))


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
        resid = {n: flux_null_defects(params_default, n)[0] for n in (101, 201, 401)}
        for n in resid:
            dx = 1.0 / (n - 1)
            assert resid[n] <= 2.0 * dx**2
        assert resid[101] / resid[401] > 8.0  # at least ~order 1.5 under 4x refinement


class TestBoundaryClosure:
    def test_exponential_profile_satisfies_bottom_row(self, params_pure):
        # phi = phi0 e^(z - 1) has phi_z = phi identically; the production
        # one-sided row must agree to its truncation order
        for n in (65, 129, 257):
            dx = 1.0 / (n - 1)
            for phi0 in (0.2, 0.7):
                _, robin, _ = flux_null_defects(replace(params_pure, phi0=phi0), n)
                # phi0 is max|phi| of the profile
                assert robin <= 10.0 * dx**2 * phi0

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

    def test_nonpositive_final_porosity_rejects_the_step(self, params_default, monkeypatch):
        # a low porosity node that the last of the three sweeps zeroes: the
        # update (about 2e-3) passes, and no earlier sweep feeds the zero to
        # _sweep's coefficient guard
        p = params_default
        phi = np.full(64, p.phi0)
        phi[50] = 1e-3
        state = BasinState(t=0.0, h=0.5, phi=phi, psi=np.full(64, p.psi0))
        sweeps = {"n": 0}

        def zero_last(phi, psi):
            sweeps["n"] += 1
            if sweeps["n"] == 3:
                phi = phi.copy()
                phi[50] = 0.0
            return phi, psi

        alter_corrector(monkeypatch, zero_last)
        with pytest.raises(StepRejected, match="porosity went non-positive"):
            step_predictor_corrector(state, 1e-10, p)
        assert sweeps["n"] == 3

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
                x, dx, state.phi, state.psi, config.dt,
                bad_coeff, state.h, 0.0, state.h, params_default,
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


def _dense_reference_sweep(x, phi_n, psi_n, dt, phi_c, h_c, hdot_c, h_bc, p):
    """The trapezoidal sweep's linear systems assembled densely, bottom rows
    un-eliminated.

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

    # Strang split: half-step reaction, transport, half-step reaction; the
    # source is the reactant both halves consume, per unit time
    psi_pre = psi_n * np.exp(-rr * dt / 2.0)
    mat = eye - 0.5 * dt * lpsi
    mat[-1] = eye[-1]
    rhs = psi_pre + 0.5 * dt * (lpsi @ psi_pre)
    rhs[-1] = p.psi0
    psi_t = np.linalg.solve(mat, rhs)
    psi_new = psi_t * np.exp(-rr * dt / 2.0)
    source = (p.a0 / p.beta) * ((psi_n - psi_pre) + (psi_t - psi_new)) / dt
    psi_new[-1] = p.psi0

    mat = eye - 0.5 * dt * lphi
    mat[0] = 0.0
    mat[0, :3] = (-3.0 - 2.0 * dx * h_bc, 4.0, -1.0)
    mat[-1] = eye[-1]
    rhs = phi_n + 0.5 * dt * (lphi @ phi_n) + dt * source
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
    def test_sweep_matches_dense_unreduced_solve(self, params_default, reactive_states, a0):
        p = replace(params_default, a0=a0)
        old, coeff = reactive_states
        x = np.linspace(0.0, 1.0, old.phi.size)
        dx = 1.0 / (x.size - 1)
        dt = 0.02
        hdot_c = hdot(coeff.phi, coeff.h, p)
        h_c = 0.5 * (old.h + coeff.h)
        h_bc = old.h + dt * hdot_c
        assert old.psi.max() > 0.0 and old.psi.min() < 0.5 * p.psi0
        args = (x, old.phi, old.psi, dt, coeff.phi, h_c, hdot_c, h_bc)
        phi, psi = pde._sweep(x, dx, *args[1:], p)
        phi_ref, psi_ref = _dense_reference_sweep(*args, p)
        assert np.max(np.abs(phi - phi_ref)) <= 1e-12 * np.max(np.abs(phi_ref))
        assert np.max(np.abs(psi - psi_ref)) <= 1e-12 * np.max(np.abs(psi_ref))


def _advection_times(factor):
    real = pde._frozen_coefficients

    def mutated(*args):
        phi_half, k_half, adv = real(*args)
        return phi_half, k_half, factor * adv

    return mutated


class TestSpatialOrderGuard:
    # each mutation must break criterion 8's spatial check (order >= 1.9)
    @pytest.mark.parametrize(
        "name, mutated",
        [
            ("_frozen_coefficients", _advection_times(-1.0)),
            ("_frozen_coefficients", _advection_times(0.0)),
            ("_robin_row", lambda dx, h: (-2.0 - 2.0 * dx * h, 2.0, 0.0)),
        ],
        ids=["advection-flipped", "advection-dropped", "first-order-robin"],
    )
    def test_mutation_fails_criterion_8_spatial_check(self, params_default, monkeypatch, name, mutated):
        monkeypatch.setattr(pde, name, mutated)
        _, orders = spatial_order_ladder(params_default)
        assert min(orders) < 1.9


class TestRunSimulation:
    def test_dt_longer_than_horizon_lands_on_t_end(self, params_default):
        # no step crosses a sample time, so every step is shortened to one
        config = RunConfig(n_nodes=64, dt=0.5, t_end=0.3, h0=0.1, output_every=0.1)
        series = run_simulation(params_default, config)
        assert series.t == pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-12)
        assert series.h[0] == config.h0
        assert series.final_state.t == pytest.approx(0.3, abs=1e-12)

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

    # a corrector that diverges on every attempt is rejected like any other
    # failed step, down to the dt/1024 floor
    def test_diverged_corrector_stops_the_run(self, params_default, monkeypatch):
        alter_corrector(monkeypatch, lambda phi, psi: (10.0 * phi, psi))
        config = RunConfig(n_nodes=64, dt=2e-3, t_end=0.01, h0=0.1)
        with pytest.raises(
            SolverError,
            match=r"^time step collapsed below 1\.953e-06 at t = 0: corrector update \S+ too large",
        ):
            run_simulation(params_default, config)

    def test_too_large_start_dt_is_halved(self, params_default):
        # dt = 1.0 makes the first corrector diverge; halving it twice joins
        # the run started at dt = 0.25 bit for bit
        config = RunConfig(n_nodes=288, dt=1.0, t_end=2.0, output_every=1.0)
        halved = run_simulation(params_default, config)
        started = run_simulation(params_default, replace(config, dt=0.25))
        assert halved.stats.steps_rejected == started.stats.steps_rejected + 2
        assert replace(halved.stats, steps_rejected=0) == replace(started.stats, steps_rejected=0)
        for a, b in [(halved.t, started.t), (halved.h, started.h), (halved.hdot, started.hdot)]:
            assert np.array_equal(a, b)
        assert np.array_equal(halved.final_state.phi, started.final_state.phi)
        assert np.array_equal(halved.final_state.psi, started.final_state.psi)

    # from the held state, dt = 1.0 is rejected three times and accepted at
    # 0.125; a backward-Euler predictor needed 0.0625, four rejections and
    # 31 steps
    def test_oversized_start_is_accepted_at_an_eighth(self, params_default):
        config = RunConfig(n_nodes=288, dt=1.0, t_end=2.0, output_every=1.0)
        stats = run_simulation(params_default, config).stats
        assert (stats.steps_accepted, stats.steps_rejected) == (16, 3)
        assert stats.dt_min == 0.125

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
        with pytest.raises(
            SolverError,
            match=r"^time step collapsed below 1\.953e-06 at t = 0: corrector left non-finite fields$",
        ):
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
        """Record every step attempt as [history-free, sweeps it made]; an
        attempt is history-free when the stepper gets no ``previous``."""
        attempts = []
        real_step, real_sweep = pde.step_predictor_corrector, pde._sweep

        def step(state, dt, params, previous=None):
            attempts.append([previous is None, 0])
            return real_step(state, dt, params, previous=previous)

        def sweep(*args):
            attempts[-1][1] += 1
            return real_sweep(*args)

        monkeypatch.setattr(pde, "step_predictor_corrector", step)
        monkeypatch.setattr(pde, "_sweep", sweep)
        return attempts

    @staticmethod
    def spoil_extrapolated_attempts(monkeypatch, failure):
        """Make every extrapolated attempt fail: each sweep of an attempt
        given ``previous`` either raises StepRejected or returns a porosity
        that makes the corrector diverge. History-free attempts are left
        alone and counted."""
        seen = {"spoiled": 0, "history_free": 0}
        extrapolated = {"now": False}
        real_step, real_sweep = pde.step_predictor_corrector, pde._sweep

        def step(state, dt, params, previous=None):
            extrapolated["now"] = previous is not None
            seen["history_free"] += previous is None
            return real_step(state, dt, params, previous=previous)

        def sweep(*args):
            phi, psi = real_sweep(*args)
            if not extrapolated["now"]:
                return phi, psi
            seen["spoiled"] += 1
            if failure == "rejected":
                raise StepRejected("synthetic rejection")
            return 10.0 * phi, psi

        monkeypatch.setattr(pde, "step_predictor_corrector", step)
        monkeypatch.setattr(pde, "_sweep", sweep)
        return seen

    # the held state is a cruder prediction than the line through the last
    # two states, so a history-free attempt makes one sweep more; the counts
    # are fixed, even at a dt so short that the first sweep barely moves
    @pytest.mark.parametrize(
        "extrapolated, sweeps, dt",
        [(False, 3, CONFIG.dt), (True, 2, CONFIG.dt), (False, 3, 1e-9)],
        ids=["history-free", "extrapolated", "history-free-dt-1e-9"],
    )
    def test_sweeps_per_attempt(self, params_default, monkeypatch, extrapolated, sweeps, dt):
        previous, state = self.history(params_default)
        attempts = self.count_sweeps(monkeypatch)
        given = previous if extrapolated else None
        pde.step_predictor_corrector(state, dt, params_default, previous=given)
        assert attempts == [[not extrapolated, sweeps]]

    # a run of accepted, unrejected steps, grown ones included: only the
    # first has no history and makes the third sweep
    @pytest.mark.parametrize("config", [CONFIG, RunConfig()], ids=["small", "default"])
    def test_run_makes_at_most_two_sweeps_per_step(self, params_default, monkeypatch, config):
        attempts = self.count_sweeps(monkeypatch)
        series = run_simulation(params_default, config)
        assert series.stats.steps_rejected == 0
        assert series.stats.dt_max > config.dt
        assert series.final_state.t == pytest.approx(config.t_end, abs=1e-12)
        assert [free for free, _ in attempts] == [True] + [False] * (len(attempts) - 1)
        assert sum(n for _, n in attempts) == 2 * series.stats.steps_accepted + 1

    # the stepper makes one attempt, no retry: a rejected sweep ends it, a
    # diverged corrector runs its two sweeps; retaking it without history
    # is the driver's (test_driver_keeps_dt_when_extrapolation_fails)
    @pytest.mark.parametrize("failure, spoiled", [("rejected", 1), ("diverged", 2)], ids=["rejected", "diverged"])
    def test_failed_extrapolation_is_rejected(self, params_default, monkeypatch, failure, spoiled):
        previous, state = self.history(params_default)
        seen = self.spoil_extrapolated_attempts(monkeypatch, failure)
        with pytest.raises(StepRejected):
            pde.step_predictor_corrector(state, self.CONFIG.dt, params_default, previous=previous)
        assert seen == {"spoiled": spoiled, "history_free": 0}

    @pytest.mark.parametrize("failure", ["rejected", "diverged"])
    def test_driver_keeps_dt_when_extrapolation_fails(self, params_default, monkeypatch, failure):
        # every step retaken from the held state is the stepper without history
        calls = {"n": 0}
        real_step = pde.step_predictor_corrector

        def without_history(state, dt, params, previous=None):
            calls["n"] += 1
            return real_step(state, dt, params)

        with monkeypatch.context() as patch:
            patch.setattr(pde, "step_predictor_corrector", without_history)
            expected = run_simulation(params_default, self.CONFIG)
        # 10 steps at dt through the start-up transient, then 42 growing ones
        assert calls["n"] == 52

        seen = self.spoil_extrapolated_attempts(monkeypatch, failure)
        series = run_simulation(params_default, self.CONFIG)
        assert seen["history_free"] == 52
        assert seen["spoiled"] >= 51
        assert np.array_equal(series.t, expected.t)
        assert np.array_equal(series.h, expected.h)
        assert np.array_equal(series.final_state.phi, expected.final_state.phi)
        assert np.array_equal(series.final_state.psi, expected.final_state.psi)

    def test_prediction_after_rejection_uses_the_real_interval(self, params_default, monkeypatch):
        steps, predictions = [], []
        in_step = {"now": False}
        real_step, real_extrapolate = pde.step_predictor_corrector, pde._extrapolate

        # the fourth attempt and the driver's history-free retake of it
        def flaky(state, dt, params, previous=None):
            steps.append((state, previous, dt))
            if len(steps) in (4, 5):
                raise StepRejected("synthetic rejection")
            in_step["now"] = True
            try:
                return real_step(state, dt, params, previous=previous)
            finally:
                in_step["now"] = False

        # the stepper's predictions only; the driver draws the same line
        # after each accepted step for its error estimate
        def extrapolate(state, previous, dt):
            predicted = real_extrapolate(state, previous, dt)
            if in_step["now"]:
                predictions.append((state, previous, dt, predicted))
            return predicted

        monkeypatch.setattr(pde, "step_predictor_corrector", flaky)
        monkeypatch.setattr(pde, "_extrapolate", extrapolate)
        config = replace(self.CONFIG, t_end=0.03)
        run_simulation(params_default, config)

        # the failed attempt is retaken at its dt without history; the
        # halved retry shares the state and its history
        (state, previous, dt), retake, (retry_state, retry_previous, retry_dt) = steps[3:6]
        assert previous is not None and retake == (state, None, dt)
        assert retry_state is state and retry_previous is previous
        assert retry_dt == 0.5 * dt == 0.5 * config.dt
        # calls 2 and 3 predicted at r = 1; calls 4 and 5 were rejected
        # before they could, so the third prediction is the retry's
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


def front_depth(state, params):
    """Depth below the top of the psi = psi0/2 crossing nearest the top,
    linearly interpolated between nodes."""
    psi = state.psi
    i = np.flatnonzero(psi < 0.5 * params.psi0).max()
    frac = (0.5 * params.psi0 - psi[i]) / (psi[i + 1] - psi[i])
    return state.h * (1.0 - (i + frac) / (psi.size - 1))


class TestStepGrowth:
    # dt grows by less than double on most steps, to 0.025 and beyond; most
    # of the dt it passes do not divide 0.075, so those intervals are
    # stepped in equal steps shorter than dt
    CONFIG = RunConfig(n_nodes=64, dt=5e-3, t_end=1.0, h0=0.1, output_every=0.075)

    @staticmethod
    def record_attempts(monkeypatch, reject=lambda attempts: False, alter=lambda state: state):
        """Record (t, dt) of every step attempt. ``reject(attempts)`` makes
        the latest attempt raise StepRejected, and every later one at its
        (t, dt), so the driver's history-free retake fails too; ``alter``
        maps each accepted state before the driver sees it."""
        attempts = []
        rejected = set()
        real_step = pde.step_predictor_corrector

        def step(state, dt, params, previous=None):
            attempts.append((state.t, dt))
            if (state.t, dt) in rejected or reject(attempts):
                rejected.add((state.t, dt))
                raise StepRejected("synthetic rejection")
            return alter(real_step(state, dt, params, previous=previous))

        monkeypatch.setattr(pde, "step_predictor_corrector", step)
        return attempts

    # every accepted step after the first, the first with an estimate,
    # doubles dt when the limit always allows it: on t_end = 0.064 each
    # step lands the run on a power of two times dt
    @pytest.mark.parametrize(
        "limit, steps", [(math.inf, [1, 1, 2, 4, 8, 16, 32]), (0.0, [1] * 64)], ids=["always", "never"]
    )
    def test_dt_grows_on_every_step_the_limit_allows(self, params_default, monkeypatch, limit, steps):
        monkeypatch.setattr(pde, "_DT_GROWTH_LIMIT", limit)
        attempts = self.record_attempts(monkeypatch)
        config = RunConfig(n_nodes=64, dt=1e-3, t_end=0.064, h0=0.1, output_every=0.064)
        series = run_simulation(params_default, config)
        assert series.stats.steps_rejected == 0
        # distinct (t, dt): a failed extrapolated attempt is retaken at its
        # (t, dt) without history
        tried = [dt for _, dt in sorted(set(attempts))]
        assert tried == pytest.approx([k * config.dt for k in steps], rel=1e-9)
        assert series.stats.steps_accepted == len(steps)
        assert series.final_state.t == pytest.approx(config.t_end, abs=1e-12)

    def test_zero_estimate_doubles_dt(self, params_default, monkeypatch):
        # states on a line in t, exact in binary, leave a zero estimate
        def linear(state, dt, params, previous=None):
            return replace(state, t=state.t + dt, h=state.h + dt)

        monkeypatch.setattr(pde, "step_predictor_corrector", linear)
        attempts = self.record_attempts(monkeypatch)
        config = RunConfig(n_nodes=64, dt=2.0**-10, t_end=2.0**-4, h0=0.125, output_every=2.0**-4)
        series = run_simulation(params_default, config)
        assert [dt for _, dt in attempts] == [k * config.dt for k in (1, 1, 2, 4, 8, 16, 32)]
        assert series.stats.estimate_max == 0.0

    def test_rejection_halves_dt_and_growth_resumes(self, params_default, monkeypatch):
        # the first step tried at 4 dt is rejected, after its retake at 4 dt
        # without history; the halved retry at 2 dt is accepted and doubles
        # dt again at once, so what is left of t_end, 0.058, is stepped in
        # the 15 equal steps no longer than 4 dt
        monkeypatch.setattr(pde, "_DT_GROWTH_LIMIT", math.inf)

        def reject(attempts):
            return attempts[-1][1] > 3e-3 and sum(dt > 3e-3 for _, dt in attempts) == 1

        attempts = self.record_attempts(monkeypatch, reject=reject)
        config = RunConfig(n_nodes=64, dt=1e-3, t_end=0.064, h0=0.1, output_every=0.064)
        series = run_simulation(params_default, config)
        assert series.stats.steps_rejected == 1
        i = next(i for i, (_, dt) in enumerate(attempts) if dt > 3e-3)
        t, tried = attempts[i]
        assert [dt for _, dt in sorted(set(attempts[:i]))] == pytest.approx([1e-3, 1e-3, 2e-3], rel=1e-9)
        assert t == pytest.approx(4e-3, rel=1e-9) and tried == pytest.approx(4e-3, rel=1e-9)
        assert attempts[i + 1 : i + 3] == [(t, tried), (t, 0.5 * tried)]
        after = next(dt for t_next, dt in attempts if t_next > t)
        assert after == pytest.approx(0.058 / 15, rel=1e-9)

    def test_start_up_steps_are_at_config_dt(self, params_default, monkeypatch):
        attempts = self.record_attempts(monkeypatch)
        run_simulation(params_default, self.CONFIG)
        # the start-up transient's estimates keep dt at config.dt for the
        # first 10 steps; the 11th is the first longer one
        dts = [dt for _, dt in attempts]
        assert dts[:10] == pytest.approx([self.CONFIG.dt] * 10, rel=1e-12)
        assert dts[10] > 1.2 * self.CONFIG.dt

    # one sample interval, so each step is what is left of it split evenly
    # in steps no longer than dt: the steps tried fall only where dt does.
    # The start-up estimates are above the limit, and every fifth accepted
    # porosity is spoiled by 1e-3, which puts the estimates after it 6 to
    # 12 times above the limit; dt must not shrink on either.
    def test_dt_at_most_doubles_and_falls_only_on_a_rejection(self, params_default, monkeypatch):
        accepted = {"n": 0}

        def spoil(state):
            accepted["n"] += 1
            return replace(state, phi=state.phi * (1.0 + 1e-3 * (accepted["n"] % 5 == 0)))

        attempts = self.record_attempts(monkeypatch, reject=lambda attempts: len(attempts) == 30, alter=spoil)
        config = RunConfig(n_nodes=64, dt=1e-3, t_end=0.5, h0=0.1, output_every=0.5)
        series = run_simulation(params_default, config)
        assert series.stats.steps_rejected == 1
        assert series.stats.dt_max > 8.0 * config.dt
        halved = 0
        for (t_before, before), (t, tried) in zip(attempts, attempts[1:]):
            if t == t_before:
                # the retake at the same dt, or the halved retry
                assert tried in (before, 0.5 * before)
                halved += tried == 0.5 * before
            else:
                assert before * (1.0 - 1e-12) <= tried <= 2.0 * before
        assert halved == 1

    def test_default_run_grows_its_steps(self, sim_default, default_config):
        stats = sim_default[0].stats
        # 300 steps at the growth limit
        assert stats.steps_accepted <= 310
        assert stats.steps_rejected == 0
        assert stats.dt_max >= 16.0 * default_config.dt

    @pytest.mark.parametrize("which", ["small", "default"])
    def test_samples_land_on_multiples_of_output_every(self, params_default, sim_default, default_config, which):
        if which == "default":
            series, config = sim_default[0], default_config
        else:
            config = self.CONFIG
            series = run_simulation(params_default, config)
        assert series.stats.dt_max > config.dt
        k = np.arange(series.t.size)
        assert np.abs(series.t - k * config.output_every).max() <= 1e-12
        assert series.t.size == pde.sample_bound(config)
        assert series.final_state.t == pytest.approx(config.t_end, abs=1e-12)

    # the first step tried at a grown dt, or, after dt has grown, the first
    # one shorter than the step before it (landing on the shorter last
    # interval, 0.015 up to t_end = 0.99, after steps of 0.025)
    @pytest.mark.parametrize("which", ["grown", "shortened"])
    def test_rejection_halves_the_step_tried(self, params_default, monkeypatch, which):
        config = self.CONFIG if which == "grown" else replace(self.CONFIG, t_end=0.99)
        dt = config.dt
        first = {"at": None}

        def reject(attempts):
            tried = attempts[-1][1]
            before = attempts[-2][1] if len(attempts) > 1 else dt
            if which == "grown":
                hit = tried > 1.5 * dt
            else:
                hit = before > 1.5 * dt and tried < 0.9 * before
            if hit and first["at"] is None:
                first["at"] = len(attempts) - 1
                return True
            return False

        attempts = self.record_attempts(monkeypatch, reject=reject)
        series = run_simulation(params_default, config)
        i = first["at"]
        assert i is not None
        # the retake without history at the step tried, then the retry
        (t, tried), retake, (retry_t, retry_dt) = attempts[i : i + 3]
        assert retake == (t, tried)
        assert retry_t == t
        assert retry_dt == 0.5 * tried
        assert series.stats.steps_rejected == 1
        assert series.final_state.t == pytest.approx(config.t_end, abs=1e-12)

    @pytest.mark.parametrize("limit, growth", [(math.inf, 2.0), (0.0, 1.0)], ids=["always", "never"])
    def test_each_interval_is_stepped_in_equal_steps(self, params_default, monkeypatch, limit, growth):
        # 0.0725 is 14.5 start steps, so whole steps of dt would leave a
        # shorter remainder before each sample
        monkeypatch.setattr(pde, "_DT_GROWTH_LIMIT", limit)
        attempts = self.record_attempts(monkeypatch)
        config = replace(self.CONFIG, output_every=0.0725)
        series = run_simulation(params_default, config)
        assert series.stats.steps_rejected == 0
        # without rejections, after every accepted step but the first
        # dt_cur becomes max(dt_cur, 2 dt) when the limit always allows it,
        # and stays at config.dt when it never does; every step re-splits
        # the rest of its interval into the fewest equal steps no longer
        # than dt_cur. A failed extrapolated attempt is retaken at its
        # (t, dt), so the distinct (t, dt) are the accepted steps.
        steps = sorted(set(attempts))
        assert len(steps) == series.stats.steps_accepted
        dt_cur = config.dt
        for i, (t, dt) in enumerate(steps):
            sample = math.floor(t / config.output_every + 1e-6) + 1
            gap = min(sample * config.output_every, config.t_end) - t
            k = round(gap / dt)
            assert gap / dt == pytest.approx(k, rel=1e-9)
            assert dt <= dt_cur * (1.0 + 1e-12)
            assert k == 1 or gap / (k - 1) > dt_cur
            if i > 0:
                dt_cur = max(dt_cur, growth * dt)

    def test_grown_steps_keep_the_reactant_front(self, params_default, monkeypatch):
        # the psi = psi0/2 front of a grown-step run against fixed steps: a
        # first-order split, reaction after transport, puts it 3.1e-3
        # shallower, a twentieth of the 1/beta = 0.048 layer; the Strang
        # split leaves 5e-6
        config = RunConfig(n_nodes=416, t_end=3.0)
        grown = run_simulation(params_default, config)
        monkeypatch.setattr(pde, "_DT_GROWTH_LIMIT", 0.0)
        fixed = run_simulation(params_default, config)
        assert grown.stats.dt_max >= 8.0 * config.dt
        assert fixed.stats.dt_max == pytest.approx(config.dt, rel=1e-9)
        shift = front_depth(grown.final_state, params_default) - front_depth(fixed.final_state, params_default)
        assert abs(shift) <= 1e-4

    # the benchmark's column_ensemble points (pool indices 40 and 38) where
    # grown steps come closest to its 1e-4 gate: small sdot, high phi0,
    # m 19-20, t_end = 2. Grown steps move h(t_end) 3.6e-5 and 3.4e-5
    # relative to fixed ones.
    @pytest.mark.parametrize(
        "point, n_nodes",
        [
            (
                dict(m=19, beta=31.601948530140085, phi0=0.5721185557525255,
                     psi0=0.02642623126154824, sdot=0.7373794144038994),
                399,
            ),
            (
                dict(m=20, beta=33.409625196868184, phi0=0.5303476321657646,
                     psi0=0.23229049489182865, sdot=0.5307543625787148),
                311,
            ),
        ],
        ids=["pool-40", "pool-38"],
    )
    def test_grown_steps_keep_h_across_the_box(self, monkeypatch, point, n_nodes):
        params = derive_params(**point)
        config = RunConfig(n_nodes=n_nodes, dt=2e-3, t_end=2.0, h0=0.1, output_every=0.05)
        grown = run_simulation(params, config)
        monkeypatch.setattr(pde, "_DT_GROWTH_LIMIT", 0.0)
        fixed = run_simulation(params, config)
        assert grown.stats.dt_max == pytest.approx(0.05, rel=1e-9)
        assert fixed.stats.dt_max == pytest.approx(config.dt, rel=1e-9)
        assert abs(grown.h[-1] - fixed.h[-1]) <= 1e-4 * fixed.h[-1]

    def test_reactant_cannot_change_the_step_sizes(self, monkeypatch):
        # a reactant that releases no water leaves phi and h alone; spoiling
        # its extrapolation by 1e-3 on every other step must not move dt
        inert = derive_params(a0=0.0, psi0=0.3)
        with monkeypatch.context() as patch:
            expected_attempts = self.record_attempts(patch)
            expected = run_simulation(inert, self.CONFIG)
        accepted = {"n": 0}

        def spoil(state):
            accepted["n"] += 1
            return replace(state, psi=state.psi * (1.0 + 1e-3 * (accepted["n"] % 2)))

        attempts = self.record_attempts(monkeypatch, alter=spoil)
        series = run_simulation(inert, self.CONFIG)
        assert expected.stats.dt_max > self.CONFIG.dt
        assert attempts == expected_attempts
        assert np.array_equal(series.final_state.phi, expected.final_state.phi)
        assert not np.array_equal(series.final_state.psi, expected.final_state.psi)


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
        # the widest window is the whole series
        assert pde.speed_window(t.size, 1.0) == t.size

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

    # math.ceil() raises ValueError on a NaN and OverflowError on an inf; a
    # share above 1 would fit every sample, as many as the window asks for
    @pytest.mark.parametrize(
        "fraction",
        [np.nan, np.inf, -np.inf, 2.0, 1.0 + 1e-12, 0.0, -0.3],
        ids=["nan", "inf", "-inf", "above-one", "just-above-one", "zero", "negative"],
    )
    def test_non_finite_window_fraction(self, fraction):
        t = np.linspace(0.0, 10.0, 60)
        match = rf"window fraction {fraction!r} is not in \(0, 1\]"
        with pytest.raises(ValidationError, match=match):
            pde.speed_window(t.size, fraction)
        with pytest.raises(ValidationError, match=match):
            estimate_wave_speed(self._series(t, 0.5 * t), fraction)


class TestSampleBound:
    @pytest.mark.parametrize(
        "dt, t_end, output_every",
        # the tenth sample falls 5e-11 below t_end, inside the 1e-10 sample
        # slack, and the run still steps to t_end
        [(0.005, 1.0, 0.05), (0.05, 1.0, 0.25), (0.03, 1.0, 0.05), (0.5, 0.3, 0.1), (0.05, 1.0, 0.1 - 5e-12)],
        ids=["cadence", "coarse", "off-cadence-dt", "t_end-below-dt", "sliver-before-t_end"],
    )
    def test_bounds_the_samples_a_run_returns(self, params_default, dt, t_end, output_every):
        config = RunConfig(n_nodes=64, dt=dt, t_end=t_end, h0=0.1, output_every=output_every)
        assert run_simulation(params_default, config).t.size == pde.sample_bound(config)

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

