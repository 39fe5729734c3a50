import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basinwave import asymptotics, core, pde, verify
from basinwave.core import (
    BasinState,
    RunConfig,
    derive_params,
    permeability_factor,
    reaction_rate,
)
from basinwave.errors import BasinwaveError, SolverError, StepRejected, ValidationError
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
    box_params,
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

    @given(box_params(), st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(1e-3, 1e3))
    def test_top_datum_takes_the_full_formula_bit_for_bit(self, p, below, second, h):
        # a top node of phi0 takes a permeability factor of exactly 1, and
        # any other top node the factor itself
        assert permeability_factor(p.phi0, p) == 1.0
        for top in (p.phi0, math.nextafter(p.phi0, 0.0), math.nextafter(p.phi0, 1.0), 0.9 * p.phi0):
            phi = np.array([second * p.phi0, below * p.phi0, top])
            dx = 1.0 / (phi.size - 1)
            phi_z = (3.0 * top - 4.0 * phi[1] + phi[0]) / (2.0 * dx * h)
            k_top = float(permeability_factor(top, p))
            full = p.sdot + p.lam / (1.0 - p.phi0) * k_top * (phi_z - top)
            assert hdot(phi, h, p) == full


def transport_rates(state, params, hdot_value):
    """Interior (phi, psi) rates of the assembled sigma-transformed operators.

    Flux divergence plus the +x*hdot*d/dz advective correction, with the
    coefficients frozen at the state itself; the reaction terms are not
    included.
    """
    phi, h = state.phi, state.h
    column = pde._Column(phi.size)
    column.bar[:] = phi
    column.freeze(h, hdot_value, params, 1.0)
    column.phi_operator(h, params, 1.0)
    dphi = pde._apply_tridiag(column.lo, column.di, column.up, phi)
    column.psi_operator(h, params, 1.0)
    return dphi, pde._apply_tridiag(column.lo, column.di, column.up, state.psi)


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
            pde, "reaction_rate", lambda z, h, params, out=None: np.zeros(np.shape(z))
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
        column = pde._Column(config.n_nodes)
        column.bar[:] = state.phi
        column.bar[10] = bad
        with pytest.raises(StepRejected):
            pde._sweep(column, state.phi, state.psi, config.dt, state.h, 0.0, state.h, params_default)

    @pytest.mark.parametrize(
        "row, value, message",
        [(0, 0.0, "pivot"), (0, np.nan, "pivot"), (1, 0.0, "singular")],
        ids=["zero-pivot", "nan-pivot", "singular"],
    )
    def test_solve_rejects_unusable_system(self, row, value, message):
        # the bands of I - L for L = (1, -2, 1) on the interior rows: du[1]
        # is the elimination pivot a12, and zero dl, d and du make grid
        # row 2 all zeros
        n = 6
        dl, d, du = np.full(n - 1, -1.0), np.full(n, 3.0), np.full(n - 1, -1.0)
        du[row + 1] = value
        if message == "singular":
            dl[row], d[row + 1] = 0.0, 0.0
        with pytest.raises(StepRejected, match=message):
            pde._solve_closed((dl, d, du), (1.0, 0.0, 1.0), np.ones(n))


    def test_numpy_overflow_rejects_a_direct_attempt(self):
        # Finding 14's draw far outside the box (beta 0.087, m 200): the
        # permeability overflows in the first sweep. Called directly, outside
        # any driver, the attempt still raises StepRejected and numpy warns
        # of nothing
        with pytest.warns(UserWarning, match="beta = 0.087"):
            p = derive_params(
                lam=0.0003498865903570406, beta=0.08700898096593784, m=200,
                phi0=0.18497270617478245, psi0=0.642505924862698, a0=0.929124304638161,
                zstar=1.5148916354796904, sdot=0.07535141970004874,
            )
        state = initial_state(p, RunConfig(n_nodes=16, h0=0.575507133563513))
        with warnings.catch_warnings(record=True) as caught:
            with pytest.raises(StepRejected, match="arithmetic failed: overflow encountered in exp"):
                step_predictor_corrector(state, 0.2, p)
        assert not caught

    def test_a_prediction_averaging_to_zero_depth_rejects_the_attempt(self):
        # the sweep divides its advection row, non-zero at dh/dt = 1, by the
        # mean depth (h + h_p)/2 = 0
        p = derive_params(sdot=2.0)
        state = initial_state(p, RunConfig(n_nodes=16, h0=0.5))
        with warnings.catch_warnings(record=True) as caught:
            with pytest.raises(StepRejected, match="arithmetic failed: divide by zero"):
                step_predictor_corrector(state, 1e-3, p, prediction=(state.phi, -0.5))
        assert not caught

    @pytest.mark.parametrize("dt", [1e-20, 0.0, -1e-3, math.nan], ids=["below-ulp", "zero", "negative", "nan"])
    def test_a_step_that_does_not_advance_t_is_rejected(self, params_default, dt):
        state = replace(initial_state(params_default, RunConfig(n_nodes=16)), t=1.0)
        with pytest.raises(StepRejected, match="does not advance t = 1.0"):
            step_predictor_corrector(state, dt, params_default)


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
        dt = 0.02
        hdot_c = hdot(coeff.phi, coeff.h, p)
        h_c = 0.5 * (old.h + coeff.h)
        h_bc = old.h + dt * hdot_c
        assert old.psi.max() > 0.0 and old.psi.min() < 0.5 * p.psi0
        column = pde._Column(x.size)
        column.bar[:] = coeff.phi
        phi, psi = pde._sweep(column, old.phi, old.psi, dt, h_c, hdot_c, h_bc, p)
        phi_ref, psi_ref = _dense_reference_sweep(x, old.phi, old.psi, dt, coeff.phi, h_c, hdot_c, h_bc, p)
        assert np.max(np.abs(phi - phi_ref)) <= 1e-12 * np.max(np.abs(phi_ref))
        assert np.max(np.abs(psi - psi_ref)) <= 1e-12 * np.max(np.abs(psi_ref))

    @staticmethod
    def frozen_system(params, reactive_states, n):
        """(old, coeff, column, h_c, hdot_c, operators) on n nodes, the
        states resampled linearly and ``column`` a fresh :class:`pde._Column`
        whose ``bar`` holds coeff.phi; ``operators(scale)`` maps "phi",
        "psi" and the psi bottom row to copies of what the column's builders
        give at that scale."""
        column = pde._Column(n)
        x = column.x
        old, coeff = (
            replace(s, phi=np.interp(x, np.linspace(0.0, 1.0, s.phi.size), s.phi),
                    psi=np.interp(x, np.linspace(0.0, 1.0, s.psi.size), s.psi))
            for s in reactive_states
        )
        h_c = 0.5 * (old.h + coeff.h)
        hdot_c = hdot(coeff.phi, coeff.h, params)

        def operators(scale):
            bands = lambda: tuple(band.copy() for band in (column.lo, column.di, column.up))
            column.bar[:] = coeff.phi
            column.freeze(h_c, hdot_c, params, scale)
            row0 = column.psi_operator(h_c, params, scale)
            psi_bands = bands()
            column.phi_operator(h_c, params, scale)
            return {"phi": bands(), "psi": psi_bands, "psi bottom": row0}

        return old, coeff, column, h_c, hdot_c, operators

    @pytest.mark.parametrize("n", [256, 16])
    def test_builders_are_linear_in_the_band_scale(self, params_default, reactive_states, n):
        dt = 0.02
        *_, operators = self.frozen_system(params_default, reactive_states, n)
        unit, scaled = operators(1.0), operators(-0.5 * dt)
        for name, bands in scaled.items():
            # psi's diagonal is the difference of the fluxes in its
            # off-diagonals and cancels to under 1e-2 of them at n = 256, so
            # the rounding is measured against the field's largest entry
            largest = max(np.max(np.abs(band)) for band in bands)
            for band, one in zip(bands, unit[name]):
                assert np.max(np.abs(np.subtract(band, -0.5 * dt * np.asarray(one)))) <= 1e-14 * largest

    @pytest.mark.parametrize("n", [256, 16])
    def test_sweep_takes_the_explicit_half_from_its_bands(self, params_default, reactive_states, monkeypatch, n):
        # a0 = 0 leaves the phi right-hand side without a source
        p, dt = replace(params_default, a0=0.0), 0.02
        old, coeff, column, h_c, hdot_c, operators = self.frozen_system(p, reactive_states, n)
        unit = operators(1.0)
        systems = []
        real_solve = pde._solve_closed

        def solve(bands, bottom, rhs):
            dl, d, du = bands
            systems.append((dl[:-1].copy(), d[1:-1].copy(), du[1:].copy(), rhs[1:-1].copy()))
            return real_solve(bands, bottom, rhs)

        monkeypatch.setattr(pde, "_solve_closed", solve)
        pde._sweep(column, old.phi, old.psi, dt, h_c, hdot_c, old.h + dt * hdot_c, p)
        reacted = old.psi * np.exp(-0.5 * dt * reaction_rate(column.x * h_c, h_c, p))
        assert len(systems) == 2
        for (lo, di, up, rhs), u, field in zip(systems, (reacted, old.phi), ("psi", "phi")):
            # the interior of 2u - A u against u + (dt/2) L u: a product with
            # A rounds in proportion to |A| |u|, and A's diagonal reaches 821
            # for phi at n = 256
            want = u[1:-1] + 0.5 * dt * pde._apply_tridiag(*unit[field], u)
            bound = 1e-14 * pde._apply_tridiag(np.abs(lo), np.abs(di), np.abs(up), np.abs(u))
            assert np.all(np.abs(rhs - want) <= bound)


def _advection_times(factor):
    real = pde._Column.freeze

    def mutated(column, *args):
        real(column, *args)
        column.adv *= factor

    return mutated


class TestSpatialOrderGuard:
    # each mutation must break criterion 8's spatial check (order >= 1.9)
    @pytest.mark.parametrize(
        "owner, name, mutated",
        [
            (pde._Column, "freeze", _advection_times(-1.0)),
            (pde._Column, "freeze", _advection_times(0.0)),
            (pde, "_robin_row", lambda dx, h: (-2.0 - 2.0 * dx * h, 2.0, 0.0)),
        ],
        ids=["advection-flipped", "advection-dropped", "first-order-robin"],
    )
    def test_mutation_fails_criterion_8_spatial_check(self, params_default, monkeypatch, owner, name, mutated):
        monkeypatch.setattr(owner, name, mutated)
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

    def test_a_subnormal_start_on_a_near_empty_column_fails_fast(self, monkeypatch):
        # a subnormal start dt on a column 6.5e-301 deep: dt grows, then is
        # halved until it no longer advances t, and the run stops at the
        # dt/1024 floor after 648 attempts; the bound keeps that from growing
        # back into the seconds of rejected attempts it once took
        p = derive_params(
            lam=1.95e-6, beta=286.6, m=961, phi0=0.127, psi0=0.399, a0=0.0083, zstar=1.03e7, sdot=0.00229
        )
        config = RunConfig(n_nodes=149, dt=7.07e-309, t_end=0.0058, output_every=3.05e-4, h0=6.5e-301)
        real_step = pde.step_predictor_corrector
        attempts = []

        def step(state, dt, params, prediction=None):
            attempts.append(dt)
            return real_step(state, dt, params, prediction=prediction)

        monkeypatch.setattr(pde, "step_predictor_corrector", step)
        with pytest.raises(
            SolverError,
            match=r"^time step collapsed below 6\.904e-312 at t = \S+: dt = 6\.904e-312 does not advance t = ",
        ):
            run_simulation(p, config)
        assert 0 < len(attempts) <= 1000

    def test_a_column_emptied_by_the_held_prediction_halves_dt(self):
        # without sedimentation the uniform column shrinks at dh/dt = -2, so
        # the first held prediction at dt = 0.05 puts the top at h = 0
        # exactly, where dh/dt divides by zero; that attempt is rejected
        p = derive_params(sdot=0.0, lam=2.0, psi0=0.0, a0=0.0)
        series = run_simulation(p, RunConfig(n_nodes=16, dt=0.05, t_end=0.2, output_every=0.05))
        assert series.stats.steps_rejected == 1 and series.stats.dt_max < 0.05
        assert np.minimum.reduce(series.h) > 0.0

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


class TestRunAcrossBox:
    """Short runs across the validated parameter box, to t_end = 1.5, where
    the reaction zone has entered the column at most points."""

    @staticmethod
    def config(params, share):
        rule = core.resolution_nodes(params, RunConfig(t_end=1.5))
        return RunConfig(n_nodes=max(16, math.floor(share * rule)), t_end=1.5)

    @staticmethod
    def assert_physical(state, params):
        assert np.minimum.reduce(state.phi) > 0.0
        assert np.minimum.reduce(state.psi) >= 0.0
        assert state.phi[-1] == params.phi0 and state.psi[-1] == params.psi0

    @settings(max_examples=15)
    @given(box_params())
    def test_run_at_the_resolution_rule_returns_a_physical_state(self, params):
        series = run_simulation(params, self.config(params, 1.0))
        assert series.final_state.t == pytest.approx(1.5, abs=1e-12)
        self.assert_physical(series.final_state, params)

    # a quarter of the rule under-resolves the zone once it is in the
    # column; the run may then stop on a collapsed step, but only so
    @settings(max_examples=15)
    @given(box_params())
    def test_run_at_a_quarter_of_the_rule_returns_or_raises_solver_error(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                series = run_simulation(params, self.config(params, 0.25))
            except SolverError:
                return
        self.assert_physical(series.final_state, params)


def _log_floats(low, high):
    """Floats spread evenly in log10 over [10^low, 10^high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


@st.composite
def wild_draws(draw):
    """Valid parameters and a short column far outside the box, as keyword
    dicts: lam 1e-6..1e6, beta 1e-3..1e6, m 7..1000, and a0, zstar and sdot
    0 or from 1e-3 up to 1e3, 1e8 and 1e6; n 16..200, t_end 1e-3..1, dt
    from t_end/100 to 2 t_end or subnormal, and h0 1e-3..1e3 or below
    1e-300."""
    phi0 = draw(st.floats(1e-3, 0.999))
    params = dict(
        lam=draw(_log_floats(-6, 6)),
        beta=draw(_log_floats(-3, 6)),
        m=draw(st.integers(7, 1000)),
        phi0=phi0,
        psi0=draw(st.floats(0.0, 1.0 - phi0)),
        a0=draw(st.just(0.0) | _log_floats(-3, 3)),
        zstar=draw(st.just(0.0) | _log_floats(-3, 8)),
        sdot=draw(st.just(0.0) | _log_floats(-3, 6)),
    )
    t_end = draw(_log_floats(-3, 0))
    usual = st.floats(t_end / 100, 2.0 * t_end)
    subnormal = st.floats(0.0, 2.0**-1022, exclude_min=True, exclude_max=True)
    config = dict(
        n_nodes=draw(st.integers(16, 200)),
        # one dt in three is subnormal, so most draws reach a run
        dt=draw(st.one_of(usual, usual, subnormal)),
        t_end=t_end,
        output_every=t_end / draw(st.integers(1, 20)),
        h0=draw(_log_floats(-3, 3) | st.floats(0.0, 1e-300, exclude_min=True)),
    )
    return params, config


class TestWildParameters:
    """Every public solve, at valid parameters far outside the box, returns
    a physical result or raises a package error, and numpy warns of
    nothing: the suite turns a RuntimeWarning into an error, and the
    warnings recorded below may only be beta's and the resolution rule's."""

    @staticmethod
    def assert_physical_state(state, params):
        TestRunAcrossBox.assert_physical(state, params)
        assert np.isfinite(state.phi).all() and np.isfinite(state.psi).all()
        assert 0.0 < state.h < math.inf

    def exercise(self, param_kwargs, config_kwargs):
        p = derive_params(**param_kwargs)
        for solve in (asymptotics.solve_c, asymptotics.solve_c_consistent):
            try:
                match = solve(p)
            except BasinwaveError:
                continue
            assert 0.0 < match.c < math.inf
            try:
                profile = asymptotics.build_wave_profile(match, p)
            except BasinwaveError:
                continue
            assert np.isfinite(profile.phi).all() and np.isfinite(profile.psi).all()
            assert np.minimum.reduce(profile.phi) > 0.0
        try:
            report = verify.residual_battery(p)
            assert report.checks
        except BasinwaveError:
            pass

        config = RunConfig(**config_kwargs)
        state = initial_state(p, config)
        try:
            self.assert_physical_state(step_predictor_corrector(state, config.dt, p), p)
        except StepRejected:
            pass
        series = run_simulation(p, config)
        assert np.isfinite(series.t).all() and np.isfinite(series.h).all()
        assert np.isfinite(series.hdot).all()
        assert series.final_state.t == pytest.approx(config.t_end, rel=1e-9)
        self.assert_physical_state(series.final_state, p)

    @settings(max_examples=150)
    @given(wild_draws())
    def test_every_call_returns_a_physical_result_or_a_package_error(self, draw):
        with warnings.catch_warnings(record=True) as caught:
            try:
                self.exercise(*draw)
            except BasinwaveError:
                pass
        assert all(issubclass(w.category, UserWarning) for w in caught)


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
        attempt is history-free when the stepper gets no ``prediction``."""
        attempts = []
        real_step, real_sweep = pde.step_predictor_corrector, pde._sweep

        def step(state, dt, params, prediction=None):
            attempts.append([prediction is None, 0])
            return real_step(state, dt, params, prediction=prediction)

        def sweep(*args):
            attempts[-1][1] += 1
            return real_sweep(*args)

        monkeypatch.setattr(pde, "step_predictor_corrector", step)
        monkeypatch.setattr(pde, "_sweep", sweep)
        return attempts

    @staticmethod
    def spoil_extrapolated_attempts(monkeypatch, failure):
        """Make every extrapolated attempt fail: each sweep of an attempt
        given a ``prediction`` either raises StepRejected or returns a
        porosity that makes the corrector diverge. History-free attempts are
        left alone and counted."""
        seen = {"spoiled": 0, "history_free": 0}
        extrapolated = {"now": False}
        real_step, real_sweep = pde.step_predictor_corrector, pde._sweep

        def step(state, dt, params, prediction=None):
            extrapolated["now"] = prediction is not None
            seen["history_free"] += prediction is None
            return real_step(state, dt, params, prediction=prediction)

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
        given = pde._extrapolate(state, previous, dt) if extrapolated else None
        pde.step_predictor_corrector(state, dt, params_default, prediction=given)
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
        line = pde._extrapolate(state, previous, self.CONFIG.dt)
        seen = self.spoil_extrapolated_attempts(monkeypatch, failure)
        with pytest.raises(StepRejected):
            pde.step_predictor_corrector(state, self.CONFIG.dt, params_default, prediction=line)
        assert seen == {"spoiled": spoiled, "history_free": 0}

    @pytest.mark.parametrize("failure", ["rejected", "diverged"])
    def test_driver_keeps_dt_when_extrapolation_fails(self, params_default, monkeypatch, failure):
        # every step retaken from the held state is the stepper without history
        calls = {"n": 0}
        real_step = pde.step_predictor_corrector

        def without_history(state, dt, params, prediction=None):
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
        steps = []
        real_step = pde.step_predictor_corrector

        # the fourth attempt and the driver's held-state retake of it
        def flaky(state, dt, params, prediction=None):
            steps.append((state, prediction, dt))
            if len(steps) in (4, 5):
                raise StepRejected("synthetic rejection")
            return real_step(state, dt, params, prediction=prediction)

        monkeypatch.setattr(pde, "step_predictor_corrector", flaky)
        config = replace(self.CONFIG, t_end=0.03)
        run_simulation(params_default, config)

        # the failed attempt is retaken at its dt from the held state; the
        # halved retry is predicted from the same state on a line of its own
        assert steps[0][1] is None
        (state, line, dt), retake, retry = steps[3:6]
        (retake_state, retake_line, retake_dt), (retry_state, retry_line, retry_dt) = retake, retry
        assert line is not None and retake_state is state and retake_line is None and retake_dt == dt
        assert retry_state is state and retry_line is not None
        assert retry_dt == 0.5 * dt == 0.5 * config.dt
        # attempts 2 to 4 predict at r = 1 on the line through the accepted
        # state before theirs; the retry, from the same two states, at 1/2
        for attempt, before, r_expected in [(1, 0, 1.0), (2, 1, 1.0), (3, 2, 1.0), (5, 2, 0.5)]:
            state, (phi_p, h_p), dt = steps[attempt]
            previous = steps[before][0]
            r = dt / (state.t - previous.t)
            assert r == pytest.approx(r_expected, rel=1e-12)
            assert h_p == state.h + r * (state.h - previous.h)
            assert np.array_equal(phi_p, state.phi + r * (state.phi - previous.phi))

    # the driver draws the line through the last two accepted states once
    # for each (state, dt) it tries after the first step, and uses it both
    # as the prediction and as the Milne estimate's reference. The coarse
    # run retakes two failed extrapolations from the held state, which draw
    # no line.
    def test_the_line_is_drawn_once_per_state_and_dt(self, params_default, monkeypatch):
        attempts, lines = [], []
        real_step, real_extrapolate = pde.step_predictor_corrector, pde._extrapolate

        def step(state, dt, params, prediction=None):
            attempts.append((state.t, dt, prediction))
            return real_step(state, dt, params, prediction=prediction)

        def extrapolate(state, previous, dt):
            lines.append(real_extrapolate(state, previous, dt))
            return lines[-1]

        monkeypatch.setattr(pde, "step_predictor_corrector", step)
        monkeypatch.setattr(pde, "_extrapolate", extrapolate)
        config = RunConfig(n_nodes=64, dt=0.05, t_end=1.0, output_every=0.25)
        series = run_simulation(params_default, config)
        assert (series.stats.steps_accepted, series.stats.steps_rejected) == (20, 0)
        retakes = [(t, dt) for t, dt, prediction in attempts if prediction is None and t > 0.0]
        assert len(retakes) == 2
        tried = list(dict.fromkeys((t, dt) for t, dt, _ in attempts if t > 0.0))
        assert len(lines) == len(tried) == 19
        # each line is the prediction handed to the stepper, by identity
        predictions = [prediction for *_, prediction in attempts if prediction is not None]
        assert len(predictions) == len(lines)
        assert all(given is drawn for given, drawn in zip(predictions, lines))

    def test_prediction_must_have_the_same_node_count(self, params_default):
        previous, state = self.history(params_default)
        phi_p, h_p = pde._extrapolate(state, previous, self.CONFIG.dt)
        with pytest.raises(ValidationError, match="predicted phi has 22 nodes, the state has 64"):
            step_predictor_corrector(state, self.CONFIG.dt, params_default, prediction=(phi_p[::3], h_p))


class TestAttemptWorkspace:
    """A run's step attempts assemble their sweeps in the run's one column,
    an attempt outside a run in one of its own, and every attempt returns
    fresh fields, whether it extrapolates, holds the state or is
    rejected."""

    CONFIG = TestExtrapolatedPredictor.CONFIG

    def test_returned_fields_are_never_shared_or_rewritten(self, params_default):
        p, dt = params_default, self.CONFIG.dt
        states, copies = [], []

        def keep(state):
            states.append(state)
            copies.append((state.phi.copy(), state.psi.copy()))

        def extrapolated(k, dt):
            """The attempt from states[k] predicted on the line through states[k - 1]."""
            line = pde._extrapolate(states[k], states[k - 1], dt)
            return step_predictor_corrector(states[k], dt, p, prediction=line)

        keep(initial_state(p, self.CONFIG))
        for _ in range(2):
            keep(step_predictor_corrector(states[-1], dt, p))
        # the driver's pattern: an extrapolated attempt fails and is retaken
        # from the held state at the same dt
        with pytest.raises(StepRejected, match="corrector update"):
            extrapolated(-1, 0.05)
        keep(step_predictor_corrector(states[-1], 0.05, p))
        with pytest.raises(StepRejected, match="corrector update"):
            step_predictor_corrector(states[-1], 0.2, p)
        for _ in range(2):
            keep(extrapolated(-1, dt))
        # rejected by the final check, after all three sweeps
        keep(TestStep.planted_state(p, -1e-13 * p.psi0))
        with pytest.raises(StepRejected, match="reactant went negative"):
            step_predictor_corrector(states[-1], 1e-10, p)
        keep(extrapolated(-2, dt))

        for state, (phi, psi) in zip(states, copies):
            assert np.array_equal(state.phi, phi) and np.array_equal(state.psi, psi)
        fields = [field for state in states for field in (state.phi, state.psi)]
        for i, field in enumerate(fields):
            assert field.flags.owndata
            assert not any(np.shares_memory(field, other) for other in fields[i + 1 :])

    @classmethod
    def attempt_poisoned(cls, params, monkeypatch, extrapolated, poisoned, field, bad):
        """Take one attempt from a two-state history whose sweep number
        ``poisoned`` leaves ``bad`` at node 3 of ``field``; returns the
        numbers of the sweeps that ran."""
        previous, state = TestExtrapolatedPredictor.history(params)
        prediction = pde._extrapolate(state, previous, cls.CONFIG.dt) if extrapolated else None
        sweeps = []

        def poison(phi, psi):
            sweeps.append(len(sweeps) + 1)
            if len(sweeps) != poisoned:
                return phi, psi
            fields = {"phi": phi.copy(), "psi": psi.copy()}
            fields[field][3] = bad
            return fields["phi"], fields["psi"]

        alter_corrector(monkeypatch, poison)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StepRejected, match="^corrector left non-finite fields$"):
                step_predictor_corrector(state, cls.CONFIG.dt, params, prediction=prediction)
        return sweeps

    # only the last sweep's update is measured; what an earlier sweep leaves
    # must still be finite, in either field
    @pytest.mark.parametrize("field", ["phi", "psi"])
    @pytest.mark.parametrize(
        "extrapolated, poisoned",
        [(True, 1), (False, 1), (False, 2)],
        ids=["extrapolated-first", "held-first", "held-second"],
    )
    def test_nan_in_an_earlier_sweep_rejects_the_attempt(
        self, params_default, monkeypatch, field, extrapolated, poisoned
    ):
        sweeps = self.attempt_poisoned(params_default, monkeypatch, extrapolated, poisoned, field, np.nan)
        assert len(sweeps) == poisoned

    # the last sweep's fields meet no finiteness check of their own: the
    # update norm sees a NaN or an inf there and rejects the attempt
    # without a numpy warning
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["phi", "psi"])
    @pytest.mark.parametrize("extrapolated, last", [(True, 2), (False, 3)], ids=["extrapolated", "held"])
    def test_non_finite_last_sweep_rejects_the_attempt(
        self, params_default, monkeypatch, extrapolated, last, field, bad
    ):
        sweeps = self.attempt_poisoned(params_default, monkeypatch, extrapolated, last, field, bad)
        assert sweeps == list(range(1, last + 1))

    def test_concurrent_runs_match_sequential_ones(self):
        # distinct runs share no mutable state: two runs on the same grid,
        # interleaved in two threads, give the sequential results bit for bit
        config = replace(self.CONFIG, t_end=0.3)
        runs = [derive_params(), derive_params(a0=2.0, beta=30.0, m=9, zstar=0.5)]
        sequential = [run_simulation(p, config) for p in runs]
        start = threading.Barrier(2)

        def run(params):
            start.wait(timeout=60)
            return run_simulation(params, config)

        interval = sys.getswitchinterval()
        # switch threads often enough to interleave inside the sweeps
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                concurrent = list(pool.map(run, runs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for alone, together in zip(sequential, concurrent):
            for name in ("t", "h", "hdot"):
                assert np.array_equal(getattr(alone, name), getattr(together, name))
            assert np.array_equal(alone.final_state.phi, together.final_state.phi)
            assert np.array_equal(alone.final_state.psi, together.final_state.psi)
            assert alone.stats == together.stats

    def test_runs_on_more_threads_than_cores_each_keep_one_column(self, monkeypatch):
        # four runs on two cores, switching threads often: each run's
        # attempts see its own column only, and no two runs share one
        config = replace(self.CONFIG, t_end=0.1)
        runs = [derive_params(sdot=sdot) for sdot in (0.8, 0.9, 1.0, 1.1)]
        sequential = [run_simulation(p, config) for p in runs]
        real_step = pde.step_predictor_corrector
        seen = {}
        start = threading.Barrier(len(runs))

        def step(state, dt, params, prediction=None):
            seen.setdefault(threading.get_ident(), []).append(pde._run.column)
            return real_step(state, dt, params, prediction=prediction)

        def run(params):
            start.wait(timeout=60)
            return run_simulation(params, config)

        monkeypatch.setattr(pde, "step_predictor_corrector", step)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(runs)) as pool:
                concurrent = list(pool.map(run, runs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == len(runs)
        firsts = [columns[0] for columns in seen.values()]
        assert all(all(column is columns[0] for column in columns) for columns in seen.values())
        assert all(a is not b for i, a in enumerate(firsts) for b in firsts[i + 1 :])
        for alone, together in zip(sequential, concurrent):
            assert np.array_equal(alone.h, together.h)
            assert np.array_equal(alone.final_state.phi, together.final_state.phi)
            assert np.array_equal(alone.final_state.psi, together.final_state.psi)

    @staticmethod
    def count_columns(monkeypatch):
        """Count the columns allocated and the step attempts made."""
        counts = {"columns": 0, "attempts": 0}
        real_column, real_step = pde._Column, pde.step_predictor_corrector

        def column(n):
            counts["columns"] += 1
            return real_column(n)

        def step(state, dt, params, prediction=None):
            counts["attempts"] += 1
            return real_step(state, dt, params, prediction=prediction)

        monkeypatch.setattr(pde, "_Column", column)
        monkeypatch.setattr(pde, "step_predictor_corrector", step)
        return counts

    def test_a_run_allocates_one_column_and_a_direct_attempt_one_per_call(
        self, params_default, monkeypatch
    ):
        counts = self.count_columns(monkeypatch)
        series = run_simulation(params_default, self.CONFIG)
        assert counts == {"columns": 1, "attempts": series.stats.steps_accepted}
        assert getattr(pde._run, "column", None) is None

        state = series.final_state
        for _ in range(3):
            state = pde.step_predictor_corrector(state, self.CONFIG.dt, params_default)
        assert counts["columns"] == 4

    def test_a_run_that_raises_drops_its_column(self, params_default, monkeypatch):
        def rejected(state, dt, params, prediction=None):
            assert pde._run.column.x.size == state.phi.size
            raise StepRejected("synthetic rejection")

        monkeypatch.setattr(pde, "step_predictor_corrector", rejected)
        with pytest.raises(SolverError, match="synthetic rejection"):
            run_simulation(params_default, self.CONFIG)
        assert getattr(pde._run, "column", None) is None

    def test_a_direct_attempt_on_the_run_column_matches_one_outside_any_run(
        self, params_default, monkeypatch
    ):
        # a direct attempt with other parameters on the run's node count,
        # made inside each of the run's attempts, works in the run's column;
        # nothing in a column derives from the parameters, so the direct
        # attempt returns the bytes it returns outside any run, and the run
        # is left bit for bit
        expected = run_simulation(params_default, self.CONFIG)
        other = derive_params(a0=2.0, beta=30.0, m=9, zstar=0.05, sdot=1.3, lam=2.0)
        previous, state = TestExtrapolatedPredictor.history(other)
        # the reaction already consumes reactant in the state's column
        assert state.psi.min() < other.psi0
        line = pde._extrapolate(state, previous, self.CONFIG.dt)
        alone = [step_predictor_corrector(state, self.CONFIG.dt, other, prediction=given) for given in (None, line)]
        real_step = pde.step_predictor_corrector
        columns, inside = [], []

        def step(state_now, dt, params, prediction=None):
            columns.append(pde._run.column)
            for given in (None, line):
                inside.append(real_step(state, self.CONFIG.dt, other, prediction=given))
            return real_step(state_now, dt, params, prediction=prediction)

        monkeypatch.setattr(pde, "step_predictor_corrector", step)
        series = run_simulation(params_default, self.CONFIG)
        assert len(columns) == series.stats.steps_accepted
        assert all(column is columns[0] and column.x.size == state.phi.size for column in columns)
        for i, stepped in enumerate(inside):
            want = alone[i % 2]
            assert (stepped.t, stepped.h) == (want.t, want.h)
            assert stepped.phi.tobytes() == want.phi.tobytes()
            assert stepped.psi.tobytes() == want.psi.tobytes()
        for name in ("t", "h", "hdot"):
            assert getattr(series, name).tobytes() == getattr(expected, name).tobytes()
        assert series.final_state.phi.tobytes() == expected.final_state.phi.tobytes()
        assert series.final_state.psi.tobytes() == expected.final_state.psi.tobytes()

    # every row is written before it is read: a column whose block is filled
    # with NaN before each attempt leaves the run bit for bit; the configs
    # take extrapolated attempts, same-dt retakes and halved steps
    @pytest.mark.parametrize(
        "config",
        [
            CONFIG,
            RunConfig(n_nodes=64, dt=0.05, t_end=1.0, output_every=0.25),
            RunConfig(n_nodes=288, dt=1.0, t_end=2.0, output_every=1.0),
        ],
        ids=["small", "retakes", "oversized"],
    )
    def test_a_column_poisoned_before_each_attempt_changes_nothing(self, params_default, config):
        expected = run_simulation(params_default, config)
        real_step = pde.step_predictor_corrector
        seen = []

        def poisoned(state, dt, params, prediction=None):
            column = pde._run.column
            seen.append(column)
            column.points.base.fill(np.nan)
            return real_step(state, dt, params, prediction=prediction)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pde, "step_predictor_corrector", poisoned)
            series = run_simulation(params_default, config)
        assert len(seen) >= series.stats.steps_accepted + series.stats.steps_rejected
        assert all(column is seen[0] for column in seen)
        for name in ("t", "h", "hdot"):
            assert getattr(series, name).tobytes() == getattr(expected, name).tobytes()
        assert series.final_state.phi.tobytes() == expected.final_state.phi.tobytes()
        assert series.final_state.psi.tobytes() == expected.final_state.psi.tobytes()
        assert series.stats == expected.stats

    def test_a_run_inside_an_attempt_hands_the_column_back(self, params_default, monkeypatch):
        # a run started by an attempt of another run on the same thread
        # works in a column of its own and restores the outer run's, and
        # an attempt on another node count inside a run allocates its own
        expected = run_simulation(params_default, self.CONFIG)
        inner_config = replace(self.CONFIG, n_nodes=32, t_end=0.05)
        inner_expected = run_simulation(params_default, inner_config)
        small = initial_state(params_default, inner_config)
        small_expected = step_predictor_corrector(small, inner_config.dt, params_default)
        real_step = pde.step_predictor_corrector
        inner = []

        def step(state, dt, params, prediction=None):
            outer = pde._run.column
            if not inner:
                monkeypatch.setattr(pde, "step_predictor_corrector", real_step)
                inner.append(run_simulation(params, inner_config))
                inner.append(real_step(small, inner_config.dt, params))
                monkeypatch.setattr(pde, "step_predictor_corrector", step)
            assert pde._run.column is outer
            return real_step(state, dt, params, prediction=prediction)

        monkeypatch.setattr(pde, "step_predictor_corrector", step)
        series = run_simulation(params_default, self.CONFIG)
        assert np.array_equal(inner[0].h, inner_expected.h)
        assert np.array_equal(inner[1].phi, small_expected.phi)
        assert np.array_equal(inner[1].psi, small_expected.psi)
        assert np.array_equal(series.h, expected.h)
        assert np.array_equal(series.final_state.phi, expected.final_state.phi)


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

        def step(state, dt, params, prediction=None):
            attempts.append((state.t, dt))
            if (state.t, dt) in rejected or reject(attempts):
                rejected.add((state.t, dt))
                raise StepRejected("synthetic rejection")
            return alter(real_step(state, dt, params, prediction=prediction))

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
        def linear(state, dt, params, prediction=None):
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


def run_python(code, *path):
    """Run ``code`` in a fresh interpreter with ``path`` and then this
    package's source folder ahead of sys.path; return what it printed."""
    source = Path(pde.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, [*path, source])))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLapackLoading:
    """pde binds LAPACK dgtsv from scipy's extension module directly: a
    run and a wave profile never import the scipy.linalg package, whose
    array-API layer costs a fresh process about 0.3 s."""

    def test_a_step_and_a_profile_leave_scipy_linalg_unloaded(self):
        loaded = run_python("""
            import json, sys
            from basinwave import asymptotics, core, pde
            params = core.derive_params()
            pde.run_simulation(params, core.RunConfig(n_nodes=1056, dt=2e-3, t_end=2e-3))
            asymptotics.build_wave_profile(asymptotics.solve_c_consistent(params), params)
            print(json.dumps([name for name in ("scipy.linalg", "scipy._lib._array_api")
                              if name in sys.modules]))
        """)
        assert json.loads(loaded) == []

    @pytest.mark.parametrize("first, second", [
        ("import scipy.linalg", "from basinwave import pde"),
        ("from basinwave import pde", "import scipy.linalg"),
    ], ids=["scipy_first", "basinwave_first"])
    def test_either_import_order_shares_one_dgtsv(self, first, second):
        result = run_python(f"""
            import json, sys
            import numpy as np
            {first}
            {second}
            bands = np.array([[0.0, 1.0, 2.0], [4.0, 5.0, 6.0], [1.0, 3.0, 0.0]])
            rhs = np.array([1.0, -2.0, 3.0])
            x = scipy.linalg.solve_banded((1, 1), bands, rhs)
            dense = np.diag(bands[1]) + np.diag(bands[0, 1:], 1) + np.diag(bands[2, :-1], -1)
            print(json.dumps({{
                "same": pde.dgtsv is scipy.linalg.lapack.dgtsv,
                "submodule": getattr(scipy.linalg, "_flapack", None) is sys.modules["scipy.linalg._flapack"],
                "residual": float(np.max(np.abs(dense @ x - rhs))),
            }}))
        """)
        result = json.loads(result)
        assert result["same"]
        assert result["submodule"]
        assert result["residual"] <= 1e-14

    def test_missing_extension_is_an_import_error_naming_the_folder(self, tmp_path):
        linalg = tmp_path / "scipy" / "linalg"
        linalg.mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        message = run_python("""
            try:
                import basinwave.pde
            except ImportError as error:
                print(error)
            else:
                print("imported")
        """, tmp_path)
        assert str(linalg) in message
