import math
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from basinwave import asymptotics, pde, verify
from basinwave.core import RunConfig, derive_params
from basinwave.pde import run_simulation

# Tier-1 runs the same hypothesis examples every time.
settings.register_profile("tier1", derandomize=True, max_examples=40, deadline=None)
settings.load_profile("tier1")

#: Wave speed of the default parameter set from the implicit matching
#: equation, frozen from an independent 50-digit root of the un-substituted
#: matched form (rebuilt by TestSolveC::test_oracles_rebuilt_at_50_digits).
C_MATCHED_DEFAULT = 0.24944962882133271

#: Same oracle with the reaction terms removed (a0 = psi0 = 0).
C_MATCHED_PURE = 0.26593108308039328


def alter_corrector(monkeypatch, alter):
    """Pass the fields of every corrector sweep through
    ``alter(phi, psi) -> (phi, psi)``."""
    real_sweep = pde._sweep

    def sweep(*args):
        return alter(*real_sweep(*args))

    monkeypatch.setattr(pde, "_sweep", sweep)


def bottom_robin_residual(state, params):
    """|phi_z - phi| at the basement, measured with a third-order stencil.

    The solve enforces the Robin condition through a second-order stencil;
    measuring with a higher-order one exposes the O(dx^2) closure error.
    """
    dx = 1.0 / (state.phi.size - 1)
    phi = state.phi
    phi_z = (-11.0 * phi[0] + 18.0 * phi[1] - 9.0 * phi[2] + 2.0 * phi[3]) / (
        6.0 * dx * state.h
    )
    return abs(phi_z - phi[0])


def flux_null_defects(params, n):
    """Defects of the assembled porosity discretization on n nodes, applied
    to the flux-null profile phi = phi0 e^((x - 1) h) with h = 1.

    The profile has phi_z = phi, so the compaction flux and its divergence
    vanish, the Robin condition phi_z - phi = 0 holds at the basement and
    dh/dt = sdot at the top. Returns (interior, robin, top): the max-norm of
    the interior operator (with hdot = sdot) minus the analytic advective
    correction x*sdot*phi, the production bottom row applied to the profile
    divided by its 2*dx*h scale, and hdot minus sdot. Each is O(dx^2) for a
    second-order scheme.
    """
    h = 1.0
    x = np.linspace(0.0, 1.0, n)
    dx = 1.0 / (n - 1)
    phi = params.phi0 * np.exp((x - 1.0) * h)
    _, k_half, _, adv = pde._frozen_coefficients(phi, h, params.sdot, params, x, dx, 1.0)
    rates = pde._apply_tridiag(*pde._phi_operator(k_half, adv, h, params, dx, 1.0), phi)
    interior = float(np.max(np.abs(rates - x[1:-1] * params.sdot * phi[1:-1])))
    b0, b1, b2 = pde._robin_row(dx, h)
    robin = float(abs(b0 * phi[0] + b1 * phi[1] + b2 * phi[2])) / (2.0 * dx * h)
    top = abs(pde.hdot(phi, h, params) - params.sdot)
    return interior, robin, top


def spatial_order_ladder(params):
    """Largest flux-null defect on n = 48 * 2^k, k = 0..2, and the observed
    orders between successive levels (criterion 8's spatial check)."""
    largest = [max(flux_null_defects(params, 48 * 2**k)) for k in range(3)]
    orders = [math.log2(a / b) for a, b in zip(largest, largest[1:])]
    return largest, orders


def dense_output_reference(records, t_eval, direction):
    """Reference for ``asymptotics._dense_output``: the quartic interpolant
    as the integrator first wrote it, with the step ends built by appending
    the last step's end, t_eval[-1], to the later step starts."""
    starts = records[:, 7]
    ends = np.append(starts[1:], t_eval[-1])
    i = np.searchsorted(direction * ends, direction * t_eval)
    q = (records[:, :7] @ asymptotics._DP_P)[i]
    step = records[i, 9]
    x = (t_eval - starts[i]) / step
    x2 = x * x
    x3 = x2 * x
    poly = q[:, 0] * x + q[:, 1] * x2 + q[:, 2] * x3 + q[:, 3] * (x3 * x)
    return step * poly + records[i, 8]


def jump_residual_reference(c, params):
    """Reference for ``asymptotics.jump_residual``: the same inner solution,
    with its finite differences and brackets taken on numpy arrays."""
    C = asymptotics.inner_C(c, params)
    if params.a0 == 0.0 or C == 0.0:
        return 0.0
    low, high = asymptotics.default_inner_span(c, params)
    eta = np.array([low, low + 1 / 400, high - 1 / 400, high])
    Phi = asymptotics.inner_Phi_ode(c, params, C, eta)
    Phi_eta = (Phi[1::2] - Phi[::2]) / (eta[1::2] - eta[::2])
    Phi = Phi[::3]
    bracket = (
        c * params.phistar * Phi
        + params.lam * params.phistar * np.exp(Phi) * (params.A * Phi_eta - 1.0)
    )
    jump = -c * params.a0 * C / params.A
    return float((bracket[1] - bracket[0]) - jump)


@st.composite
def box_params(draw):
    """The validated parameter box: m 7-20, beta 10-60, phi0 0.3-0.6,
    psi0 <= min(0.4, 1 - phi0), sdot 0.5-1.5."""
    phi0 = draw(st.floats(0.3, 0.6))
    return derive_params(
        m=draw(st.integers(7, 20)),
        beta=draw(st.floats(10.0, 60.0)),
        phi0=phi0,
        psi0=draw(st.floats(0.0, min(0.4, 1.0 - phi0))),
        sdot=draw(st.floats(0.5, 1.5)),
    )


def _central_fd(f, u, step):
    """Central difference of ``f`` at ``u`` with half-width ``step``."""
    return (f(u + step) - f(u - step)) / (2.0 * step)


def below_zone_pde_residual_loop(params, rng_seed=0):
    """Reference for ``verify.below_zone_pde_residual``: the same samples
    and steps, one scalar sample at a time."""
    rng = np.random.default_rng(rng_seed)
    z = rng.uniform(0.0, 5.0, verify._DRAINAGE_SAMPLES)
    t = rng.uniform(0.0, 5.0, verify._DRAINAGE_SAMPLES)
    worst = 0.0
    for zi, ti in zip(z, t):
        step_t = verify._FD_STEP * (1 + ti)
        step_z = verify._FD_STEP * (1 + zi)
        phi_t = _central_fd(lambda u: asymptotics.below_zone_Phi(zi, u, params), ti, step_t)
        phi_z = _central_fd(lambda u: asymptotics.below_zone_Phi(u, ti, params), zi, step_z)
        val = asymptotics.below_zone_Phi(zi, ti, params)
        worst = max(worst, abs(phi_t + params.lam * math.exp(val) * phi_z))
    return worst


def inner_psi_ode_residual_loop(c, params):
    """Reference for ``verify.inner_psi_ode_residual``, one node at a time."""
    C = asymptotics.inner_C(c, params)
    worst = 0.0
    for eta in np.linspace(-3.0, 10.0, verify._INNER_PSI_SAMPLES):
        psi_eta = _central_fd(lambda u: float(asymptotics.inner_psi(u, c, C)), eta, verify._FD_STEP)
        psi = float(asymptotics.inner_psi(eta, c, C))
        worst = max(worst, abs(c * psi_eta - math.exp(-eta) * psi))
    return worst


@pytest.fixture(autouse=True)
def fresh_speed_memo():
    """Empty the speed solver's memo before each test, so that no test
    reads a root another test solved."""
    asymptotics._solve_speed.cache_clear()


@pytest.fixture(scope="session")
def params_default():
    return derive_params()


@pytest.fixture(scope="session")
def params_pure():
    return derive_params(a0=0.0, psi0=0.0)


@pytest.fixture(scope="session")
def default_config():
    return RunConfig()


@pytest.fixture(scope="session")
def sim_default(params_default, default_config):
    """Full reactive simulation at the default configuration (shared)."""
    start = time.perf_counter()
    series = run_simulation(params_default, default_config)
    elapsed = time.perf_counter() - start
    return series, elapsed


@pytest.fixture(scope="session")
def sim_pure(params_pure, default_config):
    """Reaction-free run (a0 = psi0 = 0) through the full stepper."""
    return run_simulation(params_pure, default_config)


@pytest.fixture(scope="session")
def sim_inert_reactant(default_config):
    """Reactant transported and consumed but releasing no water (a0 = 0,
    psi0 = 0.3)."""
    return run_simulation(derive_params(a0=0.0, psi0=0.3), default_config)
