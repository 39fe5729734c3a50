import time

import pytest
from hypothesis import settings

from basinwave.core import RunConfig, derive_params
from basinwave.pde import run_simulation

# Tier-1 runs the same hypothesis examples every time.
settings.register_profile("tier1", derandomize=True, max_examples=40, deadline=None)
settings.load_profile("tier1")

#: Wave speed of the default parameter set from the implicit matching
#: equation, frozen from an independent 50-digit bisection on the
#: un-substituted matched form.
C_MATCHED_DEFAULT = 0.24944962882133271

#: Same oracle with the reaction terms removed (a0 = psi0 = 0).
C_MATCHED_PURE = 0.26593108308039328


def bottom_robin_residual(state, params):
    """|phi_z - phi| at the basement, measured with a third-order stencil.

    The solve enforces the Robin condition through a second-order stencil;
    measuring with a higher-order one exposes the O(dx^2) closure error.
    """
    dx = 1.0 / (state.x.size - 1)
    phi = state.phi
    phi_z = (-11.0 * phi[0] + 18.0 * phi[1] - 9.0 * phi[2] + 2.0 * phi[3]) / (
        6.0 * dx * state.h
    )
    return abs(phi_z - phi[0])


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
def sim_pure_compaction_only(params_pure, default_config):
    """Same parameters through the reactant-free code path."""
    return run_simulation(params_pure, default_config, compaction_only=True)
