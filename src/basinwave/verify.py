"""Cross-validation batteries: exact-solution residuals, solver agreement,
simulation-vs-matching speed comparison, and convergence studies.

Every check carries an explicit tolerance and a machine-checkable pass
flag; "primary" checks gate the verification exit status, "info" entries
are reported for visibility only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import asymptotics, pde
from .core import BasinParams, BasinState, RunConfig, layer_nodes, rederive
from .errors import ValidationError

_FD_STEP = 1e-6

# Sample counts of the two finite-difference residual scans; a NaN sample fails its scan.
_DRAINAGE_SAMPLES = 100
_INNER_PSI_SAMPLES = 200

# Grid levels of each refinement ladder; three give two convergence ratios.
_LADDER_LEVELS = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    tier: str = "primary"
    note: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, value, tolerance, passed, tier="primary", note=""):
        self.checks.append(
            CheckResult(
                name=name,
                value=float(value),
                tolerance=float(tolerance),
                passed=bool(passed),
                tier=tier,
                note=note,
            )
        )

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def all_passed(self, tier: str = "primary") -> bool:
        return all(c.passed for c in self.checks if c.tier == tier)

    def failures(self, tier: str = "primary") -> list[CheckResult]:
        return [c for c in self.checks if c.tier == tier and not c.passed]

    def rows(self) -> list[tuple]:
        return [(c.name, c.value, c.tolerance, c.passed) for c in self.checks]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {c.name:32s} value={c.value: .6e} tol={c.tolerance:.3e}"
                + (f"  ({c.note})" if c.note else "")
            )
        return "\n".join(lines)


def _central_fd(f, u, step):
    return (f(u + step) - f(u - step)) / (2.0 * step)


def below_zone_pde_residual(params: BasinParams, rng_seed: int = 0) -> float:
    """Max finite-difference residual of Phi_t + lam e^Phi Phi_z at random
    (z, t) samples; the drainage solution satisfies it identically."""
    rng = np.random.default_rng(rng_seed)
    z = rng.uniform(0.0, 5.0, _DRAINAGE_SAMPLES)
    t = rng.uniform(0.0, 5.0, _DRAINAGE_SAMPLES)
    phi_t = _central_fd(lambda u: asymptotics.below_zone_Phi(z, u, params), t, _FD_STEP * (1 + t))
    phi_z = _central_fd(lambda u: asymptotics.below_zone_Phi(u, t, params), z, _FD_STEP * (1 + z))
    val = asymptotics.below_zone_Phi(z, t, params)
    return float(np.max(np.abs(phi_t + params.lam * np.exp(val) * phi_z)))


def inner_psi_ode_residual(c: float, params: BasinParams) -> float:
    """Max finite-difference residual of c psi_eta = e^(-eta) psi."""
    C = asymptotics.inner_C(c, params)
    eta = np.linspace(-3.0, 10.0, _INNER_PSI_SAMPLES)
    psi_eta = _central_fd(lambda u: asymptotics.inner_psi(u, c, C), eta, _FD_STEP)
    psi = asymptotics.inner_psi(eta, c, C)
    return float(np.max(np.abs(c * psi_eta - np.exp(-eta) * psi)))


def matching_defect(c: float, params: BasinParams) -> float:
    """Defect of the matching equality between the outer invariant and the
    jumped inner bracket, in its un-substituted form."""
    phi_inf = asymptotics.phi_infinity(c, params)
    C = asymptotics.inner_C(c, params)
    lhs = c * params.phi0 + (c - params.sdot) * (1.0 - params.phi0)
    rhs = (
        c * params.phistar * phi_inf
        - params.lam * params.phistar * math.exp(phi_inf)
        - C * c * params.a0 / params.A
    )
    return lhs - rhs


def residual_battery(params: BasinParams) -> VerificationReport:
    """Exact-solution residuals, first-integral scan, jump defect, and
    solver cross-agreement, each at its stated tolerance."""
    report = VerificationReport()

    r = below_zone_pde_residual(params)
    report.add("below_zone_pde_residual", r, 1e-6, r <= 1e-6)

    match = asymptotics.solve_c(params)
    c = match.c

    r = inner_psi_ode_residual(c, params)
    report.add("inner_psi_ode_residual", r, 1e-6, r <= 1e-6)

    outer = asymptotics.solve_outer(c, params)
    invariant = c * outer.phi + asymptotics.outer_flux_invariant(outer.phi, outer.phi_zeta, params)
    expected = c * params.phi0 + (c - params.sdot) * (1.0 - params.phi0)
    r = float(np.max(np.abs(invariant - expected)))
    report.add("outer_flux_invariant", r, 1e-8, r <= 1e-8)

    r = abs(asymptotics.jump_residual(c, params))
    report.add("jump_condition_defect", r, 1e-6, r <= 1e-6)

    r = abs(matching_defect(c, params))
    report.add("matching_defect", r, 1e-9, r <= 1e-9)

    r = abs(match.c - match.c_fixed_point)
    agreement = 10.0 * asymptotics._ROOT_TOL
    report.add("speed_solver_agreement", r, agreement, r <= agreement)

    speeds = [
        asymptotics.solve_c(rederive(params, sdot=0.5 * params.sdot)).c,
        c,
        asymptotics.solve_c(rederive(params, sdot=2.0 * params.sdot)).c,
    ]
    min_gain = min(np.diff(speeds))
    report.add(
        "monotone_sdot_response", min_gain, 0.0, min_gain > 0.0,
        note="c must increase strictly with sdot",
    )

    mc = asymptotics.solve_c_consistent(params)
    gap = abs(match.c - mc.c) / mc.c
    report.add(
        "matched_vs_consistent_speed", gap, math.inf, True, tier="info",
        note=f"primary matching c={match.c:.5f} vs conservation-consistent c={mc.c:.5f}",
    )
    return report


def cross_validate_speed(params: BasinParams, config: RunConfig) -> VerificationReport:
    """Run the PDE to t_end and compare the fitted boundary speed against
    the matching solve; reports the flatness and fit-quality metrics."""
    report = VerificationReport()
    series = pde.run_simulation(params, config)
    window_fraction = 0.3
    c_num, fit_quality = pde.estimate_wave_speed(series, window_fraction)

    n = series.hdot.size
    k = int(math.ceil(window_fraction * n))
    window = series.hdot[n - k :]
    flatness = float((window.max() - window.min()) / abs(window.mean()))

    h_max = float(series.h.max())
    activated = h_max > params.zstar
    report.add(
        "reaction_activated", h_max - params.zstar, 0.0, activated, tier="info",
        note="reaction never activated (basin shallower than zstar)" if not activated else "",
    )
    needed = layer_nodes(params, h_max)
    report.add(
        "layer_resolution", config.n_nodes - needed, 0.0, config.n_nodes >= needed,
        tier="info", note=f"resolution rule wants n_nodes >= {needed:.0f}",
    )

    match = asymptotics.solve_c(params)
    gap = abs(c_num - match.c) / match.c
    report.add(
        "speed_gap_matched", gap, 0.15, gap <= 0.15,
        note=f"c_num={c_num:.5f} c_asym={match.c:.5f}",
    )
    consistent = asymptotics.solve_c_consistent(params)
    gap_c = abs(c_num - consistent.c) / consistent.c
    report.add(
        "speed_gap_consistent", gap_c, 0.15, gap_c <= 0.15, tier="info",
        note=f"c_num={c_num:.5f} c_consistent={consistent.c:.5f}",
    )
    report.add("hdot_flatness", flatness, 1e-2, flatness <= 1e-2)
    report.add(
        "speed_fit_quality", fit_quality, 0.999, fit_quality >= 0.999,
        note="pass when value >= tolerance",
    )
    return report


def manufactured_step_error(params: BasinParams, n_nodes: int) -> float:
    """Single-step max-norm error on the flux-null manufactured profile.

    The profile phi = phi0 e^(z - h) annihilates the compaction flux, and
    injecting its analytic defect source S = -hdot*phi makes it an exact
    solution of the forced system; the remaining error isolates the spatial
    discretization (flux stencils, advective correction, boundary rows).
    """
    if params.psi0 != 0.0:
        raise ValidationError("manufactured test runs reactant-free (psi0 = 0)")
    dt = 1e-5
    h0 = 1.0
    x = np.linspace(0.0, 1.0, n_nodes)

    def exact(t):
        return params.phi0 * np.exp((h0 + params.sdot * t) * (x - 1.0))

    def source(x_eval, t):
        return -params.sdot * params.phi0 * np.exp(
            (h0 + params.sdot * t) * (x_eval - 1.0)
        )

    state = BasinState(t=0.0, h=h0, x=x, phi=exact(0.0), psi=np.zeros(n_nodes))
    stepped = pde.step_predictor_corrector(
        state, dt, params, extra_phi_source=source, compaction_only=True
    )
    return float(np.max(np.abs(stepped.phi - exact(dt))))


def manufactured_orders(params: BasinParams):
    """Observed convergence orders over a manufactured refinement ladder."""
    errors = [manufactured_step_error(params, 48 * 2**k) for k in range(_LADDER_LEVELS)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(_LADDER_LEVELS - 1)]
    return errors, orders


def convergence_study(params: BasinParams, config: RunConfig) -> VerificationReport:
    """Manufactured-profile spatial order, full-run Richardson ratios, and
    dt-halving sensitivity, all on the supplied (short) configuration."""
    report = VerificationReport()

    p_mms = rederive(params, psi0=0.0, a0=0.0)
    errors, orders = manufactured_orders(p_mms)
    observed = min(orders)
    report.add(
        "manufactured_order", observed, 1.9, observed >= 1.9,
        note="pass when value >= tolerance; errors "
        + ", ".join(f"{e:.2e}" for e in errors),
    )

    ladder = [
        pde.run_simulation(params, replace(config, n_nodes=config.n_nodes * 2**k))
        for k in range(_LADDER_LEVELS)
    ]
    h_end = [series.h[-1] for series in ladder]
    d1 = abs(h_end[0] - h_end[1])
    d2 = abs(h_end[1] - h_end[2])
    if d2 == 0.0 or d1 == 0.0:
        report.add("richardson_order_h", math.nan, math.inf, True, tier="info",
                   note="differences vanished; ladder too fine to rate")
    else:
        order_h = math.log2(d1 / d2)
        monotone = d1 > d2
        report.add(
            "richardson_order_h", order_h, math.inf, True, tier="info",
            note="monotone refinement" if monotone else "non-monotone differences",
        )

    # ladder level 0 is the run at the supplied config
    series_dt2 = pde.run_simulation(params, replace(config, dt=0.5 * config.dt))
    shift = abs(ladder[0].hdot[-1] - series_dt2.hdot[-1]) / abs(series_dt2.hdot[-1])
    report.add("dt_halving_hdot_shift", shift, 1e-3, shift <= 1e-3)
    return report
