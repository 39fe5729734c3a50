"""Cross-validation batteries: exact-solution residuals, solver agreement,
and the simulation-vs-matching speed comparison. The spatial order of the
stepper's discretization is checked in the test suite, which applies the
assembled operators to an exact profile on a refinement ladder.

Every check carries an explicit tolerance and a machine-checkable pass
flag; "primary" checks gate the verification exit status, "info" entries
are reported for visibility only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import asymptotics, pde
from .core import BasinParams, RunConfig, layer_nodes

_FD_STEP = 1e-6

# Sample counts of the two finite-difference residual scans; a NaN sample fails its scan.
_DRAINAGE_SAMPLES = 100
_INNER_PSI_SAMPLES = 200


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

    def all_passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.tier == "primary" and not c.passed]

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
        asymptotics.solve_c(replace(params, sdot=0.5 * params.sdot)).c,
        c,
        asymptotics.solve_c(replace(params, sdot=2.0 * params.sdot)).c,
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
    c_num, fit_quality = pde.estimate_wave_speed(series)

    window = series.hdot[-pde.speed_window(series.hdot.size) :]
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
