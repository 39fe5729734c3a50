"""Cross-validation batteries: exact-solution residuals and the
simulation-vs-matching speed comparison. The spatial order of the
stepper's discretization is checked in the test suite, which applies the
assembled operators to an exact profile on a refinement ladder.

Every check carries an explicit tolerance and a machine-checkable pass
flag; "primary" checks gate the verification exit status, "info" entries
are reported for visibility only. ``outer_flux_invariant`` checks the
first-integral inversion at the integrated nodes: a finite-difference slope
of the same profile misses it by 6.9e-6 at the primary root and 6.8e-7 at
the consistent one (defaults). ``monotone_sdot_response`` reports dc/dsdot
at the primary root from the implicit function theorem, in closed form, so
no speed is solved at another sdot.

``residual_battery`` raises the first failure it meets, cheapest first in
the order that ``asymptotics._check_outer_top`` states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import asymptotics, pde
from .core import BasinParams, RunConfig, layer_nodes

_FD_STEP = 1e-6

# Sample counts of the two finite-difference residual scans; a NaN sample fails its scan.
_DRAINAGE_SAMPLES = 100
_INNER_PSI_SAMPLES = 200

# The eta nodes of inner_psi_ode_residual and e^(-eta) there, and the node
# sets its one evaluation stacks: eta + step, eta - step and eta; read-only.
_INNER_PSI_ETA = np.linspace(-3.0, 10.0, _INNER_PSI_SAMPLES)
_INNER_PSI_DECAY = np.exp(-_INNER_PSI_ETA)
_INNER_PSI_NODES = np.stack((_INNER_PSI_ETA + _FD_STEP, _INNER_PSI_ETA - _FD_STEP, _INNER_PSI_ETA))
_INNER_PSI_ETA.flags.writeable = _INNER_PSI_DECAY.flags.writeable = False
_INNER_PSI_NODES.flags.writeable = False


class CheckResult(NamedTuple):
    """One report row; immutable, with the repr of the keyword form."""

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
        self.checks.append(CheckResult(name, float(value), float(tolerance), bool(passed), tier, note))

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


@functools.lru_cache(maxsize=4)
def _drainage_samples(rng_seed: int):
    """The seeded (z, t) samples of :func:`below_zone_pde_residual` as
    ``(z_sets, t_sets, z_width, t_width)``, drawn once per seed as read-only
    arrays: the five sample sets t + t_step, t - t_step, z + z_step,
    z - z_step and the centre (z, t), stacked for one evaluation, and the
    central differences' widths 2 z_step and 2 t_step."""
    rng = np.random.default_rng(rng_seed)
    z = rng.uniform(0.0, 5.0, _DRAINAGE_SAMPLES)
    t = rng.uniform(0.0, 5.0, _DRAINAGE_SAMPLES)
    z_step, t_step = _FD_STEP * (1 + z), _FD_STEP * (1 + t)
    z_sets = np.stack((z, z, z + z_step, z - z_step, z))
    t_sets = np.stack((t + t_step, t - t_step, t, t, t))
    samples = (z_sets, t_sets, 2.0 * z_step, 2.0 * t_step)
    for array in samples:
        array.flags.writeable = False
    return samples


def below_zone_pde_residual(params: BasinParams, rng_seed: int = 0) -> float:
    """Max finite-difference residual of Phi_t + lam e^Phi Phi_z at random
    (z, t) samples; the drainage solution satisfies it identically."""
    z_sets, t_sets, z_width, t_width = _drainage_samples(rng_seed)
    t_ahead, t_behind, z_ahead, z_behind, val = asymptotics.below_zone_Phi(z_sets, t_sets, params)
    phi_t = (t_ahead - t_behind) / t_width
    phi_z = (z_ahead - z_behind) / z_width
    return float(np.abs(phi_t + params.lam * np.exp(val) * phi_z).max())


def inner_psi_ode_residual(c: float, params: BasinParams) -> float:
    """Max finite-difference residual of c psi_eta = e^(-eta) psi."""
    ahead, behind, psi = asymptotics.inner_psi(_INNER_PSI_NODES, c, asymptotics.inner_C(c, params))
    psi_eta = (ahead - behind) / (2.0 * _FD_STEP)
    return float(np.abs(c * psi_eta - _INNER_PSI_DECAY * psi).max())


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


def sdot_response(c: float, params: BasinParams) -> float:
    """dc/dsdot = (1 - phi0)/(d(c D)/dc) at a root c of the primary matching
    equation c D(c) = sdot (1 - phi0) (implicit function theorem), with
    d(c D)/dc = 1 - phistar ln(c/lam) + a0 C(c) (1 - e^(-eta_top)/c)/A;
    NaN where that derivative vanishes."""
    decay = asymptotics._top_decay(params)
    slope = (
        1.0
        - params.phistar * asymptotics.phi_infinity(c, params)
        + params.a0 * asymptotics.inner_C(c, params) * (1.0 - decay / c) / params.A
    )
    return (1.0 - params.phi0) / slope if slope else math.nan


def residual_battery(params: BasinParams) -> VerificationReport:
    """Exact-solution residuals, first-integral scan, jump and matching
    defects, and the speed's response to sdot, each at its stated tolerance.

    ``monotone_sdot_response`` is :func:`sdot_response` at the primary
    root, which must be positive: no speed is solved at another sdot.

    Failures are decided cheapest first: after the primary speed and the
    reactant scan, in the order that ``asymptotics._check_outer_top``
    states. The rows keep their order whatever the order of the work.
    """
    report = VerificationReport()

    r = below_zone_pde_residual(params)
    report.add("below_zone_pde_residual", r, 1e-6, r <= 1e-6)

    match = asymptotics.solve_c(params)
    c = match.c

    r = inner_psi_ode_residual(c, params)
    report.add("inner_psi_ode_residual", r, 1e-6, r <= 1e-6)

    asymptotics._check_outer_top(c, params)
    jump = abs(asymptotics.jump_residual(c, params))
    outer = asymptotics.solve_outer(c, params)

    invariant = c * outer.phi + asymptotics.outer_flux_invariant(outer.phi, outer.phi_zeta, params)
    expected = c * params.phi0 + (c - params.sdot) * (1.0 - params.phi0)
    r = float(np.abs(invariant - expected).max())
    report.add("outer_flux_invariant", r, 1e-8, r <= 1e-8)

    report.add("jump_condition_defect", jump, 1e-6, jump <= 1e-6)

    r = abs(matching_defect(c, params))
    report.add("matching_defect", r, 1e-9, r <= 1e-9)

    gain = sdot_response(c, params)
    report.add(
        "monotone_sdot_response", gain, 0.0, gain > 0.0,
        note="dc/dsdot at the root must be positive",
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
