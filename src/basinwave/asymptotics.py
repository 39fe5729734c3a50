"""Traveling-wave analysis of the compaction column in the frame of the
reaction front.

With the front at theta* = h - zstar and zeta = z - theta*, the column
splits into three regions joined across the thin reaction zone:

* outer-above (zeta > 0): reaction negligible; the porosity equation
  integrates once to the flux first-integral

      c*phi + lam*(phi/phi0)^m * (phi_zeta - phi) = c*phi0 + (c - sdot)*(1 - phi0)

  and the reactant follows algebraically from its own first integral.
* inner (|zeta| = O(1/beta)): stretched coordinate eta = beta*zeta + ln(beta)
  and scaled log-porosity Phi with phi = phistar * e^(Phi/m). The reactant
  collapses double-exponentially, psi = C exp[-(1/c) e^(-eta)], and the
  once-integrated porosity balance carries a jump -c*a0*C/A across the zone.
* below (zeta < 0): reaction complete; Phi tends to the far-field value
  Phi_inf = ln(c/lam) inherited from the slow drainage solution
  Phi = ln((1 + m z)/(1 + m lam t)).

Equating the outer and inner flux invariants across the zone gives a scalar
implicit equation that selects the wave speed c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .core import BasinParams
from .errors import (
    NoRootError,
    ProfileRangeError,
    SingularProfileError,
    SolverError,
    StiffProfileError,
    ValidationError,
)

_POW_OVERFLOW_LIMIT = 700.0
_MAX_ROOT_ITERS = 200
# Stopping tolerance of both speed solvers, which must agree within 10 times it.
_ROOT_TOL = 1e-12


@dataclass(frozen=True)
class OuterProfile:
    """Outer-region profile above the reaction zone, ascending in zeta."""

    zeta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    phi_zeta: np.ndarray


@dataclass(frozen=True)
class TravellingWaveProfile:
    """Composite wave profile on a shared zeta grid with region tags."""

    c: float
    zeta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    region: np.ndarray


@dataclass(frozen=True)
class MatchResult:
    """Solved wave speed with matching diagnostics.

    ``c_fixed_point`` is the secondary solver's answer, kept for
    cross-agreement reporting.
    """

    c: float
    Phi_inf: float
    C: float
    B: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    c_fixed_point: float


def _inverse_permeability(phi: float, params: BasinParams) -> float:
    """(phi0/phi)^m via exp(m ln(phi0/phi)), guarded against overflow."""
    arg = params.m * math.log(params.phi0 / phi)
    if arg > _POW_OVERFLOW_LIMIT:
        raise StiffProfileError(
            f"(phi0/phi)^m overflows at phi = {phi!r}: exponent {arg:.3g} exceeds "
            f"{_POW_OVERFLOW_LIMIT}"
        )
    return math.exp(arg)


def outer_ode_rhs(phi: float, c: float, params: BasinParams) -> float:
    """dphi/dzeta from the inverted flux first-integral.

    phi + [c (phi0 - phi) + (c - sdot)(1 - phi0)] (phi0/phi)^m / lam.
    """
    if phi <= 0.0:
        raise StiffProfileError(f"outer porosity must be positive, got phi = {phi!r}")
    bracket = c * (params.phi0 - phi) + (c - params.sdot) * (1.0 - params.phi0)
    return phi + bracket * _inverse_permeability(phi, params) / params.lam


def outer_flux_invariant(phi, phi_zeta, params: BasinParams):
    """c-free part of the first integral: lam (phi/phi0)^m (phi_zeta - phi),
    combined with c*phi by the caller. Kept separate so checks do not reuse
    the inverted algebra of :func:`outer_ode_rhs`."""
    phi = np.asarray(phi, dtype=float)
    k = np.exp(params.m * np.log(phi / params.phi0))
    return params.lam * k * (np.asarray(phi_zeta) - phi)


def _psi_from_invariant(phi, c: float, params: BasinParams):
    """Reactant fraction from its outer first integral.

    The compaction flux is eliminated through the porosity invariant:
    lam K (phi_zeta - phi) = invariant - c*phi.
    """
    invariant = c * params.phi0 + (c - params.sdot) * (1.0 - params.phi0)
    denominator = c - (invariant - c * np.asarray(phi, dtype=float)) / (1.0 - params.phi0)
    small = np.abs(denominator) < 1e-12
    if np.any(small):
        raise SingularProfileError(
            "outer reactant relation is singular: flux denominator within 1e-12 of zero"
        )
    return params.sdot * params.psi0 / denominator


def _integrate_outer(c: float, params: BasinParams, zeta_desc: np.ndarray) -> np.ndarray:
    """Integrate the outer porosity ODE downward from zeta = zstar.

    Downward is the stable direction: the (phi0/phi)^m factor grows as phi
    decreases, so stiffness is met where the solution matters least.
    """
    if c <= 0.0:
        raise ValidationError(f"outer profile needs c > 0, got {c}")

    def rhs(_zeta, y):
        return [outer_ode_rhs(y[0], c, params)]

    sol = solve_ivp(
        rhs,
        (zeta_desc[0], zeta_desc[-1]),
        [params.phi0],
        t_eval=zeta_desc,
        method="RK45",
        rtol=1e-11,
        atol=1e-13,
    )
    if not sol.success:
        raise SolverError(f"outer profile integration failed: {sol.message}")
    phi = sol.y[0]
    if np.any(phi <= 0.0) or np.any(phi > params.phi0 * (1.0 + 1e-10)):
        raise ProfileRangeError("outer porosity left the admissible range (0, phi0]")
    return phi


def solve_outer(c: float, params: BasinParams) -> OuterProfile:
    """Outer-region profile on (0, zstar], top-down adaptive integration.

    Porosity is integrated with an adaptive 4th/5th-order method from
    phi(zstar) = phi0; the reactant is evaluated algebraically at each of
    the 400 output nodes.
    """
    if params.zstar <= 0.0:
        raise ValidationError("outer region is empty: zstar must be positive")
    zeta_desc = np.linspace(params.zstar, params.zstar * 1e-6, 400)
    phi_desc = _integrate_outer(c, params, zeta_desc)
    zeta = zeta_desc[::-1].copy()
    phi = phi_desc[::-1].copy()
    psi = _psi_from_invariant(phi, c, params)
    phi_zeta = np.array([outer_ode_rhs(p, c, params) for p in phi])
    return OuterProfile(zeta=zeta, phi=phi, psi=psi, phi_zeta=phi_zeta)


def below_zone_Phi(z, t, params: BasinParams):
    """Scaled log-porosity in the slow drainage zone below the front.

    Phi = ln((1 + m z)/(1 + m lam t)); satisfies Phi_t + lam e^Phi Phi_z = 0
    with Phi_z = m at the basement.
    """
    m, lam = params.m, params.lam
    return np.log((1.0 + m * np.asarray(z, dtype=float)) / (1.0 + m * lam * np.asarray(t, dtype=float)))


def phi_from_Phi(Phi, params: BasinParams):
    """Porosity from the scaled log variable: phi = phistar e^(Phi/m)."""
    return params.phistar * np.exp(np.asarray(Phi, dtype=float) / params.m)


def phi_infinity(c: float, params: BasinParams) -> float:
    """Far-field log-porosity deficit ln(c/lam) seen from below the front."""
    if c <= 0.0:
        raise ValidationError(f"wave speed must be positive, got {c}")
    return math.log(c / params.lam)


def inner_C(c: float, params: BasinParams) -> float:
    """Reactant normalization pinned by psi = psi0 at the top of the inner
    coordinate, eta_top = beta*zstar + ln(beta).

    C = psi0 * exp[(1/c) e^(-eta_top)]; for beta*zstar >> 1 this is psi0 to
    machine precision.
    """
    if c <= 0.0:
        raise ValidationError(f"wave speed must be positive, got {c}")
    if params.psi0 == 0.0:
        return 0.0
    eta_top = params.beta * params.zstar + math.log(params.beta)
    arg = min(math.exp(-eta_top) / c, _POW_OVERFLOW_LIMIT)
    return params.psi0 * math.exp(arg)


def inner_psi(eta, c: float, C: float):
    """Reactant profile through the zone: psi = C exp[-(1/c) e^(-eta)].

    Tends to C above the zone and collapses double-exponentially below it.
    """
    if c <= 0.0:
        raise ValidationError(f"wave speed must be positive, got {c}")
    eta = np.asarray(eta, dtype=float)
    with np.errstate(over="ignore"):
        return C * np.exp(-np.exp(-eta) / c)


def _reaction_completion(eta: float, c: float) -> float:
    """exp(-(1/c) e^(-eta)): the integrated reaction factor in the inner
    porosity balance (tends to 1 above the zone, to 0 below)."""
    if -eta > 690.0:
        return 0.0
    return math.exp(-math.exp(-eta) / c)


def _B_constant(c: float, params: BasinParams) -> float:
    phi_inf = phi_infinity(c, params)
    return c * params.phistar * phi_inf - params.lam * params.phistar * math.exp(phi_inf)


def default_inner_span(c: float, params: BasinParams) -> tuple[float, float]:
    """Span covering the reaction transition (around eta = -ln c) up to the
    physical top of the inner coordinate."""
    low = -math.log(c) - 12.0
    high = max(params.beta * params.zstar + math.log(params.beta), -math.log(c) + 12.0)
    return (low, high)


def _inner_on_nodes(c: float, params: BasinParams, C: float, eta_nodes: np.ndarray):
    """Inner integration with output exactly on the requested node set."""
    B = _B_constant(c, params)
    phi_inf = phi_infinity(c, params)
    lam_ps = params.lam * params.phistar
    c_ps = c * params.phistar
    source_scale = c * params.a0 * C / params.A

    def rhs(eta, y):
        Phi = y[0]
        if Phi < -600.0:
            raise StiffProfileError(
                f"inner log-porosity underflowed (Phi = {Phi:.3g} at eta = {eta:.3g})"
            )
        s = _reaction_completion(eta, c)
        return [(1.0 + (B - c_ps * Phi - source_scale * s) / (lam_ps * math.exp(Phi))) / params.A]

    sol = solve_ivp(
        rhs,
        (eta_nodes[0], eta_nodes[-1]),
        [phi_inf],
        t_eval=eta_nodes,
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise SolverError(f"inner profile integration failed: {sol.message}")
    return eta_nodes, sol.y[0]


def inner_Phi_ode(
    c: float,
    params: BasinParams,
    C: float,
    eta_span: tuple[float, float] | None = None,
    n: int = 1201,
):
    """Integrate the once-integrated inner porosity balance.

    A Phi_eta = 1 + [B - c phistar Phi - (c a0 / A) C s(eta)] / (lam phistar e^Phi)

    with s(eta) = exp(-(1/c) e^(-eta)), the exact integral of the reaction
    term against the inner reactant profile, and Phi = Phi_inf at the lower
    end (where s vanishes double-exponentially, making Phi_inf a fixed
    point by the construction of B). Returns (eta, Phi) arrays.
    """
    if eta_span is None:
        eta_span = default_inner_span(c, params)
    eta = np.linspace(eta_span[0], eta_span[1], n)
    return _inner_on_nodes(c, params, C, eta)


def jump_residual(c: float, params: BasinParams, eta_span=None, n: int | None = None) -> float:
    """Defect of the reaction-zone jump condition.

    Evaluates c phistar Phi + lam phistar e^Phi (A Phi_eta - 1) at both ends
    of the integrated inner solution (Phi_eta by finite differences of the
    numerical profile, keeping the check independent of the ODE algebra)
    and subtracts the algebraic jump -c a0 C / A. Identically zero with no
    reactant or no water yield.
    """
    C = inner_C(c, params)
    if params.a0 == 0.0 or C == 0.0:
        return 0.0
    if eta_span is None:
        eta_span = default_inner_span(c, params)
    if n is None:
        # the end-node derivative comes from second-order differences; keep
        # the sampling fine enough that its error stays below the 1e-6 scale
        n = max(1201, int(math.ceil((eta_span[1] - eta_span[0]) * 400.0)))
    eta, Phi = inner_Phi_ode(c, params, C, eta_span=eta_span, n=n)
    Phi_eta = np.gradient(Phi, eta)
    bracket = (
        c * params.phistar * Phi
        + params.lam * params.phistar * np.exp(Phi) * (params.A * Phi_eta - 1.0)
    )
    jump = -c * params.a0 * C / params.A
    return float((bracket[-1] - bracket[0]) - jump)


def _match_denominator(c: float, params: BasinParams) -> float:
    return (
        1.0
        + params.phistar
        - params.phistar * math.log(c / params.lam)
        + params.a0 * inner_C(c, params) / params.A
    )


def match_residual(c: float, params: BasinParams) -> float:
    """Residual of the wave-speed selection equation.

    With Phi_inf = ln(c/lam) substituted, the matching of outer and inner
    flux invariants reduces to

        c [1 + phistar - phistar ln(c/lam) + a0 C(c) / A] = sdot (1 - phi0).
    """
    if c <= 0.0:
        raise ValidationError(f"wave speed must be positive, got {c}")
    return c * _match_denominator(c, params) - params.sdot * (1.0 - params.phi0)


def _consistent_denominator(c: float, params: BasinParams) -> float:
    phi_inf = math.log(c / params.lam)
    return (
        1.0
        - params.phistar
        - (params.phistar / params.m) * (phi_inf - 1.0)
        + params.a0 * inner_C(c, params) / (params.A * params.m)
    )


def consistent_match_residual(c: float, params: BasinParams) -> float:
    """Residual of the conservation-consistent matching variant.

    Carrying the exact relation

        c phi + lam K (phi_zeta - phi)
            = c phistar + (1/m)[c phistar Phi + lam phistar e^Phi (A Phi_eta - 1)]

    through the matching (instead of identifying the invariant with the
    bracket alone) yields

        c [1 - phistar - (phistar/m)(ln(c/lam) - 1) + a0 C(c)/(A m)]
            = sdot (1 - phi0),

    whose root honors global solid conservation (c >= sdot (1 - phi0)) and
    tracks the simulated late-time boundary speed. Kept as a diagnostic
    beside :func:`match_residual`.
    """
    if c <= 0.0:
        raise ValidationError(f"wave speed must be positive, got {c}")
    return c * _consistent_denominator(c, params) - params.sdot * (1.0 - params.phi0)


def _fixed_point_speed(params: BasinParams, denominator) -> tuple[float, int]:
    target = params.sdot * (1.0 - params.phi0)
    c = target / (1.0 + params.phistar)
    for k in range(1, _MAX_ROOT_ITERS + 1):
        denom = denominator(c, params)
        if denom <= 0.0:
            raise SolverError(
                f"fixed-point denominator went non-positive at c = {c:.6g}"
            )
        c_next = target / denom
        if abs(c_next - c) <= _ROOT_TOL:
            return c_next, k
        c = c_next
    raise SolverError(f"fixed-point iteration did not converge in {_MAX_ROOT_ITERS} steps")


def _solve_speed(params: BasinParams, residual, denominator) -> MatchResult:
    if params.sdot <= 0.0:
        raise NoRootError(
            "matching equation has no positive root for sdot <= 0 "
            "(the sedimentation flux is its only inhomogeneous term)"
        )
    lo = 1e-6
    hi = 10.0 * params.sdot
    g_lo = residual(lo, params)
    g_hi = residual(hi, params)
    while g_lo * g_hi > 0.0 and hi < 1e3 * params.sdot:
        hi *= 2.0
        g_hi = residual(hi, params)
    if g_lo * g_hi > 0.0:
        raise NoRootError(
            f"no sign change for the matching residual on ({lo:.3g}, {hi:.3g})",
            bracket=(lo, hi),
            residuals=(g_lo, g_hi),
        )
    bracket = (lo, hi)

    c_bis = None
    bis_iters = 0
    for bis_iters in range(1, _MAX_ROOT_ITERS + 1):
        mid = 0.5 * (lo + hi)
        g_mid = residual(mid, params)
        if abs(g_mid) <= _ROOT_TOL:
            c_bis = mid
            break
        if g_lo * g_mid < 0.0:
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
        if hi - lo <= 8.0 * np.finfo(float).eps * abs(mid):
            break
    if c_bis is None:
        mid = 0.5 * (lo + hi)
        if abs(residual(mid, params)) <= _ROOT_TOL:
            c_bis = mid
        else:
            raise SolverError(
                f"bisection stalled: residual {residual(mid, params):.3e} > tol "
                f"{_ROOT_TOL:.3e} after {bis_iters} iterations"
            )

    c_fp, fp_iters = _fixed_point_speed(params, denominator)
    if abs(c_bis - c_fp) > 10.0 * _ROOT_TOL:
        raise SolverError(
            f"bisection ({c_bis!r}) and fixed point ({c_fp!r}) disagree beyond 10*tol"
        )

    return MatchResult(
        c=c_bis,
        Phi_inf=phi_infinity(c_bis, params),
        C=inner_C(c_bis, params),
        B=_B_constant(c_bis, params),
        residual=residual(c_bis, params),
        iterations=bis_iters + fp_iters,
        bracket=bracket,
        c_fixed_point=c_fp,
    )


def solve_c(params: BasinParams) -> MatchResult:
    """Wave speed from the implicit matching equation.

    Primary method: safeguarded bisection on :func:`match_residual` over a
    bracket grown geometrically from (1e-6, 10*sdot] until a sign change
    (capped at 1e3*sdot). Secondary: the natural fixed-point iteration.
    Both must agree within 1e-11. Note c < sdot in compacting regimes
    (Phi_inf < 0); no c >= sdot assumption is made anywhere.
    """
    return _solve_speed(params, match_residual, _match_denominator)


def solve_c_consistent(params: BasinParams) -> MatchResult:
    """Wave speed from the conservation-consistent matching variant.

    Same bisection/fixed-point machinery as :func:`solve_c`, applied to
    :func:`consistent_match_residual`. This is the speed a resolved
    simulation actually selects (solid conservation forces
    c >= sdot*(1 - phi0), which the primary matching root can violate).
    """
    return _solve_speed(params, consistent_match_residual, _consistent_denominator)


def build_wave_profile(match: MatchResult, params: BasinParams) -> TravellingWaveProfile:
    """Stitch the three regional solutions on a shared zeta grid.

    The 801-node grid spans [-zstar, zstar] (a representative front
    position; the true lower extent grows with the basin). Region seams sit
    at +/- min(10 ln(beta)/beta, 0.45 zstar): far enough out that the inner
    solution is settled to double-exponential accuracy, capped so all three
    regions survive at moderate beta*zstar. Inner eta converts back through
    zeta = (eta - ln beta)/beta.
    """
    if params.zstar <= 0.0:
        raise ValidationError("profile needs zstar > 0")
    c = match.c
    beta = params.beta
    delta = min(10.0 * math.log(beta) / beta, 0.45 * params.zstar)
    n = 801
    zeta = np.linspace(-params.zstar, params.zstar, n)
    region = np.empty(n, dtype="U11")
    above = zeta > delta
    below = zeta < -delta
    inner = ~(above | below)
    region[above] = "outer-above"
    region[inner] = "inner"
    region[below] = "below"

    phi = np.empty(n)
    psi = np.empty(n)

    zeta_above_desc = zeta[above][::-1]
    phi[above] = _integrate_outer(c, params, zeta_above_desc)[::-1]
    psi[above] = _psi_from_invariant(phi[above], c, params)

    eta_inner = beta * zeta[inner] + math.log(beta)
    if eta_inner.size == 0:
        raise ValidationError(
            "profile grid too coarse to place nodes inside the reaction zone"
        )
    span = default_inner_span(c, params)
    eta_lo = min(span[0], eta_inner[0] - 2.0)
    eta_grid = np.concatenate(([eta_lo], eta_inner))
    _eta, Phi = _inner_on_nodes(c, params, match.C, eta_grid)
    phi[inner] = phi_from_Phi(Phi[1:], params)
    psi[inner] = inner_psi(eta_inner, c, match.C)

    eta_below = beta * zeta[below] + math.log(beta)
    phi[below] = phi_from_Phi(match.Phi_inf, params)
    psi[below] = inner_psi(eta_below, c, match.C)

    return TravellingWaveProfile(c=c, zeta=zeta, phi=phi, psi=psi, region=region)
