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
# Bisection also stops once its bracket is this narrow relative to the midpoint.
_BISECTION_REL_WIDTH = 8.0 * np.finfo(float).eps

# Dormand-Prince 5(4) tableau (J. Comput. Appl. Math. 6, 1980): stage nodes
# C, stage weights A, fifth-order weights B, error weights E (fifth minus
# fourth order, seven stages counting the FSAL derivative at the step end),
# and the quartic dense-output matrix P of Shampine (Math. Comp. 46, 1986).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (1 / 5, 0.0, 0.0, 0.0, 0.0),
    (3 / 40, 9 / 40, 0.0, 0.0, 0.0),
    (44 / 45, -56 / 15, 32 / 9, 0.0, 0.0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# Step-size controller: safety factor, bounds on the change of one step, and
# the error exponent -1/(q+1) for the fourth-order error estimate.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5


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
    c_fixed_point: float


def _initial_step(rhs, t0, y0, f0, t_bound, direction, rtol, atol) -> float:
    """First step size of Hairer, Norsett & Wanner (Solving ODEs I, Sec. II.4)."""
    interval = abs(t_bound - t0)
    scale = atol + abs(y0) * rtol
    d0 = abs(y0) / scale
    d1 = abs(f0) / scale
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = abs(f1 - f0) / scale / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _rk45(rhs, y0: float, t_eval: np.ndarray, rtol: float, atol: float, label: str) -> np.ndarray:
    """Integrate the scalar ODE y' = rhs(t, y) with y(t_eval[0]) = y0 and
    return y on every node of the monotone grid ``t_eval``.

    Dormand-Prince 5(4) in plain floats with the step control of scipy's
    RK45: the Hairer-Norsett-Wanner first step, error scaled by
    atol + max(|y|, |y_new|) rtol, step factors within [0.2, 10], no growth
    right after a rejection, and the last step clipped to t_eval[-1]. Each
    accepted step is recorded and the quartic interpolant is evaluated for
    all nodes in one pass at the end. A step that shrinks below 10 ulp of t
    (as it does once the right-hand side turns NaN) raises SolverError.
    """
    t = float(t_eval[0])
    t_bound = float(t_eval[-1])
    direction = -1.0 if t_bound < t else 1.0
    y = float(y0)
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t_bound, direction, rtol, atol)
    c1, c2, c3, c4, c5 = _DP_C[1:]
    a10 = _DP_A[1][0]
    a20, a21 = _DP_A[2][:2]
    a30, a31, a32 = _DP_A[3][:3]
    a40, a41, a42, a43 = _DP_A[4][:4]
    a50, a51, a52, a53, a54 = _DP_A[5]
    b0, _, b2, b3, b4, b5 = _DP_B
    e0, _, e2, e3, e4, e5, e6 = _DP_E
    starts, y_starts, steps, stages = [], [], [], []
    while direction * (t - t_bound) < 0.0:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            # written so that a NaN step fails too
            if not h_abs >= min_step:
                raise SolverError(
                    f"{label} integration failed: step size fell below 10 ulp at t = {t!r}"
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0.0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            k1 = rhs(t + c1 * h, y + a10 * f * h)
            k2 = rhs(t + c2 * h, y + (a20 * f + a21 * k1) * h)
            k3 = rhs(t + c3 * h, y + (a30 * f + a31 * k1 + a32 * k2) * h)
            k4 = rhs(t + c4 * h, y + (a40 * f + a41 * k1 + a42 * k2 + a43 * k3) * h)
            k5 = rhs(t + c5 * h, y + (a50 * f + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4) * h)
            y_new = y + h * (b0 * f + b2 * k2 + b3 * k3 + b4 * k4 + b5 * k5)
            f_new = rhs(t + h, y_new)
            err = (e0 * f + e2 * k2 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * f_new) * h
            error_norm = abs(err / (atol + max(abs(y), abs(y_new)) * rtol))
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        starts.append(t)
        y_starts.append(y)
        steps.append(h)
        stages.append((f, k1, k2, k3, k4, k5, f_new))
        t, y, f = t_new, y_new, f_new

    starts = np.array(starts)
    ends = np.append(starts[1:], t)
    # node -> first step whose end reaches it, as solve_ivp assigns t_eval
    i = np.searchsorted(direction * ends, direction * t_eval)
    q = (np.array(stages) @ _DP_P)[i]
    step = np.array(steps)[i]
    x = (t_eval - starts[i]) / step
    x2 = x * x
    x3 = x2 * x
    poly = q[:, 0] * x + q[:, 1] * x2 + q[:, 2] * x3 + q[:, 3] * (x3 * x)
    return step * poly + np.array(y_starts)[i]


def _permeability_overflow(phi, arg) -> StiffProfileError:
    return StiffProfileError(
        f"(phi0/phi)^m overflows at phi = {phi!r}: exponent {arg:.3g} exceeds {_POW_OVERFLOW_LIMIT}"
    )


def _inverse_permeability(phi: float, params: BasinParams) -> float:
    """(phi0/phi)^m via exp(m ln(phi0/phi)), guarded against overflow."""
    arg = params.m * math.log(params.phi0 / phi)
    if arg > _POW_OVERFLOW_LIMIT:
        raise _permeability_overflow(phi, arg)
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

    phi = _rk45(
        lambda _zeta, phi: outer_ode_rhs(phi, c, params),
        params.phi0,
        zeta_desc,
        rtol=1e-11,
        atol=1e-13,
        label="outer profile",
    )
    if np.any(phi <= 0.0) or np.any(phi > params.phi0 * (1.0 + 1e-10)):
        raise ProfileRangeError("outer porosity left the admissible range (0, phi0]")
    return phi


def solve_outer(c: float, params: BasinParams) -> OuterProfile:
    """Outer-region profile on (0, zstar], top-down adaptive integration.

    Porosity is integrated with an adaptive 4th/5th-order method from
    phi(zstar) = phi0; the reactant and the slope phi_zeta (the formula of
    :func:`outer_ode_rhs`) are evaluated on all 400 output nodes at once.
    """
    if params.zstar <= 0.0:
        raise ValidationError("outer region is empty: zstar must be positive")
    zeta_desc = np.linspace(params.zstar, params.zstar * 1e-6, 400)
    phi_desc = _integrate_outer(c, params, zeta_desc)
    zeta = zeta_desc[::-1].copy()
    phi = phi_desc[::-1].copy()
    psi = _psi_from_invariant(phi, c, params)
    arg = params.m * np.log(params.phi0 / phi)
    over = arg > _POW_OVERFLOW_LIMIT
    if np.any(over):
        raise _permeability_overflow(phi[over][0], arg[over][0])
    bracket = c * (params.phi0 - phi) + (c - params.sdot) * (1.0 - params.phi0)
    phi_zeta = phi + bracket * np.exp(arg) / params.lam
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


def inner_Phi_ode(c: float, params: BasinParams, C: float, eta: np.ndarray) -> np.ndarray:
    """Integrate the once-integrated inner porosity balance onto the nodes
    ``eta`` (ascending) and return Phi there.

    A Phi_eta = 1 + [B - c phistar Phi - (c a0 / A) C s(eta)] / (lam phistar e^Phi)

    with s(eta) = exp(-(1/c) e^(-eta)), the exact integral of the reaction
    term against the inner reactant profile, and Phi = Phi_inf at eta[0]
    (where s vanishes double-exponentially, making Phi_inf a fixed point by
    the construction of B).
    """
    B = _B_constant(c, params)
    phi_inf = phi_infinity(c, params)
    lam_ps = params.lam * params.phistar
    c_ps = c * params.phistar
    source_scale = c * params.a0 * C / params.A

    def rhs(eta, Phi):
        if Phi < -600.0:
            raise StiffProfileError(
                f"inner log-porosity underflowed (Phi = {Phi:.3g} at eta = {eta:.3g})"
            )
        try:
            e_Phi = math.exp(Phi)
        except OverflowError:
            raise StiffProfileError(
                f"inner log-porosity overflowed (Phi = {Phi:.3g} at eta = {eta:.3g})"
            ) from None
        s = _reaction_completion(eta, c)
        return (1.0 + (B - c_ps * Phi - source_scale * s) / (lam_ps * e_Phi)) / params.A

    return _rk45(rhs, phi_inf, eta, rtol=1e-10, atol=1e-12, label="inner profile")


def jump_residual(c: float, params: BasinParams) -> float:
    """Defect of the reaction-zone jump condition.

    Evaluates c phistar Phi + lam phistar e^Phi (A Phi_eta - 1) at both ends
    of the inner solution integrated over :func:`default_inner_span`
    (Phi_eta by finite differences of the numerical profile, keeping the
    check independent of the ODE algebra) and subtracts the algebraic jump
    -c a0 C / A. Identically zero with no reactant or no water yield.
    """
    C = inner_C(c, params)
    if params.a0 == 0.0 or C == 0.0:
        return 0.0
    low, high = default_inner_span(c, params)
    # the end-node derivative comes from second-order differences; keep the
    # sampling fine enough that its error stays below the 1e-6 scale
    eta = np.linspace(low, high, max(1201, int(math.ceil((high - low) * 400.0))))
    Phi = inner_Phi_ode(c, params, C, eta)
    Phi_eta = np.gradient(Phi, eta)
    bracket = (
        c * params.phistar * Phi
        + params.lam * params.phistar * np.exp(Phi) * (params.A * Phi_eta - 1.0)
    )
    jump = -c * params.a0 * C / params.A
    return float((bracket[-1] - bracket[0]) - jump)


def _match_denominator(c: float, params: BasinParams) -> float:
    """Denominator of the wave-speed selection equation.

    With Phi_inf = ln(c/lam) substituted, the matching of outer and inner
    flux invariants reduces to

        c [1 + phistar - phistar ln(c/lam) + a0 C(c) / A] = sdot (1 - phi0).
    """
    return (
        1.0
        + params.phistar
        - params.phistar * math.log(c / params.lam)
        + params.a0 * inner_C(c, params) / params.A
    )


def _consistent_denominator(c: float, params: BasinParams) -> float:
    """Denominator of the conservation-consistent matching variant.

    Carrying the exact relation

        c phi + lam K (phi_zeta - phi)
            = c phistar + (1/m)[c phistar Phi + lam phistar e^Phi (A Phi_eta - 1)]

    through the matching (instead of identifying the invariant with the
    bracket alone) yields

        c [1 - phistar - (phistar/m)(ln(c/lam) - 1) + a0 C(c)/(A m)]
            = sdot (1 - phi0),

    whose root honors global solid conservation (c >= sdot (1 - phi0)) and
    tracks the simulated late-time boundary speed. Kept as a diagnostic
    beside :func:`_match_denominator`.
    """
    phi_inf = math.log(c / params.lam)
    return (
        1.0
        - params.phistar
        - (params.phistar / params.m) * (phi_inf - 1.0)
        + params.a0 * inner_C(c, params) / (params.A * params.m)
    )


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


def _solve_speed(params: BasinParams, denominator) -> MatchResult:
    """Root of c * denominator(c) = sdot (1 - phi0) by bisection, checked
    against the fixed-point iteration c <- sdot (1 - phi0) / denominator(c)."""
    target = params.sdot * (1.0 - params.phi0)

    def residual(c):
        return c * denominator(c, params) - target

    if params.sdot <= 0.0:
        raise NoRootError(
            "matching equation has no positive root for sdot <= 0 "
            "(the sedimentation flux is its only inhomogeneous term)"
        )
    lo = 1e-6
    hi = 10.0 * params.sdot
    g_lo = residual(lo)
    g_hi = residual(hi)
    while g_lo * g_hi > 0.0 and hi < 1e3 * params.sdot:
        hi *= 2.0
        g_hi = residual(hi)
    if g_lo * g_hi > 0.0:
        raise NoRootError(
            f"no sign change for the matching residual on ({lo:.3g}, {hi:.3g})",
            bracket=(lo, hi),
            residuals=(g_lo, g_hi),
        )

    c_bis = None
    bis_iters = 0
    for bis_iters in range(1, _MAX_ROOT_ITERS + 1):
        mid = 0.5 * (lo + hi)
        g_mid = residual(mid)
        if abs(g_mid) <= _ROOT_TOL:
            c_bis = mid
            break
        if g_lo * g_mid < 0.0:
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
        if hi - lo <= _BISECTION_REL_WIDTH * abs(mid):
            break
    if c_bis is None:
        mid = 0.5 * (lo + hi)
        if abs(residual(mid)) <= _ROOT_TOL:
            c_bis = mid
        else:
            raise SolverError(
                f"bisection stalled: residual {residual(mid):.3e} > tol "
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
        residual=residual(c_bis),
        iterations=bis_iters + fp_iters,
        c_fixed_point=c_fp,
    )


def solve_c(params: BasinParams) -> MatchResult:
    """Wave speed from the implicit matching equation.

    Primary method: safeguarded bisection on the residual
    c * :func:`_match_denominator` - sdot (1 - phi0) over a bracket grown
    geometrically from (1e-6, 10*sdot] until a sign change (capped at
    1e3*sdot). Secondary: the natural fixed-point iteration.
    Both must agree within 1e-11. Note c < sdot in compacting regimes
    (Phi_inf < 0); no c >= sdot assumption is made anywhere.
    """
    return _solve_speed(params, _match_denominator)


def solve_c_consistent(params: BasinParams) -> MatchResult:
    """Wave speed from the conservation-consistent matching variant.

    Same bisection/fixed-point machinery as :func:`solve_c`, applied to
    :func:`_consistent_denominator`. This is the speed a resolved
    simulation actually selects (solid conservation forces
    c >= sdot*(1 - phi0), which the primary matching root can violate).
    """
    return _solve_speed(params, _consistent_denominator)


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
    Phi = inner_Phi_ode(c, params, match.C, eta_grid)
    phi[inner] = phi_from_Phi(Phi[1:], params)
    psi[inner] = inner_psi(eta_inner, c, match.C)

    eta_below = beta * zeta[below] + math.log(beta)
    phi[below] = phi_from_Phi(match.Phi_inf, params)
    psi[below] = inner_psi(eta_below, c, match.C)

    return TravellingWaveProfile(c=c, zeta=zeta, phi=phi, psi=psi, region=region)
