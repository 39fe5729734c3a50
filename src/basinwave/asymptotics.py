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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import BasinParams, permeability_factor
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
# Stopping tolerance of the speed bisection on the matching residual.
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
# Accepted steps after which an integration is refused as stiff; the largest
# integration over the benchmark's 2048-point match_box pool takes 259.
_MAX_STEPS = 10_000

_OUTER_RANGE = "outer porosity left the admissible range (0, phi0]"

# The region tags of a wave profile, in ascending zeta.
_REGIONS = np.array(["below", "inner", "outer-above"])
_REGIONS.flags.writeable = False


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

    zeta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    region: np.ndarray


@dataclass(frozen=True)
class MatchResult:
    """Solved wave speed with matching diagnostics; ``iterations`` counts
    the bisection's residual evaluations at midpoints."""

    c: float
    Phi_inf: float
    C: float
    residual: float
    iterations: int


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
    accepted step appends its ten floats (the seven stage slopes, t, y and
    h) to one flat list, turned into a (steps, 10) array once at the end,
    where the quartic interpolant is evaluated for all nodes in one pass;
    so the steps depend on t_eval only through its ends. A step that
    shrinks below 10 ulp of t (as it does once the right-hand side turns
    NaN) raises SolverError; one that would be the (_MAX_STEPS + 1)-th
    accepted step raises StiffProfileError, since only a stiff right-hand
    side keeps an explicit method's steps that short; a grid of fewer than
    two nodes, with a non-finite node or not strictly monotone raises
    ValidationError.
    """
    if t_eval.size < 2:
        raise ValidationError(f"{label} grid needs at least two nodes, got {t_eval.size}")
    t = float(t_eval[0])
    t_bound = float(t_eval[-1])
    direction = -1.0 if t_bound < t else 1.0
    # nodes in strict order between finite ends are finite; NaN compares false
    later, earlier = (t_eval[1:], t_eval[:-1]) if direction > 0.0 else (t_eval[:-1], t_eval[1:])
    if not (math.isfinite(t) and math.isfinite(t_bound) and (later > earlier).all()):
        raise ValidationError(
            f"{label} grid must be finite and strictly monotone, "
            f"got nodes from {t!r} to {t_bound!r}"
        )
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
    safety, min_factor, max_factor, exponent = _SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT
    nextafter = math.nextafter
    toward = direction * math.inf
    abs_y = abs(y)
    records = []
    max_records = 10 * _MAX_STEPS
    while direction * (t - t_bound) < 0.0:
        if len(records) == max_records:
            raise StiffProfileError(
                f"{label} integration took {_MAX_STEPS} steps and stopped at t = {t!r} "
                f"short of {t_bound!r}"
            )
        min_step = 10.0 * abs(nextafter(t, toward) - t)
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
            # max(a, b) and min(a, b) as comparisons that return a on a tie or NaN b
            abs_new = abs(y_new)
            error_norm = abs(err / (atol + (abs_new if abs_new > abs_y else abs_y) * rtol))
            if error_norm < 1.0:
                factor = safety * error_norm ** exponent if error_norm else max_factor
                if not factor < max_factor:
                    factor = max_factor
                if rejected and not factor < 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            factor = safety * error_norm ** exponent
            h_abs *= factor if factor > min_factor else min_factor
            rejected = True
        records += (f, k1, k2, k3, k4, k5, f_new, t, y, h)
        t, y, f, abs_y = t_new, y_new, f_new, abs_new

    records = np.array(records, dtype=float).reshape(-1, 10)
    starts = records[:, 7]
    ends = np.append(starts[1:], t)
    # node -> first step whose end reaches it, as solve_ivp assigns t_eval
    i = np.searchsorted(direction * ends, direction * t_eval)
    q = (records[:, :7] @ _DP_P)[i]
    step = records[i, 9]
    x = (t_eval - starts[i]) / step
    x2 = x * x
    x3 = x2 * x
    poly = q[:, 0] * x + q[:, 1] * x2 + q[:, 2] * x3 + q[:, 3] * (x3 * x)
    return step * poly + records[i, 8]


def _permeability_overflow(phi, arg) -> StiffProfileError:
    return StiffProfileError(
        f"(phi0/phi)^m overflows at phi = {phi!r}: exponent {arg:.3g} exceeds {_POW_OVERFLOW_LIMIT}"
    )


def _outer_tail(c: float, params: BasinParams):
    """``(phi_f, rhs)``: the floor phi_f < phi0 that the outer porosity
    decays onto, and du/dzeta in u = ln(phi - phi_f) as ``rhs(zeta, u)``.

    The outer slope is phi' = F(phi) = phi + (a - c phi)(phi0/phi)^m/lam
    with a = c phi0 + (c - sdot)(1 - phi0); F = (phi0/phi)^m G/lam with the
    convex G(phi) = lam phi^(m+1)/phi0^m + a - c phi, so Newton on G from
    phi0 falls monotonically onto its zero below phi0, or passes the minimum
    of G, or zero, where there is none. At a zero phi_f, with r = e^u/phi_f
    taken from u and never from phi - phi_f, du/dzeta = F(phi)/(phi - phi_f)
    = 1 - expm1(-m log1p(r))/r - (c/lam)(phi0/phi)^m, which tends to
    F'(phi_f) as r -> 0: the plateau is a straight line, and its steps grow
    unbounded. Where G has no zero below phi0, or G(phi0) <= 0 to rounding,
    there is no plateau: phi_f = 0, u = ln phi and
    du/dzeta = F/phi = 1 + (phi0/phi)^m (a e^(-u) - c)/lam.
    """
    phi0, m, lam = params.phi0, params.m, params.lam
    a = c * phi0 + (c - params.sdot) * (1.0 - phi0)
    exp = math.exp
    phi_f = phi0
    while True:
        ratio = lam * (phi_f / phi0) ** m
        g = phi_f * (ratio - c) + a
        if not g > 0.0:
            break  # on the zero, to rounding
        slope = (m + 1) * ratio - c
        below = phi_f - g / slope if slope > 0.0 else 0.0
        if not below > 0.0:
            phi_f = phi0  # past the minimum of G, or past zero: no zero below phi0
            break
        if not below < phi_f:
            break
        phi_f = below
    if phi_f == phi0:  # no plateau: phi_f = 0 and u = ln phi
        log_phi0 = math.log(phi0)

        def rhs(_zeta, u):
            # m ln(phi0/phi), guarded against overflow
            arg = m * (log_phi0 - u)
            if arg > _POW_OVERFLOW_LIMIT:
                raise _permeability_overflow(exp(u), arg)
            return 1.0 + exp(arg) * (a * exp(-u) - c) / lam

        return 0.0, rhs
    log_ratio = math.log(phi0 / phi_f)
    c_lam = c / lam
    log1p, expm1 = math.log1p, math.expm1

    def rhs(_zeta, u):
        r = exp(u) / phi_f
        log_phi = log1p(r)  # ln(phi/phi_f)
        # m ln(phi0/phi), guarded against overflow
        arg = m * (log_ratio - log_phi)
        if arg > _POW_OVERFLOW_LIMIT:
            raise _permeability_overflow(phi_f * (1.0 + r), arg)
        # (1 - (phi_f/phi)^m)/r, which is m once r underflows
        return 1.0 + (-expm1(-m * log_phi) / r if r else m) - c_lam * exp(arg)

    return phi_f, rhs


def outer_flux_invariant(phi, phi_zeta, params: BasinParams):
    """c-free part of the first integral: lam (phi/phi0)^m (phi_zeta - phi),
    combined with c*phi by the caller. Kept separate so checks do not reuse
    the inverted first integral, the slope F of :func:`solve_outer`."""
    phi = np.asarray(phi, dtype=float)
    return params.lam * permeability_factor(phi, params) * (np.asarray(phi_zeta) - phi)


def _psi_from_invariant(phi, c: float, params: BasinParams):
    """Reactant fraction from its outer first integral.

    The compaction flux is eliminated through the porosity invariant:
    lam K (phi_zeta - phi) = invariant - c*phi.
    """
    invariant = c * params.phi0 + (c - params.sdot) * (1.0 - params.phi0)
    denominator = c - (invariant - c * np.asarray(phi, dtype=float)) / (1.0 - params.phi0)
    if (np.abs(denominator) < 1e-12).any():
        raise SingularProfileError(
            "outer reactant relation is singular: flux denominator within 1e-12 of zero"
        )
    return params.sdot * params.psi0 / denominator


def _check_outer_top(c: float, params: BasinParams) -> None:
    """The outer region's one pre-check, run before any step. It raises, in
    this order: ValidationError where zstar <= 0; the :func:`_check_speed`
    error for an invalid c; and the range error of :func:`_integrate_outer`
    where the top slope F(phi0) = phi0 + (c - sdot)(1 - phi0)/lam is
    negative: phi' = F(phi) is autonomous and scalar, so phi is monotone,
    and F(phi0) < 0 puts it above phi0 at every node below zstar.

    Failures are decided cheapest first: :func:`build_wave_profile` and
    ``verify.residual_battery`` run this check, then the inner layer, then
    the outer integration, so where the inner layer and the outer
    integration both fail, the inner error wins."""
    if params.zstar <= 0.0:
        raise ValidationError("outer region is empty: zstar must be positive")
    _check_speed(c)
    if params.phi0 + (c - params.sdot) * (1.0 - params.phi0) / params.lam < 0.0:
        raise ProfileRangeError(_OUTER_RANGE)


def _integrate_outer(c: float, params: BasinParams, zeta_desc: np.ndarray) -> np.ndarray:
    """Integrate the outer porosity ODE downward from zeta = zstar in
    u = ln(phi - phi_f) (:func:`_outer_tail`) and return phi = phi_f + e^u,
    with the top node set to phi0, the value u starts from; the caller has
    run :func:`_check_outer_top`.

    Downward is the stable direction: the (phi0/phi)^m factor grows as phi
    decreases, so stiffness is met where the solution matters least. Where
    phi decays onto a zero phi_f of F, u's plateau is a straight line:
    under 400 right-hand-side calls at any zstar. Without a plateau
    phi_f = 0 and u = ln phi.
    """
    phi_f, rhs = _outer_tail(c, params)
    u = _rk45(rhs, math.log(params.phi0 - phi_f), zeta_desc, rtol=1e-11, atol=1e-13,
              label="outer profile")
    phi = phi_f + np.exp(u)
    phi[0] = params.phi0
    if (phi <= 0.0).any() or (phi > params.phi0 * (1.0 + 1e-10)).any():
        raise ProfileRangeError(_OUTER_RANGE)
    return phi


def solve_outer(c: float, params: BasinParams) -> OuterProfile:
    """Outer-region profile on (0, zstar], top-down adaptive integration,
    once :func:`_check_outer_top` passes.

    Porosity is integrated with an adaptive 4th/5th-order method from
    phi(zstar) = phi0 in u = ln(phi - phi_f), with phi_f the zero of F that
    phi decays onto, or 0 where there is none (:func:`_integrate_outer`), in
    under 400 right-hand-side calls at any zstar; the reactant and the slope
    phi_zeta = F(phi) are evaluated on all 400 output nodes at once.
    """
    _check_outer_top(c, params)
    zeta_desc = np.linspace(params.zstar, params.zstar * 1e-6, 400)
    phi_desc = _integrate_outer(c, params, zeta_desc)
    zeta = zeta_desc[::-1]
    phi = phi_desc[::-1]
    psi = _psi_from_invariant(phi, c, params)
    arg = params.m * np.log(params.phi0 / phi)
    over = arg > _POW_OVERFLOW_LIMIT
    if over.any():
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


def _check_speed(c: float) -> None:
    # written so that NaN fails too
    if not 0.0 < c < math.inf:
        raise ValidationError(f"wave speed must be positive and finite, got {c}")


def phi_infinity(c: float, params: BasinParams) -> float:
    """Far-field log-porosity deficit ln(c/lam) seen from below the front."""
    _check_speed(c)
    return math.log(c / params.lam)


def _top_decay(params: BasinParams) -> float:
    """e^(-eta_top) at the top of the inner coordinate,
    eta_top = beta*zstar + ln(beta)."""
    return math.exp(-(params.beta * params.zstar + math.log(params.beta)))


def inner_C(c: float, params: BasinParams) -> float:
    """Reactant normalization pinned by psi = psi0 at the top of the inner
    coordinate, eta_top = beta*zstar + ln(beta).

    C = psi0 * exp[(1/c) e^(-eta_top)]; for beta*zstar >> 1 this is psi0 to
    machine precision.
    """
    _check_speed(c)
    psi0 = params.psi0
    if psi0 == 0.0:
        return 0.0
    return psi0 * math.exp(min(_top_decay(params) / c, _POW_OVERFLOW_LIMIT))


def inner_psi(eta, c: float, C: float):
    """Reactant profile through the zone: psi = C exp[-(1/c) e^(-eta)].

    Tends to C above the zone and collapses double-exponentially below it.
    """
    _check_speed(c)
    eta = np.asarray(eta, dtype=float)
    with np.errstate(over="ignore"):
        return C * np.exp(-np.exp(-eta) / c)


def default_inner_span(c: float, params: BasinParams) -> tuple[float, float]:
    """Span from -ln c - 12, below the reaction transition, to the physical
    top of the inner coordinate, beta*zstar + ln(beta), held within
    [-ln c + 12, -ln c + 38]: above that, e^(-eta)/c < 2^-54 and s rounds to 1."""
    _check_speed(c)
    low = -math.log(c) - 12.0
    high = max(params.beta * params.zstar + math.log(params.beta), -math.log(c) + 12.0)
    return (low, min(high, -math.log(c) + 38.0))


def inner_Phi_ode(c: float, params: BasinParams, C: float, eta: np.ndarray) -> np.ndarray:
    """Integrate the once-integrated inner porosity balance onto the nodes
    ``eta`` (ascending) and return Phi there.

    A Phi_eta = 1 + [B - c phistar Phi - (c a0 / A) C s(eta)] / (lam phistar e^Phi)

    with s(eta) = exp(-(1/c) e^(-eta)), the exact integral of the reaction
    term against the inner reactant profile, and Phi = Phi_inf at eta[0]
    (where s vanishes double-exponentially, making Phi_inf a fixed point by
    the construction of B).
    """
    phi_inf = phi_infinity(c, params)
    lam_ps = params.lam * params.phistar
    c_ps = c * params.phistar
    B = c_ps * phi_inf - lam_ps * math.exp(phi_inf)
    A = params.A
    source_scale = c * params.a0 * C / A
    exp = math.exp

    def rhs(eta, Phi):
        if Phi < -600.0:
            raise StiffProfileError(
                f"inner log-porosity underflowed (Phi = {Phi:.3g} at eta = {eta:.3g})"
            )
        try:
            e_Phi = exp(Phi)
        except OverflowError:
            raise StiffProfileError(
                f"inner log-porosity overflowed (Phi = {Phi:.3g} at eta = {eta:.3g})"
            ) from None
        # the integrated reaction factor: 1 above the zone, 0 below
        s = 0.0 if -eta > 690.0 else exp(-exp(-eta) / c)
        return (1.0 + (B - c_ps * Phi - source_scale * s) / (lam_ps * e_Phi)) / A

    return _rk45(rhs, phi_inf, eta, rtol=1e-10, atol=1e-12, label="inner profile")


def jump_residual(c: float, params: BasinParams) -> float:
    """Defect of the reaction-zone jump condition.

    Evaluates c phistar Phi + lam phistar e^Phi (A Phi_eta - 1) at both ends
    of the inner solution integrated over :func:`default_inner_span`
    (Phi_eta by finite differences of the numerical profile, keeping the
    check independent of the ODE algebra) and subtracts the algebraic jump
    -c a0 C / A. Identically zero with no reactant or no water yield. The
    span is at most 50 long, so the cost does not grow with beta*zstar.
    """
    C = inner_C(c, params)
    if params.a0 == 0.0 or C == 0.0:
        return 0.0
    low, high = default_inner_span(c, params)
    # Phi_eta at each end is the one-sided difference to a node 1/400 inside
    # it, fine enough that its error stays below the 1e-6 scale (np.gradient's
    # edge formula); the integrator's steps do not depend on the nodes
    eta = np.array([low, low + 1 / 400, high - 1 / 400, high])
    Phi = inner_Phi_ode(c, params, C, eta)
    Phi_eta = (Phi[1::2] - Phi[::2]) / (eta[1::2] - eta[::2])
    Phi = Phi[::3]
    bracket = (
        c * params.phistar * Phi
        + params.lam * params.phistar * np.exp(Phi) * (params.A * Phi_eta - 1.0)
    )
    jump = -c * params.a0 * C / params.A
    return float((bracket[1] - bracket[0]) - jump)


def _match_denominator(params: BasinParams):
    """Denominator of the wave-speed selection equation as ``denominator(c)``.

    With Phi_inf = ln(c/lam) substituted, the matching of outer and inner
    flux invariants reduces to

        c [1 + phistar - phistar ln(c/lam) + a0 C(c) / A] = sdot (1 - phi0),

    with :func:`inner_C`'s C(c) written out: psi0 e^(min(e^(-eta_top)/c, 700)),
    which is 0 where psi0 = 0, so e^(-eta_top) is not evaluated there.
    """
    one_plus, phistar, lam = 1.0 + params.phistar, params.phistar, params.lam
    a0, A, psi0 = params.a0, params.A, params.psi0
    decay = _top_decay(params) if psi0 else 0.0
    log, exp, limit = math.log, math.exp, _POW_OVERFLOW_LIMIT

    def denominator(c):
        return one_plus - phistar * log(c / lam) + a0 * (psi0 * exp(min(decay / c, limit))) / A

    return denominator


def _consistent_denominator(params: BasinParams):
    """Denominator of the conservation-consistent matching variant as
    ``denominator(c)``.

    Carrying the exact relation

        c phi + lam K (phi_zeta - phi)
            = c phistar + (1/m)[c phistar Phi + lam phistar e^Phi (A Phi_eta - 1)]

    through the matching (instead of identifying the invariant with the
    bracket alone) yields

        c [1 - phistar - (phistar/m)(ln(c/lam) - 1) + a0 C(c)/(A m)]
            = sdot (1 - phi0),

    whose root honors global solid conservation (c >= sdot (1 - phi0)) and
    tracks the simulated late-time boundary speed. Kept as a diagnostic
    beside :func:`_match_denominator`, with C(c) written out the same way.
    """
    one_minus, lam, a0 = 1.0 - params.phistar, params.lam, params.a0
    phistar_m, A_m, psi0 = params.phistar / params.m, params.A * params.m, params.psi0
    decay = _top_decay(params) if psi0 else 0.0
    log, exp, limit = math.log, math.exp, _POW_OVERFLOW_LIMIT

    def denominator(c):
        return one_minus - phistar_m * (log(c / lam) - 1.0) + a0 * (psi0 * exp(min(decay / c, limit))) / A_m

    return denominator


@functools.lru_cache(maxsize=16)
def _solve_speed(params: BasinParams, build_denominator) -> MatchResult:
    """Root of c * denominator(c) = sdot (1 - phi0) by bisection, where
    ``denominator = build_denominator(params)``.

    The residual must be negative at the bracket's low end c = 1e-6, else
    NoRootError: for small beta*zstar the clamp inside C(c) makes it
    positive there, and a grown bracket would catch a falling root. The
    high end grows from 10*sdot (capped at 1e3*sdot) while the residual
    there is negative. Bisection keeps the low end's residual negative, so
    the root is a rising crossing of c * denominator(c).

    Memoized on (params, build_denominator) for the last 16 pairs: a repeated
    call returns the same frozen :class:`MatchResult`, errors are never
    cached, and a replaced ``build_denominator`` is a new key, solved afresh.
    """
    target = params.sdot * (1.0 - params.phi0)
    if params.sdot <= 0.0:
        raise NoRootError(
            "matching equation has no positive root for sdot <= 0 "
            "(the sedimentation flux is its only inhomogeneous term)"
        )
    denominator = build_denominator(params)
    lo = 1e-6
    hi = 10.0 * params.sdot
    g_lo = lo * denominator(lo) - target
    if not g_lo < 0.0:
        raise NoRootError(
            f"matching residual is not negative at the bracket's low end c = {lo:.3g} "
            f"({g_lo:.3e}): C(c) = psi0 exp(min(e^(-eta_top)/c, {_POW_OVERFLOW_LIMIT:g})) "
            "is that large there when beta*zstar is small"
        )
    g_hi = hi * denominator(hi) - target
    while g_hi < 0.0 and hi < 1e3 * params.sdot:
        hi *= 2.0
        g_hi = hi * denominator(hi) - target
    if g_hi < 0.0:
        raise NoRootError(f"no sign change for the matching residual on ({lo:.3g}, {hi:.3g})")

    for iterations in range(1, _MAX_ROOT_ITERS + 1):
        c = 0.5 * (lo + hi)
        g = c * denominator(c) - target
        if abs(g) <= _ROOT_TOL:
            break
        # a NaN moves the low end, as a negative residual does
        if g > 0.0:
            hi = c
        else:
            lo = c
        if hi - lo <= _BISECTION_REL_WIDTH * abs(c):
            break
    # the bracket stalled, its midpoint the last candidate; a NaN fails too
    if not abs(g) <= _ROOT_TOL:
        c = 0.5 * (lo + hi)
        g = c * denominator(c) - target
        if not abs(g) <= _ROOT_TOL:
            raise SolverError(
                f"bisection stalled: residual {g:.3e} > tol "
                f"{_ROOT_TOL:.3e} after {iterations} iterations"
            )

    return MatchResult(
        c=c,
        Phi_inf=phi_infinity(c, params),
        C=inner_C(c, params),
        residual=g,
        iterations=iterations,
    )


def solve_c(params: BasinParams) -> MatchResult:
    """Wave speed from the implicit matching equation.

    Bisection on the residual c * :func:`_match_denominator` - sdot (1 - phi0)
    over a bracket grown geometrically from (1e-6, 10*sdot] until a sign
    change (capped at 1e3*sdot); the residual must be negative at 1e-6, so
    the root is a rising crossing. Note c < sdot in compacting regimes
    (Phi_inf < 0); no c >= sdot assumption is made anywhere.
    Repeated calls with equal params return the same :class:`MatchResult`
    (memoized in :func:`_solve_speed`).
    """
    return _solve_speed(params, _match_denominator)


def solve_c_consistent(params: BasinParams) -> MatchResult:
    """Wave speed from the conservation-consistent matching variant.

    Same bracketed bisection as :func:`solve_c`, applied to
    :func:`_consistent_denominator`. This is the speed a resolved
    simulation actually selects (solid conservation forces
    c >= sdot*(1 - phi0), which the primary matching root can violate).
    Memoized with :func:`solve_c`'s root, each under its own denominator.
    """
    return _solve_speed(params, _consistent_denominator)


def build_wave_profile(match: MatchResult, params: BasinParams) -> TravellingWaveProfile:
    """Stitch the three regional solutions on a shared zeta grid.

    The 801-node grid spans [-zstar, zstar] (a representative front
    position; the true lower extent grows with the basin). Region seams sit
    at +/- min(10 ln(beta)/beta, 0.45 zstar): far enough out that the inner
    solution is settled to double-exponential accuracy, capped so all three
    regions survive at moderate beta*zstar. The grid ascends, so the regions
    are three contiguous index ranges: "below" where zeta < -delta,
    "outer-above" where zeta > delta, and "inner" between. Inner eta
    converts back through zeta = (eta - ln beta)/beta.

    Failures are decided cheapest first, in the order that
    :func:`_check_outer_top` states.
    """
    c = match.c
    _check_outer_top(c, params)
    beta = params.beta
    delta = min(10.0 * math.log(beta) / beta, 0.45 * params.zstar)
    n = 801
    zeta = np.linspace(-params.zstar, params.zstar, n)
    # first node at or above -delta, first node above delta
    lo = zeta.searchsorted(-delta)
    hi = zeta.searchsorted(delta, "right")
    if hi <= lo:
        raise ValidationError("profile grid too coarse to place nodes inside the reaction zone")

    phi, psi = np.empty(n), np.empty(n)

    eta = beta * zeta[:hi] + math.log(beta)
    eta_lo = min(default_inner_span(c, params)[0], eta[lo] - 2.0)
    Phi = inner_Phi_ode(c, params, match.C, np.concatenate(([eta_lo], eta[lo:])))
    phi[lo:hi] = phi_from_Phi(Phi[1:], params)
    psi[:hi] = inner_psi(eta, c, match.C)

    phi_above = _integrate_outer(c, params, zeta[hi:][::-1])[::-1]
    phi[hi:] = phi_above
    psi[hi:] = _psi_from_invariant(phi_above, c, params)
    phi[:lo] = phi_from_Phi(match.Phi_inf, params)

    region = _REGIONS.repeat((lo, hi - lo, n - hi))
    return TravellingWaveProfile(zeta=zeta, phi=phi, psi=psi, region=region)
