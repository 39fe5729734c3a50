"""Moving-boundary solver for the coupled compaction/reaction system.

The growing column 0 < z < h(t) is mapped onto the fixed grid x = z/h(t),
which turns the free boundary into an ODE for h plus an advective
correction term +x*(dh/dt)*d/dz applied to each field's time derivative at
fixed x. Spatial derivatives pick up a 1/h factor. Fluxes are discretized
in conservation form with centered second-order differences at half-nodes:

    porosity:  phi_t = lam * d/dz[ (phi/phi0)^m (phi_z - phi) ] + (a0/beta) R psi
    reactant:  psi_t = -R psi - lam/(1-phi0) * d/dz[ psi (phi/phi0)^m (phi_z - phi) ]

with R the clamped reaction kernel, a Robin condition phi_z - phi = 0 at
the basement z = 0, Dirichlet data (phi0, psi0) in the fresh sediment at
z = h(t), and dh/dt = sdot + lam/(1-phi0) (phi/phi0)^m (phi_z - phi) there.

Time stepping is an implicit predictor/corrector: a backward-Euler
predictor with nonlinear coefficients frozen at the old time, then
trapezoidal corrector sweeps that re-evaluate coefficients, the reaction
factor, and the boundary velocity at the average of old and new states.
The stiff reactant annihilation is integrated with its exact per-step
integrating factor so psi stays non-negative for any dt.

Each sweep solves one linear system per field. The one-sided bottom rows
(the Robin condition for phi, the flux divergence for psi) put a single
entry outside the tridiagonal band; one row operation against row 1
cancels it, so LAPACK ``gtsv`` solves both systems as tridiagonal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .core import (
    BasinParams,
    BasinState,
    RunConfig,
    layer_nodes,
    permeability_factor,
    reaction_rate,
)
from .errors import (
    CorrectorError,
    SolverError,
    StepRejected,
    ValidationError,
)

# Trapezoidal corrector sweeps per step; they stop early once the relative
# update falls below the tolerance.
_CORRECTOR_SWEEPS = 2
_CORRECTOR_TOL = 1e-10

# Final relative corrector updates above the rejection limit ask the driver
# for a smaller dt; above the divergence limit the solve has genuinely blown
# up and the step raises instead.
_CORRECTOR_REJECT_LIMIT = 5e-2
_CORRECTOR_DIVERGENCE_LIMIT = 0.5

# Consecutive accepted steps at a reduced dt before attempting recovery.
_DT_RECOVERY_STEPS = 20


@dataclass(frozen=True)
class TimeSeries:
    """Sampled (t, h, dh/dt) history of a simulation."""

    t: np.ndarray
    h: np.ndarray
    hdot: np.ndarray
    final_state: BasinState | None = None


def initial_state(params: BasinParams, config: RunConfig) -> BasinState:
    """Uniform fresh-sediment column of depth h0.

    The traveling wave is an attractor, so the uniform start only affects
    the transient.
    """
    x = np.linspace(0.0, 1.0, config.n_nodes)
    return BasinState(
        t=0.0,
        h=config.h0,
        x=x,
        phi=np.full(config.n_nodes, params.phi0),
        psi=np.full(config.n_nodes, params.psi0),
    )


def _grid_spacing(x: np.ndarray) -> float:
    dx = 1.0 / (x.size - 1)
    if np.max(np.abs(np.diff(x) - dx)) > 1e-12:
        raise ValidationError("stepper requires a uniform grid on [0, 1]")
    return dx


def _hdot_from(phi: np.ndarray, h: float, params: BasinParams, dx: float) -> float:
    """Boundary velocity from the top-node flux, one-sided second order."""
    phi_z = (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * dx * h)
    k_top = float(permeability_factor(phi[-1], params))
    return params.sdot + params.lam / (1.0 - params.phi0) * k_top * (phi_z - phi[-1])


def hdot(state: BasinState, params: BasinParams) -> float:
    """dh/dt = sdot + lam/(1-phi0) (phi/phi0)^m (phi_z - phi) at z = h."""
    dx = _grid_spacing(state.x)
    return _hdot_from(state.phi, state.h, params, dx)


def _frozen_coefficients(phi_c, h_c, hdot_c, params, x, dx):
    """Half-node permeabilities and interior advection shared by both operators."""
    k_half = permeability_factor(0.5 * (phi_c[:-1] + phi_c[1:]), params)
    adv = x[1:-1] * hdot_c / (2.0 * h_c * dx)
    return k_half, adv


def _phi_operator(k_half, adv, h_c, params, dx):
    """Linearized porosity operator on interior rows 1..N-2, as (lo, di, up).

    Coefficients are frozen through ``k_half`` and ``adv`` from
    :func:`_frozen_coefficients`; the boundary rows belong to the closures.
    """
    inv = 1.0 / (h_c * dx)
    k_up = (params.lam * inv) * k_half[1:]
    k_lo = (params.lam * inv) * k_half[:-1]
    up = k_up * (inv - 0.5) + adv
    lo = k_lo * (inv + 0.5) - adv
    di = -(k_up * (inv + 0.5) + k_lo * (inv - 0.5))
    return lo, di, up


def _psi_operator(phi_c, k_half, adv, h_c, params, dx):
    """Reactant transport operator: half-node flux form plus advection.

    Returns (lo, di, up, row0): interior rows as for :func:`_phi_operator`
    and the bottom-row coefficients on nodes 0-2. The bottom flux vanishes
    with the Robin condition, so the divergence there uses second-order
    one-sided nodal fluxes; :func:`_solve_closed` eliminates row0[2], the
    entry outside the tridiagonal band.
    """
    inv = 1.0 / (h_c * dx)
    f_half = k_half * ((phi_c[1:] - phi_c[:-1]) * inv - 0.5 * (phi_c[:-1] + phi_c[1:]))
    nu = 0.5 * params.lam / ((1.0 - params.phi0) * h_c * dx)
    g = nu * f_half
    up = adv - g[1:]
    lo = g[:-1] - adv
    di = g[:-1] - g[1:]

    phi_z0 = (-3.0 * phi_c[0] + 4.0 * phi_c[1] - phi_c[2]) * inv / 2.0
    phi_z1 = (phi_c[2] - phi_c[0]) * inv / 2.0
    phi_z2 = (phi_c[3] - phi_c[1]) * inv / 2.0
    k_nodal = permeability_factor(phi_c[:3], params)
    f0 = k_nodal[0] * (phi_z0 - phi_c[0])
    f1 = k_nodal[1] * (phi_z1 - phi_c[1])
    f2 = k_nodal[2] * (phi_z2 - phi_c[2])
    row0 = (3.0 * nu * f0, -4.0 * nu * f1, nu * f2)
    return lo, di, up, row0


def _apply_tridiag(lo, di, up, f):
    """Interior rows of the operator applied to the nodal field f."""
    return lo * f[:-2] + di * f[1:-1] + up * f[2:]


def _solve_closed(theta_dt, lo, di, up, bottom, rhs, t_now):
    """Solve (I - theta_dt * L) u = rhs, overwriting rhs; returns u.

    Interior rows come from (lo, di, up); the top row is Dirichlet
    (u = rhs[-1]). ``bottom`` is the full bottom row (b0, b1, b2) on nodes
    0-2: the Robin stencil for phi (scaled by 2*dx*h so the row stays
    O(1)) or the one-sided transport row for psi. Its b2 entry, the only
    one outside the tridiagonal band, is cancelled by
    row0 <- row0 - (b2/a12) row1 (right-hand side included) before
    ``gtsv``. A zero or non-finite pivot a12, or a singular system, raises
    :class:`StepRejected` so :func:`run_simulation` retries with a smaller dt.
    """
    n = rhs.size
    dl = np.empty(n - 1)
    d = np.empty(n)
    du = np.empty(n - 1)
    np.multiply(lo, -theta_dt, out=dl[:-1])
    dl[-1] = 0.0
    np.multiply(di, -theta_dt, out=d[1:-1])
    d[1:-1] += 1.0
    d[-1] = 1.0
    np.multiply(up, -theta_dt, out=du[1:])

    b0, b1, b2 = bottom
    a12 = du[1]
    if a12 == 0.0 or not math.isfinite(a12):
        raise StepRejected(f"bottom-row elimination pivot is {a12!r}", time=t_now)
    ratio = b2 / a12
    d[0] = b0 - ratio * dl[0]
    du[0] = b1 - ratio * d[1]
    rhs[0] -= ratio * rhs[1]

    _, _, _, u, info = dgtsv(
        dl, d, du, rhs, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1
    )
    if info > 0:
        raise StepRejected(f"singular implicit system (zero pivot at row {info})", time=t_now)
    if info < 0:
        raise SolverError(f"gtsv rejected argument {-info} at t = {t_now:.6g}")
    return u


def _sweep(
    x,
    dx,
    phi_n,
    psi_n,
    dt,
    theta,
    phi_c,
    h_c,
    hdot_c,
    h_bc,
    params,
    mms_eval,
    compaction_only,
    t_now,
):
    """One implicit solve with coefficients frozen at (phi_c, h_c, hdot_c).

    theta = 1 gives the backward-Euler predictor, theta = 1/2 a trapezoidal
    corrector. The reactant is advanced by transport (implicit tridiagonal
    solve) followed by the exact reaction integrating factor; the porosity
    source uses the matching per-step reaction integral so the water
    released equals a0/beta times the reactant consumed.
    """
    # also catches NaN coefficients, which would otherwise reach the solve
    if not np.all(phi_c > 0.0):
        raise StepRejected("coefficient porosity non-positive or non-finite", time=t_now)
    k_half, adv = _frozen_coefficients(phi_c, h_c, hdot_c, params, x, dx)
    theta_dt = theta * dt
    explicit_dt = (1.0 - theta) * dt

    if compaction_only:
        psi_new = psi_n
        source = None
    else:
        lo_s, di_s, up_s, row0 = _psi_operator(phi_c, k_half, adv, h_c, params, dx)
        rhs = psi_n.copy()
        if theta < 1.0:
            rhs[0] += explicit_dt * (row0[0] * psi_n[0] + row0[1] * psi_n[1] + row0[2] * psi_n[2])
            rhs[1:-1] += explicit_dt * _apply_tridiag(lo_s, di_s, up_s, psi_n)
        rhs[-1] = params.psi0
        bottom = (1.0 - theta_dt * row0[0], -theta_dt * row0[1], -theta_dt * row0[2])
        psi_transported = _solve_closed(theta_dt, lo_s, di_s, up_s, bottom, rhs, t_now)
        # exact per-step reaction integral, assuming R frozen over the step
        rr = reaction_rate(x * h_c, h_c, params)
        consumed_fraction = -np.expm1(-rr * dt)
        source = (params.a0 / params.beta) * psi_transported * consumed_fraction / dt
        psi_new = psi_transported * np.exp(-rr * dt)
        # centered transport of the annihilated double-exponential tail can
        # undershoot by dust (~1e-30 psi0); zero that, leave real negatives
        # for the step-acceptance check
        if params.psi0 > 0.0:
            dust = (psi_new < 0.0) & (psi_new > -1e-14 * params.psi0)
            if dust.any():
                psi_new[dust] = 0.0
        psi_new[-1] = params.psi0

    lo_p, di_p, up_p = _phi_operator(k_half, adv, h_c, params, dx)
    rhs = phi_n.copy()
    if theta < 1.0:
        rhs[1:-1] += explicit_dt * _apply_tridiag(lo_p, di_p, up_p, phi_n)
    if source is not None:
        rhs[1:-1] += dt * source[1:-1]
    if mms_eval is not None:
        rhs[1:-1] += dt * mms_eval[1:-1]
    rhs[0] = 0.0
    rhs[-1] = params.phi0
    bottom = (-3.0 - 2.0 * dx * h_bc, 4.0, -1.0)
    phi_new = _solve_closed(theta_dt, lo_p, di_p, up_p, bottom, rhs, t_now)
    phi_new[-1] = params.phi0
    return phi_new, psi_new


def _rel_change(new, old):
    return float(np.max(np.abs(new - old)) / (np.max(np.abs(new)) + 1e-300))


def step_predictor_corrector(
    state: BasinState,
    dt: float,
    params: BasinParams,
    *,
    extra_phi_source=None,
    compaction_only: bool = False,
) -> BasinState:
    """Advance (phi, psi, h, t) by dt; returns the new state.

    Raises :class:`StepRejected` when the step produces a non-positive
    porosity or negative reactant (the driver halves dt) and
    :class:`CorrectorError` when the corrector sweeps diverge.

    ``extra_phi_source`` is a manufactured forcing: a callable
    ``(x, t) -> array`` added to the porosity equation, through which
    :func:`basinwave.verify.manufactured_step_error` makes a known profile an
    exact solution of the forced system.
    """
    x = state.x
    dx = _grid_spacing(x)
    phi_n, psi_n, h_n, t_n = state.phi, state.psi, state.h, state.t
    hdot_n = _hdot_from(phi_n, h_n, params, dx)

    def mms(theta):
        if extra_phi_source is None:
            return None
        if theta == 1.0:
            return extra_phi_source(x, t_n + dt)
        return 0.5 * (extra_phi_source(x, t_n) + extra_phi_source(x, t_n + dt))

    # predictor: backward Euler, coefficients and hdot from time n
    h_pred = h_n + dt * hdot_n
    phi_p, psi_p = _sweep(
        x, dx, phi_n, psi_n, dt, 1.0, phi_n, h_n, hdot_n, h_pred,
        params, mms(1.0), compaction_only, t_n,
    )
    h_p = h_pred

    update_norm = math.inf
    for _ in range(_CORRECTOR_SWEEPS):
        hdot_p = _hdot_from(phi_p, h_p, params, dx)
        phi_bar = 0.5 * (phi_n + phi_p)
        h_bar = 0.5 * (h_n + h_p)
        hdot_bar = 0.5 * (hdot_n + hdot_p)
        h_new = h_n + dt * hdot_bar
        phi_c, psi_c = _sweep(
            x, dx, phi_n, psi_n, dt, 0.5, phi_bar, h_bar, hdot_bar, h_new,
            params, mms(0.5), compaction_only, t_n,
        )
        update_norm = max(
            _rel_change(phi_c, phi_p),
            _rel_change(psi_c, psi_p),
            abs(h_new - h_p) / abs(h_new),
        )
        phi_p, psi_p, h_p = phi_c, psi_c, h_new
        if update_norm < _CORRECTOR_TOL:
            break

    if not math.isfinite(update_norm) or update_norm > _CORRECTOR_DIVERGENCE_LIMIT:
        raise CorrectorError(
            f"corrector diverged at t = {t_n:.6g}: relative update {update_norm:.3e} "
            f"after {_CORRECTOR_SWEEPS} sweeps",
            update_norm=update_norm,
            time=t_n,
        )
    if update_norm > _CORRECTOR_REJECT_LIMIT:
        raise StepRejected(
            f"corrector update {update_norm:.3e} too large for dt = {dt:.3e}", time=t_n
        )
    if not (np.all(np.isfinite(phi_p)) and np.all(np.isfinite(psi_p))):
        raise CorrectorError(f"non-finite fields after step at t = {t_n:.6g}", time=t_n)
    if np.any(phi_p <= 0.0):
        raise StepRejected("porosity went non-positive", time=t_n)
    if np.any(psi_p < 0.0):
        raise StepRejected("reactant went negative", time=t_n)
    return BasinState(t=t_n + dt, h=h_p, x=x, phi=phi_p, psi=psi_p)


def run_simulation(
    params: BasinParams,
    config: RunConfig,
    *,
    compaction_only: bool = False,
) -> TimeSeries:
    """March from the uniform initial column to t_end.

    Samples (t, h, dh/dt) every ``output_every``. Rejected steps halve dt
    (recovering gradually after sustained acceptance); a step that would
    fall below dt/1024 raises :class:`SolverError`, since a run forced that
    far down has stalled rather than slowed. Stepper failures propagate as
    :class:`SolverError` carrying the failing time, and so does a column
    whose advection coefficient hdot/(2 h dx) is not finite at t = 0. The
    final step is never shrunk to land on t_end exactly, so t_end < dt
    yields a series with only the initial sample.

    A single run is strictly sequential; distinct runs share no mutable
    state and may execute in parallel.
    """
    state = initial_state(params, config)
    dx = _grid_spacing(state.x)
    ts = [state.t]
    hs = [state.h]
    hds = [_hdot_from(state.phi, state.h, params, dx)]
    if not math.isfinite(float(hds[0]) / (2.0 * state.h * dx)):
        raise SolverError(
            f"advection hdot/(2 h dx) is not finite at t = 0 for any dt (hdot = {hds[0]:.3g})"
        )

    dt_cur = config.dt
    dt_floor = config.dt * 2.0**-10
    accepted_streak = 0
    next_sample = config.output_every
    horizon = config.t_end * (1.0 + 1e-12)
    resolution_warned = False

    while state.t + dt_cur <= horizon:
        try:
            state = step_predictor_corrector(
                state, dt_cur, params, compaction_only=compaction_only
            )
        except StepRejected as exc:
            dt_cur *= 0.5
            accepted_streak = 0
            if dt_cur < dt_floor:
                raise SolverError(
                    f"time step collapsed below {dt_floor:.3e} at t = {state.t:.6g}: {exc}"
                ) from exc
            continue
        except CorrectorError as exc:
            raise SolverError(f"stepper failed at t = {state.t:.6g}: {exc}") from exc

        accepted_streak += 1
        if dt_cur < config.dt and accepted_streak >= _DT_RECOVERY_STEPS:
            dt_cur = min(config.dt, 2.0 * dt_cur)
            accepted_streak = 0

        if (
            not resolution_warned
            and params.psi0 > 0.0
            and state.h > params.zstar
            and config.n_nodes < layer_nodes(params, state.h)
        ):
            warnings.warn(
                f"reaction layer under-resolved at t = {state.t:.4g}: "
                f"n_nodes = {config.n_nodes} < 8*beta*h = {layer_nodes(params, state.h):.0f}",
                UserWarning,
                stacklevel=2,
            )
            resolution_warned = True

        if state.t >= next_sample - 1e-9 * config.output_every:
            ts.append(state.t)
            hs.append(state.h)
            hds.append(_hdot_from(state.phi, state.h, params, dx))
            while next_sample <= state.t + 1e-9 * config.output_every:
                next_sample += config.output_every

    return TimeSeries(
        t=np.array(ts),
        h=np.array(hs),
        hdot=np.array(hds),
        final_state=state,
    )


def estimate_wave_speed(series: TimeSeries, window_fraction: float = 0.3):
    """Least-squares slope of h(t) over the trailing window.

    Returns ``(c_num, fit_quality)`` where fit_quality is the coefficient
    of determination (defined as 1 for a zero-variance window, where the
    residual is also zero). Raises :class:`ValidationError` when the window
    holds fewer than 10 samples.
    """
    n = series.t.size
    k = int(math.ceil(window_fraction * n))
    if k < 10:
        raise ValidationError(
            f"speed fit needs >= 10 samples in the window, got {k} "
            f"({n} total, window fraction {window_fraction})"
        )
    t = series.t[n - k :]
    h = series.h[n - k :]
    slope, intercept = np.polyfit(t, h, 1)
    residual = h - (slope * t + intercept)
    ss_res = float(np.sum(residual**2))
    ss_tot = float(np.sum((h - np.mean(h)) ** 2))
    fit_quality = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(fit_quality)
