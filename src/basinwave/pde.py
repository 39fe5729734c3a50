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

Time stepping is an implicit predictor/corrector: trapezoidal corrector
sweeps re-evaluate coefficients, the reaction factor, and the boundary
velocity at the average of the old and the predicted new state. The
prediction extrapolates the last two accepted states linearly; the first
step, and any step whose extrapolated attempt fails, predicts instead with
a backward-Euler sweep whose nonlinear coefficients are frozen at the old
time. The stiff reactant annihilation is integrated with its exact per-step
integrating factor so psi stays non-negative for any dt.

The driver starts at ``RunConfig.dt``. Nearly all of the time error is made
in the start-up transient, so once a window of accepted steps shows a small
Milne-style error estimate (the distance of the accepted phi and h from the
line through the two states before them) it doubles the step; a rejected
step halves it. Steps are shortened to land on every sample time and on
t_end.

Each sweep solves one linear system per field. The one-sided bottom rows
(the Robin condition for phi, the flux divergence for psi) put a single
entry outside the tridiagonal band; one row operation against row 1
cancels it, so LAPACK ``gtsv`` solves both systems as tridiagonal.
"""

from __future__ import annotations

import functools
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
from .errors import SolverError, StepRejected, ValidationError

# Trapezoidal corrector sweeps per step; they stop early once the relative
# update falls below the tolerance.
_CORRECTOR_SWEEPS = 2
_CORRECTOR_TOL = 1e-10

# Final relative corrector updates above the rejection limit ask the driver
# for a smaller dt; above the divergence limit the solve has genuinely blown
# up and the step raises instead.
_CORRECTOR_REJECT_LIMIT = 5e-2
_CORRECTOR_DIVERGENCE_LIMIT = 0.5

# Accepted steps in one growth window: after each window dt doubles if four
# times the window's largest local error estimate (doubling dt about
# quadruples it) stays below the growth limit. At the defaults 2e-4 moves
# h(t_end) and c_num by 2.0e-5 and 3.0e-5 relative to fixed steps; 1e-4 takes
# 6% more steps for the same shift; 5e-4 moves c_num by 5.9e-5, too near the
# 1e-4 accuracy gate.
_DT_GROWTH_WINDOW = 20
_DT_GROWTH_LIMIT = 2e-4

# Trailing share of the samples the wave-speed fit uses, and the fewest
# samples it accepts there.
_SPEED_WINDOW = 0.3
_SPEED_FIT_MIN_SAMPLES = 10

# Driver slacks, shared with sample_bound: on t_end, and on sample times per
# output_every. The run stops once t >= t_end*(1 - slack), so a landing on
# t_end that misses it by rounding is not followed by a sliver step, and
# sample_bound counts the sample times up to t_end*(1 + slack), so a sample
# that lands on t_end within rounding is counted.
_HORIZON_SLACK = 1e-12
_SAMPLE_SLACK = 1e-9


@dataclass(frozen=True)
class RunStats:
    """What a run did: accepted and rejected steps, and the shortest and
    longest accepted step (steps shortened to land on a sample included)."""

    steps_accepted: int
    steps_rejected: int
    dt_min: float
    dt_max: float


@dataclass(frozen=True)
class TimeSeries:
    """Sampled (t, h, dh/dt) history of a simulation."""

    t: np.ndarray
    h: np.ndarray
    hdot: np.ndarray
    final_state: BasinState | None = None
    stats: RunStats | None = None


def initial_state(params: BasinParams, config: RunConfig) -> BasinState:
    """Uniform fresh-sediment column of depth h0.

    The traveling wave is an attractor, so the uniform start only affects
    the transient. Raises :class:`ValidationError` when numpy refuses to
    allocate ``n_nodes`` nodes.
    """
    try:
        phi = np.full(config.n_nodes, params.phi0)
    except ValueError as exc:
        raise ValidationError(f"n_nodes = {config.n_nodes} is too large to allocate: {exc}") from exc
    return BasinState(t=0.0, h=config.h0, phi=phi, psi=np.full(config.n_nodes, params.psi0))


@functools.lru_cache(maxsize=8)
def _grid(n: int) -> np.ndarray:
    """The uniform grid x = linspace(0, 1, n), read-only so that every step
    on n nodes can share it."""
    x = np.linspace(0.0, 1.0, n)
    x.flags.writeable = False
    return x


def hdot(phi: np.ndarray, h: float, params: BasinParams) -> float:
    """dh/dt = sdot + lam/(1-phi0) (phi/phi0)^m (phi_z - phi) at z = h, from
    the top-node flux with a one-sided second-order phi_z."""
    dx = 1.0 / (phi.size - 1)
    phi_3, phi_2, phi_1 = phi[-3:].tolist()
    phi_z = (3.0 * phi_1 - 4.0 * phi_2 + phi_3) / (2.0 * dx * h)
    k_top = float(permeability_factor(phi_1, params))
    return params.sdot + params.lam / (1.0 - params.phi0) * k_top * (phi_z - phi_1)


def _frozen_coefficients(phi_c, h_c, hdot_c, params, x, dx):
    """Half-node porosities and permeabilities and the interior advection,
    shared by both operators."""
    phi_half = 0.5 * (phi_c[:-1] + phi_c[1:])
    k_half = permeability_factor(phi_half, params)
    adv = x[1:-1] * hdot_c / (2.0 * h_c * dx)
    return phi_half, k_half, adv


def _phi_operator(k_half, adv, h_c, params, dx):
    """Linearized porosity operator on interior rows 1..N-2, as (lo, di, up).

    Coefficients are frozen through ``k_half`` and ``adv`` from
    :func:`_frozen_coefficients`; the boundary rows belong to the closures.
    Each scaled half-node permeability is formed once and feeds the two
    rows it couples.
    """
    inv = 1.0 / (h_c * dx)
    k_scaled = (params.lam * inv) * k_half
    k_minus = k_scaled * (inv - 0.5)
    k_plus = k_scaled * (inv + 0.5)
    up = k_minus[1:] + adv
    lo = k_plus[:-1] - adv
    di = -(k_plus[1:] + k_minus[:-1])
    return lo, di, up


def _robin_row(dx, h):
    """Bottom row (b0, b1, b2) of the porosity solve on nodes 0-2: the
    Robin condition phi_z - phi = 0 with a second-order one-sided phi_z,
    scaled by 2*dx*h so the row stays O(1)."""
    return (-3.0 - 2.0 * dx * h, 4.0, -1.0)


def _psi_operator(phi_c, phi_half, k_half, adv, h_c, params, dx):
    """Reactant transport operator: half-node flux form plus advection.

    Returns (lo, di, up, row0): interior rows as for :func:`_phi_operator`
    and the bottom-row coefficients on nodes 0-2. The bottom flux vanishes
    with the Robin condition, so the divergence there uses second-order
    one-sided nodal fluxes; :func:`_solve_closed` eliminates row0[2], the
    entry outside the tridiagonal band.
    """
    inv = 1.0 / (h_c * dx)
    f_half = k_half * ((phi_c[1:] - phi_c[:-1]) * inv - phi_half)
    nu = 0.5 * params.lam / ((1.0 - params.phi0) * h_c * dx)
    g = nu * f_half
    up = adv - g[1:]
    lo = g[:-1] - adv
    di = g[:-1] - g[1:]

    # the bottom row is scalar work: Python floats round exactly as numpy's
    p0, p1, p2, p3 = phi_c[:4].tolist()
    k0, k1, k2 = permeability_factor(phi_c[:3], params).tolist()
    f0 = k0 * ((-3.0 * p0 + 4.0 * p1 - p2) * inv / 2.0 - p0)
    f1 = k1 * ((p2 - p0) * inv / 2.0 - p1)
    f2 = k2 * ((p3 - p1) * inv / 2.0 - p2)
    row0 = (3.0 * nu * f0, -4.0 * nu * f1, nu * f2)
    return lo, di, up, row0


def _apply_tridiag(lo, di, up, f):
    """Interior rows of the operator applied to the nodal field f."""
    out = lo * f[:-2]
    out += di * f[1:-1]
    out += up * f[2:]
    return out


def _solve_closed(theta_dt, lo, di, up, bottom, rhs):
    """Solve (I - theta_dt * L) u = rhs, overwriting rhs; returns u.

    Interior rows come from (lo, di, up); the top row is Dirichlet
    (u = rhs[-1]). ``bottom`` is the full bottom row (b0, b1, b2) on nodes
    0-2: :func:`_robin_row` for phi or the one-sided transport row for psi.
    Its b2 entry, the only one outside the tridiagonal band, is cancelled by
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
        raise StepRejected(f"bottom-row elimination pivot is {a12!r}")
    ratio = b2 / a12
    d[0] = b0 - ratio * dl[0]
    du[0] = b1 - ratio * d[1]
    rhs[0] -= ratio * rhs[1]

    _, _, _, u, info = dgtsv(
        dl, d, du, rhs, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1
    )
    if info > 0:
        raise StepRejected(f"singular implicit system (zero pivot at row {info})")
    if info < 0:
        raise SolverError(f"gtsv rejected argument {-info}")
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
):
    """One implicit solve with coefficients frozen at (phi_c, h_c, hdot_c).

    theta = 1 gives the backward-Euler predictor, theta = 1/2 a trapezoidal
    corrector. The reactant is advanced by transport (implicit tridiagonal
    solve) followed by the exact reaction integrating factor; the porosity
    source uses the matching per-step reaction integral so the water
    released equals a0/beta times the reactant consumed.
    """
    # also catches NaN coefficients, which would otherwise reach the solve
    if not phi_c.min() > 0.0:
        raise StepRejected("coefficient porosity non-positive or non-finite")
    phi_half, k_half, adv = _frozen_coefficients(phi_c, h_c, hdot_c, params, x, dx)
    theta_dt = theta * dt
    explicit_dt = (1.0 - theta) * dt

    lo_s, di_s, up_s, row0 = _psi_operator(phi_c, phi_half, k_half, adv, h_c, params, dx)
    rhs = psi_n.copy()
    if theta < 1.0:
        s0, s1, s2 = psi_n[:3].tolist()
        rhs[0] = s0 + explicit_dt * (row0[0] * s0 + row0[1] * s1 + row0[2] * s2)
        rhs[1:-1] += explicit_dt * _apply_tridiag(lo_s, di_s, up_s, psi_n)
    rhs[-1] = params.psi0
    bottom = (1.0 - theta_dt * row0[0], -theta_dt * row0[1], -theta_dt * row0[2])
    psi_transported = _solve_closed(theta_dt, lo_s, di_s, up_s, bottom, rhs)
    # exact per-step reaction integral, assuming R frozen over the step; the
    # consumed fraction -expm1(-R dt) takes its sign from the divisor -dt
    decay = reaction_rate(x * h_c, h_c, params) * -dt
    source = (params.a0 / params.beta) * psi_transported * np.expm1(decay) / -dt
    psi_new = psi_transported * np.exp(decay)
    # centered transport of the annihilated double-exponential tail can
    # undershoot by dust (~1e-30 psi0); zero that, leave real negatives
    # for the step-acceptance check
    if params.psi0 > 0.0 and psi_new.min() < 0.0:
        psi_new[(psi_new < 0.0) & (psi_new > -1e-14 * params.psi0)] = 0.0
    psi_new[-1] = params.psi0

    lo_p, di_p, up_p = _phi_operator(k_half, adv, h_c, params, dx)
    rhs = phi_n.copy()
    interior = rhs[1:-1]
    if theta < 1.0:
        interior += explicit_dt * _apply_tridiag(lo_p, di_p, up_p, phi_n)
    interior += dt * source[1:-1]
    rhs[0] = 0.0
    rhs[-1] = params.phi0
    phi_new = _solve_closed(theta_dt, lo_p, di_p, up_p, _robin_row(dx, h_bc), rhs)
    phi_new[-1] = params.phi0
    return phi_new, psi_new


def _rel_change(new, old):
    """max|new - old| / max|new|, or None when ``new`` holds a NaN or an inf
    (the array max carries either into max|new|)."""
    diff = new - old
    np.abs(diff, out=diff)
    change = diff.max()
    np.abs(new, out=diff)
    scale = diff.max()
    return float(change / (scale + 1e-300)) if math.isfinite(scale) else None


def _extrapolate(state: BasinState, previous: BasinState, dt: float):
    """(phi, psi, h) at t_n + dt on the line through ``previous`` and
    ``state``: y_n + r (y_n - y_prev) with r = dt / (t_n - t_prev).

    Raises :class:`ValidationError` when ``previous`` is not strictly
    earlier than ``state`` or has another node count.
    """
    if not previous.t < state.t:
        raise ValidationError(
            f"previous state at t = {previous.t!r} is not earlier than the state at t = {state.t!r}"
        )
    if previous.phi.size != state.phi.size:
        raise ValidationError(
            f"previous state has {previous.phi.size} nodes, the state has {state.phi.size}"
        )
    r = dt / (state.t - previous.t)
    return (
        state.phi + r * (state.phi - previous.phi),
        state.psi + r * (state.psi - previous.psi),
        state.h + r * (state.h - previous.h),
    )


def step_predictor_corrector(
    state: BasinState,
    dt: float,
    params: BasinParams,
    *,
    previous: BasinState | None = None,
) -> BasinState:
    """Advance (phi, psi, h, t) by dt; returns the new state.

    The trapezoidal corrector sweeps start from a predicted end state.
    Given ``previous``, the accepted state before ``state``, the prediction
    extrapolates the two linearly (see :func:`_extrapolate`), which costs
    no solve; if the corrector then rejects or diverges, the step is
    retaken at the same dt from the backward-Euler predictor, which is the
    only predictor when ``previous`` is None. A step therefore fails only
    where the backward-Euler start fails too.

    Raises :class:`StepRejected` when the step produces a non-positive
    porosity or negative reactant (the driver halves dt),
    :class:`SolverError` when the corrector sweeps diverge or leave
    non-finite fields, and :class:`ValidationError` for a ``previous``
    that :func:`_extrapolate` cannot use.
    """
    phi_n, psi_n, h_n, t_n = state.phi, state.psi, state.h, state.t
    x = _grid(phi_n.size)
    dx = 1.0 / (phi_n.size - 1)
    hdot_n = hdot(phi_n, h_n, params)

    def correct(phi_p, psi_p, h_p):
        """Corrector sweeps from the predicted end state, then the
        end-of-step checks."""
        update_norm = math.inf
        for _ in range(_CORRECTOR_SWEEPS):
            hdot_p = hdot(phi_p, h_p, params)
            phi_bar = 0.5 * (phi_n + phi_p)
            h_bar = 0.5 * (h_n + h_p)
            hdot_bar = 0.5 * (hdot_n + hdot_p)
            h_new = h_n + dt * hdot_bar
            phi_c, psi_c = _sweep(
                x, dx, phi_n, psi_n, dt, 0.5, phi_bar, h_bar, hdot_bar, h_new, params
            )
            phi_change = _rel_change(phi_c, phi_p)
            psi_change = _rel_change(psi_c, psi_p)
            # max() below would drop a NaN that is not its first argument
            if phi_change is None or psi_change is None:
                raise SolverError(f"non-finite fields after step at t = {t_n:.6g}")
            update_norm = max(phi_change, psi_change, abs(h_new - h_p) / abs(h_new))
            phi_p, psi_p, h_p = phi_c, psi_c, h_new
            if update_norm < _CORRECTOR_TOL:
                break

        if not math.isfinite(update_norm) or update_norm > _CORRECTOR_DIVERGENCE_LIMIT:
            raise SolverError(
                f"corrector diverged at t = {t_n:.6g}: relative update {update_norm:.3e} "
                f"after {_CORRECTOR_SWEEPS} sweeps"
            )
        if update_norm > _CORRECTOR_REJECT_LIMIT:
            raise StepRejected(f"corrector update {update_norm:.3e} too large for dt = {dt:.3e}")
        if phi_p.min() <= 0.0:
            raise StepRejected("porosity went non-positive")
        if psi_p.min() < 0.0:
            raise StepRejected("reactant went negative")
        return BasinState(t=t_n + dt, h=h_p, phi=phi_p, psi=psi_p)

    if previous is not None:
        predicted = _extrapolate(state, previous, dt)
        try:
            return correct(*predicted)
        except (StepRejected, SolverError):
            pass  # retaken below from the backward-Euler predictor

    # predictor: backward Euler, coefficients and hdot from time n
    h_pred = h_n + dt * hdot_n
    phi_p, psi_p = _sweep(x, dx, phi_n, psi_n, dt, 1.0, phi_n, h_n, hdot_n, h_pred, params)
    return correct(phi_p, psi_p, h_pred)


def run_simulation(params: BasinParams, config: RunConfig) -> TimeSeries:
    """March from the uniform initial column to t_end.

    Samples (t, h, dh/dt) at every multiple of ``output_every``. ``config.dt``
    is the start step. After every _DT_GROWTH_WINDOW accepted steps dt
    doubles if four times the largest Milne-style estimate over those steps
    (the distance of the accepted phi and h from the line
    :func:`_extrapolate` draws) stays below _DT_GROWTH_LIMIT, so steps grow
    once the start-up transient has passed. The estimate only gates growth:
    a grown dt never shrinks on a large estimate, only on a rejected step,
    so a late fast phase keeps the grown dt unless the corrector rejects
    it. No step crosses the next sample time or t_end: a step is shortened
    to land on it, and the run ends on t_end. Every step
    after the first passes the accepted state before it to the stepper as
    ``previous``. A rejected step halves the step it tried, restarts the
    growth window and keeps ``previous``; a step that would fall below
    ``config.dt``/1024 raises :class:`SolverError`, since a run forced that
    far down has stalled rather than slowed. Stepper failures propagate as
    :class:`SolverError` naming the failing time, and so does a column
    whose advection coefficient hdot/(2 h dx) is not finite at t = 0.

    A single run is strictly sequential; distinct runs share no mutable
    state and may execute in parallel.
    """
    state = initial_state(params, config)
    dx = 1.0 / (config.n_nodes - 1)
    ts = [state.t]
    hs = [state.h]
    hds = [hdot(state.phi, state.h, params)]
    if not math.isfinite(float(hds[0]) / (2.0 * state.h * dx)):
        raise SolverError(
            f"advection hdot/(2 h dx) is not finite at t = 0 for any dt (hdot = {hds[0]:.3g})"
        )

    dt_cur = config.dt
    dt_floor = config.dt * 2.0**-10
    accepted_streak = 0
    window_estimate = 0.0
    samples = 1
    end = config.t_end * (1.0 - _HORIZON_SLACK)
    landing_slack = _SAMPLE_SLACK * config.output_every
    resolution_warned = False
    accepted = rejected = 0
    dt_min, dt_max = math.inf, 0.0

    previous = None
    while state.t < end:
        gap = min(samples * config.output_every, config.t_end) - state.t
        dt_step = gap if dt_cur >= gap - landing_slack else dt_cur
        try:
            stepped = step_predictor_corrector(state, dt_step, params, previous=previous)
        except StepRejected as exc:
            rejected += 1
            dt_cur = 0.5 * dt_step
            accepted_streak = 0
            window_estimate = 0.0
            if dt_cur < dt_floor:
                raise SolverError(
                    f"time step collapsed below {dt_floor:.3e} at t = {state.t:.6g}: {exc}"
                ) from exc
            continue

        if previous is not None:
            # Milne-style estimate: the accepted phi and h against the line
            # the extrapolated predictor draws; psi is left out, so a
            # reactant that releases no water (a0 = 0) leaves the step sizes
            # as without any reactant
            phi_line, _, h_line = _extrapolate(state, previous, dt_step)
            estimate = max(_rel_change(stepped.phi, phi_line), abs(stepped.h - h_line) / abs(stepped.h))
            window_estimate = max(window_estimate, estimate)
        previous, state = state, stepped
        accepted += 1
        dt_min, dt_max = min(dt_min, dt_step), max(dt_max, dt_step)
        accepted_streak += 1
        if accepted_streak >= _DT_GROWTH_WINDOW:
            if 4.0 * window_estimate < _DT_GROWTH_LIMIT:
                dt_cur *= 2.0
            accepted_streak = 0
            window_estimate = 0.0

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

        if state.t >= samples * config.output_every - landing_slack:
            ts.append(state.t)
            hs.append(state.h)
            hds.append(hdot(state.phi, state.h, params))
            samples += 1

    return TimeSeries(
        t=np.array(ts),
        h=np.array(hs),
        hdot=np.array(hds),
        final_state=state,
        stats=RunStats(accepted, rejected, dt_min, dt_max),
    )


def sample_bound(config: RunConfig) -> int:
    """Samples :func:`run_simulation` returns for ``config`` when it
    finishes: t = 0 plus exactly one per ``output_every`` up to its
    horizon, with the driver's tolerances."""
    intervals = config.t_end * (1.0 + _HORIZON_SLACK) / config.output_every + _SAMPLE_SLACK
    # far beyond any run that can finish; keeps floor() off an infinite ratio
    return math.floor(min(intervals, 2.0**53)) + 1


def speed_window(n_samples: int, window_fraction: float = _SPEED_WINDOW) -> int:
    """Trailing samples a speed fit over ``window_fraction`` of ``n_samples``
    uses; raises :class:`ValidationError` when there are fewer than 10."""
    k = int(math.ceil(window_fraction * n_samples))
    if k < _SPEED_FIT_MIN_SAMPLES:
        raise ValidationError(
            f"speed fit needs >= {_SPEED_FIT_MIN_SAMPLES} samples in the window, got {k} "
            f"({n_samples} total, window fraction {window_fraction})"
        )
    return k


def estimate_wave_speed(series: TimeSeries, window_fraction: float = _SPEED_WINDOW):
    """Least-squares slope of h(t) over the trailing window.

    Returns ``(c_num, fit_quality)`` where fit_quality is the coefficient
    of determination (defined as 1 for a zero-variance window, where the
    residual is also zero). Raises :class:`ValidationError` when the window
    holds fewer than 10 samples.
    """
    k = speed_window(series.t.size, window_fraction)
    t = series.t[-k:]
    h = series.h[-k:]
    slope, intercept = np.polyfit(t, h, 1)
    residual = h - (slope * t + intercept)
    ss_res = float(np.sum(residual**2))
    ss_tot = float(np.sum((h - np.mean(h)) ** 2))
    fit_quality = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(fit_quality)
