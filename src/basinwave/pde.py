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

Time stepping is an implicit predictor/corrector with one kind of sweep:
trapezoidal corrector sweeps re-evaluate coefficients, the reaction factor,
and the boundary velocity at the average of the old and the predicted new
state. The prediction extrapolates the last two accepted states linearly
and takes two sweeps; without them it holds the old fields, moves h by
dt*hdot, and takes three. Every way a step attempt can fail raises
StepRejected, and the driver alone decides the retry. The stiff reactant
annihilation is Strang-split around the transport solve: half a step of
its exact factor exp(-R dt/2), transport, and another half step, so psi
stays non-negative for any dt and the splitting error is second order in
dt.

The driver starts at ``RunConfig.dt``. Nearly all of the time error is made
in the start-up transient, so after every accepted step it grows the step
by what a Milne-style error estimate (the distance of the accepted phi and
h from the line through the two states before them) allows, at most
doubling it; a rejected step halves it. Each sample interval is stepped in
the fewest equal steps no longer than the current dt, so steps land on
every sample time and on t_end.

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

# Trapezoidal corrector sweeps per step from an extrapolated prediction,
# one more from the held state.
_CORRECTOR_SWEEPS = 2

# A final relative corrector update above this limit rejects the step.
_CORRECTOR_REJECT_LIMIT = 5e-2

# After each accepted step dt grows so that the next Milne-style estimate,
# which scales as dt^2, is predicted at this limit, and at most doubles. At
# the defaults 1.62e-4, 0.81 x 2e-4 (the usual 0.9 safety factor on dt),
# moves h(t_end) and c_num by 1.3e-5 and 2.6e-5 relative to fixed steps in
# 300 steps; 1e-4 takes 385 steps to move them 8.7e-6 and 2.0e-5. 2e-4
# takes 287 steps (1.5e-5, 2.6e-5) but moves c_num at a0 = 3 by 5.5e-5
# against 3.1e-5; 5e-4 takes 201 (2.5e-5, 2.2e-5) but leaves a benchmark
# ensemble point's h(t_end) 8.8e-5 from its recorded value, near the 1e-4
# gate, against 3.0e-5.
_DT_GROWTH_LIMIT = 1.62e-4

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
    """What a run did: accepted and rejected steps, the shortest and
    longest accepted step, and the largest Milne-style error estimate over
    the accepted steps (0 when no step had one)."""

    steps_accepted: int
    steps_rejected: int
    dt_min: float
    dt_max: float
    estimate_max: float


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


def _solve_closed(half_dt, lo, di, up, bottom, rhs):
    """Solve (I - half_dt * L) u = rhs, overwriting rhs; returns u.

    Interior rows come from (lo, di, up); the top row is Dirichlet
    (u = rhs[-1]). ``bottom`` is the full bottom row (b0, b1, b2) on nodes
    0-2: :func:`_robin_row` for phi or the one-sided transport row for psi.
    Its b2 entry, the only one outside the tridiagonal band, is cancelled by
    row0 <- row0 - (b2/a12) row1 (right-hand side included) before
    ``gtsv``. A zero or non-finite pivot a12, or a singular system, raises
    :class:`StepRejected`, and :func:`run_simulation` retakes the step.
    """
    n = rhs.size
    dl = np.empty(n - 1)
    d = np.empty(n)
    du = np.empty(n - 1)
    np.multiply(lo, -half_dt, out=dl[:-1])
    dl[-1] = 0.0
    np.multiply(di, -half_dt, out=d[1:-1])
    d[1:-1] += 1.0
    d[-1] = 1.0
    np.multiply(up, -half_dt, out=du[1:])

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


def _sweep(x, dx, phi_n, psi_n, dt, phi_c, h_c, hdot_c, h_bc, params):
    """One trapezoidal sweep with coefficients frozen at (phi_c, h_c, hdot_c).

    The reactant is Strang-split: the exact reaction factor over half the
    step, the trapezoidal transport solve (tridiagonal), then the factor
    over the other half, with one reaction rate R at h_c for both halves.
    The porosity source is a0/beta times the reactant the two halves
    consume, per unit time, so the water released balances it exactly.
    """
    # also catches NaN coefficients, which would otherwise reach the solve
    if not phi_c.min() > 0.0:
        raise StepRejected("coefficient porosity non-positive or non-finite")
    phi_half, k_half, adv = _frozen_coefficients(phi_c, h_c, hdot_c, params, x, dx)
    half_dt = 0.5 * dt

    half_decay = reaction_rate(x * h_c, h_c, params) * -half_dt
    half_keep = np.exp(half_decay)
    psi_reacted = psi_n * half_keep
    lo_s, di_s, up_s, row0 = _psi_operator(phi_c, phi_half, k_half, adv, h_c, params, dx)
    rhs = psi_reacted.copy()
    s0, s1, s2 = psi_reacted[:3].tolist()
    rhs[0] = s0 + half_dt * (row0[0] * s0 + row0[1] * s1 + row0[2] * s2)
    rhs[1:-1] += half_dt * _apply_tridiag(lo_s, di_s, up_s, psi_reacted)
    rhs[-1] = params.psi0
    bottom = (1.0 - half_dt * row0[0], -half_dt * row0[1], -half_dt * row0[2])
    psi_transported = _solve_closed(half_dt, lo_s, di_s, up_s, bottom, rhs)
    # the consumed fraction -expm1(-R dt/2) of each half takes its sign from
    # the divisor -dt
    source = (params.a0 / params.beta) * (psi_n + psi_transported) * np.expm1(half_decay) / -dt
    psi_new = psi_transported * half_keep
    # centered transport of the annihilated double-exponential tail can
    # undershoot by dust (~1e-30 psi0); zero that, leave real negatives
    # for the step-acceptance check
    if params.psi0 > 0.0 and psi_new.min() < 0.0:
        psi_new[(psi_new < 0.0) & (psi_new > -1e-14 * params.psi0)] = 0.0
    psi_new[-1] = params.psi0

    lo_p, di_p, up_p = _phi_operator(k_half, adv, h_c, params, dx)
    rhs = phi_n.copy()
    interior = rhs[1:-1]
    interior += half_dt * _apply_tridiag(lo_p, di_p, up_p, phi_n)
    interior += dt * source[1:-1]
    rhs[0] = 0.0
    rhs[-1] = params.phi0
    phi_new = _solve_closed(half_dt, lo_p, di_p, up_p, _robin_row(dx, h_bc), rhs)
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
    extrapolates the two linearly (see :func:`_extrapolate`) and the
    corrector makes exactly _CORRECTOR_SWEEPS (2) sweeps. When ``previous``
    is None the prediction is the held state (phi_n, psi_n,
    h_n + dt*hdot_n), and the corrector makes exactly one sweep more (3).
    Neither prediction costs a solve.

    One attempt, no retry: raises :class:`StepRejected` when a sweep cannot
    be solved, the corrector leaves non-finite fields or a final relative
    update that is not within _CORRECTOR_REJECT_LIMIT, or the step ends
    with a non-positive porosity or a negative reactant; and
    :class:`ValidationError` for a ``previous`` that :func:`_extrapolate`
    cannot use.
    """
    phi_n, psi_n, h_n, t_n = state.phi, state.psi, state.h, state.t
    x = _grid(phi_n.size)
    dx = 1.0 / (phi_n.size - 1)
    hdot_n = hdot(phi_n, h_n, params)
    if previous is None:
        # the held state, a cruder prediction, takes one sweep more
        phi_p, psi_p, h_p = phi_n, psi_n, h_n + dt * hdot_n
        sweeps = _CORRECTOR_SWEEPS + 1
    else:
        phi_p, psi_p, h_p = _extrapolate(state, previous, dt)
        sweeps = _CORRECTOR_SWEEPS

    for _ in range(sweeps):
        hdot_p = hdot(phi_p, h_p, params)
        phi_bar = 0.5 * (phi_n + phi_p)
        h_bar = 0.5 * (h_n + h_p)
        hdot_bar = 0.5 * (hdot_n + hdot_p)
        h_new = h_n + dt * hdot_bar
        phi_c, psi_c = _sweep(x, dx, phi_n, psi_n, dt, phi_bar, h_bar, hdot_bar, h_new, params)
        phi_change = _rel_change(phi_c, phi_p)
        psi_change = _rel_change(psi_c, psi_p)
        # max() below would drop a NaN that is not its first argument
        if phi_change is None or psi_change is None:
            raise StepRejected("corrector left non-finite fields")
        update_norm = max(phi_change, psi_change, abs(h_new - h_p) / abs(h_new))
        phi_p, psi_p, h_p = phi_c, psi_c, h_new

    if not update_norm <= _CORRECTOR_REJECT_LIMIT:
        raise StepRejected(f"corrector update {update_norm:.3e} too large for dt = {dt:.3e}")
    if phi_p.min() <= 0.0:
        raise StepRejected("porosity went non-positive")
    if psi_p.min() < 0.0:
        raise StepRejected("reactant went negative")
    return BasinState(t=t_n + dt, h=h_p, phi=phi_p, psi=psi_p)


def run_simulation(params: BasinParams, config: RunConfig) -> TimeSeries:
    """March from the uniform initial column to t_end.

    Samples (t, h, dh/dt) at every multiple of ``output_every``. ``config.dt``
    is the start step. Every accepted step after the first has a
    Milne-style estimate e (the distance of the accepted phi and h from the
    line :func:`_extrapolate` draws), and after it dt becomes
    max(dt, f * dt_step) with f = min(2, sqrt(_DT_GROWTH_LIMIT / e)), or
    f = 2 when e = 0: the step grows once the start-up transient has passed,
    at most doubling per step. The estimate only grows dt: a grown dt never
    shrinks on a large estimate, only on a rejected step, so a late fast
    phase keeps the grown dt unless the corrector rejects it. No step
    crosses the next sample time or t_end: what is left of the interval to
    it is stepped in the fewest equal steps no longer than dt (beyond the
    sample slack), recounted on every step so that growth or a rejection
    part-way re-splits the rest, and the run ends on t_end.

    Every step after the first passes the accepted state before it to the
    stepper as ``previous``. Each :class:`StepRejected` is handled here: an
    attempt that used ``previous`` is retaken once at the same dt without
    it, from the held state, which is not a rejection. An attempt without
    it is rejected: dt halves and ``previous`` is kept for
    the next attempt. A step that would fall below ``config.dt``/1024 raises
    :class:`SolverError` naming the time and the last reason, since a run
    forced that far down has stalled rather than slowed; so does a column
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
    estimate_max = 0.0
    end = config.t_end * (1.0 - _HORIZON_SLACK)
    landing_slack = _SAMPLE_SLACK * config.output_every
    resolution_warned = False
    accepted = rejected = 0
    dt_min, dt_max = math.inf, 0.0

    previous = history = None
    while state.t < end:
        gap = min(len(ts) * config.output_every, config.t_end) - state.t
        # max(): a gap inside landing_slack, left where a sample falls just
        # below t_end, is taken as one sliver step
        dt_step = gap / max(1, math.ceil((gap - landing_slack) / dt_cur))
        try:
            stepped = step_predictor_corrector(state, dt_step, params, previous=history)
        except StepRejected as exc:
            if history is not None:
                # retake the attempt at the same dt from the held state;
                # not a rejection
                history = None
                continue
            history = previous
            rejected += 1
            dt_cur = 0.5 * dt_step
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
            estimate_max = max(estimate_max, estimate)
            # the estimate scales as dt^2: grow dt so the next one is
            # predicted at the limit, at most doubling it; never shrink it
            growth = 2.0 if estimate == 0.0 else min(2.0, math.sqrt(_DT_GROWTH_LIMIT / estimate))
            dt_cur = max(dt_cur, growth * dt_step)
        previous = history = state
        state = stepped
        accepted += 1
        dt_min, dt_max = min(dt_min, dt_step), max(dt_max, dt_step)

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

        if state.t >= len(ts) * config.output_every - landing_slack:
            ts.append(state.t)
            hs.append(state.h)
            hds.append(hdot(state.phi, state.h, params))

    return TimeSeries(
        t=np.array(ts),
        h=np.array(hs),
        hdot=np.array(hds),
        final_state=state,
        stats=RunStats(accepted, rejected, dt_min, dt_max, estimate_max),
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
    uses; raises :class:`ValidationError` when there are fewer than 10 or
    the share is not in (0, 1]."""
    # also refuses a NaN, which fails every comparison
    if not 0.0 < window_fraction <= 1.0:
        raise ValidationError(f"speed fit window fraction {window_fraction!r} is not in (0, 1]")
    k = math.ceil(window_fraction * n_samples)
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
    holds fewer than 10 samples or ``window_fraction`` is not in (0, 1].
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
