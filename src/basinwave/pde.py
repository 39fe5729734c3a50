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

Time stepping, described here once. A step attempt makes trapezoidal
corrector sweeps that re-evaluate the coefficients, the reaction factor and
the boundary velocity at the average of the old and the predicted new
state. The stiff reactant annihilation is Strang-split around the transport
solve (half a step of its exact factor exp(-R dt/2), transport, another
half step), so psi stays non-negative for any dt and the splitting error is
second order. The driver owns the step history: for each (state, dt) it
tries after the first step it draws the line through the last two accepted
states once, and the attempt makes two sweeps from it. On the first step,
and to retake a failed extrapolated attempt at the same dt (not a
rejection), the attempt makes three sweeps from the held state (the old
fields, h moved by dt*hdot).

Every failure raises StepRejected and the driver alone decides the retry:
when the held-state attempt fails too, dt halves, and below 1/1024 of
``RunConfig.dt`` the run has stalled and raises SolverError. An attempt
runs under ``np.errstate(over="raise", invalid="raise", divide="raise")``,
so a numpy overflow, invalid value or division by zero in it raises
StepRejected too, as a float division by zero does, also for a caller
outside the driver, and numpy prints no warning. Nearly all of
the time error is made in the start-up transient, so the run starts at
``RunConfig.dt`` and, after each accepted step that had a line, a
Milne-style estimate e (the distance of the accepted phi and h from that
line; psi is left out) sets dt to max(dt, f * dt_step) with
f = min(2, sqrt(_DT_GROWTH_LIMIT / e)), or 2 at e = 0; the estimate never
shrinks dt. No step crosses the next sample time or t_end: the rest of the
interval is stepped in the fewest equal steps no longer than dt (beyond
the sample slack), recounted every step.

Each sweep solves A u = b per field, A = I - (dt/2) L, with L assembled at
scale -dt/2 straight into the ``gtsv`` bands; the explicit half
(I + (dt/2) L) u is read from the same bands as 2u - A u. The one-sided
bottom rows (the Robin condition for phi, the flux divergence for psi) put
a single entry outside the tridiagonal band; one row operation against row
1 cancels it, so LAPACK ``gtsv`` solves both systems as tridiagonal. A run
allocates one workspace, and every attempt it makes assembles its sweeps
there; an attempt called outside a run allocates one of its own. Only the
last sweep's update is measured against the reject limit. ``dgtsv`` is
scipy's own f2py wrapper, loaded from its extension module without running
the ``scipy.linalg`` package import: that import loads scipy's array-API
layer and with it numpy.f2py, numpy.testing, numpy.random and numpy.ma,
about 0.3 s of a fresh process's start-up.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    BasinParams,
    BasinState,
    RunConfig,
    layer_nodes,
    permeability_factor,
    reaction_rate,
)
from .errors import SolverError, StepRejected, ValidationError


def _flapack():
    """scipy's f2py LAPACK module ``scipy.linalg._flapack``.

    Reuses the module when it is already imported. Otherwise it is loaded
    from its file under its real name (``find_spec`` finds scipy without
    running its ``__init__``) and dropped from ``sys.modules``, so that a
    later ``import scipy.linalg`` binds it as a submodule, from CPython's
    extension cache. Raises ImportError, naming what was searched, when
    scipy or the extension is missing.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(f"cannot load {name}: no scipy package on sys.path", name=name)
    folders = [Path(root, "linalg") for root in scipy.submodule_search_locations or ()]
    for folder in folders:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = folder / f"_flapack{suffix}"
            if path.is_file():
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules.pop(name, None)
                return module
    searched = ", ".join(map(str, folders)) or scipy.origin
    raise ImportError(f"cannot load {name}: no _flapack extension in {searched}", name=name)


dgtsv = _flapack().dgtsv

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
    # at the top datum the factor is exp(m log 1) = exp(0) = 1 exactly
    k_top = 1.0 if phi_1 == params.phi0 else float(permeability_factor(phi_1, params))
    return params.sdot + params.lam / (1.0 - params.phi0) * k_top * (phi_z - phi_1)


def _frozen_coefficients(phi_c, h_c, hdot_c, params, x, dx, scale, out=(None,) * 3):
    """Half-node porosities and permeabilities, the permeabilities at nodes
    0-2 and the interior advection times ``scale``, shared by both
    operators, as (phi_half, k_half, k_bottom, adv).

    The n - 1 half-node porosities and nodes 0-2 fill one row of n + 2, so
    one log/exp pass gives both sets of permeabilities. ``out`` may hold
    that row, a permeability row of n + 2 and the advection row.
    """
    points, k, adv = out
    if points is None:
        points = np.empty(phi_c.size + 2)
    phi_half = np.add(phi_c[:-1], phi_c[1:], out=points[:-3])
    phi_half *= 0.5
    points[-3:] = phi_c[:3]
    k = permeability_factor(points, params, out=k)
    adv = np.multiply(x[1:-1], scale * hdot_c, out=adv)
    adv /= 2.0 * h_c * dx
    return phi_half, k[:-3], k[-3:], adv


def _phi_operator(k_half, adv, h_c, params, dx, scale, out=(None,) * 5):
    """Linearized porosity operator L on interior rows 1..N-2, times
    ``scale``, as (lo, di, up).

    Coefficients are frozen through ``k_half`` and ``adv`` from
    :func:`_frozen_coefficients` at the same scale; the boundary rows belong
    to the closures. Each scaled half-node permeability is formed once and
    feeds the two rows it couples. ``out`` may hold lo, di, up and those
    permeabilities.
    """
    lo, di, up, k_minus, k_plus = out
    inv = 1.0 / (h_c * dx)
    k_plus = np.multiply(k_half, scale * params.lam * inv, out=k_plus)
    k_minus = np.multiply(k_plus, inv - 0.5, out=k_minus)
    k_plus *= inv + 0.5
    up = np.add(k_minus[1:], adv, out=up)
    lo = np.subtract(k_plus[:-1], adv, out=lo)
    di = np.negative(np.add(k_plus[1:], k_minus[:-1], out=di), out=di)
    return lo, di, up


def _robin_row(dx, h):
    """Bottom row (b0, b1, b2) of the porosity solve on nodes 0-2: the
    Robin condition phi_z - phi = 0 with a second-order one-sided phi_z,
    scaled by 2*dx*h so the row stays O(1)."""
    return (-3.0 - 2.0 * dx * h, 4.0, -1.0)


def _psi_operator(phi_c, phi_half, k_half, k_bottom, adv, h_c, params, dx, scale, out=(None,) * 4):
    """Reactant transport operator L, half-node flux form plus advection,
    times ``scale``.

    Returns (lo, di, up, row0): interior rows as for :func:`_phi_operator`
    and the bottom-row coefficients on nodes 0-2, whose permeabilities are
    ``k_bottom``. The bottom flux vanishes with the Robin condition, so the
    divergence there uses second-order one-sided nodal fluxes;
    :func:`_solve_closed` eliminates row0[2], the entry outside the
    tridiagonal band. ``out`` may hold lo, di, up and the scaled half-node
    fluxes.
    """
    lo, di, up, g = out
    inv = 1.0 / (h_c * dx)
    g = np.subtract(phi_c[1:], phi_c[:-1], out=g)
    g *= inv
    g -= phi_half
    g *= k_half
    nu = 0.5 * scale * params.lam / ((1.0 - params.phi0) * h_c * dx)
    g *= nu
    up = np.subtract(adv, g[1:], out=up)
    lo = np.subtract(g[:-1], adv, out=lo)
    di = np.subtract(g[:-1], g[1:], out=di)

    # the bottom row is scalar work: Python floats round exactly as numpy's
    p0, p1, p2, p3 = phi_c[:4].tolist()
    k0, k1, k2 = k_bottom.tolist()
    f0 = k0 * ((-3.0 * p0 + 4.0 * p1 - p2) * inv / 2.0 - p0)
    f1 = k1 * ((p2 - p0) * inv / 2.0 - p1)
    f2 = k2 * ((p3 - p1) * inv / 2.0 - p2)
    row0 = (3.0 * nu * f0, -4.0 * nu * f1, nu * f2)
    return lo, di, up, row0


def _apply_tridiag(lo, di, up, f, out=None, scratch=None):
    """Interior rows of the operator applied to the nodal field f, into ``out`` if given."""
    out = np.multiply(lo, f[:-2], out=out)
    out += np.multiply(di, f[1:-1], out=scratch)
    out += np.multiply(up, f[2:], out=scratch)
    return out


def _solve_closed(bands, bottom, rhs):
    """Solve A u = rhs, overwriting rhs and the bands; returns u.

    ``bands`` (dl, d, du) arrive holding A's interior rows in dl[:-1],
    d[1:-1] and du[1:]; the top row is Dirichlet (u = rhs[-1]). ``bottom``
    is the full bottom row (b0, b1, b2) on nodes 0-2: :func:`_robin_row`
    for phi or the one-sided transport row for psi. Its b2 entry, the only
    one outside the tridiagonal band, is cancelled by
    row0 <- row0 - (b2/a12) row1 (right-hand side included) before ``gtsv``
    solves in place. A zero or non-finite pivot a12, or a singular system,
    raises :class:`StepRejected`, and :func:`run_simulation` retakes the
    step.
    """
    dl, d, du = bands
    dl[-1] = 0.0
    d[-1] = 1.0
    b0, b1, b2 = bottom
    a12 = du[1]
    if a12 == 0.0 or not math.isfinite(a12):
        raise StepRejected(f"bottom-row elimination pivot is {a12!r}")
    ratio = b2 / a12
    d[0] = b0 - ratio * dl[0]
    du[0] = b1 - ratio * d[1]
    rhs[0] -= ratio * rhs[1]

    # the four overwrite flags by position: f2py parses keywords slowly
    _, _, _, u, info = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)
    if info > 0:
        raise StepRejected(f"singular implicit system (zero pivot at row {info})")
    if info < 0:
        raise SolverError(f"gtsv rejected argument {-info}")
    return u


def _workspace(n):
    """The rows a step attempt works in on n nodes, all views of one
    (15, n + 2) block: ten sweep rows sized n + 2, n - 1, n - 2 or n, the
    tuple of ``gtsv`` bands (dl, d, du), the tuple of their interior rows
    (dl[:-1], d[1:-1], du[1:]), then the attempt's coefficient average and
    :func:`_rel_change`'s row, both sized n.

    :func:`run_simulation` allocates one per run, which every attempt of the
    run reuses, and a direct :func:`step_predictor_corrector` call one of
    its own. Every row is written before it is read, so a workspace carries
    nothing from one attempt to the next, and runs never share one.
    """
    block = np.empty((15, n + 2))
    points, k, k_minus, k_plus, dl, du, adv, applied, scratch, decay, keep, sink, d, bar, delta = (
        *block[:2], *block[2:6, : n - 1], *block[6:9, : n - 2], *block[9:, :n]
    )
    return (
        points, k, k_minus, k_plus, adv, applied, scratch, decay, keep, sink,
        (dl, d, du), (dl[:-1], d[1:-1], du[1:]), bar, delta,
    )


# The workspace of the run in progress on each thread: run_simulation sets
# it and its attempts read it, so the stepper's signature stays as it is
_run = threading.local()


def _sweep(x, dx, phi_n, psi_n, dt, phi_c, h_c, hdot_c, h_bc, params, work):
    """One trapezoidal sweep with coefficients frozen at (phi_c, h_c, hdot_c).

    The reactant is Strang-split: the exact reaction factor over half the
    step, the trapezoidal transport solve (tridiagonal), then the factor
    over the other half, with one reaction rate R at h_c for both halves.
    The porosity source is a0/beta times the reactant the two halves
    consume, per unit time, so the water released balances it exactly.

    Each field's A = I - (dt/2) L is built in place in the ``gtsv`` bands
    dl[:-1], d[1:-1] and du[1:] of ``work``, the caller's :func:`_workspace`,
    and the interior of the explicit half (I + (dt/2) L) u is read back as
    2u - A u. Every array is a workspace row except the solves' right-hand
    sides, which ``gtsv`` overwrites and which are returned as (phi, psi).
    """
    # also catches NaN coefficients, which would otherwise reach the solve
    if not np.minimum.reduce(phi_c) > 0.0:
        raise StepRejected("coefficient porosity non-positive or non-finite")
    points, k, k_minus, k_plus, adv, applied, scratch, decay, keep, sink, bands, (lo, di, up), _, _ = work
    scale = -0.5 * dt
    half, k_half, k_bottom, adv = _frozen_coefficients(
        phi_c, h_c, hdot_c, params, x, dx, scale, (points, k, adv)
    )

    decay = reaction_rate(np.multiply(x, h_c, out=decay), h_c, params, out=decay)
    decay *= scale
    # the reacted reactant is the transport solve's right-hand side
    rhs = psi_n * np.exp(decay, out=keep)
    # the transport flux takes the k_minus row, free until the phi operator
    *_, row0 = _psi_operator(
        phi_c, half, k_half, k_bottom, adv, h_c, params, dx, scale, (lo, di, up, k_minus)
    )
    di += 1.0
    applied = _apply_tridiag(lo, di, up, rhs, applied, scratch)
    s0, s1, s2 = rhs[:3].tolist()
    rhs[0] = s0 - (row0[0] * s0 + row0[1] * s1 + row0[2] * s2)
    interior = rhs[1:-1]
    interior += interior
    interior -= applied
    rhs[-1] = params.psi0
    psi_new = _solve_closed(bands, (1.0 + row0[0], row0[1], row0[2]), rhs)
    # -dt times the porosity source: a0/beta times the reactant the two
    # halves consume, each the fraction -expm1(-R dt/2) of what it sees
    sink = np.add(psi_n, psi_new, out=sink)
    sink *= params.a0 / params.beta
    sink *= np.expm1(decay, out=decay)
    psi_new *= keep
    # centered transport of the annihilated double-exponential tail can
    # undershoot by dust (~1e-30 psi0); zero that, leave real negatives
    # for the step-acceptance check
    if params.psi0 > 0.0 and np.minimum.reduce(psi_new) < 0.0:
        psi_new[(psi_new < 0.0) & (psi_new > -1e-14 * params.psi0)] = 0.0
    psi_new[-1] = params.psi0

    _phi_operator(k_half, adv, h_c, params, dx, scale, (lo, di, up, k_minus, k_plus))
    di += 1.0
    applied = _apply_tridiag(lo, di, up, phi_n, applied, scratch)
    # 2u - A u on the interior rows; the boundary rows are set below
    rhs = np.multiply(phi_n, 2.0)
    interior = rhs[1:-1]
    interior -= applied
    interior -= sink[1:-1]
    rhs[0] = 0.0
    rhs[-1] = params.phi0
    phi_new = _solve_closed(bands, _robin_row(dx, h_bc), rhs)
    phi_new[-1] = params.phi0
    return phi_new, psi_new


def _rel_change(new, old, scratch):
    """max|new - old| / max|new|, or None when either is not finite, as with
    a NaN or an inf in ``new`` or ``old``; ``scratch`` is a row of their
    size that takes the intermediate values."""
    scale = np.maximum.reduce(np.abs(new, out=scratch))
    # an inf in new and in old would warn in the subtraction
    if not math.isfinite(scale):
        return None
    change = np.maximum.reduce(np.abs(np.subtract(new, old, out=scratch), out=scratch))
    return float(change / (scale + 1e-300)) if math.isfinite(change) else None


def _extrapolate(state: BasinState, previous: BasinState, dt: float):
    """(phi, h) at t_n + dt on the line through ``previous`` and ``state``:
    y_n + r (y_n - y_prev) with r = dt / (t_n - t_prev). No sweep reads a
    predicted psi, so none is drawn.

    :func:`run_simulation` draws each line once, from two states it accepted
    in order on one grid.
    """
    r = dt / (state.t - previous.t)
    return state.phi + r * (state.phi - previous.phi), state.h + r * (state.h - previous.h)


def step_predictor_corrector(
    state: BasinState,
    dt: float,
    params: BasinParams,
    *,
    prediction: tuple[np.ndarray, float] | None = None,
) -> BasinState:
    """One attempt to advance (phi, psi, h, t) by dt; returns the new state.

    The protocol is in the module docstring. ``prediction`` is the pair
    (phi, h) predicted at t + dt, from which the corrector makes
    _CORRECTOR_SWEEPS (2) sweeps; with None it makes one more from the held
    state. Only ``state`` is read, and psi is never predicted. The returned
    fields are fresh arrays. Only the last sweep's update, against the
    sweep before it, is measured; earlier sweeps need only leave finite
    fields.

    No retry: raises :class:`StepRejected` when t + dt does not exceed t,
    a sweep cannot be solved, numpy overflows, turns invalid or divides by
    zero, a float divides by zero, or the corrector leaves non-finite
    fields, a final relative update not within _CORRECTOR_REJECT_LIMIT, a
    non-positive porosity, a negative reactant or a new depth h without a
    normal grid spacing h*dx; and :class:`ValidationError` when the
    predicted phi has another node count than ``state``.
    """
    phi_n, psi_n, h_n, t_n = state.phi, state.psi, state.h, state.t
    if not t_n + dt > t_n:
        raise StepRejected(f"dt = {dt:.3e} does not advance t = {t_n!r}")
    x = _grid(phi_n.size)
    dx = 1.0 / (phi_n.size - 1)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            hdot_n = hdot(phi_n, h_n, params)
            if prediction is None:
                # the held state, a cruder prediction, takes one sweep more
                phi_p, h_p = phi_n, h_n + dt * hdot_n
                sweeps = _CORRECTOR_SWEEPS + 1
            else:
                phi_p, h_p = prediction
                if phi_p.size != phi_n.size:
                    raise ValidationError(f"predicted phi has {phi_p.size} nodes, the state has {phi_n.size}")
                sweeps = _CORRECTOR_SWEEPS

            # the run's workspace, or one of the attempt's own
            work = getattr(_run, "work", None)
            if work is None or work[-1].size != phi_n.size:
                work = _workspace(phi_n.size)
            bar, delta = work[-2:]
            for sweep in range(sweeps):
                if sweep:
                    # the update norm below sees only what the last sweep leaves
                    if not (np.isfinite(phi_c).all() and np.isfinite(psi_c).all()):
                        raise StepRejected("corrector left non-finite fields")
                    phi_p, psi_p, h_p = phi_c, psi_c, h_new
                hdot_p = hdot(phi_p, h_p, params)
                phi_bar = np.add(phi_n, phi_p, out=bar)
                phi_bar *= 0.5
                h_bar = 0.5 * (h_n + h_p)
                hdot_bar = 0.5 * (hdot_n + hdot_p)
                h_new = h_n + dt * hdot_bar
                phi_c, psi_c = _sweep(x, dx, phi_n, psi_n, dt, phi_bar, h_bar, hdot_bar, h_new, params, work)

            phi_change = _rel_change(phi_c, phi_p, delta)
            psi_change = _rel_change(psi_c, psi_p, delta)
            # max() below would drop a NaN that is not its first argument
            if phi_change is None or psi_change is None:
                raise StepRejected("corrector left non-finite fields")
            update_norm = max(phi_change, psi_change, abs(h_new - h_p) / abs(h_new))
            if not update_norm <= _CORRECTOR_REJECT_LIMIT:
                raise StepRejected(f"corrector update {update_norm:.3e} too large for dt = {dt:.3e}")
            if np.minimum.reduce(phi_c) <= 0.0:
                raise StepRejected("porosity went non-positive")
            if np.minimum.reduce(psi_c) < 0.0:
                raise StepRejected("reactant went negative")
            # the next attempt and a dh/dt sample divide by the grid spacing
            if not h_new * dx >= sys.float_info.min:
                raise StepRejected(f"column depth {h_new:.3e} leaves no grid spacing")
            return BasinState(t=t_n + dt, h=h_new, phi=phi_c, psi=psi_c)
    except (FloatingPointError, ZeroDivisionError) as exc:
        raise StepRejected(f"arithmetic failed: {exc}") from exc


def run_simulation(params: BasinParams, config: RunConfig) -> TimeSeries:
    """March from the uniform initial column to t_end by the protocol of
    the module docstring.

    Samples (t, h, dh/dt) at t = 0 and every multiple of ``output_every``,
    ending on t_end. The run records each accepted dt and each Milne
    estimate; :class:`RunStats` holds their count, the rejections, the
    smallest and largest dt, and the largest estimate (0 without any).
    With psi0 > 0 it warns once (``UserWarning``) at the first step where
    the column is deeper than zstar and :func:`core.layer_nodes` asks for
    more nodes than it has. Raises :class:`SolverError` when dt collapses,
    naming the time and the last reason, or when the advection coefficient
    hdot/(2 h dx) is not finite at t = 0. A sampled state has its top node
    at phi0, where the permeability factor is exp(0) = 1, so a dh/dt
    sample meets no numpy overflow. A single run is strictly
    sequential: it allocates one :func:`_workspace`, which every step
    attempt it makes reuses and which it drops when it returns or raises.
    Distinct runs share no mutable state and may execute in parallel, on
    different threads.
    """
    state = initial_state(params, config)
    dt_cur = config.dt
    dt_floor = config.dt * 2.0**-10
    end = config.t_end * (1.0 - _HORIZON_SLACK)
    landing_slack = _SAMPLE_SLACK * config.output_every
    # the resolution warning fires once, the first time the layer is in the
    # column and needs more nodes than the run has
    warn_above = params.zstar if params.psi0 > 0.0 else math.inf
    steps, estimates = [], []
    rejected = 0

    previous = None
    samples = [(state.t, state.h, hdot(state.phi, state.h, params))]
    if not math.isfinite(samples[0][2] / (2.0 * state.h / (config.n_nodes - 1))):
        raise SolverError(
            f"advection hdot/(2 h dx) is not finite at t = 0 for any dt (hdot = {samples[0][2]:.3g})"
        )
    # the run's attempts find the workspace here, also through a wrapper of
    # step_predictor_corrector; a run started inside another run's attempt
    # hands the outer workspace back
    outer = getattr(_run, "work", None)
    _run.work = work = _workspace(config.n_nodes)
    delta = work[-1]
    try:
        while state.t < end:
            gap = min(len(samples) * config.output_every, config.t_end) - state.t
            # max(): a gap inside landing_slack, left where a sample falls just
            # below t_end, is taken as one sliver step
            dt_step = gap / max(1, math.ceil((gap - landing_slack) / dt_cur))
            line = None if previous is None else _extrapolate(state, previous, dt_step)
            # a failed extrapolated attempt is retaken at the same dt from the
            # held state; only a failed held-state attempt is a rejection
            for prediction in (None,) if line is None else (line, None):
                try:
                    stepped = step_predictor_corrector(state, dt_step, params, prediction=prediction)
                    break
                except StepRejected as exc:
                    reason = exc
            else:
                rejected += 1
                dt_cur = 0.5 * dt_step
                if dt_cur < dt_floor:
                    raise SolverError(
                        f"time step collapsed below {dt_floor:.3e} at t = {state.t:.6g}: {reason}"
                    ) from reason
                continue

            if line is not None:
                # Milne-style estimate: the accepted phi and h against the line
                # the prediction was drawn on; psi is left out, so a reactant
                # that releases no water (a0 = 0) leaves the step sizes as
                # without any reactant
                phi_line, h_line = line
                estimate = max(
                    _rel_change(stepped.phi, phi_line, delta), abs(stepped.h - h_line) / abs(stepped.h)
                )
                estimates.append(estimate)
                # the estimate scales as dt^2: grow dt so the next one is
                # predicted at the limit, at most doubling it; never shrink it
                growth = 2.0 if estimate == 0.0 else min(2.0, math.sqrt(_DT_GROWTH_LIMIT / estimate))
                dt_cur = max(dt_cur, growth * dt_step)
            previous, state = state, stepped
            steps.append(dt_step)

            if state.h > warn_above and config.n_nodes < layer_nodes(params, state.h):
                warnings.warn(
                    f"reaction layer under-resolved at t = {state.t:.4g}: "
                    f"n_nodes = {config.n_nodes} < 8*beta*h = {layer_nodes(params, state.h):.0f}",
                    UserWarning,
                    stacklevel=2,
                )
                warn_above = math.inf

            if state.t >= len(samples) * config.output_every - landing_slack:
                samples.append((state.t, state.h, hdot(state.phi, state.h, params)))
    finally:
        _run.work = outer

    # copied so that each field is a contiguous array
    t, h, rate = np.array(samples).T.copy()
    stats = RunStats(len(steps), rejected, min(steps), max(steps), max(estimates, default=0.0))
    return TimeSeries(t=t, h=h, hdot=rate, final_state=state, stats=stats)


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
