"""Domain types, parameter validation, and the reaction-rate kernel.

The model describes a 1-D sedimenting porous column 0 < z < h(t): porosity
phi compacts under overburden while a solid reactant fraction psi (a
water-rich clay) dehydrates in a thin Arrhenius-like zone a fixed distance
zstar below the growing top boundary, releasing pore water. Everything here
is non-dimensional.

All types are immutable value data; copies are cheap and thread-safe.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError

# Clamp for exponent arguments in the reaction kernel. Once the rate
# exceeds e^50 the reactant is annihilated within any step, so a larger cap
# only risks overflow without changing results.
_EXP_CLAMP = 50.0

#: beta below this is flagged: the reaction-zone analysis assumes beta >> 1.
BETA_VALIDITY_FLOOR = 10.0


@dataclass(frozen=True)
class BasinParams:
    """Physical constants of the compaction model plus derived quantities.

    Prefer :func:`derive_params`, which validates and fills the derived
    fields ``phistar`` (typical porosity below the reaction zone) and
    ``A = beta / m``.
    """

    lam: float       # compaction constant, O(1)
    beta: float      # non-dimensional activation energy, >> 1
    m: int           # permeability exponent, >= 7
    phi0: float      # porosity of fresh sediment at the top boundary
    psi0: float      # reactant fraction of fresh sediment
    a0: float        # released-water yield of the reaction
    zstar: float     # critical reaction depth below the top boundary
    sdot: float      # sedimentation rate at the basin top
    phistar: float   # phi0 * exp(-ln(m)/m)
    A: float         # beta / m


def derive_params(
    lam: float = 1.0,
    beta: float = 21.0,
    m: int = 7,
    phi0: float = 0.5,
    psi0: float = 0.3,
    a0: float = 1.0,
    zstar: float = 1.0,
    sdot: float = 1.0,
) -> BasinParams:
    """Validate raw constants and return a fully derived :class:`BasinParams`.

    Raises :class:`ValidationError` for non-numeric or non-finite values,
    phi0 outside (0, 1), m < 7, negative parameters, or phi0 + psi0 > 1.
    Emits a ``UserWarning`` when beta is below the solver-validity
    threshold (the narrow-reaction-zone assumption needs beta >> 1).
    """
    raw = dict(lam=lam, beta=beta, m=m, phi0=phi0, psi0=psi0, a0=a0, zstar=zstar, sdot=sdot)
    # NaN passes the sign checks below, and int(m) raises untyped errors
    for name, value in raw.items():
        if not isinstance(value, numbers.Real) or not -math.inf < value < math.inf:
            raise ValidationError(f"parameter {name} must be a finite number, got {value!r}")
    if isinstance(m, bool) or int(m) != m:
        raise ValidationError(f"permeability exponent m must be an integer, got {m!r}")
    m = int(m)
    if m < 7:
        raise ValidationError(f"permeability exponent m must be >= 7, got {m}")
    if not 0.0 < phi0 < 1.0:
        raise ValidationError(f"surface porosity phi0 must lie in (0, 1), got {phi0}")
    if psi0 < 0.0:
        raise ValidationError(f"surface reactant fraction psi0 must be >= 0, got {psi0}")
    if phi0 + psi0 > 1.0:
        raise ValidationError(
            f"volume fractions exceed unity: phi0 + psi0 = {phi0 + psi0}"
        )
    if lam <= 0.0:
        raise ValidationError(f"compaction constant lam must be > 0, got {lam}")
    for name, value in (("beta", beta), ("a0", a0), ("zstar", zstar), ("sdot", sdot)):
        if value < 0.0:
            raise ValidationError(f"parameter {name} must be non-negative, got {value}")
    if beta < BETA_VALIDITY_FLOOR:
        warnings.warn(
            f"beta = {beta} is below {BETA_VALIDITY_FLOOR}; the thin-reaction-zone "
            "analysis assumes beta >> 1 and results may be unreliable",
            UserWarning,
            stacklevel=2,
        )
    phistar = phi0 * math.exp(-math.log(m) / m)
    return BasinParams(
        lam=float(lam),
        beta=float(beta),
        m=m,
        phi0=float(phi0),
        psi0=float(psi0),
        a0=float(a0),
        zstar=float(zstar),
        sdot=float(sdot),
        phistar=phistar,
        A=float(beta) / m,
    )


def rederive(params: BasinParams, **changes) -> BasinParams:
    """Re-validate ``params`` with the raw fields named in ``changes`` replaced.

    The derived ``phistar`` and ``A`` are recomputed by :func:`derive_params`,
    so ``rederive(params)`` is bit-identical to ``params``.
    """
    raw = {
        name: getattr(params, name)
        for name in ("lam", "beta", "m", "phi0", "psi0", "a0", "zstar", "sdot")
    }
    return derive_params(**{**raw, **changes})


def permeability_factor(phi, params: BasinParams):
    """(phi/phi0)^m evaluated as exp(m*ln(phi/phi0)).

    The exp/log form stays smooth in the m >> 1 regime where direct integer
    powers of a near-unity ratio lose accuracy. ``phi`` must be positive.
    """
    phi = np.asarray(phi, dtype=float)
    return np.exp(params.m * np.log(phi / params.phi0))


def reaction_rate(z, h, params: BasinParams):
    """Arrhenius-like dehydration rate e^{beta (h - z - zstar)}.

    The exponent argument is clamped to [-50, 50]; the value is exact
    whenever the clamp is inactive. Equals 1 on the reaction front
    z = h - zstar. Accepts scalars or arrays.
    """
    arg = params.beta * (np.asarray(h, dtype=float) - np.asarray(z, dtype=float) - params.zstar)
    return np.exp(np.clip(arg, -_EXP_CLAMP, _EXP_CLAMP))


@dataclass(frozen=True)
class BasinState:
    """Solution snapshot on the fixed computational grid x = z/h(t)."""

    t: float
    h: float
    x: np.ndarray
    phi: np.ndarray
    psi: np.ndarray


@dataclass(frozen=True)
class RunConfig:
    """Discretization and driver controls for the time-dependent solver."""

    n_nodes: int = 1056
    dt: float = 2e-3
    t_end: float = 8.0
    output_every: float = 0.05
    h0: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an Integral; an infinite t_end would never end the run
            if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value < math.inf):
                raise ValidationError(f"config field {f.name} must be positive and finite, got {value!r}")
        if not isinstance(self.n_nodes, numbers.Integral) or self.n_nodes < 16:
            raise ValidationError(f"n_nodes must be an integer >= 16, got {self.n_nodes!r}")


def layer_nodes(params: BasinParams, h: float) -> float:
    """Nodes needed to resolve the O(1/beta) reaction zone in a column of
    depth h: 8*beta*h, eight nodes per layer width."""
    return 8.0 * params.beta * h


def resolution_nodes(params: BasinParams, config: RunConfig) -> int:
    """Reaction-layer resolution rule ceil(8*beta*h_max), with the a-priori
    depth bound h_max = h0 + sdot*t_end (the top cannot outrun
    sedimentation). ``config.n_nodes`` is not read.

    Raises :class:`ValidationError` when the product is not finite, as it
    can be for finite but huge sdot or t_end.
    """
    needed = layer_nodes(params, config.h0 + params.sdot * config.t_end)
    if not math.isfinite(needed):
        raise ValidationError(
            f"resolution rule 8*beta*(h0 + sdot*t_end) is not finite for beta = "
            f"{params.beta}, h0 = {config.h0}, sdot = {params.sdot}, t_end = {config.t_end}"
        )
    return math.ceil(needed)

