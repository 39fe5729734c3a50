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
import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ValidationError

# Clamp for exponent arguments in the reaction kernel. Once the rate
# exceeds e^50 the reactant is annihilated within any step, so a larger cap
# only risks overflow without changing results.
_EXP_CLAMP = 50.0

#: beta below this is flagged: the reaction-zone analysis assumes beta >> 1.
BETA_VALIDITY_FLOOR = 10.0

# Largest float: a number beyond it in size, an int included, has no float
_FLOAT_MAX = sys.float_info.max


def _shown(value) -> str:
    """repr(value) for an error message, but not for a rational beyond the
    float range, whose repr can run to thousands of digits or be refused:
    an int is shown by its size, another rational by its type."""
    if isinstance(value, numbers.Rational) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        if type(value) is int:
            return f"an integer of {value.bit_length()} bits, beyond the float range"
        return f"a {type(value).__name__} beyond the float range"
    return repr(value)


@dataclass(frozen=True)
class BasinParams:
    """Physical constants of the compaction model plus derived quantities.

    Construction validates the eight raw constants, stores ``m`` as ``int``
    and the rest as ``float``, and fills ``phistar`` (typical porosity below
    the reaction zone) and ``A = beta / m``;
    ``dataclasses.replace(params, sdot=2.0)`` does all of this again.

    Raises :class:`ValidationError` for non-numeric or boolean values,
    values not finite as a float (an int beyond the float range among
    them), phi0 outside (0, 1), m not an integer >= 7, lam or beta not
    positive, negative parameters, or phi0 + psi0 > 1.
    Emits a ``UserWarning`` when beta is below the solver-validity
    threshold (the narrow-reaction-zone assumption needs beta >> 1).
    """

    lam: float = 1.0     # compaction constant, O(1)
    beta: float = 21.0   # non-dimensional activation energy, >> 1
    m: int = 7           # permeability exponent, >= 7
    phi0: float = 0.5    # porosity of fresh sediment at the top boundary
    psi0: float = 0.3    # reactant fraction of fresh sediment
    a0: float = 1.0      # released-water yield of the reaction
    zstar: float = 1.0   # critical reaction depth below the top boundary
    sdot: float = 1.0    # sedimentation rate at the basin top
    phistar: float = field(init=False)   # phi0 * exp(-ln(m)/m)
    A: float = field(init=False)         # beta / m

    def __post_init__(self):
        raw = {name: getattr(self, name) for name in _RAW_FIELDS}
        # NaN passes the sign checks below, int(m) raises untyped errors, an
        # int beyond the float range overflows on conversion, and bool is a
        # Real that no parameter means; a value of type exactly float or int
        # within the float range skips the ABC check (a bool's type is bool)
        for name, value in raw.items():
            if type(value) in (float, int) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
                continue
            if isinstance(value, bool) or not (
                isinstance(value, numbers.Real) and -_FLOAT_MAX <= value <= _FLOAT_MAX
            ):
                raise ValidationError(f"parameter {name} must be a finite number, got {_shown(value)}")
        lam, beta, m, phi0, psi0, a0, zstar, sdot = raw.values()
        if int(m) != m:
            raise ValidationError(f"permeability exponent m must be an integer, got {m!r}")
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
        if beta <= 0.0:
            raise ValidationError(f"activation energy beta must be > 0, got {beta}")
        for name, value in (("a0", a0), ("zstar", zstar), ("sdot", sdot)):
            if value < 0.0:
                raise ValidationError(f"parameter {name} must be non-negative, got {value}")
        if beta < BETA_VALIDITY_FLOOR:
            warnings.warn(
                f"beta = {beta} is below {BETA_VALIDITY_FLOOR}; the thin-reaction-zone "
                "analysis assumes beta >> 1 and results may be unreliable",
                UserWarning,
                stacklevel=3,
            )
        # manifests and CSVs print the stored values, so keep their types exact
        for name, value in raw.items():
            kind = int if name == "m" else float
            if type(value) is not kind:
                object.__setattr__(self, name, kind(value))
        object.__setattr__(self, "phistar", self.phi0 * math.exp(-math.log(self.m) / self.m))
        object.__setattr__(self, "A", self.beta / self.m)


#: The eight constants a caller sets; ``phistar`` and ``A`` are derived from them.
_RAW_FIELDS = tuple(f.name for f in fields(BasinParams) if f.init)

#: The validating constructor under the name the library and its scripts use.
derive_params = BasinParams


def permeability_factor(phi, params: BasinParams, out=None):
    """(phi/phi0)^m evaluated as exp(m*ln(phi/phi0)).

    The exp/log form stays smooth in the m >> 1 regime where direct integer
    powers of a near-unity ratio lose accuracy. ``phi`` must be positive:
    a float or a float array. An array ``out`` of phi's shape receives the
    result, which is returned.
    """
    if out is None:
        return np.exp(params.m * np.log(phi / params.phi0))
    # the same operations in place; an out argument, even None, takes a
    # float off numpy's scalar fast path, so floats keep the form above
    np.divide(phi, params.phi0, out=out)
    return np.exp(np.multiply(params.m, np.log(out, out=out), out=out), out=out)


def reaction_rate(z, h, params: BasinParams, out=None):
    """Arrhenius-like dehydration rate e^{beta (h - z - zstar)}.

    The exponent argument is clamped to [-50, 50]; the value is exact
    whenever the clamp is inactive. Equals 1 on the reaction front
    z = h - zstar. Accepts scalars or arrays; an array ``out`` of the
    broadcast shape receives the result, which is returned.
    """
    arg = np.subtract(np.asarray(h, dtype=float), np.asarray(z, dtype=float), out=out)
    arg = np.multiply(params.beta, np.subtract(arg, params.zstar, out=out), out=out)
    # np.clip would give the same values through three Python wrappers
    return np.exp(np.minimum(np.maximum(arg, -_EXP_CLAMP, out=out), _EXP_CLAMP, out=out), out=out)


@dataclass(frozen=True)
class BasinState:
    """Solution snapshot on the uniform grid x = z/h(t) = linspace(0, 1, phi.size)."""

    t: float
    h: float
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
            # bool is an Integral; an infinite t_end would never end the run,
            # and an int beyond the float range overflows on conversion
            if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value <= _FLOAT_MAX):
                raise ValidationError(
                    f"config field {f.name} must be positive and finite, got {_shown(value)}"
                )
        if not isinstance(self.n_nodes, numbers.Integral) or self.n_nodes < 16:
            raise ValidationError(f"n_nodes must be an integer >= 16, got {self.n_nodes!r}")
        # the driver's step floor dt/1024 must split a sample interval (twice, for rounding)
        # into finite steps, and dh/dt divides by the grid spacing; float() keeps numpy quiet
        floor, span = float(self.dt) * 2.0**-10, float(min(self.t_end, self.output_every))
        if not (floor > 0.0 and math.isfinite(2.0 * span / floor)):
            raise ValidationError(f"dt = {self.dt!r} is too small: dt/1024 is 0 or {span!r}/(dt/1024) inf")
        if float(self.h0) * 2.0**1022 < self.n_nodes - 1:
            raise ValidationError(f"h0 = {self.h0!r} leaves a subnormal grid spacing on {self.n_nodes} nodes")


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

