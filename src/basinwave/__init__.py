"""Reactive compaction in a sedimenting porous column.

A moving-boundary solver for the coupled porosity/reactant system on the
growing domain 0 < z < h(t), a matched regional analysis of its traveling
wave in the frame of the reaction front, and cross-validation batteries
tying the two together.
"""

__version__ = "0.1.0"

from .core import (
    BasinParams,
    BasinState,
    RunConfig,
    derive_params,
    reaction_rate,
)
from .pde import (
    TimeSeries,
    estimate_wave_speed,
    hdot,
    run_simulation,
    step_predictor_corrector,
)
from .asymptotics import (
    MatchResult,
    TravellingWaveProfile,
    build_wave_profile,
    solve_c,
    solve_c_consistent,
    solve_outer,
)
from .verify import (
    VerificationReport,
    cross_validate_speed,
    residual_battery,
)

__all__ = [
    "BasinParams",
    "BasinState",
    "RunConfig",
    "derive_params",
    "reaction_rate",
    "TimeSeries",
    "estimate_wave_speed",
    "hdot",
    "run_simulation",
    "step_predictor_corrector",
    "MatchResult",
    "TravellingWaveProfile",
    "build_wave_profile",
    "solve_c",
    "solve_c_consistent",
    "solve_outer",
    "VerificationReport",
    "cross_validate_speed",
    "residual_battery",
    "__version__",
]
