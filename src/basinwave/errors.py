"""Exception types shared across the package."""


class BasinwaveError(Exception):
    """Base class for all package errors."""


class ValidationError(BasinwaveError, ValueError):
    """Parameters or configuration violate a documented invariant."""


class SolverError(BasinwaveError, RuntimeError):
    """A numerical solve failed to produce a usable result."""


class NoRootError(SolverError):
    """Bracket expansion found no sign change for a scalar root."""


class StiffProfileError(SolverError):
    """A profile integration left its representable range."""


class SingularProfileError(SolverError):
    """An algebraic profile relation hit a vanishing denominator."""


class ProfileRangeError(SolverError):
    """An integrated profile left its admissible value range."""


class StepRejected(SolverError):
    """A time-step attempt failed. ``run_simulation`` retakes the step or
    halves dt; outside it, a failed step is a solver failure like any other."""
