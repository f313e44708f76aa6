"""Exception types shared across the package.

Every error that carries state keeps the last *valid* state on the
instance so callers can inspect how far a computation got before it
bailed out.
"""


class ReconphaseError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ReconphaseError):
    """A configuration document or constructor argument is invalid."""


class DomainError(ReconphaseError):
    """A state left the chart/domain the system is defined on."""

    def __init__(self, message, last_state=None, t=None):
        super().__init__(message)
        self.last_state = last_state
        self.t = t


class IntegrationError(ReconphaseError):
    """The integrator failed (step-size underflow, bad time request, ...)."""

    def __init__(self, message, last_state=None, t=None):
        super().__init__(message)
        self.last_state = last_state
        self.t = t


class PeriodNotFoundError(ReconphaseError):
    """Period detection could not start (e.g. reduced equilibrium)."""


class NotPeriodicError(ReconphaseError):
    """No closing section crossing was found within the time budget."""

    def __init__(self, message, best_residual=None, t_searched=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.t_searched = t_searched


class SectionRefinementError(ReconphaseError):
    """The root finder refining a section crossing of the period search
    failed inside its bracket (the message names the bracket times)."""


class PhaseInconsistencyError(ReconphaseError):
    """The group element solving act(g, m) = flow(m, tau) has residual
    above tolerance, i.e. the return point is not on the group orbit."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class OracleUnavailableError(ReconphaseError):
    """An independent cross-check cannot be evaluated for this input
    (e.g. separatrix proximity)."""


class SamplerExhaustedError(ReconphaseError):
    """A rejection sampler used up its draw budget before it accepted
    the requested number of points."""

    def __init__(self, message, n_accepted=None, budget=None):
        super().__init__(message)
        self.n_accepted = n_accepted
        self.budget = budget
