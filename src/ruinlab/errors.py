"""Exception types shared across the package."""


class RuinlabError(Exception):
    """Base class for all package-specific failures."""


class NoSolutionError(RuinlabError):
    """The survival problem has no admissible solution for these parameters."""


class SolverError(RuinlabError):
    """A numerical stage failed (normalization unstable, limit nonpositive, ...)."""


class ConvergenceError(SolverError, ArithmeticError):
    """A series or continued fraction did not converge within its term budget."""


class IntegrationError(SolverError):
    """The ODE integrator could not complete a span.

    The failure abscissa is stored in ``u``.
    """

    def __init__(self, message: str, u: float | None = None):
        super().__init__(message)
        self.u = u
