"""Exception types and the log helper shared across the package."""

import sys


def log_info(name: str, msg: str, *args) -> None:
    """``logging.getLogger(name).info(msg, *args)``, once ``logging`` is loaded.

    Until some code imports ``logging`` no handler can exist, and an INFO
    record would reach none, so the package does not import the module
    itself: it holds about 0.5 MB of resident memory."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).info(msg, *args)


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
