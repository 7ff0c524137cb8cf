"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """Raised when an argument leaves the mathematical domain of an operation."""


class StabilityError(RuntimeError):
    """Raised when a march fails: a time step, explicit or implicit, rejected too often; an
    implicit step whose linearization did not settle; or an `evolve` march still short of
    t_end after `solver.MAX_STEPS` steps, its budget.  The command line exits 2 on each,
    but for a `sweep` row, which records it as the row's error."""


class InsufficientData(ValueError):
    """Raised when a verification check receives too few snapshots."""


class DegenerateError(ArithmeticError):
    """Raised when a residual denominator underflows to a meaningless scale."""


class BoundaryLeakWarning(UserWarning):
    """Issued when a run's edge mass, the mass at the wall of its truncated domain, grows large."""
