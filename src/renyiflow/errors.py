"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """Raised when an argument leaves the mathematical domain of an operation."""


class StabilityError(RuntimeError):
    """Raised when a time step, explicit or implicit, fails: rejected too often, or (implicit)
    its linearization did not settle."""


class InsufficientData(ValueError):
    """Raised when a verification check receives too few snapshots."""


class DegenerateError(ArithmeticError):
    """Raised when a residual denominator underflows to a meaningless scale."""


class BoundaryLeakWarning(UserWarning):
    """Issued when a run's edge mass, the mass at the wall of its truncated domain, grows large."""
