"""Shared exception types."""


class DimensionError(ValueError):
    """Operands have incompatible sizes or arities."""


class CapacityError(RuntimeError):
    """A configured resource guard was exceeded; carries the bound's name and,
    where the stage tracks it, how far the run got."""

    def __init__(self, bound_name: str, limit, actual=None, reached: str | None = None):
        self.bound_name = bound_name
        self.limit = limit
        self.actual = actual
        self.reached = reached
        detail = f"limit {limit}" if actual is None else f"limit {limit}, needed {actual}"
        if reached is not None:
            detail += f"; reached {reached}"
        super().__init__(f"capacity guard '{bound_name}' exceeded ({detail})")


class OracleError(RuntimeError):
    """An external objective oracle failed or replied with garbage."""


class ProblemError(ValueError):
    """A problem file or descriptor failed validation."""
