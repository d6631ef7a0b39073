"""Exception types shared across the package, and the checks that raise them.

Each error type's ``exit_code`` is the CLI's exit status for it.
"""

import math
import numbers


class AuditError(Exception):
    """Base class for all regret-audit errors."""

    exit_code = 2


class InvalidInputError(AuditError, ValueError):
    """Malformed numeric input: bad dimensions, out-of-range entries, NaNs."""


class InvalidConfigError(AuditError, ValueError):
    """A run configuration violates its invariants."""


class MechanismLoadError(InvalidConfigError):
    """A mechanism could not be resolved from a builtin name or spec file."""


class BudgetExceededError(AuditError):
    """A grid scan would exceed the configured evaluation budget."""

    exit_code = 3

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"grid scan needs {required} mechanism evaluations, "
            f"exceeding the budget of {budget}"
        )

    def __reduce__(self):
        # errors cross the process pool pickled; the default rebuilds from args
        return type(self), (self.required, self.budget)


class ReportFormatError(AuditError):
    """A persisted report is malformed or has an unsupported format version."""

    exit_code = 4


def check_int(value, what: str, minimum: int, error=InvalidInputError) -> None:
    """Raise ``error`` unless ``value`` is an integer (no float, no bool) >= ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise error(f"{what} must be an integer >= {minimum}, got {value!r}")


def check_type(value, what: str, types, error=InvalidInputError) -> None:
    """Raise ``error`` unless ``value`` is an instance of ``types`` (a class or a tuple)."""
    if not isinstance(value, types):
        names = " or ".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        raise error(f"{what} must be of type {names}, got {value!r}")


def check_float(value, what: str, positive: bool = False, error=InvalidInputError) -> float:
    """``value`` as a float; ``error`` unless it is a finite number (no bool,
    no string) >= 0, or > 0 when ``positive``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{what} must be a number, got {value!r}")
    if not (value > 0.0 if positive else value >= 0.0) or not math.isfinite(value):
        raise error(f"{what} must be finite and {'>' if positive else '>='} 0, got {value!r}")
    return float(value)
