"""Exception types shared across the package.

CLI exit codes: invalid inputs/config map to 2, grid budget overruns to 3,
and I/O or report-format failures to 4.
"""


class AuditError(Exception):
    """Base class for all regret-audit errors."""


class InvalidInputError(AuditError, ValueError):
    """Malformed numeric input: bad dimensions, out-of-range entries, NaNs."""


class InvalidConfigError(AuditError, ValueError):
    """A run configuration violates its invariants."""


class MechanismLoadError(InvalidConfigError):
    """A mechanism could not be resolved from a builtin name or spec file."""


class BudgetExceededError(AuditError):
    """A grid scan would exceed the configured evaluation budget."""

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
