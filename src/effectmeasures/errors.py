"""Exception taxonomy shared across the library.

Every failure mode callers are expected to branch on gets its own class;
generic ``ValueError``/``TypeError`` are reserved for programming errors.
Each class declares the exit status the CLI gives it in ``exit_code``:
2 for validation failures, 3 for measure/plan semantics, 4 for support
violations.
"""

from __future__ import annotations


class EffectMeasureError(Exception):
    """Base class for all library-specific errors."""

    exit_code = 2


class UndefinedMeasure(EffectMeasureError):
    """A measure is requested outside its mathematical domain.

    Raised on division by zero, boundary probabilities, or a
    measure/outcome-kind mismatch. Carries a human-readable ``reason``.
    """

    exit_code = 3

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class InvariantViolation(EffectMeasureError):
    """Input data violates a structural invariant (bad probability,
    inconsistent counts, proportions not summing to one, ...)."""


class NonCollapsible(EffectMeasureError):
    """The measure admits no weighted-average decomposition over strata."""

    exit_code = 3

    def __init__(self, measure) -> None:
        name = getattr(measure, "value", measure)  # a MeasureKind, or a name
        super().__init__(f"{name} is not collapsible")
        self.measure = measure


class UnknownCell(EffectMeasureError):
    """A covariate cell is not part of the model's covariate space."""


class DirectionViolated(EffectMeasureError):
    """A monotonicity direction was asserted but the model (or the data)
    contradicts it."""

    exit_code = 3


class NotIdentifiable(EffectMeasureError):
    """The requested quantity cannot be recovered from the given
    observables (e.g. switch probabilities without monotonicity)."""

    exit_code = 3


class SupportViolation(EffectMeasureError):
    """Target covariate cells are unobserved in the source sample."""

    exit_code = 4

    def __init__(self, cells) -> None:
        self.cells = tuple(cells)
        super().__init__(f"target cells unseen in source sample: {self.cells}")


class SingularDesign(EffectMeasureError):
    """A regression design admits no solution (empty arm)."""


class MissingTargetControlOutcome(EffectMeasureError):
    """The estimator needs control outcomes in the target sample but the
    sample carries none."""

    exit_code = 3


class ParseError(EffectMeasureError):
    """A file does not conform to the expected format. Carries the
    location when known."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        loc = ""
        if row is not None:
            loc += f" (row {row}"
            loc += f", column {column})" if column is not None else ")"
        super().__init__(message + loc)
        self.row = row
        self.column = column


class UnknownScenario(EffectMeasureError):
    """No built-in simulation scenario with the given name."""
