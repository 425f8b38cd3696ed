"""Exception hierarchy shared across the toolkit.

Everything raised deliberately derives from TorsionLabError so the command
line layer can map failures onto its two non-zero exit codes: precision
exhaustion (exit 3) versus every other invalid-input condition (exit 2).
"""


class TorsionLabError(Exception):
    """Base class for all errors raised by torsionlab."""


class PrecisionExhausted(TorsionLabError):
    """A computation needed series terms beyond the truncation budget.

    Raising this is always fixable by the caller: raise the truncation
    level (or supply a finite one where an exact computation cannot
    terminate).
    """


class ConstraintViolated(TorsionLabError):
    """An input inequality failed.  ``name`` states which one."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        super().__init__(name if not detail else f"{name}: {detail}")


class NotAComplex(TorsionLabError):
    """Consecutive differentials do not compose to zero below truncation."""


class FiberOnBoundary(TorsionLabError):
    """A requested fiber point lies on or outside the moment polytope."""


class EmptyInterior(TorsionLabError):
    """The moment polytope has no interior point within its box."""


class UnboundedDomain(TorsionLabError):
    """Extrema were requested over an unbounded factor with no box given."""


class StepFailure(TorsionLabError):
    """Numerical flow integration produced non-finite values."""
