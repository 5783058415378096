"""Exception hierarchy with stable CLI exit codes.

Every error the package raises on a user-triggerable path derives from
:class:`HomringError` and carries a distinct ``exit_code`` so shell scripts can
branch on the failure class.  ``InternalInvariantViolation`` is reserved for
cross-checks that can only fail on a bug in this package itself.  Exit
codes 3, 6, 7 and 15 are retired, since nothing raised them: every ring is
a ring by construction, the presets too (InvalidRing); every ring's family
names a trace onto Z_char, so a generating character is always known
(NotGenerating); a unit sum of a character is fixed by the Galois group of
its cyclotomic field, so it is always rational (NotRational); and the
orbit-sum system of the axiomatic weight always has a unique solution
(SingularSystem).
"""

from __future__ import annotations


class HomringError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidParameter(HomringError):
    """A numeric or structural argument is outside its documented domain."""

    exit_code = 2


class NotLocal(HomringError):
    """A construction that needs a local ring was handed a non-local one."""

    exit_code = 4


class ValidationFailed(HomringError):
    """A candidate trace map failed validation.

    ``primary`` is the first failed check in the fixed order
    (NotLinear, KernelContainsIdeal, NotSurjective); ``report`` is the full
    validation report with witnesses.
    """

    exit_code = 5

    def __init__(self, primary: str, report=None, message: str | None = None):
        self.primary = primary
        self.report = report
        super().__init__(message or f"validation failed: {primary}")


class BudgetExceeded(HomringError):
    """An enumeration would exceed the configured budget."""

    exit_code = 8


class BadPermutation(HomringError):
    """A permutation argument is not a bijection of the expected index set."""

    exit_code = 9


class WrongRingFamily(HomringError):
    """The ring family does not support the requested construction."""

    exit_code = 10


class OutOfRange(HomringError):
    """A closed-form family was instantiated outside its parameter range."""

    exit_code = 11


class NotTwoWeight(HomringError):
    """Graph construction requires exactly two distinct nonzero weights.
    ``weights`` holds the code's distinct nonzero weights, ascending, as
    reduced (num, den) pairs."""

    exit_code = 12

    def __init__(self, count: int, weights=()):
        self.count = count
        self.weights = tuple(weights)
        super().__init__(f"code has {count} distinct nonzero weights, need exactly 2")


class ParseError(HomringError):
    """Malformed spec string or config text."""

    exit_code = 13

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class UnknownPreset(HomringError):
    """A named preset does not exist or does not apply to the given ring."""

    exit_code = 14


class InternalInvariantViolation(HomringError):
    """A redundant cross-check failed; indicates a bug in this package."""

    exit_code = 70
