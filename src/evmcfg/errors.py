"""Exception hierarchy shared across the analysis pipeline.

Every failure the library can signal derives from AnalysisError so callers
(the CLI in particular) can catch one type and map it to an exit status.
Exceptions carry the program counter of the offending instruction whenever
one exists.
"""

from __future__ import annotations


class AnalysisError(Exception):
    """Base class for all analysis failures."""

    kind = "analysis_error"

    def __init__(self, message: str, pc: int | None = None):
        super().__init__(message)
        self.message = message
        self.pc = pc

    def report(self) -> dict:
        """kind and message, plus each of pc, offset and target the error
        carries."""
        out: dict = {"kind": self.kind, "message": self.message}
        for name in ("pc", "offset", "target"):
            if getattr(self, name, None) is not None:
                out[name] = getattr(self, name)
        return out


class DecodeError(AnalysisError):
    """Malformed bytecode input (bad hex digit, odd digit count)."""

    kind = "decode_error"

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class StackArityError(AnalysisError):
    """Stack underflow or overflow while applying an instruction."""

    kind = "stack_arity_error"


class UnresolvedJumpError(AnalysisError):
    """A jump whose target position carries no tracked destination set."""

    kind = "unresolved_jump"


class InvalidTargetError(AnalysisError):
    """A tracked jump destination that is not a valid jump landing pc."""

    kind = "invalid_target"

    def __init__(self, message: str, pc: int | None = None, target: int | None = None):
        super().__init__(message, pc)
        self.target = target


class BudgetExceededError(AnalysisError):
    """The worklist solver's work would pass MAX_WORK (see equations.py)."""

    kind = "budget_exceeded"


class StuckStateError(AnalysisError):
    """Concrete execution reached a jump with an untracked target."""

    kind = "stuck_state"


class InvalidJumpError(AnalysisError):
    """Concrete execution jumped to a pc that is not a valid landing."""

    kind = "invalid_jump"
