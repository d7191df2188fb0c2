"""Exception hierarchy shared across the package.

Two failure classes matter to callers: bad input (exit code 1 at the CLI)
and internal invariant violations (exit code 2), such as an observed
violation of a proved bound.
"""


class InputError(ValueError):
    """Malformed user input: bad edge list, bad parameters, bad graph6."""


class Graph6ParseError(InputError):
    """graph6 decoding failure, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EdgeListParseError(InputError):
    """Edge-list decoding failure, carrying the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class InternalError(RuntimeError):
    """Base for failures that indicate a broken invariant, not bad input."""


class FalsificationError(InternalError):
    """A theorem bound was violated. This would falsify published results,
    so it is never swallowed."""
