"""Exception hierarchy shared across the package.

Two failure classes matter to callers: bad input (exit code 1 at the CLI)
and internal invariant violations (exit code 2), such as an observed
violation of a proved bound.  `integer` is the one check of an integer
argument.
"""

import operator
from typing import Optional


class InputError(ValueError):
    """Malformed user input: bad edge list, bad parameters, bad graph6."""


class Graph6ParseError(InputError):
    """graph6 decoding failure, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


class EdgeListParseError(InputError):
    """Edge-list decoding failure, carrying the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


def integer(value, name: str, low: Optional[int] = None, high: Optional[int] = None) -> int:
    """`value` as an int, through operator.index, so numpy integers and
    bools pass as the ints they equal.  Anything else, or an int outside
    [low, high] (an omitted end is open), raises one InputError that names
    the argument and its range."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is not None and (low is None or low <= n) and (high is None or n <= high):
        return n
    if low is not None and high is not None:
        where = f" in [{low}, {high}]"
    elif low is not None:
        where = f" >= {low}"
    else:
        where = "" if high is None else f" <= {high}"
    raise InputError(f"{name} must be an integer{where}, got {value if n is None else n!r}")


class InternalError(RuntimeError):
    """Base for failures that indicate a broken invariant, not bad input."""


class FalsificationError(InternalError):
    """A theorem bound was violated. This would falsify published results,
    so it is never swallowed."""
