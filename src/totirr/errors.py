"""Exception hierarchy shared across the package.

Two failure classes matter to callers: bad input (exit code 1 at the CLI)
and internal invariant violations (exit code 2), such as an observed
violation of a proved bound.  `integer` is the one check of an integer
argument.
"""

import operator
import reprlib
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


# an int in a message past this many digits is shown by its bit length:
# Python 3.11+ refuses str() of an int past 4300 digits, and a long one
# buries the message; any value's text is cut to _SHOWN_CHARS characters
_SHOWN_DIGITS = 30
_SHOWN_CHARS = 60


class _Shown(reprlib.Repr):
    """reprlib's size-limited repr, through no call that can raise: an int
    by _show's rule, and a value whose own repr raises (a Fraction's does
    past 4300 digits) by its type's name."""

    def repr_int(self, k, level):
        return str(k) if abs(k) < 10**_SHOWN_DIGITS else f"{'-' * (k < 0)}<{k.bit_length()}-bit integer>"

    def repr_instance(self, x, level):
        try:
            return repr(x)
        except Exception:
            return f"<{type(x).__name__}>"


_SHOWN = _Shown()


def _show(value) -> str:
    """`value` for a message: an int in decimal, or as `<b-bit integer>`
    past _SHOWN_DIGITS digits; anything else by _Shown's repr; either cut
    to _SHOWN_CHARS characters."""
    text = _SHOWN.repr(value)
    return text if len(text) <= _SHOWN_CHARS else f"{text[: _SHOWN_CHARS - 3]}..."


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
        where = f" in [{_show(low)}, {_show(high)}]"
    elif low is not None:
        where = f" >= {_show(low)}"
    else:
        where = "" if high is None else f" <= {_show(high)}"
    raise InputError(f"{name} must be an integer{where}, got {_show(value if n is None else n)}")


class InternalError(RuntimeError):
    """Base for failures that indicate a broken invariant, not bad input."""


class FalsificationError(InternalError):
    """A theorem bound was violated. This would falsify published results,
    so it is never swallowed."""
