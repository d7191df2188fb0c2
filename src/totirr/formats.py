"""graph6 codec, edge-list parsing, and line-delimited report records.

graph6 layout: header byte n+63 for n <= 62, or '~' followed by three
bytes carrying n in 6-bit groups (supported up to n = 4096 here); then
ceil(n(n-1)/2 / 6) payload bytes, each byte-63 giving six adjacency bits,
most significant first, in column-major upper-triangle order
x(0,1), x(0,2), x(1,2), x(0,3), ...  Padding bits must be zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .errors import EdgeListParseError, Graph6ParseError, InputError
from .graph import Graph, from_edge_list

MAX_GRAPH6_N = 4096


def triangle_pairs(n: int) -> List[Tuple[int, int]]:
    """Upper-triangle pairs in graph6 bit order."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def _check_byte(b: int, offset: int) -> int:
    if not 63 <= b <= 126:
        raise Graph6ParseError(f"byte {b} outside printable graph6 range [63, 126]", offset)
    return b - 63


def parse_graph6(s: str) -> Graph:
    """Decode one graph6 string into a Graph."""
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    data = s.encode("ascii", errors="replace")
    if not data:
        raise Graph6ParseError("empty graph6 string", 0)
    pos = 0
    if data[0] == 126:  # '~': extended header
        if len(data) >= 2 and data[1] == 126:
            raise Graph6ParseError("8-byte huge-graph header is unsupported", 1)
        if len(data) < 4:
            raise Graph6ParseError("truncated extended header", len(data))
        n = 0
        for k in range(1, 4):
            n = (n << 6) | _check_byte(data[k], k)
        pos = 4
    else:
        n = _check_byte(data[0], 0)
        pos = 1
    if n < 1:
        raise Graph6ParseError(f"vertex count {n} out of range (n >= 1 required)", 0)
    if n > MAX_GRAPH6_N:
        raise Graph6ParseError(f"vertex count {n} exceeds supported maximum {MAX_GRAPH6_N}", 0)

    k = n * (n - 1) // 2
    nbytes = (k + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6ParseError(
            f"truncated payload: need {nbytes} bytes, got {len(data) - pos}", len(data)
        )
    if len(data) - pos > nbytes:
        raise Graph6ParseError("trailing bytes after payload", pos + nbytes)

    adj = np.zeros((n, n), dtype=bool)
    pairs = triangle_pairs(n)
    bit = 0
    for t in range(nbytes):
        val = _check_byte(data[pos + t], pos + t)
        for shift in range(5, -1, -1):
            b = (val >> shift) & 1
            if bit < k:
                if b:
                    i, j = pairs[bit]
                    adj[i, j] = adj[j, i] = True
            elif b:
                raise Graph6ParseError("nonzero padding bit", pos + t)
            bit += 1
    return Graph(adj)


def check_graph6_size(n: int) -> None:
    """Reject a vertex count too large for graph6 output; callers check
    before building a graph they would emit."""
    if n > MAX_GRAPH6_N:
        raise InputError(f"graph6 output supports n <= {MAX_GRAPH6_N}, got {n}")


def emit_graph6(g: Graph) -> str:
    """Encode a Graph as a canonical graph6 string."""
    n = g.n
    check_graph6_size(n)
    out = []
    if n <= 62:
        out.append(n + 63)
    else:
        out.append(126)
        out.append(((n >> 12) & 63) + 63)
        out.append(((n >> 6) & 63) + 63)
        out.append((n & 63) + 63)
    adj = g.adjacency
    k = n * (n - 1) // 2
    val = 0
    nbits = 0
    for i, j in triangle_pairs(n):
        val = (val << 1) | int(adj[i, j])
        nbits += 1
        if nbits == 6:
            out.append(val + 63)
            val = nbits = 0
    if k % 6:
        out.append((val << (6 - k % 6)) + 63)
    return bytes(out).decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Header line "n <count>" with count <= MAX_GRAPH6_N, then one "u v" pair
    per line; '#' comments and blank lines are ignored.  Errors carry
    1-based line numbers.
    """
    n = None
    edges: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise EdgeListParseError(
                    f"expected header 'n <count>', got {raw.strip()!r}", lineno
                )
            try:
                n = int(tokens[1])
            except ValueError:
                raise EdgeListParseError(f"bad vertex count {tokens[1]!r}", lineno) from None
            if n < 1:
                raise EdgeListParseError(f"vertex count must be >= 1, got {n}", lineno)
            if n > MAX_GRAPH6_N:
                raise EdgeListParseError(
                    f"vertex count {n} exceeds supported maximum {MAX_GRAPH6_N}", lineno
                )
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(f"expected 'u v', got {raw.strip()!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer endpoint in {raw.strip()!r}", lineno) from None
        if u == v:
            raise EdgeListParseError(f"self-loop {u} {v}", lineno)
        if n is not None and not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"endpoint outside [0, {n - 1}] in {raw.strip()!r}", lineno)
        edges.append((u, v))
    if n is None:
        raise EdgeListParseError("missing header line 'n <count>'", 1)
    return from_edge_list(n, edges)


RecordValue = Union[int, bool, float, str, Fraction, None]


def format_value(value: RecordValue) -> str:
    if value is None:
        return "na"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def format_record(fields: Sequence[Tuple[str, RecordValue]]) -> str:
    """One machine-parseable record per line: space-separated key=value
    tokens in the given (fixed) order."""
    return " ".join(f"{key}={format_value(value)}" for key, value in fields)


def parse_record(line: str) -> Dict[str, str]:
    """Inverse of format_record up to value stringification; preserves order."""
    out: Dict[str, str] = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise InputError(f"malformed record token {token!r}")
        out[key] = value
    return out
