"""graph6 codec, edge-list parsing, and line-delimited report records.

graph6 layout: header byte n+63 for n <= 62, or '~' followed by three
bytes carrying n in 6-bit groups (supported up to n = 4096 here); then
ceil(n(n-1)/2 / 6) payload bytes, each byte-63 giving six adjacency bits,
most significant first, in column-major upper-triangle order
x(0,1), x(0,2), x(1,2), x(0,3), ...  Padding bits must be zero.

`triangle_mask` is the one place that knows this bit order (by symmetry,
the strict lower triangle read row-major): the codec, `graph_from_bits`
and the enumeration codes in `search` all go through it.

Four sextets are three whole bytes, so the codec regroups the payload's
sextets 4 -> 3 bytes (and back) and moves bits with one flat
`np.unpackbits` / `np.packbits`, most significant first as graph6 has
them.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .errors import EdgeListParseError, Graph6ParseError, InputError
from .graph import Graph, from_edge_list, mirror_lower

MAX_GRAPH6_N = 4096
# the bytes a text input may have around a graph6 string or an edge-list
# field; a line ends at "\n" alone, so "\r" before it is a blank too
BLANKS = " \t\r"


@functools.lru_cache(maxsize=4)  # bounded: the n = 4096 entry holds 16 MB
def triangle_mask(n: int) -> np.ndarray:
    """n x n boolean mask of the strict lower triangle, whose row-major
    entries are the n(n-1)/2 graph6 bits.  Read-only: every caller shares
    the cached array."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def graph_from_bits(n: int, bits: Union[Sequence[int], np.ndarray]) -> Graph:
    """The graph on n vertices whose n(n-1)/2 upper-triangle adjacency
    bits, in graph6 order, are `bits` (0/1 or booleans): scattered into
    the strict lower triangle, then mirrored by `graph.mirror_lower`."""
    adj = np.zeros((n, n), dtype=bool)
    adj[triangle_mask(n)] = np.asarray(bits, dtype=bool)
    return Graph(mirror_lower(adj))


def _sextets_to_bytes(sextets: np.ndarray) -> np.ndarray:
    """The bytes whose bits, most significant first, are the low six bits
    of each uint8 sextet in turn, zero-padded to whole groups of 4 sextets
    (3 bytes).  uint8 shifts drop the bits shifted out of the byte."""
    s = np.zeros(-(-sextets.size // 4) * 4, dtype=np.uint8)
    s[: sextets.size] = sextets
    s0, s1, s2, s3 = s.reshape(-1, 4).T
    return np.stack([s0 << 2 | s1 >> 4, s1 << 4 | s2 >> 2, s2 << 6 | s3], axis=1).ravel()


def _bytes_to_sextets(data: np.ndarray) -> np.ndarray:
    """Inverse of _sextets_to_bytes for a whole number of 3-byte groups:
    each group's 24 bits as 4 sextets."""
    b0, b1, b2 = data.reshape(-1, 3).T
    return np.stack([b0 >> 2, (b0 & 3) << 4 | b1 >> 4, (b1 & 15) << 2 | b2 >> 6, b2 & 63], axis=1).ravel()


def _check_byte(b: int, offset: int) -> int:
    if not 63 <= b <= 126:
        raise Graph6ParseError(f"byte {b} outside printable graph6 range [63, 126]", offset)
    return b - 63


def parse_graph6(s: str) -> Graph:
    """Decode one graph6 string, with or without a `>>graph6<<` prefix,
    into a Graph.  An error's offset counts bytes from the start of `s`,
    the prefix included."""
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6ParseError(f"non-ASCII character {s[exc.start]!r}", exc.start) from None
    start = len(b">>graph6<<") if data.startswith(b">>graph6<<") else 0
    if len(data) == start:
        raise Graph6ParseError("empty graph6 string", start)
    if data[start] == 126:  # '~': extended header
        if len(data) >= start + 2 and data[start + 1] == 126:
            raise Graph6ParseError("8-byte huge-graph header is unsupported", start + 1)
        if len(data) < start + 4:
            raise Graph6ParseError("truncated extended header", len(data))
        n = 0
        for k in range(start + 1, start + 4):
            n = (n << 6) | _check_byte(data[k], k)
        pos = start + 4
    else:
        n = _check_byte(data[start], start)
        pos = start + 1
    if n < 1:
        raise Graph6ParseError(f"vertex count {n} out of range (n >= 1 required)", start)
    if n > MAX_GRAPH6_N:
        raise Graph6ParseError(f"vertex count {n} exceeds supported maximum {MAX_GRAPH6_N}", start)

    k = n * (n - 1) // 2
    nbytes = (k + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6ParseError(
            f"truncated payload: need {nbytes} bytes, got {len(data) - pos}", len(data)
        )
    if len(data) - pos > nbytes:
        raise Graph6ParseError("trailing bytes after payload", pos + nbytes)

    payload = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=pos)
    bad = np.flatnonzero((payload < 63) | (payload > 126))
    if bad.size:
        _check_byte(int(payload[bad[0]]), pos + int(bad[0]))
    bits = np.unpackbits(_sextets_to_bytes(payload - 63))
    if bits[k:].any():  # the payload's padding, then the regrouping's zeros
        raise Graph6ParseError("nonzero padding bit", pos + nbytes - 1)
    return graph_from_bits(n, bits[:k])


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
    k = n * (n - 1) // 2
    packed = np.packbits(g.adjacency[triangle_mask(n)])  # zero-pads the last byte
    payload = _bytes_to_sextets(np.pad(packed, (0, -packed.size % 3)))[: -(-k // 6)] + 63
    return (bytes(out) + payload.tobytes()).decode("ascii")


def _is_decimal(token: str) -> bool:
    # int() alone also takes a sign, underscores and non-ASCII digits
    return token.isascii() and token.isdigit()


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Header line "n <count>" with count <= MAX_GRAPH6_N, then one "u v" pair
    per line, all numbers in ASCII decimal digits; '#' comments and blank
    lines are ignored.  A line ends at "\n", fields are separated by spaces
    and tabs, and BLANKS around a line are ignored; any other byte is part
    of a field.  Errors carry 1-based line numbers.
    """
    n = None
    edges: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(BLANKS)
        if not line:
            continue
        tokens = [t for t in line.replace("\t", " ").split(" ") if t]
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise EdgeListParseError(f"expected header 'n <count>', got {raw.strip(BLANKS)!r}", lineno)
            if not _is_decimal(tokens[1]):
                raise EdgeListParseError(f"bad vertex count {tokens[1]!r}", lineno)
            n = int(tokens[1])
            if n < 1:
                raise EdgeListParseError(f"vertex count must be >= 1, got {n}", lineno)
            if n > MAX_GRAPH6_N:
                raise EdgeListParseError(
                    f"vertex count {n} exceeds supported maximum {MAX_GRAPH6_N}", lineno
                )
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(f"expected 'u v', got {raw.strip(BLANKS)!r}", lineno)
        if not all(map(_is_decimal, tokens)):
            raise EdgeListParseError(f"non-decimal endpoint in {raw.strip(BLANKS)!r}", lineno)
        u, v = int(tokens[0]), int(tokens[1])
        if u == v:
            raise EdgeListParseError(f"self-loop {u} {v}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"endpoint outside [0, {n - 1}] in {raw.strip(BLANKS)!r}", lineno)
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
