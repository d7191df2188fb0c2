"""Immutable simple undirected graphs on vertex set {0..n-1}.

The adjacency matrix is a read-only boolean numpy array; n = 0 is rejected
everywhere (every operation in this package presumes a nonempty vertex set).
Graph() copies and checks the adjacency it is given: one from outside the
package or an unpickled one.  Every builder in the package checks its
input once and hands a new matrix to _from_lower, which completes it and
keeps it with no copy and no second check: the families, the complement,
the graph6 and edge-list readers and from_edge_list write its strict
lower triangle, and apply_product a symmetric composite.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from .errors import InputError, _show, integer


# side of the square tiles in which _is_symmetric compares a matrix with its
# transpose and _from_lower completes a builder's lower triangle: a tile
# and its mirror stay in cache, where a whole-matrix transpose of a large
# graph is a strided pass through memory.  indices.irregularity passes the
# adjacency in row tiles of the same height.
SYMMETRY_TILE = 256


def _tile_pairs(n: int) -> Iterator[Tuple[slice, slice]]:
    """(rows, cols) of each tile on or above the diagonal of an n x n
    matrix; its mirror is [cols, rows], the tile itself on the diagonal."""
    t = SYMMETRY_TILE
    for i in range(0, n, t):
        for j in range(i, n, t):
            yield slice(i, i + t), slice(j, j + t)


def _is_symmetric(adj: np.ndarray) -> bool:
    """adj == adj.T, compared tile by tile; one tile is one comparison."""
    return all(np.array_equal(adj[r, c], adj[c, r].T) for r, c in _tile_pairs(adj.shape[0]))


class Graph:
    """A simple undirected graph: symmetric boolean adjacency, empty diagonal.

    Instances are immutable after construction and safe to share across
    threads or processes.  Graph(adjacency) copies the array and checks
    that it holds bools, or integers or floats that are all 0 or 1, and
    that it is square, nonempty, loop-free and symmetric: it is for arrays
    from outside the package and for unpickling; the package's own
    builders end in _from_lower.
    """

    __slots__ = ("_adj", "_m", "_degrees")

    def __init__(self, adjacency: np.ndarray):
        # only non-bool input has its values checked, so unpickling (which
        # passes a bool array) pays nothing for it
        try:
            given = np.asarray(adjacency)
            ok = given.dtype == bool or given.dtype.kind in "iuf" and np.isin(given, (0, 1)).all()
        except ValueError:  # ragged nested sequences
            ok = False
        if not ok:
            raise InputError("adjacency must hold bools, or integers or floats that are all 0 or 1")
        adj = np.array(given, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InputError(f"adjacency must be square, got shape {adj.shape}")
        n = adj.shape[0]
        if n < 1:
            raise InputError("graphs must have at least one vertex")
        if adj.diagonal().any():
            bad = int(np.flatnonzero(adj.diagonal())[0])
            raise InputError(f"self-loop at vertex {bad}")
        if not _is_symmetric(adj):
            raise InputError("adjacency is not symmetric")
        self._own(adj)

    def _own(self, adj: np.ndarray) -> Graph:
        """Keep adj, a symmetric adjacency with an empty diagonal that no
        one else writes, as this graph's read-only adjacency, count its
        degrees, and return self."""
        adj.setflags(write=False)
        self._adj = adj
        self._degrees = tuple(adj.sum(axis=1).tolist())
        self._m = sum(self._degrees) // 2
        return self

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._adj.shape[0]

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix."""
        return self._adj

    def degrees(self) -> Tuple[int, ...]:
        """Degree of each vertex, indexed by vertex label."""
        return self._degrees

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._adj, other._adj)

    def __hash__(self) -> int:
        return hash((self.n, self._adj.tobytes()))

    def __reduce__(self):
        # rebuild through __init__, so an unpickled copy is validated and
        # read-only like the original
        return Graph, (self._adj,)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _from_lower(lower: np.ndarray) -> Graph:
    """The graph whose adjacency is `lower` completed: a new square boolean
    matrix, n >= 1, that the caller hands over, with an empty diagonal and
    nothing above it that is not mirrored below, such as a strict lower
    triangle or a symmetric matrix.  Each tile on or above the diagonal is
    ORed with its mirror's transpose in place, which leaves a symmetric
    one as it is, and the graph keeps the result read-only, with no copy
    and no symmetry check.  Every builder in the package ends here;
    Graph() copies and checks arrays from outside it."""
    for r, c in _tile_pairs(lower.shape[0]):
        lower[r, c] |= lower[c, r].T
    return Graph.__new__(Graph)._own(lower)


def from_edge_list(n: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Build a graph from unordered vertex pairs; duplicates collapse.

    Endpoints are taken as integers by errors.integer, so a bool is 0 or 1.
    Raises InputError for anything but a pair of integers in [0, n) or for
    a self-loop, naming the offending pair.
    """
    n = integer(n, "n", 1)
    adj = np.zeros((n, n), dtype=bool)
    for pair in edges:
        try:
            u, v = (integer(x, "endpoint", 0, n - 1) for x in pair)
        except (TypeError, ValueError):
            # ValueError covers InputError and a pair of the wrong length
            raise InputError(f"edge {_show(pair)} is not a pair of integers in [0, {n - 1}]") from None
        if u == v:
            raise InputError(f"self-loop ({u}, {v}) is not allowed")
        adj[(u, v) if u > v else (v, u)] = True  # the lower triangle
    return _from_lower(adj)


def complement(g: Graph) -> Graph:
    """Complement graph: i ~ j in the result iff i != j and not i ~ j in g.

    Vertexwise the degrees satisfy d'(u) = n - 1 - d(u), so the total
    irregularity is preserved.
    """
    tri = np.tri(g.n, k=-1, dtype=bool)
    return _from_lower(np.greater(tri, g.adjacency, out=tri))


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component."""
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = g.adjacency[0].copy()
    while True:
        new = frontier & ~seen
        if not new.any():
            break
        seen |= new
        frontier = g.adjacency[new].any(axis=0)
    return bool(seen.all())
