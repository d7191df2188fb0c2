"""Immutable simple undirected graphs on vertex set {0..n-1}.

The adjacency matrix is a read-only boolean numpy array; n = 0 is rejected
everywhere (every operation in this package presumes a nonempty vertex set).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from .errors import InputError, integer


# side of the square tiles in which _is_symmetric compares a matrix with its
# transpose and mirror_lower completes one from its lower triangle: a tile
# and its mirror stay in cache, where a whole-matrix transpose of a large
# graph is a strided pass through memory.  The edge indices in `indices`
# pass the adjacency in row tiles of the same height.
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


def mirror_lower(adj: np.ndarray) -> np.ndarray:
    """Complete a square boolean matrix whose strict upper triangle is
    empty into a symmetric one, in place: each tile on or above the
    diagonal is ORed with its mirror's transpose.  Returns adj."""
    for r, c in _tile_pairs(adj.shape[0]):
        adj[r, c] |= adj[c, r].T
    return adj


class Graph:
    """A simple undirected graph: symmetric boolean adjacency, empty diagonal.

    Instances are immutable after construction and safe to share across
    threads or processes.
    """

    __slots__ = ("_adj", "_m", "_degrees")

    def __init__(self, adjacency: np.ndarray):
        adj = np.array(adjacency, dtype=bool)
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
        adj.setflags(write=False)
        self._adj = adj
        self._degrees = tuple(adj.sum(axis=1).tolist())
        self._m = sum(self._degrees) // 2

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
            raise InputError(f"edge {pair!r} is not a pair of integers in [0, {n - 1}]") from None
        if u == v:
            raise InputError(f"self-loop ({u}, {v}) is not allowed")
        adj[u, v] = adj[v, u] = True
    return Graph(adj)


def complement(g: Graph) -> Graph:
    """Complement graph: i ~ j in the result iff i != j and not i ~ j in g.

    Vertexwise the degrees satisfy d'(u) = n - 1 - d(u), so the total
    irregularity is preserved.
    """
    adj = ~g.adjacency
    np.fill_diagonal(adj, False)
    return Graph(adj)


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
