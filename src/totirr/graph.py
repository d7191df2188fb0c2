"""Immutable simple undirected graphs on vertex set {0..n-1}.

The adjacency matrix is a read-only boolean numpy array; n = 0 is rejected
everywhere (every operation in this package presumes a nonempty vertex set).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from .errors import InputError


# side of the square tiles in which _is_symmetric compares a matrix with its
# transpose and formats.graph_from_bits mirrors the lower triangle: a tile
# and its mirror stay in cache, where a whole-matrix transpose of a large
# graph is a strided pass through memory.  The edge indices in `indices`
# pass the adjacency in row tiles of the same height.
SYMMETRY_TILE = 256


def _is_symmetric(adj: np.ndarray) -> bool:
    """adj == adj.T, compared tile by tile over the tiles on and above the
    diagonal; a matrix of at most one tile is one comparison."""
    n = adj.shape[0]
    t = SYMMETRY_TILE
    for i in range(0, n, t):
        for j in range(i, n, t):
            if not np.array_equal(adj[i : i + t, j : j + t], adj[j : j + t, i : i + t].T):
                return False
    return True


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

    Raises InputError for out-of-range endpoints or self-loops, naming the
    offending pair.
    """
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop ({u}, {v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) has an endpoint outside [0, {n - 1}]")
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


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are relabeled by shifting up by g.n."""
    n = g.n + h.n
    adj = np.zeros((n, n), dtype=bool)
    adj[: g.n, : g.n] = g.adjacency
    adj[g.n :, g.n :] = h.adjacency
    return Graph(adj)
