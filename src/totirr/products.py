"""Binary graph operations: join, four coordinate products, corona,
disjunction and symmetric difference.

All n1*n2-vertex products label the composite vertex (u, v) as u * n2 + v,
which is exactly the Kronecker-product block layout, so each adjacency is a
short boolean expression in np.kron.  Corona places g's vertices first,
followed by the copies of h in order.  product_degree_rows gives the same
composites' degree sequences from the operands' degrees alone, one operand
pair per row; it is the one way to get a composite's degree sequence
without building the composite.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .graph import Graph


class ProductKind(str, Enum):
    JOIN = "join"
    LEXICOGRAPHIC = "lexicographic"
    CARTESIAN = "cartesian"
    STRONG = "strong"
    DIRECT = "direct"
    CORONA = "corona"
    DISJUNCTION = "disjunction"
    SYMDIFF = "symdiff"


def join(g: Graph, h: Graph) -> Graph:
    """Both graphs plus every cross edge.  d(u) gains n2 on the g side
    and n1 on the h side."""
    n1, n2 = g.n, h.n
    adj = np.ones((n1 + n2, n1 + n2), dtype=bool)
    adj[:n1, :n1] = g.adjacency
    adj[n1:, n1:] = h.adjacency
    return Graph(adj)


def _eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=bool)


def _ones(n: int) -> np.ndarray:
    return np.ones((n, n), dtype=bool)


def lexicographic(g: Graph, h: Graph) -> Graph:
    """(u,v) ~ (u',v') iff u ~ u', or u = u' and v ~ v'.
    Degrees: n2*d_g(u) + d_h(v)."""
    a = np.kron(g.adjacency, _ones(h.n)) | np.kron(_eye(g.n), h.adjacency)
    return Graph(a)


def cartesian(g: Graph, h: Graph) -> Graph:
    """Adjacent in exactly one coordinate, equal in the other.
    Degrees: d_g(u) + d_h(v)."""
    a = np.kron(g.adjacency, _eye(h.n)) | np.kron(_eye(g.n), h.adjacency)
    return Graph(a)


def direct(g: Graph, h: Graph) -> Graph:
    """Adjacent in both coordinates.  Degrees: d_g(u) * d_h(v);
    edge count 2*m1*m2."""
    return Graph(np.kron(g.adjacency, h.adjacency))


def strong(g: Graph, h: Graph) -> Graph:
    """Union of the Cartesian and direct adjacencies.
    Degrees: d_g + d_h + d_g*d_h; edge count m1*n2 + m2*n1 + 2*m1*m2."""
    a = (
        np.kron(g.adjacency, _eye(h.n))
        | np.kron(_eye(g.n), h.adjacency)
        | np.kron(g.adjacency, h.adjacency)
    )
    return Graph(a)


def disjunction(g: Graph, h: Graph) -> Graph:
    """Adjacent in at least one coordinate (inclusive or).
    Degrees: n2*d_g + n1*d_h - d_g*d_h."""
    a = np.kron(g.adjacency, _ones(h.n)) | np.kron(_ones(g.n), h.adjacency)
    np.fill_diagonal(a, False)
    return Graph(a)


def symmetric_difference(g: Graph, h: Graph) -> Graph:
    """Adjacent in exactly one coordinate (exclusive or).
    Degrees: n2*d_g + n1*d_h - 2*d_g*d_h."""
    a = np.kron(g.adjacency, _ones(h.n)) ^ np.kron(_ones(g.n), h.adjacency)
    return Graph(a)


def corona(g: Graph, h: Graph) -> Graph:
    """g plus g.n copies of h; vertex i of g joined to all of copy i.

    Copy i of h occupies labels n1 + i*n2 .. n1 + (i+1)*n2 - 1.
    Degrees: d_g(u) + n2 on the g part, d_h(v) + 1 inside every copy.
    """
    n1, n2 = g.n, h.n
    n = n1 + n1 * n2
    adj = np.zeros((n, n), dtype=bool)
    adj[:n1, :n1] = g.adjacency
    for i in range(n1):
        lo = n1 + i * n2
        hi = lo + n2
        adj[lo:hi, lo:hi] = h.adjacency
        adj[i, lo:hi] = True
        adj[lo:hi, i] = True
    return Graph(adj)


PRODUCT_FUNCS = {
    ProductKind.JOIN: join,
    ProductKind.LEXICOGRAPHIC: lexicographic,
    ProductKind.CARTESIAN: cartesian,
    ProductKind.STRONG: strong,
    ProductKind.DIRECT: direct,
    ProductKind.CORONA: corona,
    ProductKind.DISJUNCTION: disjunction,
    ProductKind.SYMDIFF: symmetric_difference,
}


def apply_product(kind: ProductKind, g: Graph, h: Graph) -> Graph:
    return PRODUCT_FUNCS[ProductKind(kind)](g, h)


def product_degree_rows(kind: ProductKind, dg: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Degree sequences of the composites of operand pairs, one pair per
    row: dg is (rows, n1) and dh is (rows, n2), int64, and row i of the
    result is the composite of row i's operands, in apply_product's vertex
    labelling.  Every entry and intermediate value is below
    3 (n1 + 1)(n2 + 1), so int64 is exact.

    Each entry is the degree identity stated in the operation's docstring,
    so no adjacency is built; apply_product is the oracle it is tested
    against.
    """
    kind = ProductKind(kind)
    n1, n2 = dg.shape[1], dh.shape[1]
    if kind is ProductKind.JOIN:
        return np.concatenate([dg + n2, dh + n1], axis=1)
    if kind is ProductKind.CORONA:
        return np.concatenate([dg + n2, np.tile(dh + 1, (1, n1))], axis=1)
    # composite vertex (u, v) is u * n2 + v: row-major over (n1, n2)
    a, b = dg[:, :, None], dh[:, None, :]
    if kind is ProductKind.LEXICOGRAPHIC:
        d = n2 * a + b
    elif kind is ProductKind.CARTESIAN:
        d = a + b
    elif kind is ProductKind.STRONG:
        d = a + b + a * b
    elif kind is ProductKind.DIRECT:
        d = a * b
    elif kind is ProductKind.DISJUNCTION:
        d = n2 * a + n1 * b - a * b
    else:
        d = n2 * a + n1 * b - 2 * a * b
    return d.reshape(len(d), n1 * n2)
