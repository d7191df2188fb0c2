"""Binary graph operations: join, four coordinate products, corona,
disjunction and symmetric difference.

apply_product is the one builder of a composite's adjacency.  Join and
corona are its two block branches; corona places g's vertices first,
followed by the copies of h in order.  All n1*n2-vertex products label the
composite vertex (u, v) as u * n2 + v, which is exactly the
Kronecker-product block layout.  Each of the six is a sum of signed
Kronecker terms c * X (x) Y in KRONECKER_TERMS, with X one of g's
adjacency A, the identity I or the all-ones J, and Y one of h's B, I or J.
That sum has 0/1 entries, so the composite is the XOR of the
odd-coefficient terms' np.krons, with one term alive at a time.  The
degree rows sum the same terms with each factor replaced by its row sums,
since X (x) Y has row sum x(u) * y(v) at (u, v): d_g or d_h for A and B, 1
for I, and n1 or n2 for J.  product_degree_rows gives the composites'
degree sequences from the operands' degrees alone, one operand pair per
row; it is the one way to get a composite's degree sequence without
building the composite.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InputError
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

    @classmethod
    def _missing_(cls, value):
        raise InputError(f"unknown product kind {value!r}")


# (c, X, Y) for each term c * X (x) Y (Hammack, Imrich & Klavzar, Handbook
# of Product Graphs, 2nd ed., 2011).  Every sum has 0/1 entries: the terms
# of the first four kinds are disjoint, and the last two count the overlap
# A (x) B of A (x) J and J (x) B once and not at all.  Every term has A or
# B as a factor, so every sum has an empty diagonal.
KRONECKER_TERMS = {
    ProductKind.LEXICOGRAPHIC: ((1, "A", "J"), (1, "I", "B")),
    ProductKind.CARTESIAN: ((1, "A", "I"), (1, "I", "B")),
    ProductKind.STRONG: ((1, "A", "I"), (1, "I", "B"), (1, "A", "B")),
    ProductKind.DIRECT: ((1, "A", "B"),),
    ProductKind.DISJUNCTION: ((1, "A", "J"), (1, "J", "B"), (-1, "A", "B")),
    ProductKind.SYMDIFF: ((1, "A", "J"), (1, "J", "B"), (-2, "A", "B")),
}


def _factor(adj: np.ndarray, name: str) -> np.ndarray:
    """Kronecker factor `name` of the operand with adjacency adj: adj
    itself for A or B, else I or J of its size."""
    if name == "I":
        return np.eye(len(adj), dtype=bool)
    return np.ones(adj.shape, dtype=bool) if name == "J" else adj


def composite_order(kind: ProductKind, n1: int, n2: int) -> int:
    """Vertex count of the composite of an n1-vertex g and an n2-vertex h,
    the size apply_product allocates."""
    sizes = {ProductKind.JOIN: n1 + n2, ProductKind.CORONA: n1 + n1 * n2}
    return sizes.get(ProductKind(kind), n1 * n2)


def apply_product(kind: ProductKind, g: Graph, h: Graph) -> Graph:
    """The composite of g and h, the one builder of a composite adjacency.

    Join is both graphs plus every cross edge.  Corona is g plus g.n copies
    of h, vertex i of g joined to all of copy i, which occupies labels
    n1 + i*n2 .. n1 + (i+1)*n2 - 1.  A Kronecker kind's signed sum has 0/1
    entries, so each entry is its own parity: the sum is the XOR of the
    terms with odd coefficients, each term and its factors built when it
    is reached and dropped before the next.
    """
    kind = ProductKind(kind)
    n1, n2, n = g.n, h.n, composite_order(kind, g.n, h.n)
    adj = (np.ones if kind is ProductKind.JOIN else np.zeros)((n, n), dtype=bool)
    if kind is ProductKind.JOIN:
        adj[:n1, :n1] = g.adjacency
        adj[n1:, n1:] = h.adjacency
    elif kind is ProductKind.CORONA:
        adj[:n1, :n1] = g.adjacency
        for i in range(n1):
            lo, hi = n1 + i * n2, n1 + (i + 1) * n2
            adj[lo:hi, lo:hi] = h.adjacency
            adj[i, lo:hi] = adj[lo:hi, i] = True
    else:
        for x, y in [(x, y) for c, x, y in KRONECKER_TERMS[kind] if c % 2]:
            adj ^= np.kron(_factor(g.adjacency, x), _factor(h.adjacency, y))
    return Graph(adj)


def product_degree_rows(kind: ProductKind, dg: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Degree sequences of the composites of operand pairs, one pair per
    row: dg is (rows, n1) and dh is (rows, n2), int64, and row i of the
    result is the composite of row i's operands, in apply_product's vertex
    labelling.  Every entry and intermediate value is below
    3 (n1 + 1)(n2 + 1), so int64 is exact.

    A Kronecker kind sums c * x * y over its KRONECKER_TERMS (c, X, Y),
    where x and y are the factors' row sums (dg or dh for A and B, 1 for
    I, n1 or n2 for J), so no adjacency is built; apply_product is the
    oracle it is tested against.
    """
    kind = ProductKind(kind)
    n1, n2 = dg.shape[1], dh.shape[1]
    if kind is ProductKind.JOIN:
        return np.concatenate([dg + n2, dh + n1], axis=1)
    if kind is ProductKind.CORONA:
        return np.concatenate([dg + n2, np.tile(dh + 1, (1, n1))], axis=1)
    # composite vertex (u, v) is u * n2 + v: row-major over (n1, n2)
    x_rows = {"A": dg[:, :, None], "I": 1, "J": n1}
    y_rows = {"B": dh[:, None, :], "I": 1, "J": n2}
    d = sum(c * x_rows[x] * y_rows[y] for c, x, y in KRONECKER_TERMS[kind])
    return d.reshape(len(d), n1 * n2)
