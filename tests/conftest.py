import io
import random
import tracemalloc
from typing import Sequence, Tuple

import numpy as np
import pytest

from totirr import Graph, ProductKind, graph_from_code, num_labeled_graphs
from totirr.formats import graph_from_bits
from totirr.products import product_degree_rows


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    """G(n, p): one rng.random() draw per vertex pair, in graph6 bit order."""
    return graph_from_bits(n, [rng.random() < p for _ in range(n * (n - 1) // 2)])


def stdin_of(text):
    """A stand-in for sys.stdin whose buffer holds the ASCII bytes of text."""
    return io.TextIOWrapper(io.BytesIO(text.encode("ascii")), encoding="ascii")


def traced_peak(run):
    """Peak bytes that tracemalloc (numpy's buffers included) sees while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def labeled_graphs(n: int) -> list:
    """Every labeled graph on n vertices, in code order."""
    return [graph_from_code(n, c) for c in range(num_labeled_graphs(n))]


def edges(g: Graph) -> list:
    """Unordered edges as (u, v) with u < v, in row-major order."""
    rows, cols = np.nonzero(np.triu(g.adjacency, 1))
    return list(zip(rows.tolist(), cols.tolist()))


def total_irregularity_naive(g: Graph) -> int:
    """Direct pairwise transcription of the definition; the O(n^2) oracle
    against which the sorted form is checked."""
    ds = g.degrees()
    n = g.n
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += abs(ds[i] - ds[j])
    return total


def zagreb_m1_edge_form(g: Graph) -> int:
    """First Zagreb index via the edge form sum over uv of d(u) + d(v);
    must agree with the vertex form on every graph."""
    deg = np.array(g.degrees(), dtype=np.int64)
    u, v = np.nonzero(np.triu(g.adjacency, 1))
    return int((deg[u] + deg[v]).sum())


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are relabeled by shifting up by g.n."""
    n = g.n + h.n
    adj = np.zeros((n, n), dtype=bool)
    adj[: g.n, : g.n] = g.adjacency
    adj[g.n :, g.n :] = h.adjacency
    return Graph(adj)


def product_degrees(
    kind: ProductKind, dg: Sequence[int], dh: Sequence[int]
) -> Tuple[int, ...]:
    """Degree sequence of the composite of operands with degree sequences
    dg and dh, as Python ints: product_degree_rows on one row."""
    row = product_degree_rows(kind, np.array([dg], dtype=np.int64), np.array([dh], dtype=np.int64))
    return tuple(row[0].tolist())


def paper_bound(kind: ProductKind, n1, m1, n2, m2, tg, th):
    """The paper's eight bounds on irr_t of the composite, as it states
    them, on scalars or rows: the reference for bounds._bound_formula,
    which derives six of them from products.KRONECKER_TERMS."""
    if kind is ProductKind.JOIN:
        return tg + th + n2 * (n1 - 1) * (n1 - 2)
    if kind is ProductKind.LEXICOGRAPHIC:
        return n2**3 * tg + n1**2 * th
    if kind is ProductKind.CARTESIAN:
        return n2**2 * tg + n1**2 * th
    if kind is ProductKind.STRONG:
        return n2 * (n2 + 2 * m2) * tg + n1 * (n1 + 2 * m1) * th
    if kind is ProductKind.DIRECT:
        return 2 * n2 * m2 * tg + 2 * n1 * m1 * th
    if kind is ProductKind.CORONA:
        return tg + n1**2 * th + n1**2 * (n2**2 + n1 * n2 - 4 * n2 + 2)
    if kind is ProductKind.DISJUNCTION:
        return n2 * (n2**2 + 2 * m2) * tg + n1 * (n1**2 + 2 * m1) * th
    if kind is ProductKind.SYMDIFF:
        return n2 * (n2**2 + 4 * m2) * tg + n1 * (n1**2 + 4 * m1) * th
    raise ValueError(f"unknown product kind {kind!r}")


@pytest.fixture
def rng():
    return random.Random(20240817)
