import random

import numpy as np
import pytest

from totirr import Graph, graph_from_code, num_labeled_graphs
from totirr.formats import graph_from_bits


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    """G(n, p): one rng.random() draw per vertex pair, in graph6 bit order."""
    return graph_from_bits(n, [rng.random() < p for _ in range(n * (n - 1) // 2)])


def labeled_graphs(n: int) -> list:
    """Every labeled graph on n vertices, in code order."""
    return [graph_from_code(n, c) for c in range(num_labeled_graphs(n))]


def edges(g: Graph) -> list:
    """Unordered edges as (u, v) with u < v, in row-major order."""
    rows, cols = np.nonzero(np.triu(g.adjacency, 1))
    return list(zip(rows.tolist(), cols.tolist()))


@pytest.fixture
def rng():
    return random.Random(20240817)
