import random

import pytest

from totirr import Graph
from totirr.formats import graph_from_bits


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    """G(n, p): one rng.random() draw per vertex pair, in graph6 bit order."""
    return graph_from_bits(n, [rng.random() < p for _ in range(n * (n - 1) // 2)])


@pytest.fixture
def rng():
    return random.Random(20240817)
