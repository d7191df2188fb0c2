"""Generators for the named graph families.

Includes the two-layer construction attaining the global maximum of the
total irregularity on n vertices (matching vs. apex variant by parity).
"""

from __future__ import annotations

import bisect
import random
from typing import Sequence

import numpy as np

from .errors import InputError, integer
from .graph import Graph, from_edge_list, mirror_lower


def gen_empty(n: int) -> Graph:
    n = integer(n, "n", 1)
    return Graph(np.zeros((n, n), dtype=bool))


def gen_complete(n: int) -> Graph:
    n = integer(n, "n", 1)
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return Graph(adj)


def gen_path(l: int) -> Graph:
    """Path on l vertices; gen_path(1) is the single vertex."""
    l = integer(l, "l", 1)
    return from_edge_list(l, [(i, i + 1) for i in range(l - 1)])


def gen_cycle(k: int) -> Graph:
    k = integer(k, "k", 3)
    return from_edge_list(k, [(i, (i + 1) % k) for i in range(k)])


def gen_star(n: int) -> Graph:
    """Star on n vertices: vertex 0 adjacent to all others."""
    n = integer(n, "n", 1)
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def gen_complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph; vertices in distinct parts are adjacent.

    A vertex in a part of size p has degree n - p.
    """
    sizes = [integer(p, f"parts[{i}]", 1) for i, p in enumerate(parts)]
    if not sizes:
        raise InputError("at least one part is required")
    labels = np.repeat(np.arange(len(sizes)), sizes)
    adj = labels[:, None] != labels[None, :]
    return Graph(adj)


def gen_extremal_total_irr(n: int) -> Graph:
    """Graph attaining the maximum total irregularity on n vertices.

    Even n = 2p: top vertices t_1..t_p form a clique, t_i ~ b_j for i < j,
    plus the perfect matching t_i ~ b_i.  Odd n = 2p + 1: same skeleton
    without the matching, plus an apex adjacent to every top vertex.
    Labels: t_i -> i - 1, b_i -> p + i - 1, apex -> 2p.
    """
    n = integer(n, "n", 2)
    p = n // 2
    adj = np.zeros((n, n), dtype=bool)
    adj[:p, :p] = np.tri(p, k=-1, dtype=bool)  # clique on the top layer
    # b_j ~ t_i for i < j; the diagonal is the matching, kept for even n
    adj[p : 2 * p, :p] = np.tri(p, k=-(n % 2), dtype=bool)
    adj[2 * p :, :p] = True  # the apex row; empty for even n
    return Graph(mirror_lower(adj))


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniformly random labeled tree on n vertices, deterministic per seed.

    Decodes a random Pruefer sequence, empty at n = 2; n = 1 is the unique tree.
    """
    n, seed = integer(n, "n", 1), integer(seed, "seed")
    if n == 1:
        return gen_empty(1)
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_pruefer(n, seq)


def tree_from_pruefer(n: int, seq: Sequence[int]) -> Graph:
    """Standard Pruefer decoding: repeatedly join the smallest leaf, once
    every entry is checked to be an integer in [0, n)."""
    n = integer(n, "n", 2)
    if len(seq) != n - 2:
        raise InputError(f"Pruefer sequence for n={n} must have length {n - 2}")
    count = [0] * n
    entries = [integer(v, f"seq[{i}]", 0, n - 1) for i, v in enumerate(seq)]
    for v in entries:
        count[v] += 1
    edges = []
    leaves = sorted(i for i in range(n) if count[i] == 0)
    for v in entries:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        count[v] -= 1
        if count[v] == 0:
            # keep the leaf pool sorted so decoding is canonical
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return from_edge_list(n, edges)
