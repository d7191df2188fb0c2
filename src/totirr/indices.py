"""Degree-based irregularity indices.

Integer-valued indices (total irregularity, Albertson irregularity, both
Zagreb indices) are exact.  The edge indices are int64 gathers over the
upper-triangle endpoints: every sum is below n^4/2, which int64 holds for
n < 65 536, far above the graph6 cap of 4096 vertices.  Degree variance
and the Collatz-Sinogowitz index are the only floating-point quantities.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence, Tuple

import numpy as np

from .graph import Graph


def total_irregularity(degrees: Sequence[int]) -> int:
    """Half the sum of |d(u) - d(v)| over all ordered vertex pairs.

    Uses the sorted form: with d_(1) >= ... >= d_(n),
    sum_i (n - 2i + 1) * d_(i).  O(n log n) and exact.
    """
    ds = sorted(degrees, reverse=True)
    n = len(ds)
    return sum((n - 2 * i - 1) * d for i, d in enumerate(ds))


def total_irregularity_rows(degrees: np.ndarray) -> np.ndarray:
    """total_irregularity of each row of a (rows, n) int64 degree matrix:
    the ascending sort weighted by 2i - n - 1, i = 1..n.

    Exact: with degrees below n every term is below n^2, so a sum of
    2^62 / n^2 terms stays in int64.  Rows longer than that (n^3 > 2^62,
    composites of more than 1.6M vertices) are summed in chunks of that
    many terms, as Python ints (an object array).
    """
    n = degrees.shape[1]
    coeffs = 2 * np.arange(1, n + 1, dtype=np.int64) - n - 1
    ds = np.sort(degrees, axis=1)
    step = 2**62 // n**2
    if step >= n:
        return ds @ coeffs
    return sum((ds[:, lo : lo + step] @ coeffs[lo : lo + step]).astype(object) for lo in range(0, n, step))


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


def _degrees_and_edges(g: Graph) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """The int64 degree vector and the endpoint arrays (u, v), u < v, of
    every edge."""
    return np.array(g.degrees(), dtype=np.int64), np.nonzero(np.triu(g.adjacency, 1))


def irregularity(g: Graph) -> int:
    """Albertson irregularity (third Zagreb index): sum of edge imbalances
    |d(u) - d(v)| over edges."""
    deg, (u, v) = _degrees_and_edges(g)
    return int(np.abs(deg[u] - deg[v]).sum())


def zagreb_m1(g: Graph) -> int:
    """First Zagreb index: sum of squared degrees."""
    return sum(d * d for d in g.degrees())


def zagreb_m1_edge_form(g: Graph) -> int:
    """First Zagreb index via the edge form sum over uv of d(u) + d(v);
    must agree with the vertex form on every graph."""
    deg, (u, v) = _degrees_and_edges(g)
    return int((deg[u] + deg[v]).sum())


def zagreb_m2(g: Graph) -> int:
    """Second Zagreb index: sum of d(u)*d(v) over edges."""
    deg, (u, v) = _degrees_and_edges(g)
    return int((deg[u] * deg[v]).sum())


def degree_variance(g: Graph) -> float:
    """Variance of the degree multiset about the average degree 2m/n.

    Evaluated from the degree-frequency counts n_i; the count for degree 0
    is included so the identity Var = M1/n - (2m/n)^2 holds on every graph,
    isolated vertices included.
    """
    n = g.n
    avg = 2 * g.m / n
    counts = Counter(g.degrees())
    return sum(cnt * (d - avg) ** 2 for d, cnt in counts.items()) / n


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue, from the dense symmetric eigensolver:
    O(n^3), accurate to rounding."""
    return float(np.linalg.eigvalsh(g.adjacency.astype(float))[-1])


def collatz_sinogowitz(g: Graph) -> float:
    """Collatz-Sinogowitz index: lambda_1 - 2m/n, clamped at 0 to absorb
    rounding; exactly 0 for edgeless graphs."""
    if g.m == 0:
        return 0.0
    return max(spectral_radius(g) - 2 * g.m / g.n, 0.0)


def graph_total_irregularity(g: Graph) -> int:
    """Convenience wrapper: total irregularity of a graph's degree sequence."""
    return total_irregularity(g.degrees())
