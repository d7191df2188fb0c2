"""Degree-based irregularity indices.

Integer-valued indices (total irregularity, Albertson irregularity, both
Zagreb indices) are computed exactly in Python integers.  Degree variance
and the Collatz-Sinogowitz index are the only floating-point quantities.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, InputError
from .graph import Graph


def total_irregularity(degrees: Sequence[int]) -> int:
    """Half the sum of |d(u) - d(v)| over all ordered vertex pairs.

    Uses the sorted form: with d_(1) >= ... >= d_(n),
    sum_i (n - 2i + 1) * d_(i).  O(n log n) and exact.
    """
    ds = sorted(degrees, reverse=True)
    n = len(ds)
    return sum((n - 2 * i - 1) * d for i, d in enumerate(ds))


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


def irregularity(g: Graph) -> int:
    """Albertson irregularity (third Zagreb index): sum of edge imbalances
    |d(u) - d(v)| over edges."""
    ds = g.degrees()
    return sum(abs(ds[u] - ds[v]) for u, v in g.edges())


def zagreb_m1(g: Graph) -> int:
    """First Zagreb index: sum of squared degrees."""
    return sum(d * d for d in g.degrees())


def zagreb_m1_edge_form(g: Graph) -> int:
    """First Zagreb index via the edge form sum over uv of d(u) + d(v);
    must agree with the vertex form on every graph."""
    ds = g.degrees()
    return sum(ds[u] + ds[v] for u, v in g.edges())


def zagreb_m2(g: Graph) -> int:
    """Second Zagreb index: sum of d(u)*d(v) over edges."""
    ds = g.degrees()
    return sum(ds[u] * ds[v] for u, v in g.edges())


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


def spectral_radius(
    g: Graph, tol: float = 1e-10, max_iter: int = 10**6
) -> float:
    """Largest adjacency eigenvalue by power iteration.

    Deterministic all-ones start vector; iterates (A + I) so that the
    leading eigenvalue strictly dominates in modulus even on bipartite
    graphs, whose spectrum is symmetric and would otherwise stall the
    Rayleigh quotient off the true value.  Stops when successive Rayleigh
    quotients differ by less than tol.
    """
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    if g.m == 0:
        return 0.0
    a = g.adjacency.astype(float)
    n = g.n
    v = np.ones(n)
    v /= np.linalg.norm(v)
    rayleigh = float(v @ (a @ v))
    delta = np.inf
    for _ in range(max_iter):
        w = a @ v + v
        # v >= 0 with unit norm, so |(A + I)v| >= |v| = 1: never zero
        v = w / np.linalg.norm(w)
        new_rayleigh = float(v @ (a @ v))
        delta = abs(new_rayleigh - rayleigh)
        rayleigh = new_rayleigh
        if delta < tol:
            return rayleigh
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations", delta
    )


def collatz_sinogowitz(g: Graph, tol: float = 1e-10) -> float:
    """Collatz-Sinogowitz index: lambda_1 - 2m/n, clamped at 0 to absorb
    rounding; exactly 0 for edgeless graphs."""
    if g.m == 0:
        return 0.0
    lam = spectral_radius(g, tol=tol)
    return max(lam - 2 * g.m / g.n, 0.0)


def graph_total_irregularity(g: Graph) -> int:
    """Convenience wrapper: total irregularity of a graph's degree sequence."""
    return total_irregularity(g.degrees())
