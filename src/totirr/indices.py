"""Degree-based irregularity indices.

Integer-valued indices (total irregularity, Albertson irregularity, both
Zagreb indices) are exact.  The edge indices are int64 gathers over the
upper-triangle endpoints, and the second Zagreb index is d^T (A d) / 2 in
int64: every sum is below n^4/2, which int64 holds for n < 65 536, far
above the graph6 cap of 4096 vertices.  Degree variance and the
Collatz-Sinogowitz index are the only floating-point quantities.  The
largest eigenvalue behind the latter is certified by a Collatz-Wielandt
bracket on a power iteration, O(n^2) per step, and comes from the O(n^3)
dense eigensolver only when the bracket does not close (see
spectral_radius).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence, Tuple

import numpy as np

from .graph import Graph

# power-iteration steps (two matvecs each) before spectral_radius falls
# back to the eigensolver
PERRON_STEPS = 32


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
    """Second Zagreb index: sum of d(u)*d(v) over edges, as d^T (A d) / 2
    in int64 (each edge counted from both ends)."""
    deg = np.array(g.degrees(), dtype=np.int64)
    return int(deg @ (g.adjacency @ deg)) // 2


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
    """Largest adjacency eigenvalue lambda_1, certified by power iteration
    when it can be, else from the dense symmetric eigensolver.

    The iteration runs on A^2 + I from the all-ones vector, so x stays
    strictly positive (isolated vertices included) and bipartite graphs,
    whose -lambda_1 makes plain power iteration on A oscillate, converge.
    For a nonnegative matrix and any positive x the Collatz-Wielandt bound
    min_i (A^2 x)_i / x_i <= lambda_1^2 <= max_i (A^2 x)_i / x_i holds; once
    that bracket [lo, hi] satisfies hi - lo <= n * eps * hi, the result is
    sqrt(|Ax|^2 / |x|^2), a weighted mean of the ratios and so inside the
    bracket.  Each step is two dense matvecs, O(n^2); a G(4096, 1/2) is
    certified in 5 steps, K_{a,b}, stars and regular graphs in 1.  When
    PERRON_STEPS steps leave the bracket open (long paths and trees, whose
    second-largest |eigenvalue| is close to lambda_1, and graphs whose
    components differ in lambda_1, an isolated vertex included) the answer
    is eigvalsh's, O(n^3) and accurate to rounding; the failed steps add
    about 10% to it at n = 4096.  Edgeless graphs, n = 1 included, give
    exactly 0.0.
    """
    a = g.adjacency.astype(float)
    x = np.ones(g.n)
    tol = g.n * np.finfo(float).eps
    for _ in range(PERRON_STEPS):
        ax = a @ x
        a2x = a @ ax
        ratios = a2x / x
        lo, hi = ratios.min(), ratios.max()
        if hi - lo <= tol * hi:
            return math.sqrt((ax @ ax) / (x @ x))
        # every entry of x stays above ((n - 1)^2 + 1)^-PERRON_STEPS, a
        # normal float for n < 60 000, so the ratios never divide by 0
        x = a2x + x
        x /= x.max()
    return float(np.linalg.eigvalsh(a)[-1])


def collatz_sinogowitz(g: Graph) -> float:
    """Collatz-Sinogowitz index: lambda_1 - 2m/n, clamped at 0 to absorb
    rounding; exactly 0 for edgeless graphs.

    lambda_1 comes from spectral_radius, to within an ulp or so; the
    subtraction then magnifies its relative error by lambda_1 / cs, so cs
    loses log10(lambda_1 / cs) of float64's digits to cancellation (about
    3.6 digits on a G(4096, 1/2), where cs is near 0.5).
    """
    if g.m == 0:
        return 0.0
    return max(spectral_radius(g) - 2 * g.m / g.n, 0.0)


def graph_total_irregularity(g: Graph) -> int:
    """Convenience wrapper: total irregularity of a graph's degree sequence."""
    return total_irregularity(g.degrees())
