"""Degree-based irregularity indices.

Integer-valued indices (total irregularity, Albertson irregularity, both
Zagreb indices) are exact in integers, and none builds a list of edges.

- Albertson irregularity: rank the vertices by a stable argsort of the
  degrees and let L_u count u's neighbours of lower rank.  Each edge then
  counts once as +d at its higher-ranked end and once as -d at the other,
  and tied degrees cancel, so irr = sum_u d_u (L_u - (d_u - L_u))
  = 2 d.L - d.d in int64, with L counted over row tiles of
  graph.SYMMETRY_TILE rows.
- Second Zagreb index: d^T (A d) / 2, with A d one int64 einsum over the
  boolean adjacency, which numpy casts in small buffers, so no copy of A
  is made; each entry of A d is below n^2.

Every int64 sum above is below n^4 (d^T A d is at most n (n - 1)^3),
which int64 holds for n < 55 000, far above the graph6 cap of 4096
vertices.  Degree variance (one division of exact ints, so correctly
rounded) and the Collatz-Sinogowitz index are the only floats.  The
largest eigenvalue behind the latter is certified by a Collatz-Wielandt
bracket on a power iteration, O(n^2) per step, and comes from the O(n^3)
dense eigensolver only when the bracket does not close (see
spectral_radius), whose float64 copy of A is the only one in the package.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .graph import SYMMETRY_TILE, Graph

# power-iteration steps (two matvecs each) before spectral_radius falls
# back to the eigensolver
PERRON_STEPS = 32


def total_irregularity(degrees: Sequence[int]) -> int:
    """Half the sum of |d(u) - d(v)| over all ordered vertex pairs:
    total_irregularity_rows on one row, as a Python int."""
    return int(total_irregularity_rows(np.array([degrees], dtype=np.int64))[0])


def total_irregularity_rows(degrees: np.ndarray) -> np.ndarray:
    """Total irregularity of each row of a (rows, n) int64 degree matrix:
    the ascending sort weighted by 2i - n - 1, i = 1..n, O(n log n) per
    row.  A row of width 0 gives 0.

    Exact: with degrees below n every term is below n^2, so a sum of
    2^62 / n^2 terms stays in int64.  Rows longer than that (n^3 > 2^62,
    composites of more than 1.6M vertices) are summed in chunks of that
    many terms, as Python ints (an object array).
    """
    n = degrees.shape[1]
    coeffs = 2 * np.arange(1, n + 1, dtype=np.int64) - n - 1
    ds = np.sort(degrees, axis=1)
    step = 2**62 // max(n, 1) ** 2
    if step >= n:
        return ds @ coeffs
    return sum((ds[:, lo : lo + step] @ coeffs[lo : lo + step]).astype(object) for lo in range(0, n, step))


def irregularity(g: Graph) -> int:
    """Albertson irregularity (third Zagreb index): sum of edge imbalances
    |d(u) - d(v)| over edges.

    Computed as 2 d.L - d.d in int64, where L_u counts u's neighbours
    that come before u in a stable argsort of the degrees, over row tiles:
    an edge's later end has the larger or an equal degree, so the edge
    adds d_later - d_earlier.
    """
    n = g.n
    deg = np.array(g.degrees(), dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    lower = np.empty(n, dtype=np.int64)
    t = SYMMETRY_TILE
    for lo in range(0, n, t):
        tile = slice(lo, lo + t)
        lower[tile] = (g.adjacency[tile] & (rank[None, :] < rank[tile, None])).sum(axis=1)
    return int(2 * deg @ lower - deg @ deg)


def zagreb_m1(g: Graph) -> int:
    """First Zagreb index: sum of squared degrees."""
    return sum(d * d for d in g.degrees())


def zagreb_m2(g: Graph) -> int:
    """Second Zagreb index: sum of d(u)*d(v) over edges, as d^T (A d) / 2
    (each edge counted from both ends), in int64 throughout."""
    deg = np.array(g.degrees(), dtype=np.int64)
    return int(deg @ np.einsum("ij,j->i", g.adjacency, deg)) // 2


def degree_variance(g: Graph) -> float:
    """Variance of the degree multiset about the average degree 2m/n,
    isolated vertices included: M1/n - (2m/n)^2 = (n M1 - (2m)^2) / n^2,
    whose one true division of exact ints is correctly rounded."""
    return (g.n * zagreb_m1(g) - (2 * g.m) ** 2) / g.n**2


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
