"""Closed-form upper bounds on the total irregularity of composed graphs,
plus the parity-dispatched global maximum for a single graph.

Each bound depends only on (n, m, irr_t) of the operands, and each
composite's degree sequence follows from the operands' degrees
(products.product_degree_rows), so a BoundReport compares the formula
against the composite's exact total irregularity without building its
adjacency.  BoundScan runs that check over operand pairs held as rows:
two Operands pools (degree matrices) and one index array into each.
Every hypothesis is read from the pools' vertex and edge counts, so a
pool operand becomes a Graph only for a witness or a falsification.  A
negative slack on a hypothesis-satisfying pair would falsify a published
theorem and raises FalsificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import FalsificationError, InputError
from .formats import emit_graph6
from .indices import total_irregularity_rows

# apply_product and is_connected are not called here; perfbench/tracing.py
# wraps the names totirr.bounds.apply_product and totirr.bounds.is_connected,
# so they stay importable from this module
from .graph import Graph, is_connected  # noqa: F401
from .products import ProductKind, apply_product, product_degree_rows  # noqa: F401

# The bound formulas are exact in int64 for operands with n1 * n2 <= 4096,
# that is (n1 n2)^3 <= 6.9e10: every term, like the composite's irr_t, is
# then below 2^40 (corona's n1 (n2 + 1) vertices included), so it is also
# exact as a float64.  Larger pairs evaluate them in Python ints.
INT64_MAX_PAIR = 4096
# array cells per batch of pair rows
_BATCH_CELLS = 1 << 14


class Operands:
    """A pool of operands on n vertices held as rows: the (size, n) degree
    matrix and each operand's edge count and total irregularity.
    `graph(i)` decodes operand i; only witnesses and falsifications do.
    """

    def __init__(self, degrees: np.ndarray, graph: Callable[[int], Graph]):
        self.n = degrees.shape[1]
        self.degrees = degrees
        self.m = degrees.sum(axis=1) // 2
        self.irr_t = total_irregularity_rows(degrees)
        self._graph = graph

    @classmethod
    def of_graphs(cls, graphs: Sequence[Graph]) -> Operands:
        graphs = list(graphs)
        degrees = np.array([g.degrees() for g in graphs], dtype=np.int64)
        return cls(degrees, graphs.__getitem__)

    def __len__(self) -> int:
        return len(self.degrees)

    def graph(self, i) -> Graph:
        return self._graph(int(i))


def bound_theorem1(n: int) -> int:
    """Maximum possible total irregularity over all graphs on n vertices:
    (2n^3 - 3n^2 - 2n)/12 for even n, (2n^3 - 3n^2 - 2n + 3)/12 for odd n."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    num = 2 * n**3 - 3 * n**2 - 2 * n
    if n % 2 == 1:
        num += 3
    assert num % 12 == 0, f"bound numerator {num} not divisible by 12 at n={n}"
    return num // 12


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound evaluation against the actual composite value."""

    kind: ProductKind
    n1: int
    m1: int
    n2: int
    m2: int
    irr_t_g: int
    irr_t_h: int
    actual: int
    bound: int
    hypothesis_ok: bool

    @property
    def slack(self) -> int:
        return self.bound - self.actual

    @property
    def tight(self) -> bool:
        return self.slack == 0


def _bound_formula(kind: ProductKind, n1, m1, n2, m2, tg, th) -> int:
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
    raise InputError(f"unknown product kind {kind!r}")


def _hypothesis_ok(
    kind: ProductKind, g: Operands, a: np.ndarray, h: Operands, b: np.ndarray
) -> np.ndarray:
    """Row mask: whether the theorem's hypotheses hold for each pair
    (g[a[i]], h[b[i]]), read from n and the m rows alone.

    The paper states join and corona for connected operands with
    n1 >= n2, but their proofs use only a minimal degree sum,
    sum d >= 2(n - 1), that is m >= n - 1.  So join needs n1 >= n2,
    m1 >= n1 - 1 and m2 >= n2 - 1 (the formula is not symmetric, and a
    pair with n1 < n2 is not swapped), and corona needs m2 >= n2 - 1 at
    any sizes.  Each condition is needed: some pair failing only it
    exceeds the formula.

    Corona, exactly: irr_t(G o H) = tg + n1^2 th
    + n1 (2 n2 m1 + n1 n2 (n2 - 1) - 2 n1 m2), as every vertex of G
    outranks every vertex of a copy of H.  So the slack is
    n1 (2 n2 mbar1 + 2 n1 (m2 - n2 + 1)), mbar1 = C(n1, 2) - m1:
    nonnegative when m2 >= n2 - 1, zero iff G is complete and
    m2 = n2 - 1, and negative for complete G when m2 < n2 - 1.

    Join: with complement degrees xbar = n1 - 1 - d_g and
    ybar = n2 - 1 - d_h, the cross term beyond tg + th is
    sum_u sum_v |xbar_u - ybar_v|.  It is convex, so its maximum over the
    box 0 <= xbar <= n1 - 1, 0 <= ybar <= n2 - 1 with
    sum xbar <= (n1 - 1)(n1 - 2) and sum ybar <= (n2 - 1)(n2 - 2) (that
    is, m >= n - 1) lies at a vertex: k entries of xbar at n1 - 1 and
    l of ybar at n2 - 1, the rest 0, k <= n1 - 2, l <= n2 - 2.  There it
    is bilinear in (k, l), and with n1 >= n2 its corners give at most
    n2 (n1 - 1)(n1 - 2), the paper's term, except that (n1 - 2, n2 - 2)
    exceeds it by (n2 - 2)(n2 - 1)(4 - n1) when n1 < 4.  The one such
    case, n1 = n2 = 3, is checked by enumeration.
    """
    if kind is ProductKind.JOIN:
        return (g.n >= h.n) & (g.m[a] >= g.n - 1) & (h.m[b] >= h.n - 1)
    if kind is ProductKind.CORONA:
        return h.m[b] >= h.n - 1
    return np.ones(len(a), dtype=bool)


def _batch_rows(n1: int, n2: int) -> int:
    """Pair rows per batch of operands on n1 and n2 vertices: about
    _BATCH_CELLS cells, as no array of one row (operand adjacencies,
    composite degrees) has more than (n1 + n2)^2.  The one rule that
    sizes every batch, `BoundScan.check_all`'s and the probe's samples'."""
    return max(1, _BATCH_CELLS // (n1 + n2) ** 2)


def pair_batches(pairs: int, n1: int, n2: int) -> Iterator[range]:
    """Rows 0 .. pairs - 1, in order, as consecutive ranges of at most
    _batch_rows(n1, n2) rows."""
    step = _batch_rows(n1, n2)
    for lo in range(0, pairs, step):
        yield range(lo, min(lo + step, pairs))


@dataclass
class BoundScan:
    """One kind's bound checked over operand pairs, in row order.

    `check` evaluates a batch of pairs, and `check_all` every pair of two
    pools in batches of at most `_batch_rows` rows, so a scan's working
    memory is one batch's, whatever the pools' sizes.  Pairs whose
    hypotheses hold are counted in `checked` and enter the extrema: the
    minimum slack, and the maximum actual/bound ratio over positive
    bounds.  Each extremum keeps the position of the first pair attaining
    it, its two pools and row indices, so a scan in pair-index order
    keeps the lowest index on ties, however its rows are batched.
    `slack_pair` and `ratio_pair` decode that pair when read.
    """

    kind: ProductKind
    checked: int = 0
    min_slack: Optional[int] = None
    max_ratio: Optional[Fraction] = None
    _slack_at: Optional[Tuple[Operands, int, Operands, int]] = None
    _ratio_at: Optional[Tuple[Operands, int, Operands, int]] = None

    @property
    def slack_pair(self) -> Optional[Tuple[Graph, Graph]]:
        return _decode(self._slack_at)

    @property
    def ratio_pair(self) -> Optional[Tuple[Graph, Graph]]:
        return _decode(self._ratio_at)

    def check(
        self, g: Operands, a: np.ndarray, h: Operands, b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compare the bound on each pair (g[a[i]], h[b[i]]) against the
        composite's exact total irregularity; returns the rows' actual
        values, bounds and hypothesis mask.

        Raises FalsificationError, naming both operands of the first such
        row, when the bound is violated on a pair whose hypotheses hold.
        """
        kind = self.kind
        actual = total_irregularity_rows(product_degree_rows(kind, g.degrees[a], h.degrees[b]))
        terms = [g.m[a], h.m[b], g.irr_t[a], h.irr_t[b]]
        if g.n * h.n > INT64_MAX_PAIR:
            terms = [t.astype(object) for t in terms]
        m1, m2, tg, th = terms
        bound = _bound_formula(kind, g.n, m1, h.n, m2, tg, th)
        ok = _hypothesis_ok(kind, g, a, h, b)
        slack = bound - actual
        bad = np.flatnonzero(ok & (slack < 0))
        if bad.size:
            i = bad[0]
            x, y = g.graph(a[i]), h.graph(b[i])
            raise FalsificationError(
                f"{kind.value} bound violated: actual={int(actual[i])} > bound={int(bound[i])} "
                f"on g={emit_graph6(x)} (n1={x.n}, m1={x.m}), "
                f"h={emit_graph6(y)} (n2={y.n}, m2={y.m})"
            )
        rows = np.flatnonzero(ok)
        if rows.size == 0:
            return actual, bound, ok
        self.checked += rows.size
        i = rows[np.argmin(slack[rows])]
        if self.min_slack is None or slack[i] < self.min_slack:
            self.min_slack, self._slack_at = int(slack[i]), (g, a[i], h, b[i])
        rows = rows[bound[rows] > 0]
        if rows.size:
            top = rows
            if bound.dtype != object:
                # float64 holds these ints exactly and rounds the quotients
                # monotonically, so the exact maximum is among the float maxima
                approx = actual[rows].astype(float) / bound[rows].astype(float)
                top = rows[approx == approx.max()]
            exact = [Fraction(int(actual[r]), int(bound[r])) for r in top]
            ratio = max(exact)
            if self.max_ratio is None or ratio > self.max_ratio:
                j = top[exact.index(ratio)]
                self.max_ratio, self._ratio_at = ratio, (g, a[j], h, b[j])
        return actual, bound, ok

    def check_all(self, g: Operands, h: Operands) -> None:
        """`check` every pair (g[i], h[j]) as row i * len(h) + j, in
        pair-index order, one call per batch of `pair_batches` rows.
        Each call keeps its first row attaining an extremum and replaces a
        stored one only when strictly better, so ties keep the lowest
        index and the records are those of one call over all pairs."""
        for rows in pair_batches(len(g) * len(h), g.n, h.n):
            a, b = np.divmod(np.arange(rows.start, rows.stop), len(h))
            self.check(g, a, h, b)


def _decode(at: Optional[Tuple[Operands, int, Operands, int]]) -> Optional[Tuple[Graph, Graph]]:
    if at is None:
        return None
    g, i, h, j = at
    return g.graph(i), h.graph(j)


def evaluate_bound(kind: ProductKind, g: Graph, h: Graph) -> BoundReport:
    """Evaluate the theorem bound for `kind` on (g, h) and compare it
    against the composite's exact total irregularity.

    The formula is always evaluated; hypothesis_ok records whether the
    theorem's hypotheses hold (see _hypothesis_ok).  A violated bound
    under a satisfied hypothesis raises FalsificationError.
    """
    kind = ProductKind(kind)
    pg, ph = Operands.of_graphs([g]), Operands.of_graphs([h])
    first = np.zeros(1, dtype=np.intp)
    actual, bound, ok = BoundScan(kind).check(pg, first, ph, first)
    return BoundReport(
        kind=kind,
        n1=g.n,
        m1=g.m,
        n2=h.n,
        m2=h.m,
        irr_t_g=int(pg.irr_t[0]),
        irr_t_h=int(ph.irr_t[0]),
        actual=int(actual[0]),
        bound=int(bound[0]),
        hypothesis_ok=bool(ok[0]),
    )
