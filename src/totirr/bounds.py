"""Closed-form upper bounds on the total irregularity of composed graphs,
plus the parity-dispatched global maximum for a single graph.

Each bound depends only on (n, m, irr_t) of the operands, and each
composite's degree sequence follows from the operands' degrees
(products.product_degrees), so a BoundReport compares the formula against
the composite's exact total irregularity without building its adjacency.
BoundScan runs that check over a sequence of operand pairs.  A negative
slack on a hypothesis-satisfying pair would falsify a published theorem
and raises FalsificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import FalsificationError, InputError
from .formats import emit_graph6
from .graph import Graph, is_connected
from .indices import graph_total_irregularity, total_irregularity

# apply_product is not called here; perfbench/tracing.py wraps the name
# totirr.bounds.apply_product, so it stays importable from this module
from .products import ProductKind, apply_product, product_degrees  # noqa: F401


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


def _hypothesis_ok(kind: ProductKind, g: Graph, h: Graph) -> bool:
    """Whether the theorem's (partly implicit) hypotheses hold for (g, h).

    Join and corona carry the size ordering n1 >= n2.  Their proofs also
    take 'minimal degree sum' to mean a tree, which presumes the relevant
    operand is connected: join needs both operands connected, corona needs
    h connected.  Without connectivity the formulas are genuinely violated
    (e.g. the join of two edgeless graphs), so these are theorem
    hypotheses, not artifacts of this implementation.
    """
    if kind is ProductKind.JOIN:
        return g.n >= h.n and is_connected(g) and is_connected(h)
    if kind is ProductKind.CORONA:
        return g.n >= h.n and is_connected(h)
    return True


@dataclass
class BoundScan:
    """One kind's bound checked over a sequence of operand pairs.

    `check` evaluates one pair.  Pairs whose hypotheses hold are counted
    in `checked` and enter the extrema: the minimum slack, and the maximum
    actual/bound ratio over positive bounds.  Each extremum keeps the
    first pair attaining it, so a scan in pair-index order keeps the
    lowest index on ties.
    """

    kind: ProductKind
    checked: int = 0
    min_slack: Optional[int] = None
    slack_pair: Optional[Tuple[Graph, Graph]] = None
    max_ratio: Optional[Fraction] = None
    ratio_pair: Optional[Tuple[Graph, Graph]] = None

    def check(self, g: Graph, tg: int, h: Graph, th: int) -> BoundReport:
        """Compare the bound on (g, h), whose total irregularities are tg
        and th, against the composite's exact total irregularity.

        Raises FalsificationError, naming both operands, when the bound
        is violated on a pair whose hypotheses hold.
        """
        kind = self.kind
        actual = total_irregularity(product_degrees(kind, g.degrees(), h.degrees()))
        bound = _bound_formula(kind, g.n, g.m, h.n, h.m, tg, th)
        report = BoundReport(
            kind=kind,
            n1=g.n,
            m1=g.m,
            n2=h.n,
            m2=h.m,
            irr_t_g=tg,
            irr_t_h=th,
            actual=actual,
            bound=bound,
            hypothesis_ok=_hypothesis_ok(kind, g, h),
        )
        if not report.hypothesis_ok:
            return report
        if report.slack < 0:
            raise FalsificationError(
                f"{kind.value} bound violated: actual={actual} > bound={bound} "
                f"on g={emit_graph6(g)} (n1={g.n}, m1={g.m}), "
                f"h={emit_graph6(h)} (n2={h.n}, m2={h.m})"
            )
        self.checked += 1
        pair = (g, h)
        self._keep(report.slack, pair, Fraction(actual, bound) if bound > 0 else None, pair)
        return report

    def merge(self, later: BoundScan) -> None:
        """Fold in the scan of the pairs that come after this scan's."""
        self.checked += later.checked
        self._keep(later.min_slack, later.slack_pair, later.max_ratio, later.ratio_pair)

    def _keep(self, slack, slack_pair, ratio, ratio_pair) -> None:
        if slack is not None and (self.min_slack is None or slack < self.min_slack):
            self.min_slack, self.slack_pair = slack, slack_pair
        if ratio is not None and (self.max_ratio is None or ratio > self.max_ratio):
            self.max_ratio, self.ratio_pair = ratio, ratio_pair


def evaluate_bound(kind: ProductKind, g: Graph, h: Graph) -> BoundReport:
    """Evaluate the theorem bound for `kind` on (g, h) and compare it
    against the composite's exact total irregularity.

    The formula is always evaluated; hypothesis_ok records whether the
    theorem's hypotheses hold (see _hypothesis_ok).  A violated bound
    under a satisfied hypothesis raises FalsificationError.
    """
    scan = BoundScan(ProductKind(kind))
    return scan.check(g, graph_total_irregularity(g), h, graph_total_irregularity(h))
