import functools
import itertools
import random
import types
from fractions import Fraction

import numpy as np
import pytest

from totirr import (
    FalsificationError,
    InputError,
    ProductKind,
    apply_product,
    bound_theorem1,
    bounds,
    emit_graph6,
    evaluate_bound,
    gen_complete,
    gen_cycle,
    gen_empty,
    gen_extremal_total_irr,
    gen_path,
    gen_random_tree,
    gen_star,
    graph_total_irregularity,
    probe_open_problem,
    sweep_operation_bounds,
    total_irregularity,
)
from totirr.bounds import (
    INT64_MAX_PAIR,
    BoundScan,
    Operands,
    _batch_rows,
    _bound_formula,
    _hypothesis_ok,
)
from totirr.formats import graph_from_bits
from totirr.indices import total_irregularity_rows
from totirr.products import KRONECKER_TERMS, product_degree_rows
from totirr.search import _deterministic_battery, _labeled_operands

from conftest import disjoint_union, labeled_graphs, paper_bound, random_graph, traced_peak

K1 = gen_empty(1)


class TestTheorem1Formula:
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 0), (4, 6), (5, 14), (7, 44)])
    def test_values(self, n, expected):
        assert bound_theorem1(n) == expected

    def test_numpy_integer_stays_exact(self):
        # np.int64 arithmetic wrapped to a negative bound here
        assert bound_theorem1(np.int64(3_000_000)) == bound_theorem1(3_000_000) == 4499997749999500000

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_non_integer_rejected(self, n):
        with pytest.raises(InputError, match=f"^n must be an integer >= 1, got {n!r}$"):
            bound_theorem1(n)

    def test_parity_dispatch(self):
        assert bound_theorem1(6) == (2 * 216 - 3 * 36 - 12) // 12
        assert bound_theorem1(9) == (2 * 729 - 3 * 81 - 18 + 3) // 12


class TestJoinBound:
    def test_tree_with_complete_is_tight(self):
        report = evaluate_bound(ProductKind.JOIN, gen_path(3), gen_complete(2))
        assert report.bound == 6 and report.actual == 6
        assert report.tight and report.hypothesis_ok

    def test_trivial_singletons(self):
        report = evaluate_bound(ProductKind.JOIN, K1, K1)
        assert report.bound == 0 and report.actual == 0

    def test_complete_operands_slack(self):
        report = evaluate_bound(ProductKind.JOIN, gen_complete(3), gen_complete(2))
        assert report.bound == 4 and report.actual == 0 and report.slack == 4

    def test_hypothesis_flags_ordering(self):
        assert not evaluate_bound(ProductKind.JOIN, gen_complete(2), gen_complete(3)).hypothesis_ok

    def test_hypothesis_flags_disconnected(self):
        # the proof needs m >= n - 1 edges in each operand; two edgeless
        # operands have fewer, and genuinely exceed the formula
        report = evaluate_bound(ProductKind.JOIN, gen_empty(3), gen_empty(2))
        assert not report.hypothesis_ok
        assert report.slack < 0

    def test_disconnected_operand_with_enough_edges(self):
        # K3 + K1 is disconnected but has m = n - 1 edges, all the proof uses
        report = evaluate_bound(ProductKind.JOIN, disjoint_union(gen_complete(3), K1), gen_complete(2))
        assert report.hypothesis_ok and report.slack >= 0


class TestLexicographicBound:
    def test_path_cycle_tight(self):
        report = evaluate_bound(ProductKind.LEXICOGRAPHIC, gen_path(4), gen_cycle(3))
        assert report.bound == 108 and report.actual == 108 and report.tight

    def test_regular_pair(self):
        report = evaluate_bound(ProductKind.LEXICOGRAPHIC, gen_cycle(4), gen_complete(3))
        assert report.bound == 0 and report.actual == 0

    def test_k2_p3(self):
        report = evaluate_bound(ProductKind.LEXICOGRAPHIC, gen_complete(2), gen_path(3))
        assert report.bound == 8 and report.actual == 8 and report.tight


class TestCartesianBound:
    def test_path_cycle_tight(self):
        report = evaluate_bound(ProductKind.CARTESIAN, gen_path(4), gen_cycle(3))
        assert report.bound == 36 and report.actual == 36 and report.tight

    def test_p3_grid(self):
        report = evaluate_bound(ProductKind.CARTESIAN, gen_path(3), gen_path(3))
        assert report.bound == 36
        grid = apply_product(ProductKind.CARTESIAN, gen_path(3), gen_path(3))
        assert report.actual == graph_total_irregularity(grid)


class TestStrongBound:
    def test_path_cycle_tight(self):
        report = evaluate_bound(ProductKind.STRONG, gen_path(4), gen_cycle(3))
        assert report.bound == 108 and report.actual == 108 and report.tight

    def test_k2_p3(self):
        report = evaluate_bound(ProductKind.STRONG, gen_complete(2), gen_path(3))
        assert report.bound == 16
        assert report.slack >= 0


class TestDirectBound:
    def test_path_cycle_tight(self):
        report = evaluate_bound(ProductKind.DIRECT, gen_path(4), gen_cycle(3))
        assert report.bound == 72 and report.actual == 72 and report.tight

    def test_edgeless_operand(self):
        report = evaluate_bound(ProductKind.DIRECT, random_graph_fixture(), gen_empty(3))
        assert report.bound == 0 and report.actual == 0

    def test_p3_k2(self):
        report = evaluate_bound(ProductKind.DIRECT, gen_path(3), gen_complete(2))
        assert report.bound == 8
        assert report.slack >= 0


def random_graph_fixture():
    import random

    return random_graph(4, random.Random(3))


class TestCoronaBound:
    def test_k2_k1_tight(self):
        report = evaluate_bound(ProductKind.CORONA, gen_complete(2), K1)
        assert report.bound == 4 and report.actual == 4 and report.tight

    def test_singleton_pair(self):
        report = evaluate_bound(ProductKind.CORONA, K1, K1)
        assert report.bound == 0 and report.actual == 0

    def test_k3_k2(self):
        report = evaluate_bound(ProductKind.CORONA, gen_complete(3), gen_complete(2))
        assert report.bound == 36
        assert report.slack >= 0

    def test_hypothesis_flags_disconnected_h(self):
        # h has m2 = 0 < n2 - 1 edges
        report = evaluate_bound(ProductKind.CORONA, gen_complete(2), gen_empty(2))
        assert not report.hypothesis_ok

    def test_disconnected_h_with_enough_edges(self):
        # K3 + K1 is disconnected but has m2 = n2 - 1 edges, all the proof uses
        report = evaluate_bound(ProductKind.CORONA, gen_complete(4), disjoint_union(gen_complete(3), K1))
        assert report.hypothesis_ok and report.slack >= 0


def degree_classes(n):
    """The distinct sorted degree sequences of the labeled graphs on n
    vertices, one row each.  A composite's degrees, and so every bound,
    slack and hypothesis, depend only on its operands' sequences."""
    return np.unique(np.sort(_labeled_operands(n).degrees, axis=1), axis=0)


@functools.lru_cache(maxsize=None)
def class_pairs(kind):
    """Every pair of degree-sequence classes with n1, n2 <= 6, scored
    as a scan scores rows: n1, n2, m1, m2, tg, th, slack and the
    hypothesis mask, each an array with one entry per pair."""
    # no pair is decoded, so the pools need no graph
    pools = [Operands(degree_classes(n), graph=None) for n in range(1, 7)]
    cells = []
    for g, h in itertools.product(pools, repeat=2):
        a, b = np.divmod(np.arange(len(g) * len(h)), len(h))
        actual = total_irregularity_rows(product_degree_rows(kind, g.degrees[a], h.degrees[b]))
        bound = _bound_formula(kind, g.n, g.m[a], h.n, h.m[b], g.irr_t[a], h.irr_t[b])
        n1, n2 = np.full(len(a), g.n), np.full(len(a), h.n)
        ok = _hypothesis_ok(kind, g, a, h, b)
        cells.append((n1, n2, g.m[a], h.m[b], g.irr_t[a], h.irr_t[b], bound - actual, ok))
    columns = [np.concatenate(column) for column in zip(*cells)]
    names = ["n1", "n2", "m1", "m2", "tg", "th", "slack", "ok"]
    return types.SimpleNamespace(**dict(zip(names, columns)))


class TestEdgeCountHypotheses:
    """Join needs n1 >= n2, m1 >= n1 - 1 and m2 >= n2 - 1; corona needs
    m2 >= n2 - 1.  Checked both ways on every pair of degree-sequence
    classes with n1, n2 <= 6: no violation under the rule, and each
    condition needed, as the pairs failing only it include violations."""

    @pytest.mark.parametrize("kind", [ProductKind.JOIN, ProductKind.CORONA])
    def test_no_violation_under_the_rule(self, kind):
        p = class_pairs(kind)
        assert p.ok.any() and not (p.ok & (p.slack < 0)).any()

    @pytest.mark.parametrize(
        "kind,excluded,violations",
        [
            (ProductKind.JOIN, lambda p: (p.n1 < p.n2) & (p.m1 >= p.n1 - 1) & (p.m2 >= p.n2 - 1), 806),
            (ProductKind.JOIN, lambda p: (p.n1 >= p.n2) & (p.m1 < p.n1 - 1) & (p.m2 >= p.n2 - 1), 278),
            (ProductKind.JOIN, lambda p: (p.n1 >= p.n2) & (p.m1 >= p.n1 - 1) & (p.m2 < p.n2 - 1), 90),
            (ProductKind.CORONA, lambda p: p.m2 < p.n2 - 1, 407),
        ],
        ids=["join-n1<n2", "join-m1<n1-1", "join-m2<n2-1", "corona-m2<n2-1"],
    )
    def test_each_excluded_set_has_violations(self, kind, excluded, violations):
        p = class_pairs(kind)
        rows = excluded(p)
        assert not p.ok[rows].any()
        assert np.count_nonzero(p.slack[rows] < 0) == violations

    def test_corona_slack_identity_and_equality_case(self):
        # slack = n1 (2 n2 mbar1 + 2 n1 (m2 - n2 + 1)), mbar1 = C(n1, 2) - m1:
        # under the rule, zero iff g is complete and m2 = n2 - 1
        p = class_pairs(ProductKind.CORONA)
        mbar1 = p.n1 * (p.n1 - 1) // 2 - p.m1
        assert np.array_equal(p.slack, p.n1 * (2 * p.n2 * mbar1 + 2 * p.n1 * (p.m2 - p.n2 + 1)))
        tight = p.ok & (p.slack == 0)
        assert tight.any()
        assert np.array_equal(tight, p.ok & (mbar1 == 0) & (p.m2 == p.n2 - 1))

    def test_join_equality_case(self):
        # under the rule, tight exactly when m1 = n1 - 1 and h is complete,
        # or when n1 = n2, g is complete and m2 = n2 - 1; never with two
        # irregular operands
        p = class_pairs(ProductKind.JOIN)
        g_complete, h_complete = p.m1 == p.n1 * (p.n1 - 1) // 2, p.m2 == p.n2 * (p.n2 - 1) // 2
        tight = p.ok & (p.slack == 0)
        assert np.count_nonzero(p.ok) == 11190 and np.count_nonzero(tight) == 122
        cases = ((p.m1 == p.n1 - 1) & h_complete) | ((p.n1 == p.n2) & g_complete & (p.m2 == p.n2 - 1))
        assert np.array_equal(tight, p.ok & cases)
        assert not (tight & (p.tg > 0) & (p.th > 0)).any()


def split_slack(kind, dg, dh):
    """Twice each row's slack left by the triangle inequality, summed
    directly over the quadruples (u, u', v, v'): the sum of
    sum_t |c_t| (|s1_t| + |s2_t|) - |sum_t c_t (s1_t + s2_t)| over the
    kind's KRONECKER_TERMS (c_t, X, Y), where s1_t = (x(u) - x(u')) y(v)
    and s2_t = x(u') (y(v) - y(v')) split the term's difference."""
    n1, n2 = dg.shape[1], dh.shape[1]
    x_rows = {"A": dg, "I": np.ones_like(dg), "J": np.full_like(dg, n1)}
    y_rows = {"B": dh, "I": np.ones_like(dh), "J": np.full_like(dh, n2)}
    unsigned = signed = 0
    for c, x, y in KRONECKER_TERMS[kind]:
        # axes (row, u, u', v, v')
        xu, xu_ = x_rows[x][:, :, None, None, None], x_rows[x][:, None, :, None, None]
        yv, yv_ = y_rows[y][:, None, None, :, None], y_rows[y][:, None, None, None, :]
        s1, s2 = (xu - xu_) * yv, xu_ * (yv - yv_)
        unsigned = unsigned + abs(c) * (abs(s1) + abs(s2))
        signed = signed + c * (s1 + s2)
    return (unsigned - abs(signed)).sum(axis=(1, 2, 3, 4))


class TestKroneckerBounds:
    """_bound_formula reads the six Kronecker bounds from KRONECKER_TERMS:
    it matches the paper's formulas (conftest.paper_bound) on Python ints
    and on int64 and object rows, its slack is the triangle inequality's,
    and the equality cases are pinned on every class pair with n <= 6."""

    def test_matches_paper_on_python_ints(self, rng):
        top = 0
        for kind in ProductKind:
            for _ in range(1000):
                n1, n2 = rng.randint(1, 5000), rng.randint(1, 5000)
                m1, m2 = rng.randint(0, n1 * (n1 - 1) // 2), rng.randint(0, n2 * (n2 - 1) // 2)
                tg, th = rng.randint(0, bound_theorem1(n1)), rng.randint(0, bound_theorem1(n2))
                got = _bound_formula(kind, n1, m1, n2, m2, tg, th)
                assert type(got) is int and got == paper_bound(kind, n1, m1, n2, m2, tg, th), kind
                top = max(top, got)
        assert top > 2**63

    @pytest.mark.parametrize("kind", list(ProductKind))
    @pytest.mark.parametrize(
        "dtype,n1,n2", [(np.int64, 64, 64), (np.int64, 4, 7), (object, 70, 59), (object, 5000, 3000)]
    )
    def test_matches_paper_on_rows(self, kind, dtype, n1, n2):
        draw = np.random.default_rng(n1 * n2)
        m1, m2 = (draw.integers(0, n * (n - 1) // 2 + 1, 256).astype(dtype) for n in (n1, n2))
        tg, th = (draw.integers(0, bound_theorem1(n) + 1, 256).astype(dtype) for n in (n1, n2))
        got = _bound_formula(kind, n1, m1, n2, m2, tg, th)
        assert got.dtype == dtype
        rows = zip(*(t.tolist() for t in (m1, m2, tg, th)))
        assert got.tolist() == [paper_bound(kind, n1, a, n2, b, x, y) for a, b, x, y in rows]

    @pytest.mark.parametrize("kind", list(KRONECKER_TERMS))
    def test_slack_is_the_split_triangle_inequality(self, kind):
        pairs = 0
        for n1, n2 in itertools.product(range(1, 6), repeat=2):
            g, h = (Operands(degree_classes(n), graph=None) for n in (n1, n2))
            a, b = np.divmod(np.arange(len(g) * len(h)), len(h))
            dg, dh = g.degrees[a], h.degrees[b]
            actual = total_irregularity_rows(product_degree_rows(kind, dg, dh))
            bound = _bound_formula(kind, n1, g.m[a], n2, h.m[b], g.irr_t[a], h.irr_t[b])
            assert np.array_equal(2 * (bound - actual), split_slack(kind, dg, dh)), (n1, n2)
            pairs += len(a)
        assert pairs == 2401

    @pytest.mark.parametrize(
        "kind", [ProductKind.LEXICOGRAPHIC, ProductKind.CARTESIAN, ProductKind.STRONG, ProductKind.DIRECT]
    )
    def test_tight_exactly_with_a_regular_operand(self, kind):
        # slack 0 needs every quadruple's split halves to share a sign,
        # which fails as soon as both operands are irregular
        p = class_pairs(kind)
        regular = p.tg * p.th == 0
        assert p.ok.all()
        assert np.count_nonzero(regular) == 5112 and np.count_nonzero(~regular) == 17689
        assert np.array_equal(p.slack == 0, regular)

    @pytest.mark.parametrize(
        "kind,c,min_slack", [(ProductKind.DISJUNCTION, -1, 68), (ProductKind.SYMDIFF, -2, 112)]
    )
    def test_disjunction_and_symdiff_equality_cases(self, kind, c, min_slack):
        # with G r-regular only the B halves remain: n1 Delta of J (x) B and
        # c r Delta of c A (x) B, Delta = dh(v) - dh(v').  They lose
        # (n1 + |c| r - |n1 + c r|) |Delta| = 2 min(n1, |c| r) |Delta|, so
        # the slack is 2 n1^2 min(n1, |c| r) th: zero only if G is edgeless
        assert (c, "A", "B") in KRONECKER_TERMS[kind]
        p = class_pairs(kind)
        assert p.ok.all()
        r1, r2 = 2 * p.m1 // p.n1, 2 * p.m2 // p.n2
        g_regular, h_regular = (p.tg == 0) & (p.th > 0), (p.th == 0) & (p.tg > 0)
        g_slack = 2 * p.n1**2 * np.minimum(p.n1, -c * r1) * p.th
        h_slack = 2 * p.n2**2 * np.minimum(p.n2, -c * r2) * p.tg
        assert np.array_equal(p.slack[g_regular], g_slack[g_regular])
        assert np.array_equal(p.slack[h_regular], h_slack[h_regular])
        tight = p.slack == 0
        assert np.count_nonzero(tight) == 1920
        assert np.array_equal(tight, ((p.tg == 0) & (p.th == 0)) | (p.m1 == 0) | (p.m2 == 0))
        assert p.slack[p.tg * p.th > 0].min() == min_slack


class TestDisjunctionBound:
    def test_k1_identity_like(self):
        h = gen_star(4)
        report = evaluate_bound(ProductKind.DISJUNCTION, K1, h)
        assert report.bound == graph_total_irregularity(h)
        assert report.tight

    def test_p3_k2(self):
        report = evaluate_bound(ProductKind.DISJUNCTION, gen_path(3), gen_complete(2))
        assert report.bound == 24
        assert report.slack >= 0


class TestSymdiffBound:
    def test_k1_identity_like(self):
        h = gen_star(4)
        report = evaluate_bound(ProductKind.SYMDIFF, K1, h)
        assert report.bound == graph_total_irregularity(h) and report.tight

    def test_p3_k2(self):
        report = evaluate_bound(ProductKind.SYMDIFF, gen_path(3), gen_complete(2))
        assert report.bound == 32
        assert report.slack >= 0


class TestSharpnessFamilies:
    @pytest.mark.parametrize("seed", range(3))
    def test_join_tree_with_complete(self, seed):
        for n1 in range(2, 6):
            for n2 in range(1, n1 + 1):
                report = evaluate_bound(ProductKind.JOIN, gen_random_tree(n1, seed), gen_complete(n2))
                assert report.tight, (n1, n2, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_corona_complete_with_tree(self, seed):
        for n1 in range(2, 6):
            for n2 in range(1, n1 + 1):
                report = evaluate_bound(ProductKind.CORONA, gen_complete(n1), gen_random_tree(n2, seed))
                assert report.tight, (n1, n2, seed)

    # ids keep the names these cases had when each called a bound_<kind> wrapper
    @pytest.mark.parametrize(
        "kind,factor",
        [
            pytest.param(ProductKind.LEXICOGRAPHIC, lambda k: 2 * k**3, id="bound_lexicographic-<lambda>"),
            pytest.param(ProductKind.CARTESIAN, lambda k: 2 * k**2, id="bound_cartesian-<lambda>"),
            pytest.param(ProductKind.STRONG, lambda k: 6 * k**2, id="bound_strong-<lambda>"),
            pytest.param(ProductKind.DIRECT, lambda k: 4 * k**2, id="bound_direct-<lambda>"),
        ],
    )
    def test_path_cycle_closed_forms(self, kind, factor):
        for l in (3, 4, 6):
            for k in (3, 5):
                report = evaluate_bound(kind, gen_path(l), gen_cycle(k))
                assert report.actual == factor(k) * (l - 2)
                assert report.tight


@pytest.mark.parametrize(
    "run,g6_g,g6_h",
    [
        (lambda: evaluate_bound(ProductKind.CARTESIAN, gen_path(3), gen_complete(2)), "Bg", "A_"),
        # the first pair of each search: empty operands on 3 and 2 vertices
        (lambda: sweep_operation_bounds(ProductKind.CARTESIAN, 3, 2), "B?", "A?"),
        (lambda: probe_open_problem(ProductKind.DISJUNCTION, 3, 2, samples=0, seed=0), "B?", "A?"),
    ],
    ids=["evaluate_bound", "sweep_operation_bounds", "probe_open_problem"],
)
def test_falsification_names_both_operands(run, g6_g, g6_h, monkeypatch):
    # a row of -1s: every formula has a tg or th term, so gives a row
    monkeypatch.setattr("totirr.bounds._bound_formula", lambda kind, n1, m1, n2, m2, tg, th: tg * 0 - 1)
    with pytest.raises(FalsificationError) as exc:
        run()
    assert f"g={g6_g} " in str(exc.value) and f"h={g6_h} " in str(exc.value)


def scalar_scan(kind, pairs):
    """The per-pair check and reduce, one pair at a time in Python ints,
    with each composite's degrees taken from the adjacency apply_product
    builds: (checked, min_slack, slack_pair, max_ratio, ratio_pair)."""
    checked, min_slack, slack_pair, max_ratio, ratio_pair = 0, None, None, None, None
    for g, h in pairs:
        actual = total_irregularity(apply_product(kind, g, h).degrees())
        tg, th = graph_total_irregularity(g), graph_total_irregularity(h)
        bound = paper_bound(kind, g.n, g.m, h.n, h.m, tg, th)
        if kind is ProductKind.JOIN:
            ok = g.n >= h.n and g.m >= g.n - 1 and h.m >= h.n - 1
        elif kind is ProductKind.CORONA:
            ok = h.m >= h.n - 1
        else:
            ok = True
        if not ok:
            continue
        assert bound >= actual
        checked += 1
        if min_slack is None or bound - actual < min_slack:
            min_slack, slack_pair = bound - actual, (g, h)
        if bound > 0 and (max_ratio is None or Fraction(actual, bound) > max_ratio):
            max_ratio, ratio_pair = Fraction(actual, bound), (g, h)
    return checked, min_slack, slack_pair, max_ratio, ratio_pair


@pytest.mark.parametrize("kind", list(ProductKind))
def test_string_kind_scores_like_its_enum(kind):
    g, h = _labeled_operands(3), _labeled_operands(3)
    by_name, by_enum = BoundScan(kind.value), BoundScan(kind)
    by_name.check_all(g, h)
    by_enum.check_all(g, h)
    assert by_name.kind is kind
    reduced = [(s.checked, s.min_slack, s.slack_pair, s.max_ratio, s.ratio_pair) for s in (by_name, by_enum)]
    assert reduced[0] == reduced[1]


def row_scan(kind, g, a, h, b, batch):
    scan = BoundScan(kind)
    for lo in range(0, len(a), batch):
        scan.check(g, a[lo : lo + batch], h, b[lo : lo + batch])
    return scan.checked, scan.min_slack, scan.slack_pair, scan.max_ratio, scan.ratio_pair


class TestRowScanAgainstScalarOracle:
    """BoundScan.check on rows reduces exactly like the per-pair oracle:
    same counts, extrema and first-occurrence witnesses, however the rows
    are split into batches."""

    @pytest.mark.parametrize("kind", list(ProductKind))
    @pytest.mark.parametrize("n1,n2", [(3, 3), (4, 3)])
    @pytest.mark.parametrize("order", ["index", "shuffled"])
    def test_labeled_pairs(self, kind, n1, n2, order):
        g, h = _labeled_operands(n1), _labeled_operands(n2)
        pairs = np.arange(len(g) * len(h))
        if order == "shuffled":
            # repeats and a shuffled order make ties between rows that are
            # not in index order, so only a first-occurrence merge passes
            rng = np.random.default_rng(n1 * 10 + n2)
            pairs = rng.permutation(np.concatenate([pairs, rng.choice(pairs, size=len(pairs))]))
        a, b = np.divmod(pairs, len(h))
        graphs_g = labeled_graphs(n1)
        graphs_h = labeled_graphs(n2)
        expected = scalar_scan(kind, [(graphs_g[i], graphs_h[j]) for i, j in zip(a, b)])
        for batch in (1, 7, len(a)):
            assert row_scan(kind, g, a, h, b, batch) == expected, batch

    @pytest.mark.parametrize("kind", list(ProductKind))
    def test_pair_above_int64_guard(self, kind):
        # n1 * n2 = 4130 > INT64_MAX_PAIR: the formula runs on Python ints
        rng = random.Random(3)
        g, h = random_graph(70, rng), random_graph(59, rng)
        assert g.n * h.n > INT64_MAX_PAIR
        report = evaluate_bound(kind, g, h)
        tg, th = graph_total_irregularity(g), graph_total_irregularity(h)
        assert report.actual == total_irregularity(apply_product(kind, g, h).degrees())
        assert report.bound == paper_bound(kind, g.n, g.m, h.n, h.m, tg, th)


def test_pool_pairs_are_scored_in_batches(monkeypatch):
    """A sweep walks its pair grid in pair-index order, at most
    _batch_rows rows per BoundScan.check call; the probe's battery fits
    in one call and evaluate_bound scores its one pair in one."""
    calls = []
    check = BoundScan.check

    def spy(scan, g, a, h, b):
        calls.append((a, b))
        return check(scan, g, a, h, b)

    monkeypatch.setattr(BoundScan, "check", spy)
    rows = _batch_rows(4, 4)
    assert rows == 256
    for kind in ProductKind:
        calls.clear()
        sweep_operation_bounds(kind, 4, 4)
        assert all(len(a) <= rows for a, _ in calls), kind
        a, b = (np.concatenate(side) for side in zip(*calls))
        expected = np.divmod(np.arange(64 * 64), 64)
        assert np.array_equal(a, expected[0]) and np.array_equal(b, expected[1]), kind
        calls.clear()
        evaluate_bound(kind, gen_path(4), gen_star(3))
        assert [len(a) for a, _ in calls] == [1], kind
    for kind in (ProductKind.DISJUNCTION, ProductKind.SYMDIFF):
        calls.clear()
        probe_open_problem(kind, 4, 4, samples=0, seed=0)
        assert [len(a) for a, _ in calls] == [5 * 5], kind


@pytest.mark.parametrize("kind", list(ProductKind))
def test_sweep_memory_is_one_batch(kind):
    # one check over all 4096 pairs of a 4x4 sweep peaks near 1 MB or more
    assert traced_peak(lambda: sweep_operation_bounds(kind, 4, 4)) < 0.5e6


@pytest.mark.parametrize("kind", list(ProductKind))
def test_scan_memory_does_not_grow_with_the_pools(kind):
    # 256 x 256 pairs of 8-vertex operands: one int64 array of composite
    # degrees over all pairs would take 33.5 MB
    rng = random.Random(8)
    g, h = (Operands.of_graphs([random_graph(8, rng) for _ in range(256)]) for _ in "gh")
    assert traced_peak(lambda: BoundScan(kind).check_all(g, h)) < 2e6


def test_values_past_int64_stay_exact():
    # with h complete, every symdiff composite degree is c + (2 - n2) d_g(u),
    # so actual = n2^2 (n2 - 2) irr_t(g); it and the bound pass 2^63
    g, h = gen_extremal_total_irr(2000), gen_complete(2000)
    tg = graph_total_irregularity(g)
    report = evaluate_bound(ProductKind.SYMDIFF, g, h)
    assert report.actual == 2000**2 * 1998 * tg > 2**63
    assert report.bound == paper_bound(ProductKind.SYMDIFF, 2000, g.m, 2000, h.m, tg, 0) > 2**63

def test_ratios_equal_as_floats_are_compared_exactly(monkeypatch):
    """Two rows whose ratios differ by less than a float64 ulp: the later,
    exactly larger one is the maximum, so the float filter must not pick."""
    kind = ProductKind.LEXICOGRAPHIC
    g = Operands.of_graphs([gen_star(8), gen_path(8)])
    h = Operands.of_graphs([gen_star(8)])
    a, b = np.arange(2), np.zeros(2, dtype=np.intp)
    actual, _, _ = BoundScan(kind).check(g, a, h, b)
    a1, a2 = int(actual[0]), int(actual[1])
    # bounds below 2^53 convert to float64 exactly, as the scan's do
    for b1 in range(2**50, 2**50 + 10**5):
        b2 = a2 * b1 // a1
        if Fraction(a2, b2) > Fraction(a1, b1) and a2 / b2 == a1 / b1:
            break
    else:
        pytest.fail("no float-equal ratio pair found")
    monkeypatch.setattr("totirr.bounds._bound_formula", lambda *args: np.array([b1, b2]))
    scan = BoundScan(kind)
    scan.check(g, a, h, b)
    assert scan.max_ratio == Fraction(a2, b2)
    assert scan.ratio_pair == (gen_path(8), gen_star(8))


def test_falsification_on_a_sampled_row_names_both_operands(monkeypatch):
    """A violation on a sampled (not battery) pair names that pair's
    operands, decoded from the draws in the order the probe makes them."""
    seed = 11
    assert all(g.m != 1 for g in _deterministic_battery(4))
    # the first sampled pair whose g has exactly one edge, from the first
    # batch's draw: one row per sample, g's 6 graph6 bits then h's
    rows = _batch_rows(4, 4)
    draw = np.frombuffer(random.Random(seed).randbytes(rows * 12 // 8), dtype=np.uint8)
    bits = np.unpackbits(draw).reshape(rows, 12)
    i = next(i for i, row in enumerate(bits) if row[:6].sum() == 1)
    g, h = graph_from_bits(4, bits[i, :6]), graph_from_bits(4, bits[i, 6:])
    formula = bounds._bound_formula
    monkeypatch.setattr(
        "totirr.bounds._bound_formula",
        lambda kind, n1, m1, n2, m2, tg, th: (
            formula(kind, n1, m1, n2, m2, tg, th) - (m1 == 1) * 10**6
        ),
    )
    with pytest.raises(FalsificationError) as exc:
        probe_open_problem(ProductKind.SYMDIFF, 4, 4, samples=1000, seed=seed)
    assert f"g={emit_graph6(g)} " in str(exc.value) and f"h={emit_graph6(h)} " in str(exc.value)
