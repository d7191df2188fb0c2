import random
from fractions import Fraction

import numpy as np
import pytest

from totirr import (
    FalsificationError,
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
    is_connected,
    probe_open_problem,
    sweep_operation_bounds,
    total_irregularity,
)
from totirr.bounds import INT64_MAX_PAIR, BoundScan, Operands, _batch_rows, _bound_formula
from totirr.formats import graph_from_bits
from totirr.search import _deterministic_battery, _labeled_operands

from conftest import labeled_graphs, random_graph, traced_peak

K1 = gen_empty(1)


class TestTheorem1Formula:
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 0), (4, 6), (5, 14), (7, 44)])
    def test_values(self, n, expected):
        assert bound_theorem1(n) == expected

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
        # the tightness argument needs connected operands; without them the
        # formula is genuinely exceeded (e.g. two edgeless operands)
        report = evaluate_bound(ProductKind.JOIN, gen_empty(3), gen_empty(2))
        assert not report.hypothesis_ok
        assert report.slack < 0


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
        report = evaluate_bound(ProductKind.CORONA, gen_complete(2), gen_empty(2))
        assert not report.hypothesis_ok


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
        bound = _bound_formula(kind, g.n, g.m, h.n, h.m, tg, th)
        if kind is ProductKind.JOIN:
            ok = g.n >= h.n and is_connected(g) and is_connected(h)
        elif kind is ProductKind.CORONA:
            ok = g.n >= h.n and is_connected(h)
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
        assert report.bound == _bound_formula(kind, g.n, g.m, h.n, h.m, tg, th)


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
    assert report.bound == _bound_formula(ProductKind.SYMDIFF, 2000, g.m, 2000, h.m, tg, 0) > 2**63

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
