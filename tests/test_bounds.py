import pytest

from totirr import (
    FalsificationError,
    ProductKind,
    bound_theorem1,
    evaluate_bound,
    gen_complete,
    gen_cycle,
    gen_empty,
    gen_path,
    gen_random_tree,
    gen_star,
    graph_total_irregularity,
    probe_open_problem,
    sweep_operation_bounds,
)

from conftest import random_graph

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
        from totirr import cartesian

        report = evaluate_bound(ProductKind.CARTESIAN, gen_path(3), gen_path(3))
        assert report.bound == 36
        assert report.actual == graph_total_irregularity(cartesian(gen_path(3), gen_path(3)))


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
    monkeypatch.setattr("totirr.bounds._bound_formula", lambda *args: -1)
    with pytest.raises(FalsificationError) as exc:
        run()
    assert f"g={g6_g} " in str(exc.value) and f"h={g6_h} " in str(exc.value)
