import numpy as np
import pytest

from totirr import (
    ProductKind,
    apply_product,
    cartesian,
    corona,
    direct,
    disjunction,
    gen_complete,
    gen_cycle,
    gen_empty,
    gen_path,
    graph_total_irregularity,
    join,
    lexicographic,
    strong,
    symmetric_difference,
)

from conftest import product_degrees, random_graph

K1 = gen_empty(1)


def composite_label(u, v, n2):
    return u * n2 + v


@pytest.mark.parametrize("kind", list(ProductKind))
def test_degree_identities_random_pairs(kind, rng):
    for _ in range(25):
        g = random_graph(rng.randint(1, 6), rng)
        h = random_graph(rng.randint(1, 6), rng)
        composite = apply_product(kind, g, h)
        assert composite.degrees() == product_degrees(kind, g.degrees(), h.degrees())


def test_edge_count_identities(rng):
    for _ in range(25):
        g = random_graph(rng.randint(1, 6), rng)
        h = random_graph(rng.randint(1, 6), rng)
        n1, m1, n2, m2 = g.n, g.m, h.n, h.m
        assert join(g, h).m == m1 + m2 + n1 * n2
        assert direct(g, h).m == 2 * m1 * m2
        assert strong(g, h).m == m1 * n2 + m2 * n1 + 2 * m1 * m2
        assert corona(g, h).m == m1 + n1 * m2 + n1 * n2


def test_strong_is_disjoint_union_of_cartesian_and_direct(rng):
    for _ in range(20):
        g = random_graph(rng.randint(1, 5), rng)
        h = random_graph(rng.randint(1, 5), rng)
        ac = cartesian(g, h).adjacency
        ad = direct(g, h).adjacency
        assert not (ac & ad).any()
        assert np.array_equal(ac | ad, strong(g, h).adjacency)


def test_symdiff_is_disjunction_minus_direct(rng):
    for _ in range(20):
        g = random_graph(rng.randint(1, 5), rng)
        h = random_graph(rng.randint(1, 5), rng)
        av = disjunction(g, h).adjacency
        ad = direct(g, h).adjacency
        assert np.array_equal(av & ~ad, symmetric_difference(g, h).adjacency)


@pytest.mark.parametrize(
    "op", [cartesian, strong, direct, disjunction, symmetric_difference]
)
def test_degree_multiset_commutes(op, rng):
    for _ in range(15):
        g = random_graph(rng.randint(1, 5), rng)
        h = random_graph(rng.randint(1, 5), rng)
        assert sorted(op(g, h).degrees()) == sorted(op(h, g).degrees())


@pytest.mark.parametrize(
    "op", [lexicographic, cartesian, strong, direct, disjunction, symmetric_difference]
)
def test_regular_operands_give_regular_composite(op):
    for g, h in [(gen_cycle(3), gen_cycle(4)), (gen_complete(3), gen_cycle(5))]:
        composite = op(g, h)
        assert len(set(composite.degrees())) == 1
        assert graph_total_irregularity(composite) == 0


class TestJoin:
    def test_empty_join_is_bipartite(self):
        g = join(gen_empty(2), gen_empty(3))
        assert sorted(g.degrees()) == [2, 2, 2, 3, 3]
        assert graph_total_irregularity(g) == 6

    def test_k1_join_k1(self):
        assert join(K1, K1) == gen_complete(2)

    def test_p3_join_k2(self):
        g = join(gen_path(3), gen_complete(2))
        assert g.degrees() == (3, 4, 3, 4, 4)
        assert graph_total_irregularity(g) == 6


class TestLexicographic:
    def test_p3_c3_closed_form(self):
        assert graph_total_irregularity(lexicographic(gen_path(3), gen_cycle(3))) == 54

    def test_left_identity(self, rng):
        h = random_graph(5, rng)
        assert lexicographic(K1, h) == h

    def test_c4_k2_regular(self):
        g = lexicographic(gen_cycle(4), gen_complete(2))
        assert g.degrees() == (5,) * 8
        assert graph_total_irregularity(g) == 0


class TestCartesian:
    def test_p3_c3(self):
        g = cartesian(gen_path(3), gen_cycle(3))
        assert sorted(g.degrees()) == [3] * 6 + [4] * 3
        assert graph_total_irregularity(g) == 18

    def test_identity_element(self, rng):
        h = random_graph(4, rng)
        assert cartesian(K1, h) == h

    def test_k2_square_is_c4(self):
        g = cartesian(gen_complete(2), gen_complete(2))
        # labeling (u, v) -> 2u + v makes the 4-cycle 0-1-3-2-0
        assert g.m == 4 and g.degrees() == (2, 2, 2, 2)
        assert not g.adjacency[0, 3] and not g.adjacency[1, 2]


class TestStrong:
    def test_p3_c3(self):
        g = strong(gen_path(3), gen_cycle(3))
        assert sorted(g.degrees()) == [5] * 6 + [8] * 3
        assert graph_total_irregularity(g) == 54

    def test_identity_element(self, rng):
        h = random_graph(4, rng)
        assert strong(K1, h) == h

    def test_k2_strong_k2_is_k4(self):
        assert strong(gen_complete(2), gen_complete(2)) == gen_complete(4)


class TestDirect:
    def test_p3_c3(self):
        g = direct(gen_path(3), gen_cycle(3))
        assert sorted(g.degrees()) == [2] * 6 + [4] * 3
        assert graph_total_irregularity(g) == 36

    def test_edgeless_factor(self, rng):
        g = random_graph(3, rng)
        assert direct(g, gen_empty(4)).m == 0

    def test_k2_direct_k2_two_disjoint_edges(self):
        g = direct(gen_complete(2), gen_complete(2))
        assert g.m == 2 and g.degrees() == (1, 1, 1, 1)


class TestCorona:
    def test_k2_corona_k1(self):
        g = corona(gen_complete(2), K1)
        assert g.degrees() == (2, 2, 1, 1)
        assert graph_total_irregularity(g) == 4

    def test_k1_corona_empty_is_star(self):
        g = corona(K1, gen_empty(4))
        assert sorted(g.degrees(), reverse=True) == [4, 1, 1, 1, 1]

    def test_not_commutative_in_size(self):
        assert corona(gen_complete(2), gen_complete(3)).n == 8
        assert corona(gen_complete(3), gen_complete(2)).n == 9


class TestDisjunctionSymdiff:
    def test_k1_is_identity_like(self, rng):
        h = random_graph(5, rng)
        assert disjunction(K1, h) == h
        assert symmetric_difference(K1, h) == h

    def test_k2_disjunction_k2_is_k4(self):
        assert disjunction(gen_complete(2), gen_complete(2)) == gen_complete(4)

    def test_k2_symdiff_k2_is_4_cycle(self):
        g = symmetric_difference(gen_complete(2), gen_complete(2))
        assert g.m == 4 and g.degrees() == (2, 2, 2, 2)

    def test_regular_closure(self):
        assert graph_total_irregularity(disjunction(gen_cycle(3), gen_cycle(4))) == 0
        assert graph_total_irregularity(symmetric_difference(gen_cycle(3), gen_cycle(3))) == 0
