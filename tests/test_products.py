import networkx as nx
import numpy as np
import pytest

from totirr import (
    Graph,
    InputError,
    ProductKind,
    apply_product,
    bounds,
    evaluate_bound,
    gen_complete,
    gen_cycle,
    gen_empty,
    gen_extremal_total_irr,
    gen_path,
    graph_total_irregularity,
    probe_open_problem,
    sweep_operation_bounds,
)
from totirr.products import KRONECKER_TERMS, composite_order, product_degree_rows

from conftest import product_degrees, random_graph, traced_peak

K1 = gen_empty(1)


def composite_label(u, v, n2):
    return u * n2 + v


@pytest.mark.parametrize("kind", list(KRONECKER_TERMS))
def test_signed_term_sum_is_the_adjacency(kind, rng):
    """The table's integer sum, with no parity taken, is the bool adjacency."""
    for _ in range(25):
        g = random_graph(rng.randint(1, 6), rng)
        h = random_graph(rng.randint(1, 6), rng)
        x_factors = {"A": g.adjacency, "I": np.eye(g.n), "J": np.ones((g.n, g.n))}
        y_factors = {"B": h.adjacency, "I": np.eye(h.n), "J": np.ones((h.n, h.n))}
        total = sum(c * np.kron(x_factors[x], y_factors[y]) for c, x, y in KRONECKER_TERMS[kind])
        assert np.array_equal(total, apply_product(kind, g, h).adjacency)


def _networkx_composite(kind, g, h):
    """kind's composite of g and h from networkx alone, relabelled to
    apply_product's vertex order."""
    n1, n2 = g.n, h.n
    G, H = nx.from_numpy_array(g.adjacency), nx.from_numpy_array(h.adjacency)
    if kind is ProductKind.JOIN:
        composite = nx.full_join(G, nx.relabel_nodes(H, lambda v: n1 + v))
        return composite, lambda x: x
    if kind is ProductKind.CORONA:
        composite = nx.corona_product(G, H)
        return composite, lambda x: x if isinstance(x, int) else n1 + composite_label(*x, n2)
    products = {
        ProductKind.LEXICOGRAPHIC: nx.lexicographic_product,
        ProductKind.CARTESIAN: nx.cartesian_product,
        ProductKind.STRONG: nx.strong_product,
        ProductKind.DIRECT: nx.tensor_product,
    }
    if kind in products:
        composite = products[kind](G, H)
    else:
        composite = nx.complement(nx.strong_product(nx.complement(G), nx.complement(H)))
        if kind is ProductKind.SYMDIFF:
            composite.remove_edges_from(nx.tensor_product(G, H).edges)
    return composite, lambda x: composite_label(*x, n2)


@pytest.mark.parametrize("kind", list(ProductKind))
def test_agrees_with_networkx(kind, rng):
    """Every kind against networkx's own products on 120 seeded pairs with
    n1, n2 in 1..6; a third of the operands are edgeless."""
    for i in range(120):
        g = random_graph(rng.randint(1, 6), rng, p=(0.0, 0.5, 0.8)[i % 3])
        h = random_graph(rng.randint(1, 6), rng, p=(0.5, 0.0, 0.3)[i % 3])
        composite, label = _networkx_composite(kind, g, h)
        expected = apply_product(kind, g, h)
        adj = np.zeros((expected.n, expected.n), dtype=bool)
        assert sorted(map(label, composite.nodes)) == list(range(expected.n))
        for a, b in composite.edges:
            adj[label(a), label(b)] = adj[label(b), label(a)] = True
        assert Graph(adj) == expected


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
        assert apply_product(ProductKind.JOIN, g, h).m == m1 + m2 + n1 * n2
        assert apply_product(ProductKind.DIRECT, g, h).m == 2 * m1 * m2
        assert apply_product(ProductKind.STRONG, g, h).m == m1 * n2 + m2 * n1 + 2 * m1 * m2
        assert apply_product(ProductKind.CORONA, g, h).m == m1 + n1 * m2 + n1 * n2


def test_strong_is_disjoint_union_of_cartesian_and_direct(rng):
    for _ in range(20):
        g = random_graph(rng.randint(1, 5), rng)
        h = random_graph(rng.randint(1, 5), rng)
        ac = apply_product(ProductKind.CARTESIAN, g, h).adjacency
        ad = apply_product(ProductKind.DIRECT, g, h).adjacency
        assert not (ac & ad).any()
        assert np.array_equal(ac | ad, apply_product(ProductKind.STRONG, g, h).adjacency)


def test_symdiff_is_disjunction_minus_direct(rng):
    for _ in range(20):
        g = random_graph(rng.randint(1, 5), rng)
        h = random_graph(rng.randint(1, 5), rng)
        av = apply_product(ProductKind.DISJUNCTION, g, h).adjacency
        ad = apply_product(ProductKind.DIRECT, g, h).adjacency
        assert np.array_equal(av & ~ad, apply_product(ProductKind.SYMDIFF, g, h).adjacency)


@pytest.mark.parametrize("kind", [k for k in KRONECKER_TERMS if k is not ProductKind.LEXICOGRAPHIC])
def test_degree_multiset_commutes(kind, rng):
    for _ in range(15):
        g = random_graph(rng.randint(1, 5), rng)
        h = random_graph(rng.randint(1, 5), rng)
        gh, hg = apply_product(kind, g, h), apply_product(kind, h, g)
        assert sorted(gh.degrees()) == sorted(hg.degrees())


@pytest.mark.parametrize("kind", list(KRONECKER_TERMS))
def test_regular_operands_give_regular_composite(kind):
    for g, h in [(gen_cycle(3), gen_cycle(4)), (gen_complete(3), gen_cycle(5))]:
        composite = apply_product(kind, g, h)
        assert len(set(composite.degrees())) == 1
        assert graph_total_irregularity(composite) == 0


@pytest.mark.parametrize("kind", list(ProductKind))
def test_composite_order_is_the_built_size(kind):
    for g, h in [(gen_path(3), gen_cycle(5)), (gen_cycle(5), gen_path(3))]:
        dg, dh = np.array([g.degrees()]), np.array([h.degrees()])
        n = composite_order(kind, g.n, h.n)
        assert n == apply_product(kind, g, h).n == product_degree_rows(kind, dg, dh).shape[1]


UNKNOWN_KIND_CALLS = {
    "apply_product": lambda: apply_product("bogus", K1, K1),
    "product_degree_rows": lambda: product_degree_rows("bogus", np.zeros((1, 1)), np.zeros((1, 1))),
    "evaluate_bound": lambda: evaluate_bound("bogus", K1, K1),
    "BoundScan": lambda: bounds.BoundScan("bogus"),
    "sweep_operation_bounds": lambda: sweep_operation_bounds("bogus", 2, 2),
    "probe_open_problem": lambda: probe_open_problem("bogus", 3, 3, samples=1, seed=0),
}


@pytest.mark.parametrize("call", UNKNOWN_KIND_CALLS)
def test_unknown_kind_is_an_input_error(call):
    with pytest.raises(InputError) as exc:
        UNKNOWN_KIND_CALLS[call]()
    assert str(exc.value) == "unknown product kind 'bogus'"


@pytest.mark.parametrize("kind", list(KRONECKER_TERMS))
def test_builder_memory_is_one_term(kind):
    """apply_product's peak in composite matrices (N^2 bytes): the output
    and one np.kron term, and _from_lower keeps the output with no copy; a
    large operand's I or J factor adds one more.  Building every factor of
    both operands up front reads 4 with the 1024-vertex operand."""
    big = gen_extremal_total_irr(1024)
    for g, h, limit in [
        (gen_extremal_total_irr(32), gen_path(32), 2.5),
        (big, K1, 3.5),
        (K1, big, 3.5),
    ]:
        assert traced_peak(lambda: apply_product(kind, g, h)) <= limit * (g.n * h.n) ** 2


class TestJoin:
    def test_empty_join_is_bipartite(self):
        g = apply_product(ProductKind.JOIN, gen_empty(2), gen_empty(3))
        assert sorted(g.degrees()) == [2, 2, 2, 3, 3]
        assert graph_total_irregularity(g) == 6

    def test_k1_join_k1(self):
        assert apply_product(ProductKind.JOIN, K1, K1) == gen_complete(2)

    def test_p3_join_k2(self):
        g = apply_product(ProductKind.JOIN, gen_path(3), gen_complete(2))
        assert g.degrees() == (3, 4, 3, 4, 4)
        assert graph_total_irregularity(g) == 6


class TestLexicographic:
    def test_p3_c3_closed_form(self):
        g = apply_product(ProductKind.LEXICOGRAPHIC, gen_path(3), gen_cycle(3))
        assert graph_total_irregularity(g) == 54

    def test_left_identity(self, rng):
        h = random_graph(5, rng)
        assert apply_product(ProductKind.LEXICOGRAPHIC, K1, h) == h

    def test_c4_k2_regular(self):
        g = apply_product(ProductKind.LEXICOGRAPHIC, gen_cycle(4), gen_complete(2))
        assert g.degrees() == (5,) * 8
        assert graph_total_irregularity(g) == 0


class TestCartesian:
    def test_p3_c3(self):
        g = apply_product(ProductKind.CARTESIAN, gen_path(3), gen_cycle(3))
        assert sorted(g.degrees()) == [3] * 6 + [4] * 3
        assert graph_total_irregularity(g) == 18

    def test_identity_element(self, rng):
        h = random_graph(4, rng)
        assert apply_product(ProductKind.CARTESIAN, K1, h) == h

    def test_k2_square_is_c4(self):
        g = apply_product(ProductKind.CARTESIAN, gen_complete(2), gen_complete(2))
        # labeling (u, v) -> 2u + v makes the 4-cycle 0-1-3-2-0
        assert g.m == 4 and g.degrees() == (2, 2, 2, 2)
        assert not g.adjacency[0, 3] and not g.adjacency[1, 2]


class TestStrong:
    def test_p3_c3(self):
        g = apply_product(ProductKind.STRONG, gen_path(3), gen_cycle(3))
        assert sorted(g.degrees()) == [5] * 6 + [8] * 3
        assert graph_total_irregularity(g) == 54

    def test_identity_element(self, rng):
        h = random_graph(4, rng)
        assert apply_product(ProductKind.STRONG, K1, h) == h

    def test_k2_strong_k2_is_k4(self):
        assert apply_product(ProductKind.STRONG, gen_complete(2), gen_complete(2)) == gen_complete(4)


class TestDirect:
    def test_p3_c3(self):
        g = apply_product(ProductKind.DIRECT, gen_path(3), gen_cycle(3))
        assert sorted(g.degrees()) == [2] * 6 + [4] * 3
        assert graph_total_irregularity(g) == 36

    def test_edgeless_factor(self, rng):
        g = random_graph(3, rng)
        assert apply_product(ProductKind.DIRECT, g, gen_empty(4)).m == 0

    def test_k2_direct_k2_two_disjoint_edges(self):
        g = apply_product(ProductKind.DIRECT, gen_complete(2), gen_complete(2))
        assert g.m == 2 and g.degrees() == (1, 1, 1, 1)


class TestCorona:
    def test_k2_corona_k1(self):
        g = apply_product(ProductKind.CORONA, gen_complete(2), K1)
        assert g.degrees() == (2, 2, 1, 1)
        assert graph_total_irregularity(g) == 4

    def test_k1_corona_empty_is_star(self):
        g = apply_product(ProductKind.CORONA, K1, gen_empty(4))
        assert sorted(g.degrees(), reverse=True) == [4, 1, 1, 1, 1]

    def test_not_commutative_in_size(self):
        assert apply_product(ProductKind.CORONA, gen_complete(2), gen_complete(3)).n == 8
        assert apply_product(ProductKind.CORONA, gen_complete(3), gen_complete(2)).n == 9


class TestDisjunctionSymdiff:
    def test_k1_is_identity_like(self, rng):
        h = random_graph(5, rng)
        assert apply_product(ProductKind.DISJUNCTION, K1, h) == h
        assert apply_product(ProductKind.SYMDIFF, K1, h) == h

    def test_k2_disjunction_k2_is_k4(self):
        assert apply_product(ProductKind.DISJUNCTION, gen_complete(2), gen_complete(2)) == gen_complete(4)

    def test_k2_symdiff_k2_is_4_cycle(self):
        g = apply_product(ProductKind.SYMDIFF, gen_complete(2), gen_complete(2))
        assert g.m == 4 and g.degrees() == (2, 2, 2, 2)

    def test_regular_closure(self):
        disjunction = apply_product(ProductKind.DISJUNCTION, gen_cycle(3), gen_cycle(4))
        symdiff = apply_product(ProductKind.SYMDIFF, gen_cycle(3), gen_cycle(3))
        assert graph_total_irregularity(disjunction) == 0
        assert graph_total_irregularity(symdiff) == 0
