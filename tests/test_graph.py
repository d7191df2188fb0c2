import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totirr import (
    Graph,
    InputError,
    complement,
    disjoint_union,
    from_edge_list,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_empty,
    gen_extremal_total_irr,
    gen_path,
    gen_random_tree,
    gen_star,
    graph_total_irregularity,
    is_connected,
)

from conftest import random_graph


def edge_set_strategy(max_n=10):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=30,
            ),
        )
    )


class TestConstruction:
    def test_path3_from_edge_list(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.degrees() == (1, 2, 1)
        assert g.m == 2

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        assert (g.n, g.m) == (1, 0)

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(4, [(0, 1), (0, 1), (2, 3)])
        assert g.m == 2

    def test_out_of_range_endpoint(self):
        with pytest.raises(InputError, match=r"\(0, 5\)"):
            from_edge_list(3, [(0, 5)])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop"):
            from_edge_list(3, [(1, 1)])

    def test_zero_vertices_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(0, [])

    def test_asymmetric_adjacency_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(InputError, match="symmetric"):
            Graph(adj)

    @pytest.mark.parametrize(
        "n,u,v",
        [
            (300, 290, 10),  # partial last tile row, off the diagonal
            (300, 10, 290),
            (300, 299, 260),  # inside the partial diagonal tile
            (4096, 100, 3000),  # off-diagonal tile
            (4096, 3000, 100),
            (4096, 513, 700),  # inside a diagonal tile
        ],
    )
    def test_single_asymmetric_entry_rejected(self, n, u, v):
        upper = np.triu(np.random.default_rng(n).integers(0, 2, (n, n), dtype=bool), 1)
        adj = upper | upper.T
        adj[u, v] = not adj[v, u]
        with pytest.raises(InputError, match="adjacency is not symmetric"):
            Graph(adj)
        adj[u, v] = adj[v, u]
        assert Graph(adj).n == n

    def test_adjacency_is_read_only(self):
        g = gen_path(3)
        # a pickled copy is rebuilt through __init__, validated and read-only
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        for graph in (g, copy):
            with pytest.raises(ValueError):
                graph.adjacency[0, 1] = False

    @given(edge_set_strategy())
    @settings(max_examples=100)
    def test_basic_invariants(self, spec):
        n, edges = spec
        g = from_edge_list(n, edges)
        degs = g.degrees()
        assert sum(degs) == 2 * g.m
        assert all(0 <= d <= n - 1 for d in degs)
        assert not g.adjacency.diagonal().any()
        assert np.array_equal(g.adjacency, g.adjacency.T)


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(gen_complete(4)) == gen_empty(4)

    def test_p4_degrees(self):
        assert complement(gen_path(4)).degrees() == (2, 1, 1, 2)

    def test_involution(self, rng):
        for _ in range(30):
            g = random_graph(rng.randint(1, 12), rng)
            assert complement(complement(g)) == g

    def test_degree_identity(self, rng):
        for _ in range(30):
            g = random_graph(rng.randint(1, 12), rng)
            cd = complement(g).degrees()
            assert all(cd[v] == g.n - 1 - d for v, d in enumerate(g.degrees()))

    def test_total_irregularity_invariance(self):
        g = gen_path(5)
        assert graph_total_irregularity(complement(g)) == graph_total_irregularity(g)


class TestDisjointUnion:
    def test_two_singletons(self):
        assert disjoint_union(gen_empty(1), gen_empty(1)) == gen_empty(2)

    def test_degrees_concatenate(self):
        u = disjoint_union(gen_path(3), gen_cycle(3))
        assert u.degrees() == (1, 2, 1, 2, 2, 2)

    def test_never_below_sum_of_parts(self, rng):
        for _ in range(40):
            g = random_graph(rng.randint(1, 8), rng)
            h = random_graph(rng.randint(1, 8), rng)
            assert graph_total_irregularity(disjoint_union(g, h)) >= (
                graph_total_irregularity(g) + graph_total_irregularity(h)
            )

    def test_p4_plus_isolated_vertex(self):
        u = disjoint_union(gen_path(4), gen_empty(1))
        assert graph_total_irregularity(u) >= 4


class TestFamilies:
    def test_path_degrees(self):
        assert gen_path(4).degrees() == (1, 2, 2, 1)
        assert graph_total_irregularity(gen_path(4)) == 4

    def test_path1_is_single_vertex(self):
        assert gen_path(1) == gen_empty(1)

    @pytest.mark.parametrize("l", range(2, 12))
    def test_path_closed_form(self, l):
        assert graph_total_irregularity(gen_path(l)) == 2 * (l - 2)

    def test_cycle_regular(self):
        g = gen_cycle(5)
        assert len(set(g.degrees())) == 1 and graph_total_irregularity(g) == 0

    def test_cycle_too_small(self):
        with pytest.raises(InputError):
            gen_cycle(2)

    def test_complete_regular(self):
        g = gen_complete(6)
        assert g.degrees() == (5,) * 6
        assert graph_total_irregularity(g) == 0

    def test_star(self):
        g = gen_star(5)
        assert sorted(g.degrees(), reverse=True) == [4, 1, 1, 1, 1]

    def test_multipartite_degrees(self):
        g = gen_complete_multipartite([1, 2, 3])
        assert sorted(g.degrees()) == [3, 3, 3, 4, 4, 5]

    def test_multipartite_k23(self):
        assert graph_total_irregularity(gen_complete_multipartite([2, 3])) == 6

    def test_multipartite_balanced_is_regular(self):
        assert len(set(gen_complete_multipartite([3, 3]).degrees())) == 1

    def test_multipartite_example_value(self):
        assert graph_total_irregularity(gen_complete_multipartite([1, 2, 3])) == 14

    def test_multipartite_bad_input(self):
        with pytest.raises(InputError):
            gen_complete_multipartite([])
        with pytest.raises(InputError):
            gen_complete_multipartite([2, 0])


def extremal_from_edges(n):
    """The extremal construction spelled out edge by edge (labels as in
    gen_extremal_total_irr's docstring)."""
    p = n // 2
    edges = []
    for i in range(p):
        for j in range(i + 1, p):
            edges.append((i, j))  # clique on the top layer
            edges.append((i, p + j))  # t_i ~ b_j for i < j
    if n % 2 == 0:
        edges.extend((i, p + i) for i in range(p))
    else:
        edges.extend((i, 2 * p) for i in range(p))
    return from_edge_list(n, edges)


class TestExtremalConstruction:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_edge_list_construction(self, n):
        assert gen_extremal_total_irr(n) == extremal_from_edges(n)

    def test_n4_degree_sequence(self):
        assert sorted(gen_extremal_total_irr(4).degrees(), reverse=True) == [3, 2, 2, 1]

    def test_n4_n5_values(self):
        assert graph_total_irregularity(gen_extremal_total_irr(4)) == 6
        assert graph_total_irregularity(gen_extremal_total_irr(5)) == 14

    def test_rejects_n1(self):
        with pytest.raises(InputError):
            gen_extremal_total_irr(1)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_even_degree_multiset(self, n):
        # {1..p} union {p..n-1}: every degree distinct except p, twice
        p = n // 2
        expected = sorted(list(range(1, p + 1)) + list(range(p, n)))
        assert sorted(gen_extremal_total_irr(n).degrees()) == expected


class TestRandomTree:
    def test_tiny_trees(self):
        assert gen_random_tree(1, 0) == gen_empty(1)
        assert gen_random_tree(2, 0) == gen_complete(2)

    @pytest.mark.parametrize("seed", range(5))
    def test_tree_properties(self, seed):
        for n in (3, 5, 9, 16):
            g = gen_random_tree(n, seed)
            assert g.m == n - 1
            assert is_connected(g)

    def test_deterministic_per_seed(self):
        assert gen_random_tree(10, 7) == gen_random_tree(10, 7)


class TestConnectivity:
    def test_connected_families(self):
        assert is_connected(gen_path(6))
        assert is_connected(gen_star(4))
        assert not is_connected(gen_empty(3))
        assert not is_connected(disjoint_union(gen_complete(2), gen_complete(2)))
        assert is_connected(gen_empty(1))
