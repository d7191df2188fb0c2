import functools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totirr import (
    Graph,
    InputError,
    ProductKind,
    apply_product,
    complement,
    from_edge_list,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_empty,
    gen_extremal_total_irr,
    gen_path,
    gen_random_tree,
    gen_star,
    graph_from_code,
    graph_total_irregularity,
    is_connected,
    parse_edge_list,
)
from totirr.families import tree_from_pruefer
from totirr.formats import graph_from_bits

from conftest import disjoint_union, random_graph

NOT_01 = "adjacency must hold bools, or integers or floats that are all 0 or 1"


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

    @pytest.mark.parametrize(
        "edge,expected",
        [((1, False), (1, 0)), ((2, True), (2, 1)), ((np.int64(2), 0), (2, 0))],
        ids=["false-is-0", "true-is-1", "numpy-int"],
    )
    def test_endpoints_taken_as_ints(self, edge, expected):
        assert from_edge_list(3, [edge]) == from_edge_list(3, [expected])

    @pytest.mark.parametrize(
        "edge,shown", [((1.0, 2), r"\(1\.0, 2\)"), (5, "5"), ((0, 1, 2), r"\(0, 1, 2\)")],
        ids=["float", "not-a-pair", "triple"],
    )
    def test_not_a_pair_of_integers_rejected(self, edge, shown):
        with pytest.raises(InputError, match=f"edge {shown} is not a pair of integers"):
            from_edge_list(3, [edge])

    def test_zero_vertices_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(0, [])

    def test_not_equal_to_a_non_graph(self):
        assert (gen_path(4) == "x") is False
        assert gen_path(4) != "x"

    def test_repr(self):
        assert repr(gen_path(4)) == "Graph(n=4, m=3)"

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

    @pytest.mark.parametrize(
        "adj,message",
        [
            (np.zeros((2, 3), dtype=bool), r"adjacency must be square, got shape \(2, 3\)"),
            (np.zeros(4, dtype=bool), r"adjacency must be square, got shape \(4,\)"),
            (np.zeros((0, 0), dtype=bool), "graphs must have at least one vertex"),
            (np.eye(3, dtype=bool), "self-loop at vertex 0"),
            ([[0, 1], [1]], NOT_01),
            ([[0, 2], [2, 0]], NOT_01),
            ([[0, -1], [-1, 0]], NOT_01),
            ([[0, 0.25], [0.25, 0]], NOT_01),
            ([[math.nan, 1], [1, math.nan]], NOT_01),
            ([["0", "1"], ["1", "0"]], NOT_01),
            (np.array([[0, 1j], [1j, 0]]), NOT_01),
            ([[None, 1], [1, None]], NOT_01),
        ],
        ids=["2x3", "vector", "0x0", "identity", "ragged", "2", "-1", "quarter", "nan", "string", "complex", "object"],
    )
    def test_bad_adjacency_rejected(self, adj, message):
        with pytest.raises(InputError, match=message):
            Graph(adj)

    @pytest.mark.parametrize(
        "adj",
        [[[0, 1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]], np.array([[0, 1], [1, 0]], dtype=np.uint8)],
        ids=["int", "float", "uint8"],
    )
    def test_numeric_0_1_adjacency_accepted(self, adj):
        assert Graph(adj) == gen_path(2)

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


# the package's builders write one triangle, or apply_product a symmetric
# composite, and graph._from_lower completes it in tiles of
# SYMMETRY_TILE = 256 and keeps it with no copy and no check; these sizes
# fall inside one tile, at its edge and across several
RULE_SIZES = [1, 2, 7, 255, 256, 257, 513]


def product_near(kind, n):
    """apply_product(kind) of two seeded random graphs on a and b vertices,
    whose composite order, a + b for join, a * b for a Kronecker kind and
    a * (b + 1) for corona, is n or just above it."""
    if kind is ProductKind.JOIN:
        a, b = max(n // 2, 1), max(n - n // 2, 1)
    else:
        a = math.isqrt(n)
        b = max(-(-n // a) - (kind is ProductKind.CORONA), 1)
    rng = random.Random(n)
    return apply_product(kind, random_graph(a, rng), random_graph(b, rng))


BUILDERS = {
    "empty": gen_empty,
    "complete": gen_complete,
    "path": gen_path,
    "cycle": lambda n: gen_cycle(max(n, 3)),
    "star": gen_star,
    "multipartite": lambda n: gen_complete_multipartite([p for p in (1, n // 3, n - 1 - n // 3) if p]),
    "multipartite-one-part": lambda n: gen_complete_multipartite([n]),
    "extremal": lambda n: gen_extremal_total_irr(max(n, 2)),
    "tree": lambda n: gen_random_tree(n, n),
    "from_bits": lambda n: graph_from_bits(n, np.random.default_rng(n).integers(0, 2, n * (n - 1) // 2)),
    "from_code": lambda n: graph_from_code(n, random.Random(n).getrandbits(n * (n - 1) // 2)),
    "from_edge_list": lambda n: from_edge_list(n, random_edges(n)),
    "parse_edge_list": lambda n: parse_edge_list(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in random_edges(n))),
    "complement": lambda n: complement(random_graph(n, random.Random(n))),
    "complement-of-empty": lambda n: complement(gen_empty(n)),
    **{f"op-{kind.value}": functools.partial(product_near, kind) for kind in ProductKind},
}


def random_edges(n):
    """About 3n seeded random pairs, both orders and repeats included."""
    rng = random.Random(n)
    return [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)) if u != v]


class TestConstructionRule:
    @pytest.mark.parametrize("n", RULE_SIZES)
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_builder_output_passes_the_checked_constructor(self, builder, n):
        g = BUILDERS[builder](n)
        checked = Graph(g.adjacency)
        assert g == checked
        assert (g.degrees(), g.m) == (checked.degrees(), checked.m)
        assert g.adjacency.dtype == bool and not g.adjacency.flags.writeable

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_empty(0),
            lambda: gen_complete(0),
            lambda: gen_path(0),
            lambda: gen_star(0),
            lambda: gen_complete_multipartite([0]),
            lambda: graph_from_bits(0, []),
            lambda: graph_from_code(0, 0),
            lambda: from_edge_list(0, []),
            lambda: parse_edge_list("n 0\n"),
        ],
        ids=["empty", "complete", "path", "star", "multipartite", "from_bits", "from_code", "from_edge_list", "parse_edge_list"],
    )
    def test_no_builder_makes_a_graph_without_vertices(self, build):
        # _from_lower takes n >= 1 on trust, so each builder checks it first
        with pytest.raises(InputError):
            build()

    def test_checked_constructor_copies(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        before = adj.copy()
        g = Graph(adj)
        assert adj.flags.writeable and np.array_equal(adj, before)
        adj[1, 2] = adj[2, 1] = True
        assert g.m == 1 and not g.adjacency[1, 2]


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
        with pytest.raises(InputError, match=r"^parts\[1\] must be an integer >= 1, got 0$"):
            gen_complete_multipartite([2, 0])

    @pytest.mark.parametrize("parts", [[2.5], [2, 3.0], ["2"]])
    def test_multipartite_non_integer_part_rejected(self, parts):
        with pytest.raises(InputError) as exc:
            gen_complete_multipartite(parts)
        assert str(exc.value) == f"parts[{len(parts) - 1}] must be an integer >= 1, got {parts[-1]!r}"

    def test_multipartite_numpy_parts(self):
        assert gen_complete_multipartite(np.array([2, 3])) == gen_complete_multipartite([2, 3])


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
    # 255 to 257 and 513 end inside, on and just past a symmetry tile's edge
    @pytest.mark.parametrize("n", [*range(2, 41), 255, 256, 257, 513])
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

    def test_pruefer_sequence_of_wrong_length_rejected(self):
        with pytest.raises(InputError, match="Pruefer sequence for n=5 must have length 3"):
            tree_from_pruefer(5, [1])

    @pytest.mark.parametrize(
        "seq,message",
        [
            ([7, 0, 0], "seq[0] must be an integer in [0, 4], got 7"),
            ([0, 1.5, 0], "seq[1] must be an integer in [0, 4], got 1.5"),
            ([0, 0, -1], "seq[2] must be an integer in [0, 4], got -1"),
        ],
        ids=["too-large", "float", "negative"],
    )
    def test_bad_pruefer_entry_rejected_before_decoding(self, seq, message):
        with pytest.raises(InputError) as exc:
            tree_from_pruefer(5, seq)
        assert str(exc.value) == message

    def test_pruefer_entries_taken_as_ints(self):
        # numpy ints and bools index like the ints they equal
        assert tree_from_pruefer(5, [np.int64(1), True, 4]) == tree_from_pruefer(5, [1, 1, 4])


class TestConnectivity:
    def test_connected_families(self):
        assert is_connected(gen_path(6))
        assert is_connected(gen_star(4))
        assert not is_connected(gen_empty(3))
        assert not is_connected(disjoint_union(gen_complete(2), gen_complete(2)))
        assert is_connected(gen_empty(1))
