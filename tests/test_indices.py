import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totirr import (
    Graph,
    collatz_sinogowitz,
    complement,
    degree_variance,
    disjoint_union,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_empty,
    gen_path,
    gen_random_tree,
    gen_star,
    graph_total_irregularity,
    irregularity,
    spectral_radius,
    total_irregularity,
    total_irregularity_naive,
    zagreb_m1,
    zagreb_m1_edge_form,
    zagreb_m2,
)
from totirr.indices import total_irregularity_rows

from conftest import edges, labeled_graphs, random_graph


class TestTotalIrregularity:
    def test_path5(self):
        assert total_irregularity(gen_path(5).degrees()) == 6

    def test_regular_is_zero(self):
        assert total_irregularity(gen_cycle(7).degrees()) == 0

    def test_extremal_n4_degrees(self):
        assert total_irregularity([3, 2, 2, 1]) == 6

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_permutation_invariant_and_nonnegative(self, degrees):
        value = total_irregularity(degrees)
        assert value >= 0
        assert value == total_irregularity(list(reversed(degrees)))
        assert value == total_irregularity(sorted(degrees))

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=25))
    @settings(max_examples=200)
    def test_sorted_form_matches_pairwise_sum(self, degrees):
        pairwise = sum(
            abs(degrees[i] - degrees[j])
            for i in range(len(degrees))
            for j in range(i + 1, len(degrees))
        )
        assert total_irregularity(degrees) == pairwise

    def test_empty_sequence(self):
        assert total_irregularity([]) == 0

    @pytest.mark.parametrize("rows", [1, 3])
    def test_rows_of_width_zero(self, rows):
        assert total_irregularity_rows(np.zeros((rows, 0), dtype=np.int64)).tolist() == [0] * rows

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rows_match_pairwise_sum(self, n):
        # degrees drawn from fewer values than n, so most rows have ties
        gen = np.random.default_rng(n)
        degrees = gen.integers(0, max(1, n // 2), size=(50, n), dtype=np.int64)
        got = total_irregularity_rows(degrees)
        assert got.dtype == np.int64 and got.shape == (50,)
        for row, value in zip(degrees.tolist(), got.tolist()):
            assert value == sum(abs(a - b) for i, a in enumerate(row) for b in row[i + 1 :])


class TestOracleEquivalence:
    def test_exhaustive_n4(self):
        for g in labeled_graphs(4):
            assert graph_total_irregularity(g) == total_irregularity_naive(g)

    def test_random_graphs(self, rng):
        for _ in range(100):
            g = random_graph(rng.randint(1, 24), rng)
            assert graph_total_irregularity(g) == total_irregularity_naive(g)

    def test_known_values(self):
        assert total_irregularity_naive(gen_empty(1)) == 0
        # K_{2,3}
        from totirr import gen_complete_multipartite

        assert total_irregularity_naive(gen_complete_multipartite([2, 3])) == 6


class TestAlbertsonIrregularity:
    def test_star4(self):
        assert irregularity(gen_star(4)) == 6

    def test_regular_zero(self):
        assert irregularity(gen_cycle(6)) == 0

    def test_p4(self):
        assert irregularity(gen_path(4)) == 2


class TestZagreb:
    def test_k3(self):
        g = gen_complete(3)
        assert zagreb_m1(g) == 12
        assert zagreb_m2(g) == 12

    def test_empty(self):
        g = gen_empty(5)
        assert zagreb_m1(g) == 0
        assert zagreb_m2(g) == 0

    def test_p3(self):
        g = gen_path(3)
        assert zagreb_m1(g) == 6
        assert zagreb_m2(g) == 4

    def test_vertex_form_equals_edge_form(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(1, 16), rng)
            assert zagreb_m1(g) == zagreb_m1_edge_form(g)


def edge_loop_indices(g):
    """(irr, m2, m1 edge form) summed edge by edge in Python: the oracle
    for the tiled kernels."""
    ds = g.degrees()
    pairs = edges(g)
    return (
        sum(abs(ds[u] - ds[v]) for u, v in pairs),
        sum(ds[u] * ds[v] for u, v in pairs),
        sum(ds[u] + ds[v] for u, v in pairs),
    )


def with_isolated_vertices(g, step):
    """g with every step-th vertex's edges removed, so that isolated
    vertices fall in every row tile."""
    adj = g.adjacency.copy()
    adj[::step] = False
    adj[:, ::step] = False
    return Graph(adj)


def tie_heavy_graphs(n, rng):
    """Graphs on n vertices whose degrees mostly tie, plus a random one."""
    return {
        "cycle": gen_cycle(n),
        "complete": gen_complete(n),
        "bipartite": gen_complete_multipartite([n // 3, n - n // 3]),
        "multipartite": gen_complete_multipartite([1, 2, n // 4, n // 3, n - 3 - n // 4 - n // 3]),
        "star": gen_star(n),
        "isolated": with_isolated_vertices(random_graph(n, rng), 3),
        "random": random_graph(n, rng),
    }


class TestEdgeIndicesAgainstEdgeLoop:
    def test_random_graphs(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(1, 40), rng)
            assert (irregularity(g), zagreb_m2(g), zagreb_m1_edge_form(g)) == edge_loop_indices(g)

    # the kernels pass the adjacency in row tiles of SYMMETRY_TILE = 256
    # rows: one tile short of full, one full, one plus a 1-row tile, two
    # plus a 1-row tile
    @pytest.mark.parametrize("n", [255, 256, 257, 513])
    def test_across_tiles(self, n, rng):
        for name, g in tie_heavy_graphs(n, rng).items():
            expected = edge_loop_indices(g)
            assert (irregularity(g), zagreb_m2(g), zagreb_m1_edge_form(g)) == expected, name


class TestEdgeIndicesClosedFormsAtCap:
    N = 4096

    def test_star(self):
        g = gen_star(self.N)
        assert irregularity(g) == (self.N - 1) * (self.N - 2) == 16_764_930
        assert zagreb_m2(g) == (self.N - 1) ** 2 == 16_769_025

    def test_complete(self):
        g = gen_complete(self.N)
        assert irregularity(g) == 0
        assert zagreb_m2(g) == math.comb(self.N, 2) * (self.N - 1) ** 2 == 140_634_434_304_000


class TestDegreeVariance:
    def test_regular_zero(self):
        assert degree_variance(gen_cycle(5)) == 0.0

    def test_star4(self):
        assert degree_variance(gen_star(4)) == pytest.approx(0.75, rel=1e-12)

    def test_p3(self):
        assert degree_variance(gen_path(3)) == pytest.approx(2 / 9, rel=1e-12)

    def test_moment_identity(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(1, 20), rng)
            expected = zagreb_m1(g) / g.n - (2 * g.m / g.n) ** 2
            assert degree_variance(g) == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestCollatzSinogowitz:
    def test_complete_graph_zero(self):
        for n in (2, 5, 9):
            assert collatz_sinogowitz(gen_complete(n)) == pytest.approx(0.0, abs=1e-9)

    def test_star4(self):
        assert collatz_sinogowitz(gen_star(4)) == pytest.approx(
            math.sqrt(3) - 1.5, abs=1e-9
        )

    def test_p3(self):
        assert collatz_sinogowitz(gen_path(3)) == pytest.approx(
            math.sqrt(2) - 4 / 3, abs=1e-9
        )

    def test_edgeless_exactly_zero(self):
        assert collatz_sinogowitz(gen_empty(6)) == 0.0

    def test_nonnegative(self, rng):
        for _ in range(40):
            g = random_graph(rng.randint(1, 12), rng)
            assert collatz_sinogowitz(g) >= 0.0

    def test_star_spectral_radius_closed_form(self):
        # lambda_1 of a star on n vertices is sqrt(n - 1)
        for n in (3, 5, 10):
            assert spectral_radius(gen_star(n)) == pytest.approx(
                math.sqrt(n - 1), abs=1e-9
            )


class TestSpectralRadius:
    """lambda_1 against closed forms, to 1e-10 absolute."""

    @pytest.mark.parametrize("n", [2, 10, 300, 1000])
    def test_path(self, n):
        assert abs(spectral_radius(gen_path(n)) - 2 * math.cos(math.pi / (n + 1))) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 7, 50])
    def test_star(self, n):
        assert abs(spectral_radius(gen_star(n)) - math.sqrt(n - 1)) < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 9, 100])
    def test_cycle(self, n):
        assert abs(spectral_radius(gen_cycle(n)) - 2) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_complete(self, n):
        assert abs(spectral_radius(gen_complete(n)) - (n - 1)) < 1e-10


EPS = np.finfo(float).eps


def eigvalsh_radius(g):
    return float(np.linalg.eigvalsh(g.adjacency.astype(float))[-1])


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count calls of np.linalg.eigvalsh: 0 means the Collatz-Wielandt
    bracket certified the power iteration, 1 that it fell back."""
    calls = []
    real = np.linalg.eigvalsh

    def spy(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


class TestSpectralRadiusCertified:
    """Graphs on which the bracket closes: no eigensolve."""

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (7, 100), (1, 4095), (2048, 2048)])
    def test_complete_bipartite_is_sqrt_ab(self, a, b, eigvalsh_calls):
        assert spectral_radius(gen_complete_multipartite([a, b])) == math.sqrt(a * b)
        assert eigvalsh_calls == []

    @pytest.mark.parametrize("n", [2, 3, 50, 4096])
    def test_star(self, n, eigvalsh_calls):
        assert spectral_radius(gen_star(n)) == math.sqrt(n - 1)
        assert eigvalsh_calls == []

    @pytest.mark.parametrize("n", [2, 5, 4096])
    def test_complete(self, n, eigvalsh_calls):
        assert spectral_radius(gen_complete(n)) == n - 1
        assert eigvalsh_calls == []

    @pytest.mark.parametrize("n", [1, 6, 4096])
    def test_edgeless_exactly_zero(self, n, eigvalsh_calls):
        value = spectral_radius(gen_empty(n))
        assert value == 0.0 and type(value) is float
        assert eigvalsh_calls == []

    def test_dense_random_against_long_double_rayleigh_quotient(self, eigvalsh_calls):
        g = random_graph(1024, random.Random(1024))
        value = spectral_radius(g)
        assert eigvalsh_calls == []
        # the Rayleigh quotient of eigh's eigenvector, evaluated in long
        # double, is exact to far below float64 rounding
        vec = np.linalg.eigh(g.adjacency.astype(float))[1][:, -1].astype(np.longdouble)
        ref = vec @ (g.adjacency.astype(np.longdouble) @ vec) / (vec @ vec)
        assert abs(np.longdouble(value) - ref) <= 2 * EPS * ref


class TestSpectralRadiusFallback:
    """Graphs on which the bracket stays open: eigvalsh's value exactly."""

    @pytest.mark.parametrize(
        "g",
        [
            gen_path(40),
            gen_path(300),
            gen_random_tree(200, seed=7),
            disjoint_union(gen_complete(5), gen_path(7)),
            disjoint_union(gen_cycle(6), gen_empty(1)),
        ],
        ids=["P40", "P300", "tree200", "K5+P7", "C6+K1"],
    )
    def test_equals_eigvalsh(self, g, eigvalsh_calls):
        value = spectral_radius(g)
        assert eigvalsh_calls == [(g.n, g.n)]
        assert value == eigvalsh_radius(g)


class TestSpectralRadiusRandomGraphs:
    """G(n, p) graphs land on either side; both agree with eigvalsh."""

    def test_within_certificate_of_eigvalsh(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(1, 40), rng, p=rng.random())
            value = spectral_radius(g)
            assert abs(value - eigvalsh_radius(g)) <= 4 * g.n * EPS * max(value, 1.0)


class TestComplementInvariance:
    def test_exhaustive_n4(self):
        for g in labeled_graphs(4):
            assert graph_total_irregularity(complement(g)) == graph_total_irregularity(g)

    def test_random(self, rng):
        for _ in range(50):
            g = random_graph(rng.randint(1, 20), rng)
            assert graph_total_irregularity(complement(g)) == graph_total_irregularity(g)
