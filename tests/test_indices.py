import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totirr import (
    collatz_sinogowitz,
    complement,
    degree_variance,
    gen_complete,
    gen_cycle,
    gen_empty,
    gen_path,
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
from totirr.search import enumerate_labeled_graphs

from conftest import random_graph


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


class TestOracleEquivalence:
    def test_exhaustive_n4(self):
        for g in enumerate_labeled_graphs(4):
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


class TestEdgeIndicesAgainstEdgeLoop:
    def test_random_graphs(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(1, 40), rng)
            ds = g.degrees()
            edges = list(g.edges())
            assert irregularity(g) == sum(abs(ds[u] - ds[v]) for u, v in edges)
            assert zagreb_m2(g) == sum(ds[u] * ds[v] for u, v in edges)
            assert zagreb_m1_edge_form(g) == sum(ds[u] + ds[v] for u, v in edges)


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


class TestComplementInvariance:
    def test_exhaustive_n4(self):
        for g in enumerate_labeled_graphs(4):
            assert graph_total_irregularity(complement(g)) == graph_total_irregularity(g)

    def test_random(self, rng):
        for _ in range(50):
            g = random_graph(rng.randint(1, 20), rng)
            assert graph_total_irregularity(complement(g)) == graph_total_irregularity(g)
