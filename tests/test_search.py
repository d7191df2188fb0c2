import multiprocessing
import os
from fractions import Fraction

import pytest

from totirr import (
    FalsificationError,
    InputError,
    ProductKind,
    bound_theorem1,
    enumerate_labeled_graphs,
    graph_total_irregularity,
    num_labeled_graphs,
    parse_graph6,
    probe_open_problem,
    sweep_operation_bounds,
    verify_theorem1,
)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (5, 1024)])
    def test_counts(self, n, count):
        assert num_labeled_graphs(n) == count
        assert sum(1 for _ in enumerate_labeled_graphs(n)) == count

    def test_no_duplicates(self):
        graphs = list(enumerate_labeled_graphs(4))
        assert len(set(graphs)) == len(graphs)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            list(enumerate_labeled_graphs(0))
        with pytest.raises(InputError):
            list(enumerate_labeled_graphs(9))

    def test_n8_requires_opt_in(self):
        with pytest.raises(InputError, match="allow_large"):
            next(enumerate_labeled_graphs(8))

    def test_lexicographic_order(self):
        graphs = list(enumerate_labeled_graphs(2))
        assert graphs[0].m == 0 and graphs[1].m == 1


class TestVerifyTheorem1:
    @pytest.mark.parametrize("n,expected", [(4, 6), (5, 14), (6, 26)])
    def test_maxima(self, n, expected):
        outcome = verify_theorem1(n)
        assert outcome.max_value == expected == bound_theorem1(n)
        assert outcome.cases_examined == num_labeled_graphs(n)

    def test_witness_reproduces_value(self):
        outcome = verify_theorem1(5)
        witness = parse_graph6(outcome.witness[0])
        assert graph_total_irregularity(witness) == outcome.max_value

    def test_workers_agree(self):
        single = verify_theorem1(6, workers=1)
        multi = verify_theorem1(6, workers=4)
        assert single == multi


class TestSweep:
    def test_join_3_2_sharp(self):
        outcome = sweep_operation_bounds(ProductKind.JOIN, 3, 2)
        assert outcome.min_slack == 0
        assert outcome.cases_examined == 8 * 2
        g = parse_graph6(outcome.witness[0])
        h = parse_graph6(outcome.witness[1])
        assert g.n == 3 and h.n == 2

    def test_cartesian_1_1_trivial(self):
        outcome = sweep_operation_bounds(ProductKind.CARTESIAN, 1, 1)
        assert outcome.min_slack == 0

    def test_direct_3_3_sound(self):
        outcome = sweep_operation_bounds(ProductKind.DIRECT, 3, 3)
        assert outcome.cases_examined == 8 * 8
        assert outcome.min_slack is not None and outcome.min_slack >= 0
        assert outcome.max_ratio is not None and outcome.max_ratio <= 1

    def test_workers_agree(self):
        single = sweep_operation_bounds(ProductKind.STRONG, 3, 3, workers=1)
        multi = sweep_operation_bounds(ProductKind.STRONG, 3, 3, workers=3)
        assert single == multi

    def test_size_cap(self):
        with pytest.raises(InputError):
            sweep_operation_bounds(ProductKind.JOIN, 5, 2)


class TestProbe:
    def test_deterministic_battery_reports_tight_case(self):
        # an edgeless first operand makes the disjunction bound exact
        outcome = probe_open_problem(ProductKind.DISJUNCTION, 4, 4, samples=0, seed=1)
        assert outcome.max_ratio == Fraction(1)

    def test_battery_only_accounting(self):
        outcome = probe_open_problem(ProductKind.SYMDIFF, 3, 3, samples=0, seed=1)
        assert outcome.cases_examined == 25  # 5 x 5 battery at n >= 2

    def test_soundness_and_reproducibility(self):
        a = probe_open_problem(ProductKind.SYMDIFF, 4, 4, samples=500, seed=42)
        b = probe_open_problem(ProductKind.SYMDIFF, 4, 4, samples=500, seed=42)
        assert a == b
        assert a.max_ratio is not None and a.max_ratio <= 1

    def test_seed_changes_samples(self):
        a = probe_open_problem(ProductKind.SYMDIFF, 4, 4, samples=200, seed=1)
        b = probe_open_problem(ProductKind.SYMDIFF, 4, 4, samples=200, seed=2)
        # extrema may coincide, but the runs must at least be well-formed
        assert a.cases_examined == b.cases_examined

    def test_witness_reproduces_ratio(self):
        outcome = probe_open_problem(ProductKind.DISJUNCTION, 4, 3, samples=300, seed=7)
        from totirr import apply_product
        from totirr.bounds import _bound_formula

        g = parse_graph6(outcome.witness[0])
        h = parse_graph6(outcome.witness[1])
        actual = graph_total_irregularity(apply_product(ProductKind.DISJUNCTION, g, h))
        tg = graph_total_irregularity(g)
        th = graph_total_irregularity(h)
        bound = _bound_formula(ProductKind.DISJUNCTION, g.n, g.m, h.n, h.m, tg, th)
        assert Fraction(actual, bound) == outcome.max_ratio

    def test_rejects_wrong_kind(self):
        with pytest.raises(InputError):
            probe_open_problem(ProductKind.JOIN, 3, 3, samples=1, seed=0)

    def test_rejects_oversized(self):
        with pytest.raises(InputError):
            probe_open_problem(ProductKind.SYMDIFF, 65, 64, samples=1, seed=0)


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -1, 257])
    def test_rejects_out_of_range(self, workers):
        with pytest.raises(InputError, match="workers"):
            verify_theorem1(4, workers=workers)
        with pytest.raises(InputError, match="workers"):
            sweep_operation_bounds(ProductKind.JOIN, 2, 2, workers=workers)

    @pytest.mark.parametrize("cores,size", [(2, 2), (None, 1), (64, 8)])
    def test_pool_has_at_most_one_process_per_core(self, cores, size, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, tasks):
                return [fn(*task) for task in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        # eight blocks are still scanned and reduced, whatever the pool size
        assert verify_theorem1(5, workers=8) == verify_theorem1(5, workers=1)
        assert sweep_operation_bounds(ProductKind.JOIN, 3, 2, workers=8) == (
            sweep_operation_bounds(ProductKind.JOIN, 3, 2, workers=1)
        )
        assert sizes == [size, size]
