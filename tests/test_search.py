import dataclasses
import io
import multiprocessing
import types
from fractions import Fraction

import numpy as np
import pytest

from totirr import (
    FalsificationError,
    InputError,
    InternalError,
    ProductKind,
    bound_theorem1,
    emit_graph6,
    gen_complete,
    gen_empty,
    graph_from_code,
    graph_total_irregularity,
    num_labeled_graphs,
    parse_graph6,
    probe_open_problem,
    sweep_operation_bounds,
    verify_theorem1,
)
from totirr import bounds, search
from totirr.cli import cli_main
from totirr.indices import total_irregularity_rows
from totirr.search import (
    MAX_PROBE_SAMPLES,
    THEOREM1_MAX_N,
    _block_irregularity,
    _pair_incidence,
    _sorting_network,
)

from conftest import labeled_graphs, paper_bound, traced_peak


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (5, 1024)])
    def test_counts(self, n, count):
        assert num_labeled_graphs(n) == count
        # each set bit of a code is one edge
        assert [g.m for g in labeled_graphs(n)] == [bin(c).count("1") for c in range(count)]

    def test_no_duplicates(self):
        # 2^6 distinct graphs are all the labeled graphs on 4 vertices
        assert len(set(labeled_graphs(4))) == num_labeled_graphs(4) == 64

    @pytest.mark.parametrize(
        "n,code,message",
        [
            (2, 2, r"code must be an integer in \[0, 1\], got 2"),
            (4, 64, r"code must be an integer in \[0, 63\], got 64"),
            (4, 256, r"code must be an integer in \[0, 63\], got 256"),
            (4, -1, r"code must be an integer in \[0, 63\], got -1"),
            (1, 1, r"code must be an integer in \[0, 0\], got 1"),
            (0, 0, "n must be an integer >= 1, got 0"),
            (-1, 0, "n must be an integer >= 1, got -1"),
        ],
        ids=["2-2", "4-64", "4-256", "4--1", "1-1", "0-0", "-1-0"],
    )
    def test_code_out_of_range(self, n, code, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            graph_from_code(n, code)

    @pytest.mark.parametrize(
        "n,code,message",
        [
            (3, 1.0, r"code must be an integer in \[0, 7\], got 1.0"),
            (3.0, 1, "n must be an integer >= 1, got 3.0"),
            (3, "1", r"code must be an integer in \[0, 7\], got '1'"),
        ],
        ids=["3-1.0", "3.0-1", "3-1"],
    )
    def test_non_integer_rejected(self, n, code, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            graph_from_code(n, code)

    def test_numpy_integers(self):
        assert graph_from_code(np.int64(3), np.uint8(5)) == graph_from_code(3, 5)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_boundary_codes(self, n):
        assert graph_from_code(n, 0) == gen_empty(n)
        assert graph_from_code(n, num_labeled_graphs(n) - 1) == gen_complete(n)

    def test_lexicographic_order(self):
        # at n = 4 the 6 graph6 bits fill one data byte, 63 + the code
        assert [emit_graph6(g) for g in labeled_graphs(4)] == ["C" + chr(63 + c) for c in range(64)]


@pytest.mark.parametrize("n", range(1, 6))
def test_pair_incidence_gives_degrees(n):
    # the code bits, most significant first, as rows of a bit matrix
    k = n * (n - 1) // 2
    codes = np.arange(num_labeled_graphs(n), dtype=np.int64)
    bits = (codes[:, None] >> np.arange(k - 1, -1, -1, dtype=np.int64)[None, :]) & 1
    degrees = [list(graph_from_code(n, int(c)).degrees()) for c in codes]
    assert (bits @ _pair_incidence(n)).tolist() == degrees
    # and as the sweep pools (int64) and theorem1 tables (int8) build
    # them, bit by bit
    for dtype in (np.int64, np.int16, np.int8):
        table = search._bit_degrees(_pair_incidence(n).astype(dtype))
        assert table.dtype == dtype and table.tolist() == degrees


class TestSortingNetwork:
    @pytest.mark.parametrize("n", range(2, THEOREM1_MAX_N + 1))
    def test_sorts_every_zero_one_input(self, n):
        # the 0-1 principle: a comparator network that sorts all 2^n 0/1
        # vectors sorts every input
        for code in range(1 << n):
            wires = [code >> t & 1 for t in range(n)]
            for i, j in _sorting_network(n):
                assert i < j
                wires[i], wires[j] = min(wires[i], wires[j]), max(wires[i], wires[j])
            assert wires == sorted(wires)

    def test_comparator_counts(self):
        assert [len(_sorting_network(n)) for n in range(2, 9)] == [1, 3, 5, 9, 12, 16, 19]


class TestBlockIrregularity:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_labeled_graph(self, n):
        rows = search._bit_degrees(_pair_incidence(n))
        for dtype in (np.int16, np.int8):
            columns = np.ascontiguousarray(rows.T.astype(dtype))
            got = _block_irregularity(columns, _sorting_network(n))
            assert got.dtype == dtype
            assert got.tolist() == total_irregularity_rows(rows).tolist()

    @pytest.mark.parametrize("n", [7, 8])
    def test_random_rows(self, n):
        rows = np.random.default_rng(1729 + n).integers(0, n, size=(5000, n))
        for dtype in (np.int16, np.int8):
            got = _block_irregularity(rows.T.astype(dtype), _sorting_network(n))
            assert got.dtype == dtype
            assert got.tolist() == total_irregularity_rows(rows).tolist()

    @pytest.mark.parametrize("n", range(2, THEOREM1_MAX_N + 1))
    def test_extreme_rows_in_int8(self, n):
        # rows of 0s and (n-1)s, the largest weighted sums of any degrees
        codes = np.arange(1 << n)
        rows = (n - 1) * (codes[:, None] >> np.arange(n) & 1)
        got = _block_irregularity(rows.T.astype(np.int8), _sorting_network(n))
        assert got.dtype == np.int8
        assert got.tolist() == total_irregularity_rows(rows).tolist()

    def test_int8_holds_every_partial_sum_at_the_cap(self):
        # the terms (n + 1 - 2k)(d_(n+1-k) - d_k) are nonnegative, so the
        # largest partial sum is the whole sum with every difference n - 1;
        # raising THEOREM1_MAX_N past int8's reach fails here
        n = THEOREM1_MAX_N
        largest = (n - 1) * sum(n + 1 - 2 * k for k in range(1, n // 2 + 1))
        assert largest <= np.iinfo(np.int8).max


@pytest.mark.parametrize("n", range(2, 7))
def test_complements_cover_the_upper_half(n):
    # code c's complement is 2^k - 1 - c, the same rows in reverse, so
    # the lowest code of the maximum has top bit 0
    irr = total_irregularity_rows(search._bit_degrees(_pair_incidence(n)))
    assert irr.tolist() == irr[::-1].tolist()
    assert int(np.argmax(irr)) < num_labeled_graphs(n) // 2


class TestVerifyTheorem1:
    @pytest.mark.parametrize("n,expected", [(2, 0), (3, 2), (4, 6), (5, 14), (6, 26), (7, 44)])
    def test_maxima(self, n, expected):
        outcome = verify_theorem1(n)
        assert outcome.max_value == expected == bound_theorem1(n)
        assert outcome.cases_examined == num_labeled_graphs(n)

    def test_witness_reproduces_value(self):
        outcome = verify_theorem1(5)
        witness = parse_graph6(outcome.witness[0])
        assert graph_total_irregularity(witness) == outcome.max_value

    def test_bad_witness_raises_internal_error(self, monkeypatch, capsys):
        # a scorer that reports the bound at code 0, the edgeless graph:
        # the maximum matches, its witness does not, under python -O too
        def bound_at_code_0(columns, network):
            vals = np.zeros(columns.shape[1], dtype=columns.dtype)
            vals[0] = bound_theorem1(len(columns))
            return vals

        monkeypatch.setattr(search, "_block_irregularity", bound_at_code_0)
        with pytest.raises(InternalError, match="witness code 0 at n=5") as excinfo:
            verify_theorem1(5)
        assert not isinstance(excinfo.value, FalsificationError)
        assert cli_main(["search", "theorem1", "--n", "5"], out=io.StringIO()) == 2
        assert capsys.readouterr().err.startswith("internal error: theorem1 witness")

    def test_exhaustive_maximum_above_the_formula_falsifies(self, monkeypatch, capsys):
        # a scorer one above the true value on every code: the scan's
        # maximum then exceeds the closed form
        score = search._block_irregularity
        monkeypatch.setattr(search, "_block_irregularity", lambda *args: score(*args) + 1)
        message = "exhaustive max irr_t at n=4 is 7, formula says 6"
        with pytest.raises(FalsificationError, match=message):
            verify_theorem1(4)
        out = io.StringIO()
        assert cli_main(["search", "theorem1", "--n", "4"], out=out) == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err == f"internal error: {message}\n"

    def test_scores_only_the_lower_half(self, monkeypatch):
        # 2^21 graphs at n = 7; the 2^20 with the top bit set are covered
        # by their complements, and the rest are 16 passes of _BLOCK codes
        scored = []
        score = search._block_irregularity

        def spy(columns, network):
            scored.append(columns.shape)
            return score(columns, network)

        monkeypatch.setattr(search, "_block_irregularity", spy)
        assert verify_theorem1(7).cases_examined == 1 << 21
        assert scored == [(7, search._BLOCK)] * 16
        assert sum(width for _, width in scored) == 1 << 20

    @pytest.mark.parametrize("block", [1, 2, 4, 64, 1024])
    def test_block_size_invariant(self, block, monkeypatch):
        # passes split their codes into mid and low bits, and ties across
        # passes keep the lowest code of the maximum; 2 has one mid bit
        # and no low bits, 1024 a low table narrower than the pass
        sizes = range(3, 8 if block == 1024 else 7)
        default = [verify_theorem1(n) for n in sizes]
        monkeypatch.setattr(search, "_BLOCK", block)
        assert [verify_theorem1(n) for n in sizes] == default

    def test_scan_memory_is_one_pass(self):
        # the (7, 2^16) int8 pass and the scorer's two rows; a low-bit
        # table as wide as the pass peaked at 1.12 MB
        assert traced_peak(lambda: verify_theorem1(7)) < 0.9e6

    def test_n8_needs_no_opt_in(self):
        outcomes = []
        # 0.87 MB; a low-bit table as wide as the pass peaked at 1.27 MB
        assert traced_peak(lambda: outcomes.append(verify_theorem1(8))) < 1.0e6
        (outcome,) = outcomes
        assert (outcome.cases_examined, outcome.max_value) == (1 << 28, 68)
        assert outcome.witness == ("G??Xz{",)

    @pytest.mark.parametrize(
        "n,message",
        [(1, r"n must be an integer in \[2, 8\], got 1"), (9, r"n must be an integer in \[2, 8\], got 9")],
        ids=["n1", "n9"],
    )
    def test_rejects_before_any_scan(self, n, message, monkeypatch):
        def no_scan(*args):
            raise AssertionError("a scan started")

        monkeypatch.setattr(search, "_bit_degrees", no_scan)
        with pytest.raises(InputError, match=message):
            verify_theorem1(n)


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

    def test_size_cap(self):
        with pytest.raises(InputError):
            sweep_operation_bounds(ProductKind.JOIN, 5, 2)

    def test_decodes_only_the_witness(self, monkeypatch):
        # every hypothesis is read from the pools' edge counts, so no pool
        # operand is decoded to test it, for join and corona as for
        # cartesian; only the reported slack pair is
        decoded = []

        def spy(n, code):
            decoded.append((n, code))
            return graph_from_code(n, code)

        monkeypatch.setattr(search, "graph_from_code", spy)
        for kind in (ProductKind.CARTESIAN, ProductKind.JOIN, ProductKind.CORONA):
            decoded.clear()
            outcome = sweep_operation_bounds(kind, 4, 4)
            assert len(decoded) == 2, kind
            assert tuple(emit_graph6(graph_from_code(*x)) for x in decoded) == outcome.witness


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

    def test_seed_changes_samples(self, monkeypatch):
        drawn = []
        sampled = search._sampled_operands

        def spy(n, bits):
            drawn.append(bits.tolist())
            return sampled(n, bits)

        monkeypatch.setattr(search, "_sampled_operands", spy)

        def draws(seed):
            drawn.clear()
            probe_open_problem(ProductKind.SYMDIFF, 4, 4, samples=200, seed=seed)
            return list(drawn)

        first = draws(1)
        # g's rows then h's, 6 graph6 bits each, for every sample
        assert sum(len(rows) for rows in first) == 2 * 200
        assert draws(1) == first
        assert draws(2) != first

    @pytest.mark.parametrize("kind", search.PROBE_KINDS)
    @pytest.mark.parametrize(
        # smaller batches cost one draw and one check per few rows, so
        # they run fewer samples; each batch size draws different bits
        "cells,samples,seeds",
        [(bounds._BATCH_CELLS, 3000, (1, 2, 1729, -5)), (1, 300, (1729,)), (64, 300, (1729,))],
        ids=["default-batch", "1-cell-batch", "64-cell-batch"],
    )
    def test_samples_never_change_a_record(self, kind, cells, samples, seeds, monkeypatch):
        # the battery's edgeless operand already attains both extrema, and
        # it comes first, so the sampled bits change only `cases`
        sizes = [(n1, n2) for n1 in range(1, 6) for n2 in range(1, 6)]
        battery = {(n1, n2): probe_open_problem(kind, n1, n2, samples=0, seed=0) for n1, n2 in sizes}
        monkeypatch.setattr(bounds, "_BATCH_CELLS", cells)
        for (n1, n2), expected in battery.items():
            for seed in seeds:
                outcome = probe_open_problem(kind, n1, n2, samples=samples, seed=seed)
                assert outcome.cases_examined == expected.cases_examined + samples
                same_counts = dict(cases_examined=expected.cases_examined, seed=expected.seed)
                assert dataclasses.replace(outcome, **same_counts) == expected, (n1, n2, seed)

    def test_witness_reproduces_ratio(self):
        outcome = probe_open_problem(ProductKind.DISJUNCTION, 4, 3, samples=300, seed=7)
        from totirr import apply_product

        g = parse_graph6(outcome.witness[0])
        h = parse_graph6(outcome.witness[1])
        actual = graph_total_irregularity(apply_product(ProductKind.DISJUNCTION, g, h))
        tg = graph_total_irregularity(g)
        th = graph_total_irregularity(h)
        bound = paper_bound(ProductKind.DISJUNCTION, g.n, g.m, h.n, h.m, tg, th)
        assert Fraction(actual, bound) == outcome.max_ratio

    def test_rejects_wrong_kind(self):
        with pytest.raises(InputError):
            probe_open_problem(ProductKind.JOIN, 3, 3, samples=1, seed=0)

    def test_rejects_oversized(self):
        with pytest.raises(InputError):
            probe_open_problem(ProductKind.SYMDIFF, 65, 64, samples=1, seed=0)

    # sizes below 1 are rejected before the n1*n2 cap: -100 * -100 is under
    # no cap, and 0 * 4097 is under it
    @pytest.mark.parametrize("n1,n2", [(-100, -100), (0, 4097), (4, 0), (0, 0)])
    def test_rejects_sizes_below_one(self, n1, n2):
        name, value = ("n1", n1) if n1 < 1 else ("n2", n2)
        with pytest.raises(InputError, match=f"^{name} must be an integer >= 1, got {value}$"):
            probe_open_problem(ProductKind.SYMDIFF, n1, n2, samples=1, seed=0)

    def test_sample_cap_checked_before_sampling(self, monkeypatch):
        monkeypatch.setattr(search, "random", types.SimpleNamespace(Random=no_sampling))
        samples = MAX_PROBE_SAMPLES + 1
        with pytest.raises(InputError, match=rf"samples must be an integer in \[0, {MAX_PROBE_SAMPLES}\], got {samples}"):
            probe_open_problem(ProductKind.SYMDIFF, 4, 4, samples=samples, seed=0)


def no_sampling(seed):
    raise AssertionError("the probe started sampling")


class TestWorkers:
    @pytest.mark.parametrize("workers", [2, 8, 256])
    def test_sweep_starts_no_pool(self, workers, monkeypatch):
        # theorem1 and sweeps both run in the calling process; --workers,
        # kept on the CLI, changes neither that nor the result
        def run(*argv):
            out = io.StringIO()
            assert cli_main(["search", *argv], out=out) == 0
            return out.getvalue()

        sweep = ("sweep", "--op", "join", "--n1", "4", "--n2", "4", "--workers")
        theorem1 = ("theorem1", "--n", "6", "--workers")
        single = run(*sweep, "1")
        scan = run(*theorem1, "1")

        def no_pool(*args, **kwargs):
            raise AssertionError("a search started a process pool")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        assert run(*sweep, str(workers)) == single
        assert run(*theorem1, str(workers)) == scan
