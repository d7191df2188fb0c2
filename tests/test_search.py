import io
import multiprocessing
import random
import types
from fractions import Fraction

import numpy as np
import pytest

from totirr import (
    FalsificationError,
    InputError,
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
from totirr import search
from totirr.cli import cli_main
from totirr.search import MAX_PROBE_SAMPLES, _BATCH_CELLS, _pair_incidence, _random_bits

from conftest import labeled_graphs


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (5, 1024)])
    def test_counts(self, n, count):
        assert num_labeled_graphs(n) == count
        # each set bit of a code is one edge
        assert [g.m for g in labeled_graphs(n)] == [bin(c).count("1") for c in range(count)]

    def test_no_duplicates(self):
        # 2^6 distinct graphs are all the labeled graphs on 4 vertices
        assert len(set(labeled_graphs(4))) == num_labeled_graphs(4) == 64

    @pytest.mark.parametrize("n,code", [(2, 2), (4, 64), (4, 256), (4, -1), (1, 1), (0, 0), (-1, 0)])
    def test_code_out_of_range(self, n, code):
        with pytest.raises(InputError, match=f"got n = {n}, code = {code}"):
            graph_from_code(n, code)

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
    # and as the theorem1 table and the sweep pools build them, bit by bit
    assert search._bit_degrees(_pair_incidence(n)).tolist() == degrees


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

    @pytest.mark.parametrize("block", [1, 4, 64])
    def test_block_size_invariant(self, block, monkeypatch):
        # every block shares the low-bit degree table, and ties across
        # blocks keep the lowest code of the maximum
        default = [verify_theorem1(n) for n in range(3, 7)]
        monkeypatch.setattr(search, "_BLOCK", block)
        assert [verify_theorem1(n) for n in range(3, 7)] == default

    @pytest.mark.parametrize(
        "n,message",
        [(1, "supports 2 <= n <= 8, got 1"), (9, "supports 2 <= n <= 8, got 9"), (8, "allow_large")],
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
        # cartesian has no connectivity hypothesis, so no pool operand is
        # decoded to test it; only the reported slack pair is
        decoded = []

        def spy(n, code):
            decoded.append((n, code))
            return graph_from_code(n, code)

        monkeypatch.setattr(search, "graph_from_code", spy)
        outcome = sweep_operation_bounds(ProductKind.CARTESIAN, 4, 4)
        assert len(decoded) == 2
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

    # sizes below 1 are rejected before the n1*n2 cap: -100 * -100 is under
    # no cap, and 0 * 4097 is under it
    @pytest.mark.parametrize("n1,n2", [(-100, -100), (0, 4097), (4, 0), (0, 0)])
    def test_rejects_sizes_below_one(self, n1, n2):
        with pytest.raises(InputError, match=f"probe requires n1, n2 >= 1, got {n1}, {n2}"):
            probe_open_problem(ProductKind.SYMDIFF, n1, n2, samples=1, seed=0)

    def test_sample_cap_checked_before_sampling(self, monkeypatch):
        monkeypatch.setattr(search, "random", types.SimpleNamespace(Random=no_sampling))
        samples = MAX_PROBE_SAMPLES + 1
        with pytest.raises(InputError, match=f"samples must be <= {MAX_PROBE_SAMPLES}, got {samples}"):
            probe_open_problem(ProductKind.SYMDIFF, 4, 4, samples=samples, seed=0)


def no_sampling(seed):
    raise AssertionError("the probe started sampling")


class TestRandomBits:
    """_random_bits(rng, c) draws the same bits as c calls of
    rng.getrandbits(1), the probe's per-bit stream, and leaves rng in the
    same state."""

    @pytest.mark.parametrize("seed", [1729, 5, 0])
    @pytest.mark.parametrize(
        # 0 bits: a pair of 1-vertex operands; 12: a pair at 4x4; the
        # rest end one bit short of, at, and past chunk boundaries
        "counts",
        [[0], [12, 0, 12], [_BATCH_CELLS - 1, 2], [_BATCH_CELLS, 1], [2 * _BATCH_CELLS + 5]],
    )
    def test_matches_per_bit_draws(self, seed, counts):
        chunked, per_bit = random.Random(seed), random.Random(seed)
        for count in counts:
            bits = _random_bits(chunked, count)
            assert bits.tolist() == [per_bit.getrandbits(1) for _ in range(count)]
            assert chunked.getstate() == per_bit.getstate()
        assert chunked.random() == per_bit.random()


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
