"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the whole suite is designed to finish in a few minutes.
"""

import io
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from totirr import (
    Graph,
    ProductKind,
    apply_product,
    bound_theorem1,
    complement,
    degree_variance,
    emit_graph6,
    evaluate_bound,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_extremal_total_irr,
    gen_path,
    gen_random_tree,
    gen_star,
    graph_total_irregularity,
    num_labeled_graphs,
    parse_graph6,
    product_degrees,
    total_irregularity_naive,
    verify_theorem1,
    zagreb_m1,
    zagreb_m1_edge_form,
)
from totirr.cli import cli_main

from conftest import labeled_graphs

SEEDS = [11, 22, 33, 44, 55]


def _passed(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def np_random_graph(n, rng):
    upper = np.triu(rng.random((n, n)) < 0.5, k=1)
    return Graph(upper | upper.T)


def random_universe(count=10_000, max_n=64, seed=987654321):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield np_random_graph(int(rng.integers(1, max_n + 1)), rng)


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


def test_criterion_1_theorem1_exhaustive():
    expected = {4: 6, 5: 14, 6: 26, 7: 44}
    start = time.monotonic()
    for n, value in expected.items():
        outcome = verify_theorem1(n)
        assert outcome.max_value == value
        assert outcome.cases_examined == num_labeled_graphs(n)
        witness = parse_graph6(outcome.witness[0])
        assert graph_total_irregularity(witness) == value
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"n<=7 exhaustive search took {elapsed:.1f}s"
    _passed(1, f"exhaustive maxima 6/14/26/44 at n=4..7 in {elapsed:.2f}s")


def test_criterion_2_extremal_construction():
    for n in range(2, 31):
        built = graph_total_irregularity(gen_extremal_total_irr(n))
        assert built == bound_theorem1(n), n
    _passed(2, "extremal construction attains the formula for n = 2..30")


def test_criterion_3_sharpness_fixtures():
    def trees(n):
        yield gen_path(n)
        yield gen_star(n)
        for seed in SEEDS:
            yield gen_random_tree(n, seed)

    checked = 0
    for n1 in range(2, 8):
        for n2 in range(2, n1 + 1):
            for tree in trees(n1):
                assert evaluate_bound(ProductKind.JOIN, tree, gen_complete(n2)).tight, (n1, n2)
                checked += 1
            for tree in trees(n2):
                assert evaluate_bound(ProductKind.CORONA, gen_complete(n1), tree).tight, (n1, n2)
                checked += 1

    closed_forms = {
        ProductKind.LEXICOGRAPHIC: lambda k, l: 2 * k**3 * (l - 2),
        ProductKind.CARTESIAN: lambda k, l: 2 * k**2 * (l - 2),
        ProductKind.STRONG: lambda k, l: 6 * k**2 * (l - 2),
        ProductKind.DIRECT: lambda k, l: 4 * k**2 * (l - 2),
    }
    for kind, formula in closed_forms.items():
        for l in range(3, 9):
            for k in range(3, 9):
                report = evaluate_bound(kind, gen_path(l), gen_cycle(k))
                assert report.actual == formula(k, l), (kind, l, k)
                assert report.tight, (kind, l, k)
                checked += 1
    _passed(3, f"all {checked} sharpness fixtures exactly tight")


def test_criterion_4_soundness_sweep():
    start = time.monotonic()
    checked = 0
    for kind in ProductKind:
        cap = 4 if kind in (ProductKind.JOIN, ProductKind.CARTESIAN, ProductKind.DIRECT) else 3
        pools = {n: labeled_graphs(n) for n in range(1, cap + 1)}
        for n1 in range(1, cap + 1):
            for n2 in range(1, cap + 1):
                for g in pools[n1]:
                    for h in pools[n2]:
                        # evaluate_bound reads the composite's degrees from
                        # product_degrees; the built composite must agree
                        assert apply_product(kind, g, h).degrees() == product_degrees(
                            kind, g.degrees(), h.degrees()
                        )
                        # evaluate_bound raises FalsificationError on any
                        # hypothesis-satisfying violation
                        report = evaluate_bound(kind, g, h)
                        if report.hypothesis_ok:
                            assert report.slack >= 0
                            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0, f"sweep took {elapsed:.1f}s"
    _passed(4, f"zero violations over {checked} hypothesis-satisfying pairs in {elapsed:.1f}s")


def test_criterion_5_oracle_equivalence():
    for g in labeled_graphs(5):
        assert graph_total_irregularity(g) == total_irregularity_naive(g)
    for g in random_universe():
        assert graph_total_irregularity(g) == total_irregularity_naive(g)
    _passed(5, "sorted form equals pairwise oracle on 2^10 + 10^4 graphs")


def test_criterion_6_identity_suite():
    def check(g):
        assert graph_total_irregularity(complement(g)) == graph_total_irregularity(g)
        m1 = zagreb_m1(g)
        assert m1 == zagreb_m1_edge_form(g)
        expected_var = m1 / g.n - (2 * g.m / g.n) ** 2
        assert degree_variance(g) == pytest.approx(expected_var, rel=1e-9, abs=1e-12)

    for g in labeled_graphs(5):
        check(g)
    for g in random_universe():
        check(g)

    # product degree identities, vertexwise against real adjacencies
    pairs = list(itertools.product(labeled_graphs(3), labeled_graphs(3)))
    rng = np.random.default_rng(13579)
    for _ in range(200):
        pairs.append(
            (np_random_graph(int(rng.integers(1, 9)), rng),
             np_random_graph(int(rng.integers(1, 9)), rng))
        )
    for kind in ProductKind:
        for g, h in pairs:
            assert apply_product(kind, g, h).degrees() == product_degrees(
                kind, g.degrees(), h.degrees()
            )
    _passed(6, "complement, Zagreb, variance and product degree identities all hold")


def test_criterion_7_complete_multipartite():
    checked = 0
    for total in range(1, 11):
        for k in range(1, 5):
            for parts in itertools.combinations_with_replacement(range(1, total + 1), k):
                if sum(parts) != total:
                    continue
                closed_form = sum(
                    parts[i] * parts[j] * abs(parts[j] - parts[i])
                    for i in range(len(parts))
                    for j in range(i + 1, len(parts))
                )
                built = graph_total_irregularity(gen_complete_multipartite(parts))
                assert built == closed_form, parts
                checked += 1
    _passed(7, f"complete multipartite closed form exact on {checked} partitions")


def test_criterion_8_graph6_round_trip():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            s = emit_graph6(g)
            assert parse_graph6(s) == g
            assert emit_graph6(parse_graph6(s)) == s
    rng = np.random.default_rng(24680)
    for _ in range(1000):
        g = np_random_graph(int(rng.integers(1, 101)), rng)
        s = emit_graph6(g)
        assert parse_graph6(s) == g
        assert emit_graph6(parse_graph6(s)) == s
    _passed(8, "graph6 round-trip byte-exact on all n<=5 plus 10^3 random graphs")


def test_criterion_9_sweep_determinism():
    outputs = set()
    for workers in ("1", "2", "8"):
        code, text = run_cli(
            "search", "sweep", "--op", "join", "--n1", "4", "--n2", "3",
            "--workers", workers,
        )
        assert code == 0
        outputs.add(text.encode())
    assert len(outputs) == 1
    _passed(9, "sweep output byte-identical at 1, 2 and 8 workers")


def test_criterion_10_open_problem_probe():
    for op in ("disjunction", "symdiff"):
        args = ("search", "probe", "--op", op, "--n1", "4", "--n2", "4",
                "--samples", "10000", "--seed", "1729")
        code_a, a = run_cli(*args)
        code_b, b = run_cli(*args)
        assert code_a == code_b == 0
        assert a.encode() == b.encode()
        from totirr import parse_record

        record = parse_record(a.strip())
        num, _, den = record["max_ratio"].partition("/")
        ratio = Fraction(int(num), int(den) if den else 1)
        assert ratio <= 1
    _passed(10, "probe sound (max_ratio <= 1) and byte-reproducible at 10^4 samples")
