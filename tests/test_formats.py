import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from totirr import (
    EdgeListParseError,
    Graph,
    Graph6ParseError,
    InputError,
    emit_graph6,
    format_record,
    gen_complete,
    gen_empty,
    gen_path,
    parse_edge_list,
    parse_graph6,
    parse_record,
)
from totirr.formats import graph_from_bits, triangle_mask
from totirr.search import graph_from_code

from conftest import edges, labeled_graphs, random_graph


class TestGraph6Parse:
    def test_k3(self):
        assert parse_graph6("Bw") == gen_complete(3)

    def test_p3(self):
        g = parse_graph6("Bg")
        assert g.adjacency[0, 1] and g.adjacency[1, 2] and not g.adjacency[0, 2]

    def test_k1(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0

    def test_optional_header_stripped(self):
        assert parse_graph6(">>graph6<<Bw") == gen_complete(3)

    def test_bad_byte(self):
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6("B\x1f")
        assert exc.value.offset == 1

    def test_nonzero_padding(self):
        # P_3 payload is 101000; flip a padding bit: 101001 -> 41 + 63 = 'h'
        with pytest.raises(Graph6ParseError, match="padding"):
            parse_graph6("Bh")

    # G(65) has 2080 bits: 347 payload bytes after the 4-byte header, the
    # last one ending in 2 padding bits
    EMPTY_65 = emit_graph6(gen_empty(65))

    @pytest.mark.parametrize("index", [0, 100, 346])
    def test_bad_byte_extended_header(self, index):
        s = self.EMPTY_65
        pos = 4 + index
        with pytest.raises(Graph6ParseError, match="byte 31 outside") as exc:
            parse_graph6(s[:pos] + "\x1f" + s[pos + 1 :])
        assert exc.value.offset == pos

    def test_nonzero_padding_extended_header(self):
        with pytest.raises(Graph6ParseError, match="padding") as exc:
            parse_graph6(self.EMPTY_65[:-1] + "@")  # '@' - 63 = 000001
        assert exc.value.offset == 4 + 346

    @pytest.mark.parametrize(
        "s,offset",
        [
            ("Cé", 1),
            ("éw", 0),
            (">>graph6<<Cé", 11),
            (EMPTY_65[:2] + "é" + EMPTY_65[3:], 2),
            (EMPTY_65[:100] + "\udcff" + EMPTY_65[101:], 100),
        ],
        ids=["payload", "header", "prefixed-payload", "extended-header", "surrogate-payload"],
    )
    def test_non_ascii_character(self, s, offset):
        with pytest.raises(Graph6ParseError, match="non-ASCII") as exc:
            parse_graph6(s)
        assert exc.value.offset == offset

    @pytest.mark.parametrize(
        "s,offset",
        [(">>graph6<<C!", 11), (">>graph6<<", 10), (">>graph6<<~?", 12), (">>graph6<<Bww", 12)],
        ids=["payload", "empty", "extended-header", "trailing"],
    )
    def test_prefixed_offsets_count_the_prefix(self, s, offset):
        with pytest.raises(Graph6ParseError, match=rf"\(byte offset {offset}\)$") as exc:
            parse_graph6(s)
        assert exc.value.offset == offset

    # any character, but half of them headers and payload bytes of small
    # graphs, so that parseable strings come up often
    @given(
        st.sampled_from(["", ">>graph6<<"]),
        st.text(st.one_of(st.sampled_from("?@ABC_w~"), st.characters())),
    )
    def test_accepts_only_printable_graph6_bytes(self, prefix, body):
        try:
            parse_graph6(prefix + body)
        except Graph6ParseError:
            return
        assert all(63 <= ord(c) <= 126 for c in body)

    @given(st.data())
    def test_any_character_outside_range_rejected_at_its_offset(self, data):
        n = data.draw(st.integers(1, 66), label="n")
        code = data.draw(st.integers(0, 2 ** (n * (n - 1) // 2) - 1), label="code")
        s = emit_graph6(graph_from_code(n, code))
        i = data.draw(st.integers(0, len(s) - 1), label="i")
        c = data.draw(st.characters().filter(lambda c: not 63 <= ord(c) <= 126), label="c")
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6(s[:i] + c + s[i + 1 :])
        assert exc.value.offset == i

    def test_truncated_payload(self):
        with pytest.raises(Graph6ParseError, match="truncated"):
            parse_graph6("D")

    def test_trailing_bytes(self):
        with pytest.raises(Graph6ParseError, match="trailing"):
            parse_graph6("Bww")

    @pytest.mark.parametrize("s", ["~", "~?", "~??"])
    def test_truncated_extended_header(self, s):
        with pytest.raises(Graph6ParseError, match=r"truncated extended header \(byte offset \d\)$") as exc:
            parse_graph6(s)
        assert exc.value.offset == len(s)

    def test_huge_header_rejected(self):
        with pytest.raises(Graph6ParseError, match="huge"):
            parse_graph6("~~?????")

    def test_empty_string(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("")


class TestGraph6RoundTrip:
    def test_exhaustive_small(self):
        for n in range(1, 5):
            for g in labeled_graphs(n):
                s = emit_graph6(g)
                assert parse_graph6(s) == g
                assert emit_graph6(parse_graph6(s)) == s

    def test_random_large(self, rng):
        for _ in range(50):
            g = random_graph(rng.randint(1, 90), rng)
            assert parse_graph6(emit_graph6(g)) == g

    def test_extended_header_range(self, rng):
        g = random_graph(70, rng)
        s = emit_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g

    def test_random_at_cap(self):
        rng = np.random.default_rng(4096)
        upper = np.triu(rng.integers(0, 2, size=(4096, 4096), dtype=bool), 1)
        g = Graph(upper | upper.T)
        s = emit_graph6(g)
        assert len(s) == 4 + 4096 * 4095 // 12
        assert parse_graph6(s) == g

    def test_agrees_with_networkx(self, rng):
        for _ in range(40):
            g = random_graph(rng.randint(1, 40), rng)
            ours = emit_graph6(g)
            ref = nx.to_graph6_bytes(
                nx.from_numpy_array(g.adjacency), header=False
            ).decode().strip()
            assert ours == ref

    def test_parse_agrees_with_networkx(self, rng):
        for _ in range(40):
            ref_graph = nx.gnp_random_graph(rng.randint(1, 30), 0.4, seed=rng.randint(0, 10**9))
            s = nx.to_graph6_bytes(ref_graph, header=False).decode().strip()
            g = parse_graph6(s)
            assert g.n == ref_graph.number_of_nodes()
            assert set(edges(g)) == {tuple(sorted(e)) for e in ref_graph.edges()}


# k = n(n-1)/2 takes 16 residues mod 24 (the bits in a group of 4 payload
# bytes), with period 48 in n: the smallest n for each, and the same n + 96,
# which has an extended header
RESIDUE_NS = sorted({n * (n - 1) // 2 % 24: n for n in range(48, 0, -1)}.values())


def padding_width(n):
    return -(n * (n - 1) // 2) % 6


class TestGraph6Regrouping:
    def test_residues_cover_every_k_mod_24(self):
        assert len(RESIDUE_NS) == len({n * (n - 1) // 2 % 24 for n in range(1, 4097)}) == 16

    @pytest.mark.parametrize("n", RESIDUE_NS + [n + 96 for n in RESIDUE_NS])
    def test_round_trip_and_networkx(self, n, rng):
        for _ in range(3):
            g = random_graph(n, rng)
            s = emit_graph6(g)
            ref = nx.to_graph6_bytes(nx.from_numpy_array(g.adjacency), header=False).decode().strip()
            assert s == ref
            assert parse_graph6(ref) == g

    # triangular numbers are never 2 mod 3, so the last payload byte ends
    # in 0, 2, 3 or 5 padding bits, never 1 or 4
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_each_nonzero_padding_bit_rejected(self, width):
        ns = [n for n in range(1, 4097) if padding_width(n) == width]
        if width in (1, 4):
            assert ns == []
            return
        for n in (ns[0], next(n for n in ns if n > 62)):
            s = emit_graph6(gen_complete(n))
            last = ord(s[-1]) - 63
            assert last & ((1 << width) - 1) == 0
            for bit in range(width):
                with pytest.raises(Graph6ParseError, match="padding") as exc:
                    parse_graph6(s[:-1] + chr((last | 1 << bit) + 63))
                assert exc.value.offset == len(s) - 1


def graph_from_bits_by_transposed_scatter(n, bits):
    """The adjacency from graph6-order bits by one scatter into each
    triangle, the second through adj.T: the oracle for the tiled mirror."""
    mask = triangle_mask(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[mask] = adj.T[mask] = np.asarray(bits, dtype=bool)
    return adj


# the mirror copies tiles of SYMMETRY_TILE = 256 rows and columns
@pytest.mark.parametrize("n", [255, 256, 257, 513])
def test_graph_from_bits_matches_transposed_scatter(n):
    bits = np.random.default_rng(n).integers(0, 2, n * (n - 1) // 2).astype(bool)
    assert np.array_equal(graph_from_bits(n, bits).adjacency, graph_from_bits_by_transposed_scatter(n, bits))


def graph6_from_code(n, code):
    """graph6 string whose payload carries the k = n(n-1)/2 bits of code,
    most significant first, then zero padding."""
    k = n * (n - 1) // 2
    bits = format(code, f"0{k}b") if k else ""  # format(0, "00b") is "0"
    bits += "0" * (-k % 6)
    header = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    return header + "".join(chr(int(bits[t : t + 6], 2) + 63) for t in range(0, len(bits), 6))


@pytest.mark.parametrize("n", [1, 5, 64, 300])
def test_code_decodes_like_graph6_payload(n):
    code = random.Random(n).getrandbits(n * (n - 1) // 2)
    g = graph_from_code(n, code)
    assert g == parse_graph6(graph6_from_code(n, code))
    assert g.m == bin(code).count("1")


class TestEdgeList:
    def test_p3(self):
        assert parse_edge_list("n 3\n0 1\n1 2") == gen_path(3)

    def test_comments_and_blanks(self):
        g = parse_edge_list("n 2\n\n# no edges\n")
        assert g.n == 2 and g.m == 0

    def test_self_loop_line_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("n 3\n0 0")
        assert exc.value.line == 2

    def test_missing_header(self):
        with pytest.raises(EdgeListParseError, match="header"):
            parse_edge_list("0 1\n")

    def test_malformed_line(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("n 3\n0 1 2")
        assert exc.value.line == 2

    def test_out_of_range(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("n 2\n0 5")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text,line",
        [
            ("n 1_0\n0 9\n", 1),
            ("n \u0663\n", 1),
            ("n +3\n1 +2\n", 1),
            ("n 3\n1 +2\n", 2),
            ("n 3\n0 -1\n", 2),
            ("n 12\n1_0 2\n", 2),
            ("n 3\n0 \u0662\n", 2),
        ],
        ids=["count-underscore", "count-arabic-indic", "count-sign", "endpoint-sign",
             "endpoint-minus", "endpoint-underscore", "endpoint-arabic-indic"],
    )
    def test_only_ascii_decimal_numbers(self, text, line):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(text)
        assert exc.value.line == line


class TestRecords:
    def test_round_trip(self):
        line = format_record(
            [
                ("task", "bound"),
                ("kind", "join"),
                ("actual", 6),
                ("tight", True),
                ("ratio", Fraction(3, 4)),
                ("cs", 0.232050807569),
                ("missing", None),
            ]
        )
        parsed = parse_record(line)
        assert list(parsed) == ["task", "kind", "actual", "tight", "ratio", "cs", "missing"]
        assert parsed["actual"] == "6"
        assert parsed["tight"] == "true"
        assert parsed["ratio"] == "3/4"
        assert parsed["missing"] == "na"

    def test_float_12_significant_digits(self):
        line = format_record([("value", 0.23205080756887720)])
        assert line == "value=0.232050807569"

    def test_malformed_token(self):
        with pytest.raises(InputError):
            parse_record("keyvalue")
