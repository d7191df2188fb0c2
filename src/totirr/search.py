"""Exhaustive and randomized verification engines.

Labeled graphs on n vertices are identified with integer codes
0 .. 2^(n(n-1)/2)-1 whose bits, most significant first, are the
upper-triangle adjacency entries in graph6 order; `formats.triangle_mask`
owns that order and codes decode through `formats.graph_from_bits`.
The brute-force maximum scan (2 <= n <= 8) and the bound sweeps run
over contiguous code ranges, in the calling process.  A graph's degrees
are linear in its code bits, so the theorem1 scan builds each pass of
_BLOCK codes as the sum of three degree tables: one row for the pass's
top bits, 4 columns for its next two (mid) bits and a quarter-pass
table for the low bits, the last two shared by every pass.  It
keeps the lowest code of the maximum.  A graph and its complement have
the same irr_t (degrees d -> n-1-d), so the scan scores only the codes
whose most significant bit is 0: every other code's complement is
lower.  The pass is the one table of _BLOCK columns, int8, one row per
vertex and one column per code: a Batcher odd-even merge
network (`_sorting_network`) sorts every code's degrees at once, one
`np.minimum`/`np.maximum` pair per comparator, and irr_t is the
weighted sum of the sorted rows.

Sweeps and the probe score operand pairs as rows.  Each side is a
`bounds.Operands` pool of int64 degree rows: the codes (sweep), the
battery (probe), or each sample's bits from one `rng.randbytes` call per
batch (probe); `_degree_rows` is the one map from graph6 bits to degrees.
Pairs are scored in batches of rows, one `BoundScan.check` call each,
walked by `bounds.pair_batches` and sized by one rule: about
`bounds._BATCH_CELLS` array cells per call.  `BoundScan.check_all`
walks every pair of two pools so (a sweep's codes, the probe's
battery), and the probe draws and scores its samples a batch at a
time, so no scan's memory grows with its pools or its sample count.
Every hypothesis is read from the pools' edge counts, so a Graph is
built only for a witness or a falsification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .errors import FalsificationError, InputError, InternalError
from .bounds import INT64_MAX_PAIR, BoundScan, Operands, bound_theorem1, pair_batches
from .formats import emit_graph6, graph_from_bits, triangle_mask
from .families import (
    gen_complete,
    gen_empty,
    gen_extremal_total_irr,
    gen_path,
    gen_star,
)
from .graph import Graph
from .indices import graph_total_irregularity

# apply_product is not called here; perfbench/tracing.py wraps the name
# totirr.search.apply_product, so it stays importable from this module
from .products import ProductKind, apply_product  # noqa: F401

THEOREM1_MAX_N = 8
MAX_PROBE_SAMPLES = 10**7
PROBE_KINDS = (ProductKind.DISJUNCTION, ProductKind.SYMDIFF)
# codes per theorem1 pass; a power of two, so passes share their mid- and low-bit tables
_BLOCK = 1 << 16


def num_labeled_graphs(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def graph_from_code(n: int, code: int) -> Graph:
    """Decode an enumeration code, 0 <= code < num_labeled_graphs(n),
    into a Graph."""
    k = n * (n - 1) // 2
    if n < 1 or not 0 <= code < num_labeled_graphs(n):
        raise InputError(f"need n >= 1 and 0 <= code < 2^{k}, got n = {n}, code = {code}")
    width = (k + 7) // 8
    bits = np.unpackbits(np.frombuffer(code.to_bytes(width, "big"), dtype=np.uint8))
    return graph_from_bits(n, bits[8 * width - k :])


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one exhaustive or randomized verification task."""

    task: str
    n1: int
    n2: Optional[int]
    cases_examined: int
    max_value: Optional[int] = None
    min_slack: Optional[int] = None
    max_ratio: Optional[Fraction] = None
    witness: Tuple[str, ...] = ()
    seed: Optional[int] = None


def _degree_rows(n: int, bits: np.ndarray) -> np.ndarray:
    """int64 degree rows of the n-vertex graphs whose graph6 bits are the rows of `bits`."""
    adj = np.zeros((len(bits), n, n), dtype=bool)
    # a mask of the array's full shape is scattered directly; adj[:, mask]
    # would first expand the mask to index arrays, 134 MB at n = 4096
    adj[np.broadcast_to(triangle_mask(n), adj.shape)] = bits.ravel()
    return adj.sum(axis=1, dtype=np.int64) + adj.sum(axis=2, dtype=np.int64)


def _pair_incidence(n: int) -> np.ndarray:
    """k x n 0/1 bit-to-degree matrix: the k one-edge graphs' degree rows."""
    return _degree_rows(n, np.eye(n * (n - 1) // 2, dtype=bool))


def _bit_degrees(incidence: np.ndarray) -> np.ndarray:
    """Degree rows of all 2^m bit strings over the m pairs that are the
    rows of `incidence`, first row most significant, in order of value,
    in the dtype of `incidence`."""
    degrees = np.zeros((1, incidence.shape[1]), dtype=incidence.dtype)
    # a leading 1 adds its pair to each string of the bits after it
    for pair in incidence[::-1]:
        degrees = np.concatenate([degrees, degrees + pair])
    return degrees


def _sorting_network(n: int) -> List[Tuple[int, int]]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort on n
    wires, in order: after each puts the smaller value on wire i, every
    input ends ascending (Batcher 1968; Knuth, TAOCP vol. 3, 5.2.2
    Algorithm M and 5.3.4).  1, 3, 5, 9, 12, 16, 19 comparators for
    n = 2..8."""
    network = []
    # Knuth's p = 2^(t-1), with t = ceil(lg n) passes
    top = 1 << (n - 1).bit_length() >> 1
    p = top
    while p:
        q, r, d = top, 0, p
        while True:
            network += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return network


def _block_irregularity(columns: np.ndarray, network: List[Tuple[int, int]]) -> np.ndarray:
    """Total irregularity of each column of an (n, codes) degree table,
    n >= 1, in its dtype; `network` is `_sorting_network(n)`.  Overwrites
    `columns`.

    int8 is exact for n <= 8: degrees are at most 7, every term
    (n + 1 - 2k)(d_(n+1-k) - d_k) is nonnegative, and the coefficients
    7 + 5 + 3 + 1 sum to 16, so no partial sum exceeds 112.
    """
    n = len(columns)
    wires = list(columns)
    spare = np.empty_like(wires[0])
    for i, j in network:
        np.minimum(wires[i], wires[j], out=spare)
        np.maximum(wires[i], wires[j], out=wires[j])
        wires[i], spare = spare, wires[i]
    # sum over ascending k of (2k - n - 1) d_k, paired as (n + 1 - 2k)(d_(n+1-k) - d_k)
    irr = np.zeros_like(spare)
    for k in range(n // 2):
        np.subtract(wires[n - 1 - k], wires[k], out=spare)
        spare *= n - 1 - 2 * k
        irr += spare
    return irr


def verify_theorem1(n: int) -> SearchOutcome:
    """Brute-force the maximum total irregularity over all labeled graphs
    on n vertices, 2 <= n <= THEOREM1_MAX_N, and check it equals the
    closed-form bound.  n outside that range raises InputError before
    any table is built.

    Only the codes below 2^(k-1), k = n(n-1)/2, are scored: each code
    above has a lower complement with the same irr_t, so the maximum and
    its lowest code are those of all 2^k graphs, and `cases` counts them
    all, half scored and half covered by their complements.  Each pass
    of _BLOCK codes is one int8 table, a row per vertex and a column per
    code, filled by one broadcast add of its top bits' degree row, the
    mid-bit table and the low-bit table, and scored by
    `_block_irregularity`; the witness is the lowest code of the
    maximum.  A mismatch would falsify the bound and raises
    FalsificationError; a witness that does not reproduce the maximum
    raises InternalError.
    """
    if not 2 <= n <= THEOREM1_MAX_N:
        raise InputError(f"verify_theorem1 supports 2 <= n <= {THEOREM1_MAX_N}, got {n}")
    total = num_labeled_graphs(n)
    # the most significant pair is dropped: only its 0 half is scored.
    # Degrees are below n <= 8, so int8 degrees and irr_t sums are exact
    incidence = _pair_incidence(n)[1:].astype(np.int8)
    # a pass's codes share their top bits; within a pass, code m * L + j,
    # L the low table's width, has the mid bits of m and the low bits of
    # j, so its degrees are the sum of three rows, and C order over
    # (vertex, mid, low) is code order.  Two mid bits keep the low table at
    # a quarter of the pass, long enough for the inner broadcast (2^8
    # columns made n = 8 about 20% slower)
    split = max(0, len(incidence) - (_BLOCK.bit_length() - 1))
    mid_split = min(split + 2, len(incidence))
    mid = _bit_degrees(incidence[split:mid_split]).T
    # a copy, not a .T view: the inner broadcast then reads contiguous rows
    low = np.ascontiguousarray(_bit_degrees(incidence[mid_split:]).T)
    block = np.empty((n, mid.shape[1], low.shape[1]), dtype=np.int8)
    columns = block.reshape(n, -1)
    network = _sorting_network(n)
    best_val, best_code = -1, 0
    for i, top in enumerate(_bit_degrees(incidence[:split])):
        np.add((mid + top[:, None])[:, :, None], low[:, None, :], out=block)
        vals = _block_irregularity(columns, network)
        idx = int(np.argmax(vals))
        # strictly greater: on ties the earlier pass's lower code stays
        if vals[idx] > best_val:
            best_val, best_code = int(vals[idx]), i * columns.shape[1] + idx
    expected = bound_theorem1(n)
    if best_val != expected:
        raise FalsificationError(
            f"exhaustive max irr_t at n={n} is {best_val}, formula says {expected}"
        )
    witness = graph_from_code(n, best_code)
    if graph_total_irregularity(witness) != best_val:
        raise InternalError(f"theorem1 witness code {best_code} at n={n} does not give {best_val}")
    return SearchOutcome(
        task="theorem1",
        n1=n,
        n2=None,
        cases_examined=total,
        max_value=best_val,
        witness=(emit_graph6(witness),),
    )


def _labeled_operands(n: int) -> Operands:
    """Every labeled graph on n vertices, row i the graph with code i."""
    return Operands(_bit_degrees(_pair_incidence(n)), lambda code: graph_from_code(n, code))


def sweep_operation_bounds(kind: ProductKind, n1: int, n2: int) -> SearchOutcome:
    """Exhaustively check one operation's bound over every pair of labeled
    graphs on (n1, n2) vertices.

    Reports the minimum slack among hypothesis-satisfying pairs (zero
    confirms a sharpness witness inside the swept universe) and the max
    actual/bound ratio over pairs with positive bound.
    """
    kind = ProductKind(kind)
    if not (1 <= n1 <= 4 and 1 <= n2 <= 4):
        raise InputError(f"exhaustive sweeps support n1, n2 in [1, 4], got {n1}, {n2}")
    g, h = _labeled_operands(n1), _labeled_operands(n2)
    scan = BoundScan(kind)
    scan.check_all(g, h)
    return SearchOutcome(
        task="sweep",
        n1=n1,
        n2=n2,
        cases_examined=len(g) * len(h),
        min_slack=scan.min_slack,
        max_ratio=scan.max_ratio,
        witness=tuple(emit_graph6(x) for x in scan.slack_pair or ()),
    )


def _deterministic_battery(n: int) -> List[Graph]:
    """Named extreme families on n vertices, always probed before sampling."""
    battery = [gen_empty(n), gen_path(n), gen_star(n), gen_complete(n)]
    if n >= 2:
        battery.append(gen_extremal_total_irr(n))
    return battery


def _sampled_operands(n: int, bits: np.ndarray) -> Operands:
    """The graphs on n vertices whose graph6 bits are the rows of `bits`."""
    return Operands(_degree_rows(n, bits), lambda i: graph_from_bits(n, bits[i]))


def probe_open_problem(
    kind: ProductKind, n1: int, n2: int, samples: int, seed: int
) -> SearchOutcome:
    """Empirical probe of whether the disjunction / symmetric-difference
    bounds can be attained: deterministic battery of extreme families
    first, then seeded random operand pairs, each edge present with
    probability 1/2 (each row's graph6 bits, g's then h's, from one
    rng.randbytes call per batch of rows).

    Reports the maximum actual/bound ratio (exact rational, over pairs
    with positive bound) and the minimum slack.  The battery alone attains
    both whenever they exist: its edgeless operand makes either bound
    exact (actual = bound = n1^3 th, or n2^3 tg), so min_slack is 0 and
    max_ratio is 1 once an operand has 3 or more vertices.  So the sampled
    bits never change a record: samples add only falsification checks and
    `cases`.  A nondegenerate tightness measure is the ROADMAP.md item on
    exact tightness of the bounds.  Samples are scored in batches of rows,
    without a Graph per sample.  Fully reproducible from the seed; gathers
    evidence only, proves nothing.
    """
    kind = ProductKind(kind)
    if kind not in PROBE_KINDS:
        raise InputError(f"probe targets disjunction or symdiff, got {kind.value}")
    if samples < 0:
        raise InputError(f"samples must be >= 0, got {samples}")
    if samples > MAX_PROBE_SAMPLES:
        raise InputError(f"samples must be <= {MAX_PROBE_SAMPLES}, got {samples}")
    if n1 < 1 or n2 < 1:
        raise InputError(f"probe requires n1, n2 >= 1, got {n1}, {n2}")
    # the batched check then stays in int64
    if n1 * n2 > INT64_MAX_PAIR:
        raise InputError(f"probe requires n1*n2 <= {INT64_MAX_PAIR}, got {n1 * n2}")
    rng = random.Random(seed)
    scan = BoundScan(kind)
    g, h = (Operands.of_graphs(_deterministic_battery(n)) for n in (n1, n2))
    scan.check_all(g, h)
    k1 = n1 * (n1 - 1) // 2
    k = k1 + n2 * (n2 - 1) // 2
    for batch in pair_batches(samples, n1, n2):
        rows = len(batch)
        draw = np.frombuffer(rng.randbytes(-(-rows * k // 8)), dtype=np.uint8)
        bits = np.unpackbits(draw, count=rows * k).reshape(rows, k)
        every = np.arange(rows)
        g, h = _sampled_operands(n1, bits[:, :k1]), _sampled_operands(n2, bits[:, k1:])
        scan.check(g, every, h, every)
    return SearchOutcome(
        task="probe",
        n1=n1,
        n2=n2,
        cases_examined=scan.checked,
        min_slack=scan.min_slack,
        max_ratio=scan.max_ratio,
        witness=tuple(emit_graph6(x) for x in scan.ratio_pair or scan.slack_pair or ()),
        seed=seed,
    )
