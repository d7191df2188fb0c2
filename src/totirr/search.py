"""Exhaustive and randomized verification engines.

Labeled graphs on n vertices are identified with integer codes
0 .. 2^(n(n-1)/2)-1 whose bits, most significant first, are the
upper-triangle adjacency entries in graph6 order; `formats.triangle_mask`
owns that order and codes decode through `formats.graph_from_bits`.
The brute-force maximum scan and the bound sweeps run over contiguous
code ranges, in the calling process.  A graph's degrees are linear in
its code bits, so the theorem1 scan takes each block of _BLOCK codes as
the degree row of its high bits plus one table of the low bits, shared
by all blocks, and keeps the lowest code of the maximum.

Sweeps and the probe score operand pairs as rows.  Each side is a
`bounds.Operands` pool of int64 degree rows, taken from the codes (sweep)
or scattered from each sample's random bits (probe).  `BoundScan.check`
scores a batch of index pairs at once, about 2^14 array cells per batch.
A Graph is built only for a pool operand whose connectivity a hypothesis
needs, a witness, or a falsification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .errors import FalsificationError, InputError
from .bounds import BoundScan, Operands, bound_theorem1
from .formats import emit_graph6, graph_from_bits, triangle_mask
from .families import (
    gen_complete,
    gen_empty,
    gen_extremal_total_irr,
    gen_path,
    gen_star,
)
from .graph import Graph
from .indices import graph_total_irregularity, total_irregularity_rows

# apply_product is not called here; perfbench/tracing.py wraps the name
# totirr.search.apply_product, so it stays importable from this module
from .products import ProductKind, apply_product  # noqa: F401

ENUM_MAX_N = 8
MAX_PROBE_SAMPLES = 10**7
# codes per theorem1 block; a power of two, so blocks share one table
_BLOCK = 1 << 16
# array cells per batch of operand-pair rows (sweep and probe)
_BATCH_CELLS = 1 << 14


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


def _pair_incidence(n: int) -> np.ndarray:
    """k x n 0/1 matrix mapping upper-triangle bits to vertex degrees."""
    # bit t is the edge between vertices rows[t] and cols[t]
    rows, cols = np.nonzero(triangle_mask(n))
    one_hot = np.eye(n, dtype=np.int64)
    return one_hot[rows] + one_hot[cols]


def _bit_degrees(incidence: np.ndarray) -> np.ndarray:
    """Degree rows of all 2^m bit strings over the m pairs that are the
    rows of `incidence`, first row most significant, in order of value."""
    degrees = np.zeros((1, incidence.shape[1]), dtype=np.int64)
    # a leading 1 adds its pair to each string of the bits after it
    for pair in incidence[::-1]:
        degrees = np.concatenate([degrees, degrees + pair])
    return degrees


def verify_theorem1(n: int, allow_large: bool = False) -> SearchOutcome:
    """Brute-force the maximum total irregularity over all labeled graphs
    on n vertices and check it equals the closed-form bound.

    A mismatch would falsify the bound and raises FalsificationError.
    """
    if not 2 <= n <= ENUM_MAX_N:
        raise InputError(f"verify_theorem1 supports 2 <= n <= {ENUM_MAX_N}, got {n}")
    if n == ENUM_MAX_N and not allow_large:
        raise InputError(
            f"n = {ENUM_MAX_N} scans 2^28 graphs; pass allow_large=True to confirm"
        )
    total = num_labeled_graphs(n)
    incidence = _pair_incidence(n)
    # code i * len(low) + j has the high bits of i and the low bits of j,
    # so its degrees are the sum of their rows: one table serves every i
    split = max(0, len(incidence) - (_BLOCK.bit_length() - 1))
    low = _bit_degrees(incidence[split:])
    best_val, best_code = -1, 0
    for i, high in enumerate(_bit_degrees(incidence[:split])):
        vals = total_irregularity_rows(high + low)
        idx = int(np.argmax(vals))
        # strictly greater: on ties the earlier block's lower code stays
        if vals[idx] > best_val:
            best_val, best_code = int(vals[idx]), i * len(low) + idx
    expected = bound_theorem1(n)
    if best_val != expected:
        raise FalsificationError(
            f"exhaustive max irr_t at n={n} is {best_val}, formula says {expected}"
        )
    witness = graph_from_code(n, best_code)
    assert graph_total_irregularity(witness) == best_val
    return SearchOutcome(
        task="theorem1",
        n1=n,
        n2=None,
        cases_examined=total,
        max_value=best_val,
        witness=(emit_graph6(witness),),
    )


def _batch_rows(n1: int, n2: int) -> int:
    """Operand-pair rows per batch: about _BATCH_CELLS cells, as no array
    of one row (operand adjacencies, composite degrees) has more than
    (n1 + n2)^2."""
    return max(1, _BATCH_CELLS // (n1 + n2) ** 2)


def _labeled_operands(n: int) -> Operands:
    """Every labeled graph on n vertices, row i the graph with code i."""
    return Operands(n, _bit_degrees(_pair_incidence(n)), lambda code: graph_from_code(n, code))


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
    total = len(g) * len(h)
    scan = BoundScan(kind)
    step = _batch_rows(n1, n2)
    # pair index p is (code_g, code_h) = divmod(p, 2^k2), checked in order
    for lo in range(0, total, step):
        a, b = np.divmod(np.arange(lo, min(lo + step, total)), len(h))
        scan.check(g, a, h, b)
    return SearchOutcome(
        task="sweep",
        n1=n1,
        n2=n2,
        cases_examined=total,
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


def _random_bits(rng: random.Random, count: int) -> np.ndarray:
    """`count` draws of rng.getrandbits(1), as uint8.

    getrandbits(1) is the top bit of one 32-bit output word, and
    getrandbits(32 c) is c such words, least significant first.  So one
    call per chunk of c draws gives the same bits and leaves rng in the
    same state.
    """
    bits = np.empty(count, dtype=np.uint8)
    for lo in range(0, count, _BATCH_CELLS):
        c = min(_BATCH_CELLS, count - lo)
        words = np.frombuffer(rng.getrandbits(32 * c).to_bytes(4 * c, "little"), dtype="<u4")
        bits[lo : lo + c] = words >> 31
    return bits


def _sampled_operands(n: int, bits: np.ndarray) -> Operands:
    """The graphs on n vertices whose graph6 bits are the rows of `bits`."""
    adj = np.zeros((len(bits), n, n), dtype=bool)
    # a mask of the array's full shape is scattered directly; adj[:, mask]
    # would first expand the mask to index arrays, 134 MB at n = 4096
    adj[np.broadcast_to(triangle_mask(n), adj.shape)] = bits.ravel()
    degrees = adj.sum(axis=1, dtype=np.int64) + adj.sum(axis=2, dtype=np.int64)
    return Operands(n, degrees, lambda i: graph_from_bits(n, bits[i]))


def probe_open_problem(
    kind: ProductKind, n1: int, n2: int, samples: int, seed: int
) -> SearchOutcome:
    """Empirical probe of whether the disjunction / symmetric-difference
    bounds can be attained: deterministic battery of extreme families
    first, then seeded random operand pairs, each edge present with
    probability 1/2 (one rng.getrandbits(1) per graph6 bit, g's then h's).

    Reports the maximum actual/bound ratio (exact rational, over pairs
    with positive bound) and the minimum slack.  The battery alone attains
    both whenever they exist: its edgeless operand makes either bound
    exact (actual = bound = n1^3 th, or n2^3 tg), so min_slack is 0 and
    max_ratio is 1 once an operand has 3 or more vertices, and sampled
    pairs add only falsification checks and `cases`.  A nondegenerate
    tightness measure is the ROADMAP.md item on exact tightness of the
    bounds.  Samples are scored in batches of rows, without a Graph per
    sample.  Fully reproducible from the seed; gathers evidence only,
    proves nothing.
    """
    kind = ProductKind(kind)
    if kind not in (ProductKind.DISJUNCTION, ProductKind.SYMDIFF):
        raise InputError(f"probe targets disjunction or symdiff, got {kind.value}")
    if samples < 0:
        raise InputError(f"samples must be >= 0, got {samples}")
    if samples > MAX_PROBE_SAMPLES:
        raise InputError(f"samples must be <= {MAX_PROBE_SAMPLES}, got {samples}")
    if n1 < 1 or n2 < 1:
        raise InputError(f"probe requires n1, n2 >= 1, got {n1}, {n2}")
    if n1 * n2 > 4096:
        raise InputError(f"probe requires n1*n2 <= 4096, got {n1 * n2}")
    rng = random.Random(seed)
    scan = BoundScan(kind)
    g = Operands.of_graphs(_deterministic_battery(n1))
    h = Operands.of_graphs(_deterministic_battery(n2))
    a, b = np.divmod(np.arange(len(g) * len(h)), len(h))
    scan.check(g, a, h, b)
    k1 = n1 * (n1 - 1) // 2
    k = k1 + n2 * (n2 - 1) // 2
    step = _batch_rows(n1, n2)
    for lo in range(0, samples, step):
        rows = min(step, samples - lo)
        bits = _random_bits(rng, rows * k).reshape(rows, k)
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
