"""Exhaustive and randomized verification engines.

Labeled graphs on n vertices are identified with integer codes
0 .. 2^(n(n-1)/2)-1 whose bits, most significant first, are the
upper-triangle adjacency entries in graph6 order; `formats.triangle_mask`
owns that order and codes decode through `formats.graph_from_bits`.
Enumeration, the brute-force maximum scan, and the bound sweeps all run
over contiguous code ranges, so parallel runs partition the range into
blocks and reduce with a lowest-index tie-break: results are
byte-identical at any worker count.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .errors import FalsificationError, InputError
from .bounds import BoundScan, bound_theorem1
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

ENUM_MAX_N = 8
MAX_WORKERS = 256
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


def enumerate_labeled_graphs(n: int, allow_large: bool = False) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, exactly once, in
    lexicographic order of the upper-triangle bit string.

    n = 8 means 2^28 graphs and must be opted into via allow_large.
    """
    if not 1 <= n <= ENUM_MAX_N:
        raise InputError(f"enumeration supports 1 <= n <= {ENUM_MAX_N}, got {n}")
    if n == ENUM_MAX_N and not allow_large:
        raise InputError(
            f"n = {ENUM_MAX_N} enumerates 2^28 graphs; pass allow_large=True to confirm"
        )
    for code in range(num_labeled_graphs(n)):
        yield graph_from_code(n, code)


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


def _theorem1_block(n: int, start: int, stop: int) -> Tuple[int, int]:
    """Max total irregularity and its lowest code over codes [start, stop)."""
    k = n * (n - 1) // 2
    inc = _pair_incidence(n)
    # ascending-sort coefficients: irr_t = sum (2i - n - 1) d_(i), i 1-based
    coeffs = 2 * np.arange(1, n + 1, dtype=np.int64) - n - 1
    shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
    best_val, best_code = -1, -1
    for lo in range(start, stop, _BLOCK):
        hi = min(lo + _BLOCK, stop)
        codes = np.arange(lo, hi, dtype=np.int64)
        bits = (codes[:, None] >> shifts[None, :]) & 1
        degs = bits @ inc
        degs.sort(axis=1)
        vals = degs @ coeffs
        idx = int(np.argmax(vals))
        val = int(vals[idx])
        if val > best_val:
            best_val, best_code = val, lo + idx
    return best_val, best_code


def _split_range(total: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal partition of [0, total) into at most
    `workers` blocks."""
    if not 1 <= workers <= MAX_WORKERS:
        raise InputError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    workers = min(workers, total)
    step = (total + workers - 1) // workers
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _map_blocks(block, tasks: List[tuple]) -> list:
    """[block(*task) for task in tasks], in order.  Several tasks run in a
    pool of at most one worker process per core."""
    if len(tasks) == 1:
        return [block(*tasks[0])]
    with multiprocessing.Pool(min(len(tasks), os.cpu_count() or 1)) as pool:
        return pool.starmap(block, tasks)


def verify_theorem1(n: int, workers: int = 1, allow_large: bool = False) -> SearchOutcome:
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
    results = _map_blocks(_theorem1_block, [(n, lo, hi) for lo, hi in _split_range(total, workers)])
    # deterministic reduction: max value, lowest code on ties
    best_val, best_code = -1, -1
    for val, code in results:
        if val > best_val or (val == best_val and code < best_code):
            best_val, best_code = val, code
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


def _operand_pool(n: int) -> List[Tuple[Graph, int]]:
    """All labeled graphs on n vertices with their total irregularity."""
    return [(g, graph_total_irregularity(g)) for g in enumerate_labeled_graphs(n)]


def _sweep_block(kind_tag: str, n1: int, n2: int, start: int, stop: int) -> BoundScan:
    """Check pair indices [start, stop) in order.

    Pair index p maps to (code_g, code_h) = divmod(p, 2^k2).
    """
    pool_g = _operand_pool(n1)
    pool_h = _operand_pool(n2)
    scan = BoundScan(ProductKind(kind_tag))
    for p in range(start, stop):
        a, b = divmod(p, len(pool_h))
        scan.check(*pool_g[a], *pool_h[b])
    return scan


def sweep_operation_bounds(
    kind: ProductKind, n1: int, n2: int, workers: int = 1
) -> SearchOutcome:
    """Exhaustively check one operation's bound over every pair of labeled
    graphs on (n1, n2) vertices.

    Reports the minimum slack among hypothesis-satisfying pairs (zero
    confirms a sharpness witness inside the swept universe) and the max
    actual/bound ratio over pairs with positive bound.
    """
    kind = ProductKind(kind)
    if not (1 <= n1 <= 4 and 1 <= n2 <= 4):
        raise InputError(f"exhaustive sweeps support n1, n2 in [1, 4], got {n1}, {n2}")
    total = num_labeled_graphs(n1) * num_labeled_graphs(n2)
    results = _map_blocks(
        _sweep_block, [(kind.value, n1, n2, lo, hi) for lo, hi in _split_range(total, workers)]
    )
    # blocks come back in index order, so merging them in turn keeps the
    # lowest pair index on ties, as a single block would
    scan = results[0]
    for part in results[1:]:
        scan.merge(part)
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


def _random_graph(n: int, rng: random.Random) -> Graph:
    """Each edge independently present with probability 1/2: one random
    bit per upper-triangle pair, drawn in graph6 order."""
    return graph_from_bits(n, [rng.getrandbits(1) for _ in range(n * (n - 1) // 2)])


def probe_open_problem(
    kind: ProductKind, n1: int, n2: int, samples: int, seed: int
) -> SearchOutcome:
    """Empirical probe of whether the disjunction / symmetric-difference
    bounds can be attained: deterministic battery of extreme families
    first, then seeded random operand pairs.

    Reports the maximum actual/bound ratio (exact rational, over pairs
    with positive bound) and the minimum slack.  Fully reproducible from
    the seed; gathers evidence only, proves nothing.
    """
    kind = ProductKind(kind)
    if kind not in (ProductKind.DISJUNCTION, ProductKind.SYMDIFF):
        raise InputError(f"probe targets disjunction or symdiff, got {kind.value}")
    if samples < 0:
        raise InputError(f"samples must be >= 0, got {samples}")
    if n1 * n2 > 4096:
        raise InputError(f"probe requires n1*n2 <= 4096, got {n1 * n2}")
    rng = random.Random(seed)
    battery = itertools.product(_deterministic_battery(n1), _deterministic_battery(n2))
    sampled = ((_random_graph(n1, rng), _random_graph(n2, rng)) for _ in range(samples))
    scan = BoundScan(kind)
    for g, h in itertools.chain(battery, sampled):
        scan.check(g, graph_total_irregularity(g), h, graph_total_irregularity(h))
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
