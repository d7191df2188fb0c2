"""In-process span tracing around totirr's public functions.

Spans are recorded from benchmark code only: each traced name is replaced,
for the duration of a traced pass, by a wrapper in the module that calls
it (for example `totirr.search.apply_product`), so nothing under src/
changes.  Spans live in memory until the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Callable, Dict, Iterator, List, Tuple

ROOT = "trace.pass"

# span name -> (module, attribute) call sites to wrap
TRACED = {
    "formats.parse_graph6": [("cli", "parse_graph6")],
    "formats.emit_graph6": [("cli", "emit_graph6"), ("search", "emit_graph6")],
    "formats.format_record": [("cli", "format_record")],
    "graph.Graph": [("products", "Graph"), ("search", "Graph"), ("formats", "Graph"), ("families", "Graph")],
    "graph.is_connected": [("bounds", "is_connected")],
    "search.graph_from_code": [("search", "graph_from_code")],
    "search.verify_theorem1": [("cli", "verify_theorem1")],
    "search.sweep_operation_bounds": [("cli", "sweep_operation_bounds")],
    "search.probe_open_problem": [("cli", "probe_open_problem")],
    "products.apply_product": [("search", "apply_product"), ("bounds", "apply_product"), ("cli", "apply_product")],
    "bounds.evaluate_bound": [("cli", "evaluate_bound")],
    "indices.total_irregularity": [("indices", "total_irregularity")],
    "indices.irregularity": [("cli.INDEX_FUNCS", "irr")],
    "indices.zagreb_m1": [("cli.INDEX_FUNCS", "m1")],
    "indices.zagreb_m2": [("cli.INDEX_FUNCS", "m2")],
    "indices.degree_variance": [("cli.INDEX_FUNCS", "var")],
    "indices.spectral_radius": [("indices", "spectral_radius")],
    "cli.cli_main": [],  # the benchmark calls it through Tracer.wrap directly
}

# bytes each call moves, for the computed per-layer counts
_SIZES: Dict[str, Callable] = {
    "formats.parse_graph6": lambda args, result: len(args[0]),
    "formats.emit_graph6": lambda args, result: len(result),
    "products.apply_product": lambda args, result: result.adjacency.nbytes,
}


class Tracer:
    """Span recorder: spans[i] = [name, start, end, parent index or -1]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.bytes: Dict[str, int] = {}
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        size = _SIZES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if size is not None:
                self.bytes[name] = self.bytes.get(name, 0) + size(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Swap every call site in TRACED for its wrapper, restoring on exit."""
        saved: List[Tuple[object, str, object]] = []
        try:
            for name, sites in TRACED.items():
                for where, attr in sites:
                    module, _, dict_name = where.partition(".")
                    owner = importlib.import_module(f"totirr.{module}")
                    if dict_name:
                        table = getattr(owner, dict_name)
                        saved.append((table, attr, table[attr]))
                        table[attr] = self.wrap(name, table[attr])
                    else:
                        saved.append((owner, attr, getattr(owner, attr)))
                        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def root_wall(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans if parent < 0)

    def has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def layer_metrics(
    tracer: Tracer, untraced_wall: float, sweep_cases: int, cs_abs_err: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, by name (values only)."""
    out: Dict[str, float] = {}
    for name in TRACED:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = out[f"{name}.total_s"] = 0.0
    for (name, start, end, _), own in zip(tracer.spans, tracer.self_times()):
        if name in TRACED:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name}.total_s"] += end - start
    codec_s = out["formats.parse_graph6.total_s"] + out["formats.emit_graph6.total_s"]
    codec_bytes = tracer.bytes.get("formats.parse_graph6", 0) + tracer.bytes.get("formats.emit_graph6", 0)
    out["formats.g6_mb_per_s"] = codec_bytes / 1e6 / codec_s if codec_s else 0.0
    out["products.composite_mb"] = tracer.bytes.get("products.apply_product", 0) / 1e6
    checked = sum(
        1
        for i, span in enumerate(tracer.spans)
        if span[0] == "products.apply_product" and tracer.has_ancestor(i, "search.sweep_operation_bounds")
    )
    out["search.sweep.checked_ratio"] = checked / sweep_cases if sweep_cases else 0.0
    out["indices.cs_abs_err"] = cs_abs_err
    out["trace.overhead_s"] = tracer.root_wall() - untraced_wall
    return out


COMPUTED = {
    "formats.g6_mb_per_s": ("MB/s", "higher"),
    "products.composite_mb": ("MB", "lower"),
    "search.sweep.checked_ratio": ("ratio", "higher"),
    "indices.cs_abs_err": ("1", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# every per-layer metric: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _name in TRACED:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_name}.total_s"] = ("s", "lower")
PER_LAYER.update(COMPUTED)
