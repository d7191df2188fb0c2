"""Tests of the benchmark itself (not of totirr).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from gate import check
from totirr import cli, formats
from workloads import Command

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _small_commands(tmp_path: Path) -> list:
    """A few seconds' worth of every command kind, on tiny inputs."""
    rng = np.random.default_rng(7)
    adj = workloads.random_graph(40, rng)
    path = tmp_path / "small.g6"
    g6 = workloads.encode_graph6(adj)
    path.write_text(g6 + "\n")
    refs = workloads.index_references(adj)
    ops = [workloads.random_graph(6, rng) for _ in range(2)]
    degs = [a.sum(axis=1) for a in ops]
    g6s = [workloads.encode_graph6(a) for a in ops]
    bound_ref = {
        "kind": "cartesian", "g": g6s[0], "h": g6s[1],
        "n1": 6, "m1": int(degs[0].sum()) // 2, "n2": 6, "m2": int(degs[1].sum()) // 2,
        "irr_t_g": workloads.total_irregularity(degs[0]),
        "irr_t_h": workloads.total_irregularity(degs[1]),
        "actual": workloads.total_irregularity(workloads.composite_degrees("cartesian", *degs)),
    }
    join_sweep = next(c for c in workloads.build("exhaustive", 0, tmp_path) if "join" in c.argv)
    return [
        join_sweep,
        Command("probe", ["search", "probe", "--op", "symdiff", "--n1", "4", "--n2", "4",
                          "--samples", "50", "--seed", "3"],
                ref={"n1": 4, "n2": 4, "seed": 3, "cases": 50 + workloads.PROBE_BATTERY}),
        Command("compute", ["compute", "--input", str(path)],
                ref={"g6": g6, "values": [(i, refs[i]) for i in workloads.COMPUTE_INDICES]}),
        Command("bound", ["bound", "cartesian", *g6s], ref=bound_ref),
    ]


def test_encoder_matches_emit_graph6():
    rng = np.random.default_rng(0)
    for n in (1, 5, 17, 63, 64, 130):
        adj = workloads.random_graph(n, rng)
        g = formats.parse_graph6(workloads.encode_graph6(adj))
        assert np.array_equal(g.adjacency, adj)
        assert formats.emit_graph6(g) == workloads.encode_graph6(adj)


def test_gate_accepts_captured_and_rejects_corrupted_records(tmp_path):
    for cmd in workloads.build("exhaustive", 0, tmp_path):
        assert check(cmd, cmd.expected) == []
        assert check(cmd, cmd.expected.replace("min_slack=0", "min_slack=1")
                     .replace("max_value=44", "max_value=43")) != []
        assert check(cmd, cmd.expected.rstrip("\n")) != []


def test_gate_rejects_corrupted_seeded_output(tmp_path):
    for cmd in _small_commands(tmp_path)[1:]:
        out = run.in_process_pass([cmd], cli.cli_main)[1][0][1]
        assert check(cmd, out) == [], cmd.kind
        lines = out.splitlines(keepends=True)
        first = formats.parse_record(lines[0])
        key = {"probe": "min_slack", "compute": "value", "bound": "actual"}[cmd.kind]
        bad = lines[0].replace(f"{key}={first[key]}", f"{key}={int(first[key]) - 1}")
        assert check(cmd, "".join([bad, *lines[1:]])) != [], cmd.kind
        assert check(cmd, "".join(lines[1:])) != [], cmd.kind


def test_metric_names_are_valid_and_match_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_span_self_times_add_up_to_traced_wall(tmp_path):
    tracer, outputs = run.traced_pass(_small_commands(tmp_path))
    assert all(rc == 0 for rc, _ in outputs)
    roots = [span for span in tracer.spans if span[3] < 0]
    assert [span[0] for span in roots] == [tracing.ROOT]
    assert sum(tracer.self_times()) == pytest.approx(tracer.root_wall(), rel=1e-9, abs=1e-9)
    assert all(own >= -1e-9 for own in tracer.self_times())
    # every wrapper is gone once the pass ends
    assert cli.parse_graph6 is formats.parse_graph6
    assert cli.INDEX_FUNCS["irr"].__module__ == "totirr.indices"


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    tally, metrics, _ = run.traced_run(_small_commands(tmp_path), seconds=0)
    assert tally.failed == 0, tally.problems
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    calls = {k: value for k, (value, _) in metrics.items() if k.endswith(".calls")}
    assert all(calls[f"{name}.calls"] > 0 for name in tracing.TRACED
               if name not in ("search.verify_theorem1", "indices.spectral_radius"))
