"""Seeded inputs, numpy references and command lists for each workload.

Everything here runs before any timing starts.  The program under test
only ever sees the generated inputs (graph6 files and strings); the seed
and the references stay on the benchmark side.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_RECORDS = HERE / "expected_records.json"

# at most two worker processes, and never more than the machine has cores
WORKERS = max(1, min(2, os.cpu_count() or 1))

SWEEP_OPS = (
    "join", "lexicographic", "cartesian", "strong",
    "direct", "corona", "disjunction", "symdiff",
)
PROBE_OPS = ("disjunction", "symdiff")
PROBE_SAMPLES = 20000
PROBE_N = 4
# empty, path, star, complete and extremal graphs on each side
PROBE_BATTERY = 5 * 5
DENSE_N = 4096
PATH_N = 300
OPERAND_N = 64
BOUND_KINDS = ("cartesian", "lexicographic", "symdiff")
COMPUTE_INDICES = ("irr_t", "irr", "m1", "m2", "var", "cs")


@dataclass
class Command:
    """One CLI invocation and what its stdout must be."""

    kind: str
    argv: List[str]
    parallel: bool = False
    expected: Optional[str] = None
    ref: Dict = field(default_factory=dict)

    def args(self, workers: int) -> List[str]:
        return self.argv + (["--workers", str(workers)] if self.parallel else [])

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# interpreter start, `import totirr` and argparse, and no work
NO_WORK = Command("setup", ["bound", "theorem1", "--n", "2"],
                  expected="task=bound kind=theorem1 n=2 bound=0\n")


def encode_graph6(adj: np.ndarray) -> str:
    """graph6 of a boolean adjacency, vectorised.

    np.tril_indices walks (1,0), (2,0), (2,1), (3,0), ..., which by
    symmetry is graph6's column-major upper-triangle order.
    """
    n = adj.shape[0]
    bits = adj[np.tril_indices(n, -1)].astype(np.uint8)
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=np.uint8)])
    body = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    return (bytes(head) + body.astype(np.uint8).tobytes()).decode("ascii")


def random_graph(n: int, rng: np.random.Generator) -> np.ndarray:
    """G(n, 1/2) as a symmetric boolean adjacency."""
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    return upper | upper.T


def relabeled_path(n: int, rng: np.random.Generator) -> np.ndarray:
    """P_n under a seeded vertex relabelling."""
    perm = rng.permutation(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[perm[:-1], perm[1:]] = True
    return adj | adj.T


def total_irregularity(degrees: np.ndarray) -> int:
    """sum_i (2i - n - 1) d_(i) over the ascending degree sequence."""
    ds = np.sort(degrees.astype(np.int64))
    n = ds.size
    return int(ds @ (2 * np.arange(1, n + 1, dtype=np.int64) - n - 1))


def index_references(adj: np.ndarray) -> Dict[str, object]:
    """Exact integer indices, degree variance and Collatz-Sinogowitz."""
    d = adj.sum(axis=1).astype(np.int64)
    n = d.size
    rows, cols = np.nonzero(np.triu(adj, 1))
    m = rows.size
    lam = float(np.linalg.eigvalsh(adj.astype(np.float64))[-1]) if m else 0.0
    return {
        "irr_t": total_irregularity(d),
        "irr": int(np.abs(d[rows] - d[cols]).sum()),
        "m1": int((d * d).sum()),
        "m2": int((d[rows] * d[cols]).sum()),
        "var": float(((d - 2 * m / n) ** 2).mean()),
        "cs": max(lam - 2 * m / n, 0.0),
    }


def composite_degrees(kind: str, dg: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Degree of composite vertex (u, v) from the operands' degrees."""
    n1, n2 = dg.size, dh.size
    g, h = dg[:, None], dh[None, :]
    table = {
        "cartesian": lambda: g + h,
        "lexicographic": lambda: n2 * g + h,
        "symdiff": lambda: n2 * g + n1 * h - 2 * g * h,
    }
    return table[kind]().ravel()


def _exhaustive(rng: random.Random, work: Path) -> List[Command]:
    expected = json.loads(EXPECTED_RECORDS.read_text())
    cmds = [Command("theorem1", ["search", "theorem1", "--n", "7"], parallel=True)]
    cmds += [
        Command("sweep", ["search", "sweep", "--op", op, "--n1", "4", "--n2", "4"], parallel=True)
        for op in SWEEP_OPS
    ]
    rng.shuffle(cmds)
    for cmd in cmds:
        cmd.expected = expected[cmd.key]
    return cmds


def _probe(rng: random.Random, work: Path) -> List[Command]:
    cmds = []
    for op in PROBE_OPS:
        seed = rng.randrange(2**31)
        argv = ["search", "probe", "--op", op, "--n1", str(PROBE_N), "--n2", str(PROBE_N),
                "--samples", str(PROBE_SAMPLES), "--seed", str(seed)]
        ref = {"n1": PROBE_N, "n2": PROBE_N, "seed": seed, "cases": PROBE_SAMPLES + PROBE_BATTERY}
        cmds.append(Command("probe", argv, ref=ref))
    return cmds


def _graph_io(rng: random.Random, work: Path) -> List[Command]:
    nrng = np.random.default_rng(rng.randrange(2**63))
    cmds = []
    dense = random_graph(DENSE_N, nrng)
    path = relabeled_path(PATH_N, nrng)
    for name, adj, indices, kind in (
        ("dense.g6", dense, COMPUTE_INDICES, "compute"),
        ("path.g6", path, ("cs",), "spectral"),
    ):
        g6 = encode_graph6(adj)
        (work / name).write_text(g6 + "\n", encoding="ascii")
        argv = ["compute", "--input", str(work / name), "--indices", ",".join(indices)]
        refs = index_references(adj)
        cmds.append(Command(kind, argv, ref={"g6": g6, "values": [(i, refs[i]) for i in indices]}))
    ops = [random_graph(OPERAND_N, nrng) for _ in range(2)]
    g6s = [encode_graph6(a) for a in ops]
    degs = [a.sum(axis=1).astype(np.int64) for a in ops]
    for kind in BOUND_KINDS:
        ref = {
            "kind": kind, "g": g6s[0], "h": g6s[1],
            "n1": OPERAND_N, "m1": int(degs[0].sum()) // 2,
            "n2": OPERAND_N, "m2": int(degs[1].sum()) // 2,
            "irr_t_g": total_irregularity(degs[0]), "irr_t_h": total_irregularity(degs[1]),
            "actual": total_irregularity(composite_degrees(kind, degs[0], degs[1])),
        }
        cmds.append(Command("bound", ["bound", kind, g6s[0], g6s[1]], ref=ref))
    return cmds


COMMAND_LISTS = {"exhaustive": _exhaustive, "probe": _probe, "graph-io": _graph_io}
WORKLOADS = tuple(COMMAND_LISTS)


def build(workload: str, seed: int, work: Path) -> List[Command]:
    """The workload's command list for this seed; writes input files to work."""
    work.mkdir(parents=True, exist_ok=True)
    return COMMAND_LISTS[workload](random.Random(f"{workload}:{seed}"), work)
