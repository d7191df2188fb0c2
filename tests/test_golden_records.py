"""CLI records pinned byte for byte: `search probe` for both ops (4x4 at
20 000 samples with seeds 1729 and 5, 4x3, 1x5 and a 4096-vertex operand,
stored as a sha256), `search sweep` for all 8 ops at every n1, n2 <= 4,
`search theorem1` for n = 2..7, `gen` for every family at small n and
`gen extremal` at n = 255, 256, 257, 513 and 4096 (across the symmetry
tiles' edges), and `op` for every kind on five operand pairs.  Records
longer than 2000 bytes are stored as their length and sha256.

The probe and sweep records in tests/data/golden_records.json were
captured from the per-pair implementation, which built a Graph for every
operand and checked one pair at a time; the row-batched scan must
reproduce them exactly.  The theorem1 records were captured from the
int64 row-sort scan; the int16 sorting-network scan must reproduce them.
The gen and op records were captured while the extremal graph was still
completed with a whole-matrix transpose and graph_from_bits kept its own
mirror loop; graph.mirror_lower must reproduce them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from totirr import ProductKind
from totirr.cli import FAMILIES, cli_main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_records.json").read_text())


@pytest.mark.parametrize(
    "record",
    GOLDEN["probe"] + GOLDEN["sweep"] + GOLDEN["theorem1"] + GOLDEN["gen"] + GOLDEN["op"],
    ids=lambda r: " ".join(r["argv"][1:]),
)
def test_record_unchanged(record, capsys):
    assert cli_main(record["argv"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if "stdout" in record:
        assert out == record["stdout"]
    else:
        assert len(out) == record["stdout_bytes"]
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == record["stdout_sha256"]


def test_every_sweep_size_and_op_is_pinned():
    pinned = {(r["argv"][3], r["argv"][5], r["argv"][7]) for r in GOLDEN["sweep"]}
    assert len(pinned) == len(GOLDEN["sweep"]) == 8 * 4 * 4


def test_every_family_and_op_kind_is_pinned():
    assert {r["argv"][1] for r in GOLDEN["gen"]} == set(FAMILIES)
    assert {r["argv"][1] for r in GOLDEN["op"]} == {k.value for k in ProductKind}
