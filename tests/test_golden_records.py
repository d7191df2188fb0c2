"""CLI records pinned byte for byte: `search probe` for both ops (4x4 at
20 000 samples with seeds 1729 and 5, 4x3, 1x5 and a 4096-vertex operand,
stored as a sha256), `search sweep` for all 8 ops at every n1, n2 <= 4,
and `search theorem1` for n = 2..7.

The probe and sweep records in tests/data/golden_records.json were
captured from the per-pair implementation, which built a Graph for every
operand and checked one pair at a time; the row-batched scan must
reproduce them exactly.  The theorem1 records were captured from the
int64 row-sort scan; the int16 sorting-network scan must reproduce them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from totirr.cli import cli_main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_records.json").read_text())


@pytest.mark.parametrize(
    "record",
    GOLDEN["probe"] + GOLDEN["sweep"] + GOLDEN["theorem1"],
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
