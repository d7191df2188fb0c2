"""CLI records pinned byte for byte: `search probe` for both ops (4x4 at
20 000 samples with seeds 1729 and 5, 4x3, 1x5 and a 4096-vertex operand,
stored as a sha256), `search sweep` for all 8 ops at every n1, n2 <= 4,
`search theorem1` for n = 2..7, `gen` for every family at small n and
`gen extremal` at n = 255, 256, 257, 513 and 4096 (across the symmetry
tiles' edges), `op` for every kind on five operand pairs and at the
4096-vertex cap (extremal(64) by P_64; corona on extremal(63) by P_64,
4095 vertices), `compute` with all six indices on every family at
n = 1, 2, 7, 64 and 300 (each distinct graph once), five multipartite
graphs and eight seeded conftest.random_graph inputs, and at the
4096-vertex graph6 cap (star and K_n against closed forms, the extremal
graph and a seeded G(4096, 1/2) as a sha256), and `bound` for
every kind on five operand pairs (two edgeless operands, failing the
join and corona edge counts; a disconnected g with m1 >= n1 - 1,
meeting them; n1 < n2, failing join's size ordering; one with
n1 * n2 > 4096), join and corona each on one more pair that fails only
its edge count and exceeds the formula (C@ BW and A_ B_), plus
`bound theorem1` at five n.  A record with a `stdin` field reads it as
standard input.  Records longer than 2000 bytes are stored as their
length and sha256.

The probe and sweep records in tests/data/golden_records.json were
captured from the per-pair implementation, which built a Graph for every
operand and checked one pair at a time; the row-batched scan must
reproduce them exactly.  The theorem1 records were captured from the
int64 row-sort scan; the int16 sorting-network scan must reproduce them.
The gen and op records were captured while the extremal graph was still
completed with a whole-matrix transpose, graph_from_bits kept its own
mirror loop, and every builder ended in the copying, checking Graph()
constructor; graph._from_lower, which completes each builder's lower
triangle with no copy and no check, must reproduce them.  The op records,
the cap ones included, were also captured from the per-kind product
functions, each a bool np.kron formula of its own; the one signed
Kronecker term table (products.KRONECKER_TERMS) must reproduce them.
The compute records were captured while degree_variance still summed
squared float deviations over a degree Counter; the exact M1 identity
must print the same 12 significant digits.  The join and corona
hypotheses were read from connectivity until they moved to edge counts;
that move re-captured exactly eight records: the six corona sweeps with
n1 < n2, which now check pairs and report a witness, and
`bound join FwbF? DF_` and `bound corona Bo Esa?`, which now read
hypothesis_ok=true.
"""

import hashlib
import io
import json
import math
import random
from pathlib import Path

import pytest

from totirr import ProductKind, bounds, emit_graph6
from totirr.cli import FAMILIES, INDEX_FUNCS, PRODUCT_TAGS, cli_main
from totirr.formats import format_value

from conftest import random_graph, stdin_of

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_records.json").read_text())


def _record_id(record):
    """The arguments after the command, then a digest of any stdin."""
    name = " ".join(record["argv"][1:])
    if "stdin" in record:
        name += " < stdin " + hashlib.sha256(record["stdin"].encode("ascii")).hexdigest()[:12]
    return name


@pytest.mark.parametrize(
    "record",
    [r for records in GOLDEN.values() for r in records],
    ids=_record_id,
)
def test_record_unchanged(record, capsys, monkeypatch):
    if "stdin" in record:
        monkeypatch.setattr("sys.stdin", stdin_of(record["stdin"]))
    assert cli_main(record["argv"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if "stdout" in record:
        assert out == record["stdout"]
    else:
        assert len(out) == record["stdout_bytes"]
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == record["stdout_sha256"]


@pytest.mark.parametrize("cells", [1, 448], ids=["1-row-batches", "7-row-batches-at-4x4"])
def test_sweep_records_do_not_depend_on_the_batch(cells, capsys, monkeypatch):
    """Every sweep record, with BoundScan.check_all's batches one pair
    long and, at 4x4, seven pairs long, a size that divides no pool grid."""
    monkeypatch.setattr(bounds, "_BATCH_CELLS", cells)
    for record in GOLDEN["sweep"]:
        assert cli_main(record["argv"]) == 0
        assert capsys.readouterr() == (record["stdout"], ""), record["argv"]


def test_every_sweep_size_and_op_is_pinned():
    pinned = {(r["argv"][3], r["argv"][5], r["argv"][7]) for r in GOLDEN["sweep"]}
    assert len(pinned) == len(GOLDEN["sweep"]) == 8 * 4 * 4


def test_every_family_and_op_kind_is_pinned():
    assert {r["argv"][1] for r in GOLDEN["gen"]} == set(FAMILIES)
    assert {r["argv"][1] for r in GOLDEN["op"]} == {k.value for k in ProductKind}
    assert {r["argv"][1] for r in GOLDEN["bound"]} == set(PRODUCT_TAGS) | {"theorem1"}
    assert {name for r in GOLDEN["compute"] for name in r["argv"][2].split(",")} == set(INDEX_FUNCS)


CAP = 4096


def _gen(*argv):
    out = io.StringIO()
    assert cli_main(["gen", *argv], out=out) == 0
    return out.getvalue()


def _compute(g6_line, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin_of(g6_line))
    assert cli_main(["compute"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize(
    "family,values",
    [
        # irr_t, irr, m1, m2, var and cs of the star and of K_n, n = 4096
        (
            "star",
            [
                (CAP - 1) * (CAP - 2),
                (CAP - 1) * (CAP - 2),
                CAP * (CAP - 1),
                (CAP - 1) ** 2,
                (CAP - 1) * (CAP - 2) ** 2 / CAP**2,
                math.sqrt(CAP - 1) - 2 * (CAP - 1) / CAP,
            ],
        ),
        ("complete", [0, 0, CAP * (CAP - 1) ** 2, math.comb(CAP, 2) * (CAP - 1) ** 2, 0, 0]),
    ],
)
def test_compute_at_the_graph6_cap_meets_closed_forms(family, values, monkeypatch, capsys):
    g6 = _gen(family, str(CAP))
    expected = [
        f"task=compute input={g6.strip()} index={name} value={format_value(value)}"
        for name, value in zip(INDEX_FUNCS, values)
    ]
    assert _compute(g6, monkeypatch, capsys).splitlines() == expected


@pytest.mark.parametrize(
    "source,stdout_bytes,stdout_sha256",
    [
        ("extremal", 8386873, "fb1a61e68e17477f432c05efb7fd2697f7d69682c4651ccdc935f4f7d10131ed"),
        ("random", 8386875, "c69734439a672bd293f5f1b478640783138a855be136d3808db6b6ae7296fd1d"),
    ],
)
def test_compute_at_the_graph6_cap_unchanged(source, stdout_bytes, stdout_sha256, monkeypatch, capsys):
    """All six indices at n = 4096 on the extremal graph and a seeded
    conftest.random_graph G(4096, 1/2), pinned as the length and sha256 of
    their records, so no change to the codec or the index kernels at the
    cap moves a printed digit unseen."""
    if source == "extremal":
        g6 = _gen("extremal", str(CAP))
    else:
        g6 = emit_graph6(random_graph(CAP, random.Random(1), 0.5)) + "\n"
    out = _compute(g6, monkeypatch, capsys)
    assert len(out) == stdout_bytes
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == stdout_sha256
