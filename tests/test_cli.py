import io
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import totirr
from totirr import emit_graph6, gen_cycle, gen_empty, gen_path, parse_graph6, parse_record
from totirr.cli import cli_main

from conftest import stdin_of


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


def test_gen_path(capsys):
    code, text = run_cli("gen", "path", "4")
    assert code == 0
    assert parse_graph6(text.strip()) == gen_path(4)


def test_gen_tree_seeded():
    _, a = run_cli("gen", "tree", "8", "--seed", "5")
    _, b = run_cli("gen", "tree", "8", "--seed", "5")
    assert a == b


def test_compute_from_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(emit_graph6(gen_path(4)) + "\n"))
    code, text = run_cli("compute", "--indices", "irr_t")
    assert code == 0
    record = parse_record(text.strip())
    assert record["index"] == "irr_t" and record["value"] == "4"


def test_compute_multiple_graphs_and_indices(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text(emit_graph6(gen_path(4)) + "\n" + emit_graph6(gen_cycle(3)) + "\n")
    code, text = run_cli("compute", "--input", str(path), "--indices", "irr_t,m1")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 4
    values = [parse_record(line)["value"] for line in lines]
    assert values == ["4", "10", "0", "12"]


def test_compute_edgelist(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 3\n0 1\n1 2\n")
    code, text = run_cli("compute", "--input", str(path), "--format", "edgelist", "--indices", "irr_t")
    assert code == 0
    assert parse_record(text.strip())["value"] == "2"


def test_compute_unknown_index():
    code, _ = run_cli("compute", "--indices", "bogus")
    assert code == 1


def test_op_cartesian():
    p4 = emit_graph6(gen_path(4))
    c3 = emit_graph6(gen_cycle(3))
    code, text = run_cli("op", "cartesian", p4, c3)
    assert code == 0
    g = parse_graph6(text.strip())
    assert g.n == 12 and sorted(g.degrees()) == [3] * 6 + [4] * 6


def test_bound_cartesian_tight():
    p4 = emit_graph6(gen_path(4))
    c3 = emit_graph6(gen_cycle(3))
    code, text = run_cli("bound", "cartesian", p4, c3)
    assert code == 0
    record = parse_record(text.strip())
    assert record["slack"] == "0" and record["tight"] == "true"


def test_bound_theorem1():
    code, text = run_cli("bound", "theorem1", "--n", "7")
    assert code == 0
    assert parse_record(text.strip())["bound"] == "44"


def test_bound_theorem1_missing_n():
    code, _ = run_cli("bound", "theorem1")
    assert code == 1


def test_bound_missing_operand():
    code, _ = run_cli("bound", "join", "Bw")
    assert code == 1


def test_search_theorem1():
    code, text = run_cli("search", "theorem1", "--n", "5")
    assert code == 0
    record = parse_record(text.strip())
    assert record["max_value"] == "14"
    assert record["cases"] == "1024"


def test_search_sweep_deterministic_across_workers():
    outputs = set()
    for workers in ("1", "2", "8"):
        code, text = run_cli(
            "search", "sweep", "--op", "join", "--n1", "4", "--n2", "3", "--workers", workers
        )
        assert code == 0
        outputs.add(text)
    assert len(outputs) == 1


def test_search_probe_reproducible():
    args = ("search", "probe", "--op", "symdiff", "--n1", "4", "--n2", "4",
            "--samples", "200", "--seed", "9")
    code_a, a = run_cli(*args)
    code_b, b = run_cli(*args)
    assert code_a == code_b == 0
    assert a == b


def test_unknown_subcommand_exits_1(capsys):
    code, _ = run_cli("frobnicate")
    assert code == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_bad_graph6_exits_1(capsys):
    code, _ = run_cli("compute", "--input", "/nonexistent/file")
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize(
    "fmt,data,message",
    [
        ("g6", b"C\xff\n", "non-ASCII character '\\udcff' (byte offset 1)"),
        ("g6", b"\xff", "byte offset 0"),
        ("g6", "Cé\n".encode(), "non-ASCII character '\\udcc3' (byte offset 1)"),
        ("edgelist", b"n 3\n0 \xff\n", "line 2"),
    ],
    ids=["g6-payload", "g6-header", "g6-utf8", "edgelist"],
)
def test_non_ascii_input_file_exits_1(fmt, data, message, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert run_cli("compute", "--input", str(path), "--format", fmt) == (1, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err


@pytest.mark.parametrize("fmt", ["g6", "edgelist"])
@given(data=st.binary())
@settings(max_examples=150, deadline=None)
def test_any_input_file_exits_0_or_1(fmt, data, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    assert cli_main(["compute", "--input", str(path), "--format", fmt], out=io.StringIO()) in (0, 1)


@pytest.mark.parametrize("fmt", ["g6", "edgelist"])
@given(data=st.binary())
@settings(max_examples=150, deadline=None)
def test_any_stdin_exits_0_or_1(fmt, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert cli_main(["compute", "--format", fmt], out=io.StringIO()) in (0, 1)


def cli_env(**extra):
    """os.environ with the totirr sources on PYTHONPATH, for a subprocess."""
    src = str(Path(totirr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_non_ascii_stdin_exits_1_with_byte_offset():
    # stdin is read as bytes, whatever encoding Python would give its text
    proc = subprocess.run(
        [sys.executable, "-m", "totirr.cli", "compute"],
        input=b"C\xffh\n", capture_output=True, env=cli_env(PYTHONIOENCODING="utf-8"), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: non-ASCII character '\\udcff' (byte offset 1)\n"


def test_graph6_error_offset_counts_leading_whitespace(monkeypatch, capsys):
    # the line is read as given: its bad byte '!' is byte 3, after two spaces
    monkeypatch.setattr("sys.stdin", stdin_of("  C!\n"))
    assert run_cli("compute") == (1, "")
    assert capsys.readouterr().err == "error: byte 33 outside printable graph6 range [63, 126] (byte offset 3)\n"


def test_gen_invalid_params():
    code, _ = run_cli("gen", "cycle", "2")
    assert code == 1
    code, _ = run_cli("gen", "path")
    assert code == 1


def test_gen_multipartite():
    assert run_cli("gen", "multipartite", "2", "3") == (0, "D]o\n")


INPUT_ERRORS = [
    (["compute"], "~@?@\n", "vertex count 4097 exceeds supported maximum 4096 (byte offset 0)"),
    (["compute", "--format", "edgelist"], "n 0\n", "vertex count must be >= 1, got 0 (line 1)"),
    (["compute", "--indices", ","], "", "no indices requested"),
    (["gen", "multipartite"], "", "multipartite needs at least one part size"),
    (["gen", "empty", "0"], "", "empty graph needs n >= 1, got 0"),
    (["gen", "complete", "-2"], "", "complete graph needs n >= 1, got -2"),
    (["gen", "path", "0"], "", "path needs l >= 1, got 0"),
    (["gen", "star", "0"], "", "star needs n >= 1, got 0"),
    (["gen", "tree", "0"], "", "tree needs n >= 1, got 0"),
    (
        ["search", "probe", "--op", "symdiff", "--n1", "4", "--n2", "4", "--samples", "-1", "--seed", "1"],
        "",
        "samples must be >= 0, got -1",
    ),
    (["bound", "theorem1", "--n", "0"], "", "need n >= 1, got 0"),
    (["bound", "join", "A_", "A_", "--n", "5"], "", "bound join does not take --n (theorem1 only)"),
    (
        ["bound", "theorem1", "A_", "A_", "--n", "3"],
        "",
        "bound theorem1 does not take operands (products only)",
    ),
]


@pytest.mark.parametrize("argv,stdin,message", INPUT_ERRORS, ids=[" ".join(c[0]) for c in INPUT_ERRORS])
def test_input_error_exits_1_with_one_error_line(argv, stdin, message, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin_of(stdin))
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


EMPTY_64 = emit_graph6(gen_empty(64))
EMPTY_65 = emit_graph6(gen_empty(65))


@pytest.mark.parametrize(
    "argv,stdin",
    [
        (["compute", "--format", "edgelist"], "n 100000000\n0 1\n"),
        (["gen", "path", "1000000"], ""),
        (["gen", "multipartite", "1000000", "1000000"], ""),
        (["op", "cartesian", EMPTY_65, EMPTY_64], ""),
        (["op", "corona", EMPTY_64, EMPTY_64], ""),
    ],
    ids=["edgelist-header", "gen-path", "gen-multipartite", "op-cartesian", "op-corona"],
)
def test_size_caps_checked_before_building(argv, stdin, monkeypatch, capsys):
    def build(*args):
        raise AssertionError("composite built before its size was checked")

    monkeypatch.setattr("totirr.cli.apply_product", build)
    monkeypatch.setattr("sys.stdin", stdin_of(stdin))
    code, text = run_cli(*argv)
    assert code == 1 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("workers", ["0", "257"])
@pytest.mark.parametrize(
    "argv",
    [["search", "theorem1", "--n", "4"], ["search", "sweep", "--op", "join", "--n1", "2", "--n2", "2"]],
    ids=["theorem1", "sweep"],
)
def test_workers_out_of_range(argv, workers, capsys):
    code, text = run_cli(*argv, "--workers", workers)
    assert code == 1 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize(
    "argv,workers",
    [
        (["search", "theorem1", "--n", "9"], "0"),
        (["search", "sweep", "--op", "join", "--n1", "5", "--n2", "2"], "257"),
        (["search", "theorem1", "--n", "8"], "0"),
    ],
    ids=["theorem1-n9", "sweep-5x2", "theorem1-n8"],
)
def test_workers_checked_before_other_arguments_and_any_scan(argv, workers, monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan started before --workers was checked")

    monkeypatch.setattr(totirr.search, "_bit_degrees", no_scan)
    code, text = run_cli(*argv, "--workers", workers)
    assert code == 1 and text == ""
    assert capsys.readouterr().err == f"error: workers must be in [1, 256], got {workers}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--n", "1"], "verify_theorem1 supports 2 <= n <= 8, got 1"),
        (["--n", "9"], "verify_theorem1 supports 2 <= n <= 8, got 9"),
    ],
    ids=["n1", "n9"],
)
def test_theorem1_range_checked_before_any_scan(argv, message, monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan started before n was checked")

    monkeypatch.setattr(totirr.search, "_bit_degrees", no_scan)
    code, text = run_cli("search", "theorem1", *argv)
    assert code == 1 and text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_theorem1_n8_prints_the_ci_record():
    # the record the CI workflow checks
    code, text = run_cli("search", "theorem1", "--n", "8")
    assert code == 0
    assert text == "task=search kind=theorem1 n=8 cases=268435456 max_value=68 witness=G??Xz{\n"


@pytest.mark.parametrize(
    "argv,unknown",
    [
        (["search", "theorem1", "--n", "8", "--allow-large"], "--allow-large"),
        (["op", "join", "@", "@", "-o", "out.g6"], "-o out.g6"),
    ],
    ids=["allow-large", "op-output"],
)
def test_removed_options_exit_1(argv, unknown, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on an unknown option")

    monkeypatch.setattr(totirr.search, "_bit_degrees", no_work)
    monkeypatch.setattr("totirr.cli.apply_product", no_work)
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(*argv)
    assert code == 1 and text == ""
    # argparse's usage line, then the one error line
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [f"error: unrecognized arguments: {unknown}"]
    assert list(tmp_path.iterdir()) == []


def test_probe_sample_cap(monkeypatch, capsys):
    def no_sampling(seed):
        raise AssertionError("the probe started sampling")

    monkeypatch.setattr(totirr.search, "random", types.SimpleNamespace(Random=no_sampling))
    samples = str(totirr.search.MAX_PROBE_SAMPLES + 1)
    code, text = run_cli(
        "search", "probe", "--op", "symdiff", "--n1", "4", "--n2", "4",
        "--samples", samples, "--seed", "0",
    )
    assert code == 1 and text == ""
    assert capsys.readouterr().err == f"error: samples must be <= 10000000, got {samples}\n"


@pytest.mark.parametrize("n1,n2", [("-100", "-100"), ("0", "4097"), ("4", "0")])
def test_probe_rejects_sizes_below_one(n1, n2, capsys):
    code, text = run_cli(
        "search", "probe", "--op", "symdiff", "--n1", n1, "--n2", n2, "--samples", "1", "--seed", "0",
    )
    assert code == 1 and text == ""
    assert capsys.readouterr().err == f"error: probe requires n1, n2 >= 1, got {n1}, {n2}\n"

@pytest.mark.parametrize("n", ["4", "4096"], ids=["flushed-at-end", "written-in-command"])
def test_closed_stdout_exits_1_without_traceback(n):
    # the pipe's read end is closed before the command writes anything, so
    # every write to stdout fails; at n = 4096 the 1.4 MB graph6 line fails
    # inside print, at n = 4 the buffered line fails on the final flush
    proc = subprocess.Popen(
        [sys.executable, "-m", "totirr.cli", "gen", "path", n],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize(
    "exc,code,err",
    [
        (KeyboardInterrupt(), 130, ""),
        (MemoryError(), 1, "error: out of memory\n"),
        (MemoryError("Unable to allocate 1.00 PiB"), 1, "error: Unable to allocate 1.00 PiB\n"),
    ],
    ids=["interrupt", "memory", "memory-message"],
)
def test_interrupt_and_memory_error(exc, code, err, monkeypatch, capsys):
    def command(args, out):
        raise exc

    monkeypatch.setattr("totirr.cli._cmd_gen", command)
    assert run_cli("gen", "path", "4") == (code, "")
    assert capsys.readouterr().err == err
