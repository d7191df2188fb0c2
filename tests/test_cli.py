import io

import pytest

from totirr import emit_graph6, gen_cycle, gen_empty, gen_path, parse_graph6, parse_record
from totirr.cli import cli_main


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
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(gen_path(4)) + "\n"))
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


def test_op_output_file(tmp_path):
    out = tmp_path / "out.g6"
    code, _ = run_cli("op", "join", "@", "@", "-o", str(out))
    assert code == 0
    assert parse_graph6(out.read_text().strip()).m == 1


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


def test_gen_invalid_params():
    code, _ = run_cli("gen", "cycle", "2")
    assert code == 1
    code, _ = run_cli("gen", "path")
    assert code == 1


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
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
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
