"""Every integer argument goes through `errors.integer`: a numpy integer
gives the result of the int it equals, and a value that is not an integer
raises one InputError whose message names the argument."""

from fractions import Fraction

import numpy as np
import pytest

from totirr import (
    InputError,
    ProductKind,
    bound_theorem1,
    from_edge_list,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_empty,
    gen_extremal_total_irr,
    gen_path,
    gen_random_tree,
    gen_star,
    graph_from_code,
    num_labeled_graphs,
    probe_open_problem,
    sweep_operation_bounds,
    verify_theorem1,
)
from totirr.errors import integer
from totirr.families import tree_from_pruefer
from totirr.formats import check_graph6_size, graph_from_bits, parse_edge_list


def probe(n1=4, n2=4, samples=1000, seed=1729):
    return probe_open_problem(ProductKind.SYMDIFF, n1, n2, samples=samples, seed=seed)


# parameter: (call with the argument v, a valid value, the start of the message)
ARGUMENTS = {
    "bound_theorem1.n": (bound_theorem1, 5, "n must be an integer"),
    # 12 is past int64: the count is 2^66
    "num_labeled_graphs.n": (num_labeled_graphs, 12, "n must be an integer"),
    "graph_from_code.n": (lambda v: graph_from_code(v, 5), 3, "n must be an integer"),
    "graph_from_bits.n": (lambda v: graph_from_bits(v, [1, 0, 1]), 3, "n must be an integer"),
    "graph_from_code.code": (lambda v: graph_from_code(3, v), 5, "code must be an integer"),
    "verify_theorem1.n": (verify_theorem1, 7, "n must be an integer"),
    "sweep.n1": (lambda v: sweep_operation_bounds(ProductKind.JOIN, v, 2), 3, "n1 must be an integer"),
    "sweep.n2": (lambda v: sweep_operation_bounds(ProductKind.JOIN, 2, v), 3, "n2 must be an integer"),
    "probe.n1": (lambda v: probe(n1=v), 3, "n1 must be an integer"),
    "probe.n2": (lambda v: probe(n2=v), 3, "n2 must be an integer"),
    "probe.samples": (lambda v: probe(samples=v), 100, "samples must be an integer"),
    "probe.seed": (lambda v: probe(seed=v), 1729, "seed must be an integer"),
    "gen_empty.n": (gen_empty, 5, "n must be an integer"),
    "gen_complete.n": (gen_complete, 5, "n must be an integer"),
    "gen_path.l": (gen_path, 5, "l must be an integer"),
    "gen_cycle.k": (gen_cycle, 5, "k must be an integer"),
    "gen_star.n": (gen_star, 5, "n must be an integer"),
    "gen_complete_multipartite.parts": (
        lambda v: gen_complete_multipartite([2, v]), 3, "parts[1] must be an integer"
    ),
    "gen_extremal_total_irr.n": (gen_extremal_total_irr, 5, "n must be an integer"),
    "gen_random_tree.n": (lambda v: gen_random_tree(v, 42), 9, "n must be an integer"),
    "gen_random_tree.seed": (lambda v: gen_random_tree(9, v), 42, "seed must be an integer"),
    "tree_from_pruefer.n": (lambda v: tree_from_pruefer(v, [1, 1, 4]), 5, "n must be an integer"),
    "tree_from_pruefer.seq": (lambda v: tree_from_pruefer(5, [1, v, 4]), 1, "seq[1] must be an integer"),
    "from_edge_list.n": (lambda v: from_edge_list(v, [(0, 1)]), 3, "n must be an integer"),
    "from_edge_list.edges": (lambda v: from_edge_list(3, [(0, v)]), 2, "edge (0, "),
}


@pytest.mark.parametrize("parameter", ARGUMENTS)
def test_numpy_integer_gives_the_int_result(parameter):
    call, valid, _ = ARGUMENTS[parameter]
    assert call(np.int64(valid)) == call(valid)


@pytest.mark.parametrize("value", [2.5, "3", None], ids=["float", "str", "none"])
@pytest.mark.parametrize("parameter", ARGUMENTS)
def test_non_integer_rejected(parameter, value):
    call, _, message = ARGUMENTS[parameter]
    with pytest.raises(InputError) as exc:
        call(value)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize(
    "low,high,value,message",
    [
        (None, None, 2.5, "x must be an integer, got 2.5"),
        (1, None, 0, "x must be an integer >= 1, got 0"),
        (None, 4, 5, "x must be an integer <= 4, got 5"),
        (1, 4, np.int64(5), "x must be an integer in [1, 4], got 5"),
        (1, 4, "3", "x must be an integer in [1, 4], got '3'"),
    ],
    ids=["open", "low", "high", "both", "str"],
)
def test_message_names_the_argument_and_its_range(low, high, value, message):
    with pytest.raises(InputError) as exc:
        integer(value, "x", low, high)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "value,expected", [(np.uint8(3), 3), (True, 1), (2**70, 2**70)], ids=["numpy-uint8", "bool", "2^70"]
)
def test_integers_pass_as_python_ints(value, expected):
    result = integer(value, "x", 0)
    assert result == expected and type(result) is int


@pytest.mark.parametrize(
    "call",
    [
        lambda: integer(10**5000, "n", 2, 8),
        lambda: verify_theorem1(10**5000),
        lambda: gen_empty(-(10**5000)),
        # the code's upper bound, 2^14365 - 1, is past 4300 digits itself
        lambda: graph_from_code(170, -1),
        # and here it has 1490
        lambda: graph_from_code(100, -1),
        lambda: check_graph6_size(10**5000),
        lambda: tree_from_pruefer(10**5000, []),
        # a value shown by its repr: a tuple's and a Fraction's raise here
        lambda: from_edge_list(3, [(10**5000, 1)]),
        lambda: ProductKind(10**5000),
        lambda: integer(Fraction(10**5000), "n", 1),
        # an edge-list field past 4300 digits is never read as an int
        lambda: parse_edge_list("n " + "9" * 4301),
        lambda: parse_edge_list("n 3\n0 " + "9" * 4301),
    ],
    ids=[
        "integer",
        "verify_theorem1",
        "gen_empty",
        "graph_from_code-170",
        "graph_from_code-100",
        "check_graph6_size",
        "tree_from_pruefer",
        "from_edge_list",
        "ProductKind",
        "integer-Fraction",
        "parse_edge_list-count",
        "parse_edge_list-endpoint",
    ],
)
def test_long_integers_are_shown_by_bit_length(call):
    # past 4300 digits, Python 3.11+ refuses str() of an int with its own ValueError
    with pytest.raises(InputError) as exc:
        call()
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize(
    "value,shown",
    [(10**29, str(10**29)), (-(10**29), str(-(10**29))), (10**30, "<100-bit integer>"), (-(2**200), "-<201-bit integer>")],
    ids=["29-digits", "minus-29-digits", "30-digits", "minus-2^200"],
)
def test_integers_past_30_digits_are_shown_by_bit_length(value, shown):
    with pytest.raises(InputError) as exc:
        integer(value, "x", 0, 1)
    assert str(exc.value) == f"x must be an integer in [0, 1], got {shown}"
