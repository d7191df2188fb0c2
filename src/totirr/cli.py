"""Command-line surface: generate graphs, apply operations, compute
indices, evaluate bounds, and run the verification searches.

All results go to stdout as line-delimited key=value records (graph6 for
graphs); diagnostics go to stderr.  Exit codes: 0 success, 1 input error,
out of memory or a closed stdout, 2 internal invariant violation (including
any bound falsification), 130 interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .bounds import BoundReport, bound_theorem1, evaluate_bound
from .errors import Graph6ParseError, InputError, InternalError
from .families import (
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_empty,
    gen_extremal_total_irr,
    gen_path,
    gen_random_tree,
    gen_star,
)
from .formats import check_graph6_size, emit_graph6, format_record, parse_edge_list, parse_graph6
from .graph import Graph
from .indices import (
    collatz_sinogowitz,
    degree_variance,
    graph_total_irregularity,
    irregularity,
    zagreb_m1,
    zagreb_m2,
)
from .products import ProductKind, apply_product
from .search import (
    PROBE_KINDS,
    SearchOutcome,
    probe_open_problem,
    sweep_operation_bounds,
    verify_theorem1,
)

INDEX_FUNCS = {
    "irr_t": graph_total_irregularity,
    "irr": irregularity,
    "m1": zagreb_m1,
    "m2": zagreb_m2,
    "var": degree_variance,
    "cs": collatz_sinogowitz,
}

# gen's families in usage order; multipartite takes the part sizes, the rest one n
FAMILIES = {
    "path": lambda params, seed: gen_path(params[0]),
    "cycle": lambda params, seed: gen_cycle(params[0]),
    "complete": lambda params, seed: gen_complete(params[0]),
    "star": lambda params, seed: gen_star(params[0]),
    "empty": lambda params, seed: gen_empty(params[0]),
    "multipartite": lambda params, seed: gen_complete_multipartite(params),
    "extremal": lambda params, seed: gen_extremal_total_irr(params[0]),
    "tree": lambda params, seed: gen_random_tree(params[0], seed),
}

PRODUCT_TAGS = [k.value for k in ProductKind]

# the searches run in one process; --workers stays only because the
# benchmark passes it
MAX_WORKERS = 256
WORKERS_HELP = f"checked (1 to {MAX_WORKERS}) but ignored; kept because the benchmark passes it"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="totirr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute indices for input graphs")
    p_compute.set_defaults(run=_cmd_compute)
    p_compute.add_argument("--input", default="-", help="input file, '-' for stdin")
    p_compute.add_argument("--format", choices=["g6", "edgelist"], default="g6")
    p_compute.add_argument(
        "--indices",
        default=",".join(INDEX_FUNCS),
        help=f"comma-separated subset of {','.join(INDEX_FUNCS)}",
    )

    p_gen = sub.add_parser("gen", help="generate a named graph family as graph6")
    p_gen.set_defaults(run=_cmd_gen)
    p_gen.add_argument("family", choices=list(FAMILIES))
    p_gen.add_argument("params", nargs="*", type=int, help="family parameters")
    p_gen.add_argument("--seed", type=int, default=0, help="seed for tree generation")

    p_op = sub.add_parser("op", help="apply a binary operation to two graph6 graphs")
    p_op.set_defaults(run=_cmd_op)
    p_op.add_argument("kind", choices=PRODUCT_TAGS)
    p_op.add_argument("a", help="left operand, graph6")
    p_op.add_argument("b", help="right operand, graph6")

    p_bound = sub.add_parser("bound", help="evaluate a theorem bound")
    p_bound.set_defaults(run=_cmd_bound)
    p_bound.add_argument("kind", choices=PRODUCT_TAGS + ["theorem1"])
    p_bound.add_argument("a", nargs="?", help="left operand, graph6")
    p_bound.add_argument("b", nargs="?", help="right operand, graph6")
    p_bound.add_argument("--n", type=int, default=None, help="vertex count (theorem1 only)")

    p_search = sub.add_parser("search", help="run a verification search")
    p_search.set_defaults(run=_cmd_search)
    search_sub = p_search.add_subparsers(dest="search_task", required=True)

    p_t1 = search_sub.add_parser("theorem1", help="exhaustive max total irregularity")
    p_t1.add_argument("--n", type=int, required=True)
    p_t1.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)

    p_sw = search_sub.add_parser("sweep", help="exhaustive bound sweep over operand pairs")
    p_sw.add_argument("--op", required=True, choices=PRODUCT_TAGS)
    p_sw.add_argument("--n1", type=int, required=True)
    p_sw.add_argument("--n2", type=int, required=True)
    p_sw.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)

    p_pr = search_sub.add_parser("probe", help="randomized probe of the open tightness question")
    p_pr.add_argument("--op", required=True, choices=[k.value for k in PROBE_KINDS])
    p_pr.add_argument("--n1", type=int, required=True)
    p_pr.add_argument("--n2", type=int, required=True)
    p_pr.add_argument("--samples", type=int, required=True)
    p_pr.add_argument("--seed", type=int, required=True)

    return parser


def _read_input(path: str) -> str:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
    # a non-ASCII byte decodes to a lone surrogate at its byte offset, so
    # the parsers reject it as an input error
    return data.decode("ascii", "surrogateescape")


def _load_graphs(text: str, fmt: str) -> List[Graph]:
    if fmt == "edgelist":
        return [parse_edge_list(text)]
    graphs = []
    for line in text.splitlines():
        g6 = line.strip()
        if g6:
            try:
                graphs.append(parse_graph6(g6))
            except Graph6ParseError as exc:
                # an offset counts bytes from the start of the line as given
                lead = len(line) - len(line.lstrip())
                raise Graph6ParseError(exc.message, lead + exc.offset) from None
    if not graphs:
        raise InputError("no graphs in input")
    return graphs


def _cmd_compute(args, out) -> None:
    names = [name.strip() for name in args.indices.split(",") if name.strip()]
    for name in names:
        if name not in INDEX_FUNCS:
            raise InputError(f"unknown index {name!r}; choose from {','.join(INDEX_FUNCS)}")
    if not names:
        raise InputError("no indices requested")
    for g in _load_graphs(_read_input(args.input), args.format):
        g6 = emit_graph6(g)
        for name in names:
            value = INDEX_FUNCS[name](g)
            print(
                format_record(
                    [("task", "compute"), ("input", g6), ("index", name), ("value", value)]
                ),
                file=out,
            )


def _cmd_gen(args, out) -> None:
    family, params = args.family, args.params
    if family == "multipartite":
        if not params:
            raise InputError("multipartite needs at least one part size")
    elif len(params) != 1:
        raise InputError(f"family {family!r} takes exactly one integer parameter")
    check_graph6_size(sum(params))
    print(emit_graph6(FAMILIES[family](params, args.seed)), file=out)


def _cmd_op(args, out) -> None:
    kind = ProductKind(args.kind)
    g = parse_graph6(args.a)
    h = parse_graph6(args.b)
    n = {ProductKind.JOIN: g.n + h.n, ProductKind.CORONA: g.n + g.n * h.n}.get(kind, g.n * h.n)
    check_graph6_size(n)
    print(emit_graph6(apply_product(kind, g, h)), file=out)


def _bound_record(report: BoundReport, g6_a: str, g6_b: str) -> str:
    return format_record(
        [
            ("task", "bound"),
            ("kind", report.kind.value),
            ("g", g6_a),
            ("h", g6_b),
            ("n1", report.n1),
            ("m1", report.m1),
            ("n2", report.n2),
            ("m2", report.m2),
            ("irr_t_g", report.irr_t_g),
            ("irr_t_h", report.irr_t_h),
            ("actual", report.actual),
            ("bound", report.bound),
            ("slack", report.slack),
            ("tight", report.tight),
            ("hypothesis_ok", report.hypothesis_ok),
        ]
    )


def _cmd_bound(args, out) -> None:
    if args.kind == "theorem1":
        if args.a is not None:
            raise InputError("bound theorem1 does not take operands (products only)")
        if args.n is None:
            raise InputError("bound theorem1 requires --n")
        print(
            format_record(
                [("task", "bound"), ("kind", "theorem1"), ("n", args.n), ("bound", bound_theorem1(args.n))]
            ),
            file=out,
        )
        return
    if args.n is not None:
        raise InputError(f"bound {args.kind} does not take --n (theorem1 only)")
    if args.a is None or args.b is None:
        raise InputError(f"bound {args.kind} requires two graph6 operands")
    g = parse_graph6(args.a)
    h = parse_graph6(args.b)
    report = evaluate_bound(ProductKind(args.kind), g, h)
    print(_bound_record(report, emit_graph6(g), emit_graph6(h)), file=out)


def _search_record(outcome: SearchOutcome) -> str:
    fields: List[Tuple[str, object]] = [("task", "search"), ("kind", outcome.task)]
    if outcome.task == "theorem1":
        fields += [
            ("n", outcome.n1),
            ("cases", outcome.cases_examined),
            ("max_value", outcome.max_value),
            ("witness", outcome.witness[0]),
        ]
    else:
        fields += [("n1", outcome.n1), ("n2", outcome.n2)]
        if outcome.seed is not None:
            fields.append(("seed", outcome.seed))
        fields += [
            ("cases", outcome.cases_examined),
            ("min_slack", outcome.min_slack),
            ("max_ratio", outcome.max_ratio),
            ("witness_g", outcome.witness[0] if outcome.witness else None),
            ("witness_h", outcome.witness[1] if len(outcome.witness) > 1 else None),
        ]
    return format_record(fields)


def _cmd_search(args, out) -> None:
    if args.search_task != "probe" and not 1 <= args.workers <= MAX_WORKERS:
        raise InputError(f"workers must be in [1, {MAX_WORKERS}], got {args.workers}")
    if args.search_task == "theorem1":
        outcome = verify_theorem1(args.n)
    elif args.search_task == "sweep":
        outcome = sweep_operation_bounds(ProductKind(args.op), args.n1, args.n2)
    else:
        outcome = probe_open_problem(
            ProductKind(args.op), args.n1, args.n2, samples=args.samples, seed=args.seed
        )
    print(_search_record(outcome), file=out)


def cli_main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        args.run(args, out)
        out.flush()  # so a closed pipe shows here, not at exit
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`); what is still buffered
        # goes to devnull, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        return 130
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> int:
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
