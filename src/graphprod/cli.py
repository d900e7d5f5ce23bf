"""Command-line front end: graph I/O, products, factoring, and reductions.

Exit codes are fixed for scriptability: 0 success, 1 a ``demo`` check
failed, 2 parse, usage or I/O error (a missing, unreadable or unwritable
file, or a closed output pipe), 3 size bound exceeded, 4 precondition
violated, 5 internal error (a result failed its own re-verification).
``demo`` is the only command that exits nonzero without an error.
``--json`` switches every subcommand to a single machine-readable run
report on stdout.  The ``GRAPHPROD_MAX_NODES`` environment variable
overrides the built-in size bounds.

``main`` alone reads the input files, in argument order, and passes the
graphs to the handler that the parser binds to the subcommand as ``run``.
Handlers return their outcome and human lines; ``main`` alone times the
command, reads included, writes the report and maps every error to its
exit code.  Every line on stdout and stderr, argparse's usage and help
text included, goes through one helper, ``_write``.  A lost stdout (a
closed pipe, or a descriptor closed at start-up) is reported with one
``error:`` line and exit 2, unless the run had already failed with an
error, which keeps its own code; a closed or broken stderr changes
neither the exit code nor stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import catalog, factorization, isomorphism, products, reduction
from .core import (
    MAX_HEADER_NODES,
    EdgeListParseError,
    Graph,
    InternalError,
    PreconditionError,
    SizeLimitError,
    connected_components,
    disjoint_union,
    format_edge_list,
    induced_subgraph,
    read_edge_list,
)
from .isomorphism import are_isomorphic
from .products import ProductKind, product

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

# read in order: the first type the error is an instance of gives its code
_EXIT_CODES = {
    EdgeListParseError: EXIT_PARSE,
    SizeLimitError: EXIT_SIZE,
    PreconditionError: EXIT_PRECONDITION,
    InternalError: EXIT_INTERNAL,
    OSError: EXIT_PARSE,
}

_ORACLES = {
    "factor-search": factorization.search_oracle,
    "classg-elimination": reduction.elimination_oracle,
}


def _env_limit() -> int | None:
    raw = os.environ.get("GRAPHPROD_MAX_NODES")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise EdgeListParseError(f"GRAPHPROD_MAX_NODES must be an integer, got {raw!r}", 0)
    if value < 1:
        raise EdgeListParseError("GRAPHPROD_MAX_NODES must be positive", 0)
    return value


class _Parser(argparse.ArgumentParser):
    """An argparse parser that writes its help and its usage errors through ``_write``."""

    def print_help(self, file=None) -> None:
        if not _write(self.format_help().removesuffix("\n")):
            self.exit(EXIT_PARSE)

    def error(self, message: str):
        _write(f"{self.format_usage()}{self.prog}: error: {message}", "stderr")
        self.exit(EXIT_PARSE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphprod",
        description="Graph products, direct-product primality, and isomorphism reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="compute a graph product of two edge-list files")
    p.add_argument("--kind", required=True, choices=[k.value for k in ProductKind])
    p.add_argument("--out", help="write the product here instead of stdout")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(run=_cmd_product)

    f = sub.add_parser("factor", help="direct-product primality / factorization")
    f.add_argument("file")
    f.set_defaults(run=_cmd_factor)

    i = sub.add_parser("iso", help="decide graph isomorphism")
    i.add_argument("--mode", required=True, choices=["direct", "reduction"])
    i.add_argument(
        "--oracle",
        choices=sorted(_ORACLES),
        default="factor-search",
        help="compositeness decider used in reduction mode",
    )
    i.add_argument("file1")
    i.add_argument("file2")
    i.set_defaults(run=_cmd_iso)

    c = sub.add_parser("classg", help="class G membership report, optional padding")
    c.add_argument("--pad", action="store_true", help="also emit the padded graph")
    c.add_argument("--out", help="write the padded graph here (implies --pad)")
    c.add_argument("file")
    c.set_defaults(run=_cmd_classg)

    d = sub.add_parser("demo", help="reproduce the counterexample constructions")
    d.add_argument("which", choices=["fig2", "fig3"])
    d.set_defaults(run=_cmd_demo)
    for command in sub.choices.values():
        command.add_argument("--json", action="store_true")
    return parser


def _cmd_product(args, g1: Graph, g2: Graph) -> tuple[dict, list[str]]:
    # capped at the header ceiling, so graphprod can read back what it writes
    limit = min(_env_limit() or products.DEFAULT_NODE_LIMIT, MAX_HEADER_NODES)
    result = product(ProductKind(args.kind), g1, g2, node_limit=limit)
    text = format_edge_list(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        human = [f"wrote {args.out}: {result.node_count} nodes, {result.edge_count} edges"]
    else:
        human = [text.rstrip("\n")]
    outcome = {
        "nodes": result.node_count,
        "edges": result.edge_count,
        "edge_list": text,
        "out": args.out,
    }
    return outcome, human


def _cmd_factor(args, g: Graph) -> tuple[dict, list[str]]:
    limit = _env_limit() or factorization.DEFAULT_NODE_LIMIT
    if g.node_count == 1:
        return {"verdict": "trivial"}, ["trivial"]
    witness = factorization.find_factorization(g, node_limit=limit)
    if witness is None:
        return {"verdict": "prime"}, ["prime"]
    wj = factorization.witness_to_json(witness)
    human = [
        "composite",
        f"factor A ({wj['a_order']} nodes): edges {wj['a_edges']}",
        f"factor B ({wj['b_order']} nodes): edges {wj['b_edges']}",
        f"labeling: {wj['labeling']}",
    ]
    return {"verdict": "composite", "witness": wj}, human


def _cmd_iso(args, g1: Graph, g2: Graph) -> tuple[dict, list[str]]:
    env = _env_limit()
    biggest = max(g1.node_count, g2.node_count)
    if env is not None and biggest > env:  # both modes, before any padding or search
        raise SizeLimitError(f"input order {biggest} exceeds GRAPHPROD_MAX_NODES={env}")
    if args.mode == "direct":
        if env is None and biggest > isomorphism.DEFAULT_NODE_LIMIT:
            _write(f"warning: {biggest} nodes exceeds the default "
                   f"{isomorphism.DEFAULT_NODE_LIMIT}-node bound; running anyway", "stderr")
        witness = are_isomorphic(g1, g2, node_limit=None)
        verdict = "YES" if witness else "NO"
        mapping = list(witness.mapping) if witness else None
        return {"verdict": verdict, "mapping": mapping}, [verdict]

    pads = reduction.pad_pair(g1, g2)
    if pads is None:
        return (
            {"oracle": args.oracle, "oracle_calls": 0, "count_filter": "reject", "verdict": "NO"},
            ["count filter: node or edge counts differ; no oracle call", "NO"],
        )
    pr1, pr2, union = pads
    said, verdict = ("composite", "YES") if _ORACLES[args.oracle](union) else ("prime", "NO")
    outcome = {
        "oracle": args.oracle,
        "oracle_calls": 1,
        "p": pr1.chosen_prime,
        "d": [pr1.loops_added, pr2.loops_added],
        "gadget_nodes": [pr1.padded.node_count, pr2.padded.node_count],
        "oracle_verdict": said,
        "verdict": verdict,
    }
    human = [
        f"padding: p={pr1.chosen_prime}, loops=({pr1.loops_added}, {pr2.loops_added})",
        f"gadgets: {pr1.chosen_prime} nodes each, union {2 * pr1.chosen_prime} nodes",
        f"oracle[{args.oracle}]: {said}",
        verdict,
    ]
    return outcome, human


def _cmd_classg(args, g: Graph) -> tuple[dict, list[str]]:
    report = reduction.class_g_check(g)
    outcome: dict = report._asdict()
    human = [
        f"nodes={g.node_count} edges={g.edge_count} loops={g.loop_count} "
        f"nonzeros={g.nonzero_count}",
        *(f"{label + ':':31}{'yes' if outcome[p] else 'no'}"
          for p, label, _ in reduction.CLASS_G_PROPERTIES),
        f"member: {'yes' if report.member else 'no'}",
    ]
    if args.pad or args.out:
        result = reduction.pad_to_class_g(g)
        pad_json = reduction.padding_result_to_json(result)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(pad_json["padded_graph"])
            human.append(f"wrote padded graph to {args.out}")
        human.append(
            f"padded: p={result.chosen_prime} d={result.loops_added} "
            f"({result.padded.node_count} nodes, {result.padded.edge_count} edges)"
        )
        human.append(json.dumps(pad_json))
        outcome["padding"] = pad_json
    return outcome, human


def _fig2_checks() -> list[tuple[str, bool]]:
    g1, g2 = catalog.FIG2_G1, catalog.FIG2_G2
    union = disjoint_union(g2, g2)
    prod_k2 = products.direct_product(g1, g2)
    prod_d2 = products.direct_product(factorization.D2, g2)
    w_k2 = factorization.factor_search(union, 2, 5, fixed_a=factorization.K2_MATRIX)
    w_d2 = factorization.factor_search(union, 2, 5, fixed_a=factorization.I2_MATRIX)
    return [
        ("direct(G1, G2) is isomorphic to G2 u G2",
         are_isomorphic(prod_k2, union, node_limit=None) is not None),
        ("direct(D2, G2) equals G2 u G2 exactly", prod_d2.edges == union.edges),
        ("G2 u G2 factors with left factor K2 and right factor G2",
         w_k2 is not None
         and are_isomorphic(w_k2.factor_b, g2, node_limit=None) is not None),
        ("G2 u G2 factors with left factor D2 and right factor G2",
         w_d2 is not None
         and are_isomorphic(w_d2.factor_b, g2, node_limit=None) is not None),
    ]


def _fig3_checks() -> list[tuple[str, bool]]:
    g1, g2 = catalog.FIG3_G1, catalog.FIG3_G2
    g3 = products.direct_product(g1, g2)
    comps = [induced_subgraph(g3, nodes) for nodes in connected_components(g3)]
    two = len(comps) == 2
    equal_counts = two and (
        (comps[0].node_count, comps[0].edge_count) == (comps[1].node_count, comps[1].edge_count)
    )
    non_isomorphic = equal_counts and are_isomorphic(*comps, node_limit=None) is None
    witness = factorization.factor_search(g3, 2, 6)
    two_node_factor = (
        witness is not None
        and are_isomorphic(witness.factor_a, g1, node_limit=None) is not None
    )
    no_d2 = factorization.factor_search(g3, 2, 6, fixed_a=factorization.I2_MATRIX) is None
    return [
        ("G3 = direct(G1, G2) has exactly two connected components", two),
        ("the components have equal node and edge counts", equal_counts),
        ("the components are not isomorphic", non_isomorphic),
        ("G3 admits a two-node factor isomorphic to G1", two_node_factor),
        ("G3 admits no doubling factor D2 (exhaustive search)", no_d2),
    ]


def _cmd_demo(args) -> tuple[dict, list[str]]:
    checks = _fig2_checks() if args.which == "fig2" else _fig3_checks()
    human = [f"{'PASS' if ok else 'FAIL'}: {claim}" for claim, ok in checks]
    all_pass = all(ok for _, ok in checks)
    human.append(f"{args.which}: {'all checks passed' if all_pass else 'CHECKS FAILED'}")
    outcome = {
        "which": args.which,
        "checks": [{"claim": claim, "pass": ok} for claim, ok in checks],
        "all_pass": all_pass,
    }
    return outcome, human


def _write(line: str, name: str = "stdout") -> bool:
    """Print one line on ``sys.stdout`` or ``sys.stderr`` and flush it; False if it was lost.

    A stream whose write fails has its descriptor pointed at ``os.devnull``,
    so no later write fails again, the interpreter's flush at exit included;
    a stream Python left as None (its descriptor was closed at start-up) is
    skipped the same way.  A lost stdout line is reported on stderr.
    """
    stream = getattr(sys, name)
    try:
        if stream is None:
            raise OSError(f"{name} is closed")
        print(line, file=stream, flush=True)
        return True
    except OSError as exc:
        if stream is not None:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), stream.fileno())
        if name == "stdout":
            _write(f"error: {exc}", "stderr")
        return False


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    inputs = [vars(args)[k] for k in ("file", "file1", "file2") if k in args]
    started = time.perf_counter()
    try:
        outcome, human = args.run(args, *map(read_edge_list, inputs))
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        _write(f"error: {exc}", "stderr")
        if args.json:
            _write(json.dumps({"command": args.command, "error": str(exc), "exit_code": code}))
        return code
    if args.json:
        human = [json.dumps({
            "command": args.command,
            "inputs": inputs,
            "outcome": outcome,
            "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        })]
    if not _write("\n".join(human)):
        return EXIT_PARSE
    return EXIT_OK if outcome.get("all_pass", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
