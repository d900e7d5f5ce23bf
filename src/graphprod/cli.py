"""Command-line front end: graph I/O, products, factoring, and reductions.

Exit codes are fixed for scriptability: 0 success, 2 parse or usage error,
3 size bound exceeded, 4 precondition violated, 5 internal error (a
result failed its own re-verification).  ``--json`` switches every
subcommand to a single machine-readable run report on stdout.  The
``GRAPHPROD_MAX_NODES`` environment variable overrides the built-in size
bounds.
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
    InternalError,
    PreconditionError,
    SizeLimitError,
    disjoint_union,
    format_edge_list,
    read_edge_list,
    write_edge_list,
)
from .isomorphism import are_isomorphic
from .products import ProductKind, product

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphprod",
        description="Graph products, direct-product primality, and isomorphism reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="compute a graph product of two edge-list files")
    p.add_argument("--kind", required=True, choices=[k.value for k in ProductKind])
    p.add_argument("--out", help="write the product here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.add_argument("file1")
    p.add_argument("file2")

    f = sub.add_parser("factor", help="direct-product primality / factorization")
    f.add_argument("--json", action="store_true")
    f.add_argument("file")

    i = sub.add_parser("iso", help="decide graph isomorphism")
    i.add_argument("--mode", required=True, choices=["direct", "reduction"])
    i.add_argument(
        "--oracle",
        choices=sorted(_ORACLES),
        default="factor-search",
        help="compositeness decider used in reduction mode",
    )
    i.add_argument("--json", action="store_true")
    i.add_argument("file1")
    i.add_argument("file2")

    c = sub.add_parser("classg", help="class G membership report, optional padding")
    c.add_argument("--pad", action="store_true", help="also emit the padded graph")
    c.add_argument("--out", help="write the padded graph here (implies --pad)")
    c.add_argument("--json", action="store_true")
    c.add_argument("file")

    d = sub.add_parser("demo", help="reproduce the counterexample constructions")
    d.add_argument("which", choices=["fig2", "fig3"])
    d.add_argument("--json", action="store_true")
    return parser


def _emit(args, inputs: list[str], outcome, human_lines: list[str], started: float) -> None:
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.json:
        report = {
            "command": args.command,
            "inputs": inputs,
            "outcome": outcome,
            "elapsed_ms": round(elapsed_ms, 3),
        }
        print(json.dumps(report))
    else:
        for line in human_lines:
            print(line)


def _cmd_product(args, started: float) -> int:
    g1 = read_edge_list(args.file1)
    g2 = read_edge_list(args.file2)
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
    _emit(args, [args.file1, args.file2], outcome, human, started)
    return EXIT_OK


def _cmd_factor(args, started: float) -> int:
    g = read_edge_list(args.file)
    limit = _env_limit() or factorization.DEFAULT_NODE_LIMIT
    if g.node_count == 1:
        _emit(args, [args.file], {"verdict": "trivial"}, ["trivial"], started)
        return EXIT_OK
    witness = factorization.find_factorization(g, node_limit=limit)
    if witness is None:
        _emit(args, [args.file], {"verdict": "prime"}, ["prime"], started)
        return EXIT_OK
    wj = factorization.witness_to_json(witness)
    human = [
        "composite",
        f"factor A ({wj['a_order']} nodes): edges {wj['a_edges']}",
        f"factor B ({wj['b_order']} nodes): edges {wj['b_edges']}",
        f"labeling: {wj['labeling']}",
    ]
    _emit(args, [args.file], {"verdict": "composite", "witness": wj}, human, started)
    return EXIT_OK


def _cmd_iso(args, started: float) -> int:
    g1 = read_edge_list(args.file1)
    g2 = read_edge_list(args.file2)
    inputs = [args.file1, args.file2]
    env = _env_limit()
    biggest = max(g1.node_count, g2.node_count)
    if env is not None and biggest > env:  # both modes, before any padding or search
        raise SizeLimitError(f"input order {biggest} exceeds GRAPHPROD_MAX_NODES={env}")
    if args.mode == "direct":
        if env is None and biggest > isomorphism.DEFAULT_NODE_LIMIT:
            print(
                f"warning: {biggest} nodes exceeds the default "
                f"{isomorphism.DEFAULT_NODE_LIMIT}-node bound; running anyway",
                file=sys.stderr,
            )
        witness = are_isomorphic(g1, g2, node_limit=None)
        verdict = witness is not None
        outcome = {
            "verdict": "YES" if verdict else "NO",
            "mapping": list(witness.mapping) if witness else None,
        }
        _emit(args, inputs, outcome, [outcome["verdict"]], started)
        return EXIT_OK

    pads = reduction.pad_pair(g1, g2)
    human: list[str] = []
    outcome = {"oracle": args.oracle, "oracle_calls": 0 if pads is None else 1}
    if pads is None:
        verdict = False
        human.append("count filter: node or edge counts differ; no oracle call")
        outcome["count_filter"] = "reject"
    else:
        pr1, pr2, union = pads
        verdict = _ORACLES[args.oracle](union)
        human.append(
            f"padding: p={pr1.chosen_prime}, loops=({pr1.loops_added}, {pr2.loops_added})"
        )
        human.append(
            f"gadgets: {pr1.chosen_prime} nodes each, union {2 * pr1.chosen_prime} nodes"
        )
        human.append(f"oracle[{args.oracle}]: {'composite' if verdict else 'prime'}")
        outcome.update(
            {
                "p": pr1.chosen_prime,
                "d": [pr1.loops_added, pr2.loops_added],
                "gadget_nodes": [pr1.padded.node_count, pr2.padded.node_count],
                "oracle_verdict": "composite" if verdict else "prime",
            }
        )
    outcome["verdict"] = "YES" if verdict else "NO"
    human.append(outcome["verdict"])
    _emit(args, inputs, outcome, human, started)
    return EXIT_OK


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def _cmd_classg(args, started: float) -> int:
    g = read_edge_list(args.file)
    report = reduction.class_g_check(g)
    flags = {field: getattr(report, field) for field, _, _ in reduction.CLASS_G_PROPERTIES}
    human = [
        f"nodes={g.node_count} edges={g.edge_count} loops={g.loop_count} "
        f"nonzeros={g.nonzero_count}",
        *(f"{label + ':':31}{_flag(flags[p])}" for p, label, _ in reduction.CLASS_G_PROPERTIES),
        f"member: {_flag(report.member)}",
    ]
    outcome: dict = {"member": report.member, **flags}
    if args.pad or args.out:
        result = reduction.pad_to_class_g(g)
        pad_json = reduction.padding_result_to_json(result)
        if args.out:
            write_edge_list(result.padded, args.out)
            human.append(f"wrote padded graph to {args.out}")
        human.append(
            f"padded: p={result.chosen_prime} d={result.loops_added} "
            f"({result.padded.node_count} nodes, {result.padded.edge_count} edges)"
        )
        human.append(json.dumps(pad_json))
        outcome["padding"] = pad_json
    _emit(args, [args.file], outcome, human, started)
    return EXIT_OK


def _fig2_checks() -> list[tuple[str, bool]]:
    g1, g2 = catalog.FIG2_G1, catalog.FIG2_G2
    union = disjoint_union(g2, g2)
    prod_k2 = products.direct_product(g1, g2)
    prod_d2 = products.direct_product(catalog.D2, g2)
    k2_matrix = ((0, 1), (1, 0))
    w_k2 = factorization.factor_search(union, 2, 5, fixed_a=k2_matrix)
    w_d2 = factorization.factor_search(union, 2, 5, fixed_a=factorization.I2_MATRIX)
    checks = [
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
    return checks


def _fig3_checks() -> list[tuple[str, bool]]:
    from .core import connected_components, induced_subgraph

    g1, g2 = catalog.FIG3_G1, catalog.FIG3_G2
    g3 = products.direct_product(g1, g2)
    comps = connected_components(g3)
    two = len(comps) == 2
    equal_counts = False
    non_isomorphic = False
    if two:
        c1 = induced_subgraph(g3, comps[0])
        c2 = induced_subgraph(g3, comps[1])
        equal_counts = (
            c1.node_count == c2.node_count and c1.edge_count == c2.edge_count
        )
        if equal_counts:
            non_isomorphic = are_isomorphic(c1, c2, node_limit=None) is None
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


def _cmd_demo(args, started: float) -> int:
    checks = _fig2_checks() if args.which == "fig2" else _fig3_checks()
    human = [f"{'PASS' if ok else 'FAIL'}: {claim}" for claim, ok in checks]
    all_pass = all(ok for _, ok in checks)
    human.append(f"{args.which}: {'all checks passed' if all_pass else 'CHECKS FAILED'}")
    outcome = {
        "which": args.which,
        "checks": [{"claim": claim, "pass": ok} for claim, ok in checks],
        "all_pass": all_pass,
    }
    _emit(args, [], outcome, human, started)
    return EXIT_OK if all_pass else 1


_HANDLERS = {
    "product": _cmd_product,
    "factor": _cmd_factor,
    "iso": _cmd_iso,
    "classg": _cmd_classg,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        return _HANDLERS[args.command](args, started)
    except EdgeListParseError as exc:
        return _fail(args, exc, EXIT_PARSE)
    except SizeLimitError as exc:
        return _fail(args, exc, EXIT_SIZE)
    except PreconditionError as exc:
        return _fail(args, exc, EXIT_PRECONDITION)
    except InternalError as exc:
        return _fail(args, exc, EXIT_INTERNAL)
    except OSError as exc:
        return _fail(args, exc, EXIT_PARSE)


def _fail(args, exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    if getattr(args, "json", False):
        print(json.dumps({"command": args.command, "error": str(exc), "exit_code": code}))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
