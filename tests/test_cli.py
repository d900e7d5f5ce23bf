"""CLI contract: exit codes, output formats, corpus round-trips."""

import json
import os
import subprocess
import re
import sys
import textwrap

import pytest

from graphprod import pad_to_class_g, parse_edge_list
from graphprod.catalog import C3, C5, NAMED, corpus_path, load_corpus_graph
from graphprod.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(name: str) -> str:
    return str(corpus_path(name))


# -- corpus --------------------------------------------------------------------


def test_corpus_files_match_catalog():
    for name, g in NAMED.items():
        assert load_corpus_graph(name) == g


def test_corpus_round_trip_is_byte_identical(tmp_path):
    from graphprod import format_edge_list, read_edge_list, write_edge_list

    for name in NAMED:
        original = corpus_path(name).read_text()
        g = read_edge_list(corpus_path(name))
        out = tmp_path / f"{name}.el"
        write_edge_list(g, out)
        assert out.read_text() == original
        assert format_edge_list(g) == original


def test_corpus_path_names_a_graph_it_does_not_have():
    with pytest.raises(KeyError, match="no_such_graph"):
        corpus_path("no_such_graph")


# -- product -------------------------------------------------------------------


def test_product_direct_k2_k2(capsys):
    code, out, _ = run(capsys, "product", "--kind", "direct", path("k2"), path("k2"))
    assert code == 0
    g = parse_edge_list(out)
    assert g.node_count == 4 and g.edge_count == 2


def test_product_identity_factor(capsys):
    code, out, _ = run(capsys, "product", "--kind", "direct", path("l1"), path("c5"))
    assert code == 0
    assert parse_edge_list(out) == C5


def test_product_writes_file(tmp_path, capsys):
    target = tmp_path / "out.el"
    code, out, _ = run(
        capsys, "product", "--kind", "cartesian", "--out", str(target), path("k2"), path("k2")
    )
    assert code == 0
    assert parse_edge_list(target.read_text()).node_count == 4


def test_product_out_formats_once_and_matches_the_report(monkeypatch, tmp_path, capsys):
    from graphprod import core, cli, format_edge_list, strong_product

    calls = []

    def counted(g):
        calls.append(g.node_count)
        return format_edge_list(g)

    monkeypatch.setattr(core, "format_edge_list", counted)
    monkeypatch.setattr(cli, "format_edge_list", counted)
    target = tmp_path / "out.el"
    code, out, _ = run(
        capsys, "product", "--kind", "strong", "--json", "--out", str(target), path("c5"), path("c5")
    )
    assert code == 0
    assert calls == [25]
    text = format_edge_list(strong_product(C5, C5))
    assert target.read_bytes() == text.encode()
    assert json.loads(out)["outcome"]["edge_list"] == text


def test_product_bound_never_exceeds_the_header_ceiling(monkeypatch, tmp_path, capsys):
    empty = tmp_path / "empty.el"
    empty.write_text("1200 0\n")
    monkeypatch.setenv("GRAPHPROD_MAX_NODES", "2000000")
    target = tmp_path / "out.el"
    code, _, err = run(
        capsys, "product", "--kind", "direct", "--out", str(target), str(empty), str(empty)
    )
    assert code == 3
    assert "1440000" in err and not target.exists()


def test_product_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("2 1\n0 nope\n")
    code, _, err = run(capsys, "product", "--kind", "direct", str(bad), path("k2"))
    assert code == 2
    assert "line 2" in err


def test_product_with_an_empty_factor_exit_4(tmp_path, capsys):
    empty = tmp_path / "empty.el"
    empty.write_text("0 0\n")
    code, out, err = run(capsys, "product", "--kind", "direct", "--json", path("k2"), str(empty))
    assert code == 4
    assert err == "error: graph products require nonempty factors\n"
    report = json.loads(out)
    assert report["command"] == "product" and report["exit_code"] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("product", "--kind", "direct"),
        ("factor",),
        ("iso", "--mode", "direct"),
        ("iso", "--mode", "reduction"),
        ("classg",),
    ],
)
def test_a_file_that_is_not_utf8_is_a_parse_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_bytes(b"2 1\n0 1\n\xff\xfe\x00")
    files = [str(bad)] if argv[0] in ("factor", "classg") else [path("k2"), str(bad)]
    code, out, err = run(capsys, argv[0], "--json", *argv[1:], *files)
    assert code == 2
    assert err == "error: line 3: not UTF-8 text (byte 8)\n"
    report = json.loads(out)
    assert report["command"] == argv[0] and report["exit_code"] == 2


def test_factor_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    marked = tmp_path / "marked.el"
    marked.write_bytes(b"\xef\xbb\xbf3 2\n0 1\n1 2\n")
    code, _, err = run(capsys, "factor", str(marked))
    assert code == 0 and err == ""


@pytest.mark.parametrize(
    "env,missing,message",
    [
        (None, True, "No such file or directory"),
        ("abc", False, "GRAPHPROD_MAX_NODES must be an integer, got 'abc'"),
        ("0", False, "GRAPHPROD_MAX_NODES must be positive"),
    ],
)
def test_a_missing_file_or_a_bad_bound_is_exit_2(
    env, missing, message, monkeypatch, tmp_path, capsys
):
    if env is None:
        monkeypatch.delenv("GRAPHPROD_MAX_NODES", raising=False)
    else:
        monkeypatch.setenv("GRAPHPROD_MAX_NODES", env)
    other = str(tmp_path / "missing.el") if missing else path("k2")
    code, out, err = run(capsys, "product", "--kind", "direct", "--json", path("k2"), other)
    assert code == 2
    assert err.startswith("error: ") and message in err
    report = json.loads(out)
    assert report["command"] == "product" and report["exit_code"] == 2


def test_product_size_bound_exit_3(monkeypatch, capsys):
    monkeypatch.setenv("GRAPHPROD_MAX_NODES", "8")
    code, _, err = run(capsys, "product", "--kind", "direct", path("c5"), path("k2"))
    assert code == 3
    assert "bound" in err


# -- factor --------------------------------------------------------------------


def test_factor_prime(capsys):
    code, out, _ = run(capsys, "factor", path("c5_loop"))
    assert code == 0 and out.strip() == "prime"


def test_factor_trivial(capsys):
    code, out, _ = run(capsys, "factor", path("l1"))
    assert code == 0 and out.strip() == "trivial"


def test_factor_composite_with_witness(capsys):
    code, out, _ = run(capsys, "factor", path("twocomp"))
    assert code == 0
    assert out.startswith("composite")
    assert "factor A" in out and "factor B" in out


def test_factor_json_report(capsys):
    code, out, _ = run(capsys, "factor", "--json", path("twocomp"))
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "factor"
    assert report["outcome"]["verdict"] == "composite"
    assert report["outcome"]["witness"]["a_order"] == 2
    assert "elapsed_ms" in report


def test_factor_failed_reverification_exit_5(monkeypatch, capsys):
    from graphprod import factorization

    monkeypatch.setattr(factorization, "witness_is_valid", lambda g, w: False)
    code, out, err = run(capsys, "factor", "--json", path("twocomp"))
    assert code == 5
    assert err.startswith("error: ")
    report = json.loads(out)
    assert report["command"] == "factor" and report["exit_code"] == 5
    assert "re-verification" in report["error"]


def test_factor_on_an_empty_graph_exit_4(tmp_path, capsys):
    empty = tmp_path / "empty.el"
    empty.write_text("0 0\n")
    code, out, err = run(capsys, "factor", "--json", str(empty))
    assert code == 4
    assert err == "error: factoring is undefined for the empty graph\n"
    report = json.loads(out)
    assert report["command"] == "factor" and report["exit_code"] == 4


def test_factor_size_bound_exit_3(tmp_path, capsys):
    big = tmp_path / "big.el"
    lines = ["21 20"] + [f"{i} {i + 1}" for i in range(20)]
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "factor", str(big))
    assert code == 3


# -- iso -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ("c3", "c3b", "YES"),
        ("p4", "p4b", "YES"),
        ("c5_loop", "c5_loop_perm", "YES"),
        ("p4", "k1_3", "NO"),
        ("c3", "c4", "NO"),
        ("p3_end_loop", "p3_mid_loop", "NO"),
    ],
)
def test_iso_modes_agree(capsys, a, b, expected):
    code_d, out_d, _ = run(capsys, "iso", "--mode", "direct", path(a), path(b))
    assert code_d == 0 and out_d.strip().splitlines()[-1] == expected
    code_r, out_r, _ = run(capsys, "iso", "--mode", "reduction", path(a), path(b))
    assert code_r == 0 and out_r.strip().splitlines()[-1] == expected


def test_iso_modes_agree_across_the_whole_corpus(capsys):
    from graphprod import is_connected

    connected = sorted(
        n for n, g in NAMED.items() if g.node_count >= 2 and is_connected(g)
    )
    for a in connected:
        for b in connected:
            code_d, out_d, _ = run(capsys, "iso", "--mode", "direct", path(a), path(b))
            code_r, out_r, _ = run(capsys, "iso", "--mode", "reduction", path(a), path(b))
            assert code_d == 0 and code_r == 0
            assert out_d.strip().splitlines()[-1] == out_r.strip().splitlines()[-1], (a, b)


def test_factor_doubled_loop_cycle_reports_d2_witness(tmp_path, capsys):
    from graphprod import disjoint_union, write_edge_list
    from graphprod.catalog import C5_LOOP

    target = tmp_path / "c5_loop_doubled.el"
    write_edge_list(disjoint_union(C5_LOOP, C5_LOOP), target)
    code, out, _ = run(capsys, "factor", "--json", str(target))
    assert code == 0
    witness = json.loads(out)["outcome"]["witness"]
    assert witness["a_edges"] == [[0, 0], [1, 1]]  # the doubling factor D2


def test_iso_reduction_logs_gadget_data(capsys):
    code, out, _ = run(capsys, "iso", "--mode", "reduction", path("c3"), path("c3b"))
    assert code == 0
    assert "p=7" in out
    assert "oracle[factor-search]: composite" in out


def test_iso_reduction_elimination_oracle(capsys):
    code, out, _ = run(
        capsys,
        "iso", "--mode", "reduction", "--oracle", "classg-elimination",
        path("p4"), path("p4b"),
    )
    assert code == 0 and out.strip().splitlines()[-1] == "YES"


def test_iso_reduction_disconnected_exit_4(capsys):
    code, _, err = run(capsys, "iso", "--mode", "reduction", path("twocomp"), path("c3"))
    assert code == 4
    assert "connected" in err


def test_iso_direct_env_bound_exit_3(monkeypatch, capsys):
    monkeypatch.setenv("GRAPHPROD_MAX_NODES", "4")
    code, _, err = run(capsys, "iso", "--mode", "direct", path("c5"), path("c5"))
    assert code == 3


@pytest.mark.parametrize("mode", ["direct", "reduction"])
def test_iso_env_bound_refuses_either_mode_before_any_search(mode, monkeypatch, capsys):
    monkeypatch.setenv("GRAPHPROD_MAX_NODES", "2")
    code, out, err = run(capsys, "iso", "--mode", mode, "--json", path("p3"), path("p3"))
    assert code == 3
    assert err == "error: input order 3 exceeds GRAPHPROD_MAX_NODES=2\n"
    assert json.loads(out) == {
        "command": "iso", "error": "input order 3 exceeds GRAPHPROD_MAX_NODES=2", "exit_code": 3
    }


def test_iso_direct_on_an_empty_graph_exit_4(tmp_path, capsys):
    empty = tmp_path / "empty.el"
    empty.write_text("0 0\n")
    code, out, err = run(capsys, "iso", "--mode", "direct", "--json", str(empty), str(empty))
    assert code == 4
    assert err == "error: isomorphism is undefined for the empty graph\n"
    report = json.loads(out)
    assert report["command"] == "iso" and report["exit_code"] == 4


def test_iso_direct_on_a_1200_leaf_star(tmp_path, capsys):
    from graphprod import relabel, write_edge_list
    from graphprod.catalog import star_graph

    star = star_graph(1200)
    write_edge_list(star, tmp_path / "star.el")
    write_edge_list(relabel(star, list(range(1, 1201)) + [0]), tmp_path / "moved.el")
    code, out, _ = run(
        capsys, "iso", "--mode", "direct", str(tmp_path / "star.el"), str(tmp_path / "moved.el")
    )
    assert code == 0 and out.strip().splitlines()[-1] == "YES"


def test_iso_reduction_on_300_node_paths(tmp_path, capsys):
    from graphprod import write_edge_list
    from graphprod.catalog import path_graph

    write_edge_list(path_graph(300), tmp_path / "p300.el")
    target = str(tmp_path / "p300.el")
    code, out, _ = run(capsys, "iso", "--mode", "reduction", target, target)
    assert code == 0 and out.strip().splitlines()[-1] == "YES"


def test_iso_json_outcome(capsys):
    code, out, _ = run(capsys, "iso", "--mode", "reduction", "--json", path("c3"), path("c3b"))
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["verdict"] == "YES"
    assert report["outcome"]["p"] == 7
    assert report["outcome"]["oracle_calls"] == 1


def test_iso_reduction_pads_each_input_once(monkeypatch, capsys):
    from graphprod import reduction

    pad = reduction.pad_to_class_g
    padded = []
    monkeypatch.setattr(reduction, "pad_to_class_g", lambda g: padded.append(g) or pad(g))
    code, out, _ = run(capsys, "iso", "--mode", "reduction", "--json", path("c3"), path("c3b"))
    assert code == 0
    assert json.loads(out)["outcome"]["oracle_calls"] == 1
    assert len(padded) == 2


# -- classg --------------------------------------------------------------------


def test_classg_member_report(capsys):
    code, out, _ = run(capsys, "classg", path("c5_loop"))
    assert code == 0
    assert out == textwrap.dedent("""\
        nodes=5 edges=6 loops=1 nonzeros=11
        P1 connected and nonbipartite: yes
        P2 prime node count:           yes
        P3 loops < edges:              yes
        P4 2m-s not divisible by 2:    yes
        P5 2m-s not divisible by 3:    yes
        member: yes
        """)


def test_classg_nonmember_report(capsys):
    code, out, _ = run(capsys, "classg", path("c4"))
    assert code == 0
    assert out == textwrap.dedent("""\
        nodes=4 edges=4 loops=0 nonzeros=8
        P1 connected and nonbipartite: no
        P2 prime node count:           no
        P3 loops < edges:              yes
        P4 2m-s not divisible by 2:    no
        P5 2m-s not divisible by 3:    yes
        member: no
        """)


@pytest.mark.parametrize(
    "name, flags",
    [("c5_loop", [True] * 6), ("c4", [False, False, False, True, False, True])],
)
def test_classg_json_outcome(capsys, name, flags):
    code, out, _ = run(capsys, "classg", "--json", path(name))
    assert code == 0
    outcome = json.loads(out)["outcome"]
    keys = [
        "member", "p1_connected_nonbipartite", "p2_prime_order",
        "p3_loops_lt_edges", "p4_not_div2", "p5_not_div3",
    ]
    assert list(outcome) == keys  # key order included
    assert outcome == dict(zip(keys, flags))


def test_classg_pad(capsys, tmp_path):
    target = tmp_path / "padded.el"
    code, out, _ = run(capsys, "classg", "--pad", "--out", str(target), path("c3"))
    assert code == 0
    assert "p=7 d=3" in out
    padded = parse_edge_list(target.read_text())
    assert padded.node_count == 7 and padded.edge_count == 13


def test_classg_out_implies_pad(capsys, tmp_path):
    target = tmp_path / "padded.el"
    code, out, _ = run(capsys, "classg", "--out", str(target), path("c3"))
    assert code == 0
    assert "p=7 d=3" in out
    assert parse_edge_list(target.read_text()) == pad_to_class_g(C3).padded


def test_classg_pad_json(capsys):
    code, out, _ = run(capsys, "classg", "--pad", "--json", path("c3"))
    assert code == 0
    report = json.loads(out)
    pad = report["outcome"]["padding"]
    assert pad["p"] == 7 and pad["d"] == 3
    assert pad["loop_nodes"] == [4, 5, 6]
    assert pad["padded_graph"].startswith("7 13\n")


def test_classg_out_formats_once_and_writes_what_it_reports(monkeypatch, tmp_path, capsys):
    from graphprod import cli, core, format_edge_list, reduction

    calls = []

    def counted(g):
        calls.append(g.node_count)
        return format_edge_list(g)

    for module in (core, cli, reduction):
        monkeypatch.setattr(module, "format_edge_list", counted)
    target = tmp_path / "padded.el"
    code, out, _ = run(capsys, "classg", "--pad", "--json", "--out", str(target), path("c3"))
    assert code == 0
    assert calls == [7]
    assert target.read_bytes() == json.loads(out)["outcome"]["padding"]["padded_graph"].encode()


def test_classg_header_above_the_ceiling_exit_3(tmp_path, capsys):
    huge = tmp_path / "huge.el"
    huge.write_text("1000000000 0\n")
    code, out, err = run(capsys, "classg", "--json", str(huge))
    assert code == 3
    assert "ceiling" in err
    report = json.loads(out)
    assert report["command"] == "classg" and report["exit_code"] == 3


def test_classg_pad_disconnected_exit_4(capsys):
    code, _, err = run(capsys, "classg", "--pad", path("twocomp"))
    assert code == 4


# -- demo ----------------------------------------------------------------------


def test_demo_fig2_passes(capsys):
    code, out, _ = run(capsys, "demo", "fig2")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 4


def test_demo_fig3_passes(capsys):
    code, out, _ = run(capsys, "demo", "fig3")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 5


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
def test_a_failed_demo_check_is_exit_1(json_flag, monkeypatch, capsys):
    from graphprod import cli

    monkeypatch.setattr(cli, "_fig2_checks", lambda: [("holds", True), ("breaks", False)])
    code, out, err = run(capsys, "demo", *json_flag, "fig2")
    assert code == 1 and err == ""
    if json_flag:
        assert json.loads(out)["outcome"]["all_pass"] is False
    else:
        assert out == "PASS: holds\nFAIL: breaks\nfig2: CHECKS FAILED\n"


def test_demo_unknown_figure_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "fig9"])
    assert exc.value.code == 2


def test_demo_json(capsys):
    code, out, _ = run(capsys, "demo", "--json", "fig3")
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["all_pass"] is True
    assert len(report["outcome"]["checks"]) == 5


# -- report envelope -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, files",
    [
        (["product", "--kind", "direct", "--json"], ["c3", "k2"]),
        (["factor", "--json"], ["twocomp"]),
        (["iso", "--mode", "reduction", "--json"], ["p4b", "p4"]),
        (["classg", "--json"], ["c5_loop"]),
        (["demo", "--json", "fig2"], []),
    ],
    ids=["product", "factor", "iso", "classg", "demo"],
)
def test_every_json_report_has_one_envelope(argv, files, capsys):
    code, out, _ = run(capsys, *argv, *map(path, files))
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["command", "inputs", "outcome", "elapsed_ms"]
    assert report["command"] == argv[0]
    assert report["inputs"] == [path(name) for name in files]


@pytest.mark.parametrize("command", ["product", "factor", "iso", "classg", "demo"])
def test_every_subcommand_help_lists_json(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--json" in capsys.readouterr().out


# -- installed entry point -------------------------------------------------------


_NUMPY_FREE_RUNS = textwrap.dedent(
    """
    import contextlib, io, os, sys

    sys.modules["numpy"] = None  # blocked: any import of numpy now fails

    import graphprod, graphprod.cli
    from graphprod import (
        adjacency_matrix, direct_product, disjoint_union, factor_search, find_factorization,
        graph_from_adjacency, kronecker, verify_kronecker_identity, witness_is_valid,
    )
    from graphprod.catalog import C3, K2, corpus_path
    from graphprod.factorization import I2_MATRIX

    def p(name):
        return str(corpus_path(name))

    tmp = sys.argv[1]
    prod = os.path.join(tmp, "prod.el")
    runs = [
        ["product", "--kind", "direct", "--out", prod, p("k2"), p("c3")],
        ["factor", prod],
        ["factor", "--json", p("twocomp")],
        ["iso", "--mode", "direct", p("c3"), p("c3b")],
        ["iso", "--mode", "reduction", p("c3"), p("c3b")],
        ["iso", "--mode", "reduction", "--oracle", "classg-elimination", p("p4"), p("p4b")],
        ["classg", "--pad", "--out", os.path.join(tmp, "pad.el"), p("c3")],
        ["demo", "fig2"],
        ["demo", "fig3"],
    ]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = graphprod.cli.main(argv)
        print(argv[0], code)
    print(verify_kronecker_identity(K2, C3))
    g = direct_product(K2, C3)
    print(witness_is_valid(g, find_factorization(g)))
    print(factor_search(disjoint_union(C3, C3), 2, 3, fixed_a=I2_MATRIX) is not None)
    for helper, args in (
        (adjacency_matrix, (C3,)),
        (graph_from_adjacency, ([[0]],)),
        (kronecker, ([[1]], [[1]])),
    ):
        try:
            helper(*args)
        except ModuleNotFoundError as exc:
            print(helper.__name__, exc)

    del sys.modules["numpy"]  # unblocked
    import numpy as np

    mat = adjacency_matrix(C3)
    print(isinstance(mat, np.ndarray), mat.dtype)
    print(graph_from_adjacency(mat) == C3)
    kron = kronecker(adjacency_matrix(K2), mat)
    print(isinstance(kron, np.ndarray), kron.dtype, kron.shape)
    print(verify_kronecker_identity(K2, C3))
    """
)


def test_numpy_stays_off_the_import_and_cli_paths(tmp_path):
    import graphprod

    src = os.path.dirname(os.path.dirname(graphprod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_RUNS, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:9] == [
        "product 0", "factor 0", "factor 0", "iso 0", "iso 0", "iso 0",
        "classg 0", "demo 0", "demo 0",
    ]
    blocked = "import of numpy halted; None in sys.modules"
    assert lines[9:15] == [
        "True",
        "True",
        "True",
        f"adjacency_matrix {blocked}",
        f"graph_from_adjacency {blocked}",
        f"kronecker {blocked}",
    ]
    assert lines[15:] == [
        "True uint8",
        "True",
        "True uint8 (6, 6)",
        "True",
    ]


def test_only_the_cli_imports_the_example_catalog():
    import ast

    import graphprod

    package = os.path.dirname(graphprod.__file__)
    importers = set()
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or "", *(a.name for a in node.names)]
                elif isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                else:
                    continue
                if any(m.split(".")[-1] == "catalog" for m in modules):
                    importers.add(name)
    assert importers == {"cli.py"}


def test_import_graphprod_leaves_the_catalog_unloaded():
    import graphprod
    from graphprod import catalog, factorization

    assert catalog.D2 is factorization.D2 is graphprod.D2 is NAMED["d2"]
    src = os.path.dirname(os.path.dirname(graphprod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, graphprod; print('graphprod.catalog' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "graphprod.cli", "demo", "fig2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


# -- closed output ---------------------------------------------------------------


@pytest.fixture
def c64(tmp_path):
    """An edge-list file of C64, whose strong square prints about 200 KB."""
    from graphprod import write_edge_list
    from graphprod.catalog import cycle_graph

    target = str(tmp_path / "c64.el")
    write_edge_list(cycle_graph(64), target)
    return target


def _child(argv, unbuffered, **streams):
    """Run ``python -m graphprod.cli`` cold on this checkout's sources.

    The interpreter is started directly, not through a launcher script that
    might hold a standard descriptor of its own.  ``streams`` go to Popen.
    """
    import graphprod

    src = os.path.dirname(os.path.dirname(graphprod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "graphprod.cli", *argv], env=env, **streams)


def _masked(out: bytes) -> bytes:
    return re.sub(rb'"elapsed_ms": [0-9.e+-]+', b'"elapsed_ms": 0', out)


def _run_with_stream(argv, unbuffered, fd, how):
    """Exit code, masked stdout and stderr of a cold run.

    Descriptor ``fd`` (1 or 2) is left "open" on a pipe, put on a pipe whose
    reader closed first ("broken"), or closed in the child at start-up
    ("closed").
    """
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    write_end = None
    if how == "broken":
        read_end, write_end = os.pipe()
        os.close(read_end)
        streams["stdout" if fd == 1 else "stderr"] = write_end
    elif how == "closed":
        streams["preexec_fn"] = lambda: os.close(fd)
    try:
        proc = _child(argv, unbuffered, **streams)
        out, err = proc.communicate(timeout=60)
    finally:
        if write_end is not None:
            os.close(write_end)
    return proc.returncode, _masked(out or b""), (err or b"").decode()


def _run_into_a_closed_pipe(argv, unbuffered, read_first):
    """Run the CLI with stdout on a pipe whose reader closes early.

    ``read_first`` None closes the reader before the child starts; a number
    reads that many bytes first, so the child is blocked mid-write.
    """
    if read_first is None:
        code, _, err = _run_with_stream(argv, unbuffered, 1, "broken")
        return code, err
    proc = _child(argv, unbuffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.read(read_first)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err.decode()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("case", ["factor-closed-first", "product-closed-after-10-bytes"])
def test_a_closed_stdout_is_exit_2_with_one_error_line(case, json_flag, unbuffered, c64):
    if case == "factor-closed-first":
        argv, read_first = ["factor", *json_flag, path("twocomp")], None
    else:
        argv, read_first = ["product", "--kind", "strong", *json_flag, c64, c64], 10
    code, err = _run_into_a_closed_pipe(argv, unbuffered, read_first)
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Broken pipe" in err, err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_closed_out_pipe_still_gets_the_json_error_report(c64, tmp_path, capsys):
    import threading

    fifo = str(tmp_path / "out.el")
    os.mkfifo(fifo)

    def read_10_bytes():
        fd = os.open(fifo, os.O_RDONLY)
        os.read(fd, 10)
        os.close(fd)

    reader = threading.Thread(target=read_10_bytes, daemon=True)
    reader.start()
    code, out, err = run(capsys, "product", "--kind", "strong", "--json", "--out", fifo, c64, c64)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert code == 2
    assert err == "error: [Errno 32] Broken pipe\n"
    assert json.loads(out) == {
        "command": "product", "error": "[Errno 32] Broken pipe", "exit_code": 2
    }


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_after_a_failed_run_keeps_its_code(unbuffered, tmp_path):
    missing = str(tmp_path / "missing.el")
    code, err = _run_into_a_closed_pipe(["factor", "--json", missing], unbuffered, None)
    assert code == 2, err
    assert err.startswith("error: [Errno 2] "), err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(os.name != "posix", reason="needs preexec_fn")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_stdout_closed_at_start_up_is_exit_2_with_one_error_line(unbuffered):
    code, _, err = _run_with_stream(["factor", path("c3")], unbuffered, 1, "closed")
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture
def p17(tmp_path):
    """An edge-list file of a 17-node path, one past the isomorphism default."""
    from graphprod import write_edge_list
    from graphprod.catalog import path_graph

    target = str(tmp_path / "p17.el")
    write_edge_list(path_graph(17), target)
    return target


@pytest.mark.skipif(os.name != "posix", reason="needs preexec_fn")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("how", ["broken", "closed"])
@pytest.mark.parametrize(
    "case", ["factor-missing", "factor-json-missing", "iso-warning", "usage-factor", "usage-bogus"]
)
def test_a_lost_stderr_changes_neither_the_exit_code_nor_stdout(
    case, how, unbuffered, p17, tmp_path
):
    missing = str(tmp_path / "missing.el")
    argv, expected_code = {
        "factor-missing": (["factor", missing], 2),
        "factor-json-missing": (["factor", "--json", missing], 2),
        "iso-warning": (["iso", "--mode", "direct", "--json", p17, p17], 0),
        "usage-factor": (["factor"], 2),
        "usage-bogus": (["--bogus"], 2),
    }[case]
    code, out, open_err = _run_with_stream(argv, unbuffered, 2, "open")
    assert code == expected_code and open_err.startswith(("error: ", "warning: ", "usage: "))
    assert _run_with_stream(argv, unbuffered, 2, how)[:2] == (code, out)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["--help"], ["factor", "--help"], ["factor"], ["iso"], ["--bogus"]],
    ids=["help", "factor-help", "factor", "iso", "bogus"],
)
def test_help_and_usage_errors_write_what_stock_argparse_writes(
    argv, unbuffered, monkeypatch, capsys
):
    import argparse

    from graphprod import cli

    monkeypatch.setattr(cli, "_Parser", argparse.ArgumentParser)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    code = exc.value.code
    assert code == (0 if "--help" in argv else 2)
    assert _run_with_stream(argv, unbuffered, 1, "open") == (code, out.encode(), err)


@pytest.mark.skipif(os.name != "posix", reason="needs preexec_fn")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("how", ["broken", "closed"])
@pytest.mark.parametrize("argv", [["--help"], ["factor", "--help"]], ids=["help", "factor-help"])
def test_help_with_a_lost_stdout_is_exit_2_with_one_error_line(argv, how, unbuffered):
    code, _, err = _run_with_stream(argv, unbuffered, 1, how)
    assert code == 2, err
    assert err in ("error: [Errno 32] Broken pipe\n", "error: stdout is closed\n"), err
