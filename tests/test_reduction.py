"""Class G membership, residue offsets, primes, padding, and the drivers."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprod import (
    Graph,
    PreconditionError,
    are_isomorphic,
    class_g_check,
    class_g_isomorphism,
    disjoint_union,
    div2div3_offset,
    graph_isomorphism_via_compositeness,
    pad_to_class_g,
    padding_result_to_json,
    prime_in_bertrand_range,
    search_oracle,
    elimination_oracle,
    union_compositeness_by_elimination,
)
from graphprod.catalog import (
    C3,
    C4,
    C5,
    C5_LOOP,
    K1_3,
    K2,
    L1,
    NAMED,
    P3_END_LOOP,
    add_loops,
    path_graph,
)
from graphprod import reduction
from graphprod.reduction import is_prime_int

from helpers import (
    all_connected_graphs,
    nonisomorphic_pair_same_counts,
    random_connected_graph,
    random_relabeling,
)


# -- class G membership -------------------------------------------------------


def test_class_g_accepts_looped_five_cycle():
    report = class_g_check(C5_LOOP)
    assert report.member
    assert report.p1_connected_nonbipartite
    assert report.p2_prime_order
    assert report.p3_loops_lt_edges
    assert report.p4_not_div2 and report.p5_not_div3
    assert report.violations() == []


def test_class_g_rejects_plain_five_cycle_on_parity():
    # C5 is connected, nonbipartite, prime order, but 2m - s = 10 is even
    report = class_g_check(C5)
    assert report.p1_connected_nonbipartite and report.p2_prime_order
    assert not report.p4_not_div2
    assert not report.member


def test_class_g_rejects_square():
    report = class_g_check(C4)
    assert not report.p1_connected_nonbipartite  # bipartite
    assert not report.p2_prime_order  # 4 is composite
    assert not report.member


def test_class_g_handles_degenerate_graphs():
    assert not class_g_check(Graph(0)).member
    report = class_g_check(L1)
    assert report.p1_connected_nonbipartite
    assert not report.p2_prime_order  # 1 is not prime
    assert not report.member


@pytest.mark.parametrize(
    "g,violations",
    [
        (L1, ["P2: node count is not prime", "P3: self-loops do not number fewer than edges"]),
        (add_loops(C3, [0, 1, 2]), ["P5: 2m - s is divisible by 3"]),  # 2m - s = 9
    ],
)
def test_class_g_report_names_each_violation(g, violations):
    assert class_g_check(g).violations() == violations


# -- residue offsets ----------------------------------------------------------


@pytest.mark.parametrize("t,d", [(6, 1), (2, 3), (3, 2), (5, 0), (4, 1)])
def test_offset_known_values(t, d):
    assert div2div3_offset(t) == d


def _smallest_valid_offset(t: int) -> int:
    for d in range(4):
        if (t + d) % 2 != 0 and (t + d) % 3 != 0:
            return d
    raise AssertionError


def test_offset_exhaustive_window():
    for t in range(-1000, 1001):
        d = div2div3_offset(t)
        assert 0 <= d <= 3
        assert (t + d) % 2 != 0 and (t + d) % 3 != 0
        assert d == _smallest_valid_offset(t)


@given(st.integers())
@settings(max_examples=300, deadline=None)
def test_offset_holds_for_arbitrary_integers(t):
    d = div2div3_offset(t)
    assert d in (0, 1, 2, 3)
    assert (t + d) % 2 != 0 and (t + d) % 3 != 0


# -- primes in the doubling interval -------------------------------------------


@pytest.mark.parametrize("n,p", [(3, 7), (2, 5), (10, 23)])
def test_prime_examples(n, p):
    assert prime_in_bertrand_range(n) == p


def test_prime_strictly_inside_interval_up_to_100000():
    for n in range(2, 100001):
        p = prime_in_bertrand_range(n)
        assert 2 * n < p < 4 * n
    # smallest-prime property, spot-checked against trial division
    for n in (2, 3, 17, 101, 9999):
        p = prime_in_bertrand_range(n)
        assert is_prime_int(p)
        assert all(not is_prime_int(q) for q in range(2 * n + 1, p))


def test_prime_rejects_small_n():
    with pytest.raises(PreconditionError, match="^need n >= 2$"):
        prime_in_bertrand_range(1)


# -- padding -------------------------------------------------------------------


def test_pad_triangle_matches_worked_example():
    result = pad_to_class_g(C3)
    assert result.chosen_prime == 7
    assert len(result.fan_edges) == 3
    assert len(result.cycle_edges) == 4
    assert result.loops_added == 3
    assert result.loop_nodes == (4, 5, 6)
    padded = result.padded
    assert padded.node_count == 7
    assert padded.edge_count == 13
    assert padded.loop_count == 3
    assert padded.nonzero_count == 23
    assert class_g_check(padded).member


def test_pad_edge_matches_worked_example():
    result = pad_to_class_g(K2)
    assert result.chosen_prime == 5
    assert len(result.fan_edges) == 2
    assert len(result.cycle_edges) == 3
    assert result.loops_added == 1
    assert result.padded.nonzero_count == 13
    assert class_g_check(result.padded).member


def test_pad_skips_prime_when_loop_nodes_would_not_fit():
    # K2 with both loops: p = 5 would need d = 3 loops on 3 new nodes
    g = add_loops(K2, [0, 1])
    result = pad_to_class_g(g)
    assert result.chosen_prime == 7
    assert result.loops_added <= result.chosen_prime - g.node_count - 1
    assert class_g_check(result.padded).member


def test_pad_random_connected_graphs():
    rng = random.Random(53)
    for _ in range(120):
        g = random_connected_graph(rng.randint(2, 6), rng)
        result = pad_to_class_g(g)
        n = g.node_count
        p = result.chosen_prime
        assert 2 * n < p < 4 * n
        assert len(result.cycle_edges) == p - n > n
        assert len(result.fan_edges) == n
        assert result.loops_added <= 3
        assert class_g_check(result.padded).member
        # original graph intact inside the padding
        assert g.edges <= result.padded.edges


def test_pad_is_deterministic_byte_for_byte():
    rng = random.Random(59)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 6), rng)
        first = json.dumps(padding_result_to_json(pad_to_class_g(g)), sort_keys=True)
        second = json.dumps(padding_result_to_json(pad_to_class_g(g)), sort_keys=True)
        assert first == second


def test_pad_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        pad_to_class_g(disjoint_union(K2, K2))
    with pytest.raises(PreconditionError):
        pad_to_class_g(L1)


def test_pad_preserves_isomorphism_samples():
    rng = random.Random(61)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 5), rng)
        sigma = random_relabeling(g, rng)
        p1 = pad_to_class_g(g).padded
        p2 = pad_to_class_g(sigma).padded
        assert are_isomorphic(p1, p2, node_limit=None) is not None
    for n in (4, 5):
        for _ in range(8):
            g1, g2 = nonisomorphic_pair_same_counts(n, rng)
            p1 = pad_to_class_g(g1).padded
            p2 = pad_to_class_g(g2).padded
            assert are_isomorphic(p1, p2, node_limit=None) is None


def test_padding_json_schema():
    out = padding_result_to_json(pad_to_class_g(C3))
    assert set(out) == {"p", "d", "fan_edges", "cycle_edges", "loop_nodes", "padded_graph"}
    assert out["p"] == 7 and out["d"] == 3
    assert out["padded_graph"].startswith("7 13\n")


# -- drivers -------------------------------------------------------------------


def test_class_g_driver_rejects_nonmembers():
    with pytest.raises(PreconditionError) as err:
        class_g_isomorphism(C5_LOOP, C4, search_oracle)
    assert err.value.report is not None


def test_class_g_driver_count_filter_skips_oracle():
    bigger = add_loops(Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)})), [0])
    calls = []

    def oracle(g):
        calls.append(g)
        return True

    assert class_g_isomorphism(C5_LOOP, bigger, oracle) is False
    assert calls == []


def test_class_g_driver_verdicts():
    perm = NAMED["c5_loop_perm"]
    assert class_g_isomorphism(C5_LOOP, perm, search_oracle)
    assert class_g_isomorphism(C5_LOOP, perm, elimination_oracle)
    g2 = add_loops(Graph(5, frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)})), [3])
    assert class_g_isomorphism(C5_LOOP, g2, search_oracle) is False
    assert class_g_isomorphism(C5_LOOP, g2, elimination_oracle) is False


def test_class_g_rejection_lists_every_violation():
    with pytest.raises(PreconditionError) as info:
        class_g_isomorphism(C5_LOOP, C4, search_oracle)
    report = info.value.report
    assert not report.member
    assert str(info.value) == "second graph is outside class G: " + "; ".join(report.violations())
    assert len(report.violations()) > 1


def test_class_g_entry_points_check_each_graph_once(monkeypatch):
    calls = []
    check = reduction.class_g_check
    monkeypatch.setattr(reduction, "class_g_check", lambda g: calls.append(g) or check(g))
    perm = NAMED["c5_loop_perm"]
    runs = {
        "elimination_oracle": lambda: elimination_oracle(disjoint_union(C5_LOOP, perm)),
        "union_compositeness_by_elimination": lambda: union_compositeness_by_elimination(C5_LOOP, perm),
        "class_g_isomorphism": lambda: class_g_isomorphism(C5_LOOP, perm, search_oracle),
    }
    for name, run in runs.items():
        calls.clear()
        assert run(), name
        assert len(calls) == 2, name


def test_elimination_oracle_names_the_component_outside_class_g():
    # the caller passed one union, so a bad piece is a component, whatever the edge counts
    for union in (disjoint_union(K2, K2), disjoint_union(K2, add_loops(K2, [0]))):
        with pytest.raises(PreconditionError, match="^first component is outside class G: "):
            elimination_oracle(union)
    with pytest.raises(PreconditionError, match="^second component is outside class G: "):
        elimination_oracle(disjoint_union(C5_LOOP, C5))


def test_general_driver_rejects_disconnected_and_tiny():
    with pytest.raises(PreconditionError):
        graph_isomorphism_via_compositeness(disjoint_union(K2, K2), C4, search_oracle)
    with pytest.raises(PreconditionError):
        graph_isomorphism_via_compositeness(L1, L1, search_oracle)


def test_general_driver_count_filter():
    calls = []

    def oracle(g):
        calls.append(g)
        return True

    assert graph_isomorphism_via_compositeness(C3, C4, oracle) is False
    assert calls == []


def test_drivers_answer_a_bool_whatever_the_oracle_returns():
    p4 = path_graph(4)
    for answer, verdict in ((np.True_, True), (0, False)):
        assert class_g_isomorphism(C5_LOOP, C5_LOOP, lambda g: answer) is verdict
        assert graph_isomorphism_via_compositeness(p4, p4, lambda g: answer) is verdict


@pytest.mark.parametrize("oracle", [None, True, "search"])
def test_drivers_refuse_an_oracle_that_is_not_callable(oracle):
    # the first pair of each driver reaches the oracle, the second stops at the count filter
    for g1, g2 in ((path_graph(4), K1_3), (path_graph(4), C3)):
        with pytest.raises(PreconditionError, match="^oracle must be callable$"):
            graph_isomorphism_via_compositeness(g1, g2, oracle)
    chord = add_loops(Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)})), [0])
    for g2 in (C5_LOOP, chord):
        with pytest.raises(PreconditionError, match="^oracle must be callable$"):
            class_g_isomorphism(C5_LOOP, g2, oracle)


def test_general_driver_exhaustive_tiny():
    graphs = [g for n in (2, 3) for g in all_connected_graphs(n)]
    for g1 in graphs:
        for g2 in graphs:
            want = (
                g1.node_count == g2.node_count
                and are_isomorphic(g1, g2) is not None
            )
            got = graph_isomorphism_via_compositeness(g1, g2, search_oracle)
            assert got == want, (g1, g2)


def test_general_driver_random_pairs():
    rng = random.Random(67)
    for _ in range(25):
        n = rng.randint(2, 5)
        g1 = random_connected_graph(n, rng)
        g2 = random_relabeling(g1, rng) if rng.random() < 0.5 else random_connected_graph(n, rng)
        want = are_isomorphic(g1, g2, node_limit=None) is not None
        assert graph_isomorphism_via_compositeness(g1, g2, search_oracle) == want


def test_general_driver_elimination_oracle_agrees():
    rng = random.Random(71)
    for _ in range(10):
        n = rng.randint(2, 4)
        g1 = random_connected_graph(n, rng)
        g2 = random_relabeling(g1, rng) if rng.random() < 0.5 else random_connected_graph(n, rng)
        via_search = graph_isomorphism_via_compositeness(g1, g2, search_oracle)
        via_elim = graph_isomorphism_via_compositeness(g1, g2, elimination_oracle)
        assert via_search == via_elim
    # same n and m but different loop counts: the padded components have 13
    # and 10 edges, so elimination answers from the counts alone
    for oracle in (elimination_oracle, search_oracle):
        assert graph_isomorphism_via_compositeness(C3, P3_END_LOOP, oracle) is False


def test_general_driver_on_long_paths_does_not_recurse():
    # the padded union has 1202 nodes; the factor search places one per level
    p300 = path_graph(300)
    assert graph_isomorphism_via_compositeness(p300, p300, search_oracle) is True


def test_each_graph_is_traversed_once(monkeypatch):
    from graphprod import core

    seen = []
    traverse = core.breadth_first
    monkeypatch.setattr(core, "breadth_first", lambda masks: seen.append(masks) or traverse(masks))
    # fresh graphs, so no traversal is cached yet; equal counts reach the oracle
    g1 = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 3)}))
    g2 = Graph(4, frozenset({(0, 0), (0, 1), (1, 2), (2, 3)}))
    assert graph_isomorphism_via_compositeness(g1, g2, search_oracle)
    traversed = seen[:]
    pad1, pad2 = pad_to_class_g(g1).padded, pad_to_class_g(g2).padded
    union = disjoint_union(pad1, pad2)
    assert traversed == [g.adjacency_masks for g in (g1, g2, pad1, pad2, union)]


def test_the_elimination_lemma_lives_in_reduction():
    # factorization is the compositeness layer below reduction: it imports nothing from it
    import ast
    from pathlib import Path

    import graphprod
    from graphprod import factorization, reduction

    tree = ast.parse(Path(factorization.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module is None or node.module.rpartition(".")[2] != "reduction"
            assert all(alias.name != "reduction" for alias in node.names)
        elif isinstance(node, ast.Import):
            assert all(alias.name.rpartition(".")[2] != "reduction" for alias in node.names)
    for name in ("two_block_survivors", "union_compositeness_by_elimination", "elimination_oracle"):
        fn = getattr(reduction, name)
        assert fn.__module__ == "graphprod.reduction"
        assert getattr(graphprod, name) is fn
