"""Class G membership, residue offsets, primes, padding, and the drivers."""

import json
import random
from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprod import (
    Graph,
    InternalError,
    PreconditionError,
    SizeLimitError,
    are_isomorphic,
    class_g_check,
    class_g_isomorphism,
    disjoint_union,
    direct_product,
    div2div3_offset,
    find_factorization,
    graph_isomorphism_via_compositeness,
    pad_to_class_g,
    padding_result_to_json,
    prime_in_bertrand_range,
    relabel,
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
    P4,
    add_loops,
    path_graph,
)
from graphprod import reduction
from graphprod.core import MAX_HEADER_NODES
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


def test_prime_is_bounded_by_the_header_ceiling():
    # the ceiling first: without the bound, the next call answers instead of
    # raising, and the test fails before it reaches the n that would hang
    assert prime_in_bertrand_range(MAX_HEADER_NODES) == 2097169
    for n in (MAX_HEADER_NODES + 1, 10**30):
        with pytest.raises(SizeLimitError, match="ceiling"):
            prime_in_bertrand_range(n)


def _sieve(top: int) -> bytearray:
    """is_prime[x] for 0 <= x <= top, by the sieve of Eratosthenes."""
    is_prime = bytearray([1]) * (top + 1)
    is_prime[:2] = b"\0\0"
    for x in range(2, isqrt(top) + 1):
        if is_prime[x]:
            is_prime[x * x :: x] = bytes(len(range(x * x, top + 1, x)))
    return is_prime


def test_is_prime_int_matches_a_sieve_up_to_200000():
    sieve = _sieve(200000)
    assert [x for x in range(200001) if is_prime_int(x)] == [x for x, y in enumerate(sieve) if y]
    assert not any(is_prime_int(x) for x in (-7, -2, -1))


def test_bertrand_prime_matches_a_sieve_up_to_5000():
    sieve = _sieve(4 * 5000)
    for n in range(2, 5001):
        assert prime_in_bertrand_range(n) == next(p for p in range(2 * n + 1, 4 * n) if sieve[p])


# -- padding -------------------------------------------------------------------


def test_pad_follows_its_rule_on_every_connected_graph_of_2_to_5_nodes():
    # the smallest prime p in (2n, 4n) and the residue offset d of nnz + 2p,
    # except n = 2, p = 5, d = 3, whose three loop nodes do not exist: p = 7
    sieve = _sieve(20)
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            p = next(p for p in range(2 * n + 1, 4 * n) if sieve[p])
            d = _smallest_valid_offset(g.nonzero_count + 2 * p)
            if (n, p, d) == (2, 5, 3):
                p, d = 7, _smallest_valid_offset(g.nonzero_count + 14)
            result = pad_to_class_g(g)
            assert (result.chosen_prime, result.loops_added) == (p, d), g


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


def test_padded_graph_equals_the_validated_one():
    # the corpus of test_pad_random_connected_graphs
    rng = random.Random(53)
    for _ in range(120):
        g = random_connected_graph(rng.randint(2, 6), rng)
        result = pad_to_class_g(g)
        padded = result.padded
        loops = [(v, v) for v in result.loop_nodes]
        expected = Graph(result.chosen_prime, [*g.edges, *result.fan_edges, *result.cycle_edges, *loops])
        assert type(padded.node_count) is int and type(padded.edges) is frozenset
        assert padded.node_count == expected.node_count
        assert padded.edges == expected.edges
        assert padded.loop_count == expected.loop_count
        assert hash(padded) == hash(expected) and padded == expected
        assert padded.adjacency_masks == expected.adjacency_masks
        assert padded.traversal == expected.traversal


def test_pad_is_deterministic_byte_for_byte():
    rng = random.Random(59)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 6), rng)
        first = json.dumps(padding_result_to_json(pad_to_class_g(g)), sort_keys=True)
        # a fresh copy, as g keeps its padding and would hand back the same object
        copy = Graph(g.node_count, g.edges)
        second = json.dumps(padding_result_to_json(pad_to_class_g(copy)), sort_keys=True)
        assert first == second


def test_pad_keeps_its_result_on_the_graph():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 3)])
    result = pad_to_class_g(g)
    assert pad_to_class_g(g) is result
    # an equal graph is another instance: padded anew, to the same bytes and views
    copy = Graph(g.node_count, g.edges)
    again = pad_to_class_g(copy)
    assert again is not result and pad_to_class_g(copy) is again
    assert padding_result_to_json(again) == padding_result_to_json(result)
    assert again.padded.adjacency_masks == result.padded.adjacency_masks
    assert again.padded.traversal == result.padded.traversal


def _kept_paddings(g):
    return [v for v in vars(g).values() if isinstance(v, reduction.PaddingResult)]


def test_pad_rejections_and_failed_self_checks_are_not_kept(monkeypatch):
    for g in (Graph(1), Graph(1, [(0, 0)]), Graph(4, [(0, 1), (2, 3)])):
        for _ in range(2):
            with pytest.raises(PreconditionError):
                pad_to_class_g(g)
        assert _kept_paddings(g) == []
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with monkeypatch.context() as patch:
        outside = reduction.ClassGReport(False, *[True] * 5)
        patch.setattr(reduction, "class_g_check", lambda h: outside)
        for _ in range(2):
            with pytest.raises(InternalError, match="^padding left class G"):
                pad_to_class_g(g)
        assert _kept_paddings(g) == []
    result = pad_to_class_g(g)
    assert _kept_paddings(g) == [result]


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


def test_a_sweep_checks_each_padded_graph_once(monkeypatch):
    # all ordered pairs of 12 fresh graphs, each paired with itself too, so all reach padding
    rng = random.Random(73)
    graphs = [random_connected_graph(rng.randint(2, 4), rng) for _ in range(6)]
    graphs += [random_relabeling(g, rng) for g in graphs]
    calls = []
    check = reduction.class_g_check
    monkeypatch.setattr(reduction, "class_g_check", lambda g: calls.append(g) or check(g))
    for g1 in graphs:
        for g2 in graphs:
            graph_isomorphism_via_compositeness(g1, g2, search_oracle)
    # one check per input graph, on its padding; every later pad of it is the kept result
    assert len(calls) == len(graphs)
    assert {id(h) for h in calls} == {id(pad_to_class_g(g).padded) for g in graphs}


NOT_GRAPHS = (None, (3, [(0, 1), (1, 2), (0, 2)]), SimpleNamespace(node_count=3, edges=[(0, 5)]))


@pytest.mark.parametrize("bad", NOT_GRAPHS, ids=["None", "tuple", "duck"])
def test_entry_points_take_graphs_only(bad):
    # each entry point raises from the first check its operands meet
    runs = [
        ("class_g_check", lambda: class_g_check(bad)),
        ("pad_to_class_g", lambda: pad_to_class_g(bad)),
        ("pad_pair", lambda: reduction.pad_pair(bad, C3)),
        ("pad_pair", lambda: graph_isomorphism_via_compositeness(C3, bad, search_oracle)),
        ("class_g_check", lambda: class_g_isomorphism(bad, C5_LOOP, search_oracle)),
        ("class_g_check", lambda: union_compositeness_by_elimination(C5_LOOP, bad)),
        ("elimination_oracle", lambda: elimination_oracle(bad)),
    ]
    for checker, run in runs:
        with pytest.raises(PreconditionError, match=f"^{checker} operands must be Graphs$"):
            run()
    assert not isinstance(bad, SimpleNamespace) or set(vars(bad)) == {"node_count", "edges"}


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


def _warm_pipeline(*graphs):
    """Run the pipeline once on fresh copies, so that tables the search builds
    on first use (the left-factor catalog) are built before a count starts."""
    copies = [Graph(g.node_count, g.edges) for g in graphs]
    graph_isomorphism_via_compositeness(*copies, search_oracle)


def test_each_graph_is_traversed_once(monkeypatch):
    from graphprod import core

    # fresh graphs, so no traversal is cached yet; equal counts reach the oracle
    g1 = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 3)}))
    g2 = Graph(4, frozenset({(0, 0), (0, 1), (1, 2), (2, 3)}))
    _warm_pipeline(g1, g2)
    seen = []
    traverse = core.breadth_first
    monkeypatch.setattr(core, "breadth_first", lambda masks: seen.append(masks) or traverse(masks))
    assert graph_isomorphism_via_compositeness(g1, g2, search_oracle)
    traversed = seen[:]
    pad1, pad2 = pad_to_class_g(g1).padded, pad_to_class_g(g2).padded
    # the union inherits both pads' traversals instead of running its own
    assert traversed == [g.adjacency_masks for g in (g1, g2, pad1, pad2)]


def test_the_pipeline_validates_only_the_graphs_the_search_builds(monkeypatch):
    # the pads and their union are built from valid edges without re-validation;
    # a YES verdict validates one graph, the witness's right factor B
    yes = (Graph(4, [(0, 1), (1, 2), (2, 3), (3, 3)]), Graph(4, [(0, 0), (0, 1), (1, 2), (2, 3)]))
    no = (Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(4, [(0, 1), (0, 2), (0, 3)]))  # P4, K1,3
    b = pad_to_class_g(Graph(4, yes[0].edges)).chosen_prime  # on a copy: yes stays fresh
    _warm_pipeline(*yes)
    built = []
    init = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda self: built.append(self) or init(self))
    for (g1, g2), verdict, validated in ((yes, True, [b]), (no, False, [])):
        built.clear()
        assert graph_isomorphism_via_compositeness(g1, g2, search_oracle) is verdict
        assert [h.node_count for h in built] == validated


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


# One record of each kind, each from a real call: its fields in order, and
# what its derived member returns today.
RECORDS = {
    "FactorizationWitness": (
        lambda: find_factorization(direct_product(K2, C3)),
        ("factor_a", "factor_b", "labeling"),
        None,
    ),
    "IsomorphismWitness": (lambda: are_isomorphic(C3, relabel(C3, [2, 0, 1])), ("mapping",), None),
    "ClassGReport": (
        lambda: class_g_check(C5_LOOP),
        ("member", "p1_connected_nonbipartite", "p2_prime_order", "p3_loops_lt_edges",
         "p4_not_div2", "p5_not_div3"),
        lambda r: r.violations() == [],
    ),
    "PaddingResult": (
        lambda: pad_to_class_g(P4),
        ("padded", "chosen_prime", "fan_edges", "cycle_edges", "loops_added"),
        lambda r: r.loop_nodes == (5,),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_result_records_are_frozen_values(name):
    build, fields, derived = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    rebuilt = type(record)(**{field: getattr(record, field) for field in fields})
    assert rebuilt == record and hash(rebuilt) == hash(record)
    assert repr(record).startswith(f"{name}({fields[0]}=")
    assert derived is None or (derived(record) and derived(rebuilt))
