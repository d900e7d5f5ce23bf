"""Backtracking isomorphism oracle against unpruned permutation search."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from graphprod import Graph, SizeLimitError, are_isomorphic, is_isomorphism, relabel
from graphprod import isomorphism as iso
from graphprod.catalog import C3, C5, K1_4, NAMED, P3_END_LOOP, P3_MID_LOOP, star_graph
from graphprod.core import bits
from graphprod.isomorphism import _equitable_partition

from helpers import (
    all_graphs,
    color_refinement,
    double_edge_swap,
    naive_isomorphic,
    random_cubic_graph,
    random_graph,
    random_relabeling,
    random_sparse_connected_graph,
    reference_processing_order,
)


def test_relabeled_triangle_has_witness():
    other = relabel(C3, [1, 2, 0])
    w = are_isomorphic(C3, other)
    assert w is not None
    assert is_isomorphism(C3, other, w.mapping)
    assert not is_isomorphism(C3, other, (0, 0, 1))  # not a permutation
    assert is_isomorphism(C3, C3, np.arange(3))
    assert is_isomorphism(C3, C3, (0.0, 1.0, 2.0)) is False  # not integers


def test_loop_position_distinguishes_paths():
    # derived by exhausting all 6 bijections
    assert naive_isomorphic(P3_END_LOOP, P3_MID_LOOP) is None
    assert are_isomorphic(P3_END_LOOP, P3_MID_LOOP) is None


def test_star_vs_cycle():
    assert are_isomorphic(K1_4, C5) is None


def test_agreement_with_naive_exhaustive_3_nodes():
    graphs = list(all_graphs(3))
    for g1 in graphs:
        for g2 in graphs:
            got = are_isomorphic(g1, g2)
            want = naive_isomorphic(g1, g2)
            assert (got is None) == (want is None)
            if got is not None:
                assert is_isomorphism(g1, g2, got.mapping)


def test_agreement_with_naive_random_pairs():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(2, 6)
        g1 = random_graph(n, rng)
        g2 = random_relabeling(g1, rng) if rng.random() < 0.5 else random_graph(n, rng)
        got = are_isomorphic(g1, g2)
        want = naive_isomorphic(g1, g2)
        assert (got is None) == (want is None)
        if got is not None:
            assert is_isomorphism(g1, g2, got.mapping)


def test_agreement_with_naive_at_seven_and_eight_nodes():
    rng = random.Random(29)
    for n in (7, 8):
        for _ in range(3):
            g1 = random_graph(n, rng)
            g2 = random_relabeling(g1, rng) if rng.random() < 0.5 else random_graph(n, rng)
            got = are_isomorphic(g1, g2)
            assert (got is None) == (naive_isomorphic(g1, g2) is None)


def test_random_relabelings_always_found_up_to_8_nodes():
    rng = random.Random(23)
    for n in range(2, 9):
        for _ in range(12):
            g = random_graph(n, rng)
            assert are_isomorphic(g, random_relabeling(g, rng)) is not None


def test_witness_is_deterministic():
    rng = random.Random(5)
    g1 = random_graph(6, rng)
    g2 = random_relabeling(g1, rng)
    first = are_isomorphic(g1, g2)
    second = are_isomorphic(g1, g2)
    assert first == second


def _golden_pairs():
    """A fixed seeded mix of isomorphism queries.

    Random relabellings of 2-12-node graphs (YES), degree-preserving edge
    swaps of 6-12-node graphs (mostly NO), 20-node cubic YES and NO pairs
    (refinement splits nothing, so the backtracker decides), and every
    ordered pair of nonempty corpus graphs.
    """
    rng = random.Random(20040917)
    for _ in range(300):
        g = random_graph(rng.randint(2, 12), rng, edge_p=rng.uniform(0.1, 0.7))
        yield g, random_relabeling(g, rng)
    for _ in range(40):
        g = random_graph(rng.randint(6, 12), rng, edge_p=rng.uniform(0.2, 0.6))
        yield g, random_relabeling(double_edge_swap(g, rng), rng)
    for _ in range(12):
        g = random_cubic_graph(20, rng)
        yield g, random_relabeling(g, rng)
        yield g, random_cubic_graph(20, rng)
    graphs = [g for _, g in sorted(NAMED.items()) if g.node_count > 0]
    for g1 in graphs:
        for g2 in graphs:
            yield g1, g2


# sha256 of the mappings of _golden_pairs, as computed by the original
# recursive list-matrix backtracker; any change to the processing order or
# the candidate order that alters a returned witness changes it
GOLDEN_DIGEST = "7b83868ef49100b43c69daeecd790ace841edf20ec544ce1efa523f74511bc4d"
GOLDEN_COUNTS = (348, 805)  # (YES answers, queries)


def test_golden_witnesses_are_unchanged():
    h = hashlib.sha256()
    found = total = 0
    for g1, g2 in _golden_pairs():
        w = are_isomorphic(g1, g2, node_limit=None)
        total += 1
        if w is not None:
            found += 1
            assert is_isomorphism(g1, g2, w.mapping)
        h.update(repr(None if w is None else w.mapping).encode() + b"\n")
    assert (found, total) == GOLDEN_COUNTS
    assert h.hexdigest() == GOLDEN_DIGEST


def _networkx_graph(nx, g):
    out = nx.Graph()
    out.add_nodes_from(range(g.node_count))
    out.add_edges_from(g.edges)
    return out


def _torus_graph(steps) -> Graph:
    """Graph on Z4 x Z4, node (i, j) = 4i + j, joining nodes whose difference is in steps."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    return Graph(16, frozenset(
        (4 * i + j, 4 * k + l)
        for i, j in cells
        for k, l in cells
        if ((k - i) % 4, (l - j) % 4) in steps
    ))


# Both strongly regular with parameters (16, 6, 2, 2), and not isomorphic.
ROOK_4X4 = _torus_graph({(0, d) for d in (1, 2, 3)} | {(d, 0) for d in (1, 2, 3)})
SHRIKHANDE = _torus_graph({(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)})


def test_agreement_with_networkx_vf2_beyond_naive_reach(monkeypatch):
    nx = pytest.importorskip("networkx")
    rng = random.Random(2004)
    pairs = []
    for _ in range(10):
        g = random_cubic_graph(20, rng)
        pairs.append((g, random_relabeling(g, rng)))
        pairs.append((g, random_relabeling(random_cubic_graph(20, rng), rng)))
    for _ in range(10):
        g = random_sparse_connected_graph(40, rng)
        pairs.append((g, random_relabeling(g, rng)))
        pairs.append((g, random_relabeling(double_edge_swap(g, rng), rng)))
    # 40-60-node cubic pairs: seconds each for a backtracker without the
    # refinement prune; VF2++ decides them where plain VF2 can take seconds
    decide = {}
    for n in range(40, 61, 4):
        g = random_cubic_graph(n, rng)
        other = random_cubic_graph(n, rng)
        for g2 in (random_relabeling(g, rng), random_relabeling(other, rng)):
            pairs.append((g, g2))
            decide[len(pairs) - 1] = getattr(nx, "vf2pp_is_isomorphic", nx.is_isomorphic)
    # refinement cannot tell these apart before a placement, so the search
    # has to back up past placed nodes
    srg_rng = random.Random(16)
    srg = len(pairs)
    pairs.append((ROOK_4X4, SHRIKHANDE))
    for g in (ROOK_4X4, SHRIKHANDE):
        pairs.append((g, random_relabeling(g, srg_rng)))
    # every failed placement is undone at once; any further undo takes back
    # the placement of a node the depth loop has returned to
    counts = {"undo": 0, "failed": 0}
    place, undo = iso._Partition.place, iso._Partition.undo

    def counted_place(self, v, w):
        ok = place(self, v, w)
        counts["failed"] += not ok
        return ok

    def counted_undo(self, mark):
        counts["undo"] += 1
        undo(self, mark)

    monkeypatch.setattr(iso._Partition, "place", counted_place)
    monkeypatch.setattr(iso._Partition, "undo", counted_undo)
    answers = set()
    for k, (g1, g2) in enumerate(pairs):
        counts.update(undo=0, failed=0)
        got = are_isomorphic(g1, g2, node_limit=None)
        if k == srg:
            assert got is None and counts["undo"] > counts["failed"]
        want = decide.get(k, nx.is_isomorphic)(_networkx_graph(nx, g1), _networkx_graph(nx, g2))
        assert (got is not None) == want
        if got is not None:
            assert is_isomorphism(g1, g2, got.mapping)
        answers.add((k in decide, want))
    assert answers == {(False, True), (False, False), (True, True), (True, False)}


# (place, undo) calls over _golden_pairs, and over the rook 4x4 / Shrikhande
# NO pair with a relabelled YES pair of each
GOLDEN_TREE = ((2812, 366), (144, 112))


def test_golden_searches_walk_the_same_tree(monkeypatch):
    # the numbers of placements and undos pin the search tree, not only its first leaf
    counts = {"place": 0, "undo": 0}
    place, undo = iso._Partition.place, iso._Partition.undo

    def counted_place(self, v, w):
        counts["place"] += 1
        return place(self, v, w)

    def counted_undo(self, mark):
        counts["undo"] += 1
        undo(self, mark)

    monkeypatch.setattr(iso._Partition, "place", counted_place)
    monkeypatch.setattr(iso._Partition, "undo", counted_undo)
    rng = random.Random(16)
    srg_pairs = [(ROOK_4X4, SHRIKHANDE)]
    srg_pairs += [(g, random_relabeling(g, rng)) for g in (ROOK_4X4, SHRIKHANDE)]
    trees = []
    for pairs in (_golden_pairs(), srg_pairs):
        counts.update(place=0, undo=0)
        for g1, g2 in pairs:
            are_isomorphic(g1, g2, node_limit=None)
        trees.append((counts["place"], counts["undo"]))
    assert tuple(trees) == GOLDEN_TREE


def test_deep_search_does_not_recurse():
    # 1201 nodes: one search level per node, past Python's recursion limit
    star = star_graph(1200)
    moved = relabel(star, list(range(1, 1201)) + [0])
    w = are_isomorphic(star, moved, node_limit=None)
    assert w is not None and is_isomorphism(star, moved, w.mapping)


def test_processing_order_matches_a_scanning_reference():
    # random neighbour lists, disconnected ones included, with sizes drawn
    # from few values so that ties are broken by node number
    rng = random.Random(20)
    disconnected = 0
    for _ in range(400):
        g = random_graph(rng.randint(1, 16), rng, edge_p=rng.uniform(0.0, 0.5))
        adj = [list(bits(row)) for row in g.adjacency_masks]
        for nbrs in adj:  # the search lists neighbours in no particular order
            rng.shuffle(nbrs)
        sizes = [rng.randint(1, 3) for _ in range(g.node_count)]
        disconnected += len(g.traversal.starts) > 1
        assert iso._processing_order(adj, sizes) == reference_processing_order(adj, sizes), g
    assert disconnected >= 100


def test_star_search_keeps_no_partition_per_depth():
    # placements are undone from a trail; a copy of the partition per depth
    # of this 2401-level search would take about 100 MB
    star = star_graph(2400)
    moved = relabel(star, list(range(1, 2401)) + [0])
    tracemalloc.start()
    try:
        w = are_isomorphic(star, moved, node_limit=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is not None and is_isomorphism(star, moved, w.mapping)
    assert peak < 4_000_000


def _refinement_pairs():
    """Seeded pairs for the refinement differential test.

    Random graphs with loops against a relabelling, an edge swap and an
    unrelated graph of the same order; 20-60-node cubic and 40-128-node
    sparse graphs against a relabelling and a relabelled edge swap (and,
    for cubic graphs, another cubic graph); every ordered pair of corpus
    graphs.
    """
    rng = random.Random(1981)
    for _ in range(150):
        n = rng.randint(1, 14)
        g = random_graph(n, rng, edge_p=rng.uniform(0.1, 0.7), loop_p=rng.uniform(0, 0.6))
        yield g, random_relabeling(g, rng)
        yield g, random_relabeling(double_edge_swap(g, rng), rng)
        yield g, random_graph(n, rng, edge_p=rng.uniform(0.1, 0.7), loop_p=rng.uniform(0, 0.6))
    for n in range(20, 61, 4):
        g = random_cubic_graph(n, rng)
        yield g, random_relabeling(g, rng)
        yield g, random_relabeling(double_edge_swap(g, rng), rng)
        yield g, random_relabeling(random_cubic_graph(n, rng), rng)
    for n in (40, 64, 96, 128) * 3:
        g = random_sparse_connected_graph(n, rng)
        yield g, random_relabeling(g, rng)
        yield g, random_relabeling(double_edge_swap(g, rng), rng)
    graphs = [g for _, g in sorted(NAMED.items()) if g.node_count > 0]
    for g1 in graphs:
        for g2 in graphs:
            yield g1, g2


def _joint_cells(colors1, colors2):
    """Each color class as (nodes of the first graph, nodes of the second)."""
    cells = {}
    for which, colors in enumerate((colors1, colors2)):
        for v, c in enumerate(colors):
            cells.setdefault(c, (set(), set()))[which].add(v)
    return {(frozenset(a), frozenset(b)) for a, b in cells.values()}


def test_initial_refinement_matches_round_based_color_refinement():
    outcomes = set()
    for g1, g2 in _refinement_pairs():
        want = color_refinement(g1, g2)
        got = _equitable_partition(g1, g2)
        assert (got is None) == (want is None)
        if got is not None:
            n = g1.node_count
            assert _joint_cells(got.cell[:n], got.cell[n:]) == _joint_cells(*want)
            _assert_balanced(got, n)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def _assert_balanced(part, n):
    """``cell`` and ``members`` agree, and every cell holds as many g1 as g2 nodes."""
    members = [0] * len(part.members)
    for x, c in enumerate(part.cell):
        members[c] |= 1 << x
    assert members == part.members
    assert all(2 * (m >> n).bit_count() == m.bit_count() for m in members)


def test_union_partition_stays_balanced_and_undo_restores_it():
    # place the nodes of g1 in turn, trying each candidate of the node's cell:
    # a failed place may have split cells before it met an unbalanced piece
    pairs = list(_refinement_pairs()) + [(ROOK_4X4, SHRIKHANDE)]
    rng = random.Random(31)
    for n in (64, 128):
        g = random_sparse_connected_graph(n, rng)
        pairs.append((g, random_relabeling(double_edge_swap(g, rng), rng)))
    failed = 0
    for g1, g2 in pairs:
        part = _equitable_partition(g1, g2)
        if part is None:
            continue
        n = g1.node_count
        _assert_balanced(part, n)
        for v in range(n):
            mark = len(part.trail)
            snapshot = (list(part.cell), list(part.members))
            for w in bits(part.members[part.cell[v]] >> n):
                if part.place(v, w):
                    _assert_balanced(part, n)
                    break
                failed += 1
                part.undo(mark)
                assert (part.cell, part.members, len(part.trail)) == (*snapshot, mark)
            else:
                break
    assert failed > 0


def test_mismatched_counts_fail_fast():
    assert are_isomorphic(Graph(3), Graph(4)) is None
    assert are_isomorphic(Graph(3, frozenset({(0, 1)})), Graph(3)) is None


def test_node_limit():
    big1 = Graph(17, frozenset((i, i + 1) for i in range(16)))
    big2 = Graph(17, frozenset((i, i + 1) for i in range(16)))
    with pytest.raises(SizeLimitError, match="^input order 17 exceeds the 16-node bound$"):
        are_isomorphic(big1, big2)
    assert are_isomorphic(big1, big2, node_limit=17) is not None
    assert are_isomorphic(big1, big2, node_limit=None) is not None


def test_node_limit_message_names_the_integer_bound():
    # True passes as the integer 1, and the message says 1
    with pytest.raises(SizeLimitError, match="^input order 3 exceeds the 1-node bound$"):
        are_isomorphic(C3, C3, node_limit=True)


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        are_isomorphic(Graph(0), Graph(0))
