"""Core graph type, counting conventions, predicates, and edge-list I/O."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprod import (
    EdgeListParseError,
    Graph,
    PreconditionError,
    adjacency_matrix,
    bipartition,
    connected_components,
    disjoint_union,
    format_edge_list,
    graph_from_adjacency,
    induced_subgraph,
    is_bipartite,
    is_connected,
    SizeLimitError,
    parse_edge_list,
    products,
    read_edge_list,
    relabel,
)
from graphprod.core import MAX_HEADER_NODES, breadth_first
from graphprod.catalog import (
    C3,
    C4,
    C5,
    K1_4,
    K2,
    add_loops,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from helpers import (
    all_graphs,
    naive_breadth_first,
    random_bipartite_connected,
    random_graph,
    random_relabeling,
)


@st.composite
def small_graphs(draw, max_nodes=6):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    edges = draw(st.sets(st.sampled_from(cells))) if cells else set()
    return Graph(n, frozenset(edges))


def test_edges_are_normalized():
    g = Graph(3, frozenset({(2, 0), (1, 1)}))
    assert g.edges == frozenset({(0, 2), (1, 1)})
    assert g.has_edge(0, 2) and g.has_edge(2, 0) and g.has_edge(1, 1)


def test_out_of_range_edge_rejected():
    with pytest.raises(PreconditionError, match=r"^edge \(0, 2\) out of range for 2 nodes$"):
        Graph(2, frozenset({(0, 2)}))
    with pytest.raises(PreconditionError, match="^node_count must be nonnegative$"):
        Graph(-1)
    with pytest.raises(PreconditionError, match="^a cycle needs at least 3 nodes$"):
        cycle_graph(2)


@pytest.mark.parametrize(
    "args, message",
    [
        ((2.5,), "node_count must be an integer"),
        (("3",), "node_count must be an integer"),
        ((3, {(0, 1.5)}), "edges must be pairs of integers"),
        ((3, {(0, "a")}), "edges must be pairs of integers"),
        ((3, [(0, 1, 2)]), "edges must be pairs of integers"),
        ((3, [0]), "edges must be pairs of integers"),
        ((3, 5), "edges must be pairs of integers"),
    ],
)
def test_malformed_graph_rejected(args, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        Graph(*args)


@pytest.mark.parametrize(
    "make, n, message",
    [
        (path_graph, 2.5, "n must be an integer"),
        (cycle_graph, "5", "n must be an integer"),
        (complete_graph, 2.5, "n must be an integer"),
        (star_graph, 2.5, "leaves must be an integer"),
        (star_graph, None, "leaves must be an integer"),
    ],
)
def test_catalog_builders_refuse_a_size_that_is_not_an_integer(make, n, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        make(n)
    assert make(np.int64(4)) == make(4)


def test_numpy_integers_are_stored_as_python_ints():
    g = Graph(np.int64(3), {(np.int64(1), np.int64(0)), (1, 2)})
    assert type(g.node_count) is int
    assert all(type(x) is int for edge in g.edges for x in edge)
    assert g.edges == frozenset({(0, 1), (1, 2)}) and is_connected(g)


def test_nonzero_count_is_2m_minus_s_exhaustive():
    # every graph with up to 4 nodes, loops included
    for n in range(1, 5):
        for g in all_graphs(n):
            mat = adjacency_matrix(g)
            assert int(np.count_nonzero(mat)) == 2 * g.edge_count - g.loop_count
            assert np.array_equal(mat, mat.T)


def test_loop_writes_single_diagonal_one():
    g = add_loops(K2, [0])
    mat = adjacency_matrix(g)
    assert mat[0, 0] == 1 and mat[1, 1] == 0
    assert g.nonzero_count == 3


def test_disjoint_union_k2_k2():
    u = disjoint_union(K2, K2)
    assert u.node_count == 4
    assert u.edges == frozenset({(0, 1), (2, 3)})


def test_disjoint_union_with_empty_graph_is_identity():
    empty = Graph(0)
    assert disjoint_union(C3, empty) == C3
    assert disjoint_union(empty, C3) == C3


def test_disjoint_union_block_adjacency():
    # C3 u (C3 + loop): 6 nodes, 7 edges, one loop, block-diagonal adjacency
    looped = add_loops(C3, [0])
    u = disjoint_union(C3, looped)
    assert u.node_count == 6
    assert u.edge_count == 7
    assert u.loop_count == 1
    mat = adjacency_matrix(u)
    assert np.array_equal(mat[:3, :3], adjacency_matrix(C3))
    assert np.array_equal(mat[3:, 3:], adjacency_matrix(looped))
    assert not mat[:3, 3:].any() and not mat[3:, :3].any()


@given(small_graphs(), small_graphs(), small_graphs())
@settings(max_examples=60, deadline=None)
def test_disjoint_union_associative_and_additive(g1, g2, g3):
    left = disjoint_union(disjoint_union(g1, g2), g3)
    right = disjoint_union(g1, disjoint_union(g2, g3))
    assert left == right  # index shifts compose, so equality is exact
    assert left.edge_count == g1.edge_count + g2.edge_count + g3.edge_count
    assert left.loop_count == g1.loop_count + g2.loop_count + g3.loop_count


def test_is_connected_examples():
    assert is_connected(K2)
    assert not is_connected(disjoint_union(K2, K2))
    assert is_connected(K1_4)
    assert is_connected(add_loops(Graph(1), [0]))
    with pytest.raises(PreconditionError):
        is_connected(Graph(0))


def test_self_loops_do_not_connect():
    g = Graph(2, frozenset({(0, 0), (1, 1)}))
    assert not is_connected(g)


def test_is_bipartite_examples():
    assert is_bipartite(C4)
    assert not is_bipartite(C5)
    assert not is_bipartite(add_loops(K2, [0]))
    assert is_bipartite(Graph(0))


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_loops_always_break_bipartiteness(g):
    if g.loop_count > 0:
        assert not is_bipartite(g)
    coloring = bipartition(g)
    if coloring is not None:
        for u, v in g.edges:
            assert coloring[u] != coloring[v]


def test_connected_components_and_induced_subgraph():
    u = disjoint_union(C3, add_loops(K2, [1]))
    comps = connected_components(u)
    assert comps == [[0, 1, 2], [3, 4]]
    sub = induced_subgraph(u, comps[1])
    assert sub == add_loops(K2, [1])
    with pytest.raises(PreconditionError, match="^nodes must be distinct$"):
        induced_subgraph(u, [3, 3])
    assert induced_subgraph(C3, np.array([2, 0])) == K2  # numpy integers are node ids too
    assert induced_subgraph(C5, iter([0, 1])) == K2  # an iterator is read once
    for nodes, message in (
        ([0, 5], r"^node 5 out of range for 3 nodes$"),
        ([-1, 0], r"^node -1 out of range for 3 nodes$"),
        ([0.0, 1.0], "^nodes must be integers$"),
        (["0"], "^nodes must be integers$"),
        (None, "^nodes must be integers$"),
    ):
        with pytest.raises(PreconditionError, match=message):
            induced_subgraph(C3, nodes)


def _multi_component_graphs(rng, count=300, max_nodes=12):
    """Disjoint unions of random pieces, loopy or bipartite, nodes shuffled."""
    for _ in range(count):
        g = Graph(0)
        while g.node_count < max_nodes and (g.node_count == 0 or rng.random() < 0.7):
            k = rng.randint(1, min(5, max_nodes - g.node_count))
            if rng.random() < 0.5:
                piece = random_bipartite_connected(k, rng)
            else:
                piece = random_graph(k, rng, edge_p=0.5, loop_p=0.1)
            g = disjoint_union(g, piece)
        yield random_relabeling(g, rng)


def test_breadth_first_matches_a_set_based_reference():
    graphs = [g for n in range(1, 5) for g in all_graphs(n)]
    graphs += _multi_component_graphs(random.Random(20))
    for g in graphs:
        order, comps, coloring = naive_breadth_first(g)
        traversal = breadth_first(g.adjacency_masks)
        assert list(traversal.order) == order, g
        assert g.traversal == traversal
        assert connected_components(g) == comps, g
        assert len(traversal.starts) == len(comps)
        assert is_connected(g) == (len(comps) == 1)
        assert bipartition(g) == coloring, g
        assert is_bipartite(g) == (coloring is not None)


def test_bipartition_returns_a_fresh_list():
    coloring = bipartition(C4)
    coloring[0] = 5
    assert bipartition(C4) == [0, 1, 0, 1]


def test_adjacency_masks_match_a_set_based_reference():
    rng = random.Random(21)
    graphs = [g for n in range(5) for g in all_graphs(n)]
    graphs += [
        random_graph(rng.randint(5, 12), rng, edge_p=rng.uniform(0.1, 0.8), loop_p=0.3)
        for _ in range(300)
    ]
    loops = 0
    for g in graphs:
        masks = g.adjacency_masks
        assert isinstance(masks, tuple) and len(masks) == g.node_count
        for v, row in enumerate(masks):
            assert isinstance(row, int) and 0 <= row < 1 << g.node_count
            # bit w is set iff v and w are adjacent; a loop sets bit v
            assert {w for w in range(g.node_count) if row >> w & 1} == {
                w for w in range(g.node_count) if g.has_edge(v, w)
            }, g
            assert row >> v & 1 == g.has_edge(v, v)
        loops += g.loop_count
    assert loops > 0


def test_relabel_is_inverse_friendly():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(6, rng)
        perm = list(range(6))
        rng.shuffle(perm)
        inv = [0] * 6
        for i, p in enumerate(perm):
            inv[p] = i
        assert relabel(relabel(g, perm), inv) == g
    assert relabel(K2, np.array([1, 0])) == K2  # numpy integers are labels too
    for g, mapping in (
        (K2, [0, 0]),
        (K2, [0, 1, 2]),
        (K2, [1]),
        (C3, [0.0, 1.0, 2.0]),
        (C3, ["0", "1", "2"]),
        (C3, None),
        (Graph(0), None),
    ):
        with pytest.raises(
            PreconditionError, match=r"^mapping must be a permutation of 0\.\.n-1$"
        ):
            relabel(g, mapping)


def test_adjacency_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(5, rng)
        assert graph_from_adjacency(adjacency_matrix(g)) == g


def test_graph_from_adjacency_validation():
    with pytest.raises(PreconditionError, match="must be symmetric"):
        graph_from_adjacency(np.array([[0, 1], [0, 0]]))
    with pytest.raises(PreconditionError, match="must be 0 or 1"):
        graph_from_adjacency(np.array([[2]]))
    with pytest.raises(PreconditionError, match="must be square"):
        graph_from_adjacency(np.zeros((2, 3), dtype=int))
    with pytest.raises(PreconditionError, match="must be square"):
        graph_from_adjacency([[0, 1], [1]])  # ragged


# -- edge-list format ---------------------------------------------------------


def test_format_is_canonical():
    g = Graph(3, frozenset({(2, 1), (0, 0)}))
    assert format_edge_list(g) == "3 2\n0 0\n1 2\n"


def test_parse_accepts_comments_and_blank_lines():
    text = "# a triangle\n\n3 3\n0 1\n# middle comment\n1 2\n\n0 2\n\n"
    assert parse_edge_list(text) == C3


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_edge_list_round_trip(g):
    text = format_edge_list(g)
    again = parse_edge_list(text)
    assert again.node_count == g.node_count and again.edges == g.edges
    assert format_edge_list(again) == text


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("1 2 3\n", 1),
        ("-1 0\n", 1),  # counts must be nonnegative
        ("x y\n", 1),
        ("2 1\n0 1 2\n", 2),
        ("2 1\n0 a\n", 2),
        ("2 1\n0 5\n", 2),
        ("2 2\n0 1\n1 0\n", 3),  # duplicate of the same unordered edge
        ("2 2\n0 1\n", 1),  # header promises more edges than given
        ("2 0\n0 1\n", 2),  # more edges than promised
        (b"2 1\n0 1\n", 0),  # not text: no line to point at
        (None, 0),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.line == line


def test_parse_rejects_a_header_above_the_node_ceiling():
    assert MAX_HEADER_NODES > products.DEFAULT_NODE_LIMIT
    for text in ("1000000000 0\n", f"# big\n{MAX_HEADER_NODES + 1} 1\n0 1\n"):
        with pytest.raises(SizeLimitError, match="ceiling"):
            parse_edge_list(text)
    assert parse_edge_list(f"{MAX_HEADER_NODES} 0\n").node_count == MAX_HEADER_NODES


def test_read_rejects_bytes_that_are_not_utf8(tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_bytes(b"3 1\n# caf\xe9\n0 1\n")
    with pytest.raises(EdgeListParseError, match="line 2: not UTF-8 text"):
        read_edge_list(bad)
    # Lines are numbered as parse_edge_list numbers them: a lone \r or a
    # form feed ends a line too.
    for data in (b"3 1\r# a\r0 1\r#\r# caf\xe9\r", b"3 1\n# \x0c0 1\n#\n# caf\xe9\n"):
        bad.write_bytes(data)
        assert len(data[:-2].decode().splitlines()) == 5
        with pytest.raises(EdgeListParseError, match="line 5: not UTF-8 text"):
            read_edge_list(bad)
    good = tmp_path / "good.el"
    good.write_bytes("3 1\n# café\r\n0 1\n".encode())
    assert read_edge_list(good) == Graph(3, frozenset({(0, 1)}))
