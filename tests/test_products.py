"""Product definitions against the all-pairs oracle, Kronecker identities."""

import random

import numpy as np
import pytest

from graphprod import (
    Graph,
    PreconditionError,
    SizeLimitError,
    adjacency_matrix,
    are_isomorphic,
    cartesian_product,
    direct_product,
    disjoint_union,
    is_isomorphism,
    kronecker,
    lexicographic_product,
    product,
    ProductKind,
    strong_product,
    verify_kronecker_identity,
)
from graphprod.catalog import C4, C5, D2, K2, L1, add_loops

from helpers import (
    all_graphs,
    naive_product_edges,
    random_bipartite_connected,
    random_graph,
)

KINDS = [k.value for k in ProductKind]


def test_direct_k2_k2_is_two_disjoint_edges():
    p = direct_product(K2, K2)
    assert p.node_count == 4
    assert p.edges == frozenset({(0, 3), (1, 2)})


def test_cartesian_k2_k2_is_c4():
    p = cartesian_product(K2, K2)
    assert p.edges == frozenset({(0, 1), (2, 3), (0, 2), (1, 3)})
    assert are_isomorphic(p, C4) is not None


def test_looped_single_node_is_direct_identity():
    rng = random.Random(2)
    for _ in range(10):
        g = random_graph(rng.randint(1, 5), rng)
        assert direct_product(L1, g) == g


def test_d2_product_doubles():
    rng = random.Random(4)
    for _ in range(10):
        g = random_graph(rng.randint(1, 5), rng)
        assert direct_product(D2, g) == disjoint_union(g, g)


def test_strong_is_union_of_cartesian_and_direct():
    rng = random.Random(6)
    for _ in range(15):
        g1 = random_graph(rng.randint(1, 4), rng)
        g2 = random_graph(rng.randint(1, 4), rng)
        s = strong_product(g1, g2)
        assert s.edges == cartesian_product(g1, g2).edges | direct_product(g1, g2).edges


@pytest.mark.parametrize("kind", KINDS)
def test_matches_definition_exhaustive_tiny(kind):
    graphs = list(all_graphs(1)) + list(all_graphs(2))
    for g1 in graphs:
        for g2 in graphs:
            got = product(ProductKind(kind), g1, g2)
            assert got.edges == naive_product_edges(kind, g1, g2)
            assert got.node_count == g1.node_count * g2.node_count


@pytest.mark.parametrize("kind", KINDS)
def test_matches_definition_random(kind):
    rng = random.Random(hash(kind) % 1000)
    for _ in range(40):
        g1 = random_graph(rng.randint(1, 4), rng)
        g2 = random_graph(rng.randint(1, 4), rng)
        assert product(ProductKind(kind), g1, g2).edges == naive_product_edges(kind, g1, g2)


def test_kronecker_identity_blocks():
    b = np.array([[1, 1], [1, 0]], dtype=np.uint8)
    out = kronecker(np.eye(2, dtype=np.uint8), b)
    assert np.array_equal(out[:2, :2], b) and np.array_equal(out[2:, 2:], b)
    assert not out[:2, 2:].any() and not out[2:, :2].any()


def test_kronecker_zero_annihilates():
    b = np.ones((3, 3), dtype=np.uint8)
    assert not kronecker(np.zeros((2, 2), dtype=np.uint8), b).any()


def test_kronecker_k2_k2_positions():
    a = adjacency_matrix(K2)
    out = kronecker(a, a)
    want = np.zeros((4, 4), dtype=np.uint8)
    for i, j in [(0, 3), (3, 0), (1, 2), (2, 1)]:
        want[i, j] = 1
    assert np.array_equal(out, want)


def test_kronecker_refuses_an_operand_without_an_axis():
    for a, b in [(np.array(1), np.array(2)), (np.eye(2), np.array(2)), (np.array(1), np.eye(2))]:
        with pytest.raises(PreconditionError, match="^kronecker needs operands with at least one"):
            kronecker(a, b)
    assert np.array_equal(kronecker(np.array([1, 2]), np.array([3, 4])), [3, 4, 6, 8])


def test_direct_adjacency_equals_kronecker_examples():
    assert verify_kronecker_identity(K2, K2)
    assert verify_kronecker_identity(L1, C5)


def test_direct_adjacency_equals_kronecker_random():
    rng = random.Random(9)
    for _ in range(400):
        g1 = random_graph(rng.randint(1, 7), rng)
        g2 = random_graph(rng.randint(1, 7), rng)
        assert verify_kronecker_identity(g1, g2)


def test_direct_nonzeros_multiply():
    rng = random.Random(13)
    for _ in range(40):
        g1 = random_graph(rng.randint(1, 5), rng)
        g2 = random_graph(rng.randint(1, 5), rng)
        p = direct_product(g1, g2)
        assert p.nonzero_count == g1.nonzero_count * g2.nonzero_count


def _transpose_mapping(n1: int, n2: int) -> list[int]:
    # (u, v) at u*n2+v in g1 x g2 corresponds to (v, u) at v*n1+u in g2 x g1
    out = [0] * (n1 * n2)
    for u in range(n1):
        for v in range(n2):
            out[u * n2 + v] = v * n1 + u
    return out


@pytest.mark.parametrize("kind", ["cartesian", "direct", "strong"])
def test_commutative_up_to_isomorphism(kind):
    rng = random.Random(17)
    for _ in range(30):
        g1 = random_graph(rng.randint(1, 5), rng)
        g2 = random_graph(rng.randint(1, 5), rng)
        p12 = product(ProductKind(kind), g1, g2)
        p21 = product(ProductKind(kind), g2, g1)
        mapping = _transpose_mapping(g1.node_count, g2.node_count)
        assert is_isomorphism(p12, p21, mapping)


def test_lexicographic_is_not_commutative():
    g1 = K2
    g2 = Graph(2)  # two isolated nodes
    p12 = lexicographic_product(g1, g2)
    p21 = lexicographic_product(g2, g1)
    assert p12.edge_count != p21.edge_count  # 4 cross edges vs 2 column edges


@pytest.mark.parametrize("kind", KINDS)
def test_associative_exactly_under_row_major_indexing(kind):
    rng = random.Random(19)
    for _ in range(25):
        gs = [random_graph(rng.randint(1, 3), rng) for _ in range(3)]
        left = product(ProductKind(kind), product(ProductKind(kind), gs[0], gs[1]), gs[2])
        right = product(ProductKind(kind), gs[0], product(ProductKind(kind), gs[1], gs[2]))
        assert left == right


def test_bipartite_double_cover():
    rng = random.Random(21)
    for _ in range(30):
        h = random_bipartite_connected(rng.randint(2, 6), rng)
        doubled = disjoint_union(h, h)
        assert direct_product(D2, h) == doubled
        via_k2 = direct_product(K2, h)
        assert are_isomorphic(via_k2, doubled) is not None


def test_size_bound_and_empty_inputs():
    big = Graph(70)
    with pytest.raises(SizeLimitError, match="^product order 4900 exceeds the 4096-node bound$"):
        direct_product(big, big)
    assert direct_product(big, big, node_limit=None).node_count == 4900
    with pytest.raises(SizeLimitError, match="^Kronecker result order 4900 exceeds the 4096"):
        kronecker(np.zeros((70, 70)), np.zeros((70, 70)))
    with pytest.raises(PreconditionError, match="^graph products require nonempty factors$"):
        direct_product(Graph(0), K2)


@pytest.mark.parametrize("kind", ["direct", None, 0])
def test_product_rejects_anything_but_a_product_kind(kind):
    with pytest.raises(PreconditionError, match=f"^unknown product kind: {kind!r}$"):
        product(kind, K2, K2)


def test_loops_follow_definitions():
    looped = add_loops(K2, [0])
    # direct: loop only where both factors have loops
    assert (0, 0) in direct_product(looped, looped).edges
    assert direct_product(looped, K2).loop_count == 0
    # cartesian and lexicographic: loop where either factor has one
    assert cartesian_product(looped, K2).loop_count == 2
    assert lexicographic_product(K2, looped).loop_count == 2
