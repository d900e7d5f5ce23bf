"""The Cartesian-skeleton prime certificate against independent references.

The skeleton is checked against its set-based definition and against the
identity S(A x B) = S(A) [] S(B); the certificate is checked against the
exhaustive factor search, which never consults it (``factor_search``
searches one split directly).
"""

from __future__ import annotations

import random
from functools import cached_property

import pytest

from graphprod import (
    Graph,
    direct_product,
    factor_search,
    find_factorization,
    is_bipartite,
    is_connected,
)
from graphprod import core, factorization
from graphprod.skeleton import cartesian_skeleton, certifies_prime

from helpers import (
    all_connected_graphs,
    double_edge_swap,
    is_r_thin,
    naive_cartesian_product,
    naive_cartesian_skeleton,
    random_bipartite_connected,
    random_connected_graph,
    random_graph,
    random_relabeling,
)


def _eligible(g: Graph) -> bool:
    """The certificate's precondition: connected, nonbipartite and R-thin."""
    return is_connected(g) and not is_bipartite(g) and is_r_thin(g)


def _skeleton(g: Graph) -> Graph:
    masks = cartesian_skeleton(g.adjacency_masks)
    n = g.node_count
    return Graph(n, frozenset((x, y) for x in range(n) for y in range(x, n) if masks[x] >> y & 1))


def _exhaustively_prime(g: Graph) -> bool:
    n = g.node_count
    return all(
        factor_search(g, a, n // a, node_limit=None) is None
        for a in range(2, int(n**0.5) + 1)
        if n % a == 0
    )


def _eligible_factor(n: int, rng: random.Random) -> Graph:
    while True:
        extra_p, loop_p = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)
        g = random_connected_graph(n, rng, extra_p=extra_p, loop_p=loop_p)
        if _eligible(g):
            return g


def test_skeleton_matches_its_definition():
    rng = random.Random(1)
    for _ in range(1500):
        n = rng.randint(1, 8)
        g = random_graph(n, rng, edge_p=rng.uniform(0.1, 0.8), loop_p=rng.uniform(0.0, 0.6))
        assert _skeleton(g) == naive_cartesian_skeleton(g), g


def test_skeleton_of_a_direct_product_is_the_cartesian_product_of_skeletons():
    rng = random.Random(2)
    loops = 0
    for _ in range(120):
        fa = _eligible_factor(rng.randint(2, 5), rng)
        fb = _eligible_factor(rng.randint(2, 5), rng)
        loops += fa.loop_count + fb.loop_count
        expect = naive_cartesian_product(_skeleton(fa), _skeleton(fb))
        assert _skeleton(direct_product(fa, fb)) == expect, (fa, fb)
    assert loops > 0


def test_no_planted_product_is_certified_prime():
    rng = random.Random(3)
    eligible = 0
    for _ in range(300):
        fa = random_connected_graph(rng.randint(2, 4), rng, loop_p=rng.uniform(0.1, 0.6))
        fb = random_connected_graph(rng.randint(2, 5), rng, loop_p=rng.uniform(0.1, 0.6))
        g = random_relabeling(direct_product(fa, fb), rng)
        if _eligible(g):
            eligible += 1
            assert not certifies_prime(g.adjacency_masks), (fa, fb)
    assert eligible >= 50


def test_every_certified_order_4_graph_is_prime():
    certified = 0
    for g in all_connected_graphs(4):
        if _eligible(g) and certifies_prime(g.adjacency_masks):
            certified += 1
            assert _exhaustively_prime(g), g
    assert certified > 0


def test_every_certified_random_graph_is_prime():
    rng = random.Random(4)
    certified = 0
    for _ in range(150):
        g = random_connected_graph(rng.choice([6, 8, 9, 10]), rng, extra_p=rng.uniform(0.1, 0.6))
        if _eligible(g) and certifies_prime(g.adjacency_masks):
            certified += 1
            assert _exhaustively_prime(g), g
    assert certified >= 30


@pytest.mark.parametrize("a, b", [(2, 6), (3, 4), (2, 8)])
def test_every_certified_near_composite_is_prime(a, b):
    # the near-composites of the factor-mixed benchmark: a relabelled product
    # of random connected factors after one degree-preserving edge swap
    rng = random.Random(a * 100 + b)
    certified = 0
    for _ in range(30):
        g = direct_product(random_connected_graph(a, rng), random_connected_graph(b, rng))
        g = random_relabeling(double_edge_swap(g, rng), rng)
        if _eligible(g) and certifies_prime(g.adjacency_masks):
            certified += 1
            assert _exhaustively_prime(g), g
    assert certified >= 5


def _refuse_to_search(self):
    raise AssertionError("the exhaustive search ran")


def test_a_25_node_near_composite_is_certified_without_search(monkeypatch):
    # a 5x5 one-swap near-composite; the exhaustive search on this shape has
    # run for minutes without a verdict
    rng = random.Random(55)
    while True:
        g = direct_product(random_connected_graph(5, rng), random_connected_graph(5, rng))
        g = random_relabeling(double_edge_swap(g, rng), rng)
        if _eligible(g):
            break
    monkeypatch.setattr(factorization._FactorSearch, "run", _refuse_to_search)
    assert find_factorization(g, node_limit=None) is None


def test_the_certificate_runs_only_on_eligible_graphs(monkeypatch):
    calls = []
    certify = factorization.certifies_prime
    monkeypatch.setattr(
        factorization, "certifies_prime", lambda masks: calls.append(masks) or certify(masks)
    )
    c5 = {(v, (v + 1) % 5) for v in range(5)}
    twins = Graph(6, frozenset(c5 | {(1, 5), (4, 5)}))  # nodes 0 and 5 are twins
    path = Graph(6, frozenset((v, v + 1) for v in range(5)))  # bipartite
    disconnected = Graph(6, frozenset({(0, 0), (0, 1), (1, 2), (3, 3), (3, 4), (4, 5)}))
    for g in (twins, path, disconnected):
        find_factorization(g)
    assert calls == []
    find_factorization(Graph(6, frozenset(c5 | {(0, 5)})))  # C5 with a pendant node
    assert len(calls) == 1


def test_per_graph_data_is_derived_once_per_call(monkeypatch):
    built, walked, searched = [], [], []
    neighbors = Graph.neighbors.func
    counted = cached_property(lambda g: built.append(g) or neighbors(g))
    counted.__set_name__(Graph, "neighbors")
    monkeypatch.setattr(Graph, "neighbors", counted)
    walk = core.breadth_first
    monkeypatch.setattr(core, "breadth_first", lambda masks: walked.append(masks) or walk(masks))
    search = factorization.factor_search
    monkeypatch.setattr(
        factorization,
        "factor_search",
        lambda g, a, b, **kw: searched.append((a, b)) or search(g, a, b, **kw),
    )
    # a bipartite prime of 12 nodes, so the certificate stays out and both
    # splits (2 x 6 and 3 x 4) run searches that place vertices
    g = random_bipartite_connected(12, random.Random(1))
    assert find_factorization(g) is None
    assert searched == [(2, 6), (3, 4)]
    assert built == [g] and walked == [g.adjacency_masks]
