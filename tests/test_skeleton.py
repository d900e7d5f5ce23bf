"""The Cartesian-skeleton prime certificate against independent references.

The skeleton is checked against its set-based definition and against the
identity S(A x B) = S(A) [] S(B); the certificate, which reads the quotient
G/R of a graph with twins, is checked against the exhaustive factor search,
which never consults it (``factor_search`` searches one split directly).
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
    witness_is_valid,
)
from graphprod import core, factorization
from graphprod.catalog import C5, K2, NAMED, add_loops, complete_graph
from graphprod.skeleton import cartesian_skeleton, certifies_prime

from helpers import (
    all_connected_graphs,
    blow_up,
    double_edge_swap,
    is_r_thin,
    naive_cartesian_product,
    naive_cartesian_skeleton,
    random_connected_graph,
    random_graph,
    random_relabeling,
    reference_certifies_prime,
)


def _eligible(g: Graph) -> bool:
    """The certificate's precondition: connected and nonbipartite."""
    return is_connected(g) and not is_bipartite(g)


def _looped_clique(b: int) -> Graph:
    """K_b with a loop on every node: all its nodes are twins."""
    return add_loops(complete_graph(b), range(b))


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
    """A connected nonbipartite R-thin graph: S(A x B) = S(A) [] S(B) needs R-thin factors."""
    while True:
        extra_p, loop_p = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)
        g = random_connected_graph(n, rng, extra_p=extra_p, loop_p=loop_p)
        if _eligible(g) and is_r_thin(g):
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


def test_no_product_with_a_looped_clique_or_a_common_class_size_is_certified():
    # every R-class size of these graphs is a multiple of b >= 2, so they are
    # composite: A x (K_b with loops), or a blow-up of A by multiples of b,
    # which is (A blown up by the quotients) x (K_b with loops)
    rng = random.Random(5)
    eligible = quotient_certified = 0
    for i in range(200):
        fa = random_connected_graph(rng.randint(2, 6), rng, loop_p=rng.uniform(0.1, 0.6))
        b = rng.randint(2, 3)
        if i % 2:
            g = direct_product(fa, _looped_clique(b))
        else:
            g = blow_up(fa, [b * rng.randint(1, 2) for _ in range(fa.node_count)])
        g = random_relabeling(g, rng)
        if _eligible(g):
            eligible += 1
            # without the divisor test these would be certified from fa's quotient
            quotient_certified += certifies_prime(fa.adjacency_masks)
            assert not certifies_prime(g.adjacency_masks), (fa, b)
            if g.node_count <= 12:
                w = find_factorization(g, node_limit=None)
                assert w is not None and witness_is_valid(g, w), (fa, b)
    assert eligible >= 150 and quotient_certified >= 120


def test_every_certified_order_4_graph_is_prime():
    certified = with_twins = 0
    for g in all_connected_graphs(4):
        if _eligible(g) and certifies_prime(g.adjacency_masks):
            certified += 1
            with_twins += not is_r_thin(g)
            assert _exhaustively_prime(g), g
    assert certified > with_twins >= 100


def test_every_certified_corpus_graph_is_prime():
    certified = 0
    for g in NAMED.values():
        if g.node_count and _eligible(g) and certifies_prime(g.adjacency_masks):
            certified += 1
            assert _exhaustively_prime(g), g
    assert certified >= 5


def test_every_certified_random_graph_is_prime():
    rng = random.Random(4)
    certified = 0
    for _ in range(150):
        g = random_connected_graph(rng.choice([6, 8, 9, 10]), rng, extra_p=rng.uniform(0.1, 0.6))
        if _eligible(g) and certifies_prime(g.adjacency_masks):
            certified += 1
            assert _exhaustively_prime(g), g
    assert certified >= 30


def test_every_certified_graph_with_planted_twins_is_prime():
    # random connected graphs of 6-13 nodes, 1-3 of them copies of another
    # node's neighbourhood (a copy of a looped node is looped and adjacent to it)
    rng = random.Random(6)
    certified = 0
    for _ in range(150):
        n, k = rng.randint(6, 13), rng.randint(1, 3)
        fa = random_connected_graph(n - k, rng, extra_p=rng.uniform(0.1, 0.6), loop_p=0.3)
        sizes = [1] * (n - k)
        for _ in range(k):
            sizes[rng.randrange(n - k)] += 1
        g = random_relabeling(blow_up(fa, sizes), rng)
        assert not is_r_thin(g)
        if _eligible(g) and certifies_prime(g.adjacency_masks):
            certified += 1
            assert _exhaustively_prime(g), g
    assert certified >= 120


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


def _differential_corpus(rng: random.Random):
    """Small, random, product, one-swap near-product and twin-planted graphs."""
    for n in range(2, 5):
        yield from all_connected_graphs(n)
    for _ in range(300):
        n = rng.randint(5, 14)
        extra_p, loop_p = rng.uniform(0.05, 0.6), rng.uniform(0.0, 0.5)
        yield random_connected_graph(n, rng, extra_p=extra_p, loop_p=loop_p)
    for _ in range(150):
        fa = random_connected_graph(rng.randint(2, 4), rng, loop_p=rng.uniform(0.1, 0.6))
        fb = random_connected_graph(rng.randint(2, 4), rng, loop_p=rng.uniform(0.1, 0.6))
        g = random_relabeling(direct_product(fa, fb), rng)
        yield g
        yield random_relabeling(double_edge_swap(g, rng), rng)
    for _ in range(150):
        n, extra_p = rng.randint(3, 8), rng.uniform(0.1, 0.6)
        fa = random_connected_graph(n, rng, extra_p=extra_p, loop_p=0.3)
        sizes = [rng.choice([1, 1, 2, 3]) for _ in range(fa.node_count)]
        yield random_relabeling(blow_up(fa, sizes), rng)


def test_the_certificate_agrees_with_the_union_find_reference():
    eligible = certified = 0
    for g in _differential_corpus(random.Random(18)):
        if _eligible(g):
            eligible += 1
            verdict = certifies_prime(g.adjacency_masks)
            assert verdict == reference_certifies_prime(g.adjacency_masks), g
            certified += verdict
    assert eligible >= 1000 and certified >= 500 and eligible - certified >= 100


def test_the_skeleton_of_the_twin_quotient_is_connected():
    # the certificate runs no connectivity pass: S(G) is connected for
    # connected nonbipartite G (Hammack & Imrich 2009), and so for G/R
    eligible = 0
    for g in _differential_corpus(random.Random(18)):
        if _eligible(g):
            eligible += 1
            n = g.node_count
            nbhd = [frozenset(w for w in range(n) if g.has_edge(v, w)) for v in range(n)]
            reps = [v for v in range(n) if nbhd.index(nbhd[v]) == v]  # one node per R-class
            k = len(reps)
            edges = ((i, j) for i in range(k) for j in range(i, k) if reps[j] in nbhd[reps[i]])
            quotient = Graph(k, frozenset(edges))
            assert is_connected(quotient) and not is_bipartite(quotient), g
            assert is_connected(_skeleton(quotient)), g
    assert eligible >= 1000


def _refuse_to_search(*_args, **_kwargs):
    raise AssertionError("the exhaustive search ran")


def test_a_25_node_near_composite_is_certified_without_search(monkeypatch):
    # an R-thin 5x5 one-swap near-composite; the exhaustive search on this
    # shape has run for minutes without a verdict
    rng = random.Random(55)
    while True:
        g = direct_product(random_connected_graph(5, rng), random_connected_graph(5, rng))
        g = random_relabeling(double_edge_swap(g, rng), rng)
        if _eligible(g) and is_r_thin(g):
            break
    monkeypatch.setattr(factorization._FactorSearch, "run", _refuse_to_search)
    assert find_factorization(g, node_limit=None) is None


def test_a_24_node_near_composite_with_twins_is_certified_without_search(monkeypatch):
    # a 4x6 one-swap near-composite with twins; before the quotient step the
    # exhaustive search on such primes took up to seconds
    rng = random.Random(321)
    while True:
        g = direct_product(random_connected_graph(4, rng), random_connected_graph(6, rng))
        g = random_relabeling(double_edge_swap(g, rng), rng)
        if _eligible(g) and not is_r_thin(g):
            break
    monkeypatch.setattr(factorization, "factor_search", _refuse_to_search)
    assert find_factorization(g, node_limit=None) is None


def test_the_certificate_runs_on_connected_nonbipartite_graphs(monkeypatch):
    calls = []  # (masks, verdict) per certificate call
    certify = factorization.certifies_prime

    def record(masks):
        calls.append((masks, certify(masks)))
        return calls[-1][1]

    monkeypatch.setattr(factorization, "certifies_prime", record)
    c5 = {(v, (v + 1) % 5) for v in range(5)}
    path = Graph(6, frozenset((v, v + 1) for v in range(5)))  # bipartite
    disconnected = Graph(6, frozenset({(0, 0), (0, 1), (1, 2), (3, 3), (3, 4), (4, 5)}))
    for g in (path, disconnected):
        find_factorization(g)
    assert calls == []
    twins = Graph(6, frozenset(c5 | {(1, 5), (4, 5)}))  # nodes 0 and 5 are twins
    assert find_factorization(twins) is None
    assert calls == [(twins.adjacency_masks, True)]  # certified from its quotient C5
    find_factorization(Graph(6, frozenset(c5 | {(0, 5)})))  # C5 with a pendant node
    assert len(calls) == 2
    # R-classes of size 2 and a quotient C5 that is certified prime: the
    # divisor test keeps this composite from being certified
    doubled = direct_product(C5, _looped_clique(2))
    w = find_factorization(doubled)
    assert calls[2:] == [(doubled.adjacency_masks, False)]
    assert w is not None and witness_is_valid(doubled, w)


def test_per_graph_data_is_derived_once_per_call(monkeypatch):
    built, walked, searched = [], [], []
    masks = Graph.adjacency_masks.func
    counted = cached_property(lambda g: built.append(g) or masks(g))
    counted.__set_name__(Graph, "adjacency_masks")
    monkeypatch.setattr(Graph, "adjacency_masks", counted)
    walk = core.breadth_first
    monkeypatch.setattr(core, "breadth_first", lambda masks: walked.append(masks) or walk(masks))
    search = factorization.factor_search
    monkeypatch.setattr(
        factorization,
        "factor_search",
        lambda g, a, b, **kw: searched.append((a, b)) or search(g, a, b, **kw),
    )
    # a bipartite prime of 12 nodes (a one-swap near-composite of K2 x H),
    # so the certificate stays out, and the swap keeps K2 x H's row sums, so
    # both splits (2 x 6 and 3 x 4) build engines that place vertices
    rng = random.Random(2)
    g = direct_product(K2, random_connected_graph(6, rng))
    g = random_relabeling(double_edge_swap(g, rng), rng)
    assert is_connected(g) and is_bipartite(g)
    assert find_factorization(g) is None
    assert searched == [(2, 6), (3, 4)]
    assert built == [g] and walked == [g.adjacency_masks]
