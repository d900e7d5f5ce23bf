"""Factor search vs full enumeration, doubling factorizations, elimination."""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest

from graphprod import (
    D2,
    FactorizationWitness,
    Graph,
    PreconditionError,
    SizeLimitError,
    are_isomorphic,
    direct_product,
    disjoint_union,
    div2div3_offset,
    elimination_oracle,
    factor_search,
    factorization_from_isomorphism,
    find_factorization,
    graph_isomorphism_via_compositeness,
    is_bipartite,
    is_connected,
    is_isomorphism,
    is_prime_direct,
    isomorphism_from_union_factorization,
    pad_to_class_g,
    prime_in_bertrand_range,
    relabel,
    search_oracle,
    two_block_survivors,
    union_compositeness_by_elimination,
    witness_is_valid,
    witness_to_json,
)
from graphprod.core import bits
from graphprod.factorization import (
    I2_MATRIX,
    _FactorSearch,
    _check_fixed_a,
    _left_factor,
    _left_factor_feasible,
    _left_factors,
    _permuters,
    _row_sums_factor,
)
from graphprod.isomorphism import IsomorphismWitness
from graphprod.skeleton import certifies_prime
from graphprod.catalog import (
    C3,
    C4,
    C5,
    C5_LOOP,
    FIG3_G1,
    FIG3_G2,
    K1_3,
    K1_4,
    K2,
    L1,
    NAMED,
    P3,
    P3_END_LOOP,
    P3_MID_LOOP,
    P4,
    add_loops,
    cycle_graph,
    star_graph,
)

from helpers import (
    all_connected_graphs,
    all_graphs,
    components_as_graphs,
    double_edge_swap,
    naive_factor_exists,
    random_class_g_graph,
    random_connected_graph,
    random_graph,
    random_relabeling,
    reference_witness_is_valid,
)

C5_LOOP_PERM = NAMED["c5_loop_perm"]


def test_two_k2_factors_as_k2_times_k2():
    union = disjoint_union(K2, K2)
    w = factor_search(union, 2, 2)
    assert w is not None and witness_is_valid(union, w)
    assert w.factor_a.edges == frozenset({(0, 1)})  # K2 itself
    # the doubling factorization exists as well
    w_d2 = factor_search(union, 2, 2, fixed_a=I2_MATRIX)
    assert w_d2 is not None and w_d2.factor_a == D2


def test_prime_order_graph_is_prime():
    assert is_prime_direct(C5_LOOP)
    assert find_factorization(C5_LOOP) is None


def test_trivial_graph_is_not_prime():
    assert not is_prime_direct(add_loops(Graph(1), [0]))
    assert not is_prime_direct(Graph(1))


def test_union_of_isomorphic_copies_is_composite():
    union = disjoint_union(C5_LOOP, C5_LOOP)
    w = factor_search(union, 2, 5)
    assert w is not None and witness_is_valid(union, w)
    assert not is_prime_direct(union)
    # the free search lands on the doubling factorization here
    assert w.factor_a == D2
    assert are_isomorphic(w.factor_b, C5_LOOP) is not None
    w_d2 = factor_search(union, 2, 5, fixed_a=I2_MATRIX)
    assert w_d2 is not None
    assert w_d2.factor_a == D2


def test_union_of_nonisomorphic_class_g_graphs_is_prime():
    # both class G with n=5, m=6, s=1, but different degree sequences
    g1 = C5_LOOP
    g2 = add_loops(Graph(5, frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)})), [3])
    from graphprod import class_g_check

    assert class_g_check(g1).member and class_g_check(g2).member
    assert are_isomorphic(g1, g2) is None
    union = disjoint_union(g1, g2)
    assert is_prime_direct(union)
    assert not union_compositeness_by_elimination(g1, g2)


def test_witness_json_shape():
    union = disjoint_union(C5_LOOP, C5_LOOP)
    w = factor_search(union, 2, 5)
    out = witness_to_json(w)
    assert out["a_order"] == 2 and out["b_order"] == 5
    assert len(out["labeling"]) == 10
    assert all(len(pair) == 2 for pair in out["labeling"])


def test_witness_rejects_labels_outside_the_factor_orders():
    # both labelings send r * b + c onto a permutation of range(6), but their
    # pairs fall outside range(2) x range(3)
    g = direct_product(K2, C3)
    valid = tuple((r, c) for r in range(2) for c in range(3))
    assert witness_is_valid(g, FactorizationWitness(K2, C3, valid))
    for labeling in (
        tuple((0, v) for v in range(6)),
        tuple((1, v - 3) for v in range(6)),
    ):
        assert not witness_is_valid(g, FactorizationWitness(K2, C3, labeling)), labeling


def test_witness_rejects_a_short_labeling_and_a_repeated_cell():
    # and labels that are not pairs of integers: the predicate returns False
    g = direct_product(K2, C3)
    cells = [(r, c) for r in range(2) for c in range(3)]
    for labeling in (
        cells[:5],
        [cells[0]] + cells[:5],
        [(2, 0)] + cells,
        cells + [(0, 3)],
        [(float(r), c) for r, c in cells],
        [(r, str(c)) for r, c in cells],
        [(r, c, 0) for r, c in cells],
    ):
        assert witness_is_valid(g, FactorizationWitness(K2, C3, tuple(labeling))) is False, labeling


def test_witness_rejects_a_one_node_factor_and_orders_that_do_not_multiply_to_g():
    g = direct_product(K2, C3)
    # L1 x g is g itself, so only the order test refuses these labelings
    identity = tuple((0, v) for v in range(6))
    assert witness_is_valid(g, FactorizationWitness(L1, g, identity)) is False
    assert witness_is_valid(g, FactorizationWitness(g, L1, tuple((v, 0) for v in range(6)))) is False
    for fa, fb in ((K2, K2), (K2, C4), (C3, C3)):
        cells = tuple((r, c) for r in range(fa.node_count) for c in range(fb.node_count))
        assert witness_is_valid(g, FactorizationWitness(fa, fb, cells)) is False, (fa, fb)


def test_search_oracle_calls_graphs_of_at_most_one_node_prime():
    for g in (Graph(0), Graph(1), L1):
        assert search_oracle(g) is False, g


def test_argument_and_size_errors():
    union = disjoint_union(K2, K2)
    with pytest.raises(PreconditionError, match=r"^2 \* 3 != 4 nodes$"):
        factor_search(union, 2, 3)
    for a, b in ((4, 1), (1, 4)):
        with pytest.raises(PreconditionError, match=r"^factor orders must satisfy 2 <= a <= b$"):
            factor_search(union, a, b)
    big = Graph(21)
    with pytest.raises(SizeLimitError, match="^graph order 21 exceeds the 20-node bound$"):
        factor_search(big, 3, 7)
    with pytest.raises(SizeLimitError):
        is_prime_direct(big)
    with pytest.raises(ValueError):
        is_prime_direct(Graph(0))


K2_X_C3 = direct_product(K2, C3)
NOT_AN_ORDER = "^factor orders must be integers$"
NOT_A_LIMIT = "^node_limit must be an integer or None$"
K2_X_C3_CELLS = tuple((r, c) for r in range(2) for c in range(3))


@pytest.mark.parametrize(
    "call, refusal",
    [
        (lambda: factor_search(K2_X_C3, 2.0, 3.0), NOT_AN_ORDER),
        (lambda: factor_search(K2_X_C3, "2", 3), NOT_AN_ORDER),
        (lambda: find_factorization(K2_X_C3, node_limit="5"), NOT_A_LIMIT),
        (lambda: find_factorization(K2_X_C3, node_limit=2.5), NOT_A_LIMIT),
        (lambda: are_isomorphic(C3, C3, node_limit="5"), NOT_A_LIMIT),
        (lambda: prime_in_bertrand_range(2.5), "^n must be an integer$"),
        (lambda: div2div3_offset(1.5), "^t must be an integer$"),
        (lambda: div2div3_offset("a"), "^t must be an integer$"),
        (lambda: witness_is_valid(K2_X_C3, FactorizationWitness(K2, C3, None)), None),
        (lambda: witness_is_valid(K2_X_C3, FactorizationWitness(None, C3, K2_X_C3_CELLS)), None),
        (lambda: witness_is_valid(K2_X_C3, FactorizationWitness(K2, (0, 1, 2), K2_X_C3_CELLS)),
         None),
        (lambda: witness_is_valid(K2_X_C3, None), None),
        (lambda: witness_is_valid(K2_X_C3, (K2, C3, K2_X_C3_CELLS)), None),
    ],
    ids=["float-orders", "str-order", "str-limit", "float-limit", "iso-str-limit",
         "float-bertrand", "float-offset", "str-offset", "none-labeling", "none-factor-a",
         "tuple-factor-b", "none-witness", "bare-tuple-witness"],
)
def test_non_integer_orders_bounds_and_labelings_are_refused(call, refusal):
    if refusal is None:  # a predicate answers False instead of raising
        assert call() is False
    else:
        with pytest.raises(PreconditionError, match=refusal):
            call()


def test_search_is_deterministic():
    union = disjoint_union(C5_LOOP, C5_LOOP)
    assert factor_search(union, 2, 5) == factor_search(union, 2, 5)


def _golden_searches():
    """A fixed seeded mix of searches, yielded as zero-argument callables.

    Padded criterion-7 unions (YES and NO pairs), 12/16-node products and
    one-swap near-composites, random 4-12-node graphs over every divisor
    pair, planted products with loops, and doubling-factor searches pinned
    to I2.
    """
    rng = random.Random(20200303)
    for _ in range(400):
        n = rng.randint(2, 5)
        g1 = random_connected_graph(n, rng)
        if rng.random() < 0.5:
            g2 = random_relabeling(g1, rng)
        else:
            for _ in range(50):
                g2 = random_connected_graph(n, rng)
                if g2.edge_count == g1.edge_count:
                    break
        union = disjoint_union(pad_to_class_g(g1).padded, pad_to_class_g(g2).padded)
        yield lambda u=union: find_factorization(u, node_limit=None)
    for a, b in [(2, 6), (3, 4), (2, 8)] * 8:
        fa = random_connected_graph(a, rng, loop_p=0.5)
        fb = random_connected_graph(b, rng)
        g = random_relabeling(direct_product(fa, fb), rng)
        yield lambda g=g: find_factorization(g)
        yield lambda g=double_edge_swap(g, rng): find_factorization(g)
    for _ in range(120):
        n = rng.choice([4, 6, 8, 9, 10, 12])
        g = random_graph(n, rng, edge_p=rng.uniform(0.15, 0.6), loop_p=0.3)
        for a in range(2, int(n**0.5) + 1):
            if n % a == 0:
                yield lambda g=g, a=a: factor_search(g, a, g.node_count // a)
    for _ in range(120):
        fa = random_graph(rng.choice([2, 3]), rng, edge_p=0.6, loop_p=0.5)
        fb = random_graph(rng.randint(2, 4), rng, edge_p=0.5, loop_p=0.3)
        g = random_relabeling(direct_product(fa, fb), rng)
        yield lambda g=g: find_factorization(g)
    for _ in range(150):
        n = rng.randint(3, 7)
        g1 = random_connected_graph(n, rng)
        g2 = random_relabeling(g1, rng) if rng.random() < 0.5 else random_connected_graph(n, rng)
        union = disjoint_union(g1, g2)
        yield lambda u=union, n=n: factor_search(u, 2, n, fixed_a=I2_MATRIX)


# sha256 of the witnesses of _golden_searches, as computed by the original
# list-matrix engine; any change to search order or pruning that alters a
# returned witness changes it
GOLDEN_DIGEST = "790fa9758bbee6b6d8c2e36a597f0eaac34fee0b2c6724c4280b83675b041589"
GOLDEN_COUNTS = (540, 856)  # (searches returning a witness, searches)
GOLDEN_PLACEMENTS = 12736  # placements made over all of _golden_searches


def test_golden_witnesses_are_unchanged():
    h = hashlib.sha256()
    found = total = 0
    for search in _golden_searches():
        w = search()
        total += 1
        if w is None:
            h.update(b"None\n")
            continue
        found += 1
        key = (sorted(w.factor_a.edges), sorted(w.factor_b.edges), w.labeling)
        h.update(repr(key).encode() + b"\n")
    assert (found, total) == GOLDEN_COUNTS
    assert h.hexdigest() == GOLDEN_DIGEST


def _labeling_mutations(labeling):
    """Nine corruptions of a witness labeling, each a list of (row, column) pairs."""
    cells = list(labeling)
    yield cells[:-1]  # short
    yield cells[:-1] + cells[:1]  # repeated cell
    yield cells + cells[:1]  # extra pair
    yield [(r + 1, c) for r, c in cells]
    yield [(r, c + 99) for r, c in cells]
    yield [(-1, 0)] + cells[1:]
    yield [(float(r), float(c)) for r, c in cells]
    yield cells[1:] + cells[:1]  # rotated
    yield [(c, r) for r, c in cells]


def _toggled(f: Graph, u: int, v: int) -> Graph:
    return Graph(f.node_count, f.edges ^ {(min(u, v), max(u, v))})


def _factor_mutations(w):
    """Five corruptions of a witness that keep its labeling a permutation of the cells."""
    a, b = w.factor_a.node_count, w.factor_b.node_count
    yield FactorizationWitness(w.factor_a, _toggled(w.factor_b, 0, b - 1), w.labeling)
    yield FactorizationWitness(_toggled(w.factor_a, 0, 0), w.factor_b, w.labeling)
    yield FactorizationWitness(_toggled(w.factor_a, 0, a - 1), w.factor_b, w.labeling)
    loopless = frozenset((u, v) for u, v in w.factor_b.edges if u != v)
    yield FactorizationWitness(w.factor_a, Graph(b, loopless), w.labeling)
    shifted = tuple((r, (c + 1) % b) for r, c in w.labeling)
    yield FactorizationWitness(w.factor_a, w.factor_b, shifted)


def test_witness_check_agrees_with_the_reference_on_mutated_golden_witnesses():
    checked = accepted = 0
    for search in _golden_searches():
        w = search()
        if w is None:
            continue
        g = search.__defaults__[0]  # every golden search takes its input graph first
        assert witness_is_valid(g, w) and reference_witness_is_valid(g, w)
        mutants = [
            FactorizationWitness(w.factor_a, w.factor_b, tuple(labeling))
            for labeling in _labeling_mutations(w.labeling)
        ]
        for mutated in mutants + list(_factor_mutations(w)):
            got = witness_is_valid(g, mutated)
            assert got is reference_witness_is_valid(g, mutated), mutated
            checked += 1
            accepted += got
    assert checked == (9 + 5) * GOLDEN_COUNTS[0]
    assert 0 < accepted < checked  # some rotations, swaps and shifts still factor g


def test_golden_searches_make_the_same_placements(monkeypatch):
    # the number of placements pins the search tree, not only its first leaf
    placements = _FactorSearch._placements
    count = 0

    def counted(self, idx):
        nonlocal count
        for step in placements(self, idx):
            count += 1
            yield step

    monkeypatch.setattr(_FactorSearch, "_placements", counted)
    for search in _golden_searches():
        search()
    assert count == GOLDEN_PLACEMENTS


# -- left factors up to isomorphism --------------------------------------------


def _symmetric_matrices(a):
    """Every symmetric 0/1 a-by-a matrix, in ascending bitmask order.

    Bit k of the bitmask is the k-th upper-triangle cell, row by row.
    """
    upper = [(i, j) for i in range(a) for j in range(i, a)]
    out = []
    for mask in range(1 << len(upper)):
        mat = [[0] * a for _ in range(a)]
        for bit, (i, j) in enumerate(upper):
            if mask >> bit & 1:
                mat[i][j] = mat[j][i] = 1
        out.append(tuple(map(tuple, mat)))
    return out


def _class_masks(mat):
    """Bitmasks of every P M P^T, one per a-by-a permutation matrix P (numpy)."""
    a = len(mat)
    perms = np.array([np.eye(a, dtype=np.int64)[list(p)] for p in permutations(range(a))])
    images = perms @ np.array(mat, dtype=np.int64) @ perms.transpose(0, 2, 1)
    rows, cols = np.triu_indices(a)
    return images[:, rows, cols] @ (1 << np.arange(len(rows), dtype=np.int64)), perms


@pytest.mark.parametrize("a, classes", [(2, 6), (3, 20), (4, 90)])
def test_one_left_factor_per_isomorphism_class(a, classes):
    # brute force: the class of M is every P M P^T over all a! permutation
    # matrices P, its canonical form the smallest bitmask among them, and its
    # automorphisms the P with P M P^T == M
    first = {}  # canonical form -> first matrix of that class, in bitmask order
    for mask, mat in enumerate(_symmetric_matrices(a)):
        masks, perms = _class_masks(mat)
        first.setdefault(int(masks.min()), mat)
        record, orbit = _left_factor(_matrix_graph(mat), _permuters(a))
        assert record.graph == _matrix_graph(mat), mat
        assert {int("".join(map(str, key)), 2) for key in orbit} == set(masks.tolist()), mat
        orbit_min = [
            min(int(np.argmax(p[:, r])) for p, m in zip(perms, masks) if m == mask)
            for r in range(a)
        ]
        assert record.first_rows == tuple(sorted(set(orbit_min))), mat
    records = _left_factors(a)
    assert len(records) == classes
    assert [record.graph for record in records] == list(map(_matrix_graph, first.values()))
    rebuilt = [_left_factor(_matrix_graph(mat), _permuters(a))[0] for mat in first.values()]
    assert list(records) == rebuilt


def test_left_factors_of_order_5_are_the_544_class_minima():
    # OEIS A000666: 544 graphs with loops allowed on 5 nodes
    records = _left_factors(5)
    assert len(records) == 544
    mats = _symmetric_matrices(5)
    index = {_matrix_graph(mat): mask for mask, mat in enumerate(mats)}
    masks = [index[record.graph] for record in records]
    assert masks == sorted(set(masks))
    for record, mask in zip(records, masks):
        assert int(_class_masks(mats[mask])[0].min()) == mask, record.graph


@pytest.mark.parametrize("a", [2, 3, 4])
def test_per_matrix_counts_match_the_graph_of_each_matrix(a):
    for mat in _symmetric_matrices(a):
        edges = frozenset((i, j) for i in range(a) for j in range(i, a) if mat[i][j])
        g = Graph(a, edges)
        left = _left_factor(g, _permuters(a))[0]
        assert left.graph is g
        assert (left.loops, left.bipartite) == (g.loop_count, is_bipartite(g)), mat
        assert left.looped == tuple(mat[r][r] for r in range(a)), mat
        assert left.rowsums == tuple(map(sum, mat)), mat
        masks = g.adjacency_masks
        assert left.linked == tuple(tuple(bits(m)) for m in masks), mat
        full = (1 << a) - 1
        assert left.unlinked == tuple(tuple(bits(full & ~m)) for m in masks), mat


# -- the row-sum product test, against brute force and against the engine ------


def _matrix_graph(mat):
    a = len(mat)
    return Graph(a, frozenset((i, j) for i in range(a) for j in range(i, a) if mat[i][j]))


def _sorted_rowsums(g):
    return sorted(m.bit_count() for m in g.adjacency_masks)


def test_row_sums_factor_matches_brute_force_over_every_multiset():
    rng = random.Random(1313)
    accepted = rejected = 0
    for a in (1, 2, 3):
        for a_rowsums in product(range(a + 1), repeat=a):
            for b in (1, 2, 3, 4):
                reachable = {
                    tuple(sorted(ar * s for ar in a_rowsums for s in multiset))
                    for multiset in combinations_with_replacement(range(b + 1), b)
                }
                n = a * b
                for _ in range(12):
                    planted = sorted(ar * rng.randint(0, b) for ar in a_rowsums for _ in range(b))
                    bumped = list(planted)
                    i = rng.randrange(n)
                    bumped[i] += rng.choice((-1, 1)) if bumped[i] else 1
                    noise = [rng.randint(0, a * b) for _ in range(n)]
                    for sums in (planted, sorted(bumped), sorted(noise)):
                        want = tuple(sums) in reachable
                        assert _row_sums_factor(sums, a_rowsums, b) == want, (sums, a_rowsums, b)
                        accepted += want
                        rejected += not want
    assert accepted >= 1000 and rejected >= 1000


def test_every_planted_product_passes_the_left_factor_filters():
    # B with loops, B with an isolated vertex and B with no edges at all
    rng = random.Random(1414)
    for a in (2, 3, 4):
        for left in _left_factors(a):
            fa = left.graph
            for b in (2, 3, 4):
                part = random_graph(b - 1, rng, edge_p=0.6, loop_p=0.5)
                for fb in (random_graph(b, rng, loop_p=0.5), Graph(b, part.edges), Graph(b)):
                    g = random_relabeling(direct_product(fa, fb), rng)
                    sums = _sorted_rowsums(g)
                    assert _row_sums_factor(sums, left.rowsums, b), (fa, fb)
                    assert _left_factor_feasible(left, g, is_bipartite(g), sums), (fa, fb)


def _criterion_7_unions(rng, count):
    """Unions of padded equal-count pairs of connected 3- and 4-node graphs."""
    graphs = [g for n in (3, 4) for g in all_connected_graphs(n)]
    while count:
        g1, g2 = rng.choice(graphs), rng.choice(graphs)
        if g1.node_count == g2.node_count and g1.edge_count == g2.edge_count:
            count -= 1
            yield disjoint_union(pad_to_class_g(g1).padded, pad_to_class_g(g2).padded)


def test_every_left_factor_the_row_sums_reject_has_no_witness():
    rng = random.Random(1515)
    graphs = list(_criterion_7_unions(rng, 40))
    for n in (4, 6, 8, 9, 10, 12):
        graphs += [random_graph(n, rng, edge_p=rng.uniform(0.2, 0.7)) for _ in range(15)]
        for a in range(2, int(n**0.5) + 1):
            if n % a == 0:
                for _ in range(5):
                    fa = random_graph(a, rng, edge_p=0.6, loop_p=0.5)
                    fb = random_graph(n // a, rng, edge_p=0.5, loop_p=0.3)
                    g = random_relabeling(direct_product(fa, fb), rng)
                    # a hopeless search on a 12-node near-composite can take seconds
                    graphs.append(double_edge_swap(g, rng) if n <= 10 else g)
    rejected = 0
    for g in graphs:
        n = g.node_count
        sums = _sorted_rowsums(g)
        for a in range(2, int(n**0.5) + 1):
            if n % a:
                continue
            for left in _left_factors(a):
                if not _row_sums_factor(sums, left.rowsums, n // a):
                    rejected += 1
                    assert _FactorSearch(g, n // a, left).run() is None, (g, left.graph)
    assert rejected >= 1000


def test_the_row_sum_prune_pins_the_engines_built(monkeypatch):
    # a lost prune builds more engines: without the row-sum test these two
    # input sets build 308 and 386
    built = []
    init = _FactorSearch.__init__
    monkeypatch.setattr(
        _FactorSearch, "__init__", lambda self, *args: built.append(args) or init(self, *args)
    )
    three = list(all_connected_graphs(3))
    for g1 in three:
        for g2 in three:
            if g1.edge_count == g2.edge_count:
                graph_isomorphism_via_compositeness(g1, g2, search_oracle)
    assert len(built) == 176
    built.clear()
    four = list(all_connected_graphs(4))
    rng = random.Random(4)
    pairs = 0
    while pairs < 300:
        g1, g2 = rng.choice(four), rng.choice(four)
        if g1.edge_count == g2.edge_count:
            pairs += 1
            graph_isomorphism_via_compositeness(g1, g2, search_oracle)
    assert len(built) == 102
    # equal counts, unequal degree multisets: no left factor gets an engine
    built.clear()
    union = disjoint_union(pad_to_class_g(P4).padded, pad_to_class_g(K1_3).padded)
    assert search_oracle(union) is False
    assert built == []


# -- fixed_a validation: the table pins the results of numpy.asarray parsing ----

_K2_MATRIX = ((0, 1), (1, 0))
_LOOPED_EDGE = ((1, 1), (1, 0))


@pytest.mark.parametrize(
    "fixed_a, cells",
    [
        ([[1, 0], [0, 1]], I2_MATRIX),
        (((0, 1), (1, 0)), _K2_MATRIX),
        ([(1, 1), [1, 0]], _LOOPED_EDGE),
        (np.eye(2, dtype=int), I2_MATRIX),
        (np.array([[0, 1], [1, 0]], dtype=np.uint8), _K2_MATRIX),
        (np.array([[1.0, 1.0], [1.0, 0.0]]), _LOOPED_EDGE),
        (np.eye(2, dtype=bool), I2_MATRIX),
        ([[True, False], [False, True]], I2_MATRIX),
        ([[False, True], [1, 0.0]], _K2_MATRIX),
        ([[1.0, 0], [0, 1.0]], I2_MATRIX),
        ([[np.int64(1), np.True_], [np.float32(1.0), 0]], _LOOPED_EDGE),
        ((np.array([0, 1]), np.array([1, 0])), _K2_MATRIX),
    ],
)
def test_fixed_a_accepted(fixed_a, cells):
    left = Graph(2, frozenset((i, j) for i in range(2) for j in range(i, 2) if cells[i][j]))
    assert _check_fixed_a(fixed_a, 2) == left
    witness = factor_search(direct_product(left, C3), 2, 3, fixed_a=fixed_a)
    assert witness is not None and witness.factor_a == left


@pytest.mark.parametrize(
    "fixed_a",
    [
        [[1, 0], [0]],  # ragged
        [[1, 0], [0, 1, 0]],  # ragged
        [[2, 0], [0, 1]],
        [[1, 0], [0, 2]],
        [[0, 1], [0, 0]],  # asymmetric
        np.array([[1, 1], [0, 1]]),
        [["1", "0"], ["0", "1"]],
        ["10", "01"],
        "10",
        [[0.5, 0], [0, 1]],
        [[1, 0], [0, float("nan")]],
        [[-1, 0], [0, 1]],
        [[1, None], [None, 1]],
        np.eye(3, dtype=int),  # wrong shape
        [[1, 0, 0], [0, 1, 0]],
        [1, 0],
        [],
        1,
        np.int64(1),
        np.ones((2, 2, 1), dtype=int),
        [[[1], [0]], [[0], [1]]],
        {(1, 0), (0, 1)},
        {0: [1, 0], 1: [0, 1]},
        [b"\x01\x00", b"\x00\x01"],
    ],
)
def test_fixed_a_rejected(fixed_a):
    with pytest.raises(PreconditionError, match="^fixed_a must be a "):
        factor_search(direct_product(K2, C3), 2, 3, fixed_a=fixed_a)


def _numpy_reading(fixed_a, a):
    """The graph numpy reads ``fixed_a`` as, or None where it is no symmetric a x a 0/1 matrix."""
    try:  # ragged, or an array cell of several items, which has no truth value
        mat = np.asarray(fixed_a)
        if mat.shape != (a, a) or not np.array_equal(mat, mat.T):
            return None
        if not np.isin(mat, (0, 1)).all():
            return None
    except ValueError:
        return None
    return Graph(a, ((i, j) for i in range(a) for j in range(i, a) if mat[i, j]))


_ODD_CELLS = (
    2, -1, 0.5, float("nan"), None, "1", "0", b"\x01", [1], [0], (1,), {1}, {0: 1},
    np.array([1]), np.array([[0]]), np.array([1, 0]), np.float64("nan"),
)
_OFF_SHAPE = (1, 0, np.int64(1), "10", b"\x01\x00", None, float("nan"), {(1, 0)}, {0: [1, 0]})


def _zero_one(rng, x):
    """0 or 1 as one of the number types numpy and Python spell it with."""
    return rng.choice((int, float, bool, np.int64, np.uint8, np.float32, np.bool_, np.array))(x)


def _random_fixed_a(rng, a):
    """A candidate for fixed_a: a random symmetric 0/1 matrix, mostly, in many spellings."""
    if rng.random() < 0.04:
        return rng.choice(_OFF_SHAPE)
    mat = [[0] * a for _ in range(a)]
    for i in range(a):
        for j in range(i, a):
            mat[i][j] = mat[j][i] = rng.getrandbits(1)
    if rng.random() < 0.2:
        mat[rng.randrange(a)][rng.randrange(a)] ^= 1  # mostly asymmetric
    rows = [[_zero_one(rng, x) for x in row] for row in mat]
    if rng.random() < 0.25:  # one odd cell, or one odd cell at each mirror position
        i, j, odd = rng.randrange(a), rng.randrange(a), rng.choice(_ODD_CELLS)
        rows[i][j] = odd
        if rng.random() < 0.5:
            rows[j][i] = odd
    if rng.random() < 0.1:  # ragged: one row one cell short or long
        row = rows[rng.randrange(a)]
        if rng.random() < 0.5:
            row.pop()
        else:
            row.append(0)
    if rng.random() < 0.05:  # a row too many or too few
        if rng.random() < 0.5:
            rows.pop()
        else:
            rows.append(list(rows[0]))
    if rng.random() < 0.05:  # a third axis
        rows = [[[x] for x in row] for row in rows]
    spell = rng.choice(("list", "tuple", "rows as arrays", "array", "object array"))
    if spell in ("list", "tuple"):
        kind = list if spell == "list" else tuple
        return kind(map(kind, rows))
    if spell == "rows as arrays":
        try:
            return [np.array(row) for row in rows]
        except ValueError:  # a ragged cell
            return rows
    try:
        if spell == "array":
            return np.array(rows, dtype=rng.choice((None, int, float, bool)))
        return np.array(rows, dtype=object)
    except (TypeError, ValueError):  # a cell the dtype cannot hold, or ragged
        return tuple(map(tuple, rows))


def test_fixed_a_reads_as_numpy_does():
    # the reader is numpy-free; numpy's own reading is the reference
    rng = random.Random(2727)
    accepted = 0
    for a in (2, 3):
        for _ in range(10000):
            fixed_a = _random_fixed_a(rng, a)
            want = _numpy_reading(fixed_a, a)
            try:
                got = _check_fixed_a(fixed_a, a)
            except PreconditionError:
                got = None
            assert got == want, (fixed_a, a)
            accepted += want is not None
    assert 2000 <= accepted <= 18000, accepted


def test_each_witness_carries_its_left_factor_record(monkeypatch):
    # factor_a is the record's own graph, not a copy, and a finished engine
    # builds one graph: B
    rng = random.Random(2828)
    cases = []
    for a, b in ((2, 3), (2, 4), (3, 3)):
        for _ in range(4):
            fa = random_graph(a, rng, edge_p=0.6, loop_p=0.5)
            g = random_relabeling(direct_product(fa, random_graph(b, rng, edge_p=0.6)), rng)
            witness = factor_search(g, a, b)
            assert witness is not None, g
            (record,) = [r for r in _left_factors(a) if r.graph == witness.factor_a]
            assert witness.factor_a is record.graph
            cases.append((g, b, record, witness))
    built = []
    init = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda self: built.append(self) or init(self))
    for g, b, record, witness in cases:
        built.clear()
        assert _FactorSearch(g, b, record).run() == witness
        assert [h.node_count for h in built] == [b], g


def _differential_cases():
    rng = random.Random(5150)
    for n in (6, 8, 9, 12):
        for _ in range(20):
            yield random_graph(n, rng, edge_p=rng.uniform(0.2, 0.6), loop_p=0.3)
        for a in range(2, int(n**0.5) + 1):
            if n % a == 0:
                for _ in range(10):
                    fa = random_graph(a, rng, edge_p=0.6, loop_p=0.5)
                    fb = random_graph(n // a, rng, edge_p=0.5, loop_p=0.3)
                    yield random_relabeling(direct_product(fa, fb), rng)


def test_search_matches_every_exact_left_factor_in_order():
    # the free search must return the first witness of a plain search over
    # every left factor in ascending order, and fixed_a must match a plain
    # search of its matrix: neither skipping isomorphic copies nor trying
    # only the smallest row of each orbit first may change a witness
    for g in _differential_cases():
        n = g.node_count
        for a in range(2, int(n**0.5) + 1):
            if n % a:
                continue
            b = n // a
            expect = None
            for mat in _symmetric_matrices(a):
                plain = _left_factor(_matrix_graph(mat), _permuters(a))[0]
                plain = plain._replace(first_rows=tuple(range(a)))
                expect = _FactorSearch(g, b, plain).run()
                assert factor_search(g, a, b, fixed_a=mat) == expect, (g, mat)
                if expect is not None:
                    break
            assert factor_search(g, a, b) == expect, (g, a)
            if n <= 9:
                assert (expect is not None) == naive_factor_exists(g, a, b), (g, a)


def _first_split_witness(g):
    n = g.node_count
    for a in range(2, int(n**0.5) + 1):
        if n % a == 0:
            found = factor_search(g, a, n // a)
            if found is not None:
                return found
    return None


def test_find_factorization_returns_the_first_witness_over_the_splits():
    # find_factorization searches each split through factor_search, in
    # increasing left order, unless the certificate proves a connected
    # nonbipartite g prime first
    for g in NAMED.values():
        assert find_factorization(g) == _first_split_witness(g), g
    rng = random.Random(41)
    outcomes = set()
    for n in (4, 6, 8, 9, 10, 12):
        graphs = [random_graph(n, rng, edge_p=rng.uniform(0.2, 0.6), loop_p=0.3)
                  for _ in range(20)]
        for a in range(2, int(n**0.5) + 1):
            if n % a == 0:
                for _ in range(4):
                    fa = random_graph(a, rng, edge_p=0.6, loop_p=0.5)
                    fb = random_graph(n // a, rng, edge_p=0.5, loop_p=0.3)
                    g = random_relabeling(direct_product(fa, fb), rng)
                    graphs += [g, double_edge_swap(g, rng)]
        for g in graphs:
            if not (
                is_connected(g) and not is_bipartite(g) and certifies_prime(g.adjacency_masks)
            ):
                first = _first_split_witness(g)
                assert find_factorization(g) == first, g
                outcomes.add(first is None)
    assert len(outcomes) == 2


def test_completeness_exhaustive_order_4():
    # the only composite order <= 5: every labeled 4-node graph, loops included
    for g in all_graphs(4):
        found = factor_search(g, 2, 2) is not None
        assert found == naive_factor_exists(g, 2, 2), g


def test_completeness_sampled_order_6():
    rng = random.Random(31)
    cases = []
    for _ in range(600):
        cases.append(random_graph(6, rng, edge_p=rng.uniform(0.15, 0.7), loop_p=0.3))
    for _ in range(400):
        # planted products so the witness path gets exercised
        fa = random_graph(2, rng, edge_p=0.6, loop_p=0.5)
        fb = random_graph(3, rng, edge_p=0.6, loop_p=0.5)
        cases.append(random_relabeling(direct_product(fa, fb), rng))
    for g in cases:
        found = factor_search(g, 2, 3) is not None
        assert found == naive_factor_exists(g, 2, 3)


def test_completeness_sampled_order_9_with_three_row_factor():
    rng = random.Random(39)
    cases = [random_graph(9, rng, edge_p=0.3, loop_p=0.2) for _ in range(6)]
    for _ in range(10):
        fa = random_graph(3, rng, edge_p=0.6, loop_p=0.4)
        fb = random_graph(3, rng, edge_p=0.6, loop_p=0.4)
        cases.append(random_relabeling(direct_product(fa, fb), rng))
    for g in cases:
        found = factor_search(g, 3, 3) is not None
        assert found == naive_factor_exists(g, 3, 3)


def test_completeness_sampled_order_8():
    rng = random.Random(37)
    cases = [random_graph(8, rng, edge_p=0.3, loop_p=0.25) for _ in range(12)]
    for _ in range(12):
        fa = random_graph(2, rng, edge_p=0.6, loop_p=0.5)
        fb = random_graph(4, rng, edge_p=0.5, loop_p=0.4)
        cases.append(random_relabeling(direct_product(fa, fb), rng))
    for g in cases:
        found = factor_search(g, 2, 4) is not None
        assert found == naive_factor_exists(g, 2, 4)


def test_returned_witnesses_always_revalidate():
    rng = random.Random(41)
    checked = 0
    for _ in range(200):
        fa = random_graph(2, rng, edge_p=0.7, loop_p=0.5)
        fb = random_graph(rng.randint(2, 5), rng, edge_p=0.5, loop_p=0.3)
        g = random_relabeling(direct_product(fa, fb), rng)
        w = find_factorization(g)
        if w is not None:
            assert witness_is_valid(g, w)
            checked += 1
    assert checked > 150


# -- doubling factorization from an isomorphism (forward direction) ----------


def test_forward_identity_triangle():
    w = factorization_from_isomorphism(C3, C3, IsomorphismWitness((0, 1, 2)))
    assert w.factor_a == D2 and w.factor_b == C3
    assert witness_is_valid(disjoint_union(C3, C3), w)


def test_forward_relabeled_loop_cycle():
    iso = are_isomorphic(C5_LOOP, C5_LOOP_PERM)
    w = factorization_from_isomorphism(C5_LOOP, C5_LOOP_PERM, iso)
    union = disjoint_union(C5_LOOP, C5_LOOP_PERM)
    assert witness_is_valid(union, w)
    assert direct_product(w.factor_a, w.factor_b).edge_count == union.edge_count


def test_forward_path_reversal():
    reversal = IsomorphismWitness((2, 1, 0))
    w = factorization_from_isomorphism(P3, P3, reversal)
    assert witness_is_valid(disjoint_union(P3, P3), w)


def test_forward_rejects_bad_inputs():
    not_an_isomorphism = "^witness is not an isomorphism from g1 to g2$"
    with pytest.raises(PreconditionError, match=not_an_isomorphism):
        factorization_from_isomorphism(C3, C3, IsomorphismWitness((0, 1)))
    with pytest.raises(PreconditionError, match=not_an_isomorphism):
        factorization_from_isomorphism(P3_END_LOOP, P3_MID_LOOP, IsomorphismWitness((0, 1, 2)))
    for no_mapping in (None, (0, 1, 2)):  # anything without ``.mapping``
        with pytest.raises(PreconditionError, match=not_an_isomorphism):
            factorization_from_isomorphism(C3, C3, no_mapping)
    with pytest.raises(PreconditionError):
        factorization_from_isomorphism(
            disjoint_union(K2, K2),
            disjoint_union(K2, K2),
            IsomorphismWitness((0, 1, 2, 3)),
        )


@pytest.mark.parametrize(
    "call, what",
    [
        (
            lambda g1, g2: factorization_from_isomorphism(
                g1, g2, IsomorphismWitness(tuple(range(g1.node_count)))
            ),
            "doubling factorization",
        ),
        (isomorphism_from_union_factorization, "union factorization"),
    ],
)
def test_union_preconditions_keep_their_messages(call, what):
    with pytest.raises(ValueError, match="^graphs must have equal order$"):
        call(C3, C4)
    with pytest.raises(ValueError, match=f"^{what} needs order at least 2$"):
        call(L1, L1)
    two = disjoint_union(K2, K2)
    with pytest.raises(PreconditionError, match="^both graphs must be connected$"):
        call(two, two)


def test_size_and_emptiness_preconditions_raise_precondition_error():
    for call in (
        lambda: is_connected(Graph(0)),
        lambda: isomorphism_from_union_factorization(C3, C4),
        lambda: factorization_from_isomorphism(L1, L1, IsomorphismWitness((0,))),
    ):
        with pytest.raises(PreconditionError):
            call()


# -- isomorphism from a doubling factorization (reverse direction) ------------


def test_reverse_recovers_triangle_relabeling():
    other = relabel(C3, [2, 0, 1])
    w = isomorphism_from_union_factorization(C3, other)
    assert w is not None and is_isomorphism(C3, other, w.mapping)


def test_reverse_none_for_nonisomorphic_pair():
    assert isomorphism_from_union_factorization(P3_END_LOOP, P3_MID_LOOP) is None


def test_reverse_identical_inputs():
    w = isomorphism_from_union_factorization(K1_4, K1_4)
    assert w is not None and is_isomorphism(K1_4, K1_4, w.mapping)


def test_reverse_rejects_disconnected():
    two = disjoint_union(K2, K2)
    with pytest.raises(PreconditionError):
        isomorphism_from_union_factorization(two, two)


def test_reverse_agrees_with_direct_isomorphism():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(2, 7)
        g1 = random_connected_graph(n, rng)
        if rng.random() < 0.5:
            g2 = random_relabeling(g1, rng)
        else:
            g2 = random_connected_graph(n, rng)
        want = are_isomorphic(g1, g2) is not None
        got = isomorphism_from_union_factorization(g1, g2)
        assert (got is not None) == want
        if got is not None:
            assert is_isomorphism(g1, g2, got.mapping)


# -- the 16-matrix elimination ------------------------------------------------


def test_survivors_reduce_to_identity_for_equal_loop_counts():
    assert two_block_survivors(C5_LOOP, C5_LOOP_PERM) == [((1, 0), (0, 1))]


def test_elimination_detects_isomorphic_pair():
    assert union_compositeness_by_elimination(C5_LOOP, C5_LOOP_PERM)


def test_elimination_rejects_nonmembers_with_report():
    with pytest.raises(PreconditionError) as err:
        union_compositeness_by_elimination(C5_LOOP, C4)
    assert err.value.report is not None
    assert not err.value.report.member
    assert any("P1" in v or "P2" in v for v in err.value.report.violations())


def test_elimination_requires_equal_counts():
    bigger = add_loops(Graph(7, cycle_graph(7).edges | {(0, 2)}), [0])
    from graphprod import class_g_check

    assert class_g_check(bigger).member
    with pytest.raises(PreconditionError, match="^elimination requires equal node and edge counts$"):
        union_compositeness_by_elimination(C5_LOOP, bigger)


def test_elimination_with_unequal_loop_counts():
    # both class G, n=5, m=7, but s=1 vs s=3: the pure counting filters leave
    # extra candidates (t1+t2 = 24 is divisible by 3 and 4), yet the decision
    # still matches exhaustive search
    g1 = add_loops(Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)})), [0])
    g2 = add_loops(star_graph(4), [1, 2, 3])
    from graphprod import class_g_check

    assert class_g_check(g1).member and class_g_check(g2).member
    assert g1.loop_count == 1 and g2.loop_count == 3
    assert len(two_block_survivors(g1, g2)) > 1
    verdict = union_compositeness_by_elimination(g1, g2)
    assert verdict is False
    assert is_prime_direct(disjoint_union(g1, g2)) is True


def test_elimination_agrees_with_search_on_random_class_g_pairs():
    rng = random.Random(47)
    agreements = 0
    pool = [random_class_g_graph(5, rng) for _ in range(30)]
    for g1 in pool[:15]:
        g2 = random_relabeling(g1, rng) if rng.random() < 0.5 else rng.choice(pool)
        if g1.edge_count != g2.edge_count:
            continue
        byelim = union_compositeness_by_elimination(g1, g2)
        bysearch = not is_prime_direct(disjoint_union(g1, g2))
        byiso = are_isomorphic(g1, g2) is not None
        assert byelim == bysearch == byiso
        agreements += 1
    assert agreements >= 8


def test_oracles():
    union = disjoint_union(C5_LOOP, C5_LOOP_PERM)
    assert search_oracle(union)
    assert elimination_oracle(union)
    with pytest.raises(PreconditionError):
        elimination_oracle(C5_LOOP)  # one component only
    with pytest.raises(PreconditionError, match="^elimination oracle needs equal-order components$"):
        elimination_oracle(disjoint_union(C5_LOOP, C3))


# -- the two counterexample constructions -------------------------------------


def test_fig2_star_union_admits_two_distinct_factorizations():
    union = disjoint_union(K1_4, K1_4)
    via_k2 = direct_product(K2, K1_4)
    via_d2 = direct_product(D2, K1_4)
    assert via_d2 == union
    assert are_isomorphic(via_k2, union, node_limit=None) is not None
    k2_matrix = ((0, 1), (1, 0))
    w_k2 = factor_search(union, 2, 5, fixed_a=k2_matrix)
    w_d2 = factor_search(union, 2, 5, fixed_a=I2_MATRIX)
    assert w_k2 is not None and w_k2.factor_a == K2
    assert w_d2 is not None and w_d2.factor_a == D2


def test_fig3_product_has_two_node_factor_but_no_doubling_factor():
    g3 = direct_product(FIG3_G1, FIG3_G2)
    assert g3.node_count == 12
    comps = components_as_graphs(g3)
    assert len(comps) == 2
    assert comps[0].node_count == comps[1].node_count == 6
    assert comps[0].edge_count == comps[1].edge_count == 8
    assert are_isomorphic(comps[0], comps[1]) is None
    w = factor_search(g3, 2, 6)
    assert w is not None
    assert are_isomorphic(w.factor_a, FIG3_G1) is not None
    assert factor_search(g3, 2, 6, fixed_a=I2_MATRIX) is None


# -- witness re-verification survives python -O ---------------------------------


_REVERIFY_UNDER_O = textwrap.dedent(
    """
    import graphprod.factorization as fz
    import graphprod.isomorphism as iso
    from graphprod import InternalError, disjoint_union
    from graphprod.catalog import C3, C5_LOOP
    from graphprod.isomorphism import IsomorphismWitness

    assert not __debug__, "run me under python -O"
    fz.witness_is_valid = lambda g, w: False
    iso.is_isomorphism = lambda g1, g2, mapping: False
    calls = [
        lambda: fz.factor_search(disjoint_union(C5_LOOP, C5_LOOP), 2, 5),
        lambda: fz.factorization_from_isomorphism(C3, C3, IsomorphismWitness((0, 1, 2))),
        lambda: iso.are_isomorphic(C3, C3),
    ]
    for call in calls:
        try:
            call()
        except InternalError:
            print("InternalError")
        else:
            print("returned")
    """
)


_CHECKS_UNDER_O = textwrap.dedent(
    """
    import graphprod.factorization as fz
    import graphprod.reduction as red
    from graphprod import Graph, InternalError
    from graphprod.catalog import C3

    assert not __debug__, "run me under python -O"
    member = red.pad_to_class_g(C3).padded


    def elimination_without_identity():
        red.two_block_survivors = lambda g1, g2: []
        red.union_compositeness_by_elimination(member, member)


    def padding_outside_class_g():
        red.class_g_check = lambda g: red.ClassGReport(False, False, True, True, True, True)
        red.pad_to_class_g(Graph(C3.node_count, C3.edges))  # a fresh copy: C3's padding is kept


    for call in (elimination_without_identity, padding_outside_class_g):
        try:
            call()
        except InternalError:
            print("InternalError")
        else:
            print("returned")
    """
)


def _run_under_python_O(script: str) -> list[str]:
    import graphprod

    src = os.path.dirname(os.path.dirname(graphprod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_witness_reverification_raises_under_python_O():
    assert _run_under_python_O(_REVERIFY_UNDER_O) == ["InternalError"] * 3


def test_internal_checks_raise_under_python_O():
    # one check in union_compositeness_by_elimination, one in pad_to_class_g
    assert _run_under_python_O(_CHECKS_UNDER_O) == ["InternalError"] * 2


_IMPORT_DOES_NO_WORK = textwrap.dedent(
    """
    import sys

    skeleton_calls = []


    def watch(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.endswith("skeleton.py") and code.co_name != "<module>":
            skeleton_calls.append(code.co_name)


    sys.setprofile(watch)
    import graphprod.cli, graphprod.factorization as fz
    sys.setprofile(None)
    print(fz._left_factors.cache_info().currsize)
    print("graphprod.skeleton" in sys.modules, len(skeleton_calls), "numpy" in sys.modules)
    """
)


def test_no_left_factor_table_is_built_at_import():
    # nor does the skeleton module run any of its code, or pull in numpy
    assert _run_under_python_O(_IMPORT_DOES_NO_WORK) == ["0", "True", "0", "False"]


def test_identity_factor_never_claimed():
    # single-node right factors are outside the witness domain entirely
    with pytest.raises(ValueError):
        factor_search(L1, 1, 1)
