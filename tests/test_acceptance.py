"""Acceptance criteria, one test per criterion, each with its runtime budget.

Every test records a PASS/FAIL line that the session summary prints at the
end of the run (see conftest).  Random sampling is seeded, so the suite is
deterministic.
"""

import random
import time

import numpy as np

from graphprod import (
    D2,
    are_isomorphic,
    class_g_check,
    direct_product,
    disjoint_union,
    div2div3_offset,
    factor_search,
    factorization_from_isomorphism,
    graph_isomorphism_via_compositeness,
    is_isomorphism,
    is_prime_direct,
    isomorphism_from_union_factorization,
    pad_to_class_g,
    product,
    ProductKind,
    relabel,
    search_oracle,
    union_compositeness_by_elimination,
    verify_kronecker_identity,
    witness_is_valid,
)
from graphprod.catalog import K2
from graphprod.cli import main as cli_main
from graphprod.factorization import I2_MATRIX

from conftest import record_acceptance
from helpers import (
    all_connected_graphs,
    all_graphs,
    nonisomorphic_pair_same_counts,
    random_bipartite_connected,
    random_connected_graph,
    random_class_g_graph,
    random_graph,
    random_relabeling,
)


def _criterion(name: str, budget_s: float, body) -> None:
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        record_acceptance(name, "FAIL", time.perf_counter() - started)
        raise
    elapsed = time.perf_counter() - started
    ok = elapsed <= budget_s
    record_acceptance(name, "PASS" if ok else "FAIL", elapsed)
    print(f"{'PASS' if ok else 'FAIL'}: {name} [{elapsed:.1f}s / budget {budget_s:.0f}s]")
    assert ok, f"functional checks passed but took {elapsed:.1f}s > {budget_s}s"


def _iso_representatives(graphs):
    buckets: dict = {}
    reps = []
    for g in graphs:
        degrees = [0] * g.node_count
        loops = [0] * g.node_count
        for u, v in g.edges:
            if u == v:
                loops[u] = 1
            else:
                degrees[u] += 1
                degrees[v] += 1
        key = (g.node_count, g.edge_count, g.loop_count, tuple(sorted(zip(degrees, loops))))
        bucket = buckets.setdefault(key, [])
        if not any(are_isomorphic(g, r, node_limit=None) for r in bucket):
            bucket.append(g)
            reps.append(g)
    return reps


def _matrix(g) -> np.ndarray:
    """The 0/1 adjacency matrix of g, built here rather than by graphprod."""
    mat = np.zeros((g.node_count, g.node_count), dtype=np.uint8)
    for u, v in g.edges:
        mat[u, v] = mat[v, u] = 1
    return mat


def test_criterion_01_kronecker_identity():
    def check(g1, g2):
        assert verify_kronecker_identity(g1, g2)
        # an independent reference: numpy's Kronecker product of the factors
        assert np.array_equal(np.kron(_matrix(g1), _matrix(g2)), _matrix(direct_product(g1, g2)))

    def body():
        small = [g for n in (1, 2, 3) for g in all_graphs(n)]
        assert len(small) == 74
        for g1 in small:
            for g2 in small:
                check(g1, g2)
        # 4-node graphs exhaustively by isomorphism class (the identity
        # transports along relabelings, which the random pairs exercise)
        reps4 = _iso_representatives(all_graphs(4))
        everything = small + reps4
        for g1 in everything:
            for g2 in reps4:
                check(g1, g2)
                check(g2, g1)
        rng = random.Random(101)
        for _ in range(2000):
            g1 = random_graph(4, rng, edge_p=rng.random(), loop_p=rng.random())
            g2 = random_graph(4, rng, edge_p=rng.random(), loop_p=rng.random())
            check(g1, g2)
        for _ in range(200):
            g1 = random_graph(rng.randint(1, 6), rng)
            g2 = random_graph(rng.randint(1, 6), rng)
            check(g1, g2)

    _criterion("criterion 1: Kronecker identity of the direct product", 10.0, body)


def test_criterion_02_doubling_factorization_biconditional():
    def body():
        rng = random.Random(202)
        for _ in range(500):
            n = rng.randint(2, 6)
            g1 = random_connected_graph(n, rng)
            if rng.random() < 0.5:
                g2 = random_relabeling(g1, rng)
            else:
                g2 = random_connected_graph(n, rng)
            direct_iso = are_isomorphic(g1, g2, node_limit=None)
            recovered = isomorphism_from_union_factorization(g1, g2, node_limit=None)
            assert (recovered is None) == (direct_iso is None)
            if direct_iso is not None:
                union = disjoint_union(g1, g2)
                witness = factorization_from_isomorphism(g1, g2, direct_iso)
                assert witness_is_valid(union, witness)
                assert is_isomorphism(g1, g2, recovered.mapping)

    _criterion("criterion 2: doubling factorization iff isomorphic", 60.0, body)


def test_criterion_03_elimination_oracle_agreement():
    def body():
        rng = random.Random(303)
        pairs = []
        for order, pool_size in ((5, 40), (7, 40)):
            pool = [random_class_g_graph(order, rng) for _ in range(pool_size)]
            by_m: dict = {}
            for g in pool:
                by_m.setdefault(g.edge_count, []).append(g)
            for g in pool[:30]:
                pairs.append((g, random_relabeling(g, rng)))
            for bucket in by_m.values():
                for i in range(len(bucket)):
                    for j in range(i + 1, len(bucket)):
                        pairs.append((bucket[i], bucket[j]))
        pairs = pairs[:260]
        assert len(pairs) >= 200
        for g1, g2 in pairs:
            by_elimination = union_compositeness_by_elimination(g1, g2)
            by_search = not is_prime_direct(disjoint_union(g1, g2), node_limit=None)
            by_isomorphism = are_isomorphic(g1, g2, node_limit=None) is not None
            assert by_elimination == by_search == by_isomorphism

    _criterion("criterion 3: elimination = search = isomorphism on class G", 300.0, body)


def test_criterion_04_offset_table():
    def body():
        for t in range(-1000, 1001):
            d = div2div3_offset(t)
            assert d in (0, 1, 2, 3)
            assert (t + d) % 2 != 0 and (t + d) % 3 != 0
            expected = next(
                k for k in range(4) if (t + k) % 2 != 0 and (t + k) % 3 != 0
            )
            assert d == expected

    _criterion("criterion 4: residue offset table", 1.0, body)


def test_criterion_05_padding_lands_in_class_g():
    def body():
        rng = random.Random(505)
        for _ in range(500):
            g = random_connected_graph(rng.randint(2, 6), rng)
            result = pad_to_class_g(g)
            n = g.node_count
            report = class_g_check(result.padded)
            assert report.member, report.violations()
            assert 2 * n < result.chosen_prime < 4 * n
            assert len(result.cycle_edges) == result.chosen_prime - n > n

    _criterion("criterion 5: padding lands in class G", 30.0, body)


def test_criterion_06_padding_preserves_isomorphism():
    def body():
        rng = random.Random(606)
        for _ in range(200):
            g = random_connected_graph(rng.randint(2, 5), rng)
            sigma = random_relabeling(g, rng)
            p1 = pad_to_class_g(g).padded
            p2 = pad_to_class_g(sigma).padded
            assert are_isomorphic(p1, p2, node_limit=None) is not None
        for _ in range(200):
            n = rng.choice((3, 4, 5))
            g1, g2 = nonisomorphic_pair_same_counts(n, rng)
            p1 = pad_to_class_g(g1).padded
            p2 = pad_to_class_g(g2).padded
            assert are_isomorphic(p1, p2, node_limit=None) is None

    _criterion("criterion 6: padding preserves isomorphism both ways", 600.0, body)


def test_criterion_07_end_to_end_reduction():
    def body():
        connected = [g for n in (2, 3, 4) for g in all_connected_graphs(n)]
        assert len(connected) == 4 + 32 + 608
        for g1 in connected:
            for g2 in connected:
                want = (
                    g1.node_count == g2.node_count
                    and g1.edge_count == g2.edge_count
                    and are_isomorphic(g1, g2, node_limit=None) is not None
                )
                got = graph_isomorphism_via_compositeness(g1, g2, search_oracle)
                assert got == want, (g1, g2)
        rng = random.Random(707)
        for _ in range(50):
            g1 = random_connected_graph(5, rng)
            if rng.random() < 0.5:
                g2 = random_relabeling(g1, rng)
            else:
                g2 = random_connected_graph(5, rng)
            want = are_isomorphic(g1, g2, node_limit=None) is not None
            assert graph_isomorphism_via_compositeness(g1, g2, search_oracle) == want

    _criterion("criterion 7: end-to-end isomorphism via compositeness", 900.0, body)


def test_criterion_08_fig2_demo():
    def body():
        assert cli_main(["demo", "fig2"]) == 0

    _criterion("criterion 8: fig2 demo (two distinct factorizations)", 60.0, body)


def test_criterion_09_fig3_demo():
    def body():
        assert cli_main(["demo", "fig3"]) == 0

    _criterion("criterion 9: fig3 demo (two-node factor, no doubling factor)", 120.0, body)


def test_criterion_10_product_algebra():
    def body():
        rng = random.Random(1010)
        kinds = [ProductKind.CARTESIAN, ProductKind.DIRECT, ProductKind.STRONG]
        for _ in range(100):
            g1 = random_graph(rng.randint(1, 5), rng)
            g2 = random_graph(rng.randint(1, 5), rng)
            kind = rng.choice(kinds)
            p12 = product(kind, g1, g2)
            p21 = product(kind, g2, g1)
            n1, n2 = g1.node_count, g2.node_count
            transpose = [0] * (n1 * n2)
            for u in range(n1):
                for v in range(n2):
                    transpose[u * n2 + v] = v * n1 + u
            assert is_isomorphism(p12, p21, transpose)
        for _ in range(100):
            gs = [random_graph(rng.randint(1, 3), rng) for _ in range(3)]
            kind = rng.choice(kinds)
            left = product(kind, product(kind, gs[0], gs[1]), gs[2])
            right = product(kind, gs[0], product(kind, gs[1], gs[2]))
            assert left == right
        for _ in range(100):
            h = random_bipartite_connected(rng.randint(2, 6), rng)
            doubled = disjoint_union(h, h)
            assert direct_product(D2, h) == doubled
            assert are_isomorphic(direct_product(K2, h), doubled, node_limit=None) is not None

    _criterion("criterion 10: product algebra laws", 120.0, body)


def test_factor_search_doubling_consistency():
    # cross-check used by criteria 8 and 9: the pinned searches agree with
    # the free search on whether a doubling factor exists
    rng = random.Random(111)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 5), rng)
        h = (
            random_relabeling(g, rng)
            if rng.random() < 0.5
            else random_connected_graph(g.node_count, rng)
        )
        union = disjoint_union(g, h)
        pinned = factor_search(union, 2, g.node_count, node_limit=None, fixed_a=I2_MATRIX)
        expected = are_isomorphic(g, h, node_limit=None) is not None
        assert (pinned is not None) == expected
