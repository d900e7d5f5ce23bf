#!/usr/bin/env python3
"""A union of two stars with two genuinely different factorizations.

G2 is the 5-node star.  The disjoint union G2 u G2 factors both as
K2 x G2 (because the double cover of a bipartite graph splits into two
copies) and as D2 x G2 (the doubling factorization that exists for every
union of isomorphic graphs).  So a factoring algorithm that merely finds
SOME two-node factor cannot tell you whether the two halves are isomorphic:
it might return K2 where only D2 would certify isomorphism.
"""

from graphprod import (
    are_isomorphic,
    direct_product,
    disjoint_union,
    factor_search,
    witness_to_json,
)
from graphprod.catalog import D2, K1_4, K2
from graphprod.factorization import I2_MATRIX, K2_MATRIX


def main():
    g2 = K1_4
    union = disjoint_union(g2, g2)
    print(f"G2 = 5-node star, union has {union.node_count} nodes, {union.edge_count} edges")

    via_k2 = direct_product(K2, g2)
    print("K2 x G2 isomorphic to G2 u G2:", are_isomorphic(via_k2, union) is not None)
    via_d2 = direct_product(D2, g2)
    print("D2 x G2 equal to G2 u G2 exactly:", via_d2 == union)
    print()

    for name, matrix in (("K2", K2_MATRIX), ("D2", I2_MATRIX)):
        w = factor_search(union, 2, 5, fixed_a=matrix)
        assert w is not None
        report = witness_to_json(w)
        print(f"factorization with left factor {name}:")
        print(f"  A edges {report['a_edges']}, B edges {report['b_edges']}")
        print(f"  labeling {report['labeling']}")
    print()
    print("both factorizations verified by product recomputation")


if __name__ == "__main__":
    main()
