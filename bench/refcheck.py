"""Independent checks of graphprod's witnesses and NO verdicts.

Graphs are the ``(n, edges)`` pairs of :mod:`gen`.  numpy and networkx are
imported here, after the timed phase, never by the code being timed.
"""

from __future__ import annotations

from gen import norm


def _matrix(n: int, edges):
    import numpy as np

    mat = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        mat[u, v] = mat[v, u] = 1
    return mat


def factorization_holds(g, a: int, b: int, a_edges, b_edges, labeling) -> bool:
    """Check P A(g) P^T == kron(A, B) for the permutation the labeling gives."""
    import numpy as np

    n, edges = g
    if a < 2 or b < 2 or a * b != n or len(labeling) != n:
        return False
    if not all(0 <= r < a and 0 <= c < b for r, c in labeling):
        return False
    pos = [r * b + c for r, c in labeling]
    if sorted(pos) != list(range(n)):
        return False
    perm = np.zeros((n, n), dtype=np.int64)
    perm[pos, range(n)] = 1
    lhs = perm @ _matrix(n, edges) @ perm.T
    return np.array_equal(lhs, np.kron(_matrix(a, a_edges), _matrix(b, b_edges)))


def mapping_holds(g1, g2, mapping) -> bool:
    """True iff node v -> mapping[v] carries g1's edge set exactly onto g2's."""
    n, e1 = g1
    if g2[0] != n or len(mapping) != n or sorted(mapping) != list(range(n)):
        return False
    return {norm(mapping[u], mapping[v]) for u, v in e1} == g2[1]


def non_isomorphism_proof(g1, g2) -> str | None:
    """How g1 and g2 were shown non-isomorphic, or None if they are isomorphic.

    Counts, degree sequences, the multiset of (degree, neighbour degrees)
    and adjacency spectra are invariants, so a difference in any of them
    settles NO; pairs they cannot separate go to networkx VF2.
    """
    import numpy as np

    (n1, e1), (n2, e2) = g1, g2
    if n1 != n2 or len(e1) != len(e2):
        return "counts"

    def degrees(n, edges):
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbour_degrees(n, edges):
        deg = degrees(n, edges)
        around = [[] for _ in range(n)]
        for u, v in edges:
            around[u].append(deg[v])
            around[v].append(deg[u])
        return sorted((deg[v], sorted(around[v])) for v in range(n))

    if sorted(degrees(n1, e1)) != sorted(degrees(n2, e2)):
        return "degrees"
    if neighbour_degrees(n1, e1) != neighbour_degrees(n2, e2):
        return "neighbour_degrees"
    s1 = np.linalg.eigvalsh(_matrix(n1, e1).astype(float))
    s2 = np.linalg.eigvalsh(_matrix(n2, e2).astype(float))
    if not np.allclose(s1, s2, atol=1e-6):
        return "spectrum"

    import networkx as nx

    def nx_graph(n, edges):
        out = nx.Graph()
        out.add_nodes_from(range(n))
        out.add_edges_from(edges)
        return out

    return None if nx.is_isomorphic(nx_graph(n1, e1), nx_graph(n2, e2)) else "vf2"
