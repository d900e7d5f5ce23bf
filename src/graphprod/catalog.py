"""Named example graphs and the bundled edge-list corpus.

The constants here are the small graphs used across the demos, the CLI
corpus, and the test suite.  The doubling factor ``D2`` is the one defined
in :mod:`graphprod.factorization`, which owns the two-node left factors;
no algorithm module imports this one, so ``import graphprod`` leaves it
unloaded.  ``FIG3_G2``'s loop placement (one path looped at
an endpoint, the other at its midpoint) is what makes its product with
``FIG3_G1`` split into two non-isomorphic components of equal size.
"""

from __future__ import annotations

from importlib import resources
from typing import Iterable

from .core import Graph, PreconditionError, as_int, disjoint_union, read_edge_list
from .factorization import D2


def path_graph(n: int) -> Graph:
    n = as_int(n, "n must be an integer")
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    n = as_int(n, "n must be an integer")
    if n < 3:
        raise PreconditionError("a cycle needs at least 3 nodes")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at node 0."""
    leaves = as_int(leaves, "leaves must be an integer")
    if leaves < 0:
        raise PreconditionError("leaves must be nonnegative")
    return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def complete_graph(n: int) -> Graph:
    n = as_int(n, "n must be an integer")
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def add_loops(g: Graph, nodes: Iterable[int]) -> Graph:
    return Graph(g.node_count, g.edges | {(v, v) for v in nodes})


L1 = add_loops(Graph(1), [0])  # single looped node, the direct-product identity
K2 = complete_graph(2)
P3 = path_graph(3)
P4 = path_graph(4)
K1_3 = star_graph(3)
K1_4 = star_graph(4)
C3 = cycle_graph(3)
C4 = cycle_graph(4)
C5 = cycle_graph(5)
C5_LOOP = add_loops(C5, [0])

P3_END_LOOP = add_loops(P3, [2])
P3_MID_LOOP = add_loops(P3, [1])

FIG2_G1 = K2
FIG2_G2 = K1_4
FIG3_G1 = add_loops(K2, [0])
FIG3_G2 = disjoint_union(P3_END_LOOP, P3_MID_LOOP)

TWOCOMP = disjoint_union(K2, K2)

NAMED: dict[str, Graph] = {
    "k2": K2,
    "l1": L1,
    "d2": D2,
    "p3": P3,
    "p4": P4,
    "p4b": Graph(4, [(0, 2), (1, 2), (1, 3)]),  # P4 relabelled
    "k1_3": K1_3,
    "k1_4": K1_4,
    "c3": C3,
    "c3b": C3,
    "c4": C4,
    "c5": C5,
    "c5_loop": C5_LOOP,
    "c5_loop_perm": add_loops(cycle_graph(5), [2]),
    "p3_end_loop": P3_END_LOOP,
    "p3_mid_loop": P3_MID_LOOP,
    "fig2_g1": FIG2_G1,
    "fig2_g2": FIG2_G2,
    "fig3_g1": FIG3_G1,
    "fig3_g2": FIG3_G2,
    "twocomp": TWOCOMP,
}


def corpus_path(name: str):
    """Filesystem path of a bundled corpus file such as ``c5_loop``."""
    path = resources.files(__package__) / "data" / f"{name}.el"
    if not path.is_file():
        raise KeyError(f"no corpus graph named {name!r}")
    return path


def load_corpus_graph(name: str) -> Graph:
    return read_edge_list(corpus_path(name))
