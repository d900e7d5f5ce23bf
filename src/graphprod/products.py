"""The four standard graph products and the Kronecker matrix product.

A product of graphs with n1 and n2 nodes lives on the vertex pairs (u, v),
which are flattened row-major: pair (u, v) becomes index ``u * n2 + v``.
Under that fixed indexing the adjacency matrix of the direct product equals
the Kronecker product of the factor adjacency matrices exactly, entry for
entry, with no permutation left over; :func:`verify_kronecker_identity`
checks precisely that.

Self-loops fall out of the edge rules verbatim.  For example the direct
product has a loop at (x, y) iff both x and y carry loops, while the
cartesian product has a loop at (x, y) iff either does.

Products are built on edge sets.  numpy is imported only by the array
helpers :func:`kronecker` and :func:`verify_kronecker_identity`, on first
call, so importing the package does not load it.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from .core import Edge, Graph, PreconditionError, SizeLimitError, adjacency_matrix

if TYPE_CHECKING:
    import numpy as np

DEFAULT_NODE_LIMIT = 4096


class ProductKind(enum.Enum):
    CARTESIAN = "cartesian"
    DIRECT = "direct"
    STRONG = "strong"
    LEXICOGRAPHIC = "lexicographic"


def _norm(a: int, b: int) -> Edge:
    return (a, b) if a <= b else (b, a)


def _direct_edges(g1: Graph, g2: Graph) -> set[Edge]:
    n2 = g2.node_count
    out: set[Edge] = set()
    for x, xp in g1.edges:
        base_x = x * n2
        base_xp = xp * n2
        for y, yp in g2.edges:
            out.add(_norm(base_x + y, base_xp + yp))
            out.add(_norm(base_x + yp, base_xp + y))
    return out


def _cartesian_edges(g1: Graph, g2: Graph) -> set[Edge]:
    n1, n2 = g1.node_count, g2.node_count
    out: set[Edge] = set()
    for x in range(n1):
        base = x * n2
        for y, yp in g2.edges:
            out.add(_norm(base + y, base + yp))
    for x, xp in g1.edges:
        for y in range(n2):
            out.add(_norm(x * n2 + y, xp * n2 + y))
    return out


def _lexicographic_edges(g1: Graph, g2: Graph) -> set[Edge]:
    n2 = g2.node_count
    out: set[Edge] = set()
    for x, xp in g1.edges:
        if x == xp:
            # a loop in the left factor joins every pair inside its column
            base = x * n2
            for y in range(n2):
                for yp in range(y, n2):
                    out.add((base + y, base + yp))
        else:
            for y in range(n2):
                for yp in range(n2):
                    out.add(_norm(x * n2 + y, xp * n2 + yp))
    for x in range(g1.node_count):
        base = x * n2
        for y, yp in g2.edges:
            out.add(_norm(base + y, base + yp))
    return out


def product(
    kind: ProductKind,
    g1: Graph,
    g2: Graph,
    *,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
) -> Graph:
    """Product graph of the chosen kind on ``n1 * n2`` row-major indexed nodes."""
    if g1.node_count == 0 or g2.node_count == 0:
        raise PreconditionError("graph products require nonempty factors")
    order = g1.node_count * g2.node_count
    if node_limit is not None and order > node_limit:
        raise SizeLimitError(f"product order {order} exceeds the {node_limit}-node bound")
    if kind is ProductKind.DIRECT:
        edges = _direct_edges(g1, g2)
    elif kind is ProductKind.CARTESIAN:
        edges = _cartesian_edges(g1, g2)
    elif kind is ProductKind.STRONG:
        edges = _cartesian_edges(g1, g2) | _direct_edges(g1, g2)
    elif kind is ProductKind.LEXICOGRAPHIC:
        edges = _lexicographic_edges(g1, g2)
    else:  # pragma: no cover
        raise ValueError(f"unknown product kind: {kind!r}")
    return Graph(order, frozenset(edges))


def direct_product(g1: Graph, g2: Graph, **kw) -> Graph:
    return product(ProductKind.DIRECT, g1, g2, **kw)


def cartesian_product(g1: Graph, g2: Graph, **kw) -> Graph:
    return product(ProductKind.CARTESIAN, g1, g2, **kw)


def strong_product(g1: Graph, g2: Graph, **kw) -> Graph:
    return product(ProductKind.STRONG, g1, g2, **kw)


def lexicographic_product(g1: Graph, g2: Graph, **kw) -> Graph:
    return product(ProductKind.LEXICOGRAPHIC, g1, g2, **kw)


def kronecker(
    a: np.ndarray, b: np.ndarray, *, node_limit: int | None = DEFAULT_NODE_LIMIT
) -> np.ndarray:
    """Kronecker product of two matrices (each entry of a scales all of b)."""
    import numpy as np

    a = np.asarray(a)
    b = np.asarray(b)
    if node_limit is not None and a.shape[0] * b.shape[0] > node_limit:
        raise SizeLimitError(
            f"Kronecker result order {a.shape[0] * b.shape[0]} exceeds the "
            f"{node_limit}-node bound"
        )
    return np.kron(a, b)


def verify_kronecker_identity(g1: Graph, g2: Graph) -> bool:
    """Check A(direct(g1, g2)) == A(g1) (x) A(g2) entrywise.

    Row-major pair indexing makes the two sides literally equal, so the
    comparison is exact, with no permutation search.
    """
    import numpy as np

    lhs = adjacency_matrix(direct_product(g1, g2, node_limit=None))
    rhs = kronecker(adjacency_matrix(g1), adjacency_matrix(g2), node_limit=None)
    return np.array_equal(lhs, rhs)
