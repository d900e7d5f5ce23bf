"""The four standard graph products and the Kronecker matrix product.

A product of graphs with n1 and n2 nodes lives on the vertex pairs (x, y),
which are flattened row-major: pair (x, y) becomes index ``x * n2 + y``.
Under that fixed indexing the adjacency matrix of the direct product equals
the Kronecker product of the factor adjacency matrices exactly, entry for
entry, with no permutation left over; :func:`verify_kronecker_identity`
checks precisely that, on bitmask rows built by :func:`kronecker_rows`.

Each product is one adjacency rule on the pairs.  Write x ~ x' when x and
x' are adjacent, which for x = x' means x carries a loop.  Then (x, y) and
(x', y') are adjacent in the

* direct product iff x ~ x' and y ~ y';
* cartesian product iff x = x' and y ~ y', or x ~ x' and y = y';
* strong product iff they are adjacent in the cartesian or the direct one;
* lexicographic product iff x ~ x', or x = x' and y ~ y'.

Self-loops fall out of the rules verbatim.  For example the direct product
has a loop at (x, y) iff both x and y carry loops, while the cartesian
product has a loop at (x, y) iff either does.  The rules produce ordered
pairs; :class:`~graphprod.core.Graph` puts each edge in ``(min, max)`` order
and drops duplicates when it is built.

Products are built on edge sets.  numpy is imported only by the array
helper :func:`kronecker`, on first call, so importing the package does not
load it; :func:`verify_kronecker_identity` compares bitmask rows and does not
import numpy.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

from .core import Edge, Graph, PreconditionError, bits, check_node_limit, require_graphs

if TYPE_CHECKING:
    import numpy as np

DEFAULT_NODE_LIMIT = 4096


class ProductKind(enum.Enum):
    CARTESIAN = "cartesian"
    DIRECT = "direct"
    STRONG = "strong"
    LEXICOGRAPHIC = "lexicographic"


def _pairs(rel1: Iterable[Edge], rel2: Collection[Edge], n2: int) -> set[Edge]:
    """The relation product rel1 × rel2 on row-major indices.

    Each (x, x') in rel1 and (y, y') in rel2 give the pair (x*n2 + y, x'*n2 + y').
    ``rel2`` is walked once per pair of rel1, so it must be a collection, not
    an iterator.
    """
    return {(x * n2 + y, xp * n2 + yp) for x, xp in rel1 for y, yp in rel2}


def _diagonal(n: int) -> list[Edge]:
    return [(v, v) for v in range(n)]


def product(
    kind: ProductKind,
    g1: Graph,
    g2: Graph,
    *,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
) -> Graph:
    """Product graph of the chosen kind on ``n1 * n2`` row-major indexed nodes.

    With e1, e2 the factors' edge sets and diag(V) the pairs (v, v), each
    kind is its adjacency rule written as relation products (see
    :func:`_pairs`):

    * direct: e1 × (e2 in both orders);
    * cartesian: (diag(V1) × e2) ∪ (e1 × diag(V2));
    * strong: cartesian ∪ direct;
    * lexicographic: (e1 × V2²) ∪ (diag(V1) × e2).

    Empty factors, factors that are not :class:`Graph` instances and anything
    but a :class:`ProductKind` raise :class:`PreconditionError`; a product above
    ``node_limit`` nodes raises :class:`SizeLimitError`.
    """
    if not isinstance(kind, ProductKind):
        raise PreconditionError(f"unknown product kind: {kind!r}")
    require_graphs("product", g1, g2)
    n1, n2 = g1.node_count, g2.node_count
    if n1 == 0 or n2 == 0:
        raise PreconditionError("graph products require nonempty factors")
    check_node_limit(n1 * n2, node_limit, "product")
    e1, e2 = g1.edges, g2.edges
    if kind is ProductKind.DIRECT:
        edges = _pairs(e1, [*e2, *((yp, y) for y, yp in e2)], n2)
    elif kind is ProductKind.LEXICOGRAPHIC:
        square = [(y, yp) for y in range(n2) for yp in range(n2)]
        edges = _pairs(e1, square, n2) | _pairs(_diagonal(n1), e2, n2)
    else:
        edges = _pairs(_diagonal(n1), e2, n2) | _pairs(e1, _diagonal(n2), n2)
        if kind is ProductKind.STRONG:  # cartesian ∪ direct
            edges |= _pairs(e1, [*e2, *((yp, y) for y, yp in e2)], n2)
    return Graph(n1 * n2, edges)


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
    """Kronecker product of two matrices (each entry of a scales all of b).

    Needs numpy: ``pip install "graphprod[arrays]"``.
    """
    import numpy as np

    try:
        a, b = np.asarray(a), np.asarray(b)
    except ValueError:  # a ragged nested sequence
        raise PreconditionError("kronecker operands must not be ragged") from None
    if a.ndim == 0 or b.ndim == 0:
        raise PreconditionError("kronecker needs operands with at least one axis")
    check_node_limit(a.shape[0] * b.shape[0], node_limit, "Kronecker result")
    return np.kron(a, b)


def kronecker_rows(a_rows: Sequence[int], b_rows: Sequence[int]) -> list[int]:
    """Bitmask rows of A (x) B from the bitmask rows of A and B.

    Row r * b + c of A (x) B is B's row c shifted into block s, for each s in
    A's row r.  Spreading A's row r to one bit at the bottom of each such block
    and multiplying by B's row c makes every shifted copy at once; a row of B
    fits in b bits, so the copies never overlap and the product is exact.
    """
    b = len(b_rows)
    return [sr * rb for sr in [sum(1 << s * b for s in bits(ra)) for ra in a_rows] for rb in b_rows]


def verify_kronecker_identity(g1: Graph, g2: Graph) -> bool:
    """Check A(direct(g1, g2)) == A(g1) (x) A(g2) entrywise, on bitmask rows.

    The left side comes from the product's edge rule, the right side from
    :func:`kronecker_rows`; row-major pair indexing makes them literally
    equal, so the comparison is exact, with no permutation search.
    """
    lhs = direct_product(g1, g2, node_limit=None).adjacency_masks
    return list(lhs) == kronecker_rows(g1.adjacency_masks, g2.adjacency_masks)
