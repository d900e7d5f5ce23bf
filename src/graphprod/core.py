"""Core graph type, predicates, and edge-list I/O.

Graphs are finite and undirected, with self-loops allowed.  Nodes are the
integers ``0..node_count-1`` and an edge is an unordered pair stored as
``(min(u, v), max(u, v))``; ``(v, v)`` is a self-loop.

Counting and adjacency conventions used throughout the package:

* ``m`` is the number of edges, where a self-loop counts as ONE edge;
* ``s`` is the number of self-loops;
* a self-loop writes a SINGLE 1 on the matrix diagonal, so the adjacency
  matrix of a graph has exactly ``2*m - s`` nonzero entries.

Every counting argument in :mod:`graphprod.factorization` and
:mod:`graphprod.reduction` depends on the ``2*m - s`` rule; do not change it.
``Graph.nonzero_count`` is its one implementation; read that rather than
recomputing it.

Per-graph data is computed once and cached on the graph, for as long as the
graph lives: adjacency rows as bitmasks (``Graph.adjacency_masks``), the one
adjacency view; one pass of :func:`breadth_first` over them
(``Graph.traversal``), for connectivity, components and bipartiteness; and
the graph's :func:`~graphprod.reduction.pad_to_class_g` result, once it has
been padded.  Two builders, :func:`disjoint_union` and
:func:`~graphprod.reduction.pad_to_class_g`, make graphs from edges that are
already valid and skip the constructor's re-validation.  The union also
inherits whichever of these views both operands hold: its rows are the
operands' rows side by side, and its traversal is theirs joined, which is
exactly :func:`breadth_first` of the union, since every component of the
first operand has a smaller least node than any component of the second.

Every algorithm runs on these plain Python views.  numpy is an optional
extra (``pip install "graphprod[arrays]"``), imported only by the array
helpers :func:`adjacency_matrix` and :func:`graph_from_adjacency`, on first
call, so importing the package does not load it.
:func:`~graphprod.products.verify_kronecker_identity` does not import it:
it compares bitmask rows.
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

Edge = tuple[int, int]

# Largest node count an edge-list header may announce.  Checked before
# anything is sized by n; it stays far above every default search bound.
MAX_HEADER_NODES = 1 << 20


class GraphProdError(Exception):
    """Base class for errors raised by this package."""


class SizeLimitError(GraphProdError):
    """An input exceeds a configured node bound."""


class InternalError(GraphProdError):
    """A result failed its own re-verification: a bug in this package."""


class PreconditionError(GraphProdError, ValueError):
    """An operation's stated precondition does not hold for the input.

    It is also a ``ValueError``, so callers that catch ``ValueError`` for
    bad input (an empty graph handed to a product or to the isomorphism
    search, say) keep working.  ``report`` optionally carries a structured
    explanation (for instance a class membership report).
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def as_int(x, message: str) -> int:
    """``x`` as a Python int, numpy integers included; anything else raises ``message``."""
    try:
        return index(x)
    except TypeError:
        raise PreconditionError(message) from None


def check_node_limit(order: int, node_limit: int | None, what: str) -> None:
    """Raise :class:`SizeLimitError` if ``order`` exceeds ``node_limit``; None is no bound."""
    if node_limit is None:
        return
    limit = as_int(node_limit, "node_limit must be an integer or None")
    if order > limit:
        raise SizeLimitError(f"{what} order {order} exceeds the {limit}-node bound")


class EdgeListParseError(GraphProdError):
    """Malformed edge-list text; ``line`` is the offending 1-based line.

    A nonpositive ``line`` marks input that is not file-positional (for
    instance a malformed environment override).
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}" if line > 0 else message)
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph on nodes ``0..node_count-1``.

    ``edges`` may be any iterable of integer pairs, read once and stored as
    one frozenset.  ``node_count`` and the endpoints may be any integers,
    numpy's too, and are stored as Python ints; anything else is a
    precondition error.  Edges are normalized to ``(min, max)`` tuples on
    construction, which also counts ``loop_count``, s, the number of
    self-loops.  Two views are computed on first use and cached on the
    instance: ``adjacency_masks`` and the ``traversal`` built from it.
    :func:`~graphprod.reduction.pad_to_class_g` keeps its result on the
    instance too, in a private slot.  All three live as long as the graph.

    :func:`disjoint_union` and :func:`~graphprod.reduction.pad_to_class_g`
    build through the private :meth:`_derived` instead, which skips this
    validation: their edges come from graphs already validated.
    """

    node_count: int
    edges: frozenset[Edge] = field(default_factory=frozenset)
    loop_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = as_int(self.node_count, "node_count must be an integer")
        if n < 0:
            raise PreconditionError("node_count must be nonnegative")
        normalized = set()
        loops = 0
        try:  # one pass that reads and checks each edge: every Graph built runs it
            for u, v in self.edges:
                u, v = index(u), index(v)
                if not (0 <= u < n and 0 <= v < n):
                    raise PreconditionError(f"edge ({u}, {v}) out of range for {n} nodes")
                if u == v and (u, u) not in normalized:  # any duplicate is counted once
                    loops += 1
                normalized.add((u, v) if u <= v else (v, u))
        except PreconditionError:
            raise
        except (TypeError, ValueError):
            raise PreconditionError("edges must be pairs of integers") from None
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "edges", frozenset(normalized))
        object.__setattr__(self, "loop_count", loops)

    @classmethod
    def _derived(cls, n: int, edges: frozenset[Edge], loop_count: int, **views) -> Graph:
        """A graph built from valid data without :meth:`__post_init__`.

        The caller guarantees what ``__post_init__`` would check: ``n`` is a
        nonnegative int, ``edges`` a frozenset of ``(min, max)`` int pairs
        within ``0..n-1``, and ``loop_count`` exactly the number of self-loops
        among them.  ``views`` seeds cached views (``adjacency_masks``,
        ``traversal``), each equal to what the view would compute.
        """
        g = object.__new__(cls)
        vars(g).update(node_count=n, edges=edges, loop_count=loop_count, **views)
        return g

    @property
    def edge_count(self) -> int:
        """m, counting each self-loop as one edge."""
        return len(self.edges)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Adjacency matrix rows as int bitmasks: bit w of row v is A[v][w]."""
        masks = [0] * self.node_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def traversal(self) -> Traversal:
        """:func:`breadth_first` of this graph, run once."""
        return breadth_first(self.adjacency_masks)

    @property
    def nonzero_count(self) -> int:
        """Number of nonzero adjacency entries, always 2*m - s."""
        return 2 * self.edge_count - self.loop_count

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u <= v else (v, u)) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({self.node_count}, {self.sorted_edges()})"


def relabel(g: Graph, mapping: Sequence[int]) -> Graph:
    """Apply a node bijection: node v of ``g`` becomes ``mapping[v]``.

    The one check that a mapping is a permutation of 0..n-1.  Labels are read
    as :class:`Graph` reads endpoints, numpy integers included.  A dict or a
    set is rejected: it iterates its keys, not v's image at position v.
    """
    require_graphs("relabel", g)
    n = g.node_count
    try:
        mapping = None if isinstance(mapping, (Mapping, Set)) else list(map(index, mapping))
    except TypeError:  # not a sequence of integers
        mapping = None
    if mapping is None or sorted(mapping) != list(range(n)):
        raise PreconditionError("mapping must be a permutation of 0..n-1")
    return Graph(n, ((mapping[u], mapping[v]) for u, v in g.edges))


def require_graphs(caller: str, *graphs) -> None:
    """Raise :class:`PreconditionError` unless every one of ``graphs`` is a :class:`Graph`.

    Entry points call this before reading any attribute, so that a tuple or
    a duck-typed object never reaches a builder that trusts a graph's edges
    or a cache written on the instance.
    """
    for g in graphs:  # a loop, not all(): pad_pair runs this on every count-filter answer
        if not isinstance(g, Graph):
            raise PreconditionError(f"{caller} operands must be Graphs")


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; nodes of ``g2`` are shifted up by ``g1.node_count``.

    Both operands must be :class:`Graph` instances: their edges are valid,
    so the union is built without re-validating them.  A view that both
    operands have cached is inherited rather than recomputed: the union's
    ``adjacency_masks`` are g1's rows then g2's shifted by n1, and its
    ``traversal`` is g1's followed by g2's shifted, which is what
    :func:`breadth_first` gives, as it meets every component of g1 (least
    node below n1) before any of g2.  A view not cached on both is left
    to be computed on first use.
    """
    require_graphs("disjoint_union", g1, g2)
    n1 = g1.node_count
    edges = g1.edges.union([(u + n1, v + n1) for u, v in g2.edges])
    cached1, cached2, views = vars(g1), vars(g2), {}
    if "adjacency_masks" in cached1 and "adjacency_masks" in cached2:
        shifted = tuple(row << n1 for row in g2.adjacency_masks)
        views["adjacency_masks"] = g1.adjacency_masks + shifted
    if "traversal" in cached1 and "traversal" in cached2:
        (order1, starts1, coloring1), (order2, starts2, coloring2) = g1.traversal, g2.traversal
        views["traversal"] = Traversal(
            order1 + tuple(v + n1 for v in order2),
            starts1 + tuple(i + n1 for i in starts2),  # len(order1) == n1
            None if coloring1 is None or coloring2 is None else coloring1 + coloring2,
        )
    return Graph._derived(n1 + g2.node_count, edges, g1.loop_count + g2.loop_count, **views)


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Traversal(NamedTuple):
    order: tuple[int, ...]  # every node, in visiting order
    starts: tuple[int, ...]  # index in ``order`` of each component's first node
    coloring: tuple[int, ...] | None  # BFS depth parity; None on an odd cycle


def breadth_first(masks: Sequence[int]) -> Traversal:
    """One breadth-first pass over the graph with adjacency rows ``masks``.

    Components come in order of their smallest node, each searched from that
    node, with neighbours queued in ascending order.  A neighbour at the
    same depth parity closes an odd cycle; a self-loop is one.
    """
    order: list[int] = []
    starts = []
    seen = odd = clash = 0  # nodes queued; those at odd depth; odd-cycle ends
    for head in range(len(masks)):
        if head == len(order):  # queue empty: next smallest unseen node
            starts.append(head)
            low = (seen + 1) & ~seen
            seen |= low
            order.append(low.bit_length() - 1)
        u = order[head]
        nbrs = masks[u]
        fresh = nbrs & ~seen
        if odd >> u & 1:
            clash |= nbrs & odd
        else:
            clash |= nbrs & seen & ~odd
            odd |= fresh
        seen |= fresh
        while fresh:  # queued in ascending order; inlined, as this runs per graph
            low = fresh & -fresh
            order.append(low.bit_length() - 1)
            fresh ^= low
    coloring = None if clash else tuple(odd >> v & 1 for v in range(len(masks)))
    return Traversal(tuple(order), tuple(starts), coloring)


def is_connected(g: Graph) -> bool:
    """True iff the graph has one component.  Rejects empty graphs."""
    require_graphs("is_connected", g)
    if g.node_count == 0:
        raise PreconditionError("connectivity is undefined for the empty graph")
    return len(g.traversal.starts) == 1


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest node."""
    require_graphs("connected_components", g)
    order, starts, _ = g.traversal
    return [sorted(order[i:j]) for i, j in zip(starts, starts[1:] + (len(order),))]


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> Graph:
    """Subgraph on ``nodes``, distinct nodes of ``g``, renumbered by their position.

    A set or a dict is rejected: a set has no positions, and a dict iterates
    its keys.
    """
    require_graphs("induced_subgraph", g)
    if isinstance(nodes, (Mapping, Set)):
        raise PreconditionError("nodes must be a sequence or an iterator, not a set or a mapping")
    try:  # read once, as an iterator would be used up
        nodes = list(map(index, nodes))
    except TypeError:  # not an iterable of integers
        raise PreconditionError("nodes must be integers") from None
    position = {v: i for i, v in enumerate(nodes)}
    if len(position) != len(nodes):
        raise PreconditionError("nodes must be distinct")
    for v in position:
        if not 0 <= v < g.node_count:
            raise PreconditionError(f"node {v} out of range for {g.node_count} nodes")
    edges = ((position[u], position[v]) for u, v in g.edges if u in position and v in position)
    return Graph(len(nodes), edges)


def bipartition(g: Graph) -> list[int] | None:
    """A proper 2-coloring as a 0/1 list, or None if none exists.

    A node's color is the parity of its distance from the smallest node of
    its component.  Any self-loop is an odd cycle of length one, so loopy
    graphs are never bipartite.
    """
    require_graphs("bipartition", g)
    coloring = g.traversal.coloring
    return None if coloring is None else list(coloring)


def is_bipartite(g: Graph) -> bool:
    """True iff the graph admits a proper 2-coloring."""
    require_graphs("is_bipartite", g)
    return g.traversal.coloring is not None


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric 0/1 matrix; a self-loop is a single 1 on the diagonal.

    Needs numpy: ``pip install "graphprod[arrays]"``.
    """
    require_graphs("adjacency_matrix", g)
    import numpy as np

    n = g.node_count
    mat = np.zeros((n, n), dtype=np.uint8)
    for u, v in g.edges:
        mat[u, v] = 1
        mat[v, u] = 1
    return mat


def graph_from_adjacency(mat: np.ndarray) -> Graph:
    """Inverse of :func:`adjacency_matrix`; validates symmetry and 0/1 entries.

    Needs numpy: ``pip install "graphprod[arrays]"``.
    """
    import numpy as np

    try:
        mat = np.asarray(mat)
    except ValueError:  # a ragged nested sequence
        raise PreconditionError("adjacency matrix must be square") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise PreconditionError("adjacency matrix must be square")
    if not np.array_equal(mat, mat.T):
        raise PreconditionError("adjacency matrix must be symmetric")
    if not np.isin(mat, (0, 1)).all():
        raise PreconditionError("adjacency entries must be 0 or 1")
    n = mat.shape[0]
    return Graph(n, ((u, v) for u, v in zip(*np.nonzero(mat)) if u <= v))


# --- edge-list text format -------------------------------------------------
#
# line 1:               "n m"
# following m lines:    "u v"   (0-based, "u u" for a self-loop)
# Blank lines and lines beginning with "#" (comments) are skipped anywhere.
# Writers emit edges sorted by (min, max).


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text; raises :class:`EdgeListParseError` on bad input.

    The first content line is the header; the rest are read as edges of the
    ``n`` nodes it announces.  A header announcing more than
    :data:`MAX_HEADER_NODES` nodes raises :class:`SizeLimitError` before
    anything is sized by n.
    """
    if not isinstance(text, str):
        raise EdgeListParseError("edge-list text must be a str", 0)
    content = (
        (lineno, line.split())
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    )
    lineno, parts = next(content, (1, None))
    if parts is None:
        raise EdgeListParseError("missing 'n m' header", lineno)
    if len(parts) != 2:
        raise EdgeListParseError("header must be 'n m'", lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListParseError("header must hold two integers", lineno) from None
    if n < 0 or m < 0:
        raise EdgeListParseError("counts must be nonnegative", lineno)
    if n > MAX_HEADER_NODES:
        raise SizeLimitError(
            f"line {lineno}: header announces {n} nodes, above the "
            f"{MAX_HEADER_NODES}-node ceiling"
        )
    edges: set[Edge] = set()
    for lineno, parts in content:
        if len(edges) == m:
            raise EdgeListParseError("more edge lines than the header announced", lineno)
        if len(parts) != 2:
            raise EdgeListParseError("edge line must be 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError("edge endpoints must be integers", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"endpoint out of range 0..{n - 1}", lineno)
        edge = (u, v) if u <= v else (v, u)
        if edge in edges:
            raise EdgeListParseError(f"duplicate edge {edge}", lineno)
        edges.add(edge)
    if len(edges) != m:
        raise EdgeListParseError(f"header announced {m} edges, found {len(edges)}", 1)
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    """Canonical edge-list text for ``g`` (edges sorted by (min, max))."""
    require_graphs("format_edge_list", g)
    lines = [f"{g.node_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def _require_path(path) -> None:
    """Raise :class:`PreconditionError` unless ``path`` is a NUL-free str, bytes or ``os.PathLike``.

    ``open`` takes an int (a bool included) as a file descriptor, and closes
    it afterwards: ``write_edge_list(g, 1)`` would write to stdout and close it.
    A NUL in the path would end in ``open``'s own ``ValueError``.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        kind = type(path).__name__
        raise PreconditionError(f"path must be a str, bytes or os.PathLike, not {kind}")
    if "\0" in os.fsdecode(path):
        raise PreconditionError("path must not contain a NUL")


def read_edge_list(path) -> Graph:
    """Parse an edge-list file; bytes that are not UTF-8 raise :class:`EdgeListParseError`.

    One leading UTF-8 byte-order mark, as some editors write, is ignored.
    A ``path`` that is not a str, bytes or ``os.PathLike``, or that holds a
    NUL, raises :class:`PreconditionError`.
    """
    _require_path(path)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number lines as parse_edge_list does; the bytes before exc.start decode.
        line = len((data[: exc.start] + b"x").decode("utf-8").splitlines())
        raise EdgeListParseError(f"not UTF-8 text (byte {exc.start})", line) from None
    # Decoded as plain utf-8, not utf-8-sig, so exc.start above stays a file offset.
    return parse_edge_list(text.removeprefix("\ufeff"))


def write_edge_list(g: Graph, path) -> None:
    """Write ``format_edge_list(g)`` to ``path``, a NUL-free str, bytes or ``os.PathLike``.

    Both arguments are checked, and the text built, before ``path`` is
    opened, so a call that fails leaves an existing file as it was.
    """
    require_graphs("write_edge_list", g)
    _require_path(path)
    text = format_edge_list(g)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
