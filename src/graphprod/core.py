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

Per-graph data is computed once and cached on the graph: adjacency rows as
bitmasks (``Graph.adjacency_masks``), the one adjacency view, and one pass of
:func:`breadth_first` over them (``Graph.traversal``), for connectivity,
components and bipartiteness.

Every algorithm runs on these plain Python views.  numpy is imported only
by the array helpers :func:`adjacency_matrix` and
:func:`graph_from_adjacency`, on first call, so importing the package does
not load it.
"""

from __future__ import annotations

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

    ``node_count`` and the endpoints of ``edges`` may be any integers, numpy's
    too, and are stored as Python ints; anything else is a precondition
    error.  Edges are normalized to ``(min, max)`` tuples on construction,
    which also counts ``loop_count``, s, the number of self-loops.  Two
    views are computed on first use and cached on the instance:
    ``adjacency_masks`` and the ``traversal`` built from it.
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
    as :class:`Graph` reads endpoints, numpy integers included.
    """
    n = g.node_count
    try:
        mapping = list(map(index, mapping))
    except TypeError:  # not a sequence of integers
        mapping = None
    if mapping is None or sorted(mapping) != list(range(n)):
        raise PreconditionError("mapping must be a permutation of 0..n-1")
    return Graph(n, frozenset((mapping[u], mapping[v]) for u, v in g.edges))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; nodes of ``g2`` are shifted up by ``g1.node_count``."""
    n1 = g1.node_count
    edges = set(g1.edges)
    edges.update((u + n1, v + n1) for u, v in g2.edges)
    return Graph(n1 + g2.node_count, frozenset(edges))


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
    if g.node_count == 0:
        raise PreconditionError("connectivity is undefined for the empty graph")
    return len(g.traversal.starts) == 1


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest node."""
    order, starts, _ = g.traversal
    return [sorted(order[i:j]) for i, j in zip(starts, starts[1:] + (len(order),))]


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> Graph:
    """Subgraph on ``nodes``, distinct nodes of ``g``, renumbered by their position."""
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
    edges = {(position[u], position[v]) for u, v in g.edges if u in position and v in position}
    return Graph(len(nodes), frozenset(edges))


def bipartition(g: Graph) -> list[int] | None:
    """A proper 2-coloring as a 0/1 list, or None if none exists.

    A node's color is the parity of its distance from the smallest node of
    its component.  Any self-loop is an odd cycle of length one, so loopy
    graphs are never bipartite.
    """
    coloring = g.traversal.coloring
    return None if coloring is None else list(coloring)


def is_bipartite(g: Graph) -> bool:
    """True iff the graph admits a proper 2-coloring."""
    return g.traversal.coloring is not None


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric 0/1 matrix; a self-loop is a single 1 on the diagonal."""
    import numpy as np

    n = g.node_count
    mat = np.zeros((n, n), dtype=np.uint8)
    for u, v in g.edges:
        mat[u, v] = 1
        mat[v, u] = 1
    return mat


def graph_from_adjacency(mat: np.ndarray) -> Graph:
    """Inverse of :func:`adjacency_matrix`; validates symmetry and 0/1 entries."""
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
    edges = {(int(u), int(v)) for u, v in zip(*np.nonzero(mat)) if u <= v}
    return Graph(n, frozenset(edges))


# --- edge-list text format -------------------------------------------------
#
# line 1:               "n m"
# following m lines:    "u v"   (0-based, "u u" for a self-loop)
# Blank lines and lines beginning with "#" (comments) are skipped anywhere.
# Writers emit edges sorted by (min, max).


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text; raises :class:`EdgeListParseError` on bad input.

    A header announcing more than :data:`MAX_HEADER_NODES` nodes raises
    :class:`SizeLimitError` before anything is sized by n.
    """
    if not isinstance(text, str):
        raise EdgeListParseError("edge-list text must be a str", 0)
    header: tuple[int, int] | None = None
    edges: set[Edge] = set()
    expected = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
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
            header = (n, m)
            expected = m
            continue
        if len(edges) == expected:
            raise EdgeListParseError("more edge lines than the header announced", lineno)
        if len(parts) != 2:
            raise EdgeListParseError("edge line must be 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError("edge endpoints must be integers", lineno) from None
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"endpoint out of range 0..{n - 1}", lineno)
        edge = (u, v) if u <= v else (v, u)
        if edge in edges:
            raise EdgeListParseError(f"duplicate edge {edge}", lineno)
        edges.add(edge)
    if header is None:
        raise EdgeListParseError("missing 'n m' header", 1)
    if len(edges) != expected:
        raise EdgeListParseError(
            f"header announced {expected} edges, found {len(edges)}", 1
        )
    return Graph(header[0], frozenset(edges))


def format_edge_list(g: Graph) -> str:
    """Canonical edge-list text for ``g`` (edges sorted by (min, max))."""
    lines = [f"{g.node_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Graph:
    """Parse an edge-list file; bytes that are not UTF-8 raise :class:`EdgeListParseError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number lines as parse_edge_list does; the bytes before exc.start decode.
        line = len((data[: exc.start] + b"x").decode("utf-8").splitlines())
        raise EdgeListParseError(f"not UTF-8 text (byte {exc.start})", line) from None
    return parse_edge_list(text)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
