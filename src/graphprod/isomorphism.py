"""Exact graph isomorphism by refinement-guided backtracking.

This is a desk-scale decision procedure, not a canonical-labelling engine.
Nodes are first partitioned by iterated neighborhood refinement (degree and
loop status seeded, then neighbor-color multisets to a fixed point); the
backtracker then maps nodes of the first graph onto same-color candidates of
the second.

The backtracker works on :attr:`Graph.adjacency_masks`, the rows of the
adjacency matrix as int bitmasks.  It keeps ``image``, the mask of nodes of
the second graph already used, and for every node v of the first graph
``need[v]``, the mask of the images of v's mapped neighbours.  A candidate w
fits v iff w is not in ``image`` and ``masks2[w] & image == need[v]``: the
edges from w to the mapped nodes are exactly the images of the edges from v,
checked in O(1) big-int operations (the bit-parallel candidate filtering of
VF2, Cordella et al., IEEE TPAMI 2004).  Placing v at w XORs bit w into
``need[u]`` for each neighbour u of v, and the undo is the same XOR.  Each
refinement cell is a node bitmask, so a depth's untried candidates are
``cell & ~image`` above its cursor; the cursors form an explicit stack, so
the depth is not bounded by Python's recursion limit.

Candidates are tried in ascending node order inside each refinement cell and
the node processing order is itself deterministic, so a successful search
always returns the same witness for the same inputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Sequence

from .core import Graph, InternalError, SizeLimitError, neighbor_lists, relabel

DEFAULT_NODE_LIMIT = 16


@dataclass(frozen=True)
class IsomorphismWitness:
    """A node bijection carrying g1 onto g2: node v of g1 maps to mapping[v]."""

    mapping: tuple[int, ...]


def is_isomorphism(g1: Graph, g2: Graph, mapping: Sequence[int]) -> bool:
    """True iff ``mapping`` sends the edge set of g1 exactly onto g2's."""
    if g1.node_count != g2.node_count or len(mapping) != g1.node_count:
        return False
    if sorted(mapping) != list(range(g1.node_count)):
        return False
    return relabel(g1, list(mapping)).edges == g2.edges


def _recolor(sig1: list, sig2: list) -> tuple[list[int], list[int]]:
    """Number the signatures of both graphs jointly, in sorted order."""
    palette = {s: i for i, s in enumerate(sorted(set(sig1) | set(sig2)))}
    return [palette[s] for s in sig1], [palette[s] for s in sig2]


def _refine(
    g1: Graph, g2: Graph, adj1: list[list[int]], adj2: list[list[int]]
) -> tuple[list[int], list[int]] | None:
    """Joint color refinement; None if the color histograms ever diverge."""
    n = g1.node_count
    colors1, colors2 = _recolor(
        [(len(adj1[v]), (v, v) in g1.edges) for v in range(n)],
        [(len(adj2[v]), (v, v) in g2.edges) for v in range(n)],
    )
    # each round either splits a color class or reaches the fixed point
    while Counter(colors1) == Counter(colors2):
        if len(set(colors1)) == n:
            return colors1, colors2
        new1, new2 = _recolor(
            [(colors1[v], tuple(sorted(colors1[w] for w in adj1[v]))) for v in range(n)],
            [(colors2[v], tuple(sorted(colors2[w] for w in adj2[v]))) for v in range(n)],
        )
        if new1 == colors1 and new2 == colors2:
            return colors1, colors2
        colors1, colors2 = new1, new2
    return None


def _processing_order(adj: list[list[int]], sizes: list[int]) -> list[int]:
    """Most-constrained-first order that stays connected where possible.

    The next node is the unplaced frontier node (a neighbour of a placed
    node) with the smallest ``(sizes[v], v)``, or the smallest
    unplaced node by that key when the frontier is empty.  Both pools are
    heaps; an entry for a node already placed is stale and skipped.
    """
    n = len(adj)
    order: list[int] = []
    placed = [False] * n
    rest = [(sizes[v], v) for v in range(n)]
    heapify(rest)
    frontier: list[tuple[int, int]] = []
    while len(order) < n:
        while frontier and placed[frontier[0][1]]:
            heappop(frontier)
        pool = frontier or rest
        while placed[pool[0][1]]:
            heappop(pool)
        best = heappop(pool)[1]
        order.append(best)
        placed[best] = True
        for w in adj[best]:
            if not placed[w]:
                heappush(frontier, (sizes[w], w))
    return order


def are_isomorphic(
    g1: Graph, g2: Graph, *, node_limit: int | None = DEFAULT_NODE_LIMIT
) -> IsomorphismWitness | None:
    """Search for an isomorphism g1 -> g2; None if the graphs differ.

    Inputs must be nonempty.  Graphs larger than ``node_limit`` raise
    :class:`SizeLimitError`; pass ``node_limit=None`` to lift the bound.
    """
    if g1.node_count == 0 or g2.node_count == 0:
        raise ValueError("isomorphism search requires nonempty graphs")
    if node_limit is not None and max(g1.node_count, g2.node_count) > node_limit:
        raise SizeLimitError(
            f"inputs exceed the {node_limit}-node bound; raise node_limit to proceed"
        )
    n = g1.node_count
    if g2.node_count != n:
        return None
    if g1.edge_count != g2.edge_count or g1.loop_count != g2.loop_count:
        return None

    adj1 = neighbor_lists(g1)
    refined = _refine(g1, g2, adj1, neighbor_lists(g2))
    if refined is None:
        return None
    colors1, colors2 = refined

    cells: dict[int, int] = {}  # node mask of each color class of g2
    for w in range(n):
        cells[colors2[w]] = cells.get(colors2[w], 0) | 1 << w
    candidates = [cells.get(colors1[v], 0) for v in range(n)]
    if not all(candidates):
        return None
    order = _processing_order(adj1, [c.bit_count() for c in candidates])

    masks2 = g2.adjacency_masks
    mapping = [-1] * n
    need = [0] * n
    image = 0
    start = [0] * n  # candidates below this node are already tried at each depth
    idx = 0
    while 0 <= idx < n:
        v = order[idx]
        if mapping[v] >= 0:  # back at v: take its placement back
            bit = 1 << mapping[v]
            image ^= bit
            for u in adj1[v]:
                need[u] ^= bit
            mapping[v] = -1
        rest = candidates[v] & ~image & (-1 << start[idx])
        while rest:
            bit = rest & -rest
            w = bit.bit_length() - 1
            if masks2[w] & image == need[v]:
                break
            rest ^= bit
        else:  # no candidate left for v: backtrack
            start[idx] = 0
            idx -= 1
            continue
        start[idx] = w + 1
        mapping[v] = w
        image |= bit
        for u in adj1[v]:
            need[u] ^= bit
        idx += 1
    if idx < 0:
        return None
    witness = IsomorphismWitness(tuple(mapping))
    if not is_isomorphism(g1, g2, witness.mapping):
        raise InternalError("isomorphism search produced a witness that fails re-verification")
    return witness
