"""Exact graph isomorphism by individualisation-refinement backtracking.

This is a desk-scale decision procedure, not a canonical-labelling engine:
refinement is used only to prune (McKay & Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 60, 2014).

The search refines one ordered partition of the disjoint union g1 ⊔ g2,
whose node v is node v of g1 and whose node ``n + w`` is node w of g2 (n
is g1's order).  Every cell is balanced: it holds as many nodes of g1 as
of g2.

Refinement makes the partition equitable: every node of a cell has the same
number of neighbours in each cell.  It runs from a queue of splitter cells.
Splitting by cell S counts, for the neighbours of S's nodes only, how many
neighbours each has in S, and splits each touched cell by that count.  A
fragment that is not balanced means that no isomorphism respects the
partition, and refinement reports divergence.  Of a cell's fragments the
largest keeps the cell and the others are queued as new cells; the largest
need not be, since its counts are the whole cell's minus the others'
(Hopcroft's rule, as in McKay, Congr. Numer. 30, 1981).  The same routine
computes the initial partition from the split of the cell of all nodes by
(degree, loop): the coarsest equitable one, which round-based colour
refinement (1-WL) reaches too.

The backtracker maps the nodes of the first graph in a fixed order: smallest
initial cell first, among the neighbours of placed nodes while any is
unplaced.  Placing v at w individualises them: both move to one fresh cell,
which is the only splitter queued, and refinement runs again.  If it
diverges the branch is pruned; otherwise the next node's candidates are the
g2 members of its refined cell, tried in ascending order.  A node whose cell
is already a singleton (every node, once the partition is discrete) is
placed without refining.  When every node is placed the partition is
discrete and equitable, so the cells pair the nodes by an isomorphism;
:func:`is_isomorphism` re-verifies it anyway.

Every cell split off is pushed on a trail, as the number of the cell it
came from, and backtracking pops the trail down to the depth's mark, merging
each back; no depth copies the partition.  A depth the search backs into
resumes after the image its node held, read from the mapping itself, so the
search is one loop over depths, not bounded by Python's recursion limit.

The witness does not depend on the prune.  Refinement decides every split
from counts and cell numbers alone, so an isomorphism that puts each node v
of g1 in the cell of its image ``n + w`` still does after each split, and
after placing v at w if it maps v to w.  Pruning a divergent branch and
skipping candidates outside the refined cell therefore remove only partial
maps that no isomorphism extends.  With the node order and the in-cell
candidate order fixed, the search returns the same first isomorphism as a
backtracker that checks edges alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Sequence

from .core import (
    Graph,
    InternalError,
    PreconditionError,
    bits,
    check_node_limit,
    relabel,
)

DEFAULT_NODE_LIMIT = 16


@dataclass(frozen=True)
class IsomorphismWitness:
    """A node bijection carrying g1 onto g2: node v of g1 maps to mapping[v]."""

    mapping: tuple[int, ...]


def is_isomorphism(g1: Graph, g2: Graph, mapping: Sequence[int]) -> bool:
    """True iff ``mapping`` sends the edge set of g1 exactly onto g2's."""
    try:
        return g1.node_count == g2.node_count and relabel(g1, mapping).edges == g2.edges
    except PreconditionError:  # not a permutation of g1's nodes
        return False


class _Partition:
    """One ordered partition of the nodes of g1 ⊔ g2, refined from a splitter queue.

    Node v of g1 is union node v and node w of g2 is union node ``n + w``.
    ``members[c]`` is the bitmask of cell c, ``cell[x]`` the cell of union
    node x and ``adj`` the union's adjacency lists.  It starts as cell 0,
    holding every node.  Every cell holds as many nodes of g1 as of g2; a
    piece that does not is a divergence.  A split appends new cells at the
    end; ``trail`` holds the cell each of them came from, in order, so
    :meth:`undo` can merge the last ones back.
    """

    def __init__(self, n: int, adj: Sequence[Sequence[int]]):
        self.n, self.adj = n, adj
        self.cell = [0] * len(adj)
        self.members = [(1 << len(adj)) - 1]
        self.trail: list[int] = []

    def refine(self, queue: deque[int]) -> bool:
        """Split by the queued cells until equitable; False on an unbalanced fragment.

        Cells met before that fragment may already be split; :meth:`undo`
        merges them back.
        """
        members, n = self.members, self.n
        while queue:
            touched = _fragments(members[queue.popleft()], self.adj, self.cell)
            for c, by in touched.items():
                rest = members[c]
                for part in by.values():
                    if 2 * (part >> n).bit_count() != part.bit_count():
                        return False
                    rest ^= part
                if len(by) == 1 and not rest:
                    continue  # every node of c has the same count: no split
                pieces = [rest] if rest else []
                self._split(c, pieces + [by[k] for k in sorted(by)], queue)
        return True

    def _split(self, c: int, pieces: list[int], queue: deque[int]) -> None:
        """Split cell c into ``pieces``, in count order, and queue the new cells.

        The largest piece (the first of equal size) keeps c; the others need
        to be splitters and it does not, since its counts are those of all
        of c minus theirs (Hopcroft's rule).
        """
        sizes = [part.bit_count() for part in pieces]
        keep = sizes.index(max(sizes))
        self.members[c] = pieces[keep]
        for i, part in enumerate(pieces):
            if i == keep:
                continue
            d = len(self.members)
            self.members.append(part)
            for x in bits(part):
                self.cell[x] = d
            self.trail.append(c)
            queue.append(d)

    def place(self, v: int, w: int) -> bool:
        """Individualise v of g1 and w of g2 (in the same cell) and refine; False on divergence."""
        c = self.cell[v]
        pair = 1 << v | 1 << self.n + w
        if self.members[c] == pair:  # already a singleton: stays equitable
            return True
        queue: deque[int] = deque()
        self._split(c, [self.members[c] ^ pair, pair], queue)
        return self.refine(queue)

    def undo(self, mark: int) -> None:
        """Merge every split made after the trail had ``mark`` entries."""
        trail, members, cell = self.trail, self.members, self.cell
        while len(trail) > mark:
            c = trail.pop()
            part = members.pop()
            members[c] |= part
            for x in bits(part):
                cell[x] = c


def _fragments(
    splitter: int, adj: Sequence[Sequence[int]], cell: list[int]
) -> dict[int, dict[int, int]]:
    """For each cell touched by the neighbours of ``splitter``: count -> node mask.

    The count of a node is its number of neighbours in ``splitter``; nodes
    of a touched cell missing from its dict have none.
    """
    count: dict[int, int] = {}
    while splitter:
        low = splitter & -splitter
        for x in adj[low.bit_length() - 1]:
            count[x] = count.get(x, 0) + 1
        splitter ^= low
    touched: dict[int, dict[int, int]] = {}
    for x, k in count.items():
        by = touched.get(cell[x])
        if by is None:
            touched[cell[x]] = {k: 1 << x}
        else:
            by[k] = by.get(k, 0) | 1 << x
    return touched


def _equitable_partition(g1: Graph, g2: Graph) -> _Partition | None:
    """The equitable partition of g1 ⊔ g2 seeded by (degree, loop); None on divergence.

    The seed is the one count test.  If every (degree, loop) cell is balanced,
    g1 and g2 have equal orders n, equal loop counts s and, as each graph's
    degrees sum to 2m - s, equal edge counts m.  So graphs that differ in any
    of these return None before any :class:`_Partition` is built.
    """
    n = g1.node_count
    adj: list[list[int]] = [[] for _ in range(n + g2.node_count)]
    for shift, g in ((0, g1), (n, g2)):
        for u, v in g.edges:  # a loop is listed once, in its own list, as in the mask rows
            adj[u + shift].append(v + shift)
            if u != v:
                adj[v + shift].append(u + shift)
    # the seed parts looped from loop-free nodes, so a loop adds 1 to every count of its cell
    groups: dict[tuple[int, bool], int] = {}
    for x, nbrs in enumerate(adj):
        key = (len(nbrs), x in nbrs)
        groups[key] = groups.get(key, 0) | 1 << x
    pieces = [groups[key] for key in sorted(groups)]
    if any(2 * (m >> n).bit_count() != m.bit_count() for m in pieces):
        return None
    part = _Partition(n, adj)
    queue: deque[int] = deque()
    part._split(0, pieces, queue)  # the degree seed is the split by the whole node set
    return part if part.refine(queue) else None


def _processing_order(adj: Sequence[Sequence[int]], sizes: list[int]) -> list[int]:
    """Most-constrained-first order that stays connected where possible.

    The next node is the smallest unplaced node by ``(sizes[v], v)`` in the
    frontier (the neighbours of placed nodes), or overall if that is empty:
    one heap holds each node as ``(1, size, v)``, and as ``(0, size, v)``
    each time it joins the frontier; entries of placed nodes are skipped.
    """
    order: list[int] = []
    placed = [False] * len(adj)
    heap = [(1, size, v) for v, size in enumerate(sizes)]
    heapify(heap)
    while len(order) < len(adj):
        best = heappop(heap)[2]
        if placed[best]:
            continue
        order.append(best)
        placed[best] = True
        for w in adj[best]:
            if not placed[w]:
                heappush(heap, (0, sizes[w], w))
    return order


def are_isomorphic(
    g1: Graph, g2: Graph, *, node_limit: int | None = DEFAULT_NODE_LIMIT
) -> IsomorphismWitness | None:
    """Search for an isomorphism g1 -> g2; None if the graphs differ.

    Empty inputs raise :class:`PreconditionError`.  Graphs larger than
    ``node_limit`` raise :class:`SizeLimitError`; pass ``node_limit=None``
    to lift the bound.  Graphs whose orders, edge counts or loop counts
    differ are told apart by the (degree, loop) seed of
    :func:`_equitable_partition`, before any placement.
    """
    if g1.node_count == 0 or g2.node_count == 0:
        raise PreconditionError("isomorphism is undefined for the empty graph")
    check_node_limit(max(g1.node_count, g2.node_count), node_limit, "input")
    n = g1.node_count
    part = _equitable_partition(g1, g2)
    if part is None:
        return None
    cell, members = part.cell, part.members
    order = _processing_order(part.adj[:n], [members[cell[v]].bit_count() // 2 for v in range(n)])

    mapping = [-1] * n  # -1 while unplaced, and on entering a depth afresh
    mark = [0] * n  # trail length when each depth was entered
    idx = 0
    while 0 <= idx < n:
        v = order[idx]
        if mapping[v] >= 0:  # back at v: take its placement back
            part.undo(mark[idx])
        mark[idx] = len(part.trail)
        # candidates up to v's last image are tried; read from the restored partition
        rest = members[cell[v]] >> n & (-1 << mapping[v] + 1)
        while rest:
            bit = rest & -rest
            w = bit.bit_length() - 1
            if part.place(v, w):
                break
            part.undo(mark[idx])
            rest ^= bit
        else:  # no candidate left for v: backtrack
            mapping[v] = -1
            idx -= 1
            continue
        mapping[v] = w
        idx += 1
    if idx < 0:
        return None
    witness = IsomorphismWitness(tuple(mapping))
    if not is_isomorphism(g1, g2, witness.mapping):
        raise InternalError("isomorphism search produced a witness that fails re-verification")
    return witness
