"""Direct-product factor search, primality testing, and union factorizations.

The factor search answers: can graph g be relabelled so that its adjacency
matrix becomes A (x) B for some graphs A (order a) and B (order b)?  The
left order a never exceeds the square root of the node count, so the left
factors are listed outright, in one table per order built on first use with
one record per isomorphism class (6, 20, 90 and 544 for a = 2, 3, 4, 5, of
8, 64, 1024 and 32768 symmetric 0/1 matrices).  Each record holds A as a
:class:`~graphprod.core.Graph`, which is the ``factor_a`` of every witness
found through it, and reads the rest off that graph's cached views; a
``fixed_a`` matrix is read into such a Graph first.  In ascending bitmask
order, the first matrix not yet seen is the smallest of its class, the one
Read's orderly generation picks (Ann. Discrete Math. 2, 1978); one pass
over its a! row permutations marks the class as seen and gives the orbits
of Aut(A) on rows.  Counting filters on the records discard most classes
before any engine is built: loop counts must factor, a bipartite A cannot
produce a nonbipartite g, and row sums must multiply out.  Vertex (r, c) of
A (x) B has row sum rowsum_A(r) * rowsum_B(c), so g's row sums must be the
multiset {ar * s}, with ar over A's row sums and s over some multiset S of
b values in 0..b.  One greedy peel decides this exactly: each zero row of A
takes b zeros, and then the smallest sum left must be low * min(S), with
low the smallest nonzero row sum of A, so it fixes the next s and the
products it forces (the proof is in :func:`_row_sums_factor`).  The rule
implies the older totals: nnz(g) = nnz(A) * sum(S) with sum(S) <= b * b,
and a zero row of A needs b isolated vertices in g.  Two symmetry rules
follow:

* only the smallest bitmask of each isomorphism class is searched;
* the first vertex placed tries only the smallest row of each orbit of
  Aut(A) on rows (only row 0 when Aut(A) is transitive on rows).

Neither rule changes the witness returned.  If P permutes rows, then
(P A P^T) (x) B is a relabelling of A (x) B, so an isomorphic copy of A
factors g exactly when A does, and the counting filters, which depend on A
only up to isomorphism, treat both alike.  The class representative comes
first in ascending order: if it succeeds the search stops before the copy,
and if it fails the copy fails too.  Likewise, an automorphism of A carrying
row r to row r' carries a complete labelling with the first vertex in row r'
to one with it in row r, at the same column and with the same B, so a later
row of an orbit succeeds only if the orbit's smallest row, tried earlier,
does.  ``fixed_a`` pins one exact matrix: the first rule does not apply
there, the second does.

Everything the search needs from g itself is cached on the graph (see
:class:`graphprod.core.Graph`), so every split and every candidate A of one
graph share it: adjacency rows as bitmasks, from which row sums, loop flags,
the isolated-vertex count and each vertex's placed neighbours are read, and
the breadth-first vertex order.  For each surviving A the engine backtracks
over assignments of (row, col) labels to g's vertices.  Each row of B is a
pair of column bitmasks (cells known to be 1, cells known to be 0),
committed lazily as placements force them and undone exactly on backtrack.
When a vertex's turn comes, one pass over its placed neighbours gives, per
row r of A, the mask of columns whose row-r occupant is a neighbour, so
checking each of its placements against every placed vertex costs O(a)
big-int operations.  Three prunings keep exhaustive searches on ~20-node
graphs inside desk scale, and each removes only branches that cannot
complete, so they never change which witness is found first:

* row sums multiply in a Kronecker product, so a vertex may only sit in
  row r if its adjacency row sum is divisible by A's row-r sum;
* once column c holds a vertex in a row with nonzero A row sum, B's row-c
  sum is fixed, and vertex v may sit at (r, c) only if
  rowsum(v) == rowsum_A(r) * rowsum_B(c);
* untouched columns of B are interchangeable, so column candidates are the
  already-used ones plus the first fresh column.

Vertices are placed component by component in breadth-first order.

:func:`find_factorization` searches each divisor split, in increasing left
order, through :func:`factor_search`.  Before the first split it asks
:func:`graphprod.skeleton.certifies_prime` for a polynomial proof of
primality when g is connected and nonbipartite.  The certificate runs on
the quotient g/R, which merges vertices with equal neighbourhoods (twins),
and reads the Cartesian skeleton of that quotient.  It is sound (the
argument is in that module), so it only prunes: a certified graph has no
witness to miss, and any other graph is searched exactly as before, so no
witness changes.  Bipartite and disconnected inputs, and every
:func:`factor_search` call, always search.

Searches are deterministic: identical inputs explore candidates in the same
order and return identical witnesses.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import accumulate, compress, permutations, product
from math import isqrt
from operator import index, itemgetter, or_
from typing import NamedTuple

from .core import (
    Graph,
    InternalError,
    PreconditionError,
    as_int,
    as_int_pairs,
    bits,
    check_node_limit,
    disjoint_union,
    is_bipartite,
    is_connected,
    require_graphs,
)
from .isomorphism import IsomorphismWitness, is_isomorphism
from .products import kronecker_rows
from .skeleton import certifies_prime

DEFAULT_NODE_LIMIT = 20

# The two-node left factors of the reduction.  D2 (two looped nodes) has
# matrix I2, and D2 x G = G u G; K2's matrix makes every product bipartite.
# D2 itself is read from I2_MATRIX below, by the fixed_a reader.
I2_MATRIX = ((1, 0), (0, 1))
K2_MATRIX = ((0, 1), (1, 0))


class FactorizationWitness(NamedTuple):
    """Factor pair plus the vertex labeling proving g = direct(factor_a, factor_b).

    ``labeling[v] == (r, c)`` places vertex v of the factored graph at row r
    of factor_a and column c of factor_b, i.e. at product index ``r * b + c``.

    As a named tuple it also unpacks, indexes and compares equal to the plain
    tuple of its fields.
    """

    factor_a: Graph
    factor_b: Graph
    labeling: tuple[tuple[int, int], ...]


def witness_is_valid(g: Graph, w: FactorizationWitness) -> bool:
    """Whether g, relabelled by the witness, is direct(factor_a, factor_b).

    False unless ``w`` has both factors as graphs and a labeling whose
    integer pairs cover range(a) x range(b) once each.  Each vertex v at
    (r, c) is then checked on bitmask rows: the labels r' * b + c' of v's
    neighbours must be exactly row r * b + c of A (x) B, as
    :func:`~graphprod.products.kronecker_rows` builds it from the factors'
    own adjacency.  A ``g`` that is not a :class:`Graph` raises
    :class:`PreconditionError`.
    """
    require_graphs("witness_is_valid", g)
    fa, fb, labeling = (getattr(w, name, None) for name in ("factor_a", "factor_b", "labeling"))
    if not (isinstance(fa, Graph) and isinstance(fb, Graph)):
        return False
    a, b = fa.node_count, fb.node_count
    if a < 2 or b < 2 or a * b != g.node_count:
        return False
    try:
        pairs = [(index(r), index(c)) for r, c in labeling]
    except (TypeError, ValueError):  # not a sequence of integer pairs
        return False
    if sorted(pairs) != list(product(range(a), range(b))):
        return False
    label = [r * b + c for r, c in pairs]
    expected = kronecker_rows(fa.adjacency_masks, fb.adjacency_masks)
    for mask, v_label in zip(g.adjacency_masks, label):
        moved = 0
        for u in bits(mask):
            moved |= 1 << label[u]
        if moved != expected[v_label]:
            return False
    return True


def witness_to_json(w: FactorizationWitness) -> dict:
    """Witness report: factor orders, factor edge lists, labeling pairs."""
    if not isinstance(w, FactorizationWitness):
        raise PreconditionError("witness_to_json needs a FactorizationWitness")
    require_graphs("witness_to_json", w.factor_a, w.factor_b)
    return {
        "a_order": w.factor_a.node_count,
        "b_order": w.factor_b.node_count,
        "a_edges": [list(e) for e in w.factor_a.sorted_edges()],
        "b_edges": [list(e) for e in w.factor_b.sorted_edges()],
        "labeling": as_int_pairs(w.labeling, "labeling must be pairs of integers"),
    }


def _axis(x) -> list:
    """The items of ``x`` if numpy reads ``x`` as an array axis, else ``[]``.

    Array-likes (numpy arrays and scalars) are read through ``__array__``,
    each item as an array, so the cell of an object array is never a further
    axis, whatever it holds.  Strings and bytes are scalars to numpy; sets,
    mappings and iterators become 0-d object arrays.
    """
    if hasattr(x, "__array__"):
        x = x.__array__()
        return [x[i, ...] for i in range(len(x))] if x.ndim else []
    if isinstance(x, Sequence) and not isinstance(x, (str, bytes)):
        return list(x)
    return []


def _check_fixed_a(fixed_a, a: int) -> Graph:
    """``fixed_a`` as a graph, read without numpy as ``numpy.asarray`` would."""
    rows = [_axis(row) for row in _axis(fixed_a)]
    if (
        len(rows) != a
        or any(len(row) != a for row in rows)
        or any(_axis(x) for row in rows for x in row)  # a third axis
    ):
        raise PreconditionError(f"fixed_a must be a {a}x{a} matrix")
    try:
        entries = tuple(tuple(1 if x == 1 else 0 if x == 0 else -1 for x in row) for row in rows)
    except ValueError:  # an array cell of several items has no truth value
        entries = ((-1,) * a,) * a
    if any(entries[i][j] < 0 or entries[i][j] != entries[j][i] for i in range(a) for j in range(a)):
        raise PreconditionError("fixed_a must be a symmetric 0/1 matrix")
    return Graph(a, ((i, j) for i in range(a) for j in range(i, a) if entries[i][j]))


D2 = _check_fixed_a(I2_MATRIX, 2)


# Bit k of a matrix's bitmask is its k-th upper-triangle cell, row by row.
# Its key lists the same cells from the most significant down, so keys
# compare as bitmasks do and itertools.product lists them in ascending order.
def _upper(a: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(a) for j in range(i, a)][::-1]


def _permuters(a: int) -> list:
    """Each row permutation P, with a getter from the flattened A to the key of P A P^T."""
    upper = _upper(a)
    return [
        (perm, itemgetter(*(perm[i] * a + perm[j] for i, j in upper)))
        for perm in permutations(range(a))
    ]


class _LeftFactor(NamedTuple):
    """One left factor A, with everything the counting filters and the search read.

    ``graph`` is A itself, the ``factor_a`` of every witness found through
    it; the other fields are read off its cached views.
    """

    graph: Graph
    first_rows: tuple[int, ...]  # the smallest row of each orbit of Aut(A) on rows
    loops: int
    bipartite: bool
    rowsums: tuple[int, ...]
    looped: tuple[int, ...]  # looped[r]: A[r][r]
    linked: tuple[tuple[int, ...], ...]  # linked[r]: the rows s with A[r][s] = 1
    unlinked: tuple[tuple[int, ...], ...]


def _left_factor(graph: Graph, permuters: list) -> tuple[_LeftFactor, set[tuple[int, ...]]]:
    """The record of A = ``graph`` and the keys of every P A P^T, over row permutations P."""
    a, masks = graph.node_count, graph.adjacency_masks
    flat = tuple(m >> s & 1 for m in masks for s in range(a))  # A, row by row
    images = [permute(flat) for _, permute in permuters]
    # the identity comes first; row r is the smallest of its orbit under the
    # automorphisms unless one of them carries it to a smaller row
    automorphisms = [perm for (perm, _), image in zip(permuters, images) if image == images[0]]
    first_rows = tuple(r for r in range(a) if all(perm[r] >= r for perm in automorphisms))
    record = _LeftFactor(
        graph,
        first_rows,
        graph.loop_count,
        is_bipartite(graph),
        tuple(m.bit_count() for m in masks),
        tuple(m >> r & 1 for r, m in enumerate(masks)),
        tuple(tuple(s for s in range(a) if m >> s & 1) for m in masks),
        tuple(tuple(s for s in range(a) if not m >> s & 1) for m in masks),
    )
    return record, set(images)


@lru_cache(maxsize=None)  # one entry per left order reached
def _left_factors(a: int) -> tuple[_LeftFactor, ...]:
    """One record per class of order-a left factors, for its first key in ascending order."""
    permuters, upper = _permuters(a), _upper(a)
    seen: set[tuple[int, ...]] = set()
    out = []
    for key in product((0, 1), repeat=len(upper)):
        if key not in seen:
            record, orbit = _left_factor(Graph(a, compress(upper, key)), permuters)
            seen |= orbit
            out.append(record)
    return tuple(out)


def _row_sums_factor(sums: Sequence[int], a_rowsums: Sequence[int], b: int) -> bool:
    """Whether the ascending row sums ``sums`` are the multiset {ar * s}.

    Here ar runs over ``a_rowsums`` and s over some multiset S of b values in
    0..b: exactly the row sums of A (x) B for some B of order b, since vertex
    (r, c) of the product has row sum rowsum_A(r) * rowsum_B(c).

    The peel is exact.  Each zero row of A gives b zeros whatever S is, so
    those are taken first.  What remains is {ar * s} over the nonzero ar,
    and its smallest element is low * min(S), with low the smallest nonzero
    ar, because ar * s >= low * s >= low * min(S) for each pair.  So the
    smallest value m left fixes s = m / low, which must be an integer of at
    most b, and the products ar * s over every nonzero row of A must all be
    present; removing them leaves the same question for S without s.  Every
    step is forced, so the peel fails only when no S exists, and a peel that
    consumes every sum builds S.
    """
    count: dict[int, int] = {}
    for m in sums:
        count[m] = count.get(m, 0) + 1
    nonzero = [ar for ar in a_rowsums if ar]
    count[0] = count.get(0, 0) - (len(a_rowsums) - len(nonzero)) * b
    if count[0] < 0:
        return False
    for m in sums:  # ascending, so a value still left is the smallest one left
        if count[m]:
            # if low does not divide m, low * s < m is used up and fails below
            s = m // min(nonzero)
            if s > b:
                return False
            for ar in nonzero:
                if not count.get(ar * s):
                    return False
                count[ar * s] -= 1
    return True


def _left_factor_feasible(
    left: _LeftFactor, g: Graph, g_bipartite: bool, sums: Sequence[int]
) -> bool:
    """Necessary conditions for g = A (x) B with this left factor.

    ``sums`` is g's row sums in ascending order.
    """
    b = g.node_count // left.graph.node_count
    loops_a, loops_g = left.loops, g.loop_count
    if loops_g > 0 and loops_a == 0:
        return False
    if loops_a > 0 and (loops_g % loops_a != 0 or loops_g // loops_a > b):
        return False
    # a bipartite left factor only produces bipartite products
    if left.bipartite and not g_bipartite:
        return False
    return _row_sums_factor(sums, left.rowsums, b)


class _FactorSearch:
    """Backtracking labeler for one fully specified left factor.

    Row k of B is two column bitmasks, ``ones[k]`` and ``zeros[k]``: the
    cells known to be 1 and known to be 0.  ``rows[x]`` and ``cols[x]``
    place vertex x; they are read only for placed vertices.  ``back[idx]``
    holds the neighbours of ``order[idx]`` placed before it, read from the
    adjacency rows once per engine, so each depth reads, once, which columns
    of each row of A hold a neighbour of the vertex it places.
    """

    def __init__(self, g: Graph, b: int, left: _LeftFactor):
        self.g = g
        self.a = a = left.graph.node_count
        self.b = b
        self.left = left
        # g's views, read on every placement, bound to the engine once
        self.order = order = g.traversal.order
        masks = g.adjacency_masks
        before = accumulate((1 << v for v in order), or_, initial=0)  # placed-prefix masks
        self.back = [tuple(bits(masks[v] & placed)) for v, placed in zip(order, before)]
        self.rowsums = [mask.bit_count() for mask in masks]
        # rows fixed by v and A alone: rowsum_A(r) must divide v's row sum (row
        # sums multiply across a Kronecker product), a looped v needs a looped
        # row, and the first vertex tries the smallest row of each orbit of Aut(A)
        self.allowed_rows = [
            [r for r, ar in enumerate(left.rowsums)
             if (d % ar == 0 and d // ar <= b if ar else d == 0)
             and (left.looped[r] or not masks[v] >> v & 1)
             and (v != order[0] or r in left.first_rows)]
            for v, d in enumerate(self.rowsums)
        ]
        n = g.node_count
        self.ones = [0] * b
        self.zeros = [0] * b
        self.occupied = [0] * a  # column mask per row of A
        # rowsum_B(c), fixed once column c holds a vertex in a row of A with
        # a nonzero row sum; -1 while unknown
        self.b_rowsums = [-1] * b
        self.rows = [-1] * n
        self.cols = [-1] * n

    def _toggle(self, r: int, c: int, new_one: int, new_zero: int) -> None:
        """Occupy (r, c) with the B cells it forces, or take that back.

        Every bit flipped is clear before placing, so one XOR does both.
        """
        bit = 1 << c
        ones, zeros = self.ones, self.zeros
        ones[c] ^= new_one & ~bit
        zeros[c] ^= new_zero & ~bit
        while new_one:  # B is symmetric: column c of every forced row
            low = new_one & -new_one
            ones[low.bit_length() - 1] ^= bit
            new_one ^= low
        while new_zero:
            low = new_zero & -new_zero
            zeros[low.bit_length() - 1] ^= bit
            new_zero ^= low
        self.occupied[r] ^= bit

    def _placements(self, idx: int):
        """Place vertex ``order[idx]`` in each admissible way in turn.

        Yields once per placement, while it stands; the placement is taken
        back before the next one is tried.
        """
        left = self.left
        v = self.order[idx]
        occupied, ones, zeros = self.occupied, self.ones, self.zeros
        rows, cols = self.rows, self.cols
        # near[s]: the columns whose row-s occupant is a neighbour of v
        near = [0] * self.a
        for x in self.back[idx]:
            near[rows[x]] |= 1 << cols[x]
        # untouched columns of B are interchangeable: used ones + first fresh;
        # used columns always form a prefix of range(b)
        col_range = range(min(max(occupied).bit_length() + 1, self.b))
        d = self.rowsums[v]
        loop = self.g.adjacency_masks[v] >> v & 1
        b_rowsums = self.b_rowsums
        for r in self.allowed_rows[v]:
            for s in left.unlinked[r]:
                if near[s]:  # a placed neighbour in a row A does not link to r
                    break
            else:
                # B row c must hold 1 at the column of every placed neighbour in
                # a row A links to r, and 0 at every other placed column of those rows
                one = zero = 0
                for s in left.linked[r]:
                    one |= near[s]
                    zero |= occupied[s] & ~near[s]
                ar = left.rowsums[r]
                for c in col_range:
                    if occupied[r] >> c & 1:
                        continue
                    # exact Kronecker prune: rowsum(v) = rowsum_A(r) * rowsum_B(c)
                    if b_rowsums[c] >= 0 and d != ar * b_rowsums[c]:
                        continue
                    one_c, zero_c = one, zero
                    if left.looped[r]:
                        if loop:
                            one_c |= 1 << c
                        else:
                            zero_c |= 1 << c
                    if one_c & zero_c or one_c & zeros[c] or zero_c & ones[c]:
                        continue
                    new_one, new_zero = one_c & ~ones[c], zero_c & ~zeros[c]
                    self._toggle(r, c, new_one, new_zero)
                    fixes_rowsum = ar > 0 and b_rowsums[c] < 0
                    if fixes_rowsum:
                        b_rowsums[c] = d // ar
                    rows[v], cols[v] = r, c
                    yield True
                    if fixes_rowsum:
                        b_rowsums[c] = -1
                    self._toggle(r, c, new_one, new_zero)

    def _finish(self) -> FactorizationWitness:
        b_edges = {(k, l) for k in range(self.b) for l in bits(self.ones[k]) if k <= l}
        witness = FactorizationWitness(
            self.left.graph,
            Graph(self.b, b_edges),
            tuple(zip(self.rows, self.cols)),
        )
        if not witness_is_valid(self.g, witness):
            raise InternalError("factor search produced a witness that fails re-verification")
        return witness

    def run(self) -> FactorizationWitness | None:
        """Depth-first search over an explicit stack of placement generators."""
        n = len(self.order)
        stack = [self._placements(0)]
        while stack:
            if not next(stack[-1], False):  # every placement tried: backtrack
                stack.pop()
            elif len(stack) == n:
                return self._finish()
            else:
                stack.append(self._placements(len(stack)))
        return None


def factor_search(
    g: Graph,
    a: int,
    b: int,
    *,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
    fixed_a=None,
) -> FactorizationWitness | None:
    """Find graphs A (order a) and B (order b) with g = direct(A, B), if any.

    ``fixed_a`` pins the adjacency matrix of the left factor, restricting the
    search to factorizations through that exact left factor.  Returned
    witnesses are re-verified by product recomputation before return.
    """
    require_graphs("factor_search", g)
    check_node_limit(g.node_count, node_limit, "graph")
    a, b = (as_int(x, "factor orders must be integers") for x in (a, b))
    if a < 2 or b < 2 or a > b:
        raise PreconditionError("factor orders must satisfy 2 <= a <= b")
    if a * b != g.node_count:
        raise PreconditionError(f"{a} * {b} != {g.node_count} nodes")
    if fixed_a is not None:
        left = _left_factor(_check_fixed_a(fixed_a, a), _permuters(a))[0]
        return _FactorSearch(g, b, left).run()
    g_bipartite = is_bipartite(g)
    sums = sorted(mask.bit_count() for mask in g.adjacency_masks)
    for left in _left_factors(a):
        if _left_factor_feasible(left, g, g_bipartite, sums):
            found = _FactorSearch(g, b, left).run()
            if found is not None:
                return found
    return None


def _divisor_pairs(n: int) -> Iterator[tuple[int, int]]:
    """Each split n = a * b with 2 <= a <= b, in increasing a, yielded as the scan meets it.

    The scan is lazy, so a caller that only asks whether n splits
    (:func:`graphprod.reduction.is_prime_int`) stops at the smallest divisor.
    """
    return ((a, n // a) for a in range(2, isqrt(n) + 1) if n % a == 0)


def find_factorization(
    g: Graph, *, node_limit: int | None = DEFAULT_NODE_LIMIT
) -> FactorizationWitness | None:
    """First factorization over divisor pairs in increasing left order, or None.

    Raises :class:`PreconditionError` on the empty graph.
    """
    require_graphs("find_factorization", g)
    if g.node_count == 0:
        raise PreconditionError("factoring is undefined for the empty graph")
    check_node_limit(g.node_count, node_limit, "graph")
    splits = list(_divisor_pairs(g.node_count))
    if not splits:
        return None
    if (
        not is_bipartite(g)
        and len(g.traversal.starts) == 1
        and certifies_prime(g.adjacency_masks)
    ):
        return None
    for a, b in splits:
        witness = factor_search(g, a, b, node_limit=None)
        if witness is not None:
            return witness
    return None


def is_prime_direct(g: Graph, *, node_limit: int | None = DEFAULT_NODE_LIMIT) -> bool:
    """Primality under the direct product.

    The single-node graph is neither prime nor composite; it reports False
    here and is called out as trivial by the CLI.
    """
    require_graphs("is_prime_direct", g)
    check_node_limit(g.node_count, node_limit, "graph")
    if g.node_count == 1:
        return False
    return find_factorization(g, node_limit=node_limit) is None


# -- disjoint unions of two equal-order connected graphs ---------------------


def _require_connected_pair(g1: Graph, g2: Graph, what: str) -> int:
    """The common order of two connected graphs of equal order at least 2."""
    n = g1.node_count
    if g2.node_count != n:
        raise PreconditionError("graphs must have equal order")
    if n < 2:
        raise PreconditionError(f"{what} needs order at least 2")
    if not (is_connected(g1) and is_connected(g2)):
        raise PreconditionError("both graphs must be connected")
    return n


def factorization_from_isomorphism(
    g1: Graph, g2: Graph, witness: IsomorphismWitness
) -> FactorizationWitness:
    """Explicit doubling factorization of g1 u g2 built from an isomorphism.

    The left factor is D2 (two looped nodes, no cross edge); the right factor
    is g1.  Vertices of g1 keep their labels in row 0, vertices of g2 land in
    row 1 at the position of their preimage under the isomorphism.
    """
    require_graphs("factorization_from_isomorphism", g1, g2)
    n = _require_connected_pair(g1, g2, "doubling factorization")
    if not is_isomorphism(g1, g2, getattr(witness, "mapping", None)):
        raise PreconditionError("witness is not an isomorphism from g1 to g2")
    inverse = [0] * n
    for src, dst in enumerate(witness.mapping):
        inverse[dst] = src
    labeling = [(0, v) for v in range(n)]
    labeling.extend((1, inverse[u]) for u in range(n))
    out = FactorizationWitness(D2, g1, tuple(labeling))
    if not witness_is_valid(disjoint_union(g1, g2), out):
        raise InternalError("doubling factorization fails re-verification")
    return out


def isomorphism_from_union_factorization(
    g1: Graph, g2: Graph, *, node_limit: int | None = DEFAULT_NODE_LIMIT
) -> IsomorphismWitness | None:
    """Recover an isomorphism g1 -> g2 from a doubling factorization, if any.

    Searches the disjoint union for a factorization whose left factor is
    pinned to D2.  Connectivity forces each input graph into a single row of
    the labeling, so matching column positions across the two rows reads off
    the isomorphism.  Returns None exactly when no such factorization exists.
    ``node_limit`` bounds the union's 2n nodes, not n: at the default 20,
    two 11-node graphs raise :class:`~graphprod.core.SizeLimitError`.
    """
    require_graphs("isomorphism_from_union_factorization", g1, g2)
    n = _require_connected_pair(g1, g2, "union factorization")
    union = disjoint_union(g1, g2)
    found = factor_search(union, 2, n, node_limit=node_limit, fixed_a=I2_MATRIX)
    if found is None:
        return None
    row_of_g1 = found.labeling[0][0]
    if not (
        all(r == row_of_g1 for r, _ in found.labeling[:n])
        and all(r != row_of_g1 for r, _ in found.labeling[n:])
    ):
        raise InternalError("doubling factorization does not keep each graph in one row")
    col_to_g2_vertex = {c: u for u, (_, c) in enumerate(found.labeling[n:])}
    mapping = tuple(col_to_g2_vertex[c] for _, c in found.labeling[:n])
    out = IsomorphismWitness(mapping)
    if not is_isomorphism(g1, g2, out.mapping):
        raise InternalError("isomorphism read off a factorization fails re-verification")
    return out


# -- a ready-made compositeness oracle ---------------------------------------


def search_oracle(g: Graph) -> bool:
    """Compositeness by exhaustive factor search, with no size bound."""
    require_graphs("search_oracle", g)
    if g.node_count <= 1:
        return False
    return find_factorization(g, node_limit=None) is not None
