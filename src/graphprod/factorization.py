"""Direct-product factor search, primality testing, and union factorizations.

The factor search answers: can graph g be relabelled so that its adjacency
matrix becomes A (x) B for some graphs A (order a) and B (order b)?  The
left order a never exceeds the square root of the node count, so the left
factors are listed outright, in one table per order built on first use
with one record per isomorphism class (6, 20, 90 and 544 for a = 2, 3, 4,
5, of 8, 64, 1024 and 32768 symmetric 0/1 matrices).  In ascending bitmask
order, the first matrix not yet seen is the smallest of its class, the one
Read's orderly generation picks (Ann. Discrete Math. 2, 1978); one pass
over its a! row permutations marks the class as seen and gives the orbits
of Aut(A) on rows.  Counting filters on the records discard most classes
before any engine is built: loop counts must factor, a bipartite A cannot
produce a nonbipartite g, and row sums must multiply out.  Vertex (r, c)
of A (x) B has row sum rowsum_A(r) * rowsum_B(c), so g's row sums must be
the multiset {ar * s}, with ar over A's row sums and s over some multiset S
of b values in 0..b.  One greedy peel decides this exactly: each zero row
of A takes b zeros, and then the smallest sum left must be low * min(S),
with low the smallest nonzero row sum of A, so it fixes the next s and the
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

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, permutations, product
from operator import index, itemgetter, or_
from typing import NamedTuple

from .catalog import D2
from .core import (
    Graph,
    InternalError,
    PreconditionError,
    as_int,
    bits,
    breadth_first,
    check_node_limit,
    connected_components,
    disjoint_union,
    induced_subgraph,
    is_bipartite,
    is_connected,
)
from .isomorphism import IsomorphismWitness, are_isomorphic, is_isomorphism
from .reduction import require_class_g
from .skeleton import certifies_prime

DEFAULT_NODE_LIMIT = 20

I2_MATRIX = ((1, 0), (0, 1))


@dataclass(frozen=True)
class FactorizationWitness:
    """Factor pair plus the vertex labeling proving g = direct(factor_a, factor_b).

    ``labeling[v] == (r, c)`` places vertex v of the factored graph at row r
    of factor_a and column c of factor_b, i.e. at product index ``r * b + c``.
    """

    factor_a: Graph
    factor_b: Graph
    labeling: tuple[tuple[int, int], ...]


def witness_is_valid(g: Graph, w: FactorizationWitness) -> bool:
    """Whether g, relabelled by the witness, is direct(factor_a, factor_b).

    False unless ``w`` has both factors as graphs and a labeling whose
    integer pairs cover range(a) x range(b) once each.  Each vertex v at
    (r, c) is then checked on bitmask rows: the labels r' * b + c' of v's
    neighbours must be exactly row r * b + c of A (x) B, which is B's row c
    shifted to block r' for every r' with A[r][r'] = 1, read from the
    factors' own adjacency.
    """
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
    a_rows, b_rows = fa.adjacency_masks, fb.adjacency_masks
    for mask, (r, c) in zip(g.adjacency_masks, pairs):
        moved = expected = 0
        for u in bits(mask):
            moved |= 1 << label[u]
        for s in bits(a_rows[r]):
            expected |= b_rows[c] << s * b
        if moved != expected:
            return False
    return True


def witness_to_json(w: FactorizationWitness) -> dict:
    """Witness report: factor orders, factor edge lists, labeling pairs."""
    return {
        "a_order": w.factor_a.node_count,
        "b_order": w.factor_b.node_count,
        "a_edges": [list(e) for e in w.factor_a.sorted_edges()],
        "b_edges": [list(e) for e in w.factor_b.sorted_edges()],
        "labeling": [list(pair) for pair in w.labeling],
    }


Matrix = tuple[tuple[int, ...], ...]


def _axis(x) -> list:
    """The items of ``x`` if numpy reads ``x`` as an array axis, else ``[]``.

    Array-likes (numpy arrays and scalars) are read through ``__array__``.
    Strings and bytes are scalars to numpy; sets, mappings and iterators
    become 0-d object arrays.
    """
    if hasattr(x, "__array__"):
        x = x.__array__().tolist()
    if isinstance(x, Sequence) and not isinstance(x, (str, bytes)):
        return list(x)
    return []


def _check_fixed_a(fixed_a, a: int) -> Matrix:
    """``fixed_a`` as a tuple matrix, read without numpy as ``numpy.asarray`` would."""
    rows = [_axis(row) for row in _axis(fixed_a)]
    if (
        len(rows) != a
        or any(len(row) != a for row in rows)
        or any(_axis(x) for row in rows for x in row)  # a third axis
    ):
        raise PreconditionError(f"fixed_a must be a {a}x{a} matrix")
    cells = tuple(tuple(1 if x == 1 else 0 if x == 0 else -1 for x in row) for row in rows)
    if any(cells[i][j] < 0 or cells[i][j] != cells[j][i] for i in range(a) for j in range(a)):
        raise PreconditionError("fixed_a must be a symmetric 0/1 matrix")
    return cells


# Bit k of a matrix's bitmask is its k-th upper-triangle cell, row by row.
# Its key lists the same cells from the most significant down, so keys
# compare as bitmasks do and itertools.product lists them in ascending order.
def _upper(a: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(a) for j in range(i, a)][::-1]


def _matrix(a: int, key: tuple[int, ...]) -> Matrix:
    mat = [[0] * a for _ in range(a)]
    for x, (i, j) in zip(key, _upper(a)):
        mat[i][j] = mat[j][i] = x
    return tuple(map(tuple, mat))


def _permuters(a: int) -> list:
    """Each row permutation P, with a getter from the flattened A to the key of P A P^T."""
    upper = _upper(a)
    return [
        (perm, itemgetter(*(perm[i] * a + perm[j] for i, j in upper)))
        for perm in permutations(range(a))
    ]


class _LeftFactor(NamedTuple):
    """One left factor A, with everything the counting filters and the search read."""

    cells: Matrix
    first_rows: tuple[int, ...]  # the smallest row of each orbit of Aut(A) on rows
    loops: int
    bipartite: bool
    rowsums: tuple[int, ...]
    linked: tuple[tuple[int, ...], ...]  # linked[r]: the rows s with A[r][s] = 1
    unlinked: tuple[tuple[int, ...], ...]


def _left_factor(cells: Matrix, permuters: list) -> tuple[_LeftFactor, set[tuple[int, ...]]]:
    """The record of A = ``cells`` and the keys of every P A P^T, over row permutations P."""
    a = len(cells)
    flat = sum(cells, ())
    images = [permute(flat) for _, permute in permuters]
    # the identity comes first; row r is the smallest of its orbit under the
    # automorphisms unless one of them carries it to a smaller row
    automorphisms = [perm for (perm, _), image in zip(permuters, images) if image == images[0]]
    first_rows = tuple(r for r in range(a) if all(perm[r] >= r for perm in automorphisms))
    masks = [sum(x << j for j, x in enumerate(row)) for row in cells]
    loops = sum(m >> i & 1 for i, m in enumerate(masks))
    rowsums = tuple(m.bit_count() for m in masks)
    record = _LeftFactor(
        cells,
        first_rows,
        loops,
        breadth_first(masks).coloring is not None,
        rowsums,
        tuple(tuple(s for s in range(a) if row[s]) for row in cells),
        tuple(tuple(s for s in range(a) if not row[s]) for row in cells),
    )
    return record, set(images)


@lru_cache(maxsize=None)  # one entry per left order reached
def _left_factors(a: int) -> tuple[_LeftFactor, ...]:
    """One record per class of order-a left factors, for its first key in ascending order."""
    permuters = _permuters(a)
    seen: set[tuple[int, ...]] = set()
    out = []
    for key in product((0, 1), repeat=a * (a + 1) // 2):
        if key not in seen:
            record, orbit = _left_factor(_matrix(a, key), permuters)
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
    b = g.node_count // len(left.cells)
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
        self.a = a = len(left.cells)
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
             and (left.cells[r][r] or not masks[v] >> v & 1)
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
                    if left.cells[r][r]:
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
        cells = self.left.cells
        a_edges = {(i, j) for i in range(self.a) for j in range(i, self.a) if cells[i][j]}
        b_edges = {(k, l) for k in range(self.b) for l in bits(self.ones[k]) if k <= l}
        witness = FactorizationWitness(
            Graph(self.a, frozenset(a_edges)),
            Graph(self.b, frozenset(b_edges)),
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


def _divisor_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, n // a) for a in range(2, int(n**0.5) + 1) if n % a == 0]


def find_factorization(
    g: Graph, *, node_limit: int | None = DEFAULT_NODE_LIMIT
) -> FactorizationWitness | None:
    """First factorization over divisor pairs in increasing left order, or None.

    Raises :class:`PreconditionError` on the empty graph.
    """
    if g.node_count == 0:
        raise PreconditionError("factoring is undefined for the empty graph")
    check_node_limit(g.node_count, node_limit, "graph")
    splits = _divisor_pairs(g.node_count)
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
    """
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


# -- the two-block elimination decider ---------------------------------------

_ANTIDIAG = ((0, 1), (1, 0))


def two_block_survivors(g1: Graph, g2: Graph) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """2x2 left-factor candidates for g1 u g2 that survive the counting filters.

    Filters, in order: the union is undirected so A must be symmetric; both
    components have minimum degree >= 1 so A needs at least two nonzero
    entries; with k nonzeros in A the product has k * nnz(B) nonzero entries,
    which must equal nnz(g1) + nnz(g2), ruling out k = 3 and k = 4 whenever
    that total is not divisible by 3 resp. 4; the antidiagonal A would make
    the product bipartite while the union is not.
    """
    total = g1.nonzero_count + g2.nonzero_count
    survivors = []
    for mat in sorted(_matrix(2, key) for key in product((0, 1), repeat=3)):
        nonzeros = mat[0][0] + mat[0][1] + mat[1][0] + mat[1][1]
        if nonzeros < 2:
            continue
        if nonzeros == 3 and total % 3 != 0:
            continue
        if nonzeros == 4 and total % 4 != 0:
            continue
        if mat == _ANTIDIAG:
            continue
        survivors.append(mat)
    return survivors


def union_compositeness_by_elimination(g1: Graph, g2: Graph) -> bool:
    """Decide compositeness of g1 u g2 for equal-count class G members.

    Any factorization of the union must split its 2n nodes as 2 x n because n
    is prime, so only a 2x2 left factor is possible.  The counting filters of
    :func:`two_block_survivors` leave the identity matrix alone, reducing
    compositeness of the union to existence of an isomorphism g1 -> g2.
    """
    require_class_g(g1, "first graph")
    require_class_g(g2, "second graph")
    if g1.node_count != g2.node_count or g1.edge_count != g2.edge_count:
        raise PreconditionError("elimination requires equal node and edge counts")
    survivors = two_block_survivors(g1, g2)
    if I2_MATRIX not in survivors:
        raise InternalError("the counting filters eliminated the identity left factor")
    # More than one survivor is reachable only when the loop counts differ.
    # Every survivor other than I2 carries a loop and a cross edge, hence is
    # connected and nonbipartite, so all components of A (x) B would have
    # even order; this union's components have odd prime order.
    if len(survivors) > 1 and g1.node_count % 2 == 0:
        raise InternalError("a non-identity left factor survived on even-order components")
    return are_isomorphic(g1, g2, node_limit=None) is not None


# -- ready-made compositeness oracles ----------------------------------------


def search_oracle(g: Graph) -> bool:
    """Compositeness by exhaustive factor search, with no size bound."""
    if g.node_count <= 1:
        return False
    return find_factorization(g, node_limit=None) is not None


def elimination_oracle(g: Graph) -> bool:
    """Compositeness of a two-component union via the elimination argument."""
    comps = connected_components(g)
    if len(comps) != 2:
        raise PreconditionError("elimination oracle needs exactly two components")
    c1 = induced_subgraph(g, comps[0])
    c2 = induced_subgraph(g, comps[1])
    if c1.node_count != c2.node_count:
        raise PreconditionError("elimination oracle needs equal-order components")
    if c1.edge_count != c2.edge_count:
        # Padding same-order same-size inputs with different loop counts lands
        # here: both components are in class G but their edge counts differ.
        # The union splits only as 2 x p (p prime), I2 would force isomorphic
        # components (equal edge counts), and every other admissible left
        # factor forces even-order components; so the union is prime.
        require_class_g(c1, "first component")
        require_class_g(c2, "second component")
        return False
    return union_compositeness_by_elimination(c1, c2)
