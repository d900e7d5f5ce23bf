"""A polynomial prime certificate from the Cartesian skeleton.

Connected nonbipartite graphs factor uniquely under the direct product, in
polynomial time (Imrich 1998).  This module implements the part of that
route a prime verdict needs: it proves some connected nonbipartite graphs
prime without any factor search.  N(x) is the open neighbourhood, which
holds x itself when x carries a loop.  R is the relation "equal
neighbourhoods", and a graph is R-thin when its R-classes are singletons.
The quotient G/R has one vertex per R-class, and two classes are adjacent
when their members are.

The Cartesian skeleton S(G) (Hammack & Imrich, "On Cartesian skeletons of
graphs", Ars Math. Contemp. 2, 2009) starts from the Boolean square: the
loop-free graph that joins distinct x and y when N(x) and N(y) meet.  An
edge xy of it is dispensable, and left out of S(G), if some z satisfies
both of these (⊂ is proper inclusion):

* N(x) ∩ N(y) ⊂ N(x) ∩ N(z), or N(x) ⊂ N(z) ⊂ N(y);
* N(x) ∩ N(y) ⊂ N(y) ∩ N(z), or N(y) ⊂ N(z) ⊂ N(x).

For R-thin graphs A and B without isolated vertices, S(A × B) is the
Cartesian product S(A) □ S(B), with vertex (a, b) at index a * |B| + b.

Feder's product relation σ = (Θ ∪ τ)* on the edges of a graph (J. Graph
Theory 16, 1992) is the closure of two relations:

* τ relates edges xy and xz with a common end unless they span a chordless
  square: y and z are not adjacent, and some w outside the closed
  neighbourhood N[x] is adjacent to both;
* Θ relates edges xy and uv when d(x, u) + d(y, v) ≠ d(x, v) + d(y, u).

:func:`certifies_prime` takes G to G/R, which is G itself when G is R-thin.
It builds S(G/R) and closes one edge under τ and then, only if some edge is
still outside, under τ ∪ Θ: σ has one class exactly when that σ-class holds
every edge.  G is prime when it does and the sizes of G's R-classes have
greatest common divisor 1.

Why this is sound.  Suppose G = A × B with |A|, |B| >= 2.  A direct product
is connected only if both factors are, and bipartite if either factor is, so
A and B are connected and nonbipartite; each has at least two vertices, so
neither has an isolated vertex.  N_G((a, b)) = N_A(a) × N_B(b), with both
sides nonempty, so equal neighbourhoods in A or in B would give equal
neighbourhoods in G: A and B are R-thin.  Hence S(G) = S(A) □ S(B).  A
σ-class stays in one component: τ relates edges with a common end, and Θ
reads distances within a component.  If S(B) has no edge, S(G) is |B| >= 2
copies of S(A): no edge, or edges in two components; likewise with A and B
swapped.  Otherwise both have edges.  Call an edge of S(A) □ S(B) an A-edge
if its ends differ in the A coordinate, else a B-edge.  An A-edge
(a, b)(a', b) and a B-edge (a, b)(a, b') with a common end span the
chordless square through (a', b'), so τ never relates them.  In a component
of S(A) □ S(B) distances add over the coordinates, d = d_A + d_B.  For an
A-edge xy and a B-edge uv both sides of the Θ condition equal
d_A(x, u) + d_A(y, u) + d_B(x, u) + d_B(x, v), so Θ never relates them
either.  No class holds both kinds, hence none holds every edge, and one
class proves an R-thin G prime.  The converse fails: a prime graph may
leave several classes, and then nothing is claimed.

Why the quotient is sound.  Let G be connected and nonbipartite, and
suppose G = A × B as above.  As N_G((a, b)) = N_A(a) × N_B(b) with both
sides nonempty, two vertices of G are twins exactly when their coordinates
are twins in A and in B.  So the R-classes of G are the products of the
R-classes of A and of B, and G/R ≅ A/R × B/R.  G/R is connected (a quotient
keeps every walk) and nonbipartite (an odd closed walk of G maps to one of
G/R); its R-classes are singletons, since N(x) is a union of R-classes and
so is read off the neighbourhood of x's class.  That is the precondition
of the argument above.  If S(G/R) leaves one class, G/R is prime, so one
quotient, say B/R, is a single vertex: all of B's vertices are twins.  A
connected B with b >= 2 vertices whose vertices are all twins is K_b with a
loop on every vertex (each vertex is adjacent to some y, so it lies in
N(y), which is every vertex's neighbourhood).  Then every R-class of G is
a class of A times all of B, so b divides every class size and their
greatest common divisor is at least 2.  Hence one class together with a
greatest common divisor of 1 proves G prime.  C5 × (K2 with loops) shows
the divisor test is needed: its quotient is C5, which is prime.

The certificate only prunes: :func:`graphprod.factorization.find_factorization`
sends every graph it does not certify to the exhaustive search.

Everything runs on adjacency bitmasks (``Graph.adjacency_masks``): bit w
of ``masks[v]`` is set when v and w are adjacent.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .core import bits


def cartesian_skeleton(masks: Sequence[int]) -> list[int]:
    """S(G) as adjacency bitmasks, for the graph G with adjacency rows ``masks``.

    Of the Boolean-square edges xy, with c = N(x) ∩ N(y), the dispensable
    ones are these.  If N(x) ⊂ N(y), the first disjunct of the first
    condition cannot hold (c is N(x)) and N(x) ⊂ N(z) ⊂ N(y) implies the
    second condition, so xy is dispensable iff such a z exists; likewise
    with x and y swapped.  Otherwise neither "⊂ N(z) ⊂" disjunct can hold,
    and xy is dispensable iff some z has c ⊆ N(z) with N(z) meeting both
    N(x) - c and N(y) - c.  Either way z ranges over the vertices whose
    neighbourhood holds c, those in N(w) for every w in c.  The loops walk
    set bits by hand: this runs on the quotient of every connected
    nonbipartite graph before its factor search.
    """
    n = len(masks)
    out = [0] * n
    for x in range(n):
        nx = masks[x]
        square = 0  # the Boolean square: y > x with N(x) ∩ N(y) nonempty
        rest = nx
        while rest:
            low = rest & -rest
            square |= masks[low.bit_length() - 1]
            rest ^= low
        square &= -(2 << x)
        while square:
            bit_y = square & -square
            square ^= bit_y
            ny = masks[bit_y.bit_length() - 1]
            c = nx & ny
            zs = -1
            rest = c
            while rest:
                low = rest & -rest
                zs &= masks[low.bit_length() - 1]
                rest ^= low
            if c == nx or c == ny:
                high = nx | ny
                while zs:
                    low = zs & -zs
                    nz = masks[low.bit_length() - 1]
                    if nz | high == high and nz != c and nz != high:
                        break
                    zs ^= low
            else:
                only_x, only_y = nx ^ c, ny ^ c
                while zs:
                    low = zs & -zs
                    nz = masks[low.bit_length() - 1]
                    if nz & only_x and nz & only_y:
                        break
                    zs ^= low
            if not zs:  # no z found: xy is an edge of S(G)
                out[x] |= bit_y
                out[bit_y.bit_length() - 1] |= 1 << x
    return out


def certifies_prime(masks: Sequence[int]) -> bool:
    """True if the skeleton of G/R proves G prime; False claims nothing.

    τ, and then τ ∪ Θ, are kept per edge as the bitmask of the edges related
    to it; :func:`_closure` grows the class of edge 0 over each in turn.

    ``masks`` must describe a connected nonbipartite graph G, as the caller
    checks (the module docstring says why); S(G/R) need not be connected.
    If G's R-class sizes share a divisor above 1 nothing is claimed.
    """
    classes: dict[int, list[int]] = {}  # neighbourhood -> its vertices
    for v, mask in enumerate(masks):
        classes.setdefault(mask, []).append(v)
    if len(classes) < len(masks):
        if gcd(*map(len, classes.values())) != 1:
            return False
        reps = [members[0] for members in classes.values()]
        masks = [sum(1 << i for i, r in enumerate(reps) if mask >> r & 1) for mask in classes]
    s = cartesian_skeleton(masks)
    n = len(s)
    ends = [(u, v) for u in range(n) for v in bits(s[u] & -(2 << u))]
    if not ends:
        return False
    at = [0] * n  # at[v]: the edges with an end at v, as a bitmask over edge ids
    low_at = [0] * n  # the edges whose smaller end is v
    for e, (u, v) in enumerate(ends):
        bit = 1 << e
        at[u] |= bit
        low_at[u] |= bit
        at[v] |= bit
    # τ: relate xy and xz unless they span a chordless square; S(G/R) is
    # loop-free, so edge xy is the single bit of at[x] & at[y]
    tau = [0] * len(ends)  # tau[e]: the edges τ-related to edge e
    for x in range(n):
        star = list(bits(s[x]))
        closed = s[x] | 1 << x
        for i, y in enumerate(star):
            sy = s[y]
            xy = at[x] & at[y]
            for z in star[i + 1 :]:
                if sy >> z & 1 or not sy & s[z] & ~closed:
                    xz = at[x] & at[z]
                    tau[xy.bit_length() - 1] |= xz
                    tau[xz.bit_length() - 1] |= xy
    every = (1 << len(ends)) - 1
    seen = _closure(1, tau)
    if seen == every:
        return True
    towards, away = _leans(s, at, low_at)
    related = [t | towards[x] ^ towards[y] | away[x] ^ away[y] for t, (x, y) in zip(tau, ends)]
    return _closure(seen, related) == every


def _closure(seen: int, related: Sequence[int]) -> int:
    """The edges reached from the edge set ``seen``; bit f of ``related[e]`` relates e and f."""
    frontier = seen
    while frontier:
        reach = 0
        for e in bits(frontier):
            reach |= related[e]
        frontier = reach & ~seen
        seen |= frontier
    return seen


def _leans(s: Sequence[int], at: list[int], low_at: list[int]) -> tuple[list[int], list[int]]:
    """The edges that lean towards and away from each vertex w, as bitmasks over edge ids.

    Edge uv, u < v, leans towards w when d(w, u) < d(w, v) and away from w
    when d(w, u) > d(w, v).  As u and v are adjacent, d(w, u) - d(w, v) is
    -1, 0 or 1, and the lean tells which.  The Θ condition for xy and uv
    reads d(x, u) - d(x, v) ≠ d(y, u) - d(y, v): uv leans differently
    towards x and towards y, so the edges Θ-related to xy are
    ``towards[x] ^ towards[y] | away[x] ^ away[y]``.
    """
    n = len(s)
    towards = [0] * n
    away = [0] * n
    for w in range(n):
        # the edges between distance levels k and k + 1 of w are the edges
        # with exactly one end within distance k: an XOR of the at[] masks
        cut = lean = apart = 0
        seen = level = 1 << w
        while level:
            reach = low = 0
            while level:
                bit = level & -level
                v = bit.bit_length() - 1
                cut ^= at[v]
                low |= low_at[v]
                reach |= s[v]
                level ^= bit
            lean |= cut & low  # from level k to k + 1, smaller end at level k
            apart |= cut
            level = reach & ~seen
            seen |= level
        towards[w] = lean
        away[w] = apart & ~lean
    return towards, away
