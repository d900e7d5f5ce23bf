"""Shared test utilities: independent naive oracles and graph generators.

The oracles here deliberately re-derive everything from first definitions
(permutation search, all-pairs membership tests, full factor enumeration) so
the library implementations are checked against a second route.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from collections.abc import Sequence
from itertools import permutations
from math import gcd
from operator import index

from graphprod import Graph, are_isomorphic, direct_product, disjoint_union, relabel
from graphprod.core import bits, breadth_first
from graphprod.reduction import class_g_check
from graphprod.skeleton import cartesian_skeleton

# -- enumeration --------------------------------------------------------------


def all_graphs(n: int):
    """Every labeled graph on n nodes, self-loops included."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for mask in range(1 << len(cells)):
        edges = {cells[k] for k in range(len(cells)) if mask >> k & 1}
        yield Graph(n, frozenset(edges))


def all_connected_graphs(n: int):
    from graphprod import is_connected

    for g in all_graphs(n):
        if is_connected(g):
            yield g


# -- random generators (always seeded by the caller) --------------------------


def random_graph(n: int, rng: random.Random, edge_p: float = 0.4, loop_p: float = 0.25) -> Graph:
    edges = set()
    for i in range(n):
        if rng.random() < loop_p:
            edges.add((i, i))
        for j in range(i + 1, n):
            if rng.random() < edge_p:
                edges.add((i, j))
    return Graph(n, frozenset(edges))


def random_connected_graph(
    n: int, rng: random.Random, extra_p: float = 0.3, loop_p: float = 0.2
) -> Graph:
    """Random spanning tree plus extra edges; loops optional."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for i in range(n):
        if rng.random() < loop_p:
            edges.add((i, i))
        for j in range(i + 1, n):
            if rng.random() < extra_p:
                edges.add((i, j))
    return Graph(n, frozenset(edges))


def random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_relabeling(g: Graph, rng: random.Random) -> Graph:
    return relabel(g, random_permutation(g.node_count, rng))


def random_bipartite_connected(n: int, rng: random.Random, extra_p: float = 0.3) -> Graph:
    """Connected loop-free bipartite graph: tree plus parity-respecting extras."""
    parent = [0] * n
    edges = set()
    for v in range(1, n):
        parent[v] = rng.randrange(v)
        edges.add((parent[v], v))
    depth = [0] * n
    for v in range(1, n):
        depth[v] = depth[parent[v]] + 1
    for i in range(n):
        for j in range(i + 1, n):
            if (depth[i] + depth[j]) % 2 == 1 and rng.random() < extra_p:
                edges.add((i, j))
    return Graph(n, frozenset(edges))


def random_class_g_graph(n: int, rng: random.Random) -> Graph:
    """Rejection-sample a class G member of the given (prime) order."""
    while True:
        g = random_connected_graph(n, rng, extra_p=rng.uniform(0.1, 0.6), loop_p=rng.uniform(0.1, 0.6))
        if class_g_check(g).member:
            return g


def nonisomorphic_pair_same_counts(
    n: int, rng: random.Random, max_tries: int = 2000
) -> tuple[Graph, Graph]:
    """Connected pair with equal node and edge counts that is not isomorphic."""
    for _ in range(max_tries):
        g1 = random_connected_graph(n, rng)
        g2 = random_connected_graph(n, rng)
        if g1.edge_count != g2.edge_count:
            continue
        if are_isomorphic(g1, g2, node_limit=None) is None:
            return g1, g2
    raise AssertionError("could not sample a non-isomorphic same-count pair")


# -- naive oracles -------------------------------------------------------------


def naive_breadth_first(g: Graph) -> tuple[list[int], list[list[int]], list[int] | None]:
    """Visiting order, components and depth-parity 2-coloring, from neighbour sets.

    Each component is searched from its smallest node, with neighbours queued
    in ascending order.  The coloring is None when some edge, a self-loop
    included, joins two nodes of the same color.
    """
    nbrs: dict[int, set[int]] = {v: set() for v in range(g.node_count)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    order, comps, depth = [], [], {}
    for root in range(g.node_count):
        if root in depth:
            continue
        depth[root] = 0
        queue, comp = deque([root]), []
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in sorted(nbrs[u] - depth.keys()):
                depth[w] = depth[u] + 1
                queue.append(w)
        order += comp
        comps.append(sorted(comp))
    coloring = [depth[v] % 2 for v in range(g.node_count)]
    if any(coloring[u] == coloring[v] for u, v in g.edges):
        return order, comps, None
    return order, comps, coloring


def naive_isomorphic(g1: Graph, g2: Graph) -> tuple[int, ...] | None:
    """Unpruned permutation search, first witness in lexicographic order."""
    if g1.node_count != g2.node_count:
        return None
    for perm in permutations(range(g1.node_count)):
        if relabel(g1, perm).edges == g2.edges:
            return perm
    return None


def reference_processing_order(adj: Sequence[Sequence[int]], sizes: Sequence[int]) -> list[int]:
    """The isomorphism search's node order by scans of every node per step, no heap.

    The next node is the unplaced node smallest by ``(sizes[v], v)`` among
    those listed in ``adj[u]`` for some placed u, or among all unplaced
    nodes when none is.
    """
    order: list[int] = []
    while len(order) < len(adj):
        unplaced = [v for v in range(len(adj)) if v not in order]
        frontier = [v for v in unplaced if any(v in adj[u] for u in order)]
        order.append(min(frontier or unplaced, key=lambda v: (sizes[v], v)))
    return order


def _recolor(sig1: list, sig2: list) -> tuple[list[int], list[int]]:
    """Number the signatures of both graphs jointly, in sorted order."""
    palette = {s: i for i, s in enumerate(sorted(set(sig1) | set(sig2)))}
    return [palette[s] for s in sig1], [palette[s] for s in sig2]


def color_refinement(g1: Graph, g2: Graph) -> tuple[list[int], list[int]] | None:
    """Joint round-based color refinement (1-WL); None if the histograms diverge.

    Seeded by (degree, loop); each round recolors every node by its color and
    the sorted colors of its neighbours, numbered jointly over both graphs,
    until no class splits.  This is the refinement the isomorphism search
    used before its splitter queue, except that it always runs to the fixed
    point: that engine returned as soon as the first graph's coloring was
    discrete, without the last round that can still tell the graphs apart.
    """
    # neighbour lists from has_edge alone, loops left out, so the reference
    # shares no adjacency view with the code under test
    adj1, adj2 = (
        [[w for w in range(g.node_count) if w != v and g.has_edge(v, w)]
         for v in range(g.node_count)]
        for g in (g1, g2)
    )
    colors1, colors2 = _recolor(
        [(len(adj1[v]), (v, v) in g1.edges) for v in range(g1.node_count)],
        [(len(adj2[v]), (v, v) in g2.edges) for v in range(g2.node_count)],
    )
    # each round either splits a color class or reaches the fixed point
    while Counter(colors1) == Counter(colors2):
        new1, new2 = _recolor(
            [(c, tuple(sorted(colors1[w] for w in adj1[v]))) for v, c in enumerate(colors1)],
            [(c, tuple(sorted(colors2[w] for w in adj2[v]))) for v, c in enumerate(colors2)],
        )
        if new1 == colors1 and new2 == colors2:
            return colors1, colors2
        colors1, colors2 = new1, new2
    return None


def naive_product_edges(kind: str, g1: Graph, g2: Graph) -> frozenset:
    """All-pairs membership test straight from the product definitions."""
    n1, n2 = g1.node_count, g2.node_count
    order = n1 * n2
    edges = set()
    for p in range(order):
        x, y = divmod(p, n2)
        for q in range(p, order):
            xp, yp = divmod(q, n2)
            e1 = g1.has_edge(x, xp)
            e2 = g2.has_edge(y, yp)
            if kind == "cartesian":
                keep = (x == xp and e2) or (e1 and y == yp)
            elif kind == "direct":
                keep = e1 and e2
            elif kind == "strong":
                keep = (x == xp and e2) or (e1 and y == yp) or (e1 and e2)
            elif kind == "lexicographic":
                keep = e1 or (x == xp and e2)
            else:
                raise ValueError(kind)
            if keep:
                edges.add((p, q))
    return frozenset(edges)


def naive_cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """The Cartesian product, built by :func:`naive_product_edges`."""
    return Graph(g1.node_count * g2.node_count, naive_product_edges("cartesian", g1, g2))


def naive_cartesian_skeleton(g: Graph) -> Graph:
    """Hammack and Imrich's Cartesian skeleton S(g), straight from its definition.

    The Boolean square joins x != y with a common neighbour (a looped node
    is its own neighbour); the edge xy is dispensable, and dropped, if some
    z has both (N(x) & N(y) < N(x) & N(z) or N(x) < N(z) < N(y)) and
    (N(x) & N(y) < N(y) & N(z) or N(y) < N(z) < N(x)), with < the proper
    subset test on Python sets.
    """
    n = g.node_count
    nbrs = [{w for w in range(n) if g.has_edge(v, w)} for v in range(n)]
    edges = set()
    for x in range(n):
        for y in range(x + 1, n):
            c = nbrs[x] & nbrs[y]
            if c and not any(
                (c < nbrs[x] & nbrs[z] or nbrs[x] < nbrs[z] < nbrs[y])
                and (c < nbrs[y] & nbrs[z] or nbrs[y] < nbrs[z] < nbrs[x])
                for z in range(n)
            ):
                edges.add((x, y))
    return Graph(n, frozenset(edges))


def is_r_thin(g: Graph) -> bool:
    """No two nodes have the same neighbourhood (a loop puts a node in its own)."""
    n = g.node_count
    return len({frozenset(w for w in range(n) if g.has_edge(v, w)) for v in range(n)}) == n


def blow_up(g: Graph, sizes) -> Graph:
    """Replace node v by sizes[v] twins: copies of u and w are adjacent when u and w are.

    The copies of a looped node form a clique with a loop on every node.
    """
    copies, start = [], 0
    for size in sizes:
        copies.append(range(start, start + size))
        start += size
    return Graph(start, frozenset((x, y) for u, w in g.edges for x in copies[u] for y in copies[w]))


def naive_factor_exists(g: Graph, a: int, b: int) -> bool:
    """Enumerate every factor pair (A, B) and test direct(A, B) ~ g."""
    nz = g.nonzero_count
    loops = g.loop_count
    for fa in all_graphs(a):
        for fb in all_graphs(b):
            if fa.nonzero_count * fb.nonzero_count != nz:
                continue
            if fa.loop_count * fb.loop_count != loops:
                continue
            prod = direct_product(fa, fb, node_limit=None)
            if are_isomorphic(prod, g, node_limit=None) is not None:
                return True
    return False


def components_as_graphs(g: Graph) -> list[Graph]:
    from graphprod import connected_components, induced_subgraph

    return [induced_subgraph(g, comp) for comp in connected_components(g)]


def double_edge_swap(g: Graph, rng: random.Random) -> Graph:
    """Replace edges {a, b}, {c, d} by {a, d}, {c, b}: degrees are kept.

    Returns ``g`` unchanged if no admissible pair turns up in 100 draws.
    """
    edges = sorted((u, v) for u, v in g.edges if u != v)
    for _ in range(100 if len(edges) >= 2 else 0):
        (a, b), (c, d) = rng.sample(edges, 2)
        e1, e2 = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) == 4 and e1 not in g.edges and e2 not in g.edges:
            return Graph(g.node_count, (g.edges - {(a, b), (c, d)}) | {e1, e2})
    return g


def random_cubic_graph(n: int, rng: random.Random) -> Graph:
    """Uniform random simple 3-regular graph (configuration model, rejection)."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = points[i], points[i + 1]
            edge = (min(u, v), max(u, v))
            if u == v or edge in edges:
                break
            edges.add(edge)
        else:
            return Graph(n, frozenset(edges))


def random_sparse_connected_graph(n: int, rng: random.Random) -> Graph:
    """Random spanning tree plus n/4 extra edges and three loops."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(n // 4):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    for _ in range(3):
        u = rng.randrange(n)
        edges.add((u, u))
    return Graph(n, frozenset(edges))


def reference_witness_is_valid(g: Graph, w) -> bool:
    """Factorization witness check as it stood before the one-comparison labeling test.

    Kept verbatim as the reference of a differential test: a length test,
    then each pair outside range(a) x range(b) becomes label -1, which
    ``relabel`` refuses along with repeats.
    """
    a = w.factor_a.node_count
    b = w.factor_b.node_count
    if a < 2 or b < 2 or a * b != g.node_count or len(w.labeling) != g.node_count:
        return False
    try:  # -1 stands for a pair outside range(a) x range(b), so relabel refuses it
        pairs = [(index(r), index(c)) for r, c in w.labeling]
        moved = relabel(g, [r * b + c if 0 <= r < a and 0 <= c < b else -1 for r, c in pairs])
    except (TypeError, ValueError):  # a label that is not a pair of integers, or no permutation
        return False
    return moved.edges == direct_product(w.factor_a, w.factor_b, node_limit=None).edges


def reference_certifies_prime(masks: Sequence[int]) -> bool:
    """The prime certificate as it stood with a union-find for τ and a class BFS for Θ.

    Kept verbatim as the reference of a differential test.  True if the
    skeleton of G/R proves G prime; False claims nothing.

    ``masks`` must describe a connected nonbipartite graph G; the caller
    checks that (the module docstring says why it matters).  When the sizes
    of G's R-classes have a common divisor above 1 nothing is claimed.
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
    if len(breadth_first(s).starts) != 1:  # S(G/R) must be connected
        return False
    ends = [(u, v) for u in range(n) for v in bits(s[u] & -(2 << u))]
    if len(ends) < 2:
        return len(ends) == 1
    eid = {}  # the id of edge uv, under u * n + v and under v * n + u
    for e, (u, v) in enumerate(ends):
        eid[u * n + v] = eid[v * n + u] = e
    parent = list(range(len(ends)))
    classes = len(ends)

    def find(e: int) -> int:
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    # τ: join xy and xz unless they span a chordless square
    for x in range(n):
        star = list(bits(s[x]))
        closed = s[x] | 1 << x
        for i, y in enumerate(star):
            sy = s[y]
            root = find(eid[x * n + y])
            for z in star[i + 1 :]:
                if sy >> z & 1 or not sy & s[z] & ~closed:
                    other = find(eid[x * n + z])
                    if other != root:
                        parent[other] = root
                        classes -= 1
        if classes == 1:
            return True
    return _reference_theta_joins(s, ends, [find(e) for e in range(len(ends))])


def _reference_theta_joins(s: Sequence[int], ends: list[tuple[int, int]], root: list[int]) -> bool:
    """True if Θ joins the classes (edge e in class ``root[e]``) into one.

    Edge uv, u < v, leans towards w when d(w, u) < d(w, v) and away from w
    when d(w, u) > d(w, v).  As u and v are adjacent, d(w, u) - d(w, v) is
    -1, 0 or 1, and the lean tells which.  The Θ condition for xy and uv
    reads d(x, u) - d(x, v) ≠ d(y, u) - d(y, v): uv leans differently
    towards x and towards y.  A breadth-first search over the classes
    takes in every class holding an edge Θ-related to one already reached.
    It starts from the smallest class: when G is composite the search must
    exhaust a class of the factorization, and a small τ class tends to lie
    in a small one.
    """
    n = len(s)
    at = [0] * n  # at[v]: the edges with an end at v, as a bitmask over edge ids
    low_at = [0] * n  # the edges whose smaller end is v
    members: dict[int, int] = {}  # class root -> its edges
    for e, (u, v) in enumerate(ends):
        bit = 1 << e
        at[u] |= bit
        low_at[u] |= bit
        at[v] |= bit
        members[root[e]] = members.get(root[e], 0) | bit
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
    seen = frontier = min(members.values(), key=int.bit_count)
    while frontier:
        reach = 0
        for e in bits(frontier):
            x, y = ends[e]
            reach |= towards[x] ^ towards[y] | away[x] ^ away[y]
        frontier = 0
        for edges in members.values():
            if edges & reach & ~seen:
                frontier |= edges
        seen |= frontier
    return seen == (1 << len(ends)) - 1
