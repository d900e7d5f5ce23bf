"""Seeded input generation and reference answers, independent of graphprod.

A graph here is a pair ``(n, edges)`` with ``edges`` a frozenset of
``(min, max)`` tuples; ``(v, v)`` is a self-loop.  Nothing in this module
imports graphprod, so the inputs and the reference answers it produces are a
second route to every verdict the benchmark checks.
"""

from __future__ import annotations

import random
from itertools import permutations


def norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def all_connected_graphs(n: int) -> list[tuple[int, frozenset]]:
    """Every labelled connected graph on n nodes, loops allowed, in bitmask order."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    out = []
    for mask in range(1 << len(cells)):
        edges = frozenset(cells[k] for k in range(len(cells)) if mask >> k & 1)
        if is_connected(n, edges):
            out.append((n, edges))
    return out


def random_connected(n: int, rng: random.Random, extra_p: float = 0.3, loop_p: float = 0.2):
    """Random spanning tree plus independent extra edges and loops."""
    edges = {norm(rng.randrange(v), v) for v in range(1, n)}
    for i in range(n):
        if rng.random() < loop_p:
            edges.add((i, i))
        for j in range(i + 1, n):
            if rng.random() < extra_p:
                edges.add((i, j))
    return n, frozenset(edges)


def random_sparse(n: int, rng: random.Random):
    """Random spanning tree plus n/4 extra edges and three loops."""
    edges = {norm(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(n // 4):
        u, v = rng.sample(range(n), 2)
        edges.add(norm(u, v))
    for _ in range(3):
        u = rng.randrange(n)
        edges.add((u, u))
    return n, frozenset(edges)


def random_cubic(n: int, rng: random.Random):
    """Uniform random simple 3-regular graph (configuration model, rejection)."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = points[i], points[i + 1]
            if u == v or norm(u, v) in edges:
                break
            edges.add(norm(u, v))
        else:
            return n, frozenset(edges)


def cycle(n: int):
    return n, frozenset(norm(i, (i + 1) % n) for i in range(n))


def relabel(g, rng: random.Random):
    n, edges = g
    perm = list(range(n))
    rng.shuffle(perm)
    return n, frozenset(norm(perm[u], perm[v]) for u, v in edges)


def direct_product(g1, g2):
    """Direct product on row-major pairs (u, v) -> u * n2 + v."""
    n1, e1 = g1
    n2, e2 = g2
    out = set()
    for x, xp in e1:
        for y, yp in e2:
            out.add(norm(x * n2 + y, xp * n2 + yp))
            out.add(norm(x * n2 + yp, xp * n2 + y))
    return n1 * n2, frozenset(out)


def double_edge_swap(g, rng: random.Random):
    """One degree-preserving swap ab, cd -> ad, cb; None if 100 tries find none."""
    n, edges = g
    plain = sorted(e for e in edges if e[0] != e[1])
    for _ in range(100):
        (a, b), (c, d) = rng.sample(plain, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or norm(a, d) in edges or norm(c, b) in edges:
            continue
        return n, (edges - {norm(a, b), norm(c, d)}) | {norm(a, d), norm(c, b)}
    return None


def strong_edge_count(n1: int, m1: int, n2: int, m2: int) -> int:
    """Edges of the strong product of two loop-free graphs."""
    return n1 * m2 + n2 * m1 + 2 * m1 * m2


def canonical_form(g) -> tuple:
    """Lexicographically least relabelled edge list over all n! permutations."""
    n, edges = g
    best = None
    for perm in permutations(range(n)):
        key = sorted(norm(perm[u], perm[v]) for u, v in edges)
        if best is None or key < best:
            best = key
    return n, tuple(best)


def edge_list_text(g) -> str:
    n, edges = g
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"
