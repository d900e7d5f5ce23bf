"""Class G membership, the padding transformation, and reduction drivers.

Class G is the domain on which compositeness of a disjoint union encodes
isomorphism.  A graph with n nodes, m edges, and s self-loops belongs to
class G iff

* P1: it is connected and not bipartite;
* P2: n is prime;
* P3: s < m;
* P4: 2m - s is not divisible by 2;
* P5: 2m - s is not divisible by 3.

:func:`pad_to_class_g` maps any connected graph into class G while
preserving isomorphism both ways: pick a prime p strictly between 2n and 4n,
fan every original node out to one new hub node, run a single cycle through
all p - n new nodes (longer than any simple cycle the original graph can
hold), then add up to three self-loops on the early cycle nodes to fix the
2m - s residues.  The construction is deterministic, so equal inputs give
byte-equal results.

The drivers at the bottom decide isomorphism with a single call to a
compositeness oracle, a callable taking the disjoint union and returning
True iff it is composite under the direct product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    Edge,
    Graph,
    InternalError,
    PreconditionError,
    as_int,
    disjoint_union,
    format_edge_list,
    is_bipartite,
    is_connected,
)

CompositenessOracle = Callable[[Graph], bool]


# One row per class G property: ClassGReport field, CLI label, violation text.
CLASS_G_PROPERTIES = (
    ("p1_connected_nonbipartite", "P1 connected and nonbipartite",
     "P1: not connected and nonbipartite"),
    ("p2_prime_order", "P2 prime node count", "P2: node count is not prime"),
    ("p3_loops_lt_edges", "P3 loops < edges", "P3: self-loops do not number fewer than edges"),
    ("p4_not_div2", "P4 2m-s not divisible by 2", "P4: 2m - s is divisible by 2"),
    ("p5_not_div3", "P5 2m-s not divisible by 3", "P5: 2m - s is divisible by 3"),
)


@dataclass(frozen=True)
class ClassGReport:
    """Pass/fail of the five class G properties; member iff all hold."""

    member: bool
    p1_connected_nonbipartite: bool
    p2_prime_order: bool
    p3_loops_lt_edges: bool
    p4_not_div2: bool
    p5_not_div3: bool

    def violations(self) -> list[str]:
        return [text for field, _, text in CLASS_G_PROPERTIES if not getattr(self, field)]


def is_prime_int(x: int) -> bool:
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def class_g_check(g: Graph) -> ClassGReport:
    """Evaluate the five class G properties for any graph."""
    n = g.node_count
    m = g.edge_count
    s = g.loop_count
    t = 2 * m - s
    p1 = n > 0 and is_connected(g) and not is_bipartite(g)
    p2 = is_prime_int(n)
    p3 = s < m
    p4 = t % 2 != 0
    p5 = t % 3 != 0
    return ClassGReport(p1 and p2 and p3 and p4 and p5, p1, p2, p3, p4, p5)


def require_class_g(g: Graph, which: str) -> None:
    """Raise :class:`PreconditionError`, carrying the report, unless g is in class G."""
    report = class_g_check(g)
    if not report.member:
        raise PreconditionError(
            f"{which} is outside class G: {'; '.join(report.violations())}", report=report
        )


def div2div3_offset(t: int) -> int:
    """Smallest offset d in {0..3} with t + d indivisible by 2 and by 3."""
    t = as_int(t, "t must be an integer")
    return next(d for d in range(4) if (t + d) % 2 and (t + d) % 3)


def prime_in_bertrand_range(n: int) -> int:
    """Smallest prime p with 2n < p < 4n (exists for every n >= 2)."""
    n = as_int(n, "n must be an integer")
    if n < 2:
        raise PreconditionError("need n >= 2")
    for p in range(2 * n + 1, 4 * n):
        if is_prime_int(p):
            return p
    raise InternalError(f"no prime strictly between {2 * n} and {4 * n}")  # pragma: no cover


@dataclass(frozen=True)
class PaddingResult:
    """The padded graph plus construction bookkeeping."""

    padded: Graph
    chosen_prime: int
    fan_edges: tuple[Edge, ...]
    cycle_edges: tuple[Edge, ...]
    loops_added: int

    @property
    def loop_nodes(self) -> tuple[int, ...]:
        first = self.padded.node_count - len(self.cycle_edges) + 1
        return tuple(range(first, first + self.loops_added))


def pad_to_class_g(g: Graph) -> PaddingResult:
    """Embed a connected graph (at least 2 nodes) into class G.

    New nodes n..p-1 are appended: node n is the fan hub adjacent to every
    original node, the new nodes form one cycle n -> n+1 -> ... -> p-1 -> n,
    and d <= 3 self-loops go on nodes n+1, n+2, n+3 as needed.  Each loop
    raises 2m - s by one, so d is the residue offset for the loop-free total.
    The smallest admissible prime is chosen; a prime is skipped only in the
    one corner (n = 2, p = 5, d = 3) where the loop nodes would not all
    exist, in which case p = 7 restores the construction.
    """
    n = g.node_count
    if n < 2:
        raise PreconditionError("padding needs at least 2 nodes")
    if not is_connected(g):
        raise PreconditionError("padding is defined for connected graphs only")
    m = g.edge_count
    s = g.loop_count
    for p in filter(is_prime_int, range(2 * n + 1, 4 * n)):
        base_total = 2 * (m + p) - s  # 2m - s after fan and cycle edges
        d = div2div3_offset(base_total)
        if p - n >= d + 1:
            break
    else:
        raise InternalError(f"no admissible prime between {2 * n} and {4 * n}")
    fan = tuple((x, n) for x in range(n))
    cycle = tuple((n + i, n + i + 1) for i in range(p - n - 1)) + ((n, p - 1),)
    loops = tuple((n + i, n + i) for i in range(1, d + 1))
    padded = Graph(p, frozenset(g.edges) | set(fan) | set(cycle) | set(loops))
    result = PaddingResult(padded, p, fan, cycle, d)
    report = class_g_check(padded)
    if not report.member:
        raise InternalError(f"padding left class G: {'; '.join(report.violations())}")
    if p - n <= n:
        raise InternalError("the padding cycle is not longer than the input graph")
    return result


def padding_result_to_json(result: PaddingResult) -> dict:
    return {
        "p": result.chosen_prime,
        "d": result.loops_added,
        "fan_edges": [list(e) for e in result.fan_edges],
        "cycle_edges": [list(e) for e in result.cycle_edges],
        "loop_nodes": list(result.loop_nodes),
        "padded_graph": format_edge_list(result.padded),
    }


def class_g_isomorphism(g1: Graph, g2: Graph, oracle: CompositenessOracle) -> bool:
    """Isomorphism of two class G members via one compositeness query.

    Unequal node or edge counts answer NO without consulting the oracle;
    otherwise the verdict is exactly the oracle's answer on the disjoint
    union.  Inputs outside class G are rejected with their membership report.
    """
    if not callable(oracle):
        raise PreconditionError("oracle must be callable")
    require_class_g(g1, "first graph")
    require_class_g(g2, "second graph")
    if g1.node_count != g2.node_count or g1.edge_count != g2.edge_count:
        return False
    return bool(oracle(disjoint_union(g1, g2)))


def pad_pair(g1: Graph, g2: Graph) -> tuple[PaddingResult, PaddingResult] | None:
    """Both graphs padded into class G, or None if the count filter answers NO.

    Both inputs must be connected with at least 2 nodes.  Graphs whose node
    or edge counts differ are not isomorphic and are not padded.
    """
    for g, which in ((g1, "first"), (g2, "second")):
        if g.node_count < 2:
            raise PreconditionError(f"{which} graph needs at least 2 nodes")
        if not is_connected(g):
            raise PreconditionError(f"{which} graph must be connected")
    if g1.node_count != g2.node_count or g1.edge_count != g2.edge_count:
        return None
    return pad_to_class_g(g1), pad_to_class_g(g2)


def graph_isomorphism_via_compositeness(
    g1: Graph, g2: Graph, oracle: CompositenessOracle
) -> bool:
    """Isomorphism of any two connected graphs via one compositeness query.

    Count filter first, then both graphs are padded into class G and the
    oracle is asked once about the disjoint union of the padded graphs.
    """
    if not callable(oracle):
        raise PreconditionError("oracle must be callable")
    pads = pad_pair(g1, g2)
    return pads is not None and bool(oracle(disjoint_union(pads[0].padded, pads[1].padded)))
