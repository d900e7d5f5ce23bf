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
byte-equal results.  Each graph instance is padded and self-checked once:
the result is kept on the graph, and repeated calls return that same
:class:`PaddingResult`, so a sweep that pairs the same graphs many times
pads each of them once.

The drivers decide isomorphism with a single call to a compositeness
oracle, a callable taking the disjoint union and returning True iff it is
composite under the direct product.

The lemma behind them, decided by :func:`union_compositeness_by_elimination`
and wrapped as :func:`elimination_oracle`: let g1 and g2 be class G members
with equal node and edge counts.  Any factorization of g1 u g2 splits its
2n nodes as 2 x n, as n is prime, so the left factor is a symmetric 2x2
matrix.  Counting (:func:`two_block_survivors`) leaves the identity I2 and
at most matrices with a loop and a cross edge, which would give the product
only even-order components.  I2 (x) B is g1 u g2 exactly when g1 and g2 are
both isomorphic to B, so the union is composite iff g1 and g2 are isomorphic.

The three class G entry points, :func:`class_g_isomorphism`,
:func:`union_compositeness_by_elimination` and :func:`elimination_oracle`,
share one gate: it checks the first graph, then the second, for class G and
says whether their node and edge counts agree.  They share one body too: the
two elimination entry points hold the lemma's verdict in one private
function, and :func:`class_g_isomorphism` reaches it through the oracle.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, NamedTuple

from .core import (
    MAX_HEADER_NODES,
    Edge,
    Graph,
    InternalError,
    PreconditionError,
    SizeLimitError,
    as_int,
    connected_components,
    disjoint_union,
    format_edge_list,
    induced_subgraph,
    is_bipartite,
    is_connected,
    require_graphs,
)
from .factorization import I2_MATRIX, K2_MATRIX, _divisor_pairs
from .isomorphism import are_isomorphic

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


class ClassGReport(NamedTuple):
    """Pass/fail of the five class G properties; member iff all hold.

    As a named tuple it also unpacks, indexes and compares equal to the plain
    tuple of its fields.
    """

    member: bool
    p1_connected_nonbipartite: bool
    p2_prime_order: bool
    p3_loops_lt_edges: bool
    p4_not_div2: bool
    p5_not_div3: bool

    def violations(self) -> list[str]:
        return [text for field, _, text in CLASS_G_PROPERTIES if not getattr(self, field)]


def is_prime_int(x: int) -> bool:
    """Whether x is prime: x >= 2 with no divisor split.

    The splits are the factor search's own lazy scan, stopped at its first divisor.
    """
    return x >= 2 and next(_divisor_pairs(x), None) is None


def class_g_check(g: Graph) -> ClassGReport:
    """Evaluate the five class G properties for any graph."""
    require_graphs("class_g_check", g)
    n = g.node_count
    t = g.nonzero_count
    p1 = n > 0 and is_connected(g) and not is_bipartite(g)
    p2 = is_prime_int(n)
    p3 = g.loop_count < g.edge_count
    p4 = t % 2 != 0
    p5 = t % 3 != 0
    return ClassGReport(p1 and p2 and p3 and p4 and p5, p1, p2, p3, p4, p5)


def _class_g_pair(g1: Graph, g2: Graph, which: str) -> bool:
    """Whether two class G members have equal node and edge counts.

    g1, then g2, is checked for class G; the first nonmember raises
    :class:`PreconditionError`, naming it the first or second ``which`` and
    carrying its report.
    """
    for g, order in ((g1, "first"), (g2, "second")):
        report = class_g_check(g)
        if not report.member:
            raise PreconditionError(
                f"{order} {which} is outside class G: {'; '.join(report.violations())}",
                report=report,
            )
    return g1.node_count == g2.node_count and g1.edge_count == g2.edge_count


def div2div3_offset(t: int) -> int:
    """Smallest offset d in {0..3} with t + d indivisible by 2 and by 3."""
    t = as_int(t, "t must be an integer")
    return next(d for d in range(4) if (t + d) % 2 and (t + d) % 3)


def prime_in_bertrand_range(n: int) -> int:
    """Smallest prime p with 2n < p < 4n (exists for every n >= 2).

    Each candidate is tested by the divisor scan of :func:`is_prime_int`, so n
    above :data:`~graphprod.core.MAX_HEADER_NODES`, more nodes than any
    edge-list header may announce, raises :class:`~graphprod.core.SizeLimitError`.
    """
    n = as_int(n, "n must be an integer")
    if n < 2:
        raise PreconditionError("need n >= 2")
    if n > MAX_HEADER_NODES:
        raise SizeLimitError(f"n = {n} exceeds the {MAX_HEADER_NODES}-node ceiling")
    for p in range(2 * n + 1, 4 * n):
        if is_prime_int(p):
            return p
    raise InternalError(f"no prime strictly between {2 * n} and {4 * n}")  # pragma: no cover


class PaddingResult(NamedTuple):
    """The padded graph plus construction bookkeeping.

    As a named tuple it also unpacks, indexes and compares equal to the plain
    tuple of its fields.
    """

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

    The padded graph is built without re-validating its edges: ``g``'s are
    valid, and the new ones are ``(min, max)`` pairs on nodes below p that
    add exactly d self-loops.  The result is still checked for class G.

    Each graph instance is padded and self-checked once: the result is kept
    on ``g``, beside its cached views, only after both checks pass, and
    later calls on that instance return that same :class:`PaddingResult`.
    A failed padding is not kept, so it raises again on every call.
    """
    require_graphs("pad_to_class_g", g)
    cached = vars(g).get("_padding")
    if cached is not None:
        return cached
    n = g.node_count
    if n < 2:
        raise PreconditionError("padding needs at least 2 nodes")
    if not is_connected(g):
        raise PreconditionError("padding is defined for connected graphs only")
    for p in filter(is_prime_int, range(2 * n + 1, 4 * n)):
        # the fan and the cycle add p edges and no loop
        d = div2div3_offset(g.nonzero_count + 2 * p)
        if p - n >= d + 1:
            break
    else:
        raise InternalError(f"no admissible prime between {2 * n} and {4 * n}")
    fan = tuple((x, n) for x in range(n))
    cycle = tuple((n + i, n + i + 1) for i in range(p - n - 1)) + ((n, p - 1),)
    loops = tuple((n + i, n + i) for i in range(1, d + 1))
    padded = Graph._derived(p, g.edges.union(fan, cycle, loops), g.loop_count + d)
    result = PaddingResult(padded, p, fan, cycle, d)
    report = class_g_check(padded)
    if not report.member:
        raise InternalError(f"padding left class G: {'; '.join(report.violations())}")
    if p - n <= n:
        raise InternalError("the padding cycle is not longer than the input graph")
    vars(g)["_padding"] = result
    return result


def padding_result_to_json(result: PaddingResult) -> dict:
    if not isinstance(result, PaddingResult):
        raise PreconditionError("padding_result_to_json needs a PaddingResult")
    require_graphs("padding_result_to_json", result.padded)
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
    return _class_g_pair(g1, g2, "graph") and bool(oracle(disjoint_union(g1, g2)))


def pad_pair(g1: Graph, g2: Graph) -> tuple[PaddingResult, PaddingResult, Graph] | None:
    """Both graphs padded into class G and their union, or None if the count filter answers NO.

    Both inputs must be connected with at least 2 nodes.  Graphs whose node
    or edge counts differ are not isomorphic and are not padded.  The union
    is the disjoint union of the padded graphs, the graph the oracle is asked about.
    """
    require_graphs("pad_pair", g1, g2)
    for g, which in ((g1, "first"), (g2, "second")):
        if g.node_count < 2:
            raise PreconditionError(f"{which} graph needs at least 2 nodes")
        if len(g.traversal.starts) != 1:  # is_connected, with no second gate per count-filter op
            raise PreconditionError(f"{which} graph must be connected")
    if g1.node_count != g2.node_count or g1.edge_count != g2.edge_count:
        return None
    pr1, pr2 = pad_to_class_g(g1), pad_to_class_g(g2)
    return pr1, pr2, disjoint_union(pr1.padded, pr2.padded)


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
    return pads is not None and bool(oracle(pads[2]))


# -- the two-block elimination decider ---------------------------------------

def two_block_survivors(g1: Graph, g2: Graph) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """2x2 left-factor candidates for g1 u g2 that survive the counting filters.

    Filters, in order: the union is undirected so A must be symmetric; both
    components have minimum degree >= 1 so A needs at least two nonzero
    entries; with k nonzeros in A the product has k * nnz(B) nonzero entries,
    which must equal nnz(g1) + nnz(g2), ruling out k = 3 and k = 4 whenever
    that total is not divisible by 3 resp. 4; the antidiagonal A would make
    the product bipartite while the union is not.
    """
    require_graphs("two_block_survivors", g1, g2)
    total = g1.nonzero_count + g2.nonzero_count
    survivors = []
    for mat in (((x, y), (y, z)) for x, y, z in product((0, 1), repeat=3)):
        nonzeros = mat[0][0] + mat[0][1] + mat[1][0] + mat[1][1]
        if nonzeros < 2:
            continue
        if nonzeros == 3 and total % 3 != 0:
            continue
        if nonzeros == 4 and total % 4 != 0:
            continue
        if mat == K2_MATRIX:
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
    if not _class_g_pair(g1, g2, "graph"):
        raise PreconditionError("elimination requires equal node and edge counts")
    return _elimination_verdict(g1, g2)


def _elimination_verdict(g1: Graph, g2: Graph) -> bool:
    """The lemma's verdict on g1 u g2, for class G members with equal counts."""
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


def elimination_oracle(g: Graph) -> bool:
    """Compositeness of a two-component union via the elimination argument."""
    require_graphs("elimination_oracle", g)
    comps = connected_components(g)
    if len(comps) != 2:
        raise PreconditionError("elimination oracle needs exactly two components")
    c1 = induced_subgraph(g, comps[0])
    c2 = induced_subgraph(g, comps[1])
    if c1.node_count != c2.node_count:
        raise PreconditionError("elimination oracle needs equal-order components")
    # Unequal edge counts answer False.  Padding same-order same-size inputs
    # with different loop counts lands there: both components are in class G
    # but their edge counts differ.  The union splits only as 2 x p (p prime),
    # I2 would force isomorphic components (equal edge counts), and every
    # other admissible left factor forces even-order components; so the union
    # is prime.
    return _class_g_pair(c1, c2, "component") and _elimination_verdict(c1, c2)
