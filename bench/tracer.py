"""Spans around calls into graphprod's public functions, taken from outside.

:class:`Tracer` replaces each traced function by a wrapper at every
``graphprod`` module namespace that holds it (``Graph.__post_init__`` is
replaced on the class), so calls made inside the package are caught as well
as calls made by the benchmark.  ``uninstall`` puts the originals back.
Nothing under ``src/`` is edited.

Every span records its name, start, end, parent span and op id in flat
arrays kept in memory.  A span's self time is its duration minus the
durations of its direct children; calls on one thread nest, so the children
cover disjoint parts of the parent.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" names a class attribute
TARGETS = (
    ("core.graph_init", "graphprod.core", "Graph.__post_init__"),
    ("core.is_connected", "graphprod.core", "is_connected"),
    ("core.connected_components", "graphprod.core", "connected_components"),
    ("core.is_bipartite", "graphprod.core", "is_bipartite"),
    ("core.disjoint_union", "graphprod.core", "disjoint_union"),
    ("core.relabel", "graphprod.core", "relabel"),
    ("core.parse_edge_list", "graphprod.core", "parse_edge_list"),
    ("core.format_edge_list", "graphprod.core", "format_edge_list"),
    ("products.product", "graphprod.products", "product"),
    ("isomorphism.are_isomorphic", "graphprod.isomorphism", "are_isomorphic"),
    ("factorization.factor_search", "graphprod.factorization", "factor_search"),
    ("factorization.find_factorization", "graphprod.factorization", "find_factorization"),
    ("factorization.witness_is_valid", "graphprod.factorization", "witness_is_valid"),
    (
        "reduction.graph_isomorphism_via_compositeness",
        "graphprod.reduction",
        "graph_isomorphism_via_compositeness",
    ),
    ("reduction.pad_to_class_g", "graphprod.reduction", "pad_to_class_g"),
    ("reduction.class_g_check", "graphprod.reduction", "class_g_check"),
)
NAMES = tuple(name for name, _, _ in TARGETS)
# a traced CLI child writes its summary to stderr on a line starting with this
SUMMARY_MARK = "bench-trace: "
_REDUCE = NAMES.index("reduction.graph_isomorphism_via_compositeness")
_ORACLE = NAMES.index("factorization.find_factorization")


class Tracer:
    """Span recorder; ``op`` is the id of the op in progress, set by the caller."""

    def __init__(self):
        self.op = -1
        self.name = array("B")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.hit = array("b")
        self._stack: list[int] = []
        # (owner, attribute, original, wrapper) for every place a target sits
        self._sites: list[tuple[object, str, object, object]] = []

    def _wrap(self, fn, nid: int):
        name, parent, op_id = self.name, self.parent, self.op_id
        start, end, hit, stack = self.start, self.end, self.hit, self._stack
        tracer = self

        def span(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(tracer.op)
            hit.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                hit[idx] = result is not None
                return result
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return span

    def install(self) -> None:
        """Put the wrappers in place; the places are found on the first call."""
        if not self._sites:
            self._sites = list(self._find_sites())
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _find_sites(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "graphprod" or key.startswith("graphprod.")]
        for nid, (_, module_name, attr) in enumerate(TARGETS):
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                yield cls, attr, original, self._wrap(original, nid)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, nid)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        yield module, key, original, wrapper

    def summary(self) -> dict:
        """Per-name calls, self seconds and non-None results, plus oracle reach."""
        count = len(self.name)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        hits = [0] * len(NAMES)
        reached = set()
        for i in range(count):
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - child[i]
            hits[nid] += self.hit[i]
            if nid == _ORACLE:
                p = self.parent[i]
                while p >= 0 and self.name[p] != _REDUCE:
                    p = self.parent[p]
                if p >= 0:
                    reached.add(p)
        return {
            "calls": dict(zip(NAMES, calls)),
            "self_s": dict(zip(NAMES, self_s)),
            "hits": dict(zip(NAMES, hits)),
            "oracle_reached": len(reached),
        }


def merge(summaries: list[dict]) -> dict:
    out = {"calls": dict.fromkeys(NAMES, 0), "self_s": dict.fromkeys(NAMES, 0.0),
           "hits": dict.fromkeys(NAMES, 0), "oracle_reached": 0}
    for s in summaries:
        for key in ("calls", "self_s", "hits"):
            for name in NAMES:
                out[key][name] += s[key][name]
        out["oracle_reached"] += s["oracle_reached"]
    return out


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json that spans give, by name."""
    calls, self_s, hits = summary["calls"], summary["self_s"], summary["hits"]
    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (self_s[name] * 1000.0, "ms")

    def share(part, whole):
        return part / whole if whole else 0.0

    iso = "isomorphism.are_isomorphic"
    out[f"{iso}.yes_share"] = (share(hits[iso], calls[iso]), "share")
    fs = "factorization.factor_search"
    out[f"{fs}.hit_ratio"] = (share(hits[fs], calls[fs]), "share")
    red = NAMES[_REDUCE]
    out["reduction.oracle_call_share"] = (
        share(summary["oracle_reached"], calls[red]), "share")
    return out
