"""The four workloads: seeded inputs, the op each one times, and its checks.

An op is one user-level decision.  Each workload is an endless stream:
``draw(rng, k)`` makes the plain inputs of op ``k`` (pure Python, see
:mod:`gen`) from the run's seeded ``rng``, ``prepare`` turns them into what
the op takes, ``make_op`` returns the timed call, and ``judge`` checks the
result against an independent reference, off the clock, and names its
outcome.  Draws are never screened by their run time.  Op ``k`` belongs to
input category ``k % len(categories)``, so every stretch of the stream has
the same mix.

In-process ops reach graphprod through the ``gp`` module at call time, so a
:class:`tracer.Tracer` installed on the package sees them.
"""

from __future__ import annotations

import json
import os
import subprocess

import gen
import refcheck

FAILED = "failed"


class Failure:
    """An op that raised."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return f"Failure({self.text!r})"


class ReductionSweep:
    """Criterion-7 pipeline on random ordered pairs of 2-4-node graphs."""

    name = "reduction-sweep"
    warmup_ops = 400
    rss_ops = 2000
    trace_ops = 20_000
    min_ops = 1
    round_ops = 1000
    tail_per_mille = 999
    five_node_share = 0.01

    def __init__(self):
        self.small = [g for n in (2, 3, 4) for g in gen.all_connected_graphs(n)]
        if len(self.small) != 644:
            raise RuntimeError(f"expected 644 connected graphs, found {len(self.small)}")
        self.built: dict = {}
        self.canon: dict = {}

    def draw(self, rng, k: int):
        if rng.random() < self.five_node_share:
            g1 = gen.random_connected(5, rng)
            g2 = gen.relabel(g1, rng) if rng.random() < 0.5 else gen.random_connected(5, rng)
            return g1, g2
        return rng.choice(self.small), rng.choice(self.small)

    def prepare(self, gp, plain, k: int):
        if not self.built:
            self.built = {g: gp.Graph(*g) for g in self.small}
        return tuple(self.built.get(g) or gp.Graph(*g) for g in plain)

    @staticmethod
    def make_op(gp):
        def op(pair):
            return gp.graph_isomorphism_via_compositeness(pair[0], pair[1], gp.search_oracle)

        return op

    @staticmethod
    def verdict(result) -> str:
        return repr(result)

    def judge(self, plain, k: int, result) -> str:
        forms = []
        for g in plain:
            if g not in self.canon:
                self.canon[g] = gen.canonical_form(g)
            forms.append(self.canon[g])
        truth = forms[0] == forms[1]
        if result is not truth:
            return FAILED
        (n1, e1), (n2, e2) = plain
        path = "oracle" if n1 == n2 and len(e1) == len(e2) else "count_filter"
        return f"{'yes' if truth else 'no'}_by_{path}"


class FactorMixed:
    """find_factorization on products and one-swap near-composites."""

    name = "factor-mixed"
    # (a, b, built as a product), op k takes category k % 6
    categories = ((2, 6, True), (2, 6, False), (3, 4, True), (3, 4, False),
                  (2, 8, True), (2, 8, False))
    warmup_ops = 12
    rss_ops = 24
    trace_ops = 300
    min_ops = 1
    round_ops = 6
    # p99 has ten samples beyond it here, but a handful of 16-node
    # near-composites set it and it spreads past any bound across seeds
    tail_per_mille = 900

    def draw(self, rng, k: int):
        a, b, product = self.categories[k % len(self.categories)]
        g = None
        while g is None:
            g = gen.direct_product(gen.random_connected(a, rng), gen.random_connected(b, rng))
            if not product:
                g = gen.double_edge_swap(g, rng)
        return gen.relabel(g, rng)

    @staticmethod
    def prepare(gp, plain, k: int):
        return gp.Graph(*plain)

    @staticmethod
    def make_op(gp):
        def op(g):
            return gp.find_factorization(g)

        return op

    @staticmethod
    def verdict(result) -> str:
        if result is None or isinstance(result, Failure):
            return repr(result)
        return repr((sorted(result.factor_a.edges), sorted(result.factor_b.edges),
                     result.labeling))

    def judge(self, plain, k: int, result) -> str:
        product = self.categories[k % len(self.categories)][2]
        if isinstance(result, Failure):
            return FAILED
        if result is None:
            # a near-composite may be prime, and nothing independent confirms it
            return FAILED if product else "prime_unverified"
        a, b = result.factor_a, result.factor_b
        if not refcheck.factorization_holds(plain, a.node_count, b.node_count,
                                            a.edges, b.edges, result.labeling):
            return FAILED
        return "composite_product" if product else "composite_near"


class IsoDirect:
    """are_isomorphic without a node bound, on cubic and sparse pairs."""

    name = "iso-direct"
    # (family, second graph is a relabelling of the first), op k takes k % 4
    categories = (("cubic20", True), ("cubic20", False),
                  ("sparse128", True), ("sparse128", False))
    warmup_ops = 8
    rss_ops = 16
    trace_ops = 300
    min_ops = 1
    round_ops = 4
    tail_per_mille = 990

    def draw(self, rng, k: int):
        family, relabelled = self.categories[k % len(self.categories)]
        if family == "cubic20":
            g1 = gen.random_cubic(20, rng)
            return g1, gen.relabel(g1, rng) if relabelled else gen.random_cubic(20, rng)
        g1, g2 = gen.random_sparse(128, rng), None
        while g2 is None:
            g2 = g1 if relabelled else gen.double_edge_swap(g1, rng)
        return g1, gen.relabel(g2, rng)

    @staticmethod
    def prepare(gp, plain, k: int):
        return gp.Graph(*plain[0]), gp.Graph(*plain[1])

    @staticmethod
    def make_op(gp):
        def op(pair):
            return gp.are_isomorphic(pair[0], pair[1], node_limit=None)

        return op

    @staticmethod
    def verdict(result) -> str:
        if result is None or isinstance(result, Failure):
            return repr(result)
        return repr(result.mapping)

    def judge(self, plain, k: int, result) -> str:
        g1, g2 = plain
        if isinstance(result, Failure):
            return FAILED
        if result is not None:
            return "yes" if refcheck.mapping_holds(g1, g2, result.mapping) else FAILED
        if self.categories[k % len(self.categories)][1]:
            return FAILED
        proof = refcheck.non_isomorphism_proof(g1, g2)
        return f"no_by_{proof}" if proof else FAILED


class CliCold:
    """One cold ``python -m graphprod.cli --json`` process per op."""

    name = "cli-cold"
    categories = ("factor", "iso", "product")
    warmup_ops = 3
    trace_ops = 24
    # op_ms_tail needs ten samples beyond p90
    min_ops = 100
    round_ops = 3
    tail_per_mille = 900

    def __init__(self, workdir: str, src: str, prefix: list[str]):
        self.workdir = workdir
        self.prefix = prefix
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.four = gen.all_connected_graphs(4)

    def draw(self, rng, k: int):
        kind = self.categories[k % len(self.categories)]
        if kind == "factor":
            a, b = ((2, 6), (3, 4))[k // 3 % 2]
            g = gen.direct_product(gen.random_connected(a, rng), gen.random_connected(b, rng))
            return kind, gen.relabel(g, rng)
        if kind == "iso":
            g1 = rng.choice(self.four)
            return kind, g1, gen.relabel(g1, rng) if rng.random() < 0.5 else rng.choice(self.four)
        c64 = gen.cycle(64)
        return kind, gen.relabel(c64, rng), gen.relabel(c64, rng)

    def prepare(self, gp, plain, k: int) -> list[str]:
        """Write op k's inputs as edge-list files; the CLI arguments."""
        kind, *graphs = plain
        paths = []
        for i, g in enumerate(graphs):
            paths.append(os.path.join(self.workdir, f"op{k}_{i}.el"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(gen.edge_list_text(g))
        if kind == "factor":
            return ["factor", "--json", *paths]
        if kind == "iso":
            return ["iso", "--mode", "reduction", "--json", *paths]
        out = os.path.join(self.workdir, f"op{k}_out.el")
        return ["product", "--kind", "strong", "--json", "--out", out, *paths]

    def make_op(self, gp):
        prefix, env = self.prefix, self.env

        def op(args):
            proc = subprocess.run(prefix + args, env=env, capture_output=True, text=True)
            return proc.returncode, proc.stdout, proc.stderr

        return op

    @staticmethod
    def report(result) -> dict | None:
        """The ``--json`` report of a run that exited 0, else None."""
        if isinstance(result, Failure) or result[0] != 0:
            return None
        try:
            return json.loads(result[1].splitlines()[-1])
        except (IndexError, ValueError):
            return None

    def verdict(self, result) -> str:
        report = self.report(result)
        if report is None:
            return repr(result)
        outcome = dict(report["outcome"])
        outcome.pop("out", None)
        return json.dumps(outcome, sort_keys=True)

    def judge(self, plain, k: int, result) -> str:
        report = self.report(result)
        if report is None:
            return FAILED
        kind, *graphs = plain
        outcome = report["outcome"]
        if kind == "factor":
            w = outcome.get("witness")
            ok = outcome["verdict"] == "composite" and refcheck.factorization_holds(
                graphs[0], w["a_order"], w["b_order"], [tuple(e) for e in w["a_edges"]],
                [tuple(e) for e in w["b_edges"]], [tuple(p) for p in w["labeling"]])
        elif kind == "iso":
            truth = gen.canonical_form(graphs[0]) == gen.canonical_form(graphs[1])
            ok = outcome["verdict"] == ("YES" if truth else "NO")
        else:
            (n1, e1), (n2, e2) = graphs
            expect = gen.strong_edge_count(n1, len(e1), n2, len(e2))
            with open(outcome["out"], encoding="utf-8") as fh:
                text = fh.read()
            ok = (outcome["nodes"] == n1 * n2 and outcome["edges"] == expect
                  and text == outcome["edge_list"]
                  and text.startswith(f"{n1 * n2} {expect}\n")
                  and text.count("\n") == expect + 1)
        return kind if ok else FAILED


WORKLOADS = {cls.name: cls for cls in (ReductionSweep, FactorMixed, IsoDirect, CliCold)}
