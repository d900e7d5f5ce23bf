"""Steadiness self-check for the benchmark in ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 bench/steady.py --seeds 1-10
    python3 bench/steady.py --seeds 11-20 --compare .bench_out/steady-1-10.json

For every workload of ``BENCHMARK.json`` it runs ``run.py --trace 0`` for
``run_seconds`` once per seed, seeds in the outer loop so that drift in
machine load spreads over all workloads, and takes for each end-to-end
metric the spread ``(q3 - q1) / median`` of its values.  Every spread must
stay within the metric's bound; ``--compare`` also requires each median to be no worse than
in an earlier summary by more than the bound.  It then runs ``--trace 1``
twice on the first seed and requires bit-identical ``.calls`` counts and
identical verdicts.  The summary, with the environment, goes to
``.bench_out/steady-<seeds>.json``; the exit code is 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH, OUT, ROOT, environment


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def traced(workload: str, seed: int, seconds: int) -> tuple[dict, str, bool]:
    """Call counts, verdict digest and correctness of one traced run."""
    result = run(workload, seed, seconds, 1)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace1.json"), encoding="utf-8") as fh:
        sha = json.load(fh)["details"]["verdict_sha256"]
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    return calls, sha, result["correct"]


def worse_share(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--compare", help="an earlier summary to compare medians with")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    metrics = spec["end_to_end"]
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    ok = True
    for seed in seeds:
        for w in workloads:
            result = run(w, seed, seconds, 0)
            if not result["correct"]:
                print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
                ok = False
            for m in metrics:
                values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{w} seed {seed}: " + "  ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics),
                flush=True)

    summary = {}
    print(f"\n{'workload':16s} {'metric':12s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s}  verdict")
    for w in workloads:
        summary[w] = {}
        for m in metrics:
            vals = values[w][m["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            row = {"values": vals, "median": median, "spread": spread}
            if spread > m["bound"]:
                verdict, ok = "FAIL spread", False
            else:
                verdict = "ok" if spread <= m["bound"] / 3 else "ok, above a third of bound"
            if earlier is not None and w in earlier:
                shift = worse_share(median, earlier[w][m["name"]]["median"], m["better"])
                row["worse_than_compared"] = shift
                if shift > m["bound"]:
                    verdict, ok = f"FAIL median {shift:+.3f}", False
            summary[w][m["name"]] = row
            print(f"{w:16s} {m['name']:12s} {median:12.6g} {spread:8.4f} "
                  f"{m['bound']:6.3f}  {verdict}")

    determinism = {}
    for w in workloads:
        first, second = (traced(w, seeds[0], seconds) for _ in range(2))
        same = first == second and first[2]
        determinism[w] = {"calls_and_verdicts_identical": first == second,
                          "correct": first[2], "verdict_sha256": first[1]}
        ok = ok and same
        print(f"{w}: two traced runs of seed {seeds[0]} "
              f"{'agree' if same else 'DIFFER'} on {len(first[0])} call counts and the verdicts")

    out = os.path.join(OUT, f"steady-{args.seeds}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(seeds[0]), "seeds": seeds,
                   "seconds": seconds, "workloads": summary,
                   "determinism": determinism, "ok": ok}, fh, indent=1)
    print(f"summary: {os.path.relpath(out, ROOT)}; {'all checks pass' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
