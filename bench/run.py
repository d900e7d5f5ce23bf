"""graphprod benchmark: one workload, one closed-loop caller, one result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload reduction-sweep --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py`` and described in ``README.md``.
One caller in one process sends its next op when the previous one returns;
no threads are used.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` times ops for ``--seconds`` (``cli-cold`` also runs until it
has 100 ops) and reports the end-to-end metrics.  ``--trace 1`` runs each of
the workload's first ``trace_ops`` ops twice, untraced and with spans around
graphprod's public functions, and reports the per-layer metrics and the
tracing overhead; a fixed op list keeps the ``.calls`` counts identical
across runs of one seed.  Timings are scaled to a reference machine speed
(see ``calibrate``).  Every run also writes its full report, with the
environment, to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from importlib import metadata
from typing import NoReturn

import gen
import tracer
from workloads import FAILED, WORKLOADS, CliCold, Failure

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
CLI_SETUP_ROUNDS = 3

# metric name -> unit, for --trace 0
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_graphprod():
    """Import graphprod from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import graphprod

    if not os.path.abspath(graphprod.__file__).startswith(SRC + os.sep):
        fail(f"graphprod was imported from {graphprod.__file__}, not from {SRC}")
    return graphprod


def environment(seed: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "seed": seed,
        "cpu_model": model,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
    }


# The shared host this benchmark was tuned on drifts in speed by tens of
# percent within a minute, and the drift moves any pure-Python graph code
# about as much as it moves graphprod.  Every timing is therefore scaled by
# REF_CAL_S / c, where c is the time of a fixed pure-Python kernel taken
# just before and just after each ~SEGMENT_S of op time (the mean of the
# two is used).  The kernel is the benchmark's own code, not graphprod's, so
# a change to graphprod moves the scaled times exactly as it moves the raw
# ones.  REF_CAL_S is the kernel's typical time on the machine the bounds
# were set on (Intel Xeon, 2 cores, Python 3.11).
REF_CAL_S = 1.7e-3
SEGMENT_S = 0.1
_CAL_GRAPH = gen.random_connected(5, random.Random("calibration"))


def calibrate() -> float:
    """Seconds the calibration kernel takes now: the faster of two runs, no GC."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            for _ in range(5):
                gen.canonical_form(_CAL_GRAPH)
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        gc.enable()


class Stream:
    """What a pass over the op stream leaves: timings, outcomes, verdicts."""

    def __init__(self, keep: bool):
        self.raw = array("d")
        self.latencies = array("d")  # raw times scaled to the reference speed
        self.busy = 0.0
        self.segment = 0.0
        self.calibrations = [calibrate()]
        self.outcomes: dict[str, int] = {}
        self.keep = keep
        self.results: list = []
        self.verdicts = hashlib.sha256()

    def time_op(self, workload, op, plain, args, k: int) -> None:
        """Time one op, then judge its result and record the outcome."""
        t0 = time.perf_counter()
        try:
            result = op(args)
        except Exception as exc:  # counted as a failed op, and the run goes on
            result = Failure(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        self.raw.append(t1 - t0)
        self.busy += t1 - t0
        self.segment += t1 - t0
        outcome = workload.judge(plain, k, result)
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.verdicts.update(workload.verdict(result).encode() + b"\n")
        if self.keep:
            self.results.append(result)
        if self.segment >= SEGMENT_S:
            self.close_segment()

    def close_segment(self) -> None:
        """Scale the raw times since the last calibration by the speed around them."""
        self.calibrations.append(calibrate())
        scale = REF_CAL_S * 2 / (self.calibrations[-2] + self.calibrations[-1])
        for i in range(len(self.latencies), len(self.raw)):
            self.latencies.append(self.raw[i] * scale)
        self.segment = 0.0

    def close(self) -> "Stream":
        if len(self.latencies) < len(self.raw):
            self.close_segment()
        return self

    @property
    def scaled_busy(self) -> float:
        return sum(self.latencies)

    @property
    def failed(self) -> int:
        return self.outcomes.get(FAILED, 0)


def run_stream(workload, gp, seed, *, seconds=None, count=None) -> Stream:
    """Closed loop over the workload's op stream for ``seed``.

    The clock runs only inside ops.  Drawing and preparing the next op's
    inputs, judging each result against the reference right after its op,
    and calibrating, are the benchmark's work and are left out.  With
    ``seconds``, stops once the ops have taken that long (unscaled) and
    ``workload.min_ops`` are done; with ``count``, runs exactly that many
    ops and keeps their results.
    """
    rng = random.Random(seed)
    op = workload.make_op(gp)
    out = Stream(keep=count is not None)
    k = 0
    while count is None or k < count:
        plain = workload.draw(rng, k)
        out.time_op(workload, op, plain, workload.prepare(gp, plain, k), k)
        k += 1
        if seconds is not None and out.busy >= seconds and k >= workload.min_ops:
            break
    return out.close()


def run_pair(workload, traced_workload, gp, seed, count: int, spans=None):
    """The first ``count`` ops, each untraced and traced back to back.

    The order of the two alternates from op to op, so drift in machine speed
    falls on both passes alike.  ``spans``, if given, is installed around
    each traced op only.  Returns the untraced and the traced stream.
    """
    rng = random.Random(seed)
    plain_pass = (workload, workload.make_op(gp), Stream(keep=True), None)
    traced_pass = (traced_workload, traced_workload.make_op(gp), Stream(keep=True), spans)
    for k in range(count):
        plain = workload.draw(rng, k)
        for wl, op, out, tracer_ in (plain_pass, traced_pass)[::1 if k % 2 else -1]:
            args = wl.prepare(gp, plain, k)
            if tracer_ is not None:
                tracer_.op = k
                tracer_.install()
            try:
                out.time_op(wl, op, plain, args, k)
            finally:
                if tracer_ is not None:
                    tracer_.uninstall()
    return plain_pass[2].close(), traced_pass[2].close()


def finish(workload, setup, stream: Stream, rss_mb: list[float]):
    """End-to-end metrics of one timed phase.

    ``ops_per_s`` is the median, over consecutive rounds of
    ``workload.round_ops`` ops, of the round's throughput, so that a rare
    expensive input moves it no more than it moves the median latency.
    ``op_ms_tail`` is the workload's fixed percentile ``tail_per_mille``,
    by nearest rank.
    """
    latencies = stream.latencies
    n = len(latencies)
    size = workload.round_ops
    rounds = [size / sum(latencies[i:i + size]) for i in range(0, n - size + 1, size)]
    ms = sorted(x * 1000.0 for x in latencies)
    rank = max(-(-n * workload.tail_per_mille // 1000), 1)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(rounds),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": ms[rank - 1],
        "ok_share": (n - stream.failed) / n,
        "peak_rss_mb": statistics.median(rss_mb),
    }
    cal_ms = sorted(c * 1000.0 for c in stream.calibrations)
    details = {
        "setup_samples_s": setup,
        "peak_rss_samples_mb": rss_mb,
        "ops": n,
        "rounds": len(rounds),
        "busy_s": stream.busy,
        "phase_ops_per_s": n / stream.scaled_busy,
        "unscaled_ops_per_busy_s": n / stream.busy,
        "unscaled_op_ms_p50": statistics.median(stream.raw) * 1000.0,
        "calibration_ms": {"min": cal_ms[0], "median": statistics.median(cal_ms),
                           "max": cal_ms[-1], "samples": len(cal_ms)},
        "op_ms_tail_percentile": f"p{workload.tail_per_mille / 10:g}",
        "op_ms_tail_samples_beyond": n - rank,
        "op_ms_max": ms[-1],
        "failed_share": stream.failed / n,
        "outcomes": dict(sorted(stream.outcomes.items())),
    }
    metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    return metrics, n, stream.failed, details


def traced_result(plain: Stream, traced: Stream, summary: dict, cli: dict):
    """Per-layer metrics from spans, the CLI timings and the tracing overhead."""
    digest = traced.verdicts.hexdigest()
    same = plain.verdicts.hexdigest() == digest
    metrics = tracer.layer_metrics(summary)
    for key, value in cli.items():
        metrics[f"cli.{key}"] = (value, "ms")
    count = len(plain.latencies)
    plain_s, traced_s = plain.scaled_busy, traced.scaled_busy
    metrics["trace.untraced_ops_per_s"] = (count / plain_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (count / traced_s, "1/s")
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "share")
    details = {"ops_per_pass": count, "verdict_sha256": digest,
               "traced_verdicts_match_untraced": same,
               "outcomes": dict(sorted(plain.outcomes.items()))}
    # a traced pass whose verdicts differ from the untraced pass fails every op
    failed = plain.failed + traced.failed + (0 if same else count)
    return metrics, 2 * count, failed, details


def warmup_seed(cls) -> str:
    return f"warmup-{cls.name}"


def probe_setup(cls, seed: int) -> None:
    """One set-up of an in-process workload, in this fresh interpreter.

    After the set-up it runs the first ``cls.rss_ops`` ops of ``seed``'s
    stream, off the clock, unjudged and keeping nothing, then reports the
    process's peak resident memory.  That is graphprod's footprint at a
    fixed amount of work; the timed process's own peak also holds the
    benchmark's per-op records, which grow with throughput.
    """
    workload = cls()
    rng = random.Random(warmup_seed(cls))
    plain = [workload.draw(rng, k) for k in range(cls.warmup_ops)]
    before = calibrate()
    t0 = time.perf_counter()
    gp = import_graphprod()
    t1 = time.perf_counter()
    inputs = [workload.prepare(gp, p, k) for k, p in enumerate(plain)]
    op = workload.make_op(gp)
    t2 = time.perf_counter()
    for args in inputs:
        op(args)
    t3 = time.perf_counter()
    scale = REF_CAL_S * 2 / (before + calibrate())
    rng = random.Random(seed)
    for k in range(cls.rss_ops):
        try:
            op(workload.prepare(gp, workload.draw(rng, k), k))
        except Exception:  # the timed phase runs the same op and counts it
            pass
    print(json.dumps({"setup_s": ((t1 - t0) + (t3 - t2)) * scale,
                      "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))


def probe(cls, seed: int) -> tuple[list[float], list[float]]:
    """Set up ``SETUP_REPEATS`` times, each in a fresh interpreter.

    Returns the set-up times and the peak resident memories, in MB.
    """
    setup, rss = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", cls.name,
             "--seed", str(seed), "--probe-setup"],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        setup.append(sample["setup_s"])
        rss.append(sample["rss_mb"])
    return setup, rss


def in_process(cls, args):
    workload = cls()
    setup, rss = ([], []) if args.trace else probe(cls, args.seed)
    gp = import_graphprod()
    run_stream(workload, gp, warmup_seed(cls), count=cls.warmup_ops)
    if not args.trace:
        stream = run_stream(workload, gp, args.seed, seconds=args.seconds)
        return finish(workload, setup, stream, rss)

    spans = tracer.Tracer()
    plain, traced = run_pair(workload, workload, gp, args.seed, cls.trace_ops, spans)
    cli = dict.fromkeys(("startup_ms", "handler_ms", "import_ms", "numpy_import_ms"), 0.0)
    return traced_result(plain, traced, spans.summary(), cli)


def importtime_ms(stderr: str) -> tuple[float, float]:
    """Cumulative import times of graphprod (with graphprod.cli) and numpy."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1000.0
    graphprod = cumulative.get("graphprod", 0.0) + cumulative.get("graphprod.cli", 0.0)
    return graphprod, cumulative.get("numpy", 0.0)


def cli_cold(args, workdir: str):
    workload = CliCold(workdir, SRC, [sys.executable, "-m", "graphprod.cli"])
    seed, count = args.seed, CliCold.trace_ops
    if not args.trace:
        setup = [run_stream(workload, None, warmup_seed(CliCold),
                            count=CliCold.warmup_ops).scaled_busy
                 for _ in range(CLI_SETUP_ROUNDS)]
        stream = run_stream(workload, None, seed, seconds=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return finish(workload, setup, stream, [rss_mb])

    run_stream(workload, None, warmup_seed(CliCold), count=CliCold.warmup_ops)
    traced_workload = CliCold(workdir, SRC, [sys.executable, "-X", "importtime",
                                             os.path.join(BENCH, "cli_child.py")])
    plain, traced = run_pair(workload, traced_workload, None, seed, count)
    startup, handler, imports, numpy_imports, summaries = [], [], [], [], []
    for wall, result in zip(plain.raw, plain.results):
        report = CliCold.report(result)
        if report is not None:
            handler.append(report["elapsed_ms"])
            startup.append(wall * 1000.0 - report["elapsed_ms"])
    for result in traced.results:
        if isinstance(result, Failure):
            continue
        marks = [line for line in result[2].splitlines()
                 if line.startswith(tracer.SUMMARY_MARK)]
        if marks:
            summaries.append(json.loads(marks[-1][len(tracer.SUMMARY_MARK):]))
        gp_ms, np_ms = importtime_ms(result[2])
        imports.append(gp_ms)
        numpy_imports.append(np_ms)
    cli = {key: statistics.median(values) if values else 0.0 for key, values in (
        ("startup_ms", startup), ("handler_ms", handler),
        ("import_ms", imports), ("numpy_import_ms", numpy_imports))}
    metrics, attempted, failed, details = traced_result(
        plain, traced, tracer.merge(summaries), cli)
    # a traced run that left no span summary counts as a failed op
    return metrics, attempted, failed + count - len(summaries), details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graphprod", "__init__.py")):
        fail(f"no graphprod sources under {SRC}; run from the root of a checkout")
    cls = WORKLOADS[args.workload]
    calibrate()  # the first run in a fresh interpreter is slower
    if args.probe_setup:
        probe_setup(cls, args.seed)
        return 0

    env = environment(args.seed)
    os.makedirs(OUT, exist_ok=True)
    if cls is CliCold:
        workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        try:
            metrics, attempted, failed, details = cli_cold(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        metrics, attempted, failed, details = in_process(cls, args)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "details": details, "result": result}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    print(f"report: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
