"""holoquant benchmark: seeded closed-loop workloads with a byte-digest gate.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # grid, matrix, point

One client sends requests in a closed loop in this one process: the next
request goes out when the previous one returns.  Every output is hashed
and compared with the digest recorded in ``digests/<workload>.json``; a
request that raises, exits non-zero or prints other bytes is a failure.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` of busy
request time.  ``--trace 1`` takes a fixed request set (the fixed
requests and the first rounds of the seed's order, sized from
``--seconds``) and runs it four times: an untimed warm-up, untraced, with
per-layer spans, and with spans plus tracemalloc.  The per-layer metrics
come from the last two passes; the untraced and the spans pass give the
tracing overhead.

The report goes to stdout; its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Husimi grid bytes depend on the OpenBLAS thread count (the coefficient
# contraction sums in a different order), so the digests hold only for the
# count they were recorded with.  A caller's own setting is kept, and then
# shows up as failed requests on the grid workload.
BLAS_THREADS = "2"
SETUP_LAUNCHES = 7
# what a user of each workload imports; every CLI invocation pays this
SETUP_IMPORT = {"grid": "holoquant.cli", "matrix": "holoquant.cli",
                "point": "holoquant"}
# pool rounds per second of --seconds in a traced run, so that its four
# passes over the fixed set take about --seconds at the recording commit
TRACE_ROUNDS_PER_SECOND = {"grid": 0.04, "matrix": 0.04, "point": 0.5}


def percentile_tail(latencies):
    """Highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Tally:
    """Outcome of one pass of the closed loop."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.failures = []

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy_s(self):
        return sum(self.latencies)


class Gate:
    """Recorded digests of one workload's pool."""

    def __init__(self, path):
        import workloads
        self.digest = workloads.digest
        data = json.loads(path.read_text())
        self.fixed = data["fixed"]
        self.rounds = data["rounds"]

    def check(self, item, result):
        """None when ``result`` has the recorded bytes, else the reason."""
        place, i = item.where
        entry = self.fixed if place == "fixed" else self.rounds[place]
        if entry["key"] != item.round_key:
            return "request generation differs from the recorded pool"
        got, expected = self.digest(result), entry["digests"][i]
        if got != expected:
            return "output digest %s, recorded %s" % (got, expected)
        return None


def closed_loop(items, gate, budget_s=None, tracer=None):
    """Send ``items`` one at a time; stop after ``budget_s`` of busy time."""
    tally = Tally()
    for n, item in enumerate(items):
        request = item.request
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = request()
            else:
                result = tracer.request(n, request)
        except Exception:  # a failing request is counted, and the loop goes on
            error = traceback.format_exc(limit=3)
        tally.latencies.append(time.perf_counter() - start)
        if error is None:
            error = gate.check(item, result)
        if error is not None:
            tally.failed += 1
            if len(tally.failures) < 3:
                tally.failures.append("%s: %s" % (request.key[:160], error.strip()))
        if budget_s is not None and tally.busy_s >= budget_s:
            break
    return tally


def measure_setup(module):
    """Median wall time of fresh interpreters that import ``module`` and exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import " + module], env=env,
                       cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def blas_threads():
    """OpenBLAS thread count from the library NumPy loaded, if found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return "%d (%s)" % (fn(), Path(path).name)
    return "unknown"


def environment_line():
    import numpy
    import scipy
    return ("environment: python %s, numpy %s, scipy %s, nproc %d, blas threads %s,"
            " HOLOQUANT_THREADS=%s" % (
                platform.python_version(), numpy.__version__, scipy.__version__,
                len(os.sched_getaffinity(0)), blas_threads(),
                os.environ.get("HOLOQUANT_THREADS", "unset")))


def end_to_end(tally, setup_s):
    tail, pct = percentile_tail(tally.latencies)
    metrics = {
        "throughput_rps": (tally.attempted / tally.busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "latency_tail_ms": "p%.2f of %d requests (10 above it)" % (pct, tally.attempted),
        "setup_s": "median of %d fresh launches" % SETUP_LAUNCHES,
    }
    return metrics, notes


def first_rounds(workload, seed, count):
    """The fixed requests and the first ``count`` rounds of the seed's order."""
    import workloads
    items, rounds, last = [], 0, None
    for item in workloads.schedule(workload, seed):
        place = item.where[0]
        if place != "fixed" and place != last:
            if rounds == count:
                break
            rounds += 1
            last = place
        items.append(item)
    return items


def traced_run(workload, seed, seconds, gate, lines):
    import tracer as tracing
    rounds = max(1, round(seconds * TRACE_ROUNDS_PER_SECOND[workload.name]))
    items = first_rounds(workload, seed, rounds)
    # an untimed first pass lets the BLAS thread pool and the allocator
    # warm up, which otherwise makes the untraced pass look slower than
    # the traced one
    warm = closed_loop(items, gate)
    walls = [time.perf_counter()]
    plain = closed_loop(items, gate)
    walls.append(time.perf_counter())
    with tracing.Tracer() as timed:
        traced = closed_loop(items, gate, tracer=timed)
    walls.append(time.perf_counter())
    tracemalloc.start()
    try:
        with tracing.Tracer(memory=True) as sized:
            sized_tally = closed_loop(items, gate, tracer=sized)
    finally:
        tracemalloc.stop()
    walls.append(time.perf_counter())
    metrics = tracing.layer_metrics(timed.spans, sized.spans)
    overhead = traced.attempted / traced.busy_s - plain.attempted / plain.busy_s
    metrics["trace.overhead_rps"] = overhead

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    timed.write(out_dir / ("spans-%s-%d.jsonl" % (workload.name, seed)))

    lines.append("traced set: %d fixed requests + %d rounds = %d requests, run"
                 " untraced (after an untimed warm-up pass), with spans, and"
                 " with spans + tracemalloc (%s s wall)"
                 % (len(workload.fixed), rounds, len(items), ", ".join(
                     "%.1f" % (b - a) for a, b in zip(walls, walls[1:]))))
    lines.append("%-11s %8s %10s %7s %14s" % ("layer", "calls", "self_s", "share",
                                               "peak_alloc_mb"))
    for layer in tracing.LAYERS + (tracing.REQUEST,):
        lines.append("%-11s %8d %10.4f %7.3f %14.2f" % (
            layer, *(metrics.get("%s.%s" % (layer, k), 0) for k in
                     ("calls", "self_s", "share", "peak_alloc_mb"))))
    lines.append("('request' is time inside a request that no wrapped function covered)")
    for key in ("quadrature.nodes_built", "quadrature.distinct_ratio",
                "cli.emit_s", "cli.emit_mb", "cli.dispatch_s"):
        lines.append("%s = %s" % (key, _fmt(metrics[key])))
    builds = metrics["quadrature.calls"]
    if builds:
        lines.append("input: %.1f%% of %d rule builds repeat an earlier argument tuple"
                     % (100.0 * (1.0 - metrics["quadrature.distinct_ratio"]), builds))
    lines.append("tracing overhead: traced %.3f rps - untraced %.3f rps = %.3f rps"
                 " over the same %d requests" % (
                     traced.attempted / traced.busy_s, plain.attempted / plain.busy_s,
                     overhead, traced.attempted))
    lines.extend(_baseline_split(workload, timed.spans))
    tallies = (warm, plain, traced, sized_tally)
    return metrics, tallies


def _baseline_split(workload, spans):
    """Per-layer self time of each fixed request (the ROADMAP baseline)."""
    import tracer as tracing
    own = tracing.self_times(spans)
    lines = []
    for n, request in enumerate(workload.fixed):
        parts = {}
        for span in spans:
            if span.request == n:
                key = "cli.emit" if span.name == "emit" else span.layer
                parts[key] = parts.get(key, 0.0) + own[span.id]
        total = sum(parts.values())
        body = ", ".join("%s %.3f s" % kv for kv in sorted(parts.items(),
                                                           key=lambda kv: -kv[1]))
        lines.append("baseline %s: %.3f s = %s" % (request.key[:70], total, body))
    return lines


def _fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def run_workload(name, seed, seconds, trace):
    import tracer as tracing
    import workloads
    workload = workloads.WORKLOAD_TABLE[name]
    gate = Gate(HERE / "digests" / ("%s.json" % name))
    lines = ["perfbench workload=%s seed=%d seconds=%g trace=%d"
             % (name, seed, seconds, trace), environment_line()]
    if trace:
        values, tallies = traced_run(workload, seed, seconds, gate, lines)
        metrics = {k: {"value": values[k], "unit": tracing.unit(k)}
                   for k in tracing.PER_LAYER_METRICS}
    else:
        setup_s = measure_setup(SETUP_IMPORT[name])
        tally = closed_loop(workloads.schedule(workload, seed), gate,
                            budget_s=seconds)
        tallies = (tally,)
        values, notes = end_to_end(tally, setup_s)
        lines.append("closed loop: 1 client, %d requests in %.2f s of busy time"
                     % (tally.attempted, tally.busy_s))
        for key, (value, unit) in values.items():
            lines.append("%-16s %12.4f %-4s %s" % (key, value, unit, notes.get(key, "")))
        lines.append("%-16s %12.4f      (%d failed of %d attempted)" % (
            "error_rate", tally.failed / tally.attempted, tally.failed,
            tally.attempted))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    # the requests are generated again rather than kept during the run, so
    # that they do not add to the process's peak memory
    sent = itertools.islice(workloads.schedule(workload, seed), tallies[0].attempted)
    lines.extend(workloads.describe(name, [item.request for item in sent]))
    lines.extend("FAILED " + f for t in tallies for f in t.failures)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for name in ("grid", "matrix", "point"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout + "\n")
        if proc.returncode != 0:
            print("workload %s exited with code %d" % (name, proc.returncode))
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("%-28s %14s %14s %14s" % ("metric", *results))
    for key, entry in results["grid"]["metrics"].items():
        print("%-28s %14s %14s %14s %s" % (
            key, *(_fmt(r["metrics"][key]["value"]) for r in results.values()),
            entry["unit"]))
    print("%-28s %14s %14s %14s" % ("error_rate", *(
        _fmt(r["failed"] / r["attempted"]) for r in results.values())))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("grid", "matrix", "point", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "holoquant" / "__init__.py").is_file():
        print("perfbench: no holoquant sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
