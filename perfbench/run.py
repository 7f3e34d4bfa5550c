"""gsbmaps benchmark.

    python3 perfbench/run.py --workload {reduce,families,subgroups,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
One caller runs the workload's queries closed-loop (the next starts when the
previous returns), single-threaded, for at least S seconds, stopping at a
cycle boundary.  Every answer is checked against brute-force oracles outside
the timed region.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the run makes a fixed number of cycles
(ignoring S), alternately untraced and traced, and the last line carries the
per-layer metrics derived from the spans, which are also written to
``perfbench/out/``.  perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from oracle import Oracle  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: time one set-up in this fresh interpreter and print it",
    )
    return parser.parse_args(argv)


def package_on_path() -> None:
    init = ROOT / "src" / "gsbmaps" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a gsbmaps checkout")
    sys.path.insert(0, str(ROOT / "src"))


def set_up(args, oracle):
    """Import the package and build cycle 0.

    Returns (workload, cycle 0 queries, set-up seconds).

    Generating the plain-data specs is the benchmark's own work and happens
    before the clock starts; set-up time covers importing gsbmaps and
    gsbmaps.cli, the workload's extra set-up (instance files for cli) and
    building the package objects of the first cycle.
    """
    workload = WORKLOADS[args.workload](None, args.seed, oracle, ROOT)
    specs = workload.cycle(0)
    start = time.perf_counter()
    import gsbmaps
    import gsbmaps.cli  # noqa: F401

    workload.gs = gsbmaps
    workload.setup()
    queries = [workload.build(q) for q in specs]
    return workload, queries, time.perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time of one fresh interpreter."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-probe",
        ],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.split()[-1])


def run_cycles(workload, first_queries, cycles, seconds, tracer=None, after_cycle=None):
    """Run the given cycles closed-loop, until ``seconds`` of busy wall time
    have passed (checked at cycle boundaries) or the cycles run out.

    Returns (per-cycle latency lists, busy wall seconds, failed count).
    Building a cycle's package objects, checking its answers and
    ``after_cycle(cycle number, busy seconds so far)`` happen outside the
    timed region.
    """
    per_cycle, wall, failed = [], 0.0, 0
    clock = time.perf_counter
    for n, c in enumerate(cycles):
        if n == 0 and first_queries:
            queries = first_queries
        else:
            queries = [workload.build(q) for q in workload.cycle(c)]
        results, latencies = [], []
        if tracer is not None:
            tracer.install()
        start = clock()
        for i, (run, _) in enumerate(queries):
            if tracer is not None:
                tracer.qid = c * len(queries) + i
            t0 = clock()
            try:
                results.append((True, run()))
            except Exception as exc:  # an unexpected raise counts as failed
                results.append((False, exc))
            latencies.append(clock() - t0)
        wall += clock() - start
        if tracer is not None:
            tracer.uninstall()
        per_cycle.append(array("d", latencies))
        for i, ((ok, result), (_, check)) in enumerate(zip(results, queries)):
            if not ok or not check(result):
                failed += 1
                print(f"FAILED cycle {c} query {i}: {result!r}", file=sys.stderr)
        # a fresh oracle per cycle keeps the harness's memory, and so the
        # peak RSS, from growing with the number of queries a run completes
        workload.oracle = Oracle()
        if after_cycle is not None:
            after_cycle(n, wall)
        if seconds is not None and wall >= seconds:
            break
    return per_cycle, wall, failed


def slowdowns(per_cycle):
    """How much slower than the run's quietest state each cycle ran.

    On a shared machine the same cycle can run up to twice as slowly for
    seconds at a time.  A cycle's slowdown is the median, over its queries,
    of latency / the fastest latency of the same template cell in the run.
    Dividing a cycle's latencies by it leaves each query's cost at the
    quietest machine state of the run, and keeps the spread between the
    queries of a cycle.
    """
    floors = [min(cell) for cell in zip(*per_cycle)]
    return [statistics.median(x / f for x, f in zip(cycle, floors)) for cycle in per_cycle]


def _loop_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i % 7
    return time.perf_counter() - start


def pin_to_quietest_cpu() -> None:
    """Pin the run and its set-up probes to the allowed CPU on which a fixed
    loop runs fastest right now.

    On a shared machine each CPU has its own slow phases lasting seconds to
    minutes; starting on the quieter one makes a wholly slow run rarer, and
    keeping probes on the run's CPU lets the slowdown correction apply to
    them.  Where pinning is not permitted the run stays unpinned.
    """
    try:
        best = []
        for cpu in sorted(os.sched_getaffinity(0)):
            os.sched_setaffinity(0, {cpu})
            best.append((min(_loop_seconds() for _ in range(3)), cpu))
        os.sched_setaffinity(0, {min(best)[1]})
    except OSError:
        pass


def report(correct, attempted, failed, metrics, lines):
    for line in lines:
        print(line)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    package_on_path()
    oracle = Oracle()
    if args.setup_probe:
        _, _, elapsed = set_up(args, oracle)
        print(repr(elapsed))
        return 0

    pin_to_quietest_cpu()
    OUT.mkdir(parents=True, exist_ok=True)
    workload, first, _ = set_up(args, oracle)

    if args.trace:
        # Untraced and traced cycles alternate so both meet the same phases
        # of the machine; only the traced ones feed the per-layer metrics.
        tracer = Tracer()
        plain, traced, failed = [], [], 0
        for c in range(2 * workload.trace_cycles):
            side = traced if c % 2 else plain
            latencies, _, cycle_failed = run_cycles(
                workload, first if c == 0 else None, [c], None, tracer if c % 2 else None
            )
            side.extend(latencies)
            failed += cycle_failed
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        values = tracer.derive()
        # the same template cells on both sides, each at its fastest
        values["trace.overhead_ratio"] = sum(map(min, zip(*traced))) / sum(
            map(min, zip(*plain))
        )
        values["trace.queries"] = sum(map(len, traced))
        attempted = sum(map(len, plain)) + values["trace.queries"]
        units = {
            k: "s" if k.endswith("_s") else "ratio" if k.endswith("ratio") else "count"
            for k in values
        }
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        lines = [f"{k:34s} {v!r} {units[k]}" for k, v in values.items()]
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path}")
    else:
        # Set-up probes run between cycles, spread evenly over the run, on
        # the same CPU, so each is corrected by the slowdown of the cycle
        # just before it.
        probes = []

        def probe(n, wall):
            while len(probes) < SETUP_PROBES and wall >= len(probes) * args.seconds / SETUP_PROBES:
                probes.append((n, probe_setup(args)))

        per_cycle, wall, failed = run_cycles(
            workload, first, itertools.count(), args.seconds, after_cycle=probe
        )
        slow = slowdowns(per_cycle)
        raw = [x for cycle in per_cycle for x in cycle]
        latencies = [x / f for cycle, f in zip(per_cycle, slow) for x in cycle]
        attempted = len(raw)
        cuts = statistics.quantiles(latencies, n=10, method="inclusive")
        raw_cuts = statistics.quantiles(raw, n=10, method="inclusive")
        values = {
            "queries_per_s": ("1/s", attempted / sum(latencies)),
            "query_p50_ms": ("ms", cuts[4] * 1e3),
            "query_p90_ms": ("ms", cuts[8] * 1e3),
            "setup_s": ("s", statistics.median(t / slow[n] for n, t in probes)),
            "peak_rss_mib": (
                "MiB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ),
        }
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in values.items()}
        lines = [f"{k:16s} {v!r} {u}" for k, (u, v) in values.items()]
        lines += [
            f"samples          {attempted} queries in {len(per_cycle)} cycles"
            + ("" if attempted >= 100 else "; fewer than 100, so p90 is not valid"),
            f"raw (uncorrected): {attempted / wall:.4f} completed/s over {wall:.3f} s busy, "
            f"p50 {raw_cuts[4] * 1e3:.4f} ms, p90 {raw_cuts[8] * 1e3:.4f} ms, "
            f"set-up {statistics.median(t for _, t in probes):.6f} s",
            f"failed_frac      {failed / attempted!r}",
        ]
    report(failed == 0, attempted, failed, metrics, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
