#!/usr/bin/env python3
"""frscn benchmark: train, predict-batch and stream through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 15 --trace 0

The workload's inputs are generated from --seed; the loop then runs for
--seconds (at least one call) and every output is checked. The lines printed
first give the machine fingerprint and each metric by name with its unit; the
last line is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics;
with --trace 1 the loop runs under the span tracer and they are its per-layer
metrics. The exit code is 1 when any operation or output check failed, and 2
when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import threading
import time
from contextlib import nullcontext, suppress
from pathlib import Path

from layers import is_span_metric, span_metric, span_table
from machine import fingerprint
from spans import Tracer
from timing import median
from workloads import SETUP_REPEATS, WORKLOADS, Context, measure_setup

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("cli", "dataset", "evaluation", "fuzzy", "model", "online", "reservoir", "trainer")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(ctx, setup_times, peak_rss_mb) -> dict:
    return {
        "setup_s": median(setup_times),
        "latency_ms": median(ctx.latencies) * 1e3,
        "steps_per_s": median(ctx.rates),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(names, tracer, ctx, e2e, cpu_s, wall_s) -> dict:
    table = span_table(tracer.spans, threading.main_thread().ident)
    values = {}
    for name in names:
        if name in ctx.counts:
            values[name] = sum(ctx.counts[name]) / len(ctx.counts[name])
        elif name.startswith("trace."):
            values[name] = e2e[name[len("trace."):]]
        elif name == "process.cpu_s":
            values[name] = cpu_s / ctx.units
        elif name == "process.cpu_per_wall":
            values[name] = cpu_s / wall_s
        elif is_span_metric(name):
            values[name] = span_metric(table, name, ctx.units)
        else:  # a count this workload's outputs do not carry
            values[name] = 0.0
    return values


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "frscn" / "__init__.py").is_file():
        print(f"error: no frscn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    prepare, loop = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(work, args.seed, args.seconds)
        prepare(ctx)
        setup_times = measure_setup(ctx, SETUP_REPEATS // 2)
        tracer = Tracer() if args.trace else None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        with tracer or nullcontext():
            loop(ctx)
        cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
        setup_times += measure_setup(ctx, SETUP_REPEATS - SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("# machine " + json.dumps(fingerprint(), sort_keys=True))
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{ctx.units} unit operation(s) in {wall_s:.3f} s")
    tally = ctx.tally
    measured = ctx.units and ctx.latencies and ctx.rates and setup_times
    if not measured:
        tally.fail("no successful measurement")
    for name, value, unit, note in ctx.headlines:
        print(f"{name} {value:.6g} {unit}  ({note})")
    metrics = {}
    if measured:
        e2e = end_to_end(ctx, setup_times, peak_rss_mb)
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        values = (per_layer([m["name"] for m in listed], tracer, ctx, e2e, cpu_s, wall_s)
                  if args.trace else e2e)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
        if args.trace:
            roots = sum(s.end - s.start for s in tracer.spans
                        if s.parent is None and s.thread == threading.main_thread().ident)
            print(f"# span check: module self times sum to "
                  f"{sum(values[f'{m}.self_s'] for m in MODULES) * ctx.units:.6g} s, "
                  f"main-thread root spans last {roots:.6g} s, the loop {wall_s:.6g} s")
    print(f"failed_share {tally.failed_share:.6g} 1  ({tally.failed} of {tally.attempted})")
    for reason in tally.reasons:
        print(f"# failed: {reason}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
