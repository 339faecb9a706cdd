#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its end-to-end metrics.

Run from the repository root:

    python3 perfbench/summary.py --workloads train,predict-batch,stream --seeds 0-9
    python3 perfbench/summary.py --workloads stream --seeds 0-4 --traced

For each workload and end-to-end metric it prints the median over the seeds
and the quartile spread ((Q3 - Q1) / median, from statistics.quantiles with
n=4) next to the metric's bound. With --traced every seed is also run under
the tracer, and the traced median and the tracing overhead (traced minus
plain, as a share of plain) are printed too. For `train` it also checks
acceptance criterion 1 on the medians over the seeds. The exit code is 1 when
any run or that check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Criterion 1 is a median over seeds, so it is checked here rather than per run.
TRAIN_NRMSE_MAX, TEST_NRMSE_MAX = 0.02, 0.06


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
    # The named metrics printed before the JSON line: "name value unit  (note)".
    result["named"] = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            try:
                result["named"][parts[0]] = float(parts[1])
            except ValueError:
                pass
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--traced", action="store_true", help="also run traced; print overhead")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = seed_list(args.seeds)
    all_correct = True
    for workload in args.workloads.split(","):
        plain, traced = [], []
        for seed in seeds:
            plain.append(run_once(workload, seed, seconds, 0))
            if args.traced:
                traced.append(run_once(workload, seed, seconds, 1))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in plain[-1]["metrics"].items()), flush=True)
        runs = plain + traced
        all_correct &= all(r["correct"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {workload}: {len(seeds)} seeds, {seconds} s per run, "
              f"{failed} failed of {sum(r['attempted'] for r in runs)} operations")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in plain if r["metrics"]]
            if len(values) < 2:
                continue
            line = (f"  {name}: median {statistics.median(values):.6g} {metric['unit']}, "
                    f"spread {spread(values):.4f} (bound {metric['bound']})")
            # setup_s has no traced twin: its probes run in untraced interpreters.
            traced_values = [r["metrics"][f"trace.{name}"]["value"]
                             for r in traced if f"trace.{name}" in r["metrics"]]
            if traced_values:
                base = statistics.median(values)
                over = statistics.median(traced_values)
                line += f", traced {over:.6g}, overhead {(over - base) / base:+.4f}"
            print(line, flush=True)
        if workload == "train":
            all_correct &= criterion_1(plain)
    return 0 if all_correct else 1


def criterion_1(runs) -> bool:
    """Acceptance criterion 1 over the seeds: median train and test NRMSE."""
    train = [r["named"]["train_nrmse"] for r in runs if "train_nrmse" in r["named"]]
    test = [r["named"]["test_nrmse"] for r in runs if "test_nrmse" in r["named"]]
    if not train or not test:
        return False
    ok = statistics.median(train) <= TRAIN_NRMSE_MAX and statistics.median(test) <= TEST_NRMSE_MAX
    print(f"  criterion 1 {'PASS' if ok else 'FAIL'}: median train NRMSE "
          f"{statistics.median(train):.4g} (<= {TRAIN_NRMSE_MAX}), median test NRMSE "
          f"{statistics.median(test):.4g} (<= {TEST_NRMSE_MAX}) over {len(test)} seeds")
    return ok


if __name__ == "__main__":
    sys.exit(main())
