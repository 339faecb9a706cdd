"""Paired accuracy gate: does a change to frscn cost test accuracy?

Usage:

    python tools/accuracy_gate.py --base PARENT/src --change src [--seeds 30]

Each SRC is a directory holding an ``frscn`` package, for example the
``src`` of a ``git worktree add`` checkout of the parent commit. Each tree is
trained in its own subprocess with that tree first on PYTHONPATH: one F-RSCN
per seed 0 .. seeds-1 (Q=5; N=50 by default) on the acceptance train set
(2000 ``train-random`` samples at seed 1, washout 100). Every model is scored
on four test sequences of 1000 samples: ``paper-test`` at seed 0 and
``train-random`` at seeds 3, 4 and 5.

The statistic, per seed, is the mean over the four sequences of
log(NRMSE_change / NRMSE_base). The tool prints the median of that
statistic over the seeds with a seeded bootstrap 90% confidence interval,
next to the median train and test NRMSE of both trees. It counts the seeds
whose models have byte-identical weights in the two trees, and those whose
reservoirs (the weights without the readouts) are byte-identical, so that a
refactor can cite byte identity from the same run as its verdict, and a
change that keeps every selection but moves readout bits can show it.

Decision rule: the change passes iff the upper end of the 90% CI is at most
log 1.05, i.e. the data rule out, at that level, a median test-NRMSE increase
of more than 5%. Exit status 0 means pass, 1 fail, 2 a usage error.

Only numpy and the standard library are used here; frscn is imported by the
subprocesses alone, from the tree they are given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

# (mode, seed) of the test sequences every model is scored on
TEST_SEQUENCES = (("paper-test", 0), ("train-random", 3), ("train-random", 4), ("train-random", 5))
Q = 5
TRAIN_SAMPLES = 2000
TEST_SAMPLES = 1000
WASHOUT = 100
# a change passes iff the CI's upper end is at most this log-ratio
PASS_LOG_RATIO = math.log(1.05)
CI_LEVEL = 0.90
N_BOOT = 10_000
BOOT_SEED = 0


def paired_statistic(base_test: np.ndarray, change_test: np.ndarray) -> np.ndarray:
    """Per seed, the mean over test sequences of log(change / base).

    Both arguments are seeds x sequences arrays of test NRMSE.
    """
    return np.log(np.asarray(change_test, dtype=float) / np.asarray(base_test, dtype=float)).mean(axis=1)


def bootstrap_median_ci(stats: np.ndarray, level: float = CI_LEVEL, n_boot: int = N_BOOT,
                        seed: int = BOOT_SEED) -> tuple:
    """Percentile bootstrap CI of the median of stats, resampling seeds."""
    stats = np.asarray(stats, dtype=float)
    rng = np.random.default_rng(seed)
    medians = np.median(stats[rng.integers(0, len(stats), (n_boot, len(stats)))], axis=1)
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(medians, [tail, 1.0 - tail])
    return float(lo), float(hi)


def decide(base_test: np.ndarray, change_test: np.ndarray) -> dict:
    """The gate's verdict on paired seeds x sequences test NRMSE arrays."""
    stats = paired_statistic(base_test, change_test)
    lo, hi = bootstrap_median_ci(stats)
    return {"median_log_ratio": float(np.median(stats)), "ci": [lo, hi],
            "passes": bool(hi <= PASS_LOG_RATIO)}


def weights_digest(model, readouts: bool = True) -> str:
    """SHA-256 over the shapes and bytes of the rule bank's centers and widths
    and each sub-reservoir's w_in, w_r, b and, with readouts, w_out, in rule order."""
    arrays = [model.rule_bank.centers, model.rule_bank.widths]
    for res in model.sub_reservoirs:
        arrays += [res.w_in, res.w_r, res.b] + ([res.w_out] if readouts else [])
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(repr(a.shape).encode() + a.tobytes())
    return digest.hexdigest()


def score_tree(seeds: int, n_max: int) -> dict:
    """Train and score seeds 0 .. seeds-1 with the frscn found on sys.path."""
    from frscn import ScConfig, generate_plant_sequence, nrmse, predict, train_frscn

    train = generate_plant_sequence(TRAIN_SAMPLES, "train-random", seed=1, washout=WASHOUT)
    tests = [generate_plant_sequence(TEST_SAMPLES, mode, seed=s, washout=WASHOUT)
             for mode, s in TEST_SEQUENCES]
    out = {"train": [], "test": [], "seconds": [], "digest": [], "reservoir_digest": []}
    for seed in range(seeds):
        started = time.perf_counter()
        model, _ = train_frscn(train, q=Q, sc_cfg=ScConfig(n_max=n_max), seed=seed)
        out["seconds"].append(time.perf_counter() - started)
        out["digest"].append(weights_digest(model))
        out["reservoir_digest"].append(weights_digest(model, readouts=False))
        out["train"].append(nrmse(predict(model, train.inputs), train.targets, WASHOUT))
        out["test"].append([nrmse(predict(model, ds.inputs), ds.targets, WASHOUT) for ds in tests])
    return out


def run_tree(src: str, seeds: int, n_max: int) -> dict:
    """score_tree in a subprocess that imports frscn from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.abspath(src), os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, os.path.abspath(__file__), "--score", "--seeds", str(seeds),
            "--sc-n-max", str(n_max)]
    # cwd is an empty directory, so nothing in the caller's cwd shadows frscn
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(argv, env=env, cwd=tmp, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"scoring {src} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="src directory of the reference tree")
    parser.add_argument("--change", help="src directory of the tree under test")
    parser.add_argument("--seeds", type=int, default=30, help="model seeds 0 .. SEEDS-1")
    parser.add_argument("--sc-n-max", type=int, default=50, help="maximum sub-reservoir size")
    parser.add_argument("--score", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.score:
        json.dump(score_tree(args.seeds, args.sc_n_max), sys.stdout)
        return 0
    if not (args.base and args.change):
        parser.error("--base and --change are required")
    runs = {}
    for name in ("base", "change"):
        src = getattr(args, name)
        if not os.path.isdir(os.path.join(src, "frscn")):
            parser.error(f"--{name} {src}: no frscn package there")
        started = time.perf_counter()
        runs[name] = run_tree(src, args.seeds, args.sc_n_max)
        runs[name]["wall_s"] = time.perf_counter() - started
    verdict = decide(np.array(runs["base"]["test"]), np.array(runs["change"]["test"]))
    for name, run in runs.items():
        print(f"{name:6s} {getattr(args, name)}: {args.seeds} seeds in {run['wall_s']:.1f} s "
              f"({np.mean(run['seconds']):.2f} s / model), median train NRMSE "
              f"{np.median(run['train']):.5f}, median test NRMSE {np.median(run['test']):.5f}")
    for key, what in (("digest", "model weights"), ("reservoir_digest", "reservoirs")):
        same = sum(a == b for a, b in zip(runs["base"][key], runs["change"][key]))
        print(f"byte-identical {what}: {same} of {args.seeds} seeds")
    lo, hi = verdict["ci"]
    print(f"median log(NRMSE change / base) {verdict['median_log_ratio']:+.4f}, "
          f"{CI_LEVEL:.0%} CI [{lo:+.4f}, {hi:+.4f}], pass iff upper <= {PASS_LOG_RATIO:+.4f}: "
          f"{'PASS' if verdict['passes'] else 'FAIL'}")
    return 0 if verdict["passes"] else 1


if __name__ == "__main__":
    sys.exit(main())
