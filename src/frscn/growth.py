"""Growing the rules' sub-reservoirs in parallel worker processes.

``grow_rules`` runs train_sub_reservoir once per rule seed, spread over
min(rules, usable CPUs) workers. A worker is a fresh interpreter started as
``python -m frscn.growth JOB SEED...``: JOB is a pickle of the normalized
training dataset and the ScConfig, and the worker writes to its stdout a
pickle of its (SubReservoir, TrainReport) pairs in SEED order, or of the
exception that stopped it.

Each worker's BLAS runs one thread. Screening is a Python loop over time
steps, so the workers keep the cores busy where threads could not, and a
second BLAS thread per worker would only contend for them. A one-thread BLAS
also sums every product in one fixed order, so the grown rules do not depend
on the core count or on which worker grew them.

Workers are plain subprocesses, not multiprocessing: a caller's script is
never re-imported in a worker, so it needs no ``__main__`` guard.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import subprocess
import sys
import tempfile
import time

from .trainer import train_sub_reservoir

# The directory holding the frscn package, put on each worker's PYTHONPATH so
# that the worker runs the caller's copy of frscn.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Seconds between checks on the running workers.
_POLL_S = 0.01


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_argv(job: str, seeds: list) -> list:
    return [sys.executable, "-m", "frscn.growth", job, *(str(s) for s in seeds)]


def grow_rules(train, cfg, seeds: list) -> list:
    """(SubReservoir, TrainReport) of train_sub_reservoir(train, cfg, seed) per seed, in order.

    Seed i goes to worker i mod w, w = min(len(seeds), usable_cpus()). An
    exception inside a rule is raised here as itself; a worker that exits
    non-zero raises ChildProcessError naming its exit status. Either way, and
    on an interrupt, every worker still running is killed and reaped before
    this returns or raises.
    """
    n_workers = min(len(seeds), usable_cpus())
    path = os.pathsep.join(p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **_ONE_THREAD)
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        job = os.path.join(tmp, "job.pickle")
        with open(job, "wb") as fh:
            pickle.dump((train, cfg), fh)
        procs = []
        for w in range(n_workers):
            out, err = (os.path.join(tmp, f"{w}.{name}") for name in ("out", "err"))
            with open(out, "wb") as fout, open(err, "wb") as ferr:
                # cwd is the job directory, so no module in the caller's cwd
                # can shadow frscn or numpy in the worker
                proc = stack.enter_context(subprocess.Popen(
                    _worker_argv(job, seeds[w::n_workers]), stdout=fout, stderr=ferr,
                    env=env, cwd=tmp))
            stack.callback(proc.kill)  # runs before the Popen's own exit, which reaps it
            procs.append((proc, out, err))
        results = [None] * n_workers
        while None in results:
            time.sleep(_POLL_S)
            for w, (proc, out, err) in enumerate(procs):
                if results[w] is None and proc.poll() is not None:
                    results[w] = _worker_result(proc.returncode, out, err)
    return [results[i % n_workers][i // n_workers] for i in range(len(seeds))]


def _worker_result(returncode: int, out: str, err: str) -> list:
    """One finished worker's pairs; raises what stopped it."""
    with open(err, "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    if returncode != 0:
        raise ChildProcessError(f"rule worker exited with status {returncode}: "
                                f"{stderr.strip()[-2000:] or 'no stderr output'}")
    sys.stderr.write(stderr)  # warnings, as an in-process run would print them
    with open(out, "rb") as fh:
        result = pickle.load(fh)
    if isinstance(result, Exception):
        raise result
    return result


def main(argv: list) -> None:
    job, *seeds = argv
    with open(job, "rb") as fh:
        train, cfg = pickle.load(fh)
    try:
        result = [train_sub_reservoir(train, cfg, int(s)) for s in seeds]
    except Exception as exc:  # sent to the caller, which raises it
        result = exc
    sys.stdout.buffer.write(pickle.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
