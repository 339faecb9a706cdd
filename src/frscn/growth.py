"""Growing the rules' sub-reservoirs in worker processes that live as long as the caller.

``grow_rules`` runs train_sub_reservoir per rule seed on a pool of min(rules,
usable CPUs) ``python -m frscn.growth`` workers, started by the first call.
A worker answers each length-prefixed pickled job (train, cfg, seed) on its
stdin with the pickled (SubReservoir, TrainReport), or the rule's exception,
on its stdout. It exits when its stdin closes, so it ends with its caller
even when the caller is killed; an atexit hook kills and reaps it otherwise.

Each worker's BLAS runs one thread: screening is a Python loop over time
steps, so processes keep the cores busy where threads could not, and one
fixed summation order makes the rules independent of the core count and of
the worker that grew them. Workers are plain subprocesses, not
multiprocessing, so a caller's script is never re-imported in a worker.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import selectors
import signal
import subprocess
import sys
import threading

from .trainer import train_sub_reservoir

# The directory holding the frscn package: each worker's cwd and first on its PYTHONPATH, so
# the worker runs the caller's frscn and no module in the caller's cwd shadows frscn or numpy.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# The pool (its owner's pid and workers), used by one call at a time; a forked
# child gets a free lock, even if another thread held it at the fork.
_owner, _workers, _lock = None, [], threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: globals().update(_lock=threading.Lock()))


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _send(stream, obj) -> None:
    data = pickle.dumps(obj)
    stream.write(len(data).to_bytes(8, "little") + data)
    stream.flush()


def _receive(stream):
    """The next message on stream; EOFError if the stream ends first."""
    header = stream.read(8)
    data = stream.read(int.from_bytes(header, "little"))
    if len(header) < 8 or len(data) < int.from_bytes(header, "little"):
        raise EOFError
    return pickle.loads(data)


def _stop(proc) -> None:
    proc.kill()
    proc.wait()
    with contextlib.suppress(OSError):  # data left by an interrupted send
        proc.stdin.close()
    proc.stdout.close()


def _take_workers(n: int) -> list:
    """n live workers of this process's pool; the ones that died are replaced.
    A pool inherited across fork is left to its owner."""
    global _owner, _workers
    if _owner != os.getpid():
        _owner, _workers = os.getpid(), []
    for proc in _workers:
        if proc.poll() is not None:
            _stop(proc)
    _workers = [proc for proc in _workers if proc.returncode is None]
    path = os.pathsep.join(p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **_ONE_THREAD)
    _workers += [subprocess.Popen([sys.executable, "-m", "frscn.growth"], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, env=env, cwd=_PACKAGE_ROOT)
                 for _ in range(n - len(_workers))]
    return _workers[:n]


@atexit.register
def _stop_pool() -> None:
    if _owner == os.getpid():
        for proc in _workers:
            _stop(proc)


def grow_rules(train, cfg, seeds: list) -> list:
    """(SubReservoir, TrainReport) of train_sub_reservoir(train, cfg, seed) per seed, in order.

    The rules wait in one queue, and each goes to whichever of the
    min(len(seeds), usable_cpus()) workers is free. Once a rule raises, no
    further rule starts; the rules under way finish, and the exception of the
    first failing rule in seed order is raised here as itself. A worker that
    dies raises ChildProcessError naming its exit status and is replaced on
    the next call. On that error or an interrupt, the busy workers are killed,
    as their replies would be left in their pipes.
    """
    with _lock, selectors.DefaultSelector() as busy:  # data: (worker, rule index)
        idle = _take_workers(min(len(seeds), usable_cpus()))
        jobs = list(enumerate(seeds))[::-1]  # popped in seed order
        results = [None] * len(seeds)
        try:
            while jobs or busy.get_map():
                while idle and jobs:
                    proc, (i, seed) = idle.pop(), jobs.pop()
                    busy.register(proc.stdout, selectors.EVENT_READ, (proc, i))
                    with contextlib.suppress(BrokenPipeError):  # a dead worker: its stdout ends
                        _send(proc.stdin, (train, cfg, seed))
                for key, _ in busy.select():
                    proc, i = key.data
                    try:
                        results[i] = _receive(key.fileobj)
                    except EOFError:
                        raise ChildProcessError(
                            f"rule worker exited with status {proc.wait()}") from None
                    # still busy until its whole reply is read, so a failed read kills it
                    busy.unregister(key.fileobj)
                    idle.append(proc)
                    if isinstance(results[i], Exception):
                        jobs.clear()
        except BaseException:
            for key in busy.get_map().values():
                _stop(key.data[0])
            raise
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def main() -> None:
    """Serve jobs from stdin until it closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller decides what an interrupt stops
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print goes to stderr, not into the replies
    with contextlib.suppress(EOFError, BrokenPipeError):  # the caller has gone
        while True:
            train, cfg, seed = _receive(sys.stdin.buffer)
            try:
                result = train_sub_reservoir(train, cfg, seed)
            except Exception as exc:  # sent to the caller, which raises it
                result = exc
            _send(replies, result)


if __name__ == "__main__":
    main()
