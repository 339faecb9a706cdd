"""The rule workers: bytes independent of BLAS threads, a pool that is reused,
repaired and left behind by no process, and failures that reach the caller.
Every test here is time-bounded."""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import frscn
from frscn import ScConfig, generate_plant_sequence, run_trials, save_model, train_frscn
from frscn import growth
from frscn.trainer import train_sub_reservoir

SRC = str(Path(frscn.__file__).resolve().parents[1])
LIMIT_S = 120


@pytest.fixture
def time_limit():
    """Fails the test with TimeoutError once it has run LIMIT_S seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"test ran past {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def started(monkeypatch):
    """Every process the workers are started as, recorded while the test runs."""
    procs = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(growth.subprocess, "Popen", Recorded)
    return procs


@pytest.fixture
def two_workers(monkeypatch):
    """A pool of at most two workers, none of them started yet."""
    monkeypatch.setattr(growth, "usable_cpus", lambda: 2)
    growth._stop_pool()
    growth._workers.clear()


@pytest.fixture
def small_train():
    return generate_plant_sequence(300, "train-random", seed=1, washout=30)


class OnLoad:
    """A job field that evaluates code in the worker as the job is unpickled."""

    def __init__(self, code: str):
        self.code = code

    def __reduce__(self):
        return eval, (self.code,)


def run_python(argv: list, env_extra=None, **kw):
    env = dict(os.environ, PYTHONPATH=SRC, **(env_extra or {}))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=LIMIT_S, **kw)


def alive(pid: int) -> bool:
    """Whether pid runs; a zombie left for a non-reaping init counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def model_bytes(model, path) -> bytes:
    save_model(model, path)
    return Path(path).read_bytes()


TRAIN_AND_SAVE = """
import sys
from frscn import ScConfig, generate_plant_sequence, save_model, train_frscn
train = generate_plant_sequence(2000, "train-random", seed=1, washout=100)
model, _ = train_frscn(train, q=2, sc_cfg=ScConfig(n_max=12), seed=0)
save_model(model, sys.argv[1])
"""


def test_model_bytes_do_not_depend_on_blas_threads(tmp_path, time_limit):
    # With two BLAS threads, OpenBLAS sums the screening's feedback gemm in
    # another order than with one, which once changed this model's bytes.
    train = generate_plant_sequence(2000, "train-random", seed=1, washout=100)
    model, _ = train_frscn(train, q=2, sc_cfg=ScConfig(n_max=12), seed=0)
    save_model(model, tmp_path / "default.json")
    proc = run_python(["-c", TRAIN_AND_SAVE, str(tmp_path / "one_thread.json")],
                      {"OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "one_thread.json").read_bytes()


def test_unguarded_script_runs_its_top_level_once(tmp_path):
    script = tmp_path / "script.py"
    script.write_text(
        "from frscn import ScConfig, generate_plant_sequence, train_frscn\n"
        "print('top level ran', flush=True)\n"
        "train = generate_plant_sequence(300, 'train-random', seed=1, washout=30)\n"
        "train_frscn(train, q=2, sc_cfg=ScConfig(n_max=8), seed=0)\n")
    proc = run_python([str(script)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("top level ran") == 1


def test_modules_in_the_callers_cwd_shadow_nothing_in_a_worker(tmp_path, time_limit):
    (tmp_path / "cwd").mkdir()
    (tmp_path / "cwd" / "numpy.py").write_text("raise ImportError('shadowed')\n")
    script = tmp_path / "script.py"
    script.write_text(
        "from frscn import ScConfig, generate_plant_sequence, train_frscn\n"
        "train = generate_plant_sequence(300, 'train-random', seed=1, washout=30)\n"
        "train_frscn(train, q=1, sc_cfg=ScConfig(n_max=8), seed=0)\n")
    proc = run_python([str(script)], cwd=tmp_path / "cwd")
    assert proc.returncode == 0, proc.stderr


def test_second_call_starts_no_process(small_train, started, time_limit):
    train_frscn(small_train, q=2, sc_cfg=ScConfig(n_max=8), seed=0)
    started.clear()
    train_frscn(small_train, q=2, sc_cfg=ScConfig(n_max=8), seed=1)
    assert started == []


def test_killed_idle_worker_is_replaced_and_bytes_stay(two_workers, small_train, started, tmp_path,
                                                        time_limit):
    cfg = ScConfig(n_max=8)
    before = model_bytes(train_frscn(small_train, q=2, sc_cfg=cfg, seed=0)[0], tmp_path / "a.json")
    assert len(started) == 2
    victim = growth._workers[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait()
    started.clear()
    after = model_bytes(train_frscn(small_train, q=2, sc_cfg=cfg, seed=0)[0], tmp_path / "b.json")
    assert after == before
    assert len(started) == 1 and started[0] in growth._workers
    assert victim not in growth._workers


def test_value_error_in_a_rule_reaches_run_trials(small_train, started, time_limit):
    # and leaves its worker in the pool, which still trains
    train_frscn(small_train, q=2, sc_cfg=ScConfig(n_max=8), seed=0)
    pool = list(growth._workers)
    started.clear()
    cfg = ScConfig(n_max=8)
    # past ScConfig's checks, so the first xi evaluation, inside a worker, raises
    object.__setattr__(cfg, "r_schedule", (1.5,))
    with pytest.raises(ValueError, match="r must be in"):
        train_frscn(small_train, q=2, sc_cfg=cfg, seed=0)
    results, _ = run_trials(small_train, small_train, small_train, "frscn", n_trials=2, q=2,
                            sc_cfg=cfg)
    assert [r.error for r in results] == ["ValueError: r must be in (0, 1)"] * 2
    model, _ = train_frscn(small_train, q=2, sc_cfg=ScConfig(n_max=8), seed=0)
    assert model.n_rules == 2
    assert started == [] and growth._workers == pool


def test_failed_worker_raises_its_status_without_waiting_for_the_rest(
        monkeypatch, small_train, time_limit):
    monkeypatch.setattr(growth, "usable_cpus", lambda: 2)
    # one worker sleeps as it reads its job; the other exits 3 as it reads its own
    seeds = [OnLoad("__import__('time').sleep(600)"), OnLoad("__import__('os')._exit(3)")]
    start = time.perf_counter()
    with pytest.raises(ChildProcessError, match="exited with status 3"):
        growth.grow_rules(small_train, ScConfig(n_max=8), seeds)
    assert time.perf_counter() - start < 30
    used = growth._workers[:2]
    assert sorted(p.returncode for p in used) == [-signal.SIGKILL, 3]  # killed and reaped
    assert len(growth.grow_rules(small_train, ScConfig(n_max=8), [5, 6])) == 2
    assert not set(used) & set(growth._workers)


def test_interrupted_read_kills_its_worker_and_the_pool_still_trains(
        two_workers, monkeypatch, small_train, time_limit):
    cfg = ScConfig(n_max=8)
    expected = [r.to_dict() for _, r in growth.grow_rules(small_train, cfg, [1, 2])]
    used, receive = list(growth._workers), growth._receive

    def interrupted(stream):
        stream.read(8)  # the reply's header; its pickle stays in the pipe
        raise KeyboardInterrupt

    monkeypatch.setattr(growth, "_receive", interrupted)
    with pytest.raises(KeyboardInterrupt):
        growth.grow_rules(small_train, cfg, [1, 2])
    monkeypatch.setattr(growth, "_receive", receive)
    assert [p.returncode for p in used] == [-signal.SIGKILL] * 2  # killed and reaped
    assert [r.to_dict() for _, r in growth.grow_rules(small_train, cfg, [1, 2])] == expected
    assert not set(used) & set(growth._workers)


def test_rules_come_back_in_seed_order_when_workers_finish_out_of_order(
        monkeypatch, small_train, time_limit):
    monkeypatch.setattr(growth, "usable_cpus", lambda: 2)
    arrived, receive = [], growth._receive
    monkeypatch.setattr(growth, "_receive", lambda stream: arrived.append(receive(stream)) or arrived[-1])
    cfg = ScConfig(n_max=8)
    # the first rule's worker sleeps 1 s before it starts; the other grows both others
    pairs = growth.grow_rules(small_train, cfg, [OnLoad("__import__('time').sleep(1) or 11"), 22, 33])
    assert arrived[-1] is pairs[0]
    for (res, report), seed in zip(pairs, [11, 22, 33]):
        ref, ref_report = train_sub_reservoir(small_train, cfg, seed)
        assert report.accepted_lambda == ref_report.accepted_lambda
        np.testing.assert_allclose(res.w_in, ref.w_in, rtol=1e-9)
        np.testing.assert_allclose(res.w_out, ref.w_out, rtol=1e-9)


def test_calls_from_threads_take_turns_on_the_pool(monkeypatch, small_train, time_limit):
    monkeypatch.setattr(growth, "usable_cpus", lambda: 3)  # more workers than cores
    cfg = ScConfig(n_max=6)
    seed_sets = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]]
    expected = [[r.to_dict() for _, r in growth.grow_rules(small_train, cfg, seeds)]
                for seeds in seed_sets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(seed_sets)) as pool:
            futures = [pool.submit(growth.grow_rules, small_train, cfg, seeds)
                       for seeds in seed_sets]
            got = [[r.to_dict() for _, r in f.result(timeout=LIMIT_S)] for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


LEAVE = """
import os, sys, time
from frscn import ScConfig, generate_plant_sequence, growth, train_frscn
train = generate_plant_sequence(300, "train-random", seed=1, washout=30)
train_frscn(train, q=2, sc_cfg=ScConfig(n_max=8), seed=0)
print(*(p.pid for p in growth._workers), flush=True)
if sys.argv[1] == "kill":
    time.sleep(600)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.parametrize("how", ["exit", "kill"])
def test_no_worker_outlives_its_process(how, time_limit):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-c", LEAVE, how], env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        pids = proc.stdout.readline().split()
        if how == "kill":
            proc.kill()
        assert proc.wait(timeout=LIMIT_S) == (-signal.SIGKILL if how == "kill" else 0)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    pids = [int(pid) for pid in pids]
    assert pids
    deadline = time.monotonic() + 30
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(alive(pid) for pid in pids)


FORK = """
import os, signal, sys, threading
from frscn import ScConfig, generate_plant_sequence, growth, train_frscn
growth.usable_cpus = lambda: 2
train = generate_plant_sequence(300, "train-random", seed=1, washout=30)
train_frscn(train, q=2, sc_cfg=ScConfig(n_max=8), seed=0)
parent = list(growth._workers)
held, release = threading.Event(), threading.Event()

def hold():  # another thread holds the pool's lock while this one forks
    with growth._lock:
        held.set()
        release.wait()

holder = threading.Thread(target=hold)
holder.start()
held.wait()
pid = os.fork()
if pid == 0:  # a child that trains starts its own pool; at exit it stops only its own
    if sys.argv[1] == "train":
        signal.alarm(60)  # a child stuck on the inherited lock dies
        train_frscn(train, q=2, sc_cfg=ScConfig(n_max=8), seed=0)
        assert not set(parent) & set(growth._workers)
    raise SystemExit(0)
release.set()
holder.join()
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, status
assert all(p.poll() is None for p in parent)
os.kill(parent[0].pid, signal.SIGKILL)
parent[0].wait()
train_frscn(train, q=2, sc_cfg=ScConfig(n_max=8), seed=1)  # replaces the killed worker
assert growth._workers[0] is parent[1] and parent[0] not in growth._workers
print("ok")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("child", ["train", "idle"])
def test_pool_inherited_across_fork_is_left_to_its_owner(child):
    proc = run_python(["-c", FORK, child])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
