"""The rule workers: bytes independent of BLAS threads, failures that reach the
caller, and no process left behind. Every test here is time-bounded."""

import os
import signal
import subprocess
import sys
import time
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


def run_python(argv: list, env_extra=None, **kw):
    env = dict(os.environ, PYTHONPATH=SRC, **(env_extra or {}))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=LIMIT_S, **kw)


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


def test_value_error_in_a_rule_reaches_run_trials(started, time_limit):
    train = generate_plant_sequence(300, "train-random", seed=1, washout=30)
    cfg = ScConfig(n_max=8)
    # past ScConfig's checks, so the first xi evaluation, inside a worker, raises
    object.__setattr__(cfg, "r_schedule", (1.5,))
    with pytest.raises(ValueError, match="r must be in"):
        train_frscn(train, q=2, sc_cfg=cfg, seed=0)
    results, _ = run_trials(train, train, train, "frscn", n_trials=2, q=2, sc_cfg=cfg)
    assert [r.error for r in results] == ["ValueError: r must be in (0, 1)"] * 2
    assert started and all(p.returncode is not None for p in started)


def test_failed_worker_raises_its_status_without_waiting_for_the_rest(
        monkeypatch, started, time_limit):
    # the first worker never finishes; the second exits 3 at once
    argvs = iter([[sys.executable, "-c", "import time; time.sleep(600)"],
                  [sys.executable, "-c", "import sys; sys.exit(3)"]])
    monkeypatch.setattr(growth, "_worker_argv", lambda job, seeds: next(argvs))
    monkeypatch.setattr(growth, "usable_cpus", lambda: 2)
    train = generate_plant_sequence(300, "train-random", seed=1, washout=30)
    start = time.perf_counter()
    with pytest.raises(ChildProcessError, match="exited with status 3"):
        train_frscn(train, q=2, sc_cfg=ScConfig(n_max=8), seed=0)
    assert time.perf_counter() - start < 30
    assert len(started) == 2
    assert all(p.returncode is not None for p in started)  # killed and reaped


def test_rules_come_back_in_seed_order_and_no_worker_is_left(started, time_limit):
    train = generate_plant_sequence(300, "train-random", seed=1, washout=30)
    cfg, seeds = ScConfig(n_max=8), [11, 22, 33]
    pairs = growth.grow_rules(train, cfg, seeds)
    assert len(started) == min(3, growth.usable_cpus())
    assert [p.returncode for p in started] == [0] * len(started)
    for (res, report), seed in zip(pairs, seeds):
        ref, ref_report = train_sub_reservoir(train, cfg, seed)
        assert report.accepted_lambda == ref_report.accepted_lambda
        np.testing.assert_allclose(res.w_in, ref.w_in, rtol=1e-9)
        np.testing.assert_allclose(res.w_out, ref.w_out, rtol=1e-9)
