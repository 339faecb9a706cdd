"""The three workloads: inputs made from the seed, a timed closed loop, checks.

Each workload is a closed loop with one client: the next call starts when the
previous one returns, until the run's seconds are used up, and at least one
call is always made. The program sees only the CSV and model files that
preparation writes; preparation itself is not timed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from timing import Tally, describe, median, percentile, tail_percentile

WASHOUT = 100  # the CLI default, used by every command below
INPUT_COLS, TARGET_COLS = ["y", "u"], ["y_next"]
Q, N_NODES = 5, 50
TRAIN_ROWS = 2000
PREDICT_ROWS = 20000
STREAM_ROWS, TAIL_ROWS = 10000, 2000
# Acceptance criterion 1's train limit, held by every model, and criterion 3's
# slack. Criterion 1's test limit (0.06) is on a median over seeds and a single
# model can come close to it, so summary.py checks it across seeds.
TRAIN_NRMSE_MAX = 0.02
RESIDUAL_SLACK = 1e-10
# Acceptance criterion 8: session steps agree with batch predict to 1e-12.
STEP_CHECK_ROWS, STEP_TOL = 100, 1e-12
# Set-up probes per run, half before the loop and half after it, so that their
# median spans the same stretch of machine time as the loop's own figures.
SETUP_REPEATS = 22

# Child process that pays a user's set-up cost: import, CSV load, model load.
_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import frscn.cli
from frscn.dataset import load_csv
from frscn.model import load_model
for path in sys.argv[2:]:
    if path.endswith(".csv"):
        load_csv(path, ["y", "u"], ["y_next"], washout=100)
    else:
        load_model(path)
print(repr(time.perf_counter() - start))
"""


class Context:
    """One run: its inputs, its operation tally and everything it measured."""

    def __init__(self, work: Path, seed: int, seconds: float):
        self.work = Path(work)
        self.seed = seed
        self.seconds = seconds
        self.tally = Tally()
        self.files: dict[str, str] = {}
        self.setup_files: list[str] = []  # what a user loads before the first call
        self.latencies: list[float] = []  # seconds per call (stream: median step of a pass)
        self.rates: list[float] = []  # steps per second, one per unit operation
        self.units = 0  # unit operations: trained models, predict commands, stream passes
        self.counts: dict[str, list] = {}  # layer counts read from the program's outputs
        self.headlines: list[tuple[str, float, str, str]] = []
        self.state: dict = {}

    def path(self, name: str) -> str:
        return str(self.work / name)

    def count(self, name: str, value: float):
        self.counts.setdefault(name, []).append(float(value))

    def headline(self, name: str, value: float, unit: str, note: str = ""):
        self.headlines.append((name, value, unit, note))

    def loop(self):
        """Yield 0, 1, 2, ... until the run's seconds are spent; always at least once."""
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < self.seconds:
            yield i
            i += 1


def run_cli(ctx: Context, *argv):
    """One frscn command in-process, counted as one operation.

    Returns (ok, stdout, wall seconds). A traceback is a failed operation and
    the run goes on.
    """
    import frscn.cli

    argv = [str(a) for a in argv]
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = frscn.cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = "an exception"
    elapsed = time.perf_counter() - start
    ok = ctx.tally.check(rc == 0, f"frscn {argv[0]} exited with {rc}")
    return ok, out.getvalue(), elapsed


@contextlib.contextmanager
def _spy(owner, attr: str):
    """Record (args, result) of every call through owner.attr while active."""
    calls = []
    fn = getattr(owner, attr)

    def spy(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    setattr(owner, attr, spy)
    try:
        yield calls
    finally:
        setattr(owner, attr, fn)


def _prepare(*argv):
    """An untimed preparation command; the run cannot go on without it."""
    import frscn.cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = frscn.cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"preparation step 'frscn {argv[0]}' exited with {rc}")


def _gen_data(ctx: Context, last_split_rows: int):
    """train.csv (2000 train-random rows) and test.csv, seeded from the workload seed.

    With 1000 rows test.csv is the deterministic paper-test input; with any
    other count it is train-random.
    """
    _prepare("gen-data", "--out", ctx.work, "--seed", ctx.seed,
             "--sizes", f"{TRAIN_ROWS},1000,{last_split_rows}")


def _serving_model(ctx: Context):
    """Fixed-random model (Q=5 rules of 50 nodes), returned as it was before saving.

    It has the shape and serving cost of a grown model, without training cost
    or any dependence on the trainer.
    """
    import frscn.cli

    with _spy(frscn.cli, "save_model") as saves:
        _prepare("train", "--data", ctx.path("train.csv"), "--model-kind", "fesn",
                 "--q", Q, "--esn-n-nodes", N_NODES, "--seed", ctx.seed,
                 "--out-model", ctx.path("model.json"),
                 "--out-report", ctx.path("model_report.json"))
    ctx.files["model"] = ctx.path("model.json")
    (model, _path), _ = saves[0]
    return model


def _read_numeric_columns(path: str) -> np.ndarray:
    """Every column of a headered CSV but the first (the row number), one per row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row[1:]] for row in rows]).T


def measure_setup(ctx: Context, repeats: int) -> list[float]:
    """Set-up time in fresh interpreters: import frscn.cli, load the inputs and model."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, src, *ctx.setup_files],
                              capture_output=True, text=True, timeout=120)
        if ctx.tally.check(proc.returncode == 0, "set-up probe failed"):
            times.append(float(proc.stdout.strip().splitlines()[-1]))
        else:
            sys.stderr.write(proc.stderr)
    return times


# --- train -----------------------------------------------------------------

def prepare_train(ctx: Context):
    _gen_data(ctx, 1000)
    ctx.files["train"], ctx.files["test"] = ctx.path("train.csv"), ctx.path("test.csv")
    ctx.setup_files = [ctx.files["train"], ctx.files["test"]]


def _check_train_outputs(ctx: Context, model_path: str, report_path: str) -> float:
    """Check one trained model's report; record its counts; return its train NRMSE."""
    doc = json.loads(Path(report_path).read_text())
    rules = doc["reports"]
    ctx.tally.check(
        all(b <= a + RESIDUAL_SLACK
            for rule in rules for a, b in zip(rule["residual_trace"], rule["residual_trace"][1:])),
        "a rule's residual trace increased")
    ctx.tally.check(all(rule["n_nodes"] <= N_NODES for rule in rules),
                    f"a rule grew beyond {N_NODES} nodes")
    model_doc = json.loads(Path(model_path).read_text())
    r_last = max(model_doc["metadata"]["sc_cfg"]["r_schedule"])
    accepted_r = [r for rule in rules for r in rule["accepted_r"]]
    ctx.count("trainer.nodes_accepted", len(accepted_r))
    ctx.count("trainer.guard_rejections", sum(rule["guard_rejections"] for rule in rules))
    ctx.count("trainer.relaxed_accept_share",
              sum(r > r_last for r in accepted_r) / len(accepted_r) if accepted_r else 0.0)
    ctx.count("model.file_bytes", os.path.getsize(model_path))
    return float(doc["train_nrmse"])


def loop_train(ctx: Context):
    train_nrmse, test_nrmse = [], []
    for i in ctx.loop():
        model, report = ctx.path(f"model{i}.json"), ctx.path(f"report{i}.json")
        ok, _, wall = run_cli(ctx, "train", "--data", ctx.files["train"], "--q", Q,
                              "--sc-n-max", N_NODES, "--seed", ctx.seed + i,
                              "--out-model", model, "--out-report", report)
        if not ok:
            continue
        ctx.units += 1
        ctx.latencies.append(wall)
        ctx.rates.append(TRAIN_ROWS / wall)
        train_nrmse.append(_check_train_outputs(ctx, model, report))
        ctx.tally.check(train_nrmse[-1] <= TRAIN_NRMSE_MAX,
                        f"train NRMSE {train_nrmse[-1]:.4g} > {TRAIN_NRMSE_MAX}")
        ok, out, _ = run_cli(ctx, "eval", "--model", model, "--data", ctx.files["test"], "--json")
        if ok:
            test_nrmse.append(float(json.loads(out)["nrmse"]))
            ctx.tally.check(np.isfinite(test_nrmse[-1]), "non-finite test NRMSE")
    if ctx.latencies:
        ctx.headline("train_s", median(ctx.latencies), "s/model", describe(ctx.latencies))
    for name, values in (("train_nrmse", train_nrmse), ("test_nrmse", test_nrmse)):
        if values:
            ctx.count(f"evaluation.{name}", median(values))
            ctx.headline(name, median(values), "1", f"median, n={len(values)}")


# --- predict-batch -----------------------------------------------------------

def prepare_predict_batch(ctx: Context):
    from frscn.dataset import load_csv
    from frscn.model import predict

    _gen_data(ctx, PREDICT_ROWS)
    model = _serving_model(ctx)
    ctx.files["data"], ctx.files["out"] = ctx.path("test.csv"), ctx.path("predictions.csv")
    ctx.setup_files = [ctx.files["data"], ctx.files["model"]]
    data = load_csv(ctx.files["data"], INPUT_COLS, TARGET_COLS, washout=WASHOUT)
    ctx.state["expected"] = predict(model, data.inputs)
    session = model.session()
    ctx.state["steps"] = np.array(
        [session.step(data.inputs[:, n]) for n in range(STEP_CHECK_ROWS)]).T


def loop_predict_batch(ctx: Context):
    expected = ctx.state["expected"]
    rows = expected.shape[1]
    for i in ctx.loop():
        ok, _, wall = run_cli(ctx, "predict", "--model", ctx.files["model"],
                              "--data", ctx.files["data"], "--out", ctx.files["out"])
        if not ok:
            continue
        ctx.units += 1
        ctx.latencies.append(wall)
        ctx.rates.append(rows / wall)
        got = _read_numeric_columns(ctx.files["out"])
        ctx.tally.check(got.shape == expected.shape and np.array_equal(got, expected),
                        "predict CSV differs from the in-memory predict of the model")
        if i == 0 and got.shape == expected.shape:
            head = got[:, :STEP_CHECK_ROWS]
            ctx.tally.check(np.abs(head - ctx.state["steps"]).max() <= STEP_TOL,
                            f"predict CSV differs from PredictionSession.step by > {STEP_TOL}")
    if ctx.rates:
        ctx.headline("predict_steps_per_s", median(ctx.rates), "steps/s",
                     f"{rows} rows per command; command wall s: {describe(ctx.latencies)}")


# --- stream ------------------------------------------------------------------

def prepare_stream(ctx: Context):
    from frscn.dataset import load_csv
    from frscn.model import load_model

    _gen_data(ctx, STREAM_ROWS + TAIL_ROWS)
    _serving_model(ctx)
    # The stream is the head of one plant run; its continuation is held out.
    with open(ctx.path("test.csv")) as fh:
        header, *lines = fh.readlines()
    for name, part in (("stream", lines[:STREAM_ROWS]), ("tail", lines[STREAM_ROWS:])):
        ctx.files[name] = ctx.path(f"{name}.csv")
        Path(ctx.files[name]).write_text(header + "".join(part))
    ctx.setup_files = [ctx.files["stream"], ctx.files["model"]]
    ctx.state["model"] = load_model(ctx.files["model"])
    ctx.state["inputs"] = load_csv(ctx.files["stream"], INPUT_COLS, TARGET_COLS,
                                   washout=WASHOUT).inputs
    # One buffer for a pass's step times, reused, so that the harness's memory
    # does not grow with the number of passes a faster program fits in.
    ctx.state["step_s"] = np.empty(ctx.state["inputs"].shape[1])


def _session_pass(ctx: Context) -> float:
    """PredictionSession.step once per sample, each call timed on its own.

    Returns the tail step time of the pass (the highest percentile with ten
    samples beyond it) and records the pass's median step time.
    """
    inputs, step_s = ctx.state["inputs"], ctx.state["step_s"]
    session = ctx.state["model"].session()
    n = inputs.shape[1]
    outputs = np.empty((ctx.state["model"].n_outputs, n))
    clock = time.perf_counter
    for j in range(n):
        start = clock()
        y = session.step(inputs[:, j])
        step_s[j] = clock() - start
        outputs[:, j] = y
    ctx.tally.attempt(n)
    ctx.tally.fail("non-finite session output", int((~np.isfinite(outputs)).any(axis=0).sum()))
    ctx.latencies.append(median(step_s))
    return percentile(step_s, tail_percentile(n))


def loop_stream(ctx: Context):
    import frscn.online

    post_washout = STREAM_ROWS - WASHOUT
    online_nrmse, tails = [], []
    for _ in ctx.loop():
        tails.append(_session_pass(ctx))
        ctx.units += 1
        adapted, trace = ctx.path("model_online.json"), ctx.path("online_trace.csv")
        with _spy(frscn.online, "init_online") as inits:
            ok, _, wall = run_cli(ctx, "online", "--model", ctx.files["model"],
                                  "--data", ctx.files["stream"],
                                  "--out-model", adapted, "--out-trace", trace)
        if not ok:
            continue
        ctx.rates.append(post_washout / wall)
        errors = _read_numeric_columns(trace)
        skipped = post_washout - errors.shape[-1]
        ctx.count("online.skipped", skipped)
        ctx.count("online.gain_dim", inits[-1][1].h.shape[0])
        ctx.tally.attempt(post_washout)
        ctx.tally.fail("online sample skipped", skipped)
        ctx.tally.check(bool(np.isfinite(errors).all()), "non-finite online trace")
        ok, out, _ = run_cli(ctx, "eval", "--model", adapted, "--data", ctx.files["tail"], "--json")
        if ok:
            value = float(json.loads(out)["nrmse"])
            ctx.tally.check(np.isfinite(value), "non-finite online NRMSE")
            online_nrmse.append(value)
    if ctx.latencies:
        ctx.headline("step_p50_us", median(ctx.latencies) * 1e6, "us",
                     f"median over {len(ctx.latencies)} passes of each pass's median step; "
                     f"p{tail_percentile(ctx.state['inputs'].shape[1]):g} of a pass: "
                     f"median {median(tails) * 1e6:.6g}")
    if ctx.rates:
        ctx.headline("online_steps_per_s", median(ctx.rates), "steps/s",
                     f"median, n={len(ctx.rates)}, {post_washout} samples per pass")
    if online_nrmse:
        ctx.count("evaluation.online_nrmse", median(online_nrmse))
        ctx.headline("online_nrmse", median(online_nrmse), "1",
                     f"on the {TAIL_ROWS}-row held-out tail")


WORKLOADS = {
    "train": (prepare_train, loop_train),
    "predict-batch": (prepare_predict_batch, loop_predict_batch),
    "stream": (prepare_stream, loop_stream),
}
