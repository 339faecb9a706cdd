import copy
import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "accuracy_gate.py"
_SPEC = importlib.util.spec_from_file_location("accuracy_gate", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


@pytest.fixture
def base_scores():
    rng = np.random.default_rng(0)
    return 10.0 ** rng.uniform(-2.5, -1.5, (30, len(gate.TEST_SEQUENCES)))


def test_statistic_is_the_mean_log_ratio_per_seed():
    base = np.array([[1.0, 2.0], [4.0, 1.0]])
    change = np.array([[2.0, 2.0], [1.0, 1.0]])
    assert gate.paired_statistic(base, change) == pytest.approx([math.log(2) / 2, math.log(0.25) / 2])


def test_identical_scores_pass_with_a_zero_interval(base_scores):
    verdict = gate.decide(base_scores, base_scores.copy())
    assert verdict["median_log_ratio"] == 0.0
    assert verdict["ci"] == [0.0, 0.0]
    assert verdict["passes"]


def test_a_uniform_ten_percent_increase_fails(base_scores):
    verdict = gate.decide(base_scores, 1.1 * base_scores)
    assert verdict["ci"] == pytest.approx([math.log(1.1)] * 2)
    assert not verdict["passes"]


def test_bootstrap_is_seeded_and_brackets_the_median():
    stats = np.random.default_rng(1).normal(0.0, 0.1, 30)
    lo, hi = gate.bootstrap_median_ci(stats)
    assert (lo, hi) == gate.bootstrap_median_ci(stats)
    assert lo < np.median(stats) < hi


def test_weights_digest_changes_with_any_weight_bit():
    rng = np.random.default_rng(2)
    res = SimpleNamespace(w_in=rng.normal(size=(3, 2)), w_r=np.tril(rng.normal(size=(3, 3))),
                          b=rng.normal(size=3), w_out=rng.normal(size=(1, 5)))
    bank = SimpleNamespace(centers=rng.normal(size=(1, 2)), widths=np.ones((1, 2)))
    model = SimpleNamespace(rule_bank=bank, sub_reservoirs=(res,))
    digest = gate.weights_digest(model)
    assert gate.weights_digest(copy.deepcopy(model)) == digest
    for name in ("w_in", "w_r", "b", "w_out"):
        bumped = copy.deepcopy(model)
        arr = getattr(bumped.sub_reservoirs[0], name).reshape(-1)
        arr[-1] = np.nextafter(arr[-1], np.inf)
        assert gate.weights_digest(bumped) != digest, name


def test_reservoir_digest_leaves_out_only_the_readouts():
    rng = np.random.default_rng(3)
    res = SimpleNamespace(w_in=rng.normal(size=(3, 2)), w_r=np.tril(rng.normal(size=(3, 3))),
                          b=rng.normal(size=3), w_out=rng.normal(size=(1, 5)))
    bank = SimpleNamespace(centers=rng.normal(size=(1, 2)), widths=np.ones((1, 2)))
    model = SimpleNamespace(rule_bank=bank, sub_reservoirs=(res,))
    digest = gate.weights_digest(model, readouts=False)
    assert digest != gate.weights_digest(model)
    for name in ("w_in", "w_r", "b", "w_out"):
        bumped = copy.deepcopy(model)
        arr = getattr(bumped.sub_reservoirs[0], name).reshape(-1)
        arr[-1] = np.nextafter(arr[-1], np.inf)
        assert (gate.weights_digest(bumped, readouts=False) == digest) == (name == "w_out"), name


def test_report_counts_identical_models_and_reservoirs(tmp_path, monkeypatch, capsys):
    for name in ("base", "change"):
        (tmp_path / name / "frscn").mkdir(parents=True)
    scores = {"train": [0.01, 0.01], "test": [[0.02] * len(gate.TEST_SEQUENCES)] * 2, "seconds": [1.0, 1.0]}
    runs = {
        str(tmp_path / "base"): dict(scores, digest=["a", "b"], reservoir_digest=["r", "s"]),
        # the second seed keeps its reservoirs but moves its readout
        str(tmp_path / "change"): dict(scores, digest=["a", "c"], reservoir_digest=["r", "s"]),
    }
    monkeypatch.setattr(gate, "run_tree", lambda src, seeds, n_max: copy.deepcopy(runs[src]))
    assert gate.main(["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
                      "--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:4] == ["byte-identical model weights: 1 of 2 seeds",
                          "byte-identical reservoirs: 2 of 2 seeds"]
