import importlib.util
import math
from pathlib import Path

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
