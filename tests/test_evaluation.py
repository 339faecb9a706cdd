import json
import math

import numpy as np
import pytest

import frscn.evaluation as ev
from frscn import (
    EsnConfig,
    ScConfig,
    UndefinedMetricError,
    emit_report,
    generate_plant_sequence,
    grid_search,
    nrmse,
    run_trials,
)
from frscn.errors import ConfigError
from frscn.evaluation import TrialSummary, run_single_trial


class TestNrmse:
    def test_perfect_prediction(self):
        t = np.random.default_rng(0).normal(size=(2, 50))
        assert nrmse(t, t) == 0.0

    def test_constant_mean_prediction_is_one(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(1, 400))
        pred = np.full_like(t, t.mean())
        assert abs(nrmse(pred, t) - 1.0) < 1e-12

    def test_hand_value(self):
        t = np.array([[0.0, 2.0]])
        pred = np.zeros((1, 2))
        # sqrt(4 / (2 * var)) with population var = 1
        assert nrmse(pred, t) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_zero_variance_target_rejected(self):
        with pytest.raises(UndefinedMetricError):
            nrmse(np.zeros((1, 10)), np.ones((1, 10)))

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(1, 100))
        pred = t + rng.normal(size=(1, 100)) * 0.3
        base = nrmse(pred, t)
        scaled = nrmse(4.2 * pred + 7.0, 4.2 * t + 7.0)
        assert abs(base - scaled) < 1e-10

    def test_washout_excluded(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(1, 80))
        pred = t + 0.1
        val = nrmse(pred, t, washout=30)
        corrupted = pred.copy()
        corrupted[:, :30] = 1e9
        assert nrmse(corrupted, t, washout=30) == val

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nrmse(np.zeros((1, 5)), np.zeros((1, 6)))

    def test_multi_output_mean_over_live_dimensions(self):
        t = np.vstack([np.array([0.0, 2.0]), np.ones(2)])  # second dim constant
        pred = np.zeros((2, 2))
        assert nrmse(pred, t) == pytest.approx(math.sqrt(2.0), abs=1e-12)


@pytest.fixture(scope="module")
def small_task():
    train = generate_plant_sequence(400, "train-random", seed=1, washout=40)
    val = generate_plant_sequence(200, "train-random", seed=2, washout=40)
    test = generate_plant_sequence(200, "train-random", seed=3, washout=40)
    return train, val, test


FAST_SC = ScConfig(n_max=8, g_max=20)
FAST_ESN = EsnConfig(n_nodes=8)


class TestRunTrials:
    def test_single_trial_summary(self, small_task):
        train, val, test = small_task
        results, summary = run_trials(train, val, test, "frscn", q=1, sc_cfg=FAST_SC,
                                      n_trials=1, base_seed=5)
        assert len(results) == 1
        assert summary.mean_test == results[0].test_nrmse
        assert summary.std_test == 0.0
        assert summary.n_ok == 1 and summary.n_failed == 0

    def test_deterministic_summaries(self, small_task):
        train, val, test = small_task
        _, s1 = run_trials(train, val, test, "frscn", q=1, sc_cfg=FAST_SC,
                           n_trials=2, base_seed=7)
        _, s2 = run_trials(train, val, test, "frscn", q=1, sc_cfg=FAST_SC,
                           n_trials=2, base_seed=7)
        assert s1 == s2

    def test_seeds_offset_from_base(self, small_task):
        train, val, test = small_task
        results, _ = run_trials(train, val, test, "fesn", q=1, esn_cfg=FAST_ESN,
                                n_trials=3, base_seed=100)
        assert [r.seed for r in results] == [100, 101, 102]

    def test_failures_recorded_not_raised(self, small_task):
        train, val, test = small_task
        # q larger than the number of training samples: clustering must fail
        results, summary = run_trials(train, val, test, "frscn", q=10_000,
                                      sc_cfg=FAST_SC, n_trials=2, base_seed=0)
        assert summary.n_failed == 2
        assert all(r.error for r in results)
        assert math.isnan(summary.mean_test)

    def test_rscn_alias_forces_single_rule(self, small_task):
        train, val, test = small_task
        model, reports, result = run_single_trial(train, val, test, "rscn", q=5,
                                                  sc_cfg=FAST_SC, seed=1)
        assert model.n_rules == 1
        assert len(result.node_counts) == 1

    @pytest.mark.filterwarnings("error")
    def test_no_test_split_scores_no_test(self, small_task):
        train, val, test = small_task
        results, summary = run_trials(train, val, None, "fesn", q=1, esn_cfg=FAST_ESN,
                                      n_trials=2, base_seed=0)
        with_test, _ = run_trials(train, val, test, "fesn", q=1, esn_cfg=FAST_ESN,
                                  n_trials=2, base_seed=0)
        assert all(math.isnan(r.test_nrmse) for r in results)
        assert math.isnan(summary.mean_test) and summary.n_ok == 2
        assert [r.val_nrmse for r in results] == [r.val_nrmse for r in with_test]

    def test_summary_mean_matches_arithmetic_mean(self, small_task):
        train, val, test = small_task
        results, summary = run_trials(train, val, test, "fesn", q=1, esn_cfg=FAST_ESN,
                                      n_trials=4, base_seed=0)
        assert summary.mean_test == pytest.approx(
            np.mean([r.test_nrmse for r in results]), abs=0
        )


class TestGridSearch:
    def test_single_cell_selected(self, small_task):
        train, val, _ = small_task
        result = grid_search(train, val, q_values=[1], n_values=[6],
                             sc_cfg=FAST_SC, trials_per_cell=1, base_seed=0)
        assert result.best_q == 1 and result.best_n == 6
        assert result.mean_val_nrmse.shape == (1, 1)

    def test_tie_breaks_smaller_n_then_q(self, small_task, monkeypatch):
        train, val, _ = small_task

        def fake_run_trials(*args, **kwargs):
            summary = TrialSummary(0.1, 0.5, 0.1, 0.0, 0.0, 0.0, 1, 0)
            return [], summary

        monkeypatch.setattr(ev, "run_trials", fake_run_trials)
        result = grid_search(train, val, q_values=[3, 1], n_values=[50, 25],
                             trials_per_cell=1)
        assert result.best_n == 25
        assert result.best_q == 1

    def test_a_trial_predicts_the_validation_split_once(self, small_task, monkeypatch):
        train, val, _ = small_task
        predicted, real_predict = [], ev.predict

        def counting_predict(model, inputs):
            predicted.append(inputs)
            return real_predict(model, inputs)

        monkeypatch.setattr(ev, "predict", counting_predict)
        grid_search(train, val, q_values=[1, 2], n_values=[6], sc_cfg=FAST_SC,
                    trials_per_cell=2, base_seed=0)
        # 2 cells x 2 trials, each predicting train and val once
        assert sum(u is val.inputs for u in predicted) == 4
        assert sum(u is train.inputs for u in predicted) == 4

    def test_empty_axes_rejected(self, small_task):
        train, val, _ = small_task
        with pytest.raises(ValueError):
            grid_search(train, val, q_values=[], n_values=[5])

    @pytest.mark.parametrize("kind", ["rscn", "esn"])
    def test_single_rule_aliases_rejected(self, small_task, kind):
        # an alias fixes q at 1, so a q > 1 row would hold a q = 1 model
        train, val, _ = small_task
        with pytest.raises(ConfigError, match=f"model kind '{kind}' fixes at 1"):
            grid_search(train, val, q_values=[1, 2], n_values=[6], model_kind=kind)

    def test_reproducible(self, small_task):
        train, val, _ = small_task
        kw = dict(q_values=[1], n_values=[6, 7], sc_cfg=FAST_SC,
                  trials_per_cell=1, base_seed=3)
        a = grid_search(train, val, **kw)
        b = grid_search(train, val, **kw)
        assert np.array_equal(a.mean_val_nrmse, b.mean_val_nrmse)
        assert (a.best_q, a.best_n) == (b.best_q, b.best_n)


class TestEmitReport:
    def test_empty_results(self, tmp_path):
        written = emit_report(tmp_path, trials=[])
        assert [p.name for p in written] == ["summary.json"]
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["trials"] == []

    def test_full_artifacts(self, tmp_path, small_task):
        train, val, test = small_task
        model, reports, result = run_single_trial(train, val, test, "frscn", q=3,
                                                  sc_cfg=FAST_SC, seed=0)
        written = emit_report(tmp_path, trials=[result], model=model, dataset=test)
        names = {p.name for p in written}
        assert names == {"summary.json", "predictions.csv", "fire_strengths.csv"}

        lines = (tmp_path / "predictions.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == test.n_samples - test.washout

        fs_lines = (tmp_path / "fire_strengths.csv").read_text().strip().splitlines()
        for line in fs_lines[1:]:
            phis = [float(v) for v in line.split(",")[1:]]
            assert abs(sum(phis) - 1.0) < 1e-9
            assert all(p >= 0 for p in phis)

    @pytest.mark.parametrize("stride", [0, -5])
    def test_stride_below_one_raises_before_writing(self, tmp_path, small_task, stride):
        train, val, test = small_task
        model, _, _ = run_single_trial(train, val, test, "frscn", q=2, sc_cfg=FAST_SC, seed=0)
        with pytest.raises(ValueError, match="fire_strength_stride"):
            emit_report(tmp_path / "out", model=model, dataset=test, fire_strength_stride=stride)
        assert not (tmp_path / "out").exists()

    def test_grid_csv(self, tmp_path, small_task):
        train, val, _ = small_task
        grid = grid_search(train, val, q_values=[1], n_values=[6],
                           sc_cfg=FAST_SC, trials_per_cell=1)
        written = emit_report(tmp_path, grid=grid)
        names = {p.name for p in written}
        assert "grid.csv" in names
        lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
        assert lines[0] == "q,n,mean_val_nrmse"
        assert len(lines) == 2
