from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frscn import (
    ScConfig,
    SubReservoir,
    TimeSeriesDataset,
    TrainReport,
    evaluate_xi,
    fit_readout,
    generate_plant_sequence,
    train_sub_reservoir,
)
from frscn import trainer
from support import readout


class TestEvaluateXi:
    def test_hand_case(self):
        xi, xi_q = evaluate_xi(np.array([[1.0, 0.0]]), np.array([1.0, 1.0]), r=0.9, mu=0.05)
        # <e,g>^2/<g,g> - (1-mu-r)<e,e> = 1/2 - 0.05*1
        assert xi == pytest.approx(0.45, abs=1e-15)
        assert xi_q[0] == pytest.approx(0.45, abs=1e-15)

    def test_orthogonal_candidate_rejected(self):
        e = np.array([[1.0, 0.0]])
        g = np.array([0.0, 1.0])
        xi, xi_q = evaluate_xi(e, g, r=0.9, mu=0.0)
        assert xi == pytest.approx(-(1.0 - 0.9) * 1.0)
        assert xi < 0

    def test_parallel_candidate_scores_r_times_energy(self):
        # Cauchy-Schwarz equality case: xi = r ||e||^2
        rng = np.random.default_rng(0)
        e = rng.normal(size=(1, 30))
        g = 3.7 * e[0]
        for r in (0.5, 0.9, 0.99):
            xi, _ = evaluate_xi(e, g, r=r, mu=0.0)
            assert xi == pytest.approx(r * (e**2).sum(), rel=1e-12)

    def test_zero_candidate_fails_without_raising(self):
        xi, xi_q = evaluate_xi(np.ones((2, 5)), np.zeros(5), r=0.9, mu=0.01)
        assert xi == float("-inf")
        assert np.all(np.isneginf(xi_q))

    def test_batch_matches_rows_scored_one_at_a_time(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(2, 40))
        states = rng.normal(size=(6, 40))
        states[2] = 0.0
        xi, xi_q = evaluate_xi(e, states, r=0.99, mu=0.002)
        assert xi.shape == (6,) and xi_q.shape == (6, 2)
        for i in (0, 1, 3, 4, 5):
            row, row_q = evaluate_xi(e, states[i], r=0.99, mu=0.002)
            assert row.shape == (1,) and row_q.shape == (1, 2)
            assert xi[i] == pytest.approx(row[0], rel=1e-12)
            assert xi_q[i] == pytest.approx(row_q[0], rel=1e-12)
        assert xi[2] == float("-inf")
        assert np.all(np.isneginf(xi_q[2]))

    def test_parameter_validation(self):
        e, g = np.ones((1, 3)), np.ones(3)
        with pytest.raises(ValueError):
            evaluate_xi(e, g, r=1.0, mu=0.0)
        with pytest.raises(ValueError):
            evaluate_xi(e, g, r=0.9, mu=0.2)  # mu > 1 - r


class TestFitReadout:
    def test_planted_solution_recovered(self):
        rng = np.random.default_rng(1)
        states = rng.normal(size=(6, 300))
        inputs = rng.normal(size=(2, 300))
        w_true = rng.normal(size=(2, 8))
        targets = w_true @ np.vstack([states, inputs])
        w, fallback = fit_readout(states, inputs, targets, ridge=0.0)
        assert not fallback
        assert np.abs(w - w_true).max() / np.abs(w_true).max() < 1e-8

    def test_scalar_division(self):
        w, _ = fit_readout(np.array([[2.0]]), np.zeros((0, 1)), np.array([[6.0]]))
        assert w[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        states = rng.normal(size=(15, 200))
        inputs = rng.normal(size=(5, 200))
        targets = rng.normal(size=(2, 200))
        w, _ = fit_readout(states, inputs, targets, ridge=0.0)
        d = np.vstack([states, inputs])
        w_ref = (np.linalg.inv(d @ d.T) @ d @ targets.T).T
        assert np.abs(w - w_ref).max() < 1e-6

    def test_rank_deficient_triggers_fallback(self):
        states = np.vstack([np.ones((1, 50)), np.ones((1, 50))])  # duplicated row
        targets = np.ones((1, 50))
        w, fallback = fit_readout(states, np.zeros((0, 50)), targets, ridge=0.0)
        assert fallback
        assert np.isfinite(w).all()

    def test_washout_columns_excluded(self):
        rng = np.random.default_rng(3)
        states = rng.normal(size=(4, 120))
        inputs = rng.normal(size=(1, 120))
        targets = rng.normal(size=(1, 120))
        w_a, _ = fit_readout(states, inputs, targets, washout=20)
        corrupted = targets.copy()
        corrupted[:, :20] = 1e6
        w_b, _ = fit_readout(states, inputs, corrupted, washout=20)
        assert np.array_equal(w_a, w_b)

    def test_ridge_shrinks_weights(self):
        rng = np.random.default_rng(4)
        states = rng.normal(size=(10, 100))
        targets = rng.normal(size=(1, 100))
        w0, _ = fit_readout(states, np.zeros((0, 100)), targets, ridge=0.0)
        w1, _ = fit_readout(states, np.zeros((0, 100)), targets, ridge=100.0)
        assert np.linalg.norm(w1) < np.linalg.norm(w0)


class TestScConfig:
    def test_defaults_are_benchmark_settings(self):
        cfg = ScConfig()
        assert cfg.lambda_grid == (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)
        assert cfg.r_schedule == (0.9, 0.99, 0.999, 0.9999)
        assert cfg.g_max == 100
        assert cfg.epsilon == 1e-6
        assert cfg.initial_size == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_max": 0},
            {"g_max": 0},
            {"epsilon": 0.0},
            {"lambda_grid": ()},
            {"lambda_grid": (1.0, 0.5)},
            {"r_schedule": (0.9, 0.5)},
            {"r_schedule": (0.0,)},
            {"sparsity_range": (0.0, 0.05)},
            {"sparsity_range": (0.05, 0.01)},
            {"alpha": 1.0},
            {"ridge": -1.0},
            {"initial_size": 0},
            {"activation": "relu"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScConfig(**kwargs)


@pytest.fixture(scope="module")
def plant_train():
    return generate_plant_sequence(800, "train-random", seed=1, washout=80)


class TestTrainSubReservoir:
    def test_zero_target_stops_at_tolerance(self, plant_train):
        ds = TimeSeriesDataset(plant_train.inputs, np.zeros_like(plant_train.targets),
                               washout=plant_train.washout)
        res, rep = train_sub_reservoir(ds, ScConfig(n_max=50), seed=0)
        assert rep.stop_reason == "tolerance"
        assert rep.n_nodes == 5
        assert rep.residual_trace[0] <= 1e-6

    def test_size_cap_binds_immediately(self, plant_train):
        res, rep = train_sub_reservoir(plant_train, ScConfig(n_max=5, initial_size=5), seed=0)
        assert rep.stop_reason == "size-cap"
        assert rep.n_nodes == 5
        assert len(rep.residual_trace) == 1

    def test_initial_size_above_n_max_starts_at_n_max(self, plant_train):
        res, rep = train_sub_reservoir(plant_train, ScConfig(n_max=3), seed=0)
        assert rep.stop_reason == "size-cap"
        assert rep.n_nodes == res.n_nodes == 3
        same, _ = train_sub_reservoir(plant_train, ScConfig(n_max=3, initial_size=3), seed=0)
        for field in ("w_in", "w_r", "b", "w_out"):
            assert np.array_equal(getattr(res, field), getattr(same, field))

    def test_monotone_trace_over_many_nodes(self, plant_train):
        res, rep = train_sub_reservoir(plant_train, ScConfig(n_max=30), seed=3)
        assert rep.n_nodes == 30
        assert len(rep.residual_trace) == 26  # initial + 25 accepted nodes
        for a, b in zip(rep.residual_trace, rep.residual_trace[1:]):
            assert b <= a + 1e-10

    def test_deterministic_bit_for_bit(self, plant_train):
        cfg = ScConfig(n_max=15)
        res_a, rep_a = train_sub_reservoir(plant_train, cfg, seed=11)
        res_b, rep_b = train_sub_reservoir(plant_train, cfg, seed=11)
        for fa, fb in (
            (res_a.w_in, res_b.w_in),
            (res_a.w_r, res_b.w_r),
            (res_a.b, res_b.b),
            (res_a.w_out, res_b.w_out),
        ):
            assert fa.tobytes() == fb.tobytes()
        assert rep_a.residual_trace == rep_b.residual_trace

    def test_final_state_consistent_with_fresh_rollout(self, plant_train):
        # screening must never corrupt accepted rows: the stored readout applied
        # to a from-scratch rollout reproduces the reported residual
        res, rep = train_sub_reservoir(plant_train, ScConfig(n_max=20), seed=5)
        states = res.rollout(plant_train.inputs)
        w = plant_train.washout
        e = plant_train.targets[:, w:] - readout(res, states, plant_train.inputs)[:, w:]
        assert np.linalg.norm(e) == pytest.approx(rep.residual_trace[-1], rel=1e-9)

    @pytest.mark.parametrize("scale", [2.0**100, 2.0**400])
    def test_growth_does_not_depend_on_the_targets_scale(self, plant_train, scale):
        # a power-of-two scale is exact in every product, the float32 screen's too
        cfg = ScConfig(n_max=15)
        ref, rep_ref = train_sub_reservoir(plant_train, cfg, seed=0)
        scaled = TimeSeriesDataset(plant_train.inputs, plant_train.targets * scale,
                                   washout=plant_train.washout)
        res, rep = train_sub_reservoir(scaled, cfg, seed=0)
        for field in ("w_in", "w_r", "b"):
            assert np.array_equal(getattr(res, field), getattr(ref, field))
        assert rep.accepted_r == rep_ref.accepted_r
        np.testing.assert_allclose(res.w_out, ref.w_out * scale, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.residual_trace, np.array(rep_ref.residual_trace) * scale,
                                   rtol=1e-12)

    def test_echo_state_bound_maintained(self, plant_train):
        res, _ = train_sub_reservoir(plant_train, ScConfig(n_max=25, alpha=0.9), seed=7)
        assert np.linalg.svd(res.w_r, compute_uv=False)[0] <= 0.9 + 1e-9
        assert np.all(np.triu(res.w_r, 1) == 0.0)

    def test_supervisory_bound_on_accepted_steps(self, plant_train):
        records = []

        def hook(e_prev, g, r, mu):
            records.append((e_prev, g, r, mu))

        train_sub_reservoir(plant_train, ScConfig(n_max=20), seed=9, accept_hook=hook)
        assert len(records) == 15
        for e_prev, g, r, mu in records:
            gg = g @ g
            for q in range(e_prev.shape[0]):
                w_star = (e_prev[q] @ g) / gg
                e_new = e_prev[q] - w_star * g
                assert e_new @ e_new <= (r + mu) * (e_prev[q] @ e_prev[q]) + 1e-8

    def test_report_serialization_round_trip(self, plant_train):
        _, rep = train_sub_reservoir(plant_train, ScConfig(n_max=8), seed=2)
        clone = TrainReport(**rep.to_dict())
        assert clone.residual_trace == rep.residual_trace
        assert clone.stop_reason == rep.stop_reason
        assert clone.n_nodes == rep.n_nodes

    def test_report_without_counters_still_loads(self, plant_train):
        _, rep = train_sub_reservoir(plant_train, ScConfig(n_max=8), seed=2)
        d = rep.to_dict()
        assert TrainReport(**d).counters == rep.counters
        del d["counters"]  # reports written before the counters existed
        assert TrainReport(**d).counters == {}


def scalar_candidate_states(res, pool, inputs, states):
    """T x G states of each candidate row [w_in, b, w_r] of pool, one scalar step at a time."""
    g = trainer.ACTIVATIONS[res.activation]
    k, n = res.n_inputs, res.n_nodes
    out = np.empty((inputs.shape[1], len(pool)))
    for i, row in enumerate(pool):
        x = 0.0
        for t in range(inputs.shape[1]):
            pre = row[:k] @ inputs[:, t] + row[k] + row[-1] * x
            if t > 0:
                pre += row[k + 1 : -1] @ states[:, t - 1]
            with np.errstate(over="ignore"):
                x = float(g(np.array(pre)))
            out[t, i] = x
    return out


def design_of(inputs, states, width):
    """The trainer's time-major design [u(t), 1, x(t-1)], padded with NaN to width."""
    k, n = inputs.shape[0], states.shape[0]
    design = np.full((inputs.shape[1], width), np.nan)
    design[:, :k] = inputs.T
    design[:, k] = 1.0
    design[0, k + 1 : k + 1 + n] = 0.0
    design[1:, k + 1 : k + 1 + n] = states[:, :-1].T
    return design


class TestBatchedScreening:
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        g_max=st.integers(1, 9),
        n_pools=st.integers(1, 5),
        n_nodes=st.integers(1, 6),
        n_inputs=st.integers(1, 2),
        lam=st.sampled_from([0.1, 1.0, 10.0, 100.0]),
        budget=st.floats(0.01, 0.45),
    )
    def test_every_candidate_matches_a_scalar_recurrence(
        self, activation, seed, g_max, n_pools, n_nodes, n_inputs, lam, budget
    ):
        rng = np.random.default_rng(seed)
        n_steps = 40
        w_r = np.tril(rng.uniform(-1, 1, (n_nodes, n_nodes)))
        res = SubReservoir(w_in=rng.uniform(-1, 1, (n_nodes, n_inputs)),
                           w_r=w_r * (0.8 / max(np.linalg.norm(w_r, 2), 1e-12)),
                           b=rng.uniform(-1, 1, n_nodes), activation=activation)
        u = rng.uniform(-1, 1, (n_inputs, n_steps))
        states = res.rollout(u)
        cfg = ScConfig(g_max=g_max, activation=activation)
        batch = np.full((n_pools * g_max, n_inputs + 2 + n_nodes), np.nan)
        for pool in np.split(batch, n_pools):
            trainer._draw_pool(rng, cfg, lam, n_inputs, budget, pool)
        assert not np.isnan(batch).any()
        # columns past K + 1 + n and past the batch's width must never be read
        design = design_of(u, states, n_inputs + 1 + n_nodes + 3)
        reference = np.hstack([scalar_candidate_states(res, pool, u, states)
                               for pool in np.split(batch, n_pools)])
        # a float32 workspace rounds each pre-activation, of size up to about
        # lam, to about 6e-8 of it, and the contracting recurrence keeps the
        # states within 2e-6 max(lam, 1) (at most 9.5e-6 at lam = 100 over 300
        # random cases)
        for dtype, atol in ((np.float64, 1e-12), (np.float32, 2e-6 * max(lam, 1.0))):
            work = np.full((n_steps, 5 * g_max), np.nan, dtype)
            cands = trainer._candidate_states(batch, activation, design, work)
            assert cands.shape == (n_steps, n_pools * g_max) and cands.dtype == dtype
            np.testing.assert_allclose(cands, reference, rtol=0, atol=atol)

    @pytest.mark.parametrize(
        "kwargs, seed, stop_reason",
        [
            ({"n_max": 20}, 9, "size-cap"),
            ({"n_max": 20, "activation": "sigmoid"}, 3, "size-cap"),
            ({"n_max": 40, "g_max": 2, "lambda_grid": (0.1,)}, 1, "no-candidate"),
        ],
    )
    def test_same_growth_as_one_pool_at_a_time(self, plant_train, monkeypatch, kwargs, seed, stop_reason):
        cfg = ScConfig(**kwargs)
        u = plant_train.inputs

        def one_pool_at_a_time(cands, activation, design, work):
            # each pool's own three pre-activation products, each pool in its own loop
            g = trainer.ACTIVATIONS[activation]
            k = u.shape[0]
            n = cands.shape[1] - k - 2
            out = []
            for pool in np.split(cands, len(cands) // cfg.g_max):
                pre = pool[:, :k] @ u + pool[:, k, None]
                pre[:, 1:] += pool[:, k + 1 : -1] @ design[1:, k + 1 : k + 1 + n].T
                x = np.zeros(len(pool))
                with np.errstate(over="ignore"):
                    for t in range(pre.shape[1]):
                        x = pre[:, t] = g(pre[:, t] + pool[:, -1] * x)
                out.append(pre.T)
            return np.hstack(out)

        res_b, rep_b = train_sub_reservoir(plant_train, cfg, seed=seed)
        monkeypatch.setattr(trainer, "_candidate_states", one_pool_at_a_time)
        res_s, rep_s = train_sub_reservoir(plant_train, cfg, seed=seed)

        assert rep_s.stop_reason == rep_b.stop_reason == stop_reason
        assert rep_b.n_nodes == rep_s.n_nodes == res_b.n_nodes
        assert rep_b.accepted_lambda == rep_s.accepted_lambda
        assert rep_b.accepted_r == rep_s.accepted_r
        assert rep_b.counters == rep_s.counters
        # the refit amplifies last-bit differences in the states, most over the
        # near-collinear sigmoid states (2.3e-12 relative in this case)
        np.testing.assert_allclose(rep_b.residual_trace, rep_s.residual_trace, rtol=1e-11, atol=0)

    @pytest.mark.parametrize(
        "kwargs, seed",
        [
            ({"n_max": 20}, 9),
            ({"n_max": 20, "activation": "sigmoid"}, 3),
            ({"n_max": 40, "g_max": 2, "lambda_grid": (0.1,)}, 1),
            ({"n_max": 5, "initial_size": 5}, 0),
            # rejects tries at the guard, whose columns must not reach the committed states
            ({"n_max": 20, "ridge": 1e-6}, 3),
            # node 8's column leaves the design rank-deficient: the rank fallback
            ({"n_max": 20, "activation": "sigmoid", "lambda_grid": (1000.0,)}, 4),
        ],
    )
    def test_design_holds_the_committed_states(self, plant_train, monkeypatch, kwargs, seed):
        cfg = ScConfig(**kwargs)
        u = plant_train.inputs
        k = u.shape[0]
        fitted, designs = [], []
        fit, screen = trainer.fit_readout, trainer._candidate_states

        def spy_fit(states, *args):
            fitted.append(states.copy())
            return fit(states, *args)

        def spy_screen(cands, activation, design, work):
            designs.append((cands.shape[1] - k - 2, design.copy()))
            return screen(cands, activation, design, work)

        monkeypatch.setattr(trainer, "fit_readout", spy_fit)
        monkeypatch.setattr(trainer, "_candidate_states", spy_screen)
        res, rep = train_sub_reservoir(plant_train, cfg, seed=seed)
        if cfg.ridge > 0:
            assert rep.guard_rejections >= 1
        if cfg.lambda_grid == (1000.0,):
            assert rep.ridge_fallbacks[0] > cfg.initial_size
        rollout = res.rollout(u)
        # the readout is fit once, on the committed states, at the end
        assert len(fitted) == 1
        np.testing.assert_allclose(fitted[-1], rollout, rtol=0, atol=1e-12)
        if cfg.initial_size == cfg.n_max:
            assert designs == []
        for n, design in designs:
            assert design.shape == (u.shape[1], k + 1 + cfg.n_max)
            np.testing.assert_array_equal(design[:, :k], u.T)
            assert (design[:, k] == 1.0).all()
            assert not design[0, k + 1 : k + 1 + n].any()
            np.testing.assert_allclose(design[1:, k + 1 : k + 1 + n], rollout[:n, :-1].T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "kwargs, seed",
        [
            ({"n_max": 20}, 9),
            # rejects tries at the guard, whose rows must not reach the weights
            ({"n_max": 20, "ridge": 1e-6}, 3),
            ({"n_max": 20, "activation": "sigmoid"}, 3),
        ],
    )
    def test_weights_are_rows_of_the_accepting_batch(self, plant_train, monkeypatch, kwargs, seed):
        cfg = ScConfig(**kwargs)
        k = plant_train.n_inputs
        last_batch = {}
        screen = trainer._candidate_states

        def spy_screen(cands, activation, design, work):
            last_batch[cands.shape[1] - k - 2] = cands.copy()
            return screen(cands, activation, design, work)

        monkeypatch.setattr(trainer, "_candidate_states", spy_screen)
        res, rep = train_sub_reservoir(plant_train, cfg, seed=seed)
        if cfg.ridge > 0:
            assert rep.guard_rejections >= 1
        n0 = min(cfg.initial_size, cfg.n_max)
        assert sorted(last_batch) == list(range(n0, res.n_nodes))
        for n in range(n0, res.n_nodes):
            row = np.concatenate([res.w_in[n], [res.b[n]], res.w_r[n, : n + 1]])
            assert (last_batch[n] == row).all(axis=1).any()
        # the reservoir holds copies the size of its own rows, not views of
        # the n_max-wide store (SubReservoir's reshape and ravel may add a view)
        for a in (res.w_in, res.w_r, res.b):
            owner = a if a.base is None else a.base
            assert owner.base is None and owner.size == a.size

    @pytest.mark.parametrize(
        "kwargs, seed",
        [({"n_max": 20}, 9), ({"n_max": 40, "g_max": 2, "lambda_grid": (0.1, 0.5)}, 1)],
    )
    def test_pools_screened_per_weight_scale_tried(self, plant_train, kwargs, seed):
        cfg = ScConfig(**kwargs)
        _, rep = train_sub_reservoir(plant_train, cfg, seed=seed)
        # a node accepted at the j-th scale tried j + 1 scales; a failed node all
        scales = sum(cfg.lambda_grid.index(lam) + 1 for lam in rep.accepted_lambda)
        if rep.stop_reason == "no-candidate":
            scales += len(cfg.lambda_grid)
        assert set(rep.counters) == {"pools_screened", "screen_rung_moves"}
        assert rep.counters["pools_screened"] == trainer._POOLS_PER_SCALE * scales

    def test_a_try_failing_its_float64_check_is_skipped(self, plant_train, monkeypatch):
        cfg = ScConfig(n_max=8)
        n0 = cfg.initial_size
        ref, rep_ref = train_sub_reservoir(plant_train, cfg, seed=9)
        rollout, failed = trainer._candidate_rollout, []

        def first_try_fails(cand, g, design, out):
            rollout(cand, g, design, out)
            if not failed:  # a zero state passes no rung
                failed.append(cand.copy())
                out[:] = 0.0

        monkeypatch.setattr(trainer, "_candidate_rollout", first_try_fails)
        res, rep = train_sub_reservoir(plant_train, cfg, seed=9)

        def first_node(r):
            return np.concatenate([r.w_in[n0], [r.b[n0]], r.w_r[n0, : n0 + 1]])

        # unchecked, the screen's top candidate is the first node; checked, it is skipped
        assert np.array_equal(first_node(ref), failed[0])
        assert not np.array_equal(first_node(res), failed[0])
        assert rep_ref.counters["screen_rung_moves"] == 0
        assert rep.counters["screen_rung_moves"] == 1
        assert rep.accepted_lambda[0] == rep_ref.accepted_lambda[0]
        assert rep.guard_rejections == 0


class TestQrReadout:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"ridge": 1e-6},
            {"ridge": 1.0},
            {"activation": "sigmoid"},
            # rank-deficient designs: fit_readout's fallback ridge
            {"activation": "sigmoid", "lambda_grid": (1000.0,)},
        ],
    )
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_appended_residual_matches_a_fresh_fit(self, plant_train, kwargs, seed):
        cfg = ScConfig(n_max=15, **kwargs)
        # a duplicated input row leaves every design rank-deficient, the initial one too
        duplicated = replace(plant_train, inputs=plant_train.inputs[[0, 1, 1]])
        for data in (plant_train, duplicated):
            before = []
            res, rep = train_sub_reservoir(data, cfg, seed=seed,
                                           accept_hook=lambda e, g, r, mu: before.append(e))
            u, t, w = data.inputs, data.targets, data.washout
            states = res.rollout(u)
            n0 = res.n_nodes - len(rep.accepted_r)
            if data is duplicated:
                assert rep.ridge_fallbacks == ([] if cfg.ridge else list(range(n0, res.n_nodes + 1)))
            for n, norm_qr, e_qr in zip(range(n0, res.n_nodes + 1), rep.residual_trace,
                                        before + [None]):
                w_out, fallback = fit_readout(states[:n], u, t, cfg.ridge, w)
                d = np.vstack([states[:n], u])[:, w:].T
                e = t[:, w:] - w_out @ d.T
                assert (n in rep.ridge_fallbacks) == fallback
                # first-order least-squares perturbation: the residual is computed to
                # about eps cond(A) ||t||, for A the design over sqrt(ridge) I at the
                # fit's ridge; lstsq's own error dominates
                ridge = trainer._FALLBACK_RIDGE if fallback else cfg.ridge
                cond = np.linalg.cond(np.vstack([d, np.sqrt(ridge) * np.eye(d.shape[1])]))
                tol = 10 * np.finfo(float).eps * cond * np.linalg.norm(t[:, w:])
                assert abs(norm_qr - np.linalg.norm(e)) <= tol
                if e_qr is not None:
                    assert np.linalg.norm(e_qr - e) <= tol


class TestLadderRungs:
    def test_ladder_extends_the_schedule_toward_one(self):
        assert trainer._r_ladder((0.9, 0.99)) == (0.9, 0.99) + tuple(1 - 10.0**-k for k in range(5, 10))
        assert trainer._r_ladder((0.5, 1 - 1e-7)) == (0.5, 1 - 1e-7, 1 - 1e-8, 1 - 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_outputs=st.integers(1, 3),
        n_cand=st.integers(1, 6),
        n_nodes=st.integers(1, 100),
        schedule=st.sampled_from([(0.9, 0.99, 0.999, 0.9999), (0.5,), (0.3, 0.999999)]),
        zero_rows=st.sets(st.integers(0, 2)),
        zero_cands=st.sets(st.integers(0, 5)),
    )
    def test_table_matches_evaluate_xi_at_every_rung(self, seed, n_outputs, n_cand, n_nodes,
                                                       schedule, zero_rows, zero_cands):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(n_outputs, 40))
        # candidates from nearly parallel to the residual to nearly orthogonal,
        # so that every rung, and no rung, is reached
        noise = rng.normal(size=(n_cand, 40))
        basis = np.linalg.qr(e.T)[0]
        half = rng.random(n_cand) < 0.5
        noise[half] -= (noise[half] @ basis) @ basis.T
        weights = 10.0 ** rng.uniform(-7, 1, (n_cand, 1))
        cands = weights * e[rng.integers(0, n_outputs, n_cand)] + noise
        for q in zero_rows:
            e[q % n_outputs] = 0.0
        for i in zero_cands:
            cands[i % n_cand] = 0.0
        ladder = trainer._r_ladder(schedule)
        sums, rungs = trainer._xi_table(e, trainer._projections(e, cands), ladder, n_nodes)
        assert sums.shape == (len(ladder), n_cand)
        expected = np.full(n_cand, len(ladder))
        for j, r in reversed(list(enumerate(ladder))):
            xi, xi_q = evaluate_xi(e, cands, r, (1.0 - r) / (n_nodes + 1))
            assert np.array_equal(sums[j], xi)
            expected[xi_q.min(axis=1) >= 0.0] = j
        assert np.array_equal(rungs, expected)
