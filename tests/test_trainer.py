import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frscn import (
    ScConfig,
    TimeSeriesDataset,
    TrainReport,
    evaluate_xi,
    fit_readout,
    generate_plant_sequence,
    train_sub_reservoir,
)
from frscn import trainer


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
        e = plant_train.targets[:, w:] - res.readout(states, plant_train.inputs)[:, w:]
        assert np.linalg.norm(e) == pytest.approx(rep.residual_trace[-1], rel=1e-9)

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
        clone = TrainReport.from_dict(rep.to_dict())
        assert clone.residual_trace == rep.residual_trace
        assert clone.stop_reason == rep.stop_reason
        assert clone.n_nodes == rep.n_nodes

    def test_report_without_counters_still_loads(self, plant_train):
        _, rep = train_sub_reservoir(plant_train, ScConfig(n_max=8), seed=2)
        d = rep.to_dict()
        assert TrainReport.from_dict(d).counters == rep.counters
        del d["counters"]  # reports written before the counters existed
        assert TrainReport.from_dict(d).counters == {}


class TestBatchedScreening:
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_pools_rolled_out_together_match_each_alone(self, plant_train, activation):
        # g_max = 7 puts each pool at a different offset within a SIMD vector
        cfg = ScConfig(n_max=8, g_max=7, activation=activation)
        res, _ = train_sub_reservoir(plant_train, cfg, seed=4)
        u = plant_train.inputs
        states = res.rollout(u)
        rng = np.random.default_rng(0)
        pools = [trainer._draw_pool(rng, cfg, lam, res.n_nodes, u.shape[0], 0.3) for lam in (0.1, 5.0, 100.0)]
        scratch = np.empty((cfg.g_max, u.shape[1]))
        together = trainer._candidate_states(res, pools, u, states, np.empty((u.shape[1], 3 * cfg.g_max)), scratch)
        assert len(together) == 3
        for pool, batched in zip(pools, together):
            alone = trainer._candidate_states(res, [pool], u, states, np.empty((u.shape[1], cfg.g_max)), scratch)
            assert batched.shape == (cfg.g_max, u.shape[1])
            assert np.array_equal(batched, alone[0])

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

        def grow():
            accepted = []
            res, rep = train_sub_reservoir(plant_train, cfg, seed=seed,
                                           accept_hook=lambda e, g, r, mu: accepted.append((r, mu)))
            return res, rep, accepted

        together = trainer._candidate_states

        def one_at_a_time(res, pools, inputs, state_cache, work, scratch):
            # each pool in its own loop and workspace, as if screened alone
            return [together(res, [pool], inputs, state_cache, np.empty((inputs.shape[1], cfg.g_max)), scratch)[0]
                    for pool in pools]

        res_b, rep_b, hook_b = grow()
        monkeypatch.setattr(trainer, "_candidate_states", one_at_a_time)
        res_s, rep_s, hook_s = grow()

        assert rep_s.stop_reason == stop_reason
        for field in ("w_in", "w_r", "b", "w_out"):
            assert np.array_equal(getattr(res_b, field), getattr(res_s, field))
        assert hook_b == hook_s
        assert rep_b.to_dict() == rep_s.to_dict()

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
        assert rep.counters == {"pools_screened": trainer._POOLS_PER_SCALE * scales}


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
    def test_closed_form_rung_is_the_smallest_passing_r(self, seed, n_outputs, n_cand, n_nodes,
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
        rungs = trainer._ladder_rungs(e, trainer._projections(e, cands), ladder, n_nodes)
        expected = np.full(n_cand, len(ladder))
        for j, r in reversed(list(enumerate(ladder))):
            _, xi_q = evaluate_xi(e, cands, r, (1.0 - r) / (n_nodes + 1))
            expected[xi_q.min(axis=1) >= 0.0] = j
        assert np.array_equal(rungs, expected)
