import numpy as np
import pytest

from frscn import (
    OnlineState,
    ScConfig,
    contraction_diagnostic,
    generate_plant_sequence,
    init_online,
    online_step,
    predict,
    run_online,
    stacked_readout,
    train_frscn,
)
from frscn.model import replace_readout


@pytest.fixture(scope="module")
def small_model():
    train = generate_plant_sequence(400, "train-random", seed=1, washout=40)
    model, _ = train_frscn(train, q=2, sc_cfg=ScConfig(n_max=8), seed=0)
    return train, model


class TestInit:
    def test_unit_c_gives_identity_gain(self, small_model):
        _, model = small_model
        st = init_online(model, a=1.0, c=1.0)
        assert np.array_equal(st.h, np.eye(st.theta.shape[1]))

    def test_theta_blocks_match_readouts(self, small_model):
        _, model = small_model
        st = init_online(model)
        offset = 0
        for res in model.sub_reservoirs:
            width = res.n_nodes + model.n_inputs
            assert np.array_equal(st.theta[:, offset : offset + width], res.w_out)
            offset += width

    def test_zero_steps_leaves_predictions_unchanged(self, small_model):
        train, model = small_model
        st = init_online(model)
        unchanged = replace_readout(model, st.theta)
        assert np.array_equal(predict(unchanged, train.inputs), predict(model, train.inputs))

    def test_parameter_validation(self, small_model):
        _, model = small_model
        for a, c in ((0.0, 1.0), (1.5, 1.0), (1.0, 0.0), (1.0, -1.0)):
            with pytest.raises(ValueError):
                init_online(model, a=a, c=c)


def fresh_state(dim, l_dims, a=1.0, c=1e-2):
    return OnlineState(theta=np.zeros((l_dims, dim)), h=np.eye(dim) / c, a=a, c=c)


class TestOnlineStep:
    def test_zero_innovation_keeps_theta_updates_h(self):
        st = fresh_state(3, 1)
        g = np.array([1.0, 0.5, -0.2])
        t = st.theta @ g  # e_s = 0
        h_before = st.h.copy()
        theta_before = st.theta.copy()
        _, e_s = online_step(st, g, t)
        assert np.array_equal(st.theta, theta_before)
        assert not np.array_equal(st.h, h_before)
        assert e_s == pytest.approx([0.0])

    def test_scalar_first_step_solves_exactly(self):
        # with c -> 0 the first update is the one-sample least squares t/G
        st = fresh_state(1, 1, a=1.0, c=1e-12)
        _, e_s = online_step(st, np.array([2.0]), np.array([6.0]))
        assert st.theta[0, 0] == pytest.approx(3.0, rel=1e-9)
        assert e_s[0] == pytest.approx(6.0)

    def test_inverse_growth_identity(self):
        rng = np.random.default_rng(0)
        dim, l_dims, c = 5, 2, 1e-2
        st = fresh_state(dim, l_dims, c=c)
        acc = c * np.eye(dim)
        for _ in range(40):
            g = rng.normal(size=dim)
            t = rng.normal(size=l_dims)
            online_step(st, g, t)
            acc += np.outer(g, g)
        assert np.abs(np.linalg.inv(st.h) - acc).max() < 1e-8

    def test_gain_matrix_stays_spd(self):
        rng = np.random.default_rng(1)
        st = fresh_state(4, 1)
        for _ in range(100):
            online_step(st, rng.normal(size=4), rng.normal(size=1))
        st.assert_spd()

    def test_non_finite_rejected_state_unchanged(self):
        st = fresh_state(2, 1)
        theta = st.theta.copy()
        h = st.h.copy()
        _, e_s = online_step(st, np.array([np.nan, 1.0]), np.array([1.0]))
        assert e_s is None
        assert np.array_equal(st.theta, theta)
        assert np.array_equal(st.h, h)

    def test_dimension_validation(self):
        st = fresh_state(3, 1)
        with pytest.raises(ValueError):
            online_step(st, np.ones(2), np.ones(1))
        with pytest.raises(ValueError):
            online_step(st, np.ones(3), np.ones(2))

    def test_planted_system_converges_monotonically(self):
        # random coordinate excitation keeps the gain updates commuting, the
        # regime where the per-step contraction claim is exact
        rng = np.random.default_rng(2)
        dim, l_dims = 6, 2
        theta_star = rng.normal(size=(l_dims, dim))
        st = fresh_state(dim, l_dims, a=1.0, c=1e-2)
        dev = np.linalg.norm(st.theta - theta_star)
        for n in range(500):
            g = np.zeros(dim)
            g[rng.integers(dim)] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            online_step(st, g, theta_star @ g)
            new_dev = np.linalg.norm(st.theta - theta_star)
            assert new_dev <= dev + 1e-10
            dev = new_dev
        assert dev < 1e-3

    def test_planted_dense_excitation_converges(self):
        # dense gaussian excitation: non-commuting gains allow transient
        # upticks of order 1e-7, so the per-step check uses a realistic slack
        rng = np.random.default_rng(2)
        dim, l_dims = 6, 2
        theta_star = rng.normal(size=(l_dims, dim))
        st = fresh_state(dim, l_dims, a=1.0, c=1e-2)
        dev = np.linalg.norm(st.theta - theta_star)
        for n in range(500):
            g = rng.normal(size=dim)
            online_step(st, g, theta_star @ g)
            new_dev = np.linalg.norm(st.theta - theta_star)
            assert new_dev <= dev * (1 + 1e-6) + 1e-6
            dev = new_dev
        assert dev < 1e-3

    def test_scale_coherence(self):
        # scaling G by s and c by s^2 leaves the prediction sequence unchanged
        rng = np.random.default_rng(3)
        dim, s = 4, 7.5
        gs = rng.normal(size=(50, dim))
        ts = rng.normal(size=(50, 1))
        st_a = fresh_state(dim, 1, c=1e-2)
        st_b = fresh_state(dim, 1, c=1e-2 * s**2)
        preds_a, preds_b = [], []
        for g, t in zip(gs, ts):
            online_step(st_a, g, t)
            preds_a.append((st_a.theta @ g)[0])
            online_step(st_b, s * g, t)
            preds_b.append((st_b.theta @ (s * g))[0])
        assert np.abs(np.array(preds_a) - np.array(preds_b)).max() < 1e-8


class TestRunOnline:
    def test_stable_on_training_data(self, small_model):
        train, model = small_model
        st = init_online(model, a=1.0, c=1e-2)
        updated, trace = run_online(model, st, train)
        assert trace.shape[1] == train.n_samples - train.washout
        assert np.isfinite(trace).all()
        # offline residual scale in the normalized training space
        norm = model.normalization
        resid = norm.apply_targets(train.targets) - norm.apply_targets(predict(model, train.inputs))
        offline_rms = np.sqrt((resid[:, train.washout :] ** 2).mean())
        online_rms = np.sqrt((trace**2).mean())
        assert online_rms < 10 * max(offline_rms, 1e-6)

    def test_adapts_toward_target_model(self, small_model):
        # targets generated by the model itself: adapting a perturbed copy
        # drives the error trace down
        train, model = small_model
        from dataclasses import replace
        pred = predict(model, train.inputs)
        ds = replace(train, targets=pred)
        rng = np.random.default_rng(4)
        perturbed = replace(
            model,
            sub_reservoirs=tuple(
                replace(res, w_out=res.w_out + 0.5 * rng.normal(size=res.w_out.shape))
                for res in model.sub_reservoirs
            ),
        )
        st = init_online(perturbed, a=1.0, c=1e-2)
        updated, trace = run_online(perturbed, st, ds)
        head = np.sqrt((trace[:, :40] ** 2).mean())
        tail = np.sqrt((trace[:, -40:] ** 2).mean())
        assert tail < 0.1 * head

    def test_writes_back_theta_blocks(self, small_model):
        train, model = small_model
        st = init_online(model)
        updated, _ = run_online(model, st, train)
        assert np.array_equal(stacked_readout(updated), st.theta)

    def test_dimension_mismatch(self, small_model):
        train, model = small_model
        st = init_online(model)
        from dataclasses import replace
        bad = replace(train, inputs=np.vstack([train.inputs, train.inputs[0]]))
        with pytest.raises(ValueError):
            run_online(model, st, bad)


class TestContractionDiagnostic:
    def test_final_reference_gives_zero_tail(self):
        rng = np.random.default_rng(5)
        thetas = [rng.normal(size=(1, 4)) for _ in range(10)]
        devs = contraction_diagnostic(thetas, thetas[-1])
        assert devs[-1] == 0.0

    def test_constant_history_constant_sequence(self):
        theta = np.ones((2, 3))
        devs = contraction_diagnostic([theta] * 5, np.zeros((2, 3)))
        assert np.allclose(devs, devs[0])

    def test_planted_sequence_non_increasing(self):
        rng = np.random.default_rng(6)
        dim = 5
        theta_star = rng.normal(size=(1, dim))
        st = fresh_state(dim, 1)
        history = []
        for _ in range(200):
            g = np.zeros(dim)
            g[rng.integers(dim)] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            online_step(st, g, theta_star @ g)
            history.append(st.theta.copy())
        devs = contraction_diagnostic(history, theta_star)
        assert np.all(np.diff(devs) <= 1e-10)
