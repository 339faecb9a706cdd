import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from frscn import online
from frscn import (
    FrscnModel,
    FuzzyRuleBank,
    NormalizationStats,
    OnlineState,
    PredictionSession,
    ScConfig,
    SubReservoir,
    TimeSeriesDataset,
    contraction_diagnostic,
    generate_plant_sequence,
    init_online,
    online_step,
    predict,
    run_online,
    stacked_features,
    stacked_readout,
    train_frscn,
)
from frscn.model import PREDICT_CHUNK, replace_readout
from frscn.online import _ONLINE_BLOCK


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
        np.linalg.cholesky(st.h)  # H stays positive definite

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


def rank_one_loop(theta, h, a, g_cols, t_cols):
    """Reference: one rank-one update per column, the per-sample form of the
    projection update; returns (theta, h, priors L x b) on copies."""
    theta, h = theta.copy(), h.copy()
    priors = []
    for g, t in zip(g_cols.T, t_cols.T):
        e_s = t - theta @ g
        hg = h @ g
        h -= np.outer(hg, hg) / (1.0 + g @ hg)
        theta += a * np.outer(e_s, h @ g)
        priors.append(e_s)
    return theta, h, np.array(priors).T


def max_rel_diff(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


class TestBlockUpdate:
    # unit-variance features and c in [1e-2, 1]: H shrinks by up to ~1e4 over
    # a block, which costs the block form's single downdate about 4 digits
    @settings(max_examples=200, deadline=None)
    @given(dim=hst.integers(1, 12), l_dims=hst.integers(1, 3), b=hst.integers(1, 70),
           a=hst.floats(0.0, 1.0, exclude_min=True), log_c=hst.floats(-2.0, 0.0),
           warmup=hst.integers(0, 20), seed=hst.integers(0, 2**32 - 1))
    def test_block_matches_rank_one_loop(self, dim, l_dims, b, a, log_c, warmup, seed):
        rng = np.random.default_rng(seed)
        c = 10.0**log_c
        # start from a gain matrix that is not a multiple of I
        theta0, h0, _ = rank_one_loop(rng.normal(size=(l_dims, dim)), np.eye(dim) / c, a,
                                      rng.normal(size=(dim, warmup)),
                                      rng.normal(size=(l_dims, warmup)))
        g = rng.normal(size=(dim, b))
        t = rng.normal(size=(l_dims, b))
        theta_ref, h_ref, priors_ref = rank_one_loop(theta0, h0, a, g, t)

        st = OnlineState(theta=theta0.copy(), h=h0.copy(), a=a, c=c)
        _, priors = online_step(st, g, t)
        assert priors.shape == (l_dims, b)
        assert max_rel_diff(st.theta, theta_ref) <= 1e-9
        assert max_rel_diff(st.h, h_ref) <= 1e-9
        assert max_rel_diff(priors, priors_ref) <= 1e-9

    @settings(max_examples=6, deadline=None)
    @given(dim=hst.integers(1, 6), a=hst.floats(0.0, 1.0, exclude_min=True),
           log_c=hst.floats(-3.0, 1.0), seed=hst.integers(0, 2**32 - 1))
    def test_long_stream_stays_spd_and_finite(self, dim, a, log_c, seed):
        # 1e5 samples of anisotropic features (scales 1 to 1e-2) in blocks of
        # 1 to 128 samples
        rng = np.random.default_rng(seed)
        mix = rng.normal(size=(dim, dim)) * 10.0 ** rng.uniform(-2, 0, size=dim)
        theta_star = rng.normal(size=(2, dim))
        st = OnlineState(theta=np.zeros((2, dim)), h=np.eye(dim) / 10.0**log_c, a=a,
                         c=10.0**log_c)
        n = 0
        while n < 100_000:
            b = int(rng.integers(1, 129))
            g = mix @ rng.normal(size=(dim, b))
            t = theta_star @ g + 0.1 * rng.normal(size=(2, b))
            _, e_s = online_step(st, g, t)
            assert e_s is not None
            n += b
        np.linalg.cholesky(st.h)  # H stays positive definite
        assert np.isfinite(st.theta).all()
        assert np.isfinite(st.h).all()

    def test_rejected_block_leaves_state_unchanged(self):
        st = fresh_state(3, 1, c=1e-300)
        theta = st.theta.copy()
        h = st.h.copy()
        g = np.full((3, 4), 1e200)
        _, e_s = online_step(st, g, np.ones((1, 4)))
        assert e_s is None
        assert np.array_equal(st.theta, theta)
        assert np.array_equal(st.h, h)

    def test_column_count_validation(self):
        st = fresh_state(3, 2)
        with pytest.raises(ValueError):
            online_step(st, np.ones((3, 4)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            online_step(st, np.ones((3, 4)), np.ones(2))


class TestRunOnline:
    def test_stable_on_training_data(self, small_model):
        train, model = small_model
        st = init_online(model, a=1.0, c=1e-2)
        updated, trace, steps = run_online(model, st, train)
        assert trace.shape[1] == train.n_samples - train.washout
        assert np.array_equal(steps, np.arange(1, trace.shape[1] + 1))
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
        updated, trace, _ = run_online(perturbed, st, ds)
        head = np.sqrt((trace[:, :40] ** 2).mean())
        tail = np.sqrt((trace[:, -40:] ** 2).mean())
        assert tail < 0.1 * head

    def test_writes_back_theta_blocks(self, small_model):
        train, model = small_model
        st = init_online(model)
        updated, _, _ = run_online(model, st, train)
        assert np.array_equal(stacked_readout(updated), st.theta)

    def test_chunked_pass_matches_per_sample_reference(self, monkeypatch):
        # rules of unequal sizes, a washout longer than one chunk, 2.5+ chunks
        rng = np.random.default_rng(21)
        k, l_dims = 2, 2
        reservoirs = tuple(
            SubReservoir(w_in=rng.uniform(-1, 1, (n, k)),
                         w_r=np.tril(rng.uniform(-0.4, 0.4, (n, n))),
                         b=rng.uniform(-0.5, 0.5, n), w_out=rng.normal(size=(l_dims, n + k)))
            for n in (3, 7, 4))
        stats = NormalizationStats(
            input_min=np.full(k, -3.0), input_max=np.full(k, 2.0),
            target_min=np.full(l_dims, -1.5), target_max=np.full(l_dims, 4.0), enabled=True)
        bank = FuzzyRuleBank(centers=rng.uniform(-1, 1, (3, k)), widths=rng.uniform(0.5, 2, (3, k)))
        model = FrscnModel(rule_bank=bank, sub_reservoirs=reservoirs, normalization=stats)
        n_samples = 2 * PREDICT_CHUNK + PREDICT_CHUNK // 2 + 7
        ds = TimeSeriesDataset(inputs=rng.uniform(-3, 2, (k, n_samples)),
                               targets=rng.uniform(-1.5, 4, (l_dims, n_samples)),
                               washout=PREDICT_CHUNK + 50)

        # reference: one session step per sample, G and the target one at a time
        ref = init_online(model)
        session = model.session()
        errors = []
        for n in range(n_samples):
            phi, blocks = session.features(ds.inputs[:, n])
            if n < ds.washout:
                continue
            t_n = model.normalization.apply_targets(ds.targets[:, n][:, None])[:, 0]
            _, e_s = online_step(ref, stacked_features(phi, blocks), t_n)
            errors.append(e_s)
        ref_trace = np.array(errors).T

        def no_session_step(*_):
            raise AssertionError("run_online advanced a PredictionSession")

        monkeypatch.setattr(PredictionSession, "_advance", no_session_step)
        st = init_online(model)
        _, trace, _ = run_online(model, st, ds)
        assert trace.shape == ref_trace.shape == (l_dims, n_samples - ds.washout)
        assert np.abs(st.theta - ref.theta).max() <= 1e-9 * np.abs(ref.theta).max()
        assert np.abs(trace - ref_trace).max() <= 1e-9 * np.abs(ref_trace).max()

    def test_rejected_blocks_replay_to_the_same_pass(self, small_model, monkeypatch):
        train, model = small_model
        ref = init_online(model)
        _, ref_trace, _ = run_online(model, ref, train)

        block_step = online.online_step

        def reject_blocks(st, g, t):
            return (st, None) if np.ndim(g) == 2 else block_step(st, g, t)

        monkeypatch.setattr(online, "online_step", reject_blocks)
        st = init_online(model)
        _, trace, _ = run_online(model, st, train)
        assert trace.shape == ref_trace.shape == (1, train.n_samples - train.washout)
        assert max_rel_diff(st.theta, ref.theta) <= 1e-9
        assert max_rel_diff(trace, ref_trace) <= 1e-9

    def test_non_finite_samples_are_skipped_and_counted(self, small_model):
        train, model = small_model
        from dataclasses import replace
        inputs = train.inputs.copy()
        # each overflows the input normalization, so its G(n) is not finite
        inputs[0, [train.washout + 5, train.washout + _ONLINE_BLOCK + 1]] = 1e308
        st = init_online(model)
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace, steps = run_online(model, st, replace(train, inputs=inputs))
        assert st.skipped == 2
        assert trace.shape[1] == train.n_samples - train.washout - 2
        # the skipped samples' numbers are missing from the 1-based post-washout steps
        missing = {6, _ONLINE_BLOCK + 2}
        n_post = train.n_samples - train.washout
        assert steps.tolist() == [n for n in range(1, n_post + 1) if n not in missing]
        assert np.isfinite(trace).all()
        np.linalg.cholesky(st.h)  # H stays positive definite

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
