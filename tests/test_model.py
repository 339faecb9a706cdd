import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frscn import (
    EsnConfig,
    FrscnModel,
    FuzzyRuleBank,
    InputRangeError,
    ModelFormatError,
    NormalizationStats,
    ScConfig,
    SubReservoir,
    fire_strength_matrix,
    fire_strengths,
    generate_plant_sequence,
    load_model,
    predict,
    save_model,
    stacked_features,
    stacked_readout,
    train_fesn,
    train_frscn,
)
from frscn.model import PREDICT_CHUNK, feature_chunks, segment_plan, train_model
from support import chunked_predict, is_monotone, readout


def identity_stats(k, l_dims):
    return NormalizationStats(
        input_min=np.zeros(k), input_max=np.zeros(k),
        target_min=np.zeros(l_dims), target_max=np.zeros(l_dims),
        enabled=False,
    )


def random_model(rng, q=3, k=2, l_dims=1, n=4):
    reservoirs = []
    for _ in range(q):
        w_r = np.tril(rng.uniform(-0.4, 0.4, (n, n)))
        reservoirs.append(SubReservoir(
            w_in=rng.uniform(-1, 1, (n, k)),
            w_r=w_r,
            b=rng.uniform(-0.5, 0.5, n),
            w_out=rng.normal(size=(l_dims, n + k)),
        ))
    bank = FuzzyRuleBank(centers=rng.normal(size=(q, k)), widths=rng.uniform(0.5, 2, (q, k)))
    return FrscnModel(rule_bank=bank, sub_reservoirs=tuple(reservoirs),
                      normalization=identity_stats(k, l_dims))


@pytest.fixture(scope="module")
def plant_train():
    return generate_plant_sequence(600, "train-random", seed=1, washout=60)


class TestPredict:
    def test_zero_readout_zero_prediction(self):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        zeroed = []
        from dataclasses import replace
        for res in model.sub_reservoirs:
            zeroed.append(replace(res, w_out=np.zeros_like(res.w_out)))
        model = replace(model, sub_reservoirs=tuple(zeroed))
        out = predict(model, rng.normal(size=(2, 20)))
        assert np.all(out == 0.0)

    def test_weighted_sum_equals_stacked_form(self):
        # per-rule weighted sum vs Theta G(n), quantified over random models
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = int(rng.integers(1, 5))
            model = random_model(rng, q=q)
            inputs = rng.uniform(-2, 2, (2, 30))
            out = predict(model, inputs)
            theta = stacked_readout(model)
            session = model.session()
            for t in range(30):
                phi, blocks = session.features(inputs[:, t])
                g_n = stacked_features(phi, blocks)
                assert np.abs(theta @ g_n - out[:, t]).max() < 1e-12

    def test_single_rule_blend_is_identity(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, q=1)
        inputs = rng.normal(size=(2, 25))
        res = model.sub_reservoirs[0]
        expect = readout(res, res.rollout(inputs), inputs)
        assert np.array_equal(predict(model, inputs), expect)
        assert fire_strengths(model.rule_bank, inputs[:, 0]).tolist() == [1.0]

    def test_dimension_mismatch(self):
        model = random_model(np.random.default_rng(3))
        with pytest.raises(ValueError):
            predict(model, np.zeros((5, 10)))

    def test_session_rejects_wrong_input_length(self, plant_train):
        # normalization is on, so a short input would broadcast over both dims
        model = train_fesn(plant_train, q=2, esn_cfg=EsnConfig(n_nodes=5))
        session = model.session()
        for u in (np.array([0.5]), np.array([0.5, 0.5, 0.5])):
            with pytest.raises(ValueError, match="expected 2 input dims"):
                session.step(u)
            with pytest.raises(ValueError, match="expected 2 input dims"):
                session.features(u)

    def test_session_matches_batch_predict(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, q=2)
        inputs = rng.normal(size=(2, 15))
        batch = predict(model, inputs)
        session = model.session()
        step = np.column_stack([session.step(inputs[:, t]) for t in range(15)])
        assert np.abs(batch - step).max() < 1e-12

    def test_sessions_reset_state(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, q=2)
        inputs = rng.normal(size=(2, 10))
        a = predict(model, inputs)
        b = predict(model, inputs)
        assert np.array_equal(a, b)


def ragged_model(rng, sizes, activation="tanh", k=2, l_dims=2):
    """Rules of unequal sizes behind a live (enabled) normalization."""
    reservoirs = tuple(
        SubReservoir(
            w_in=rng.uniform(-1, 1, (n, k)),
            w_r=np.tril(rng.uniform(-0.4, 0.4, (n, n))),
            b=rng.uniform(-0.5, 0.5, n),
            w_out=rng.normal(size=(l_dims, n + k)),
            activation=activation,
        )
        for n in sizes
    )
    q = len(sizes)
    bank = FuzzyRuleBank(centers=rng.uniform(-1, 1, (q, k)), widths=rng.uniform(0.5, 2, (q, k)))
    stats = NormalizationStats(
        input_min=np.full(k, -3.0), input_max=np.full(k, 2.0),
        target_min=np.full(l_dims, -1.5), target_max=np.full(l_dims, 4.0), enabled=True,
    )
    return FrscnModel(rule_bank=bank, sub_reservoirs=reservoirs, normalization=stats)


def per_rule_predict(model, inputs):
    """Reference: one SubReservoir.rollout per rule over the whole sequence."""
    u = model.normalization.apply_inputs(inputs)
    phi = fire_strength_matrix(model.rule_bank, u)
    y = sum(p[None, :] * readout(res, res.rollout(u), u)
            for p, res in zip(phi, model.sub_reservoirs))
    return model.normalization.invert_targets(y)


class TestRuleStackedServing:
    @pytest.mark.parametrize("sizes, activation", [
        ((5, 5, 5), "tanh"),
        ((3, 7, 4), "tanh"),
        ((3, 7, 4), "sigmoid"),  # g(0) != 0: padded nodes hold nonzero states
    ])
    def test_chunked_predict_matches_per_rule_rollouts(self, sizes, activation):
        rng = np.random.default_rng(11)
        model = ragged_model(rng, sizes, activation)
        inputs = rng.uniform(-3, 2, (2, 2 * PREDICT_CHUNK + PREDICT_CHUNK // 2 + 7))
        ref = per_rule_predict(model, inputs)
        assert np.abs(predict(model, inputs) - ref).max() < 1e-12

    def test_session_matches_predict_across_a_chunk_boundary(self):
        rng = np.random.default_rng(12)
        model = ragged_model(rng, (3, 7, 4), "sigmoid")
        inputs = rng.uniform(-3, 2, (2, PREDICT_CHUNK + 5))
        session = model.session()
        steps = np.column_stack([session.step(inputs[:, t]) for t in range(inputs.shape[1])])
        assert np.abs(steps - predict(model, inputs)).max() < 1e-12

    def test_mixed_activations_rejected(self):
        rng = np.random.default_rng(13)
        tanh_model = ragged_model(rng, (3, 4), "tanh")
        sigmoid_model = ragged_model(rng, (3, 4), "sigmoid")
        with pytest.raises(ValueError, match="activation"):
            FrscnModel(
                rule_bank=tanh_model.rule_bank,
                sub_reservoirs=(tanh_model.sub_reservoirs[0], sigmoid_model.sub_reservoirs[1]),
                normalization=tanh_model.normalization,
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [1e308, -1e308, np.inf, np.nan])
    def test_predict_names_the_first_sample_out_of_range(self, bad):
        rng = np.random.default_rng(15)
        model = ragged_model(rng, (3, 7, 4))
        inputs = rng.uniform(-3, 2, (2, PREDICT_CHUNK + 40))
        inputs[1, PREDICT_CHUNK + 2] = bad
        inputs[0, PREDICT_CHUNK + 30] = bad
        with pytest.raises(InputRangeError, match=f"input sample {PREDICT_CHUNK + 3} "):
            predict(model, inputs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [1e308, -1e308, np.inf, np.nan])
    def test_session_rejects_an_input_out_of_range_and_keeps_its_state(self, bad):
        rng = np.random.default_rng(16)
        model = ragged_model(rng, (3, 7, 4))
        inputs = rng.uniform(-3, 2, (2, 6))
        hit, clean = model.session(), model.session()
        for n in range(3):
            hit.step(inputs[:, n])
            clean.step(inputs[:, n])
        for advance in (hit.step, hit.features):
            with pytest.raises(InputRangeError, match="not finite after normalization"):
                advance(np.array([0.1, bad]))
        for n in range(3, 6):
            assert np.array_equal(hit.step(inputs[:, n]), clean.step(inputs[:, n]))

    @pytest.mark.filterwarnings("error")
    def test_sigmoid_overflow_is_silent(self):
        # without normalization a far input drives exp(-x) past overflow; the
        # state it gives, 0, is the right limit and no warning is printed
        rng = np.random.default_rng(17)
        model = ragged_model(rng, (3, 7, 4), "sigmoid")
        model = replace(model, normalization=replace(model.normalization, enabled=False))
        inputs = rng.uniform(-3, 2, (2, 8))
        inputs[:, 3] = [-1e200, 1e200]
        batch = predict(model, inputs)
        session = model.session()
        steps = np.column_stack([session.step(inputs[:, n]) for n in range(inputs.shape[1])])
        assert np.isfinite(batch).all()
        assert np.abs(steps - batch).max() <= 1e-12 * 1e200

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        activation=st.sampled_from(["tanh", "sigmoid"]),
        k=st.integers(1, 3),
        l_dims=st.integers(1, 2),
        normalize=st.booleans(),
        constant=st.booleans(),
        n_steps=st.integers(PREDICT_CHUNK - 3, PREDICT_CHUNK + 30),
        far=st.lists(st.tuples(st.integers(0, PREDICT_CHUNK + 30), st.floats(-1e200, 1e200)),
                     max_size=3),
    )
    def test_session_is_the_batch_path(self, seed, sizes, activation, k, l_dims, normalize,
                                       constant, n_steps, far):
        rng = np.random.default_rng(seed)
        model = ragged_model(rng, sizes, activation, k=k, l_dims=l_dims)
        lo_in, lo_t = rng.uniform(-3, 0, k), rng.uniform(-3, 0, l_dims)
        hi_in, hi_t = lo_in + rng.uniform(0.5, 5, k), lo_t + rng.uniform(0.5, 5, l_dims)
        if constant:
            hi_in[0], hi_t[-1] = lo_in[0], lo_t[-1]
        model = replace(model, normalization=NormalizationStats(
            lo_in, hi_in, lo_t, hi_t, enabled=normalize))
        inputs = rng.uniform(-4, 3, (k, n_steps))
        if not normalize:
            # far inputs, up to 1e200, are in range only without normalization
            for n, value in far:
                inputs[n % k, n % n_steps] = value

        batch = predict(model, inputs)
        chunks = list(feature_chunks(model, inputs))
        session, features = model.session(), model.session()
        steps = np.column_stack([session.step(inputs[:, n]) for n in range(n_steps)])
        feats = [features.features(inputs[:, n]) for n in range(n_steps)]
        # outputs and blocks are linear in u(n): compare at the scale of the input
        scale = 1.0 + np.abs(inputs).max(axis=0)
        assert np.isfinite(steps).all() and np.isfinite(batch).all()
        assert np.all(np.abs(steps - batch) <= 1e-12 * scale)
        for chunk, phi, blocks in chunks:
            for j, n in enumerate(range(chunk.start, chunk.start + phi.shape[1])):
                phi_n, blocks_n = feats[n]
                assert np.all(np.abs(phi_n - phi[:, j]) <= 1e-12)
                for got, want in zip(blocks_n, blocks):
                    assert np.all(np.abs(got - want[:, j]) <= 1e-12 * scale[n])

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        activation=st.sampled_from(["tanh", "sigmoid"]),
        k=st.integers(1, 3),
        # (step, normalized input as a multiple of the bank's unguarded limit):
        # well below it, just below, at, just above and far beyond it
        reach=st.lists(st.tuples(st.integers(0, 59),
                                 st.sampled_from([0.5, 1 - 1e-9, 1.0, 1 + 1e-9, -1 - 1e-9, 1e6])),
                       max_size=4),
        # (step, raw input tried before that step's own, which must be refused)
        bad=st.lists(st.tuples(st.integers(0, 59), st.sampled_from([np.inf, -np.inf, np.nan, 1e308])),
                     max_size=3),
    )
    def test_session_steps_on_both_sides_of_the_unguarded_limit(self, seed, sizes, activation, k,
                                                                reach, bad):
        rng = np.random.default_rng(seed)
        model = ragged_model(rng, sizes, activation, k=k)
        n_steps = 60
        u = rng.uniform(-1, 1, (k, n_steps))
        for n, share in reach:
            u[n % k, n] = share * model.rule_bank.unguarded_limit
        inputs = model.normalization.input_map.backward(u)
        batch = predict(model, inputs)
        [(_, phi_batch, blocks_batch)] = feature_chunks(model, inputs)
        stepper, featurer = model.session(), model.session()
        refused = dict(bad)
        for n in range(n_steps):
            if n in refused:
                value = inputs[:, n].copy()
                value[-1] = refused[n]
                before = stepper._design.copy()
                for advance in (stepper.step, featurer.features):
                    with pytest.raises(InputRangeError, match="not finite after normalization"):
                        advance(value)
                assert np.array_equal(stepper._design, before)
            y = stepper.step(inputs[:, n])
            phi, blocks = featurer.features(inputs[:, n])
            # step and features advance one state: bit for bit, after every step
            assert np.array_equal(stepper._design, featurer._design)
            # outputs and blocks are linear in u(n): compare at the scale of the input
            scale = 1.0 + np.abs(inputs[:, n]).max()
            assert np.all(np.abs(y - batch[:, n]) <= 1e-12 * scale)
            assert np.all(np.abs(phi - phi_batch[:, n]) <= 1e-12)
            for got, want in zip(blocks, blocks_batch):
                assert np.all(np.abs(got - want[:, n]) <= 1e-12 * scale)

    def test_stacked_weights_are_read_only(self):
        model = ragged_model(np.random.default_rng(14), (2, 3))
        for arr in (model.w_in, model.w_r, model.b, model.w_out):
            with pytest.raises(ValueError):
                arr[...] = 0.0


def contracting_model(rng, sizes, activation, smax):
    """ragged_model with every feedback matrix scaled to sigma_max = smax."""
    model = ragged_model(rng, sizes, activation)
    return replace(model, sub_reservoirs=tuple(
        replace(res, w_r=res.w_r * (smax / np.linalg.norm(res.w_r, 2)))
        for res in model.sub_reservoirs))


def session_steps(model, inputs):
    session = model.session()
    return np.column_stack([session.step(inputs[:, n]) for n in range(inputs.shape[1])])


class TestSegmentedPredict:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        activation=st.sampled_from(["tanh", "sigmoid"]),
        smax=st.floats(0.05, 0.6),
        extra=st.integers(0, 3 * PREDICT_CHUNK),
    )
    def test_segments_agree_with_session_steps(self, seed, sizes, activation, smax, extra):
        rng = np.random.default_rng(seed)
        model = contracting_model(rng, sizes, activation, smax)
        warmup, _ = segment_plan(model, 10**6)
        n_steps = 2 * max(4 * warmup, PREDICT_CHUNK) + extra
        assert segment_plan(model, n_steps)[1] >= 2
        inputs = rng.uniform(-4, 3, (2, n_steps))
        scale = 1.0 + np.abs(inputs).max(axis=0)
        assert np.all(np.abs(predict(model, inputs) - session_steps(model, inputs))
                      <= 1e-12 * scale)

    @pytest.mark.parametrize("activation, w_r", [
        ("tanh", [[0.5, 0.0], [1.2, 0.5]]),  # spectral radius 0.5, sigma_max 1.2
        ("sigmoid", [[0.9, 0.0], [4.0, -0.2]]),  # sigma_max / 4 > 1
    ])
    def test_rate_at_or_above_one_takes_one_segment(self, activation, w_r):
        rng = np.random.default_rng(21)
        model = ragged_model(rng, (2, 2), activation)
        model = replace(model, sub_reservoirs=(
            model.sub_reservoirs[0], replace(model.sub_reservoirs[1], w_r=np.array(w_r))))
        assert segment_plan(model, 10**6) == (0, 1)
        inputs = rng.uniform(-3, 2, (2, 2 * PREDICT_CHUNK + 11))
        assert np.array_equal(predict(model, inputs), chunked_predict(model, inputs))

    @pytest.mark.parametrize("sizes, activation, smax, n_steps", [
        ((5, 5, 5), "tanh", 0.9, 2 * PREDICT_CHUNK + PREDICT_CHUNK // 2 + 7),
        ((3, 7, 4), "tanh", 0.5, 1),
        ((3, 7, 4), "tanh", 0.5, PREDICT_CHUNK),
        ((3, 7, 4), "tanh", 0.05, 2 * PREDICT_CHUNK - 1),  # 4k < one chunk
        ((3, 7, 4), "sigmoid", 3.9, 3 * PREDICT_CHUNK - 1),  # rate 0.975
        ((1,), "tanh", 0.3, PREDICT_CHUNK + 1),
    ])
    def test_one_segment_is_bitwise_the_serial_rollout(self, sizes, activation, smax, n_steps):
        rng = np.random.default_rng(22)
        model = contracting_model(rng, sizes, activation, smax)
        warmup, _ = segment_plan(model, 10**6)
        n_steps = min(n_steps, 2 * max(4 * warmup, PREDICT_CHUNK) - 1)
        assert segment_plan(model, n_steps) == (0, 1)
        inputs = rng.uniform(-3, 2, (2, n_steps))
        assert np.array_equal(predict(model, inputs), chunked_predict(model, inputs))

    def test_input_error_in_a_warmup_window_names_the_first_bad_sample(self):
        rng = np.random.default_rng(23)
        model = contracting_model(rng, (3, 7, 4), "tanh", 0.5)
        n_steps = 4 * PREDICT_CHUNK
        warmup, segments = segment_plan(model, n_steps)
        assert segments >= 2
        # the second segment starts warming up at length - warmup, and the
        # sample there is the first segment's until the warm-up ends
        length = -(-(n_steps + (segments - 1) * warmup) // segments)
        first_bad = length - warmup + warmup // 2
        inputs = rng.uniform(-3, 2, (2, n_steps))
        inputs[0, first_bad] = np.nan
        inputs[1, n_steps - 5] = np.inf
        with pytest.raises(InputRangeError, match=f"input sample {first_bad + 1} "):
            predict(model, inputs)

    def test_a_benchmark_shaped_model_agrees_with_the_session_at_every_step(self):
        train = generate_plant_sequence(2000, "train-random", seed=3)
        model = train_fesn(train, q=5, esn_cfg=EsnConfig(n_nodes=50), seed=3)
        test = generate_plant_sequence(20000, "train-random", seed=4)
        assert segment_plan(model, test.n_samples)[1] >= 2
        assert np.abs(predict(model, test.inputs) - session_steps(model, test.inputs)).max() <= 1e-12


class TestTrainFrscn:
    def test_sanity_on_plant(self, plant_train):
        model, reports = train_frscn(plant_train, q=2, sc_cfg=ScConfig(n_max=15), seed=0)
        from frscn import nrmse
        val = nrmse(predict(model, plant_train.inputs), plant_train.targets, plant_train.washout)
        assert np.isfinite(val) and val < 1.0
        assert all(is_monotone(rep) for rep in reports)
        assert model.n_rules == 2

    def test_deterministic(self, plant_train):
        kw = dict(q=2, sc_cfg=ScConfig(n_max=10), seed=42)
        m1, _ = train_frscn(plant_train, **kw)
        m2, _ = train_frscn(plant_train, **kw)
        assert np.array_equal(predict(m1, plant_train.inputs), predict(m2, plant_train.inputs))

    def test_rule_count_must_be_positive(self, plant_train):
        with pytest.raises(ValueError):
            train_frscn(plant_train, q=0)

    def test_washout_targets_never_enter_any_fit(self, plant_train):
        # corrupting target values inside the washout changes nothing: not
        # the normalization, not the clustering, not a single readout
        from dataclasses import replace
        corrupted = plant_train.targets.copy()
        corrupted[:, : plant_train.washout] = 123.456
        twin = replace(plant_train, targets=corrupted)
        kw = dict(q=2, sc_cfg=ScConfig(n_max=10), seed=3)
        m1, _ = train_frscn(plant_train, **kw)
        m2, _ = train_frscn(twin, **kw)
        assert np.array_equal(predict(m1, plant_train.inputs), predict(m2, plant_train.inputs))


class TestEsnConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_nodes": 0}, "n_nodes must be >= 1"),
            ({"sparsity_range": (0.0, 0.05)}, "sparsity_range must satisfy"),
            ({"sparsity_range": (0.05, 0.01)}, "sparsity_range must satisfy"),
            ({"alpha": 1.0}, r"alpha must be in \(0, 1\)"),
            ({"ridge": -1.0}, "ridge must be >= 0"),
            ({"activation": "relu"}, "unknown activation 'relu'"),
            ({"weight_scale": 0.0}, "weight_scale must be positive"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EsnConfig(**kwargs)


class TestTrainFesn:
    def test_deterministic(self, plant_train):
        m1 = train_fesn(plant_train, q=2, esn_cfg=EsnConfig(n_nodes=20), seed=3)
        m2 = train_fesn(plant_train, q=2, esn_cfg=EsnConfig(n_nodes=20), seed=3)
        assert np.array_equal(predict(m1, plant_train.inputs), predict(m2, plant_train.inputs))

    def test_structure(self, plant_train):
        model = train_fesn(plant_train, q=3, esn_cfg=EsnConfig(n_nodes=12), seed=0)
        assert model.n_rules == 3
        for res in model.sub_reservoirs:
            assert res.n_nodes == 12
            assert np.all(np.triu(res.w_r, 1) == 0.0)
            assert np.linalg.svd(res.w_r, compute_uv=False)[0] < 1.0

    def test_q1_is_plain_esn(self, plant_train):
        model = train_fesn(plant_train, q=1, esn_cfg=EsnConfig(n_nodes=10), seed=0)
        inputs = plant_train.inputs[:, :50]
        res = model.sub_reservoirs[0]
        ds_norm = model.normalization.apply_inputs(inputs)
        expect = model.normalization.invert_targets(
            readout(res, res.rollout(ds_norm), ds_norm)
        )
        assert np.abs(predict(model, inputs) - expect).max() < 1e-12

    def test_kind_dispatch(self, plant_train):
        cfg = EsnConfig(n_nodes=10)
        model, reports = train_model(plant_train, "esn", q=3, esn_cfg=cfg, seed=0)
        assert model.n_rules == 1 and reports == []
        same = train_fesn(plant_train, q=1, esn_cfg=cfg, seed=0)
        assert stacked_readout(model).tolist() == stacked_readout(same).tolist()
        with pytest.raises(ValueError, match="unknown model kind"):
            train_model(plant_train, "lstm")


class TestModelValidation:
    def test_rule_count_mismatch(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, q=2)
        with pytest.raises(ValueError):
            FrscnModel(
                rule_bank=FuzzyRuleBank(centers=np.zeros((3, 2)), widths=np.ones((3, 2))),
                sub_reservoirs=model.sub_reservoirs,
                normalization=model.normalization,
            )

    def test_missing_readout_rejected(self):
        rng = np.random.default_rng(7)
        res = SubReservoir(w_in=rng.normal(size=(2, 1)), w_r=np.zeros((2, 2)), b=np.zeros(2))
        with pytest.raises(ValueError):
            FrscnModel(
                rule_bank=FuzzyRuleBank(centers=np.zeros((1, 1)), widths=np.ones((1, 1))),
                sub_reservoirs=(res,),
                normalization=identity_stats(1, 1),
            )


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        model = random_model(rng, q=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        for a, b in zip(model.sub_reservoirs, clone.sub_reservoirs):
            assert a.w_in.tobytes() == b.w_in.tobytes()
            assert a.w_r.tobytes() == b.w_r.tobytes()
            assert a.b.tobytes() == b.b.tobytes()
            assert a.w_out.tobytes() == b.w_out.tobytes()
        assert model.rule_bank.centers.tobytes() == clone.rule_bank.centers.tobytes()
        inputs = rng.normal(size=(2, 40))
        assert np.array_equal(predict(model, inputs), predict(clone, inputs))

    def test_file_bytes_are_stable(self, tmp_path):
        # the frscn-1 text, byte for byte: shortest round-trip floats, ", " and ": "
        res = SubReservoir(w_in=np.array([[0.1, -1 / 3]]), w_r=np.array([[2.5e-300]]),
                           b=np.array([-0.0]), w_out=np.array([[1e16, 0.7, -1.25]]))
        model = FrscnModel(
            rule_bank=FuzzyRuleBank(centers=np.array([[0.2, -0.4]]),
                                    widths=np.array([[1.5, 0.3]])),
            sub_reservoirs=(res,),
            normalization=NormalizationStats(
                input_min=np.array([-1.0, 0.0]), input_max=np.array([1.0, 2.0]),
                target_min=np.array([-3.0]), target_max=np.array([3.0]), enabled=True),
            metadata={"kind": "frscn", "q": 1},
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes() == (
            b'{"version": "frscn-1", "metadata": {"kind": "frscn", "q": 1}, "normalization": '
            b'{"enabled": true, "input_min": [-1.0, 0.0], "input_max": [1.0, 2.0], '
            b'"target_min": [-3.0], "target_max": [3.0]}, "rule_bank": {"centers": '
            b'[[0.2, -0.4]], "widths": [[1.5, 0.3]]}, "sub_reservoirs": [{"w_in": '
            b'[[0.1, -0.3333333333333333]], "w_r": [[2.5e-300]], "b": [-0.0], "w_out": '
            b'[[1e+16, 0.7, -1.25]], "activation": "tanh", "alpha": 0.9}]}'
        )

    def test_trained_model_round_trip(self, tmp_path, plant_train):
        model, _ = train_frscn(plant_train, q=2, sc_cfg=ScConfig(n_max=8), seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert np.array_equal(
            predict(model, plant_train.inputs), predict(clone, plant_train.inputs)
        )

    def test_file_with_per_config_seeds_loads_and_predicts_alike(self, tmp_path, plant_train):
        # files written while ScConfig and FcmConfig had a seed field carry it
        # in the free-form metadata; the master seed is the only seed now
        model, _ = train_frscn(plant_train, q=2, sc_cfg=ScConfig(n_max=8), seed=1)
        assert "seed" not in model.metadata["sc_cfg"]
        assert "seed" not in model.metadata["fcm_cfg"]
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["metadata"]["sc_cfg"]["seed"] = doc["metadata"]["fcm_cfg"]["seed"] = 1
        path.write_text(json.dumps(doc))
        old = load_model(path)
        assert old.metadata["sc_cfg"]["seed"] == 1
        assert np.array_equal(
            predict(old, plant_train.inputs), predict(model, plant_train.inputs)
        )

    def test_unknown_version_names_both(self, tmp_path):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = "frscn-99"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="frscn-1.*frscn-99"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(10)
        model = random_model(rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{}")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def saved_and_edited(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(random_model(np.random.default_rng(15), q=2), path)
        doc = json.loads(path.read_text())
        edit(doc["sub_reservoirs"])
        path.write_text(json.dumps(doc))
        return path

    def test_non_finite_readout_rejected_on_load(self, tmp_path):
        # json writes and reads NaN without complaint
        def edit(reservoirs):
            reservoirs[0]["w_out"][0][0] = float("nan")
        with pytest.raises(ModelFormatError, match="non-finite readout"):
            load_model(self.saved_and_edited(tmp_path, edit))

    def test_mixed_activations_rejected_on_load(self, tmp_path):
        def edit(reservoirs):
            reservoirs[1]["activation"] = "sigmoid"
        with pytest.raises(ModelFormatError, match="activation"):
            load_model(self.saved_and_edited(tmp_path, edit))
