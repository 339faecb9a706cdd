import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frscn import DegenerateDataError, FcmConfig, FuzzyRuleBank, fire_strengths, fit_fcm
from frscn.fuzzy import (
    WIDTH_ABS_FLOOR,
    WIDTH_RANGE_FLOOR,
    fcm_objective,
    fire_strength_matrix,
    run_fcm,
)


def random_bank(rng, q, k, width_lo=0.1, width_hi=2.0):
    return FuzzyRuleBank(
        centers=rng.normal(size=(q, k)),
        widths=rng.uniform(width_lo, width_hi, (q, k)),
    )


class TestFcm:
    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(3, 200))
        bank = fit_fcm(pts, 1, seed=1)
        assert np.abs(bank.centers[0] - pts.mean(axis=1)).max() < 1e-9

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(5)
        blob_a = rng.normal(0.0, 0.3, size=(2, 150))
        blob_b = rng.normal(0.0, 0.3, size=(2, 150)) + 10.0
        pts = np.hstack([blob_a, blob_b])
        bank = fit_fcm(pts, 2, seed=2)
        # oracle: the blob means themselves
        means = np.array([blob_a.mean(axis=1), blob_b.mean(axis=1)])
        for mean in means:
            assert min(np.linalg.norm(bank.centers[i] - mean) for i in range(2)) < 0.5

    def test_coincident_point_membership_is_one(self):
        # five copies of each of two points: centers converge onto the points
        pts = np.array([[0.0] * 5 + [10.0] * 5])
        centers, mu, _ = run_fcm(pts, 2, FcmConfig(), seed=0)
        at_zero = int(np.argmin(np.abs(centers[:, 0])))
        assert mu[at_zero, 0] == 1.0
        assert mu[1 - at_zero, 0] == 0.0

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(2, 120))
        _, _, trace = run_fcm(pts, 4, FcmConfig(), seed=3)
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9

    def test_q_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            fit_fcm(np.zeros((1, 3)), 4, FcmConfig())

    def test_degenerate_data_rejected(self):
        pts = np.ones((2, 50))
        with pytest.raises(DegenerateDataError):
            fit_fcm(pts, 2, FcmConfig())

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(2, 80))
        a = fit_fcm(pts, 3, seed=4)
        b = fit_fcm(pts, 3, seed=4)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.widths, b.widths)

    def test_widths_positive_with_floor(self):
        # one constant dimension: its width lands on the absolute floor
        rng = np.random.default_rng(2)
        pts = np.vstack([rng.normal(size=80), np.full(80, 3.0)])
        bank = fit_fcm(pts, 2, seed=0)
        assert (bank.widths > 0).all()
        assert np.allclose(bank.widths[:, 1], 1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FcmConfig(m=1.0)
        with pytest.raises(ValueError):
            FcmConfig(max_iter=0)
        with pytest.raises(ValueError):
            FcmConfig(tol=0.0)


class TestFcmProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 3),
        n=st.integers(1, 60),
        q=st.integers(1, 6),
        scale=st.floats(1e-3, 1e3),
        repeats=st.booleans(),
        constant=st.booleans(),
    )
    def test_invariants(self, seed, k, n, q, scale, repeats, constant):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(k, n)) * scale
        if repeats:  # coincident points take the zero-distance membership branch
            pts = pts[:, rng.integers(0, max(1, n // 3), n)]
        if constant:  # a zero-range dimension gets the absolute width floor
            pts[0] = pts[0, 0]
        q = min(q, np.unique(pts, axis=1).shape[1])
        cfg = FcmConfig()

        centers, mu, trace = run_fcm(pts, q, cfg, seed=seed)
        assert np.abs(mu.sum(axis=0) - 1.0).max() <= 1e-12
        assert trace[-1] == fcm_objective(pts, centers, mu, cfg.m)
        # rounding moves a center by some delta, and the objective J by up to
        # 2 delta sqrt(n J) + n delta^2: visible when J is near zero
        delta = 1e-14 * np.abs(pts).max()
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-12 * a + 2 * delta * np.sqrt(n * a) + n * delta**2

        bank = fit_fcm(pts, q, cfg, seed=seed)
        dim_range = pts.max(axis=1) - pts.min(axis=1)
        floor = np.where(dim_range > 0, WIDTH_RANGE_FLOOR * dim_range, WIDTH_ABS_FLOOR)
        assert (bank.widths >= floor).all()
        again = fit_fcm(pts, q, cfg, seed=seed)
        assert np.array_equal(bank.centers, again.centers)
        assert np.array_equal(bank.widths, again.widths)


class TestFireStrengths:
    def test_single_rule_is_one(self):
        bank = FuzzyRuleBank(centers=[[0.0, 0.0]], widths=[[1.0, 1.0]])
        phi = fire_strengths(bank, [5.0, -3.0])
        assert phi.tolist() == [1.0]

    def test_symmetric_midpoint(self):
        bank = FuzzyRuleBank(centers=[[0.0], [1.0]], widths=[[1.0], [1.0]])
        phi = fire_strengths(bank, [0.5])
        assert phi == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_own_center_dominates(self):
        bank = FuzzyRuleBank(
            centers=[[0.0, 0.0], [8.0, 8.0], [-7.0, 5.0]],
            widths=np.full((3, 2), 1.3),
        )
        phi = fire_strengths(bank, [0.0, 0.0])
        assert phi[0] > phi[1] and phi[0] > phi[2]

    def test_normalization_over_random_banks(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            bank = random_bank(rng, rng.integers(1, 8), rng.integers(1, 5))
            u = rng.normal(size=bank.n_inputs) * 10
            phi = fire_strengths(bank, u)
            assert abs(phi.sum() - 1.0) < 1e-12
            assert (phi >= 0).all()

    def test_translation_consistency(self):
        rng = np.random.default_rng(13)
        bank = random_bank(rng, 4, 3)
        u = rng.normal(size=3)
        shift = rng.normal(size=3) * 5
        shifted = FuzzyRuleBank(centers=bank.centers + shift, widths=bank.widths)
        assert np.abs(fire_strengths(bank, u) - fire_strengths(shifted, u + shift)).max() < 1e-12

    def test_extreme_distance_stays_normalized(self):
        # inputs 1e4 widths away from every center must not underflow to 0/0
        bank = FuzzyRuleBank(centers=[[0.0], [1.0], [2.0]], widths=[[1.0], [1.0], [1.0]])
        phi = fire_strengths(bank, [1e4])
        assert np.isfinite(phi).all()
        assert abs(phi.sum() - 1.0) < 1e-12

    def test_matrix_matches_vector_version(self):
        rng = np.random.default_rng(17)
        bank = random_bank(rng, 5, 2)
        inputs = rng.normal(size=(2, 40)) * 3
        phi_m = fire_strength_matrix(bank, inputs)
        for j in range(40):
            assert np.abs(phi_m[:, j] - fire_strengths(bank, inputs[:, j])).max() < 1e-14

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_column_goes_to_the_nearest_rules(self):
        # 1e160 widths from both centers: every z**2 overflows
        near_far = FuzzyRuleBank(centers=[[0.0], [1e200]], widths=[[1.0], [1.0]])
        assert fire_strengths(near_far, [1e160]).tolist() == [1.0, 0.0]
        tied = FuzzyRuleBank(centers=[[0.0], [1.0]], widths=[[1.0], [1.0]])
        assert fire_strengths(tied, [1e160]).tolist() == [0.5, 0.5]
        # the other columns of the same matrix keep their values
        phi = fire_strength_matrix(tied, [[0.3, 1e160]])
        assert phi[:, 0].tolist() == fire_strengths(tied, [0.3]).tolist()
        assert phi[:, 1].tolist() == [0.5, 0.5]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), q=st.integers(1, 8), k=st.integers(1, 10), n=st.integers(1, 12))
    def test_vector_is_the_matrix_column(self, data, q, k, n):
        finite = st.floats(-1e3, 1e3)
        # outliers far beyond 1e3 widths from every center, up to overflowing z**2
        inputs = st.one_of(finite, st.floats(-1e300, 1e300))
        bank = FuzzyRuleBank(
            centers=data.draw(arrays(float, (q, k), elements=finite)),
            widths=data.draw(arrays(float, (q, k), elements=st.floats(1e-3, 1e2))),
        )
        u = data.draw(arrays(float, (k, n), elements=inputs))
        phi_m = fire_strength_matrix(bank, u)
        for j in range(n):
            phi = fire_strengths(bank, u[:, j])
            assert np.array_equal(phi, phi_m[:, j])
            assert abs(phi.sum() - 1.0) < 1e-12
            assert (phi >= 0).all()

    def test_bank_validation(self):
        with pytest.raises(ValueError):
            FuzzyRuleBank(centers=[[0.0]], widths=[[0.0]])
        with pytest.raises(ValueError):
            FuzzyRuleBank(centers=[[0.0, 1.0]], widths=[[1.0]])


class TestObjective:
    def test_hand_value(self):
        pts = np.array([[0.0, 2.0]])
        centers = np.array([[1.0]])
        mu = np.array([[1.0, 1.0]])
        # both points at squared distance 1, memberships 1, m=2
        assert fcm_objective(pts, centers, mu, 2.0) == pytest.approx(2.0, abs=0)
