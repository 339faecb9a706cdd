import math

import numpy as np
import pytest

from frscn import SubReservoir, max_singular_value, rescale_triangular, spectral_radius
from support import echo_state_gap, empty_reservoir, readout


def random_triangular(rng, n, density=0.3, scale=1.0):
    w = rng.uniform(-scale, scale, (n, n)) * (rng.random((n, n)) < density)
    return np.tril(w)


class TestGrow:
    def test_base_case_from_empty(self):
        res = empty_reservoir(2)
        grown = res.grow([0.3, -0.2], [0.7], 0.1)
        assert grown.n_nodes == 1
        assert grown.w_r.tolist() == [[0.7]]
        assert grown.w_in.tolist() == [[0.3, -0.2]]
        assert grown.b.tolist() == [0.1]

    def test_upper_triangle_stays_zero(self):
        rng = np.random.default_rng(0)
        res = empty_reservoir(1)
        for n in range(6):
            res = res.grow(rng.normal(size=1), rng.normal(size=n + 1), rng.normal())
        assert np.all(np.triu(res.w_r, 1) == 0.0)

    def test_prior_rows_bit_identical(self):
        rng = np.random.default_rng(1)
        res = SubReservoir(w_in=rng.normal(size=(3, 2)), w_r=np.tril(rng.normal(size=(3, 3))),
                           b=rng.normal(size=3))
        grown = res.grow(rng.normal(size=2), rng.normal(size=4), 0.5)
        assert np.array_equal(grown.w_in[:3], res.w_in)
        assert np.array_equal(grown.w_r[:3, :3], res.w_r)
        assert np.array_equal(grown.b[:3], res.b)

    def test_wrong_row_length(self):
        res = empty_reservoir(1).grow([1.0], [0.5], 0.0)
        with pytest.raises(ValueError):
            res.grow([1.0], [0.1, 0.2, 0.3], 0.0)  # needs N+1 = 2 entries

    def test_rollout_locality_after_grow(self):
        # appending a node leaves earlier nodes' states bit-identical
        rng = np.random.default_rng(2)
        res = SubReservoir(w_in=rng.normal(size=(4, 2)),
                           w_r=random_triangular(rng, 4), b=rng.normal(size=4))
        u = rng.uniform(-1, 1, (2, 50))
        before = res.rollout(u)
        grown = res.grow(rng.normal(size=2), rng.normal(size=5), 0.3)
        after = grown.rollout(u)
        assert np.array_equal(after[:4], before)

    def test_holds_its_own_arrays(self):
        # a caller's later write into its arrays cannot reach a validated reservoir
        w_in, w_r = np.ones((2, 1)), np.array([[0.5, 0.0], [0.1, 0.2]])
        b, w_out = np.zeros(2), np.ones((1, 3))
        res = SubReservoir(w_in=w_in, w_r=w_r, b=b, w_out=w_out)
        w_in[0, 0] = w_out[0, 0] = 3.0
        w_r[0, 1] = 7.0
        b[0] = np.nan
        assert res.w_in.tolist() == [[1.0], [1.0]]
        assert res.w_r.tolist() == [[0.5, 0.0], [0.1, 0.2]]
        assert res.b.tolist() == [0.0, 0.0]
        assert res.w_out.tolist() == [[1.0, 1.0, 1.0]]
        for mine, theirs in ((res.w_in, w_in), (res.w_r, w_r), (res.b, b), (res.w_out, w_out)):
            assert not np.shares_memory(mine, theirs)

    def test_triangular_enforced_at_construction(self):
        bad = np.array([[0.1, 0.5], [0.2, 0.3]])
        with pytest.raises(ValueError):
            SubReservoir(w_in=np.zeros((2, 1)), w_r=bad, b=np.zeros(2))


class TestSpectralMath:
    def test_radius_is_max_abs_diagonal(self):
        w = np.tril(np.array([[0.5, 0, 0], [1.0, -0.8, 0], [2.0, 0.1, 0.3]]))
        assert spectral_radius(w) == 0.8

    def test_radius_matches_characteristic_roots_3x3(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = np.tril(rng.normal(size=(3, 3)))
            coeffs = np.poly(w)  # characteristic polynomial
            roots = np.roots(coeffs)
            assert spectral_radius(w) == pytest.approx(np.abs(roots).max(), rel=1e-9)

    def test_max_singular_value_matches_svd(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 5, 20, 60):
            w = np.tril(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4))
            ref = np.linalg.svd(w, compute_uv=False)[0]
            assert max_singular_value(w) == pytest.approx(ref, rel=1e-6)

    def test_max_singular_value_is_exact_for_close_singular_values(self):
        # a power iteration converges slowly here and stops short of 1
        assert max_singular_value(np.diag([1.0, 0.999])) == pytest.approx(1.0, rel=1e-12)

    def test_zero_matrix(self):
        assert max_singular_value(np.zeros((4, 4))) == 0.0
        assert max_singular_value(np.zeros((0, 0))) == 0.0
        assert spectral_radius(np.zeros((0, 0))) == 0.0


class TestRescale:
    def test_scalar_case(self):
        scaled, factor = rescale_triangular(np.array([[0.5]]), 0.8)
        assert scaled.tolist() == [[0.8]]
        assert factor == pytest.approx(1.6)

    def test_two_by_two_diagonal(self):
        w = np.array([[0.2, 0.0], [0.1, 0.4]])
        scaled, _ = rescale_triangular(w, 0.8)
        # rho = 0.4, factor 2; sigma_max of the result stays below 1, no clamp
        assert np.diag(scaled).tolist() == pytest.approx([0.4, 0.8], abs=1e-15)
        assert scaled[1, 0] == pytest.approx(0.2, abs=1e-15)

    def test_sigma_below_one_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            w = random_triangular(rng, n, density=0.5, scale=rng.uniform(0.1, 5.0))
            if not w.any():
                continue
            alpha = rng.uniform(0.5, 0.999)
            scaled, _ = rescale_triangular(w, alpha)
            # independent oracle: LAPACK SVD, not the power iteration
            assert np.linalg.svd(scaled, compute_uv=False)[0] < 1.0

    def test_zero_rho_fallback_pins_sigma_to_alpha(self):
        w = np.array([[0.0, 0.0], [0.7, 0.0]])  # zero diagonal
        scaled, _ = rescale_triangular(w, 0.9)
        assert np.linalg.svd(scaled, compute_uv=False)[0] == pytest.approx(0.9, rel=1e-9)

    def test_all_zero_returned_unchanged(self):
        w = np.zeros((3, 3))
        scaled, factor = rescale_triangular(w, 0.9)
        assert np.array_equal(scaled, w)
        assert factor == 1.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            rescale_triangular(np.eye(2), 1.0)
        with pytest.raises(ValueError):
            rescale_triangular(np.eye(2), 0.0)

    def test_rescale_preserves_triangularity(self):
        rng = np.random.default_rng(6)
        res = SubReservoir(w_in=rng.normal(size=(5, 1)),
                           w_r=random_triangular(rng, 5), b=rng.normal(size=5))
        scaled = res.rescale(0.7)
        assert np.all(np.triu(scaled.w_r, 1) == 0.0)


class TestRollout:
    def test_all_zero_weights(self):
        res = SubReservoir(w_in=np.zeros((3, 1)), w_r=np.zeros((3, 3)), b=np.zeros(3))
        states = res.rollout(np.ones((1, 10)))
        assert np.all(states == 0.0)

    def test_bias_only(self):
        b = np.array([0.5, -1.2])
        res = SubReservoir(w_in=np.zeros((2, 1)), w_r=np.zeros((2, 2)), b=b)
        states = res.rollout(np.random.default_rng(0).normal(size=(1, 7)))
        for t in range(7):
            assert states[:, t] == pytest.approx(np.tanh(b), abs=0)

    def test_single_node_hand_value(self):
        res = SubReservoir(w_in=[[1.0]], w_r=[[0.0]], b=[0.0])
        states = res.rollout(np.array([[1.0]]))
        assert states[0, 0] == pytest.approx(math.tanh(1.0), abs=0)

    def test_column_recursion_oracle(self):
        # x(n) depends only on u(n) and x(n-1): recompute each column directly
        rng = np.random.default_rng(7)
        res = SubReservoir(w_in=rng.normal(size=(4, 2)),
                           w_r=random_triangular(rng, 4, density=0.6),
                           b=rng.normal(size=4))
        u = rng.uniform(-1, 1, (2, 30))
        states = res.rollout(u)
        x_prev = np.zeros(4)
        for t in range(30):
            expect = np.tanh(res.w_in @ u[:, t] + res.w_r @ x_prev + res.b)
            assert np.abs(states[:, t] - expect).max() < 1e-14
            x_prev = states[:, t]

    def test_sigmoid_activation(self):
        res = SubReservoir(w_in=[[0.0]], w_r=[[0.0]], b=[0.0], activation="sigmoid")
        states = res.rollout(np.ones((1, 3)))
        assert states[0].tolist() == [0.5, 0.5, 0.5]


class TestReadout:
    def test_zero_readout(self):
        res = SubReservoir(w_in=np.zeros((2, 1)), w_r=np.zeros((2, 2)), b=np.zeros(2),
                           w_out=np.zeros((1, 3)))
        states = res.rollout(np.ones((1, 5)))
        assert np.all(readout(res, states, np.ones((1, 5))) == 0.0)

    def test_input_selector(self):
        # unit readout row picking the second input slot reproduces u_2
        res = SubReservoir(w_in=np.zeros((2, 2)), w_r=np.zeros((2, 2)), b=np.zeros(2),
                           w_out=np.array([[0.0, 0.0, 0.0, 1.0]]))
        rng = np.random.default_rng(8)
        u = rng.normal(size=(2, 9))
        out = readout(res, res.rollout(u), u)
        assert np.array_equal(out[0], u[1])

    def test_matches_per_sample_loop(self):
        rng = np.random.default_rng(9)
        res = SubReservoir(w_in=rng.normal(size=(3, 2)), w_r=random_triangular(rng, 3),
                           b=rng.normal(size=3), w_out=rng.normal(size=(2, 5)))
        u = rng.normal(size=(2, 12))
        states = res.rollout(u)
        out = readout(res, states, u)
        for t in range(12):
            expect = res.w_out @ np.concatenate([states[:, t], u[:, t]])
            assert np.abs(out[:, t] - expect).max() < 1e-14

    def test_dimension_mismatch(self):
        res = SubReservoir(w_in=np.zeros((2, 1)), w_r=np.zeros((2, 2)), b=np.zeros(2),
                           w_out=np.zeros((1, 3)))
        with pytest.raises(ValueError):
            readout(res, np.zeros((4, 5)), np.zeros((1, 5)))


class TestEchoStateGap:
    def test_identical_starts_zero_gap(self):
        rng = np.random.default_rng(10)
        res = SubReservoir(w_in=rng.normal(size=(3, 1)), w_r=random_triangular(rng, 3),
                           b=rng.normal(size=3))
        u = rng.uniform(-1, 1, (1, 40))
        x0 = rng.normal(size=3)
        gap = echo_state_gap(res, u, x0, x0)
        assert np.all(gap == 0.0)

    def test_rescaled_reservoir_contracts(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            res = SubReservoir(
                w_in=rng.uniform(-0.5, 0.5, (n, 1)),
                w_r=random_triangular(rng, n, density=0.5, scale=1.0),
                b=rng.uniform(-0.5, 0.5, n),
            ).rescale(rng.uniform(0.5, 0.95))
            u = rng.uniform(-1, 1, (1, 200))
            x0_a = rng.normal(size=n)
            x0_b = rng.normal(size=n)
            gap = echo_state_gap(res, u, x0_a, x0_b)
            initial = np.linalg.norm(x0_a - x0_b)
            assert gap[-1] < 1e-6 * initial

    def test_gap_bounded_by_sigma_power(self):
        rng = np.random.default_rng(12)
        res = SubReservoir(
            w_in=rng.uniform(-0.5, 0.5, (5, 1)),
            w_r=random_triangular(rng, 5, density=0.6),
            b=rng.uniform(-0.5, 0.5, 5),
        ).rescale(0.8)
        smax = np.linalg.svd(res.w_r, compute_uv=False)[0]
        u = rng.uniform(-1, 1, (1, 60))
        x0_a = rng.normal(size=5)
        x0_b = rng.normal(size=5)
        gap = echo_state_gap(res, u, x0_a, x0_b)
        initial = np.linalg.norm(x0_a - x0_b)
        for n, g in enumerate(gap, start=1):
            assert g <= 1.1 * (smax**n) * initial

    def test_unscaled_negative_control(self):
        # sigma_max = 3: two starts settle on opposite tanh fixed points, no contraction
        res = SubReservoir(w_in=[[0.0]], w_r=[[3.0]], b=[0.0])
        u = np.zeros((1, 200))
        gap = echo_state_gap(res, u, np.array([1.0]), np.array([-1.0]))
        assert gap[-1] > 1.9  # fixed points near +-0.995
