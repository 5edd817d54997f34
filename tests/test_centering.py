"""Tests for the weight-centering transforms: hand oracles, projection
algebra, and the zero-mean output guarantee of every layer family."""

import numpy as np
import pytest

from lnfold.centering import (
    Family,
    center,
    center_bias,
    constraint_residual,
    spec_for_node,
)
from lnfold.graph_ir import make_node
from lnfold.ops import OPS

EPS_M = float(np.finfo(np.float64).eps)
RNG = np.random.default_rng(42)


class TestColumnCentering:
    def test_hand_oracle(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(center(W, Family.LINEAR_COLUMNS), [[-1.0, -1.0], [1.0, 1.0]])

    def test_fixed_point(self):
        W = np.array([[1.0, -2.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(center(W, Family.LINEAR_COLUMNS), W)

    def test_all_ones_to_zero(self):
        np.testing.assert_array_equal(
            center(np.ones((4, 3)), Family.LINEAR_COLUMNS), np.zeros((4, 3))
        )

    def test_constraint_check(self):
        # tolerance 1e-9 per element of the summed axis, as for f64 weights
        assert constraint_residual(np.array([[1.0, -1.0], [-1.0, 1.0]]), Family.LINEAR_COLUMNS) <= 2e-9
        assert not constraint_residual(np.eye(2), Family.LINEAR_COLUMNS) <= 2e-9
        # the degenerate all-zero point satisfies the constraint
        assert constraint_residual(np.zeros((3, 3)), Family.LINEAR_COLUMNS) <= 3e-9


    def test_spec_needs_a_general_linear_node(self):
        with pytest.raises(ValueError, match="^node kind 'ReLU' is not a general linear layer$"):
            spec_for_node(make_node("act", "ReLU"))


class TestGradientProjection:
    def test_constant_column_is_killed(self):
        dV = np.ones((5, 1))
        np.testing.assert_allclose(center(dV, Family.LINEAR_COLUMNS), np.zeros((5, 1)))

    def test_centered_gradient_unchanged(self):
        dV = center(RNG.normal(size=(6, 4)), Family.LINEAR_COLUMNS)
        np.testing.assert_allclose(center(dV, Family.LINEAR_COLUMNS), dV, atol=1e-15)

    def test_matches_finite_differences(self):
        # loss = sum(C * centered(W)); analytic dL/dW is the projection of C
        W = RNG.normal(size=(5, 3))
        C = RNG.normal(size=(5, 3))
        analytic = center(C, Family.LINEAR_COLUMNS)
        h = 1e-6
        fd = np.zeros_like(W)
        for i in range(W.shape[0]):
            for j in range(W.shape[1]):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                fd[i, j] = (
                    np.sum(C * center(Wp, Family.LINEAR_COLUMNS))
                    - np.sum(C * center(Wm, Family.LINEAR_COLUMNS))
                ) / (2 * h)
        np.testing.assert_allclose(analytic, fd, atol=1e-6)

    def test_projection_is_symmetric_and_idempotent(self):
        dV = RNG.normal(size=(7, 4))
        once = center(dV, Family.LINEAR_COLUMNS)
        np.testing.assert_allclose(center(once, Family.LINEAR_COLUMNS), once, atol=4 * EPS_M)
        # symmetric: <Pa, b> == <a, Pb>
        a, b = RNG.normal(size=(7, 4)), RNG.normal(size=(7, 4))
        lhs = np.sum(center(a, Family.LINEAR_COLUMNS) * b)
        rhs = np.sum(a * center(b, Family.LINEAR_COLUMNS))
        assert abs(lhs - rhs) <= 1e-12


class TestConvKernel:
    def test_hand_oracle(self):
        K = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
        np.testing.assert_allclose(
            center(K, Family.CONV_OUT_CHANNELS), np.array([-1.0, 1.0]).reshape(2, 1, 1, 1)
        )

    def test_fixed_point(self):
        K = RNG.normal(size=(4, 2, 3, 3))
        K = center(K, Family.CONV_OUT_CHANNELS)
        np.testing.assert_allclose(center(K, Family.CONV_OUT_CHANNELS), K, atol=4 * EPS_M)

    def test_channel_mean_of_conv_output_is_zero(self):
        K = center(RNG.uniform(-1, 1, size=(6, 3, 3, 3)), Family.CONV_OUT_CHANNELS)
        b = center_bias(RNG.uniform(-1, 1, size=6))
        for _ in range(20):
            x = RNG.uniform(-2, 2, size=(3, 8, 8))
            y = OPS["Conv2d"].forward({"stride": 1, "padding": 1}, [x], [K, b])[0]
            channel_mean = y.mean(axis=0)
            assert np.abs(channel_mean).max() <= 8 * 6 * EPS_M * 10


class TestRecurrent:
    def test_hand_oracle_identity_pair(self):
        Wv = center(np.eye(2), Family.RECURRENT_BOTH)
        Wh = center(np.eye(2), Family.RECURRENT_BOTH)
        np.testing.assert_allclose(Wv, [[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(Wh, [[0.5, -0.5], [-0.5, 0.5]])

    def test_zero_matrices_unchanged(self):
        Wv = center(np.zeros((3, 2)), Family.RECURRENT_BOTH)
        Wh = center(np.zeros((3, 3)), Family.RECURRENT_BOTH)
        np.testing.assert_array_equal(Wv, np.zeros((3, 2)))
        np.testing.assert_array_equal(Wh, np.zeros((3, 3)))

    def test_hidden_preactivation_mean_is_zero(self):
        Wv = center(RNG.uniform(-1, 1, size=(6, 4)), Family.RECURRENT_BOTH)
        Wh = center(RNG.uniform(-1, 1, size=(6, 6)), Family.RECURRENT_BOTH)
        for _ in range(20):
            x = RNG.uniform(-2, 2, size=4)
            h_prev = RNG.uniform(-2, 2, size=6)
            c = OPS["RecurrentCell"].forward({}, [x, h_prev], [Wv, Wh])[0]
            assert abs(c.mean()) <= 8 * 6 * EPS_M


class TestAttentionValue:
    def test_hand_oracle(self):
        np.testing.assert_allclose(
            center(np.array([[1.0, 3.0]]), Family.ATTENTION_VALUE_ROWS), [[-1.0, 1.0]]
        )

    def test_fixed_point(self):
        V = center(RNG.normal(size=(4, 6)), Family.ATTENTION_VALUE_ROWS)
        np.testing.assert_allclose(center(V, Family.ATTENTION_VALUE_ROWS), V, atol=4 * EPS_M)

    def test_projected_output_mean_is_zero(self):
        V = center(RNG.uniform(-1, 1, size=(5, 8)), Family.ATTENTION_VALUE_ROWS)
        for _ in range(20):
            B = RNG.uniform(-2, 2, size=(3, 5))
            y = OPS["AttentionValueProjection"].forward({}, [B], [V])[0]
            assert np.abs(y.mean(axis=-1)).max() <= 8 * 8 * EPS_M


class TestGroupedColumns:
    def test_hand_oracle(self):
        W = np.array([[1.0], [2.0], [3.0], [4.0]])
        np.testing.assert_allclose(
            center(W, Family.GROUPED_COLUMNS, 2), [[-0.5], [0.5], [-0.5], [0.5]]
        )

    def test_single_group_equals_column_centering(self):
        W = RNG.normal(size=(6, 3))
        np.testing.assert_allclose(
            center(W, Family.GROUPED_COLUMNS, 1), center(W, Family.LINEAR_COLUMNS)
        )

    def test_one_element_groups_zero_the_matrix(self):
        W = RNG.normal(size=(4, 3))
        with pytest.warns(UserWarning, match="zeroes the layer"):
            zeroed = center(W, Family.GROUPED_COLUMNS, 4)
        np.testing.assert_allclose(zeroed, np.zeros((4, 3)))

    def test_divisibility_error(self):
        with pytest.raises(ValueError):
            center(np.ones((5, 2)), Family.GROUPED_COLUMNS, 2)

    def test_grouped_output_means_are_zero(self):
        groups, chunk = 3, 4
        W = center(RNG.uniform(-1, 1, size=(groups * chunk, 5)), Family.GROUPED_COLUMNS, groups)
        for _ in range(20):
            x = RNG.uniform(-2, 2, size=5)
            y = OPS["Linear"].forward({}, [x], [W])[0].reshape(groups, chunk)
            assert np.abs(y.mean(axis=-1)).max() <= 8 * chunk * EPS_M


class TestBias:
    def test_hand_oracle(self):
        np.testing.assert_allclose(center_bias(np.array([1.0, 3.0])), [-1.0, 1.0])

    def test_zero_mean_unchanged(self):
        b = np.array([1.0, -1.0, 0.0])
        np.testing.assert_allclose(center_bias(b), b)

    def test_constant_to_zero(self):
        np.testing.assert_allclose(center_bias(np.full(4, 2.5)), np.zeros(4))


FAMILY_CASES = [
    (Family.LINEAR_COLUMNS, (8, 5), 1),
    (Family.CONV_OUT_CHANNELS, (6, 3, 3, 3), 1),
    (Family.ATTENTION_VALUE_ROWS, (5, 8), 1),
    (Family.GROUPED_COLUMNS, (12, 5), 3),
    (Family.RECURRENT_BOTH, (6, 4), 1),
]

# Constrained slices long enough for numpy's blocked summation.
LONG_SLICE_CASES = [
    (Family.LINEAR_COLUMNS, (512, 512), 1),
    (Family.ATTENTION_VALUE_ROWS, (64, 512), 1),
]


def test_every_family_has_a_case():
    assert {family for family, _shape, _groups in FAMILY_CASES} == set(Family)


class TestFamilyAlgebra:
    @pytest.mark.parametrize("family,shape,groups", FAMILY_CASES)
    def test_idempotent(self, family, shape, groups):
        X = RNG.uniform(-1, 1, size=shape)
        once = center(X, family, groups)
        twice = center(once, family, groups)
        assert np.abs(twice - once).max() <= 4 * EPS_M

    @pytest.mark.parametrize("family,shape,groups", FAMILY_CASES)
    def test_result_satisfies_constraint(self, family, shape, groups):
        X = RNG.uniform(-1, 1, size=shape)
        centered = center(X, family, groups)
        assert constraint_residual(centered, family, groups) <= 1e-9

    @pytest.mark.parametrize("family,shape,groups", FAMILY_CASES)
    def test_linearity(self, family, shape, groups):
        X = RNG.normal(size=shape)
        Y = RNG.normal(size=shape)
        a, b = 1.7, -0.3
        lhs = center(a * X + b * Y, family, groups)
        rhs = a * center(X, family, groups) + b * center(Y, family, groups)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("family,shape,groups", FAMILY_CASES + LONG_SLICE_CASES)
    def test_stack_centers_like_its_slices(self, family, shape, groups):
        # Verification projects stacked trials' gradients in one call.
        X = RNG.normal(size=(7,) + shape)
        stacked = center(X, family, groups)
        for x, centered in zip(X, stacked):
            assert np.array_equal(centered, center(x, family, groups))
