"""Lie-group kernel checks against independent numerical oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistgraph import manifold as M
from twistgraph.manifold import (
    EuclidPoint,
    ManifoldMismatchError,
    NearSingularError,
    Pose3,
    Rotation3,
)

from conftest import matrix_exp_series, random_pose, random_rotation

angles = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
small = st.floats(min_value=-1e-4, max_value=1e-4, allow_nan=False)


def hat_se3(xi):
    A = np.zeros((4, 4))
    A[:3, :3] = M.skew(xi[3:])
    A[:3, 3] = xi[:3]
    return A


class TestExpLog:
    def test_exp_so3_matches_series_oracle(self, rng):
        for _ in range(200):
            theta = rng.normal(0.0, 1.0, 3)
            R = M.exp_so3(theta)
            R_series = matrix_exp_series(M.skew(theta))
            np.testing.assert_allclose(R.matrix, R_series, atol=1e-12)

    def test_exp_se3_matches_series_oracle(self, rng):
        for _ in range(200):
            xi = rng.normal(0.0, 1.0, 6)
            T = M.exp_se3(xi)
            T_series = matrix_exp_series(hat_se3(xi))
            np.testing.assert_allclose(T.matrix(), T_series, atol=1e-12)

    def test_round_trip_so3(self, rng):
        worst = 0.0
        for _ in range(10_000):
            theta = rng.normal(0.0, 1.0, 3)
            n = np.linalg.norm(theta)
            if n >= np.pi - 1e-3:
                theta *= (np.pi - 1e-3) / n
            back = M.log_so3(M.exp_so3(theta))
            worst = max(worst, np.max(np.abs(back - theta)))
        assert worst < 1e-9

    def test_round_trip_se3(self, rng):
        worst = 0.0
        for _ in range(10_000):
            xi = rng.normal(0.0, 1.0, 6)
            n = np.linalg.norm(xi[3:])
            if n >= np.pi - 1e-3:
                xi[3:] *= (np.pi - 1e-3) / n
            back = M.log_se3(M.exp_se3(xi))
            worst = max(worst, np.max(np.abs(back - xi)))
        assert worst < 1e-9

    @given(st.lists(small, min_size=3, max_size=3))
    def test_small_angle_round_trip(self, theta):
        theta = np.array(theta)
        np.testing.assert_allclose(
            M.log_so3(M.exp_so3(theta)), theta, atol=1e-15)

    def test_log_rejects_near_pi(self):
        axis = np.array([1.0, 0.0, 0.0])
        with pytest.raises(NearSingularError):
            M.log_so3(M.exp_so3(axis * np.pi))

    def test_exp_rejects_non_finite(self):
        with pytest.raises(ValueError):
            M.exp_so3(np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError):
            M.exp_se3(np.array([0.0, 0.0, 0.0, np.inf, 0.0, 0.0]))


class TestJacobians:
    def test_jl_inverse_pairs_so3(self, rng):
        for _ in range(300):
            theta = rng.normal(0.0, 0.8, 3)
            prod = M.jl_so3(theta) @ M.jl_inv_so3(theta)
            np.testing.assert_allclose(prod, np.eye(3), atol=1e-9)

    def test_jl_inverse_pairs_se3(self, rng):
        for _ in range(300):
            xi = rng.normal(0.0, 0.8, 6)
            prod = M.jl_se3(xi) @ M.jl_inv_se3(xi)
            np.testing.assert_allclose(prod, np.eye(6), atol=1e-9)

    def test_right_jacobian_is_reflected_left(self, rng):
        for _ in range(100):
            xi = rng.normal(0.0, 0.8, 6)
            np.testing.assert_allclose(M.jr(M.SE3, xi), M.jl_se3(-xi), atol=1e-15)
            np.testing.assert_allclose(
                M.jr_inv_se3(xi), M.jl_inv_se3(-xi), atol=1e-15)

    def test_right_jacobian_against_finite_differences(self, rng):
        # Exp(xi + d) ~ Exp(xi) * Exp(J_r(xi) d)
        h = 1e-7
        for _ in range(50):
            xi = rng.normal(0.0, 0.8, 6)
            J_fd = np.empty((6, 6))
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                d = M.ominus(M.SE3, M.exp_se3(xi + e), M.exp_se3(xi - e))
                J_fd[:, i] = d / (2.0 * h)
            np.testing.assert_allclose(M.jr(M.SE3, xi), J_fd, atol=1e-6)

    def test_left_jacobian_translation_identity(self, rng):
        # exp_se3 translation equals J_l(theta) rho by construction; cross-check
        # against the series oracle translation column.
        for _ in range(100):
            xi = rng.normal(0.0, 1.0, 6)
            T_series = matrix_exp_series(hat_se3(xi))
            np.testing.assert_allclose(
                M.jl_so3(xi[3:]) @ xi[:3], T_series[:3, 3], atol=1e-12)

    def test_q_block_zero_angle_limit(self, rng):
        for _ in range(100):
            rho = rng.normal(0.0, 2.0, 3)
            Q = M.q_block(rho, np.zeros(3))
            np.testing.assert_allclose(Q, 0.5 * M.skew(rho), atol=1e-9)

    def test_q_block_series_matches_closed_form_at_threshold(self, rng):
        # continuity across the small-angle switch
        rho = np.array([1.0, -2.0, 0.5])
        for s in (0.999e-6, 1.001e-6):
            axis = np.array([0.3, -0.5, 0.8])
            axis /= np.linalg.norm(axis)
            Q = M.q_block(rho, axis * s)
            np.testing.assert_allclose(Q, 0.5 * M.skew(rho), atol=1e-6)

    def test_q_block_matches_ad_series_left_jacobian(self, rng):
        """Q against the top-right block of J_l = sum_k ad^k / (k + 1)!
        (30 terms), from tiny angles across the series switch."""
        angles = np.concatenate([np.geomspace(1e-7, 0.5, 60),
                                 M.Q_SERIES_ANGLE * np.array([1 - 1e-9,
                                                              1 + 1e-9])])
        rho = rng.normal(0.0, 2.0, (len(angles), 3))
        axis = rng.normal(size=(len(angles), 3))
        theta = axis / np.linalg.norm(axis, axis=1)[:, None] * angles[:, None]
        batch = M.q_block_batch(rho, theta)
        for n in range(len(angles)):
            ad = np.zeros((6, 6))
            ad[:3, :3] = ad[3:, 3:] = M.skew(theta[n])
            ad[:3, 3:] = M.skew(rho[n])
            term, J = np.eye(6), np.eye(6)
            for k in range(1, 30):
                term = term @ ad / (k + 1)
                J += term
            for Q in (M.q_block(rho[n], theta[n]), batch[n]):
                assert (np.max(np.abs(Q - J[:3, 3:]))
                        <= 1e-13 * np.max(np.abs(Q))), angles[n]


class TestAdjoint:
    def test_homomorphism(self, rng):
        for _ in range(100):
            A = random_pose(rng)
            B = random_pose(rng)
            np.testing.assert_allclose(
                M.adjoint_se3(M.compose(A, B)),
                M.adjoint_se3(A) @ M.adjoint_se3(B), atol=1e-10)

    def test_inverse_consistency(self, rng):
        for _ in range(100):
            T = random_pose(rng)
            np.testing.assert_allclose(
                M.adjoint_se3(T) @ M.adjoint_inv_se3(T), np.eye(6), atol=1e-10)
            np.testing.assert_allclose(
                M.adjoint_inv_se3(T), M.adjoint_se3(M.inverse(T)), atol=1e-10)

    def test_adjoint_transports_tangents(self, rng):
        # T Exp(d) T^-1 = Exp(Ad_T d)
        for _ in range(100):
            T = random_pose(rng)
            d = rng.normal(0.0, 0.3, 6)
            lhs = M.compose(M.compose(T, M.exp_se3(d)), M.inverse(T))
            rhs = M.exp_se3(M.adjoint_se3(T) @ d)
            np.testing.assert_allclose(lhs.matrix(), rhs.matrix(), atol=1e-10)


class TestGroupOps:
    def test_compose_inverse(self, rng):
        for _ in range(100):
            T = random_pose(rng)
            I = M.compose(T, M.inverse(T))
            np.testing.assert_allclose(I.matrix(), np.eye(4), atol=1e-12)

    def test_oplus_ominus_round_trip(self, rng):
        for kind, sampler in (
            (M.SE3, lambda: random_pose(rng)),
            (M.SO3, lambda: random_rotation(rng)),
            (M.R3, lambda: EuclidPoint(rng.normal(0.0, 2.0, 3))),
        ):
            for _ in range(200):
                X = sampler()
                d = rng.normal(0.0, 0.5, kind.dim)
                back = M.ominus(kind, M.oplus(kind, X, d), X)
                np.testing.assert_allclose(back, d, atol=1e-9)

    def test_oplus_dim_mismatch(self, rng):
        with pytest.raises(ManifoldMismatchError):
            M.oplus(M.SE3, random_pose(rng), np.zeros(3))

    def test_identity_elements(self):
        assert isinstance(M.identity_element(M.SE3), Pose3)
        assert isinstance(M.identity_element(M.SO3), Rotation3)
        p = M.identity_element(M.rn(4))
        assert isinstance(p, EuclidPoint) and p.coords.shape == (4,)

    def test_kind_of(self, rng):
        assert M.kind_of(random_pose(rng)) == M.SE3
        assert M.kind_of(random_rotation(rng)) == M.SO3
        assert M.kind_of(EuclidPoint(np.zeros(5))) == M.rn(5)
        with pytest.raises(ManifoldMismatchError):
            M.kind_of(np.zeros(3))

    def test_orthonormalized_restores_rotation(self, rng):
        R = random_rotation(rng)
        drifted = Rotation3(R.matrix + rng.normal(0.0, 1e-6, (3, 3)))
        fixed = drifted.orthonormalized()
        assert fixed.is_valid()
        np.testing.assert_allclose(fixed.matrix, R.matrix, atol=1e-5)


class TestRnKind:
    def test_rn_ops_are_vector_arithmetic(self, rng):
        kind = M.rn(3)
        x = EuclidPoint(np.array([1.0, 2.0, 3.0]))
        y = M.oplus(kind, x, np.array([0.5, -1.0, 2.0]))
        np.testing.assert_allclose(y.coords, [1.5, 1.0, 5.0])
        np.testing.assert_allclose(
            M.ominus(kind, y, x), [0.5, -1.0, 2.0])
        np.testing.assert_allclose(M.jr(kind, np.zeros(3)), np.eye(3))
        np.testing.assert_allclose(M.jl_inv(kind, np.ones(3)), np.eye(3))
        np.testing.assert_allclose(
            M.adjoint_inv_of_exp(kind, np.ones(3)), np.eye(3))
