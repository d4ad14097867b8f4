"""Factor residuals and analytic Jacobians against independent oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistgraph import manifold as M
from twistgraph.factors import (
    ConstantTwistSpec,
    RollPitchSpec,
    boundary_factors,
    boundary_tables,
    ct_factor,
    ct_jacobians,
    ct_residual,
    ct_tables,
    prior_factor,
    prior_tables,
    relative_pose_factor,
    relative_pose_tables,
    roll_pitch_factor,
    roll_pitch_tables,
    usbl_factor,
    usbl_tables,
)
from twistgraph.fgraph import (
    FactorGraph,
    NoiseModel,
    Values,
    VariableKey,
    optimize,
)
from twistgraph.manifold import (
    EuclidPoint,
    ManifoldMismatchError,
    NearSingularError,
    Pose3,
    Rotation3,
)
from twistgraph.simkit import finite_difference_jacobian

from conftest import assert_identical, random_pose, random_rotation


def se3_key(i, t=None):
    return VariableKey(id=i, kind=M.SE3, timestamp=float(i if t is None else t))


def r3_key(i, t=None):
    return VariableKey(id=i, kind=M.R3, timestamp=float(i if t is None else t))


def check_factor_jacobians(factor, values, atol=1e-6):
    Js = factor.jacobian_fn(values)
    for key, J in zip(factor.keys, Js):
        J_fd = finite_difference_jacobian(factor.residual_fn, values, key)
        np.testing.assert_allclose(J, J_fd, atol=atol)
    if factor.combined_fn is not None:
        r_c, Js_c = factor.combined_fn(values)
        np.testing.assert_allclose(r_c, factor.residual_fn(values), atol=1e-12)
        for J, J_c in zip(Js, Js_c):
            np.testing.assert_allclose(J, J_c, atol=1e-12)


class TestConstantTwistResidual:
    def test_exact_twist_gives_zero_se3(self, rng):
        for _ in range(50):
            xi = rng.normal(0.0, 0.4, 6)
            dt1, dt2 = rng.uniform(0.2, 3.0, 2)
            # keep each rotation increment well inside the log's pi radius
            w_step = np.linalg.norm(xi[3:]) * max(dt1, dt2)
            if w_step > 2.5:
                xi[3:] *= 2.5 / w_step
            T0 = random_pose(rng, max_angle=1.5)
            T1 = M.oplus(M.SE3, T0, xi * dt1)
            T2 = M.oplus(M.SE3, T1, xi * dt2)
            r = ct_residual(T0, T1, T2, dt1, dt2)
            assert np.max(np.abs(r)) < 1e-12

    def test_exact_twist_gives_zero_so3_and_r3(self, rng):
        w = np.array([0.1, -0.2, 0.3])
        R0 = random_rotation(rng, 1.0)
        R1 = M.oplus(M.SO3, R0, w)
        R2 = M.oplus(M.SO3, R1, 2.0 * w)
        assert np.max(np.abs(ct_residual(R0, R1, R2, 1.0, 2.0))) < 1e-12

        p0 = EuclidPoint(np.zeros(3))
        p1 = EuclidPoint(np.array([1.0, 0.0, 0.0]))
        p2 = EuclidPoint(np.array([2.0, 0.0, 0.0]))
        assert np.max(np.abs(ct_residual(p0, p1, p2, 1.0, 1.0))) < 1e-15

    def test_r3_overshoot_example(self):
        # (0,0,0) -> (1,0,0) predicts (2,0,0); the actual (3,0,0) leaves (1,0,0)
        p0 = EuclidPoint(np.zeros(3))
        p1 = EuclidPoint(np.array([1.0, 0.0, 0.0]))
        p2 = EuclidPoint(np.array([3.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            ct_residual(p0, p1, p2, 1.0, 1.0), [1.0, 0.0, 0.0])

    def test_timing_scales_prediction(self):
        # same R^3 motion expressed over dt2 = 2 dt1 doubles the increment
        p0 = EuclidPoint(np.zeros(3))
        p1 = EuclidPoint(np.array([1.0, 0.0, 0.0]))
        p2 = EuclidPoint(np.array([3.0, 0.0, 0.0]))
        assert np.max(np.abs(ct_residual(p0, p1, p2, 1.0, 2.0))) < 1e-15

    def test_rejects_bad_dt(self, rng):
        T = random_pose(rng)
        with pytest.raises(ValueError):
            ct_residual(T, T, T, 0.0, 1.0)
        with pytest.raises(ValueError):
            ct_residual(T, T, T, 1.0, -1.0)

    def test_left_invariance(self, rng):
        # residual built from relative increments: invariant to a common
        # left transform of the triple
        for _ in range(20):
            xi = rng.normal(0.0, 0.3, 6)
            T0 = random_pose(rng, 1.0)
            T1 = M.oplus(M.SE3, T0, xi)
            T2 = M.oplus(M.SE3, T1, rng.normal(0.0, 0.3, 6))
            G = random_pose(rng, 1.0)
            r = ct_residual(T0, T1, T2, 1.0, 1.0)
            r_moved = ct_residual(M.compose(G, T0), M.compose(G, T1),
                                  M.compose(G, T2), 1.0, 1.0)
            np.testing.assert_allclose(r, r_moved, atol=1e-10)

    def test_near_pi_increment_raises_with_step_name(self, rng):
        T0 = Pose3.identity()
        T1 = Pose3(M.exp_so3(np.array([np.pi - 1e-9, 0.0, 0.0])), np.zeros(3))
        with pytest.raises(NearSingularError, match="relative increment"):
            ct_residual(T0, T1, T0, 1.0, 1.0)


class TestConstantTwistJacobians:
    def test_zero_increment_blocks_are_scaled_identities(self):
        T = Pose3.identity()
        for alpha in (0.5, 1.0, 2.0):
            J0, J1, J2 = ct_jacobians(T, T, T, 1.0, alpha)
            np.testing.assert_allclose(J0, alpha * np.eye(6), atol=1e-12)
            np.testing.assert_allclose(J1, -(1 + alpha) * np.eye(6),
                                       atol=1e-12)
            np.testing.assert_allclose(J2, np.eye(6), atol=1e-12)

    def test_matches_finite_differences(self, rng):
        keys = [se3_key(i) for i in range(3)]
        for _ in range(30):
            dt1 = rng.uniform(0.2, 2.0)
            dt2 = rng.uniform(0.2, 2.0)
            values = Values()
            T = random_pose(rng, 1.2)
            for k in keys:
                values.set(k, T)
                T = M.oplus(M.SE3, T, rng.normal(0.0, 0.3, 6))
            f = ct_factor(tuple(keys),
                          ConstantTwistSpec(dt1, dt2, np.eye(6)))
            check_factor_jacobians(f, values)

    def test_so3_matches_finite_differences(self, rng):
        keys = [VariableKey(i, M.SO3, float(i)) for i in range(3)]
        values = Values()
        R = random_rotation(rng, 1.0)
        for k in keys:
            values.set(k, R)
            R = M.oplus(M.SO3, R, rng.normal(0.0, 0.3, 3))
        f = ct_factor(tuple(keys), ConstantTwistSpec(0.7, 1.3, np.eye(3)))
        check_factor_jacobians(f, values)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from([M.SE3, M.SO3, M.R3]),
           log_ratio=st.floats(-3.0, 3.0),
           angle=st.floats(0.0, np.pi - 0.3),
           seed=st.integers(0, 2 ** 32 - 1))
    # the scaled increment's rotation moved to ~1e-6 rad by the finite
    # difference steps: exp_se3 once took b = (1 - cos a) / a^2 there, and
    # its translation noise put the oracle 5e-5 off
    @example(kind=M.SE3, log_ratio=0.0, angle=0.0, seed=0)
    def test_certified_against_finite_differences(self, kind, log_ratio,
                                                  angle, seed):
        """Criterion 1's bound on every group, dt2/dt1 from 1e-3 to 1e3 and
        the scaled increment alpha * delta1 turning by up to pi - 0.3."""
        rng = np.random.default_rng(seed)
        alpha = 10.0 ** log_ratio
        dt1 = rng.uniform(0.1, 2.0)
        axis = rng.normal(size=3)
        scaled = axis * (angle / np.linalg.norm(axis))  # alpha * delta1
        eps = rng.normal(0.0, 0.2, kind.dim)
        if kind == M.SE3:
            scaled = np.concatenate([rng.normal(0.0, 1.0, 3), scaled])
            X0 = random_pose(rng)
        elif kind == M.SO3:
            X0 = random_rotation(rng)
        else:
            X0 = EuclidPoint(rng.normal(0.0, 3.0, 3))
        X1 = M.oplus(kind, X0, scaled / alpha)
        X2 = M.oplus(kind, M.oplus(kind, X1, scaled), eps)
        keys = tuple(VariableKey(i, kind, float(i)) for i in range(3))
        values = Values(dict(zip(keys, (X0, X1, X2))))
        f = ct_factor(keys, ConstantTwistSpec(dt1, alpha * dt1,
                                              np.eye(kind.dim)))
        for key, J in zip(keys, f.jacobian_fn(values)):
            J_fd = finite_difference_jacobian(f.residual_fn, values, key)
            err = np.abs(J - J_fd).max() / max(1.0, np.abs(J_fd).max())
            assert err <= 1e-5, (key.id, err)

    def test_interpolation_minimizer_is_geodesic_midpoint(self, rng):
        # anchors at T0 and T2, free middle: zero residual at the
        # constant-twist midpoint T0 * Exp(Log(T0^-1 T2) / 2)
        T0 = random_pose(rng, 1.0)
        T2 = M.oplus(M.SE3, T0, rng.normal(0.0, 0.5, 6))
        midpoint = M.oplus(M.SE3, T0, M.ominus(M.SE3, T2, T0) / 2.0)

        keys = [se3_key(i) for i in range(3)]
        graph = FactorGraph()
        graph.add(prior_factor(keys[0], T0, np.eye(6) * 1e-10))
        graph.add(prior_factor(keys[2], T2, np.eye(6) * 1e-10))
        graph.add(ct_factor(tuple(keys),
                            ConstantTwistSpec(1.0, 1.0, np.eye(6) * 0.01)))
        values = Values()
        values.set(keys[0], T0)
        values.set(keys[2], T2)
        values.set(keys[1], M.oplus(M.SE3, midpoint, rng.normal(0.0, 0.1, 6)))
        solution, report = optimize(graph, values)
        assert report.converged
        err = M.ominus(M.SE3, solution.get(keys[1]), midpoint)
        assert np.max(np.abs(err)) < 1e-7

    def test_factor_validation(self):
        with pytest.raises(ManifoldMismatchError):
            ct_factor((se3_key(0), r3_key(1), se3_key(2)),
                      ConstantTwistSpec(1.0, 1.0, np.eye(6)))
        with pytest.raises(ValueError):
            ct_factor((se3_key(0, 1.0), se3_key(1, 1.0), se3_key(2, 2.0)),
                      ConstantTwistSpec(1.0, 1.0, np.eye(6)))
        with pytest.raises(ValueError):
            ConstantTwistSpec(-1.0, 1.0, np.eye(6))

    @pytest.mark.parametrize("times", [(0.0, 1.0, 1.0), (0.0, 0.0, 1.0),
                                       (0.0, 2.0, 1.0)])
    def test_tables_refuse_non_increasing_times(self, times):
        """One triple whose times do not increase, after one that does,
        fails the whole call."""
        good = [se3_key(i) for i in range(3)]
        bad = [se3_key(3 + i, t) for i, t in enumerate(times)]
        with pytest.raises(ValueError,
                           match="^constant-twist keys must have strictly "
                                 "increasing timestamps$"):
            ct_tables(*zip(good, bad), lambda kind: np.eye(6))

    def test_effective_covariance_scales_with_horizon(self):
        spec = ConstantTwistSpec(0.5, 2.0, np.eye(6) * 0.04)
        np.testing.assert_allclose(spec.effective_covariance(),
                                   np.eye(6) * 0.08)
        assert spec.alpha == pytest.approx(4.0)


class TestPriorAndRelativePose:
    def test_prior_zero_at_mean(self, rng):
        T = random_pose(rng)
        k = se3_key(0)
        f = prior_factor(k, T, np.eye(6))
        values = Values()
        values.set(k, T)
        assert np.max(np.abs(f.residual_fn(values))) < 1e-12

    def test_prior_jacobian_fd(self, rng):
        for kind, sampler in ((M.SE3, lambda: random_pose(rng, 1.0)),
                              (M.R3, lambda: EuclidPoint(rng.normal(size=3)))):
            k = VariableKey(0, kind, 0.0)
            f = prior_factor(k, sampler(), np.eye(kind.dim))
            values = Values()
            values.set(k, sampler())
            check_factor_jacobians(f, values)

    def test_relative_pose_zero_at_measurement(self, rng):
        A = random_pose(rng, 1.0)
        z = M.exp_se3(rng.normal(0.0, 0.4, 6))
        B = M.compose(A, z)
        ka, kb = se3_key(0), se3_key(1)
        f = relative_pose_factor(ka, kb, z, np.eye(6))
        values = Values()
        values.set(ka, A)
        values.set(kb, B)
        assert np.max(np.abs(f.residual_fn(values))) < 1e-12

    def test_relative_pose_jacobian_fd(self, rng):
        ka, kb = se3_key(0), se3_key(1)
        f = relative_pose_factor(ka, kb, random_pose(rng, 1.0), np.eye(6))
        values = Values()
        values.set(ka, random_pose(rng, 1.0))
        values.set(kb, random_pose(rng, 1.0))
        check_factor_jacobians(f, values)

    def test_relative_pose_needs_se3(self):
        with pytest.raises(ManifoldMismatchError):
            relative_pose_factor(se3_key(0), r3_key(1), Pose3.identity(),
                                 np.eye(6))


class TestUsblFactor:
    def test_identity_chaser_residual(self):
        kc, kt = se3_key(0), r3_key(1)
        z = np.array([1.0, 2.0, 3.0])
        f = usbl_factor(kc, kt, z, np.eye(3))
        values = Values()
        values.set(kc, Pose3.identity())
        values.set(kt, EuclidPoint(np.array([2.0, 2.0, 3.0])))
        np.testing.assert_allclose(f.residual_fn(values), [1.0, 0.0, 0.0])

    def test_yawed_chaser_rotates_offset(self):
        # chaser yawed +90 deg: target at world (0, 5, 0) appears at
        # body-frame (5, 0, 0)
        kc, kt = se3_key(0), r3_key(1)
        yaw90 = Pose3(M.exp_so3(np.array([0.0, 0.0, np.pi / 2])), np.zeros(3))
        f = usbl_factor(kc, kt, np.zeros(3), np.eye(3))
        values = Values()
        values.set(kc, yaw90)
        values.set(kt, EuclidPoint(np.array([0.0, 5.0, 0.0])))
        np.testing.assert_allclose(f.residual_fn(values), [5.0, 0.0, 0.0],
                                   atol=1e-12)

    @pytest.mark.parametrize("target_kind", ["SE3", "RN"])
    def test_jacobian_fd(self, rng, target_kind):
        kc = se3_key(0)
        kt = se3_key(1) if target_kind == "SE3" else r3_key(1)
        f = usbl_factor(kc, kt, rng.normal(size=3), np.eye(3))
        values = Values()
        values.set(kc, random_pose(rng, 1.0))
        values.set(kt, random_pose(rng, 1.0) if target_kind == "SE3"
                   else EuclidPoint(rng.normal(0.0, 3.0, 3)))
        check_factor_jacobians(f, values)

    def test_validation(self):
        with pytest.raises(ManifoldMismatchError):
            usbl_factor(r3_key(0), r3_key(1), np.zeros(3), np.eye(3))
        with pytest.raises(ManifoldMismatchError):
            usbl_factor(se3_key(0), VariableKey(1, M.SO3, 0.0), np.zeros(3),
                        np.eye(3))
        with pytest.raises(ManifoldMismatchError):
            usbl_factor(se3_key(0), VariableKey(1, M.rn(2), 0.0), np.zeros(3),
                        np.eye(3))


class TestRollPitchFactor:
    def test_zero_for_any_yaw(self, rng):
        k = se3_key(0)
        f = roll_pitch_factor(k)
        for _ in range(20):
            yaw = rng.uniform(-np.pi, np.pi)
            T = Pose3(M.exp_so3(np.array([0.0, 0.0, yaw])),
                      rng.normal(size=3))
            values = Values()
            values.set(k, T)
            assert np.max(np.abs(f.residual_fn(values))) < 1e-12

    def test_pure_roll_magnitude(self):
        k = se3_key(0)
        f = roll_pitch_factor(k)
        T = Pose3(M.exp_so3(np.array([0.1, 0.0, 0.0])), np.zeros(3))
        values = Values()
        values.set(k, T)
        r = f.residual_fn(values)
        assert np.linalg.norm(r) == pytest.approx(2.0 * np.tan(0.05), abs=1e-9)

    def test_jacobian_fd(self, rng):
        k = se3_key(0)
        f = roll_pitch_factor(k)
        for _ in range(20):
            R = Rotation3(
                M.exp_so3(np.array([0.0, 0.0, rng.uniform(-np.pi, np.pi)]))
                .matrix @ M.exp_so3(rng.normal(0.0, 0.2, 3)).matrix)
            values = Values()
            values.set(k, Pose3(R, rng.normal(size=3)))
            check_factor_jacobians(f, values)

    def test_first_order_is_minus_roll_and_pitch(self, rng):
        """To first order the residual is (-roll, -pitch): the roll-pitch
        part of Log(R^T Rz(yaw)), the rotation with its yaw taken out."""
        k = se3_key(0)
        f = roll_pitch_factor(k)
        for eps in (1e-2, 1e-3, 1e-4):
            for _ in range(10):
                roll, pitch = rng.uniform(-eps, eps, 2)
                Rz = M.exp_so3(np.array([0.0, 0.0, rng.uniform(-np.pi, np.pi)]))
                R = (Rz.matrix @ M.exp_so3(np.array([0.0, pitch, 0.0])).matrix
                     @ M.exp_so3(np.array([roll, 0.0, 0.0])).matrix)
                values = Values()
                values.set(k, Pose3(Rotation3(R), np.zeros(3)))
                upright = M.log_so3(Rotation3(R.T @ Rz.matrix))[:2]
                r = f.residual_fn(values)
                assert np.max(np.abs(r - upright)) <= eps * eps
                assert np.max(np.abs(r + [roll, pitch])) <= eps * eps

    @settings(max_examples=60, deadline=None)
    @given(st.floats(2.8, np.pi - 1e-3), st.floats(-np.pi, np.pi),
           st.sampled_from([0.0, 0.3, -0.3]))
    def test_certified_near_inversion(self, roll, yaw, pitch):
        """Criterion 1's measure up to a tilt of pi - 1e-3."""
        self._assert_certified(yaw, pitch, roll)

    @pytest.mark.parametrize("pitch", [np.pi / 2, -np.pi / 2])
    @pytest.mark.parametrize("roll", [0.0, 0.4, -2.0])
    def test_certified_at_vertical_pitch(self, pitch, roll):
        for yaw in (0.0, 0.7, -2.5):
            self._assert_certified(yaw, pitch, roll)

    @staticmethod
    def _assert_certified(yaw, pitch, roll):
        k = se3_key(0)
        f = roll_pitch_factor(k)
        R = (M.exp_so3(np.array([0.0, 0.0, yaw])).matrix
             @ M.exp_so3(np.array([0.0, pitch, 0.0])).matrix
             @ M.exp_so3(np.array([roll, 0.0, 0.0])).matrix)
        values = Values()
        values.set(k, Pose3(Rotation3(R), np.array([1.0, -2.0, 0.5])))
        (J,) = f.jacobian_fn(values)
        J_fd = finite_difference_jacobian(f.residual_fn, values, k)
        assert np.abs(J - J_fd).max() / max(1.0, np.abs(J_fd).max()) <= 1e-5

    def test_inverted_target_is_rejected(self):
        k = se3_key(0)
        f = roll_pitch_factor(k)
        for tilt in (np.pi, np.pi - 0.5 * M.NEAR_PI_MARGIN):
            values = Values()
            values.set(k, Pose3(M.exp_so3(np.array([tilt, 0.0, 0.0])),
                                np.zeros(3)))
            with pytest.raises(NearSingularError, match="tilt"):
                f.residual_fn(values)

    def test_needs_se3(self):
        with pytest.raises(ManifoldMismatchError):
            roll_pitch_factor(r3_key(0))


class TestBoundaryFactors:
    def test_zero_when_translations_agree(self, rng):
        T = random_pose(rng, 1.0)
        kT, kp = se3_key(0, 5.0), r3_key(1, 5.0)
        (f,) = boundary_factors(kT, kp, "DOWN", np.eye(3) * 1e-4)
        values = Values()
        values.set(kT, T)
        values.set(kp, EuclidPoint(T.translation.copy()))
        assert np.max(np.abs(f.residual_fn(values))) < 1e-12

    def test_residual_is_translation_gap(self, rng):
        T = random_pose(rng, 1.0)
        kT, kp = se3_key(0), r3_key(1)
        (f,) = boundary_factors(kT, kp, "UP", np.eye(3) * 1e-4)
        gap = np.array([0.3, -0.1, 0.2])
        values = Values()
        values.set(kT, T)
        values.set(kp, EuclidPoint(T.translation + gap))
        np.testing.assert_allclose(f.residual_fn(values), gap, atol=1e-12)

    @pytest.mark.parametrize("direction", ["DOWN", "UP"])
    def test_jacobian_fd(self, rng, direction):
        kT, kp = se3_key(0), r3_key(1)
        (f,) = boundary_factors(kT, kp, direction, np.eye(3) * 1e-4)
        values = Values()
        values.set(kT, random_pose(rng, 1.0))
        values.set(kp, EuclidPoint(rng.normal(size=3)))
        check_factor_jacobians(f, values)

    def test_validation(self):
        with pytest.raises(ValueError):
            boundary_factors(se3_key(0), r3_key(1), "SIDEWAYS", np.eye(3))
        with pytest.raises(ManifoldMismatchError):
            boundary_factors(r3_key(0), r3_key(1), "DOWN", np.eye(3))
        with pytest.raises(ManifoldMismatchError):
            boundary_factors(se3_key(0), VariableKey(1, M.rn(2), 0.0), "DOWN",
                             np.eye(3))


def spd(rng, d):
    A = rng.normal(size=(d, d))
    return A @ A.T + np.eye(d)


def per_factor_and_table_rows(rng):
    """(per-factor view, the one-row table that makes the same factor) for
    every family, with the Values both are evaluated at."""
    se3 = [se3_key(i, 0.3 * i + 0.1 * i * i) for i in range(3)]
    so3 = [VariableKey(10 + i, M.SO3, 0.7 * i) for i in range(3)]
    rn = [VariableKey(20 + i, M.rn(4), 0.5 * i) for i in range(3)]
    r3 = r3_key(30, 2.0)
    values = Values()
    for key in se3:
        values.set(key, random_pose(rng, max_angle=1.0))
    for key in so3:
        values.set(key, random_rotation(rng, max_angle=1.0))
    for key in rn:
        values.set(key, EuclidPoint(rng.normal(size=4)))
    values.set(r3, EuclidPoint(rng.normal(size=3)))
    out = []
    for keys in (se3, so3, rn):
        base = spd(rng, keys[0].kind.dim)
        t = [k.timestamp for k in keys]
        out.append((ct_factor(tuple(keys), ConstantTwistSpec(
            t[1] - t[0], t[2] - t[1], base)),
            ct_tables(*[[k] for k in keys], lambda kind: base)))
    for key, mean in ((se3[0], random_pose(rng)), (so3[0], random_rotation(rng)),
                      (rn[0], EuclidPoint(rng.normal(size=4)))):
        cov = spd(rng, key.kind.dim)
        out.append((prior_factor(key, mean, cov),
                    prior_tables([key], [mean], cov)))
    z, cov = random_pose(rng), spd(rng, 6)
    out.append((relative_pose_factor(se3[0], se3[1], z, cov),
                relative_pose_tables([se3[0]], [se3[1]], [z], cov)))
    for target in (se3[2], r3):
        z, cov = rng.normal(size=3), spd(rng, 3)
        out.append((usbl_factor(se3[0], target, z, cov),
                    usbl_tables([se3[0]], [target], [z], cov)))
    spec = RollPitchSpec(covariance=spd(rng, 2))
    out.append((roll_pitch_factor(se3[1], spec),
                roll_pitch_tables([se3[1]], spec.covariance)))
    for direction in ("DOWN", "UP"):
        cov = spd(rng, 3)
        (f,) = boundary_factors(se3[2], r3, direction, cov)
        out.append((f, boundary_tables([se3[2]], [r3], direction, cov)))
    return [(f, t.family.view(t, 0)) for f, (t,) in out], values


class TestPerFactorViews:
    """A per-factor constructor makes the view of its factor's table row,
    with its closures and name made once, when first read."""

    def test_equals_the_view_of_its_table_row(self, rng):
        views, values = per_factor_and_table_rows(rng)
        assert len(views) == 12
        for f, row in views:
            assert (f.name, f.keys, f.family) == (row.name, row.keys,
                                                   row.family)
            assert_identical(f.noise.covariance, row.noise.covariance)
            assert_identical(f.noise.sqrt_info, row.noise.sqrt_info)
            for a, b in zip(f.family_params, row.family_params):
                assert_identical(a, b)
            assert_identical(f.residual_fn(values), row.residual_fn(values))
            Js, Js_row = f.jacobian_fn(values), row.jacobian_fn(values)
            assert len(Js) == len(Js_row) == len(f.keys)
            for J, J_row in zip(Js, Js_row):
                assert_identical(J, J_row)

    def test_closures_are_made_once_and_can_be_replaced(self, rng):
        views, values = per_factor_and_table_rows(rng)
        for f, _ in views:
            assert f.residual_fn is f.residual_fn
            assert f.jacobian_fn is f.jacobian_fn
            residual, jacobian, name = f.residual_fn, f.jacobian_fn, f.name
            f.residual_fn = lambda v: ("residual", residual(v))
            f.jacobian_fn = lambda v: ("jacobian", jacobian(v))
            assert f.residual_fn(values)[0] == "residual"
            assert f.jacobian_fn(values)[0] == "jacobian"
            assert f.name == name
            copy = dataclasses.replace(f, family=None)
            assert copy.family is None
            assert copy.residual_fn is f.residual_fn
            assert (copy.name, copy.keys, copy.noise) == (name, f.keys,
                                                          f.noise)

    def test_closures_and_name_wait_for_their_first_read(self, rng):
        views, _ = per_factor_and_table_rows(rng)
        for f, row in views:
            for view in (f, row):
                made = {"residual_fn", "jacobian_fn", "name"}
                assert not made & set(vars(view))
                view.name
                assert made <= set(vars(view))

    def test_equal_covariances_share_one_noise_model(self, rng):
        cov = spd(rng, 6)
        a, b, c = (se3_key(i) for i in range(3))
        T = random_pose(rng)
        factors = [prior_factor(a, T, cov), prior_factor(b, T, cov.copy()),
                   relative_pose_factor(a, b, T, cov),
                   ct_factor((a, b, c), ConstantTwistSpec(1.0, 1.0, cov))]
        assert len({id(f.noise) for f in factors}) == 1
        assert not factors[0].noise.covariance.flags.writeable
        assert factors[0].noise is NoiseModel.of(cov)
        assert prior_factor(a, T, 2.0 * cov).noise is not factors[0].noise
        assert_identical(factors[0].noise.sqrt_info, NoiseModel(cov).sqrt_info)

    def test_a_new_kind_object_resolves_its_own_family(self):
        """Kind objects made and dropped one after another (so that a new
        one may take a freed one's id) each get their own family."""
        for _ in range(50):
            point = VariableKey(0, M.rn(3), 0.0)
            prior_factor(point, EuclidPoint(np.zeros(3)), np.eye(3))
            del point
            key = VariableKey(1, M.ManifoldKind("SO3", 3), 1.0)
            f = prior_factor(key, Rotation3.identity(), np.eye(3))
            assert f.family.group is M.SO3.group
