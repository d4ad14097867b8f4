"""Concrete factor library.

The centerpiece is the ternary constant-twist prior with closed-form
Jacobians; the rest are the measurement and regularization factors used by
the tracking graphs: priors, relative pose, partial position (USBL),
roll-pitch, and representation-boundary factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import manifold
from .manifold import (
    EuclidPoint,
    ManifoldMismatchError,
    NEAR_PI_MARGIN,
    NearSingularError,
    Pose3,
    skew,
)
from .fgraph import Factor, NoiseModel, Values, VariableKey


@dataclass(kw_only=True)
class MeasurementSigmas:
    """Default measurement noise, as standard deviations in m and rad: the
    one definition that the simulation, tracking and run configurations
    take theirs from."""

    odom_sigma_pos: float = 0.002  # per odometry record
    odom_sigma_rot: float = 0.0005
    usbl_sigma: float = 1.5
    optical_sigma_pos: float = 0.05
    optical_sigma_rot: float = 0.01


@dataclass(kw_only=True)
class NoiseSigmas(MeasurementSigmas):
    """MeasurementSigmas plus the smoother's process and prior sigmas."""

    ct_sigma_pos: float = 0.05  # per sqrt-second
    ct_sigma_rot: float = 0.005
    rp_sigma: float = 0.05
    boundary_sigma: float = 0.01
    chaser_prior_sigma_pos: float = 1e-4
    chaser_prior_sigma_rot: float = 1e-4
    target_prior_sigma_pos: float = 10.0
    target_prior_sigma_rot: float = 0.5


@dataclass(frozen=True)
class ConstantTwistSpec:
    """Timing and covariance of one constant-twist factor.

    The effective covariance grows linearly with the prediction horizon:
    Sigma_ct = dt2 * base_covariance.
    """

    dt1: float
    dt2: float
    base_covariance: np.ndarray

    def __post_init__(self):
        if self.dt1 <= 0 or self.dt2 <= 0:
            raise ValueError(f"dt1, dt2 must be positive (got {self.dt1}, {self.dt2})")

    @property
    def alpha(self) -> float:
        return self.dt2 / self.dt1

    def effective_covariance(self) -> np.ndarray:
        return self.dt2 * np.asarray(self.base_covariance, dtype=float)


@dataclass(frozen=True)
class RollPitchSpec:
    covariance: np.ndarray = field(
        default_factory=lambda: np.eye(2) * NoiseSigmas().rp_sigma ** 2)


# ---------------------------------------------------------------------------
# Constant-twist residual and Jacobians, written once against a group table:
# `ops` is a manifold.Group on elements, with a float alpha, or its `batch`
# on stacks, with alpha an (N, 1) column.


def _ct_steps(ops, alpha, prev, curr, nxt):
    """The relative increment, the scaled increment, its Exp and the
    residual: the deviation of `nxt` from replaying the twist seen over
    (`prev`, `curr`) for alpha times as long."""
    try:
        delta1 = ops.ominus(curr, prev)
    except NearSingularError as err:
        raise NearSingularError(f"relative increment step: {err}") from err
    delta2 = alpha * delta1
    E2 = ops.exp(delta2)
    try:
        return delta1, delta2, E2, ops.ominus(nxt, ops.compose(curr, E2))
    except NearSingularError as err:
        raise NearSingularError(f"residual step: {err}") from err


def _ct(ops, alpha, prev, curr, nxt):
    """The residual and its closed-form blocks w.r.t. the three states.

    Right-tangent perturbation convention; on R^n the blocks reduce exactly
    to (alpha I, -(1 + alpha) I, I).
    """
    delta1, delta2, E2, eps = _ct_steps(ops, alpha, prev, curr, nxt)
    neg_jl_inv_eps = -ops.jl_inv(eps)
    common = np.expand_dims(alpha, -1) * (neg_jl_inv_eps @ ops.jr(delta2))
    J_prev = common @ (-ops.jl_inv(delta1))
    J_curr = common @ ops.jr_inv(delta1) \
        + neg_jl_inv_eps @ ops.adjoint_inv(E2)
    J_next = ops.jr_inv(eps)
    return eps, (J_prev, J_curr, J_next)


def ct_residual(T_prev, T_curr, T_next, dt1: float, dt2: float) -> np.ndarray:
    """Deviation of T_next from replaying the twist seen over (T_prev, T_curr)."""
    if dt1 <= 0 or dt2 <= 0:
        raise ValueError("dt1 and dt2 must be positive")
    return _ct_steps(manifold.kind_of(T_curr).group, dt2 / dt1,
                     T_prev, T_curr, T_next)[3]


def ct_jacobians(T_prev, T_curr, T_next, dt1: float, dt2: float):
    """Closed-form derivative blocks of ct_residual w.r.t. the three states."""
    return _ct(manifold.kind_of(T_curr).group, dt2 / dt1,
               T_prev, T_curr, T_next)[1]


def ct_factor(keys: tuple[VariableKey, VariableKey, VariableKey],
              spec: ConstantTwistSpec) -> Factor:
    k_prev, k_curr, k_next = keys
    kind = k_curr.kind
    if not (k_prev.kind == k_curr.kind == k_next.kind):
        raise ManifoldMismatchError(
            f"constant-twist triple must share one manifold kind, got "
            f"{k_prev.kind}, {k_curr.kind}, {k_next.kind}")
    if not (k_prev.timestamp < k_curr.timestamp < k_next.timestamp):
        raise ValueError("constant-twist keys must have strictly increasing timestamps")

    ops, alpha = kind.group, spec.alpha

    def residual(values: Values) -> np.ndarray:
        return _ct_steps(ops, alpha, values.get(k_prev), values.get(k_curr),
                         values.get(k_next))[3]

    def jacobian(values: Values):
        return _ct(ops, alpha, values.get(k_prev), values.get(k_curr),
                   values.get(k_next))[1]

    return Factor(keys=(k_prev, k_curr, k_next), residual_fn=residual,
                  jacobian_fn=jacobian,
                  noise=NoiseModel(spec.effective_covariance()),
                  name=f"ct[{k_prev.id},{k_curr.id},{k_next.id}]",
                  family=_family(_ct_batch, kind.group),
                  family_params=(alpha,))


# ---------------------------------------------------------------------------
# Priors and measurement factors.


def _prior(ops, mean, x):
    """The residual x (-) mean and its block, on elements or on stacks."""
    eps = ops.ominus(x, mean)
    return eps, (ops.jr_inv(eps),)


def prior_factor(key: VariableKey, mean, covariance: np.ndarray) -> Factor:
    group = key.kind.group

    def residual(values: Values) -> np.ndarray:
        return group.ominus(values.get(key), mean)

    def jacobian(values: Values):
        return _prior(group, mean, values.get(key))[1]

    return Factor(keys=(key,), residual_fn=residual, jacobian_fn=jacobian,
                  noise=NoiseModel(covariance), name=f"prior[{key.id}]",
                  family=_family(_prior_batch, group),
                  family_params=group.parts(mean))


def relative_pose_factor(key_a: VariableKey, key_b: VariableKey, z: Pose3,
                         covariance: np.ndarray) -> Factor:
    if key_a.kind.tag != "SE3" or key_b.kind.tag != "SE3":
        raise ManifoldMismatchError("relative-pose factor needs two SE(3) keys")
    z_inv = manifold.inverse(z)

    def _rel(values: Values) -> Pose3:
        return manifold.compose(manifold.inverse(values.get(key_a)),
                                values.get(key_b))

    def residual(values: Values) -> np.ndarray:
        return manifold.log_se3(manifold.compose(z_inv, _rel(values)))

    def jacobian(values: Values):
        M = _rel(values)
        eps = manifold.log_se3(manifold.compose(z_inv, M))
        Jri = manifold.jr_inv_se3(eps)
        return -Jri @ manifold.adjoint_inv_se3(M), Jri

    return Factor(keys=(key_a, key_b), residual_fn=residual,
                  jacobian_fn=jacobian, noise=NoiseModel(covariance),
                  name=f"relpose[{key_a.id},{key_b.id}]",
                  family=_relative_pose_batch,
                  family_params=(z.rotation.matrix, z.translation))


def usbl_factor(chaser_key: VariableKey, target_key: VariableKey,
                z: np.ndarray, covariance: np.ndarray) -> Factor:
    """Chaser-frame offset to the target; target may be SE(3) or R^3."""
    if chaser_key.kind.tag != "SE3":
        raise ManifoldMismatchError("USBL factor needs an SE(3) chaser key")
    if target_key.kind.tag not in ("SE3", "RN"):
        raise ManifoldMismatchError("USBL target must be SE(3) or R^n")
    z = np.asarray(z, dtype=float)
    se3_target = target_key.kind.tag == "SE3"

    def _predict(values: Values) -> np.ndarray:
        chaser: Pose3 = values.get(chaser_key)
        tgt = values.get(target_key)
        p = tgt.translation if se3_target else tgt.coords
        return chaser.rotation.matrix.T @ (p - chaser.translation)

    def residual(values: Values) -> np.ndarray:
        return _predict(values) - z

    def jacobian(values: Values):
        chaser: Pose3 = values.get(chaser_key)
        h = _predict(values)
        J_chaser = np.hstack([-np.eye(3), skew(h)])
        if se3_target:
            tgt: Pose3 = values.get(target_key)
            J_target = np.hstack([
                chaser.rotation.matrix.T @ tgt.rotation.matrix, np.zeros((3, 3))])
        else:
            J_target = chaser.rotation.matrix.T
        return J_chaser, J_target

    return Factor(keys=(chaser_key, target_key), residual_fn=residual,
                  jacobian_fn=jacobian, noise=NoiseModel(covariance),
                  name=f"usbl[{chaser_key.id},{target_key.id}]",
                  family=_usbl_se3_batch if se3_target else _usbl_rn_batch,
                  family_params=(z,))


# ---------------------------------------------------------------------------
# Roll-pitch prior: the tilt of the body up axis g = R^T e_z, written once on
# one rotation matrix or a stack of them. With h = (e_z x g)_xy = (-g_y, g_x)
# the residual 2 h / (1 + g_z) has length 2 tan(tilt / 2): zero at any yaw,
# (-roll, -pitch) to first order, and defined at every tilt but an inverted
# target.

_TILT_FLIP = np.array([-1.0, 1.0])
# 1 + g_z at a tilt of pi - NEAR_PI_MARGIN
_INVERTED = 2.0 * math.sin(0.5 * NEAR_PI_MARGIN) ** 2


def _tilt_steps(R):
    """g, 1 + g_z (kept as an axis of length 1), h and the residual."""
    g = R[..., 2, :]
    c = 1.0 + g[..., 2:]
    if (c < _INVERTED).any():
        raise NearSingularError(f"tilt {np.arccos(max(-1.0, c.min() - 1.0))} "
                                f"within tolerance of pi")
    h = g[..., 1::-1] * _TILT_FLIP
    return g, c, h, 2.0 * h / c


def _tilt(R):
    """The residual and its block [0, J_theta]. A right perturbation
    R Exp(d) moves g by [g]x d_theta, so that
    J_theta = 2 / (1 + g_z) (A - h (h, 0)^T / (1 + g_z))
    with A = [[-g_z, 0, g_x], [0, -g_z, g_y]]."""
    g, c, h, r = _tilt_steps(R)
    J = np.zeros(g.shape[:-1] + (2, 6))
    J[..., 0, 3] = J[..., 1, 4] = -g[..., 2]
    J[..., 5] = g[..., :2]
    J[..., 3:5] -= h[..., :, None] * (h / c)[..., None, :]
    return r, (2.0 / c)[..., None] * J


def roll_pitch_factor(target_key: VariableKey,
                      spec: RollPitchSpec | None = None) -> Factor:
    """Penalizes the tilt (roll and pitch) of an SE(3) target, invariant to
    yaw."""
    if target_key.kind.tag != "SE3":
        raise ManifoldMismatchError("roll-pitch factor needs an SE(3) key")
    spec = spec or RollPitchSpec()

    def residual(values: Values) -> np.ndarray:
        return _tilt_steps(values.get(target_key).rotation.matrix)[3]

    def jacobian(values: Values):
        return (_tilt(values.get(target_key).rotation.matrix)[1],)

    return Factor(keys=(target_key,), residual_fn=residual,
                  jacobian_fn=jacobian, noise=NoiseModel(spec.covariance),
                  name=f"rollpitch[{target_key.id}]",
                  family=_roll_pitch_batch)


# ---------------------------------------------------------------------------
# Representation-boundary factors (R^3 <-> SE(3) switches).


def boundary_factors(se3_key: VariableKey, r3_key: VariableKey,
                     direction: str, covariance: np.ndarray) -> list[Factor]:
    """Translation-equality tie between paired SE(3) and R^3 target states.

    direction is "DOWN" (SE(3) chain hands off to R^3) or "UP" (the reverse);
    both use the same residual p - t(T).  Orientation of the SE(3) state is
    left to whatever factor triggered the representation change.
    """
    if direction not in ("DOWN", "UP"):
        raise ValueError(f"direction must be DOWN or UP, got {direction!r}")
    if se3_key.kind.tag != "SE3" or r3_key.kind.tag != "RN":
        raise ManifoldMismatchError("boundary factor needs (SE3, R^n) keys")

    def residual(values: Values) -> np.ndarray:
        T: Pose3 = values.get(se3_key)
        p: EuclidPoint = values.get(r3_key)
        return p.coords - T.translation

    def jacobian(values: Values):
        T: Pose3 = values.get(se3_key)
        J_T = np.hstack([-T.rotation.matrix, np.zeros((3, 3))])
        return J_T, np.eye(3)

    return [Factor(keys=(se3_key, r3_key), residual_fn=residual,
                   jacobian_fn=jacobian, noise=NoiseModel(covariance),
                   name=f"boundary-{direction}[{se3_key.id},{r3_key.id}]",
                   family=_boundary_batch)]


# ---------------------------------------------------------------------------
# Batched family evaluators.  Each one evaluates a stack of N factors of one
# family at once, step for step as its constructor's residual_fn and
# jacobian_fn do, with the manifold *_batch kernels:
#
#     family(params, states) -> (r (N, d), per-key Jacobians (N, d, dk))
#
# params are the factors' family_params stacked row by row; states hold one
# manifold.Group stack per key. The constant-twist and prior families run
# the closures' own _ct and _prior on the group's batch table; _family binds
# them to a group. The others repeat their closure with inverses taken where
# the closure takes them, so that every product rounds as it does there.


@functools.cache
def _family(batch, group: manifold.Group):
    """`batch` bound to `group`, one object per pair: the Linearizer
    batches the factors that share a family object."""
    return functools.partial(batch, group)


def _ct_batch(group, params, states):
    (alpha,) = params
    return _ct(group.batch, alpha[:, None], *states)


def _prior_batch(group, params, states):
    return _prior(group.batch, params, *states)


def _relative_pose_batch(params, states):
    (Ra, ta), (Rb, tb) = states
    ops = manifold.SE3.group.batch
    rel = manifold.compose_batch(*manifold.inverse_batch(Ra, ta), Rb, tb)
    eps = ops.ominus(rel, params)
    Jri = ops.jr_inv(eps)
    return eps, (-Jri @ ops.adjoint_inv(rel), Jri)


def _usbl_chaser_terms(chaser, p):
    """R_c^T, the predicted offset h and its chaser Jacobian [-I, [h]x]."""
    Rc, tc = chaser
    RcT = Rc.transpose(0, 2, 1)
    h = (RcT @ (p - tc)[:, :, None])[:, :, 0]
    J_chaser = np.concatenate(
        [np.broadcast_to(-np.eye(3), Rc.shape), manifold.skew_batch(h)], axis=2)
    return RcT, h, J_chaser


def _usbl_se3_batch(params, states):
    (z,) = params
    chaser, (Rt, tt) = states
    RcT, h, J_chaser = _usbl_chaser_terms(chaser, tt)
    return h - z, (J_chaser,
                   np.concatenate([RcT @ Rt, np.zeros_like(Rt)], axis=2))


def _usbl_rn_batch(params, states):
    (z,) = params
    chaser, (p,) = states
    RcT, h, J_chaser = _usbl_chaser_terms(chaser, p)
    return h - z, (J_chaser, RcT)


def _roll_pitch_batch(params, states):
    ((R, _),) = states
    r, J = _tilt(R)
    return r, (J,)


def _boundary_batch(params, states):
    (R, t), (p,) = states
    J_T = np.concatenate([-R, np.zeros_like(R)], axis=2)
    return p - t, (J_T, np.broadcast_to(np.eye(3), R.shape))
