"""Concrete factor library.

The centerpiece is the ternary constant-twist prior with closed-form
Jacobians; the rest are the measurement and regularization factors used by
the tracking graphs: priors, relative pose, partial position (USBL),
roll-pitch, and representation-boundary factors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import manifold
from .manifold import (
    EuclidPoint,
    ManifoldKind,
    ManifoldMismatchError,
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


_S_RP = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_SKEW_E0 = skew(np.array([1.0, 0.0, 0.0]))
_E2 = np.array([0.0, 0.0, 1.0])


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
# Constant-twist residual and Jacobians (any manifold kind).


def ct_residual(T_prev, T_curr, T_next, dt1: float, dt2: float,
                kind: ManifoldKind | None = None) -> np.ndarray:
    """Deviation of T_next from replaying the twist seen over (T_prev, T_curr).

    Five steps: relative increment, twist estimate, scaled increment,
    prediction, and tangent-space deviation at the prediction.
    """
    if dt1 <= 0 or dt2 <= 0:
        raise ValueError("dt1 and dt2 must be positive")
    return _ct_steps(T_prev, T_curr, T_next, dt2 / dt1,
                     kind or manifold.kind_of(T_curr))[2]


def _ct_steps(T_prev, T_curr, T_next, alpha: float, kind: ManifoldKind):
    """The relative increment, the scaled increment and the residual."""
    try:
        delta1 = manifold.ominus(kind, T_curr, T_prev)
    except NearSingularError as err:
        raise NearSingularError(f"relative increment step: {err}") from err
    delta2 = alpha * delta1
    predicted = manifold.oplus(kind, T_curr, delta2)
    try:
        return delta1, delta2, manifold.ominus(kind, T_next, predicted)
    except NearSingularError as err:
        raise NearSingularError(f"residual step: {err}") from err


def ct_jacobians(T_prev, T_curr, T_next, dt1: float, dt2: float,
                 kind: ManifoldKind | None = None):
    """Closed-form derivative blocks of ct_residual w.r.t. the three states.

    Right-tangent perturbation convention; on R^n the blocks reduce exactly
    to (alpha I, -(1 + alpha) I, I) with alpha = dt2/dt1.
    """
    kind = kind or manifold.kind_of(T_curr)
    alpha = dt2 / dt1
    delta1, delta2, eps = _ct_steps(T_prev, T_curr, T_next, alpha, kind)
    neg_jl_inv_eps = -manifold.jl_inv(kind, eps)
    common = alpha * (neg_jl_inv_eps @ manifold.jr(kind, delta2))
    J_prev = common @ (-manifold.jl_inv(kind, delta1))
    J_curr = common @ manifold.jr_inv(kind, delta1) \
        + neg_jl_inv_eps @ manifold.adjoint_inv_of_exp(kind, delta2)
    J_next = manifold.jr_inv(kind, eps)
    return J_prev, J_curr, J_next


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

    dt1, dt2 = spec.dt1, spec.dt2

    def residual(values: Values) -> np.ndarray:
        return ct_residual(values.get(k_prev), values.get(k_curr),
                           values.get(k_next), dt1, dt2, kind)

    def jacobian(values: Values):
        return ct_jacobians(values.get(k_prev), values.get(k_curr),
                            values.get(k_next), dt1, dt2, kind)

    return Factor(keys=(k_prev, k_curr, k_next), residual_fn=residual,
                  jacobian_fn=jacobian,
                  noise=NoiseModel(spec.effective_covariance()),
                  name=f"ct[{k_prev.id},{k_curr.id},{k_next.id}]",
                  family=_family(_ct_batch, kind.group),
                  family_params=(spec.alpha,))


# ---------------------------------------------------------------------------
# Priors and measurement factors.


def prior_factor(key: VariableKey, mean, covariance: np.ndarray) -> Factor:
    kind = key.kind

    def residual(values: Values) -> np.ndarray:
        return manifold.ominus(kind, values.get(key), mean)

    def jacobian(values: Values):
        eps = manifold.ominus(kind, values.get(key), mean)
        return (manifold.jr_inv(kind, eps),)

    return Factor(keys=(key,), residual_fn=residual, jacobian_fn=jacobian,
                  noise=NoiseModel(covariance), name=f"prior[{key.id}]",
                  family=_family(_prior_batch, kind.group),
                  family_params=kind.group.parts(mean))


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
# Roll-pitch prior.

_GIMBAL_TOL = 1e-3


def yaw_of(R: np.ndarray) -> float:
    """ZYX yaw; guarded against gimbal lock."""
    pitch = -np.arcsin(np.clip(R[2, 0], -1.0, 1.0))
    if abs(pitch) > np.pi / 2 - _GIMBAL_TOL:
        raise NearSingularError(f"pitch {pitch} too close to +-pi/2 for yaw extraction")
    return float(np.arctan2(R[1, 0], R[0, 0]))


def _rz(psi: float) -> np.ndarray:
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def roll_pitch_factor(target_key: VariableKey,
                      spec: RollPitchSpec | None = None) -> Factor:
    """Penalizes roll and pitch of an SE(3) target, invariant to yaw."""
    if target_key.kind.tag != "SE3":
        raise ManifoldMismatchError("roll-pitch factor needs an SE(3) key")
    spec = spec or RollPitchSpec()

    def _log_upright(R: np.ndarray) -> np.ndarray:
        return manifold.log_so3(manifold.Rotation3(R.T @ _rz(yaw_of(R))))

    def residual(values: Values) -> np.ndarray:
        R = values.get(target_key).rotation.matrix
        return _S_RP @ _log_upright(R)

    def jacobian(values: Values):
        R = values.get(target_key).rotation.matrix
        E = _log_upright(R)
        # d(yaw)/d(theta) for a right perturbation R Exp([theta]x)
        r00, r10 = R[0, 0], R[1, 0]
        denom = r00 * r00 + r10 * r10
        d_r00 = -(R[0, :] @ _SKEW_E0)
        d_r10 = -(R[1, :] @ _SKEW_E0)
        d_psi = (r00 * d_r10 - r10 * d_r00) / denom
        J_theta = _S_RP @ (-manifold.jl_inv_so3(E)
                           + manifold.jr_inv(manifold.SO3, E)
                           @ np.outer(_E2, d_psi))
        return (np.hstack([np.zeros((2, 3)), J_theta]),)

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
# manifold.Group stack per key. _family binds the constant-twist and prior
# families to a group. Inverses are taken where the closures take them, so
# that every product rounds as it does in the closures.


@functools.cache
def _family(batch, group: manifold.Group):
    """`batch` bound to `group`, one object per pair: the Linearizer
    batches the factors that share a family object."""
    return functools.partial(batch, group)


def _ct_batch(group, params, states):
    (alpha,) = params
    prev, curr, nxt = states
    ops = group.batch
    delta1 = ops.ominus(curr, prev)
    delta2 = alpha[:, None] * delta1
    E2 = ops.exp(delta2)
    eps = ops.ominus(nxt, ops.compose(curr, E2))

    neg_jl_inv_eps = -ops.jl_inv(eps)
    common = alpha[:, None, None] * (neg_jl_inv_eps @ ops.jr(delta2))
    J_prev = common @ (-ops.jl_inv(delta1))
    J_curr = common @ ops.jr_inv(delta1) \
        + neg_jl_inv_eps @ ops.adjoint_inv(E2)
    J_next = ops.jr_inv(eps)
    return eps, (J_prev, J_curr, J_next)


def _prior_batch(group, params, states):
    (x,) = states
    eps = group.batch.ominus(x, params)
    return eps, (group.batch.jr_inv(eps),)


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
    pitch = -np.arcsin(np.clip(R[:, 2, 0], -1.0, 1.0))
    locked = np.abs(pitch) > np.pi / 2 - _GIMBAL_TOL
    if locked.any():
        raise NearSingularError(f"pitch {pitch[np.argmax(locked)]} too close "
                                f"to +-pi/2 for yaw extraction")
    psi = np.arctan2(R[:, 1, 0], R[:, 0, 0])
    c, s = np.cos(psi), np.sin(psi)
    Rz = np.zeros_like(R)
    Rz[:, 0, 0], Rz[:, 0, 1], Rz[:, 1, 0], Rz[:, 1, 1] = c, -s, s, c
    Rz[:, 2, 2] = 1.0
    E = manifold.log_so3_batch(R.transpose(0, 2, 1) @ Rz)

    r00, r10 = R[:, 0, 0, None], R[:, 1, 0, None]
    d_r00 = -(R[:, 0, :] @ _SKEW_E0)
    d_r10 = -(R[:, 1, :] @ _SKEW_E0)
    e2_d_psi = np.zeros_like(R)  # np.outer(_E2, d_psi) per row
    e2_d_psi[:, 2, :] = (r00 * d_r10 - r10 * d_r00) / (r00 * r00 + r10 * r10)
    J_theta = _S_RP @ (-manifold.jl_inv_so3_batch(E)
                       + manifold.SO3.group.batch.jr_inv(E) @ e2_d_psi)
    J = np.concatenate([np.zeros(J_theta.shape), J_theta], axis=2)
    return (_S_RP @ E[:, :, None])[:, :, 0], (J,)


def _boundary_batch(params, states):
    (R, t), (p,) = states
    J_T = np.concatenate([-R, np.zeros_like(R)], axis=2)
    return p - t, (J_T, np.broadcast_to(np.eye(3), R.shape))
