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
    ManifoldMismatchError,
    NEAR_PI_MARGIN,
    NearSingularError,
    Pose3,
    skew,  # noqa: F401 -- perfbench's tracer test reads `factors.skew`
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
# Factor families. Each built-in family is one function
#
#     fn(*table, params, *states) -> (r, per-key Jacobians)
#
# with a residual-only companion `steps` of the same arguments, whose last
# output is r, so that a residual_fn builds no Jacobians. The constant-twist,
# prior and relative-pose families are written against a group table:
# `table` is a manifold.Group on elements, or its `batch` on stacks. The
# USBL, roll-pitch and boundary families take each key's parts instead, the
# arrays of one element or of a stack (`...`-shaped). `params` is the
# factor's family_params, stacked row by row on a batch; on elements the
# prior and relative-pose families take the group element whose parts they
# are. A factor's closures run fn and steps on its keys' elements, and its
# batch runs fn on the stacks the Linearizer holds.


@functools.cache
def _family(fn, group):
    """`fn` on stacks, after `group`'s batch table unless `group` is None:
    one object per pair, since the Linearizer batches the factors that
    share a family object."""
    table = () if group is None else (group.batch,)
    return lambda params, states: fn(*table, params, *states)


def _factor(fn, steps, group, keys, covariance, name, params=(),
            family_params=None) -> Factor:
    """A factor of the family (fn, steps) over `keys`, whose closures take
    `params` and whose batch takes `family_params` (by default the same).
    With a `group`, its closures run on the group's table and the keys'
    elements; without, on the elements' parts."""
    if group is None:
        table, parts = (), [key.kind.group.parts for key in keys]

        def states(values: Values):
            return map(lambda part, key: part(values.get(key)), parts, keys)
    else:
        table = (group,)

        def states(values: Values):
            return map(values.get, keys)

    return Factor(
        keys=keys, noise=NoiseModel(covariance), name=name,
        residual_fn=lambda values: steps(*table, params, *states(values))[-1],
        jacobian_fn=lambda values: fn(*table, params, *states(values))[1],
        family=_family(fn, group),
        family_params=params if family_params is None else family_params)


# ---------------------------------------------------------------------------
# Constant twist. alpha = dt2 / dt1 is a float on elements and a stack on
# batches.


def _ct_steps(ops, params, prev, curr, nxt):
    """The relative increment, the scaled increment, its Exp and the
    residual: the deviation of `nxt` from replaying the twist seen over
    (`prev`, `curr`) for alpha times as long."""
    (alpha,) = params
    try:
        delta1 = ops.ominus(curr, prev)
    except NearSingularError as err:
        raise NearSingularError(f"relative increment step: {err}") from err
    delta2 = np.asarray(alpha)[..., None] * delta1
    E2 = ops.exp(delta2)
    try:
        return delta1, delta2, E2, ops.ominus(nxt, ops.compose(curr, E2))
    except NearSingularError as err:
        raise NearSingularError(f"residual step: {err}") from err


def _ct(ops, params, prev, curr, nxt):
    """The residual and its closed-form blocks w.r.t. the three states.

    Right-tangent perturbation convention; on R^n the blocks reduce exactly
    to (alpha I, -(1 + alpha) I, I).
    """
    delta1, delta2, E2, eps = _ct_steps(ops, params, prev, curr, nxt)
    neg_jl_inv_eps = -ops.jl_inv(eps)
    common = np.asarray(params[0])[..., None, None] \
        * (neg_jl_inv_eps @ ops.jr(delta2))
    J_prev = common @ (-ops.jl_inv(delta1))
    J_curr = common @ ops.jr_inv(delta1) \
        + neg_jl_inv_eps @ ops.adjoint_inv(E2)
    J_next = ops.jr_inv(eps)
    return eps, (J_prev, J_curr, J_next)


def ct_residual(T_prev, T_curr, T_next, dt1: float, dt2: float) -> np.ndarray:
    """Deviation of T_next from replaying the twist seen over (T_prev, T_curr)."""
    if dt1 <= 0 or dt2 <= 0:
        raise ValueError("dt1 and dt2 must be positive")
    return _ct_steps(manifold.kind_of(T_curr).group, (dt2 / dt1,),
                     T_prev, T_curr, T_next)[-1]


def ct_jacobians(T_prev, T_curr, T_next, dt1: float, dt2: float):
    """Closed-form derivative blocks of ct_residual w.r.t. the three states."""
    return _ct(manifold.kind_of(T_curr).group, (dt2 / dt1,),
               T_prev, T_curr, T_next)[1]


def ct_factor(keys: tuple[VariableKey, VariableKey, VariableKey],
              spec: ConstantTwistSpec) -> Factor:
    k_prev, k_curr, k_next = keys
    if not (k_prev.kind == k_curr.kind == k_next.kind):
        raise ManifoldMismatchError(
            f"constant-twist triple must share one manifold kind, got "
            f"{k_prev.kind}, {k_curr.kind}, {k_next.kind}")
    if not (k_prev.timestamp < k_curr.timestamp < k_next.timestamp):
        raise ValueError("constant-twist keys must have strictly increasing timestamps")
    return _factor(_ct, _ct_steps, k_curr.kind.group, (k_prev, k_curr, k_next),
                   spec.effective_covariance(),
                   f"ct[{k_prev.id},{k_curr.id},{k_next.id}]", (spec.alpha,))


# ---------------------------------------------------------------------------
# Priors and measurement factors.


def _prior_steps(ops, mean, x):
    return (ops.ominus(x, mean),)


def _prior(ops, mean, x):
    """The residual x (-) mean and its block J_r^-1."""
    (eps,) = _prior_steps(ops, mean, x)
    return eps, (ops.jr_inv(eps),)


def prior_factor(key: VariableKey, mean, covariance: np.ndarray) -> Factor:
    group = key.kind.group
    return _factor(_prior, _prior_steps, group, (key,), covariance,
                   f"prior[{key.id}]", mean, group.parts(mean))


def _relpose_steps(ops, z, a, b):
    """a^-1 b and the residual (a^-1 b) (-) z."""
    rel = ops.compose(ops.inverse(a), b)
    return rel, ops.ominus(rel, z)


def _relpose(ops, z, a, b):
    """The residual eps and its blocks (-J_r^-1(eps) Ad(a^-1 b)^-1,
    J_r^-1(eps))."""
    rel, eps = _relpose_steps(ops, z, a, b)
    Jri = ops.jr_inv(eps)
    return eps, (-Jri @ ops.adjoint_inv(rel), Jri)


def relative_pose_factor(key_a: VariableKey, key_b: VariableKey, z: Pose3,
                         covariance: np.ndarray) -> Factor:
    if key_a.kind.tag != "SE3" or key_b.kind.tag != "SE3":
        raise ManifoldMismatchError("relative-pose factor needs two SE(3) keys")
    group = manifold.SE3.group
    return _factor(_relpose, _relpose_steps, group, (key_a, key_b),
                   covariance, f"relpose[{key_a.id},{key_b.id}]", z,
                   group.parts(z))


def _usbl_steps(params, chaser, target):
    """R_c^T, the target's position p in the chaser frame,
    h = R_c^T (p - t_c), and the residual h - z."""
    (z,) = params
    Rc, tc = chaser
    RcT = Rc.swapaxes(-1, -2)
    h = (RcT @ (target[-1] - tc)[..., None])[..., 0]
    return RcT, h, h - z


def _usbl(params, chaser, target):
    """The residual and its blocks [-I, [h]x] and, for an SE(3) target
    (R_t, p), [R_c^T R_t, 0], or for an R^3 target p, R_c^T."""
    RcT, h, r = _usbl_steps(params, chaser, target)
    J_chaser = np.concatenate([np.broadcast_to(-np.eye(3), RcT.shape),
                               manifold.skew_batch(h)], axis=-1)
    if len(target) == 1:
        return r, (J_chaser, RcT)
    return r, (J_chaser, np.concatenate([RcT @ target[0], np.zeros_like(RcT)],
                                        axis=-1))


def usbl_factor(chaser_key: VariableKey, target_key: VariableKey,
                z: np.ndarray, covariance: np.ndarray) -> Factor:
    """Chaser-frame offset to the target; target may be SE(3) or R^3."""
    if chaser_key.kind.tag != "SE3":
        raise ManifoldMismatchError("USBL factor needs an SE(3) chaser key")
    if target_key.kind not in (manifold.SE3, manifold.R3):
        raise ManifoldMismatchError(
            f"USBL target must be SE(3) or R^3, got {target_key.kind}")
    return _factor(_usbl, _usbl_steps, None, (chaser_key, target_key),
                   covariance, f"usbl[{chaser_key.id},{target_key.id}]",
                   (np.asarray(z, dtype=float),))


# ---------------------------------------------------------------------------
# Roll-pitch prior: the tilt of the body up axis g = R^T e_z, of one SE(3)
# target or a stack of them. With h = (e_z x g)_xy = (-g_y, g_x) the
# residual 2 h / (1 + g_z) has length 2 tan(tilt / 2): zero at any yaw,
# (-roll, -pitch) to first order, and defined at every tilt but an inverted
# target.

_TILT_FLIP = np.array([-1.0, 1.0])
# 1 + g_z at a tilt of pi - NEAR_PI_MARGIN
_INVERTED = 2.0 * math.sin(0.5 * NEAR_PI_MARGIN) ** 2


def _tilt_steps(_params, target):
    """g, 1 + g_z (kept as an axis of length 1), h and the residual."""
    g = target[0][..., 2, :]
    c = 1.0 + g[..., 2:]
    if (c < _INVERTED).any():
        raise NearSingularError(f"tilt {np.arccos(max(-1.0, c.min() - 1.0))} "
                                f"within tolerance of pi")
    h = g[..., 1::-1] * _TILT_FLIP
    return g, c, h, 2.0 * h / c


def _tilt(_params, target):
    """The residual and its block [0, J_theta]. A right perturbation
    R Exp(d) moves g by [g]x d_theta, so that
    J_theta = 2 / (1 + g_z) (A - h (h, 0)^T / (1 + g_z))
    with A = [[-g_z, 0, g_x], [0, -g_z, g_y]]."""
    g, c, h, r = _tilt_steps(_params, target)
    J = np.zeros(g.shape[:-1] + (2, 6))
    J[..., 0, 3] = J[..., 1, 4] = -g[..., 2]
    J[..., 5] = g[..., :2]
    J[..., 3:5] -= h[..., :, None] * (h / c)[..., None, :]
    return r, ((2.0 / c)[..., None] * J,)


def roll_pitch_factor(target_key: VariableKey,
                      spec: RollPitchSpec | None = None) -> Factor:
    """Penalizes the tilt (roll and pitch) of an SE(3) target, invariant to
    yaw."""
    if target_key.kind.tag != "SE3":
        raise ManifoldMismatchError("roll-pitch factor needs an SE(3) key")
    spec = spec or RollPitchSpec()
    return _factor(_tilt, _tilt_steps, None, (target_key,), spec.covariance,
                   f"rollpitch[{target_key.id}]")


# ---------------------------------------------------------------------------
# Representation-boundary factors (R^3 <-> SE(3) switches).


def _boundary_steps(_params, T, p):
    """The residual p - t between an SE(3) state (R, t) and an R^3 state."""
    return (p[0] - T[1],)


def _boundary(_params, T, p):
    """The residual and its blocks [-R, 0] and I."""
    (r,) = _boundary_steps(_params, T, p)
    R = T[0]
    return r, (np.concatenate([-R, np.zeros_like(R)], axis=-1),
               np.broadcast_to(np.eye(3), R.shape))


def boundary_factors(se3_key: VariableKey, r3_key: VariableKey,
                     direction: str, covariance: np.ndarray) -> list[Factor]:
    """Translation-equality tie between paired SE(3) and R^3 target states.

    direction is "DOWN" (SE(3) chain hands off to R^3) or "UP" (the reverse);
    both use the same residual p - t(T).  Orientation of the SE(3) state is
    left to whatever factor triggered the representation change.
    """
    if direction not in ("DOWN", "UP"):
        raise ValueError(f"direction must be DOWN or UP, got {direction!r}")
    if se3_key.kind != manifold.SE3 or r3_key.kind != manifold.R3:
        raise ManifoldMismatchError(
            f"boundary factor needs (SE3, R^3) keys, got "
            f"({se3_key.kind}, {r3_key.kind})")
    return [_factor(_boundary, _boundary_steps, None, (se3_key, r3_key),
                    covariance,
                    f"boundary-{direction}[{se3_key.id},{r3_key.id}]")]
