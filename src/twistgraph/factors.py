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
from typing import Callable

import numpy as np

from . import manifold
from .manifold import (
    ManifoldMismatchError,
    NEAR_PI_MARGIN,
    NearSingularError,
    Pose3,
    skew,  # noqa: F401 -- perfbench's tracer test reads `factors.skew`
)
from .fgraph import Factor, FactorTable, NoiseModel, VariableKey


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
# arrays of one element or of a stack (`...`-shaped). `params` are a
# FactorTable's params, stacked row by row on a batch, and one row's on
# elements; there the prior and relative-pose families take the group
# element whose parts they are. The vectorized constructors (`*_tables`)
# build the tables, and each per-factor constructor is one of them on one
# row, returned as that row's view.


@dataclass(frozen=True, eq=False)
class _Family:
    """A built-in family: `fn` and `steps` on `group`'s elements, or as the
    batch of a FactorTable on the group's stacks; without a group, on the
    keys' parts. With `element`, a view's closures take the group element
    whose parts a row's params are. A view's name is `label`, formatted
    with the row's params, and its keys' ids."""

    fn: Callable
    steps: Callable
    label: str
    group: manifold.Group | None = None
    element: bool = False

    def __call__(self, params, states):
        if self.group is None:
            return self.fn(params, *states)
        return self.fn(self.group.batch, params, *states)

    def view(self, table: FactorTable, i: int) -> Factor:
        row = tuple(p[i] for p in table.params)
        bound = row
        if self.element:
            bound = next(self.group.unstack(
                tuple(p[i:i + 1] for p in table.params)))
        return self._factor(tuple(col[i] for col in table.keys), row, bound,
                            table.noise[table.which[i]])

    def _factor(self, keys, row, bound, noise) -> Factor:
        """The view of the row over `keys` with params `row`, which its
        closures take as `bound`."""
        residual_fn, jacobian_fn = self._closures(keys, bound)
        return Factor(keys=keys, residual_fn=residual_fn,
                      jacobian_fn=jacobian_fn, noise=noise,
                      name=f"{self.label.format(*row)}"
                      f"[{','.join(str(k.id) for k in keys)}]",
                      family=self, family_params=row)

    def _closures(self, keys, params):
        """A row's residual_fn and jacobian_fn: steps and fn on its keys'
        elements, or without a group on their parts. Each key is read by a
        call of its own, which costs less than a map and a star call."""
        lead = () if self.group is None else (self.group,)
        steps = functools.partial(self.steps, *lead, params)
        fn = functools.partial(self.fn, *lead, params)
        if self.group is None:
            a, *b = keys
            pa = a.kind.group.parts
            if not b:
                return (lambda values: steps(pa(values.get(a)))[-1],
                        lambda values: fn(pa(values.get(a)))[1])
            (b,) = b
            pb = b.kind.group.parts
            return (lambda values: steps(pa(values.get(a)),
                                         pb(values.get(b)))[-1],
                    lambda values: fn(pa(values.get(a)), pb(values.get(b)))[1])
        if len(keys) == 1:
            (a,) = keys
            return (lambda values: steps(values.get(a))[-1],
                    lambda values: fn(values.get(a))[1])
        if len(keys) == 2:
            a, b = keys
            return (lambda values: steps(values.get(a), values.get(b))[-1],
                    lambda values: fn(values.get(a), values.get(b))[1])
        a, b, c = keys
        return (lambda values: steps(values.get(a), values.get(b),
                                     values.get(c))[-1],
                lambda values: fn(values.get(a), values.get(b),
                                  values.get(c))[1])


# one object per family: a graph holds one table per family, key kinds and dim
_family = functools.cache(_Family)


def _one(resolve, keys, row, covariance, bound=None) -> Factor:
    """The factor of the family `resolve(kinds)` over `keys`, with the
    params `row` (`bound` in its closures, by default the same): the view
    that a table of this one row gives, made without the table."""
    family = resolve(tuple(key.kind for key in keys))
    return family._factor(tuple(keys), row, row if bound is None else bound,
                          NoiseModel(covariance))


def _noise(covariance: np.ndarray, n: int) -> tuple[list, np.ndarray]:
    """The distinct noise models of n rows' covariances, one (d, d) for
    every row or an (n, d, d) stack, and each row's index into them."""
    if covariance.ndim == 2:
        return [NoiseModel(covariance)], np.zeros(n, np.intp)
    flat = np.ascontiguousarray(covariance).reshape(n, -1)
    _, first, which = np.unique(  # equal bytes, one model
        flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))),
        return_index=True, return_inverse=True)
    return [NoiseModel(covariance[i]) for i in first], which.reshape(n)


def _tables(family, keys, params, covariance, order=None) -> list[FactorTable]:
    """The factors over the rows of `keys` (one key sequence per slot), in
    one FactorTable per tuple of key kinds. `family(kinds)` is the family
    of rows with those kinds and raises on kinds it does not take;
    `params(kinds, rows)` stacks the params of those rows; `covariance` is
    one (d, d) for every row, an (N, d, d) stack, or a function of the
    kinds giving either. `order` ranks the rows among those added to a
    graph with them (default: as listed)."""
    cols = [list(col) for col in keys]
    n = len(cols[0])
    order = np.arange(n) if order is None else np.asarray(order, np.intp)
    # kinds by identity: equal kinds split here meet again in the graph
    code: dict[tuple, int] = {}
    signature = np.array([code.setdefault(ids, len(code)) for ids in zip(
        *[[id(key.kind) for key in col] for col in cols])], np.intp)
    out = []
    for c in range(len(code)):
        rows = np.flatnonzero(signature == c) if len(code) > 1 \
            else np.arange(n)
        kinds = tuple(col[rows[0]].kind for col in cols)
        cov = np.asarray(covariance(kinds) if callable(covariance)
                         else covariance, dtype=float)
        noise, which = _noise(cov[rows] if cov.ndim == 3 else cov, len(rows))
        out.append(FactorTable(
            family(kinds), kinds,
            keys=tuple([col[i] for i in rows.tolist()] for col in cols),
            params=params(kinds, rows), noise=noise, which=which,
            order=order[rows]))
    return out


def _rows_of(*stacked):
    """params(kinds, rows) taking the rows of these stacked arrays."""
    return lambda kinds, rows: tuple(p[rows] for p in stacked)


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
    delta2 = ops.scale(alpha, delta1)
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
    common = ops.scale(params[0], neg_jl_inv_eps @ ops.jr(delta2))
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


_INCREASING = "constant-twist keys must have strictly increasing timestamps"


def _ct_family(kinds):
    if not kinds[0] == kinds[1] == kinds[2]:
        raise ManifoldMismatchError(
            f"constant-twist triple must share one manifold kind, got "
            f"{kinds[0]}, {kinds[1]}, {kinds[2]}")
    return _family(_ct, _ct_steps, "ct", kinds[1].group)


def ct_tables(prev, curr, nxt, base_covariance,
              order=None) -> list[FactorTable]:
    """Constant-twist factors over the key triples (prev[i], curr[i],
    nxt[i]), timed by the keys' time steps dt1 and dt2. Each one's
    covariance is dt2 times the matrix `base_covariance(kind)` gives for
    the triple's kind."""
    keys = [list(prev), list(curr), list(nxt)]
    t = np.array([[k.timestamp for k in col] for col in keys]).reshape(3, -1)
    if not ((t[0] < t[1]) & (t[1] < t[2])).all():
        raise ValueError(_INCREASING)
    dt1, dt2 = t[1] - t[0], t[2] - t[1]
    return _tables(_ct_family, keys, _rows_of(dt2 / dt1),
                   lambda kinds: dt2[:, None, None]
                   * np.asarray(base_covariance(kinds[1]), dtype=float), order)


def ct_factor(keys: tuple[VariableKey, VariableKey, VariableKey],
              spec: ConstantTwistSpec) -> Factor:
    k_prev, k_curr, k_next = keys
    if not (k_prev.timestamp < k_curr.timestamp < k_next.timestamp):
        raise ValueError(_INCREASING)
    return _one(_ct_family, keys, (spec.alpha,), spec.effective_covariance())


# ---------------------------------------------------------------------------
# Priors and measurement factors.


def _prior_steps(ops, mean, x):
    return (ops.ominus(x, mean),)


def _prior(ops, mean, x):
    """The residual x (-) mean and its block J_r^-1."""
    (eps,) = _prior_steps(ops, mean, x)
    return eps, (ops.jr_inv(eps),)


def _prior_family(kinds):
    return _family(_prior, _prior_steps, "prior", kinds[0].group, True)


def prior_tables(keys, means, covariance) -> list[FactorTable]:
    """Priors pulling each key toward its mean, an element of its group."""
    means = list(means)
    return _tables(_prior_family, [keys], lambda kinds, rows: kinds[0].group
                   .stack([means[i] for i in rows.tolist()]), covariance)


def prior_factor(key: VariableKey, mean, covariance: np.ndarray) -> Factor:
    return _one(_prior_family, (key,), key.kind.group.parts(mean), covariance,
                mean)


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


def _relpose_family(kinds):
    if kinds[0].tag != "SE3" or kinds[1].tag != "SE3":
        raise ManifoldMismatchError("relative-pose factor needs two SE(3) keys")
    return _family(_relpose, _relpose_steps, "relpose", manifold.SE3.group,
                   True)


def relative_pose_tables(keys_a, keys_b, z, covariance,
                         order=None) -> list[FactorTable]:
    """Relative-pose factors: the Pose3 z[i] measures a^-1 b for the SE(3)
    keys a = keys_a[i] and b = keys_b[i]."""
    return _tables(_relpose_family, [keys_a, keys_b],
                   _rows_of(*manifold.SE3.group.stack(z)), covariance, order)


def relative_pose_factor(key_a: VariableKey, key_b: VariableKey, z: Pose3,
                         covariance: np.ndarray) -> Factor:
    return _one(_relpose_family, (key_a, key_b),
                (z.rotation.matrix, z.translation), covariance, z)


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


def _usbl_family(kinds):
    if kinds[0].tag != "SE3":
        raise ManifoldMismatchError("USBL factor needs an SE(3) chaser key")
    if kinds[1] not in (manifold.SE3, manifold.R3):
        raise ManifoldMismatchError(
            f"USBL target must be SE(3) or R^3, got {kinds[1]}")
    return _family(_usbl, _usbl_steps, "usbl")


def usbl_tables(chaser_keys, target_keys, z, covariance,
                order=None) -> list[FactorTable]:
    """Chaser-frame offsets z[i] to the targets; each target may be SE(3)
    or R^3."""
    return _tables(_usbl_family, [chaser_keys, target_keys],
                   _rows_of(np.asarray(z, dtype=float).reshape(-1, 3)),
                   covariance, order)


def usbl_factor(chaser_key: VariableKey, target_key: VariableKey,
                z: np.ndarray, covariance: np.ndarray) -> Factor:
    """Chaser-frame offset to the target; target may be SE(3) or R^3."""
    return _one(_usbl_family, (chaser_key, target_key),
                (np.asarray(z, dtype=float),), covariance)


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


def _tilt_family(kinds):
    if kinds[0].tag != "SE3":
        raise ManifoldMismatchError("roll-pitch factor needs an SE(3) key")
    return _family(_tilt, _tilt_steps, "rollpitch")


def roll_pitch_tables(target_keys, covariance) -> list[FactorTable]:
    """Penalizes the tilt (roll and pitch) of each SE(3) target, invariant
    to yaw."""
    return _tables(_tilt_family, [target_keys], _rows_of(), covariance)


def roll_pitch_factor(target_key: VariableKey,
                      spec: RollPitchSpec | None = None) -> Factor:
    """Penalizes the tilt (roll and pitch) of an SE(3) target, invariant to
    yaw."""
    return _one(_tilt_family, (target_key,), (),
                (spec or RollPitchSpec()).covariance)


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


def _boundary_family(kinds):
    if kinds != (manifold.SE3, manifold.R3):
        raise ManifoldMismatchError(
            f"boundary factor needs (SE3, R^3) keys, got "
            f"({kinds[0]}, {kinds[1]})")
    return _family(_boundary, _boundary_steps, "boundary-{0}")


def _directions(direction, n: int) -> np.ndarray:
    direction = np.broadcast_to(np.asarray(direction, dtype=str), n)
    for d in set(direction.tolist()) - {"DOWN", "UP"}:
        raise ValueError(f"direction must be DOWN or UP, got {d!r}")
    return direction


def boundary_tables(se3_keys, r3_keys, direction, covariance,
                    order=None) -> list[FactorTable]:
    """Translation-equality ties between paired SE(3) and R^3 target states.

    direction, one for every row or one per row, is "DOWN" (SE(3) chain
    hands off to R^3) or "UP" (the reverse); both use the same residual
    p - t(T).  Orientation of the SE(3) state is left to whatever factor
    triggered the representation change.
    """
    se3_keys = list(se3_keys)
    return _tables(_boundary_family, [se3_keys, r3_keys],
                   _rows_of(_directions(direction, len(se3_keys))),
                   covariance, order)


def boundary_factors(se3_key: VariableKey, r3_key: VariableKey,
                     direction: str, covariance: np.ndarray) -> list[Factor]:
    """One boundary factor (see boundary_tables), in a list."""
    return [_one(_boundary_family, (se3_key, r3_key),
                 tuple(_directions(direction, 1)), covariance)]
