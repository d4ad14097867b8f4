"""Lie-group kernel: SO(3), SE(3) and R^n with closed-form Jacobians.

Tangent-vector ordering for SE(3) is translation-first, ``[rho; theta]``,
everywhere in this package.  Several libraries use the opposite ordering;
nothing here does.

All elements are immutable values and all operations are pure functions.
Right-handed perturbations throughout: ``X (+) d = X * Exp(d)`` and
``Y (-) X = Log(X^-1 Y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Below this rotation angle all trig closed forms switch to Taylor series.
SMALL_ANGLE = 1e-6
# log / J_l^-1 are rejected closer to pi than this.
NEAR_PI_MARGIN = 1e-6
# q_block's closed-form coefficients cancel catastrophically at small angles
# (c3's numerator is O(angle^5), so at 1e-3 rad it keeps 3 digits). Below
# this angle q_block takes their Taylor series in angle^2, whose five terms
# are exact to 1e-16 relative there; above it the closed forms lose at most
# about 4e-12 relative, which moves Q by rounding only.
Q_SERIES_ANGLE = 0.2
# c1, c2, c3: (angle - sin) / angle^3, (1 - angle^2/2 - cos) / angle^4 and
# (angle - sin - angle^3/6) / angle^5 as sums of (-1)^k angle^2k / (2k + n)!
_Q_SERIES = tuple(
    tuple(sign * (-1.0) ** k / math.factorial(2 * k + n) for k in range(5))
    for sign, n in ((1.0, 3), (-1.0, 4), (-1.0, 5)))

_I3 = np.eye(3)


class NearSingularError(ValueError):
    """Rotation angle too close to pi for a well-conditioned log or J_l^-1."""


class ManifoldMismatchError(TypeError):
    """Operands live on different manifolds or have mismatched dimensions."""


@dataclass(frozen=True)
class ManifoldKind:
    """Dispatch tag for the group-agnostic operations.

    tag is one of "SO3", "SE3", "RN"; dim is the tangent dimension. A kind
    is pickled, so it finds its group's table by tag and holds no functions.
    """

    tag: str
    dim: int

    @property
    def group(self) -> "Group":
        return _GROUPS[self.tag]


SO3 = ManifoldKind("SO3", 3)
SE3 = ManifoldKind("SE3", 6)


def rn(n: int) -> ManifoldKind:
    return ManifoldKind("RN", n)


R3 = rn(3)


class Rotation3:
    """3x3 orthonormal rotation matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    @staticmethod
    def identity() -> "Rotation3":
        return Rotation3(_I3)

    def is_valid(self, tol: float = 1e-9) -> bool:
        R = self.matrix
        return bool(
            np.allclose(R.T @ R, _I3, atol=tol)
            and abs(np.linalg.det(R) - 1.0) <= tol
        )

    def orthonormalized(self) -> "Rotation3":
        u, _, vt = np.linalg.svd(self.matrix)
        R = u @ vt
        if np.linalg.det(R) < 0:
            u[:, -1] *= -1.0
            R = u @ vt
        return Rotation3(R)

    def __repr__(self):
        return f"Rotation3({self.matrix.tolist()})"


class Pose3:
    """Rigid transform: rotation plus translation in meters."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: Rotation3, translation):
        self.rotation = rotation
        self.translation = np.asarray(translation, dtype=float)

    @staticmethod
    def identity() -> "Pose3":
        return Pose3(Rotation3.identity(), np.zeros(3))

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation.matrix
        T[:3, 3] = self.translation
        return T

    def __repr__(self):
        return f"Pose3(R={self.rotation.matrix.tolist()}, t={self.translation.tolist()})"


class EuclidPoint:
    """Plain R^n point, the vector-space reduction of a pose state."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = np.asarray(coords, dtype=float)

    def __repr__(self):
        return f"EuclidPoint({self.coords.tolist()})"


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _check_finite(v: np.ndarray) -> None:
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite tangent vector: {v!r}")


# The assemblies below serve the element kernels and the batch kernels alike:
# their matrices are one 3x3 block or a stack of them, and their coefficients
# floats or arrays shaped (N, 1, 1). Only the coefficient code differs per
# path, so the two agree bit for bit.


def _poly(K: np.ndarray, K2: np.ndarray, b, c) -> np.ndarray:
    """I + b K + c K2, with K = [th]x and K2 = [th]x^2."""
    return _I3 + b * K + c * K2


def _q_parts(rho: np.ndarray, theta: np.ndarray, a2, s, c1, c2, c3):
    """q_block = [v]x + E from rho, th, a2 = |th|^2, s = th . rho and the
    coefficients c1, c2, c3; returns v and E. The vectors are 3-vectors or
    (N, 3) stacks, and the scalars floats or (N, 1) columns.

    The seven products of Q = P/2 + c1 (KP + PK + KPK)
    - c2 (K^2 P + P K^2 - 3 KPK) - (c2 - 3 c3)/2 (KPK K + K KPK), with
    P = [rho]x and K = [th]x, reduce by [th]x [rho]x = rho th^T - s I and
    [th]x [rho]x [th]x = -s [th]x to
    Q = (1/2 + c2 a2) P - s (c1 + 2 c2) K
      + c1 (rho th^T + th rho^T) + g th th^T - (2 s c1 + g a2) I,
    g = s (c2 - 3 c3). The first line is [v]x; the second is E = w th^T +
    th w^T - (2 s c1 + g a2) I with w = c1 rho + g th / 2. Negating
    (rho, th) negates v exactly and leaves E as it is, so
    Q(-rho, -th) = E - [v]x.
    """
    g = s * (c2 - 3.0 * c3)
    v = (0.5 + c2 * a2) * rho - (s * (c1 + 2.0 * c2)) * theta
    w = c1 * rho + (0.5 * g) * theta
    wt = w[..., :, None] * theta[..., None, :]
    E = wt + wt.swapaxes(-1, -2)
    # the diagonal, as every fourth entry of each row-major 3x3 block
    E.reshape(E.shape[:-2] + (9,))[..., ::4] -= 2.0 * s * c1 + g * a2
    return v, E


def _jl_inv_block(Jli: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """J_l^-1 of SE(3) from the SO(3) J_l^-1 and Q."""
    return _se3_block(Jli, -(Jli @ Q @ Jli))


def _se3_block(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[[A, B], [0, A]], the form of SE(3)'s Jacobians and adjoints."""
    out = np.zeros(A.shape[:-2] + (6, 6))
    out[..., :3, :3] = A
    out[..., :3, 3:] = B
    out[..., 3:, 3:] = A
    return out


def _sin_cos_coeffs(angle: float) -> tuple[float, float]:
    """(sin a / a, (1 - cos a) / a^2) with series fallback near zero."""
    if angle < SMALL_ANGLE:
        a2 = angle * angle
        return 1.0 - a2 / 6.0 + a2 * a2 / 120.0, 0.5 - a2 / 24.0 + a2 * a2 / 720.0
    return math.sin(angle) / angle, (1.0 - math.cos(angle)) / (angle * angle)


def _so3_terms(theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """|th|^2, [th]x and [th]x^2 of a rotation vector."""
    a2 = float(theta @ theta)
    # [th]x^2 = th th^T - |th|^2 I, cheaper than a matmul; skew builds its
    # array faster from Python floats than from numpy scalars
    return a2, skew(theta.tolist()), theta[:, None] * theta - a2 * _I3


def exp_so3(theta: np.ndarray) -> Rotation3:
    """Rodrigues formula; series expansion below the small-angle threshold."""
    theta = np.asarray(theta, dtype=float)
    _check_finite(theta)
    a2, K, K2 = _so3_terms(theta)
    return Rotation3(_poly(K, K2, *_sin_cos_coeffs(math.sqrt(a2))))


def log_so3(R: Rotation3) -> np.ndarray:
    """Rotation vector of R.  Rejects angles within tolerance of pi."""
    M = R.matrix
    cos_angle = (M[0, 0] + M[1, 1] + M[2, 2] - 1.0) / 2.0
    cos_angle = min(1.0, max(-1.0, cos_angle))
    angle = math.acos(cos_angle)
    if angle > np.pi - NEAR_PI_MARGIN:
        raise NearSingularError(f"rotation angle {angle} within tolerance of pi")
    w = np.empty(3)
    w[0] = M[2, 1] - M[1, 2]
    w[1] = M[0, 2] - M[2, 0]
    w[2] = M[1, 0] - M[0, 1]
    if angle < SMALL_ANGLE:
        a2 = angle * angle
        return w * (0.5 * (1.0 + a2 / 6.0 + 7.0 * a2 * a2 / 360.0))
    if angle > 2.8:
        # The skew part shrinks like sin(angle); recover the axis a from the
        # symmetric part M + M^T = 2 cos I + 2 (1 - cos) a a^T instead. Its
        # column k of the largest diagonal entry, with that entry taken as
        # 2 (M_kk - cos), is 2 (1 - cos) a_k a; w_k has the sign of a_k.
        k = int(np.argmax(M.diagonal()))
        v = M[:, k] + M[k, :]
        v[k] = 2.0 * (M[k, k] - cos_angle)
        return v * math.copysign(angle / math.sqrt(float(v @ v)), w[k])
    return w * (0.5 * angle / math.sin(angle))


def _jl_coeffs(a2: float) -> tuple[float, float]:
    """b, c of the left Jacobian I + b [th]x + c [th]x^2, from |th|^2.

    b = (1 - cos a) / a^2 is taken as 2 (sin(a/2) / a)^2: just above
    SMALL_ANGLE, 1 - cos a keeps only 4 digits, and b [th]x carries that
    error into exp_se3's translation.
    """
    angle = math.sqrt(a2)
    if angle < SMALL_ANGLE:
        return (0.5 - a2 / 24.0 + a2 * a2 / 720.0,
                1.0 / 6.0 - a2 / 120.0 + a2 * a2 / 5040.0)
    s = math.sin(0.5 * angle) / angle
    return 2.0 * s * s, (angle - math.sin(angle)) / (a2 * angle)


def _jl_inv_coeff(a2: float) -> float:
    """e of the left Jacobian inverse I - [th]x/2 + e [th]x^2, from |th|^2."""
    angle = math.sqrt(a2)
    if angle > np.pi - NEAR_PI_MARGIN:
        raise NearSingularError(f"J_l^-1 undefined near pi (angle {angle})")
    if angle < SMALL_ANGLE:
        return 1.0 / 12.0 + a2 / 720.0 + a2 * a2 / 30240.0
    return 1.0 / a2 - (1.0 + math.cos(angle)) / (2.0 * angle * math.sin(angle))


def jl_so3(theta: np.ndarray) -> np.ndarray:
    """SO(3) left Jacobian: I + b [th]x + c [th]x^2."""
    a2, K, K2 = _so3_terms(np.asarray(theta, dtype=float))
    return _poly(K, K2, *_jl_coeffs(a2))


def jl_inv_so3(theta: np.ndarray) -> np.ndarray:
    """SO(3) left Jacobian inverse: I - [th]x/2 + e [th]x^2."""
    a2, K, K2 = _so3_terms(np.asarray(theta, dtype=float))
    return _poly(K, K2, -0.5, _jl_inv_coeff(a2))


def _poly_apply(u: float, c: float, theta, v) -> np.ndarray:
    """(I + u [th]x + c [th]x^2) v for 3-sequences of Python floats, as
    (1 - c |th|^2) v + u (th x v) + c (th . v) th.

    exp_se3 and log_se3 sit under every scalar oplus / ominus; on 3-vectors
    numpy's per-call overhead costs more than the arithmetic.
    """
    x, y, z = theta
    v0, v1, v2 = v
    d = c * (x * v0 + y * v1 + z * v2)
    e = 1.0 - c * (x * x + y * y + z * z)
    return np.array([e * v0 + u * (y * v2 - z * v1) + d * x,
                     e * v1 + u * (z * v0 - x * v2) + d * y,
                     e * v2 + u * (x * v1 - y * v0) + d * z])


def exp_se3(xi: np.ndarray) -> Pose3:
    """Exponential at identity; translation through the SO(3) left Jacobian."""
    xi = np.asarray(xi, dtype=float)
    _check_finite(xi)
    a2 = float(xi[3:] @ xi[3:])
    r0, r1, r2, x, y, z = xi.tolist()
    # I + a [th]x + b [th]x^2 entry by entry, in the operation order of
    # exp_so3_batch: the two agree bit for bit, and log near pi amplifies
    # any rounding difference between them.
    a, b = _sin_cos_coeffs(math.sqrt(a2))
    R = np.array([
        [1.0 + b * (x * x - a2), b * (x * y) - a * z, b * (x * z) + a * y],
        [b * (y * x) + a * z, 1.0 + b * (y * y - a2), b * (y * z) - a * x],
        [b * (z * x) - a * y, b * (z * y) + a * x, 1.0 + b * (z * z - a2)],
    ])
    bj, cj = _jl_coeffs(a2)
    return Pose3(Rotation3(R), _poly_apply(bj, cj, (x, y, z), (r0, r1, r2)))


def log_se3(T: Pose3) -> np.ndarray:
    theta = log_so3(T.rotation)
    th = theta.tolist()
    e = _jl_inv_coeff(th[0] * th[0] + th[1] * th[1] + th[2] * th[2])
    out = np.empty(6)
    out[:3] = _poly_apply(-0.5, e, th, T.translation.tolist())
    out[3:] = theta
    return out


def compose(A: Pose3, B: Pose3) -> Pose3:
    return Pose3(
        Rotation3(A.rotation.matrix @ B.rotation.matrix),
        A.rotation.matrix @ B.translation + A.translation,
    )


def inverse(T: Pose3) -> Pose3:
    Rt = T.rotation.matrix.T
    return Pose3(Rotation3(Rt), -(Rt @ T.translation))


def adjoint_inv_se3(T: Pose3) -> np.ndarray:
    Rt = T.rotation.matrix.T
    return _se3_block(Rt, -(Rt @ skew(T.translation)))


def _q_series(a2):
    """q_block's c1, c2, c3 from their series, by Horner in a2 = angle^2
    (a float or an array of them)."""
    out = []
    for coefs in _Q_SERIES:
        c = coefs[-1]
        for a in coefs[-2::-1]:
            c = c * a2 + a
        out.append(c)
    return out


def _q_coeffs(a2: float) -> list[float]:
    """q_block's c1, c2, c3 from |th|^2."""
    angle = math.sqrt(a2)
    if angle < Q_SERIES_ANGLE:
        return _q_series(a2)
    sin_a, cos_a = math.sin(angle), math.cos(angle)
    return [(angle - sin_a) / (angle * a2),
            (1.0 - a2 / 2.0 - cos_a) / (a2 * a2),
            (angle - sin_a - angle * a2 / 6.0) / (a2 * a2 * angle)]


def _q_odd_even(rho: np.ndarray, theta: np.ndarray,
                a2: float) -> tuple[np.ndarray, np.ndarray]:
    """q_block's parts odd and even in (rho, th): [v]x and E."""
    v, E = _q_parts(rho, theta, a2, float(theta @ rho), *_q_coeffs(a2))
    return skew(v.tolist()), E


def q_block(rho: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Translation-rotation coupling block of the SE(3) left Jacobian."""
    theta = np.asarray(theta, dtype=float)
    odd, even = _q_odd_even(np.asarray(rho, dtype=float), theta,
                            float(theta @ theta))
    return even + odd


def jl_se3(delta: np.ndarray) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    a2, K, K2 = _so3_terms(delta[3:])
    Jl = _poly(K, K2, *_jl_coeffs(a2))
    odd, even = _q_odd_even(delta[:3], delta[3:], a2)
    return _se3_block(Jl, even + odd)


def jl_inv_se3(delta: np.ndarray) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    a2, K, K2 = _so3_terms(delta[3:])
    Jli = _poly(K, K2, -0.5, _jl_inv_coeff(a2))
    odd, even = _q_odd_even(delta[:3], delta[3:], a2)
    return _jl_inv_block(Jli, even + odd)


def jl_jr_inv_se3(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_l^-1(delta), J_r^-1(delta)) = (J_l^-1(delta), J_l^-1(-delta)),
    sharing the coefficients, [th]x, [th]x^2 and Q's parts."""
    delta = np.asarray(delta, dtype=float)
    a2, K, K2 = _so3_terms(delta[3:])
    e = _jl_inv_coeff(a2)
    odd, even = _q_odd_even(delta[:3], delta[3:], a2)
    return (_jl_inv_block(_poly(K, K2, -0.5, e), even + odd),
            _jl_inv_block(_poly(K, K2, 0.5, e), even - odd))


# ---------------------------------------------------------------------------
# The retraction pair on a kind's elements, through the kind's group table.


def oplus(kind: ManifoldKind, X, delta: np.ndarray):
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (kind.dim,):
        raise ManifoldMismatchError(
            f"tangent dim {delta.shape} does not match {kind}"
        )
    return kind.group.oplus(X, delta)


def ominus(kind: ManifoldKind, Y, X) -> np.ndarray:
    return kind.group.ominus(Y, X)


def kind_of(element) -> ManifoldKind:
    if isinstance(element, Pose3):
        return SE3
    if isinstance(element, Rotation3):
        return SO3
    if isinstance(element, EuclidPoint):
        return rn(element.coords.shape[0])
    raise ManifoldMismatchError(f"not a manifold element: {element!r}")


# ---------------------------------------------------------------------------
# Batched kernels: the formulas and branches of the scalar kernels above,
# over stacks of N elements -- rotations (N, 3, 3), translations and rotation
# vectors (N, 3), SE(3) tangents (N, 6).  A stack of poses is the pair
# (R, t).  The factor graph linearizes and retracts with these; the scalar
# kernels remain the reference they are tested against.  Both assemble their
# matrices with the same _poly, _q_parts and _se3_block.  Matrix and inner
# products go through np.matmul and arccos through math.acos, so that they
# round as in the scalar kernels and both take the same branches on the same
# input.


def _sq_norms(v: np.ndarray) -> np.ndarray:
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _check_finite_rows(v: np.ndarray) -> None:
    bad = ~np.isfinite(v).all(axis=1)
    if bad.any():
        raise ValueError(f"non-finite tangent vector: {v[np.argmax(bad)]!r}")


def _reject_near_pi(angle: np.ndarray, kernel: str) -> None:
    bad = angle > np.pi - NEAR_PI_MARGIN
    if bad.any():
        i = int(np.argmax(bad))
        raise NearSingularError(f"{kernel}: rotation angle {angle[i]} "
                                f"within tolerance of pi (row {i})")


def _series_or_closed(small: np.ndarray, series, closed) -> np.ndarray:
    """Per row, the small-angle series or the closed form; `closed` is only
    evaluated where the angle is not small."""
    out = np.asarray(series, dtype=float)
    big = ~small
    if big.any():
        out[big] = closed(big)
    return out


def skew_batch(v: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def _skew_sq_batch(theta: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """[th]x^2 = th th^T - |th|^2 I."""
    K2 = theta[:, :, None] * theta[:, None, :]
    K2[:, (0, 1, 2), (0, 1, 2)] -= a2[:, None]
    return K2


def _so3_terms_batch(theta: np.ndarray):
    """_so3_terms per row; |th|^2 as an (N,) array."""
    a2 = _sq_norms(theta)
    return a2, skew_batch(theta), _skew_sq_batch(theta, a2)


def exp_so3_batch(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    _check_finite_rows(theta)
    a2 = _sq_norms(theta)
    angle = np.sqrt(a2)
    s2 = angle * angle
    small = angle < SMALL_ANGLE
    a = _series_or_closed(small, 1.0 - s2 / 6.0 + s2 * s2 / 120.0,
                          lambda m: np.sin(angle[m]) / angle[m])
    b = _series_or_closed(small, 0.5 - s2 / 24.0 + s2 * s2 / 720.0,
                          lambda m: (1.0 - np.cos(angle[m])) / s2[m])
    return _poly(skew_batch(theta), _skew_sq_batch(theta, a2),
                 a[:, None, None], b[:, None, None])


def log_so3_batch(R: np.ndarray) -> np.ndarray:
    cos_angle = np.clip((R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2] - 1.0) / 2.0,
                        -1.0, 1.0)
    angle = np.array([math.acos(c) for c in cos_angle.tolist()])
    _reject_near_pi(angle, "log")
    w = np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0],
                  R[:, 1, 0] - R[:, 0, 1]], axis=1)
    a2 = angle * angle
    small = angle < SMALL_ANGLE
    coef = _series_or_closed(
        small, 0.5 * (1.0 + a2 / 6.0 + 7.0 * a2 * a2 / 360.0),
        lambda m: 0.5 * angle[m] / np.sin(angle[m]))
    out = w * coef[:, None]
    big = angle > 2.8
    if big.any():
        # symmetric-part axis recovery, as in log_so3
        Rb = R[big]
        n = np.arange(Rb.shape[0])
        k = np.argmax(Rb[:, (0, 1, 2), (0, 1, 2)], axis=1)
        v = Rb[n, :, k] + Rb[n, k, :]
        v[n, k] = 2.0 * (Rb[n, k, k] - cos_angle[big])
        out[big] = v * np.copysign(angle[big] / np.sqrt(_sq_norms(v)),
                                   w[big][n, k])[:, None]
    return out


def _jl_coeffs_batch(a2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_jl_coeffs per row."""
    angle = np.sqrt(a2)
    small = angle < SMALL_ANGLE
    b = _series_or_closed(
        small, 0.5 - a2 / 24.0 + a2 * a2 / 720.0,
        lambda m: 2.0 * (np.sin(0.5 * angle[m]) / angle[m]) ** 2)
    c = _series_or_closed(
        small, 1.0 / 6.0 - a2 / 120.0 + a2 * a2 / 5040.0,
        lambda m: (angle[m] - np.sin(angle[m])) / (a2[m] * angle[m]))
    return b, c


def _jl_inv_coeff_batch(a2: np.ndarray) -> np.ndarray:
    """_jl_inv_coeff per row."""
    angle = np.sqrt(a2)
    _reject_near_pi(angle, "J_l^-1")
    small = angle < SMALL_ANGLE
    return _series_or_closed(
        small, 1.0 / 12.0 + a2 / 720.0 + a2 * a2 / 30240.0,
        lambda m: 1.0 / a2[m] - (1.0 + np.cos(angle[m])) / (
            2.0 * angle[m] * np.sin(angle[m])))


def _poly_apply_batch(u, c: np.ndarray, theta: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """_poly_apply per row, in its operation order."""
    x, y, z = theta.T
    v0, v1, v2 = v.T
    d = c * (x * v0 + y * v1 + z * v2)
    e = 1.0 - c * (x * x + y * y + z * z)
    return np.stack([e * v0 + u * (y * v2 - z * v1) + d * x,
                     e * v1 + u * (z * v0 - x * v2) + d * y,
                     e * v2 + u * (x * v1 - y * v0) + d * z], axis=1)


def jl_so3_batch(theta: np.ndarray) -> np.ndarray:
    a2, K, K2 = _so3_terms_batch(np.asarray(theta, dtype=float))
    b, c = _jl_coeffs_batch(a2)
    return _poly(K, K2, b[:, None, None], c[:, None, None])


def jl_inv_so3_batch(theta: np.ndarray) -> np.ndarray:
    a2, K, K2 = _so3_terms_batch(np.asarray(theta, dtype=float))
    return _poly(K, K2, -0.5, _jl_inv_coeff_batch(a2)[:, None, None])


def _q_coeffs_batch(a2: np.ndarray) -> list[np.ndarray]:
    """_q_coeffs per row."""
    angle = np.sqrt(a2)
    small = angle < Q_SERIES_ANGLE
    s1, s2, s3 = _q_series(a2)
    return [
        _series_or_closed(
            small, s1,
            lambda m: (angle[m] - np.sin(angle[m])) / (angle[m] * a2[m])),
        _series_or_closed(
            small, s2,
            lambda m: (1.0 - a2[m] / 2.0 - np.cos(angle[m])) / (a2[m] * a2[m])),
        _series_or_closed(
            small, s3,
            lambda m: (angle[m] - np.sin(angle[m]) - angle[m] * a2[m] / 6.0)
            / (a2[m] * a2[m] * angle[m]))]


def _q_odd_even_batch(rho: np.ndarray, theta: np.ndarray,
                      a2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_q_odd_even per row."""
    v, E = _q_parts(rho, theta, a2[:, None],
                    (theta[:, None, :] @ rho[:, :, None])[:, :, 0],
                    *(c[:, None] for c in _q_coeffs_batch(a2)))
    return skew_batch(v), E


# exp_se3_batch and log_se3_batch apply J_l and J_l^-1 to the translation
# as exp_se3 and log_se3 do, as vectors: a matrix product rounds otherwise,
# and near pi the constant-twist factor amplifies that difference to 1e-9.


def exp_se3_batch(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xi = np.asarray(xi, dtype=float)
    _check_finite_rows(xi)
    rho, theta = xi[:, :3], xi[:, 3:]
    return exp_so3_batch(theta), _poly_apply_batch(
        *_jl_coeffs_batch(_sq_norms(theta)), theta, rho)


def log_se3_batch(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    theta = log_so3_batch(R)
    x, y, z = theta.T
    e = _jl_inv_coeff_batch(x * x + y * y + z * z)  # as log_se3 sums it
    out = np.empty((R.shape[0], 6))
    out[:, :3] = _poly_apply_batch(-0.5, e, theta, t)
    out[:, 3:] = theta
    return out


def compose_batch(Ra: np.ndarray, ta: np.ndarray, Rb: np.ndarray,
                  tb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return Ra @ Rb, (Ra @ tb[:, :, None])[:, :, 0] + ta


def inverse_batch(R: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Rt = R.transpose(0, 2, 1)
    return Rt, -(Rt @ t[:, :, None])[:, :, 0]


def adjoint_inv_se3_batch(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    Rt = R.transpose(0, 2, 1)
    return _se3_block(Rt, -(Rt @ skew_batch(t)))


def jl_se3_batch(delta: np.ndarray) -> np.ndarray:
    rho, theta = delta[:, :3], delta[:, 3:]
    a2, K, K2 = _so3_terms_batch(theta)
    b, c = _jl_coeffs_batch(a2)
    Jl = _poly(K, K2, b[:, None, None], c[:, None, None])
    odd, even = _q_odd_even_batch(rho, theta, a2)
    return _se3_block(Jl, even + odd)


def jl_inv_se3_batch(delta: np.ndarray) -> np.ndarray:
    rho, theta = delta[:, :3], delta[:, 3:]
    a2, K, K2 = _so3_terms_batch(theta)
    Jli = _poly(K, K2, -0.5, _jl_inv_coeff_batch(a2)[:, None, None])
    odd, even = _q_odd_even_batch(rho, theta, a2)
    return _jl_inv_block(Jli, even + odd)


def jl_jr_inv_se3_batch(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rho, theta = delta[:, :3], delta[:, 3:]
    a2, K, K2 = _so3_terms_batch(theta)
    e = _jl_inv_coeff_batch(a2)[:, None, None]
    odd, even = _q_odd_even_batch(rho, theta, a2)
    return (_jl_inv_block(_poly(K, K2, -0.5, e), even + odd),
            _jl_inv_block(_poly(K, K2, 0.5, e), even - odd))


# ---------------------------------------------------------------------------
# Group tables. oplus/ominus, the factors and the solver are written
# against them, so a new group needs a table and nothing else.


@dataclass(frozen=True, eq=False, repr=False)
class GroupOps:
    """A Lie group's primitives, on elements or on stacks of them, and the
    operations derived from them. Each entry names the module's kernels in
    its body, so that a kernel replaced on the module (as perfbench's tracer
    replaces them) is the one it calls.
    """

    exp: Callable  # delta -> Exp(delta)
    compose: Callable  # (X, Y) -> X Y
    inverse: Callable  # X -> X^-1
    ominus: Callable  # (Y, X) -> Log(X^-1 Y)
    jl: Callable  # delta -> J_l(delta)
    jl_inv: Callable  # delta -> J_l(delta)^-1
    adjoint_inv: Callable  # X -> Ad(X)^-1
    # delta -> (J_l(delta)^-1, J_r(delta)^-1), for a group that computes the
    # pair for less than two J_l^-1; derived from jl_inv when not given
    jl_jr_inv: Callable | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.jl_jr_inv is None:
            object.__setattr__(self, "jl_jr_inv", lambda delta: (
                self.jl_inv(delta), self.jr_inv(delta)))

    def oplus(self, X, delta):
        return self.compose(X, self.exp(delta))

    def jr(self, delta):
        return self.jl(-np.asarray(delta, dtype=float))

    def jr_inv(self, delta):
        return self.jl_inv(-np.asarray(delta, dtype=float))

    def scale(self, alpha, v):
        """alpha[i] v[i] for each row of the stack v, of vectors or of
        matrices."""
        return alpha.reshape(alpha.shape + (1,) * (v.ndim - alpha.ndim)) * v


@dataclass(frozen=True, eq=False, repr=False)
class Group(GroupOps):
    """The operations on elements; `batch` holds them on stacks.

    A stack holds N elements as the tuple of their parts, each stacked row
    by row: (R, t) of (N, 3, 3) and (N, 3) arrays on SE(3), (R,) on SO(3),
    (x,) of (N, n) coordinates on R^n.
    """

    batch: GroupOps
    parts: Callable  # element -> tuple of its arrays
    unstack: Callable  # stack -> iterator of elements

    def stack(self, elements):
        return tuple(map(np.array, zip(*map(self.parts, elements))))

    def scale(self, alpha, v):
        return alpha * v


def _ominus_se3(Y: Pose3, X: Pose3) -> np.ndarray:
    # compose(inverse(X), Y) without the intermediate inverse
    Rt = X.rotation.matrix.T
    return log_se3(Pose3(Rotation3(Rt @ Y.rotation.matrix),
                         Rt @ Y.translation - Rt @ X.translation))


def _eyes(v: np.ndarray) -> np.ndarray:
    """A read-only identity matrix per row of the (N, n) array v."""
    return np.broadcast_to(np.eye(v.shape[1]), v.shape[:1] + (v.shape[1],) * 2)


_GROUPS = {
    "SE3": Group(
        exp=lambda delta: exp_se3(delta),
        compose=lambda X, Y: compose(X, Y),
        inverse=lambda X: inverse(X),
        ominus=_ominus_se3,
        jl=lambda delta: jl_se3(delta),
        jl_inv=lambda delta: jl_inv_se3(delta),
        jl_jr_inv=lambda delta: jl_jr_inv_se3(delta),
        adjoint_inv=lambda X: adjoint_inv_se3(X),
        batch=GroupOps(
            exp=lambda delta: exp_se3_batch(delta),
            compose=lambda X, Y: compose_batch(*X, *Y),
            inverse=lambda X: inverse_batch(*X),
            ominus=lambda Y, X: log_se3_batch(
                *compose_batch(*inverse_batch(*X), *Y)),
            jl=lambda delta: jl_se3_batch(delta),
            jl_inv=lambda delta: jl_inv_se3_batch(delta),
            jl_jr_inv=lambda delta: jl_jr_inv_se3_batch(delta),
            adjoint_inv=lambda X: adjoint_inv_se3_batch(*X)),
        parts=lambda X: (X.rotation.matrix, X.translation),
        unstack=lambda X: map(Pose3, map(Rotation3, X[0]), X[1])),
    "SO3": Group(
        exp=lambda delta: exp_so3(delta),
        compose=lambda X, Y: Rotation3(X.matrix @ Y.matrix),
        inverse=lambda X: Rotation3(X.matrix.T),
        ominus=lambda Y, X: log_so3(Rotation3(X.matrix.T @ Y.matrix)),
        jl=lambda delta: jl_so3(delta),
        jl_inv=lambda delta: jl_inv_so3(delta),
        adjoint_inv=lambda X: X.matrix.T,
        batch=GroupOps(
            exp=lambda delta: (exp_so3_batch(delta),),
            compose=lambda X, Y: (X[0] @ Y[0],),
            inverse=lambda X: (X[0].transpose(0, 2, 1),),
            ominus=lambda Y, X: log_so3_batch(X[0].transpose(0, 2, 1) @ Y[0]),
            jl=lambda delta: jl_so3_batch(delta),
            jl_inv=lambda delta: jl_inv_so3_batch(delta),
            adjoint_inv=lambda X: X[0].transpose(0, 2, 1)),
        parts=lambda X: (X.matrix,),
        unstack=lambda X: map(Rotation3, *X)),
    "RN": Group(
        exp=EuclidPoint,
        compose=lambda X, Y: EuclidPoint(X.coords + Y.coords),
        inverse=lambda X: EuclidPoint(-X.coords),
        ominus=lambda Y, X: Y.coords - X.coords,
        jl=lambda delta: np.eye(len(delta)),
        jl_inv=lambda delta: np.eye(len(delta)),
        adjoint_inv=lambda X: np.eye(len(X.coords)),
        batch=GroupOps(
            exp=lambda delta: (delta,),
            compose=lambda X, Y: (X[0] + Y[0],),
            inverse=lambda X: (-X[0],),
            ominus=lambda Y, X: Y[0] - X[0],
            jl=_eyes,
            jl_inv=_eyes,
            adjoint_inv=lambda X: _eyes(X[0])),
        parts=lambda X: (X.coords,),
        unstack=lambda X: map(EuclidPoint, *X)),
}
