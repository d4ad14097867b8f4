"""Synthetic scenarios and independent numerical oracles.

Contains the constant-twist trajectory generator, measurement corruption,
the central finite-difference differentiator used to certify analytic
Jacobians, and the unit-circle test fixtures.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import manifold
from .manifold import Pose3, Rotation3
from .fgraph import FactorGraph, Values, VariableKey
from .factors import (
    ConstantTwistSpec,
    MeasurementSigmas,
    ct_factor,
    prior_factor,
)
from .tracking import (
    KINDS, ODOM, OPTICAL, USBL, ConfigError, MeasurementStream)

# the most samples per trajectory, and records per measurement kind, that a
# scenario may ask for; a smaller dt or a higher rate is refused
_MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class TwistSegment:
    """One piecewise-constant body-frame twist: [vx vy vz wx wy wz], seconds."""

    twist: np.ndarray
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "twist", np.asarray(self.twist, dtype=float))
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")


@dataclass
class ScenarioConfig(MeasurementSigmas):
    chaser_start: Pose3
    target_start: Pose3
    chaser_segments: list[TwistSegment]
    target_segments: list[TwistSegment]
    dt: float = 0.05
    odom_rate_hz: float = 10.0
    usbl_rate_hz: float = 0.5
    optical_rate_hz: float = 2.0
    optical_windows: list[tuple[float, float]] = field(default_factory=list)
    gaps: list[tuple[float, float]] = field(default_factory=list)
    seed: int = 0


class _Poses(Sequence):
    """One agent's poses in a GroundTruth: its rotation and translation
    columns, each sample's Pose3 made on demand."""

    def __init__(self, rotations: np.ndarray, translations: np.ndarray):
        self.rotations, self.translations = rotations, translations

    def __len__(self) -> int:
        return len(self.translations)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Pose3(Rotation3(self.rotations[i]), self.translations[i])


@dataclass(eq=False)
class GroundTruth:
    """Dense, uniformly sampled chaser and target trajectories, as columns:
    the sample times, and the (n, 2, 3, 3) rotations and (n, 2, 3)
    translations of the chaser (axis-1 index 0) and the target (1).
    `chaser[i]` and `target[i]` make sample i's Pose3."""

    times: np.ndarray  # (n,)
    rotations: np.ndarray  # (n, 2, 3, 3)
    translations: np.ndarray  # (n, 2, 3)
    chaser: _Poses = field(init=False, repr=False)
    target: _Poses = field(init=False, repr=False)

    def __post_init__(self):
        self.chaser = _Poses(self.rotations[:, 0], self.translations[:, 0])
        self.target = _Poses(self.rotations[:, 1], self.translations[:, 1])

    def indices_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(i, ok) per time in `t`: the index of the sample nearest it, and
        whether that sample lies within half a time step (plus 1e-9 s) of
        it. A truth of fewer than two samples sets no time step and supports
        no time."""
        t = np.asarray(t, dtype=float)
        if len(self.times) < 2:
            return np.zeros(t.shape, np.intp), np.zeros(t.shape, bool)
        dt = self.times[1] - self.times[0]
        i = np.rint((t - self.times[0]) / dt)
        ok = (0 <= i) & (i < len(self.times))
        i = np.where(ok, i, 0).astype(np.intp)
        ok &= np.abs(self.times[i] - t) <= dt / 2 + 1e-9
        return i, ok

    def samples_at(self, t: np.ndarray) -> np.ndarray:
        """The index of the sample of each time in `t`; the first time
        outside the support is a ValueError."""
        i, ok = self.indices_at(t)
        if not ok.all():
            bad = float(t[np.argmin(ok)])
            raise ValueError(f"time {bad} outside ground-truth support")
        return i

    def index_at(self, t: float) -> int:
        """indices_at for one time, whose sample must be in the support."""
        return int(self.samples_at(np.array([t], dtype=float))[0])


def _rollout(starts: list[Pose3], segment_lists: list[list[TwistSegment]],
             dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Piecewise constant-twist rollouts, T(t+dt) = T(t) * Exp(xi dt), of
    several agents together over their common span: (times, (n, m, 3, 3)
    rotations, (n, m, 3) translations). Each step is one stacked product,
    R @ R_step and R @ t_step + t, and every 1000th step orthonormalizes
    the rotations."""
    steps = []
    for segments in segment_lists:
        wanted = sum(seg.duration / dt for seg in segments)
        if not wanted <= _MAX_SAMPLES:
            raise ConfigError(f"dt = {dt!r} asks for {wanted:.3g} samples, "
                              f"more than {_MAX_SAMPLES}")
        # each sample's step: its segment's Exp(xi dt)
        counts = [int(round(seg.duration / dt)) for seg in segments]
        which = np.repeat(np.arange(len(segments)), counts)
        R_seg, t_seg = manifold.exp_se3_batch(
            np.reshape([seg.twist * dt for seg in segments], (-1, 6)))
        steps.append((R_seg[which], t_seg[which]))
    n = 1 + min(len(R_step) for R_step, _ in steps)
    R_steps = np.stack([R_step[:n - 1] for R_step, _ in steps], axis=1)
    t_steps = np.stack([t_step[:n - 1] for _, t_step in steps], axis=1)
    R = np.empty((n,) + R_steps.shape[1:])
    t = np.empty((n, len(starts), 3, 1))  # columns, for the stacked products
    R[0] = [T.rotation.matrix for T in starts]
    t[0, :, :, 0] = [T.translation for T in starts]
    t_steps = t_steps[..., None]
    Rt = np.empty(t.shape[1:])
    for k in range(1, n):
        np.matmul(R[k - 1], R_steps[k - 1], out=R[k])
        np.matmul(R[k - 1], t_steps[k - 1], out=Rt)
        np.add(Rt, t[k - 1], out=t[k])
        if k % 1000 == 0:
            R[k] = [Rotation3(Rk).orthonormalized().matrix for Rk in R[k]]
    times = np.full(n, dt)
    times[0] = 0.0
    return np.add.accumulate(times), R, t[..., 0]


def generate_trajectory(start: Pose3, segments: list[TwistSegment], dt: float
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Piecewise constant-twist rollout, T(t+dt) = T(t) * Exp(xi dt):
    (times, (n, 3, 3) rotations, (n, 3) translations)."""
    times, R, t = _rollout([start], [segments], dt)
    return times, R[:, 0], t[:, 0]


def generate_ground_truth(cfg: ScenarioConfig) -> GroundTruth:
    """The chaser and target rollouts over their common span."""
    return GroundTruth(*_rollout([cfg.chaser_start, cfg.target_start],
                                 [cfg.chaser_segments, cfg.target_segments],
                                 cfg.dt))


def _inside(t: np.ndarray, windows) -> np.ndarray:
    """Whether each time lies in any of the closed windows."""
    out = np.zeros(t.shape, bool)
    for a, b in windows:
        out |= (a <= t) & (t <= b)
    return out


def _ticks(rate: float, t_end: float) -> np.ndarray:
    """The times k / rate, k = 0, 1, ..., up to t_end."""
    period = 1.0 / rate
    return np.arange(int(np.floor(t_end / period + 1e-9)) + 1) * period


def _noisy(rng, R: np.ndarray, t: np.ndarray, sig_pos: float,
           sig_rot: float) -> tuple[np.ndarray, np.ndarray]:
    """Each pose right-perturbed by Exp(d), d drawn per pose, position then
    rotation; a zero sigma's three components are zero and not drawn, and
    the poses are returned as they are when both sigmas are zero."""
    sigmas = np.repeat([sig_pos, sig_rot], 3)
    drawn = sigmas != 0
    if not drawn.any():
        return R, t
    d = np.zeros((len(R), 6))
    d[:, drawn] = rng.normal(0.0, sigmas[drawn], (len(R), drawn.sum()))
    return manifold.compose_batch(R, t, *manifold.exp_se3_batch(d))


# each kind's rank in the order of its name, which breaks a timestamp tie
_NAME_RANK = np.argsort(np.argsort(KINDS)).astype(np.int8)


def synthesize_measurements(truth: GroundTruth,
                            cfg: ScenarioConfig) -> MeasurementStream:
    """Corrupt the ground truth into a time-ordered measurement stream,
    each kind made and its noise drawn in one batch.

    Pose-valued noise is injected in the tangent space via a right
    perturbation, so configured sigmas match the factors' whitening sigmas.
    Gaps suppress relative (USBL/optical) measurements only. A record comes
    from the truth sample nearest its tick, and is stamped with that
    sample's time where it lies more than 1e-9 s from the tick. A rate whose
    period is shorter than dt, which would make two records of one sample,
    is refused.
    """
    rng = np.random.default_rng(cfg.seed)
    t_end = float(truth.times[-1])
    rates = ("odom_rate_hz", "usbl_rate_hz", "optical_rate_hz")
    for name in rates:
        rate = getattr(cfg, name)
        if not t_end * rate <= _MAX_SAMPLES:
            raise ConfigError(f"{name} = {rate!r} asks for {t_end * rate:.3g} "
                              f"records over {t_end:g} s, more than "
                              f"{_MAX_SAMPLES}")
    for name in rates:
        rate = getattr(cfg, name)
        if rate > 0 and 1.0 / rate < cfg.dt:
            raise ConfigError(f"{name} = {rate!r} has a period of "
                              f"{1.0 / rate:.6g} s, shorter than dt = "
                              f"{cfg.dt!r}: two of its records would come "
                              f"from one truth sample")
    (C_R, T_R), (C_t, T_t) = (truth.rotations.swapaxes(0, 1),
                              truth.translations.swapaxes(0, 1))
    # (times, kinds, vectors, rotations) of each kind's records
    parts = [(np.zeros(0), np.zeros(0, np.int8), np.zeros((0, 3)),
              np.zeros((0, 3, 3)))]

    def add(kind: int, ticks: np.ndarray, i: np.ndarray, vectors, rotations):
        sample = truth.times[i]
        parts.append((np.where(np.abs(sample - ticks) > 1e-9, sample, ticks),
                      np.full(len(ticks), kind, np.int8), vectors, rotations))

    # Odometry: relative chaser pose between consecutive ticks.
    ticks = _ticks(cfg.odom_rate_hz, t_end)
    if len(ticks) > 1:
        i = truth.samples_at(ticks)
        a, b = i[:-1], i[1:]
        R, t = manifold.compose_batch(*manifold.inverse_batch(C_R[a], C_t[a]),
                                      C_R[b], C_t[b])
        R, t = _noisy(rng, R, t, cfg.odom_sigma_pos, cfg.odom_sigma_rot)
        add(ODOM, ticks[1:], b, t, R)

    # USBL: chaser-frame offset to the target.
    if cfg.usbl_rate_hz > 0:
        ticks = _ticks(cfg.usbl_rate_hz, t_end)
        ticks = ticks[~_inside(ticks, cfg.gaps)]
        i = truth.samples_at(ticks)
        z = (C_R[i].swapaxes(1, 2) @ (T_t[i] - C_t[i])[:, :, None])[:, :, 0]
        if cfg.usbl_sigma:
            z = z + rng.normal(0.0, cfg.usbl_sigma, z.shape)
        add(USBL, ticks, i, z, np.zeros((len(i), 3, 3)))

    # Optical: full relative pose inside the configured windows.
    if cfg.optical_rate_hz > 0:
        ticks = _ticks(cfg.optical_rate_hz, t_end)
        ticks = ticks[_inside(ticks, cfg.optical_windows)
                      & ~_inside(ticks, cfg.gaps)]
        i = truth.samples_at(ticks)
        R, t = manifold.compose_batch(*manifold.inverse_batch(C_R[i], C_t[i]),
                                      T_R[i], T_t[i])
        R, t = _noisy(rng, R, t, cfg.optical_sigma_pos, cfg.optical_sigma_rot)
        add(OPTICAL, ticks, i, t, R)

    times, kinds, vectors, rotations = map(np.concatenate, zip(*parts))
    order = np.lexsort((_NAME_RANK[kinds], times))  # stable
    return MeasurementStream(times=times[order], kinds=kinds[order],
                             vectors=vectors[order],
                             rotations=rotations[order])


# ---------------------------------------------------------------------------
# Finite-difference oracle.


@functools.lru_cache(maxsize=32)
def _increments(kind: manifold.ManifoldKind, step: float) -> tuple:
    """The (Exp(step e_i), Exp(-step e_i)) pair of each tangent basis
    direction of `kind`, their arrays read-only: the same increments
    for every differentiation at this step."""
    group = kind.group
    out = []
    for i in range(kind.dim):
        e = np.zeros(kind.dim)
        e[i] = step
        pair = (group.exp(e), group.exp(-e))
        for element in pair:
            for part in group.parts(element):
                part.flags.writeable = False
        out.append(pair)
    return tuple(out)


def finite_difference_jacobian(residual_fn, values: Values, key: VariableKey,
                               step: float = 1e-6) -> np.ndarray:
    """Central differences of residual_fn along each tangent basis direction.

    Perturbs through the manifold retraction only, X (+) (+-step e_i) =
    X Exp(+-step e_i), with the increments made once per kind and step;
    never touches any analytic Jacobian code path. `values` is left as it
    was.
    """
    if not (math.isfinite(step) and step != 0.0):
        raise ValueError(f"step must be finite and non-zero, got {step!r}")
    compose, X = key.kind.group.compose, values.get(key)
    moved = values.copy()
    columns = []
    for up, down in _increments(key.kind, step):
        moved.set(key, compose(X, up))
        rp = np.asarray(residual_fn(moved))
        moved.set(key, compose(X, down))
        rm = np.asarray(residual_fn(moved))
        columns.append((rp - rm) / (2.0 * step))
    return np.stack(columns, axis=1)


# ---------------------------------------------------------------------------
# Unit-circle fixtures.

UNIT_CIRCLE_STEP = np.deg2rad(30.0)


def unit_circle_pose(k: int, step: float = UNIT_CIRCLE_STEP) -> Pose3:
    """Arc oracle: pose k sits at angle k*step on the unit circle, heading
    tangent to the arc."""
    a = k * step
    pos = np.array([np.cos(a), np.sin(a), 0.0])
    heading = np.pi / 2 + a
    c, s = np.cos(heading), np.sin(heading)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose3(Rotation3(R), pos)


def unit_circle_fixtures(variant: str, sigma: float = 0.1, seed: int = 0):
    """Graphs matching the three unit-circle experiments.

    EXTRAPOLATE: anchor poses 0, 1; free pose 2.
    INTERPOLATE: anchor poses 0, 2; free pose 1.
    CHAIN: anchor poses 0 and 5; free poses 1-4, chained ct factors.

    Returns (graph, initial values, keys, oracle) where oracle(k) is the
    analytic on-arc pose.
    """
    rng = np.random.default_rng(seed)
    anchor_noise = np.eye(6) * 1e-12
    base_cov = np.eye(6) * 0.1 ** 2

    if variant == "EXTRAPOLATE":
        n, anchored, triples = 3, [0, 1], [(0, 1, 2)]
    elif variant == "INTERPOLATE":
        n, anchored, triples = 3, [0, 2], [(0, 1, 2)]
    elif variant == "CHAIN":
        n, anchored, triples = 6, [0, 5], [(k - 1, k, k + 1) for k in range(1, 5)]
    else:
        raise ValueError(f"unknown variant {variant!r}")

    keys = [VariableKey(id=k, kind=manifold.SE3, timestamp=float(k))
            for k in range(n)]
    graph = FactorGraph()
    for k in anchored:
        graph.add(prior_factor(keys[k], unit_circle_pose(k), anchor_noise))
    for a, b, c in triples:
        graph.add(ct_factor((keys[a], keys[b], keys[c]),
                            ConstantTwistSpec(1.0, 1.0, base_cov)))

    initial = Values()
    for k in range(n):
        T = unit_circle_pose(k)
        if k not in anchored and sigma > 0:
            T = manifold.compose(T, manifold.exp_se3(rng.normal(0.0, sigma, 6)))
        initial.set(keys[k], T)
    return graph, initial, keys, unit_circle_pose


def arc_distance(p: np.ndarray) -> float:
    """Distance of a point from the unit circle in the z=0 plane."""
    r_xy = np.hypot(p[0], p[1])
    return float(np.hypot(r_xy - 1.0, p[2]))
