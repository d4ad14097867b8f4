"""Synthetic scenarios and independent numerical oracles.

Contains the constant-twist trajectory generator, measurement corruption,
the central finite-difference differentiator used to certify analytic
Jacobians, and the unit-circle test fixtures.
"""

from __future__ import annotations

import functools
import math
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
from .tracking import ConfigError, MeasurementRecord

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


@dataclass
class GroundTruth:
    """Dense, uniformly sampled chaser and target trajectories."""

    times: np.ndarray
    chaser: list[Pose3]
    target: list[Pose3]

    def index_at(self, t: float) -> int:
        if len(self.times) < 2:  # no time step, so no support
            raise ValueError(f"time {t} outside ground-truth support")
        dt = self.times[1] - self.times[0]
        i = int(round((t - self.times[0]) / dt))
        if not (0 <= i < len(self.times)) or abs(self.times[i] - t) > dt / 2 + 1e-9:
            raise ValueError(f"time {t} outside ground-truth support")
        return i


def generate_trajectory(start: Pose3, segments: list[TwistSegment],
                        dt: float) -> tuple[np.ndarray, list[Pose3]]:
    """Piecewise constant-twist rollout: T(t+dt) = T(t) * Exp(xi dt)."""
    wanted = sum(seg.duration / dt for seg in segments)
    if not wanted <= _MAX_SAMPLES:
        raise ConfigError(f"dt = {dt!r} asks for {wanted:.3g} samples, "
                          f"more than {_MAX_SAMPLES}")
    poses = [start]
    times = [0.0]
    T = start
    t = 0.0
    n_steps = 0
    for seg in segments:
        steps = int(round(seg.duration / dt))
        step = manifold.exp_se3(seg.twist * dt)
        for _ in range(steps):
            T = manifold.compose(T, step)
            n_steps += 1
            if n_steps % 1000 == 0:
                T = Pose3(T.rotation.orthonormalized(), T.translation)
            t += dt
            times.append(t)
            poses.append(T)
    return np.asarray(times), poses


def generate_ground_truth(cfg: ScenarioConfig) -> GroundTruth:
    tc, chaser = generate_trajectory(cfg.chaser_start, cfg.chaser_segments, cfg.dt)
    tt, target = generate_trajectory(cfg.target_start, cfg.target_segments, cfg.dt)
    n = min(len(tc), len(tt))
    return GroundTruth(times=tc[:n], chaser=chaser[:n], target=target[:n])


def _in_any(t: float, windows) -> bool:
    return any(a <= t <= b for a, b in windows)


def synthesize_measurements(truth: GroundTruth, cfg: ScenarioConfig):
    """Corrupt the ground truth into a time-ordered measurement stream.

    Pose-valued noise is injected in the tangent space via a right
    perturbation, so configured sigmas match the factors' whitening sigmas.
    Gaps suppress relative (USBL/optical) measurements only.
    """
    rng = np.random.default_rng(cfg.seed)
    t_end = float(truth.times[-1])
    for name in ("odom_rate_hz", "usbl_rate_hz", "optical_rate_hz"):
        rate = getattr(cfg, name)
        if not t_end * rate <= _MAX_SAMPLES:
            raise ConfigError(f"{name} = {rate!r} asks for {t_end * rate:.3g} "
                              f"records over {t_end:g} s, more than "
                              f"{_MAX_SAMPLES}")
    records: list[MeasurementRecord] = []

    def noisy_pose(T: Pose3, sig_pos: float, sig_rot: float) -> Pose3:
        if sig_pos == 0.0 and sig_rot == 0.0:
            return T
        d = np.concatenate([rng.normal(0.0, sig_pos, 3) if sig_pos else np.zeros(3),
                            rng.normal(0.0, sig_rot, 3) if sig_rot else np.zeros(3)])
        return manifold.compose(T, manifold.exp_se3(d))

    # Odometry: relative chaser pose between consecutive ticks.
    odom_dt = 1.0 / cfg.odom_rate_hz
    n_odom = int(np.floor(t_end / odom_dt + 1e-9))
    for k in range(1, n_odom + 1):
        ta, tb = (k - 1) * odom_dt, k * odom_dt
        Ta = truth.chaser[truth.index_at(ta)]
        Tb = truth.chaser[truth.index_at(tb)]
        rel = manifold.compose(manifold.inverse(Ta), Tb)
        records.append(MeasurementRecord(
            timestamp=tb, kind="ODOM",
            payload=noisy_pose(rel, cfg.odom_sigma_pos, cfg.odom_sigma_rot)))

    # USBL: chaser-frame offset to the target.
    if cfg.usbl_rate_hz > 0:
        usbl_dt = 1.0 / cfg.usbl_rate_hz
        n_usbl = int(np.floor(t_end / usbl_dt + 1e-9))
        for k in range(n_usbl + 1):
            t = k * usbl_dt
            if _in_any(t, cfg.gaps):
                continue
            i = truth.index_at(t)
            C, T = truth.chaser[i], truth.target[i]
            z = C.rotation.matrix.T @ (T.translation - C.translation)
            if cfg.usbl_sigma:
                z = z + rng.normal(0.0, cfg.usbl_sigma, 3)
            records.append(MeasurementRecord(timestamp=t, kind="USBL", payload=z))

    # Optical: full relative pose inside the configured windows.
    if cfg.optical_rate_hz > 0:
        opt_dt = 1.0 / cfg.optical_rate_hz
        n_opt = int(np.floor(t_end / opt_dt + 1e-9))
        for k in range(n_opt + 1):
            t = k * opt_dt
            if not _in_any(t, cfg.optical_windows) or _in_any(t, cfg.gaps):
                continue
            i = truth.index_at(t)
            C, T = truth.chaser[i], truth.target[i]
            rel = manifold.compose(manifold.inverse(C), T)
            records.append(MeasurementRecord(
                timestamp=t, kind="OPTICAL",
                payload=noisy_pose(rel, cfg.optical_sigma_pos,
                                   cfg.optical_sigma_rot)))

    records.sort(key=lambda r: (r.timestamp, r.kind))
    return records


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
