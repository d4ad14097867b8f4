"""Scenario-level graph construction and smoothing.

Turns a time-ordered measurement stream into keyframes, builds the Mode A
(SE(3)-only) or Mode B (R^3 <-> SE(3) switching) joint chaser/target graph,
smooths it, and computes error metrics against ground truth.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import manifold
from .manifold import EuclidPoint, Pose3, R3, Rotation3, SE3
from .fgraph import (
    FactorGraph,
    SolveReport,
    SolverSettings,
    Values,
    VariableKey,
    optimize,
)
from .factors import (
    ConstantTwistSpec,
    NoiseSigmas,
    RollPitchSpec,
    boundary_factors,
    ct_factor,
    prior_factor,
    relative_pose_factor,
    roll_pitch_factor,
    usbl_factor,
)


class NeedsPriorError(RuntimeError):
    """The stream carries no relative measurement to seed the target chain."""


class StreamOrderError(ValueError):
    """Measurement timestamps decreased."""


@dataclass(frozen=True)
class MeasurementRecord:
    timestamp: float
    kind: str  # ODOM | USBL | OPTICAL
    payload: object  # Pose3 for ODOM/OPTICAL, 3-vector for USBL


@dataclass
class Keyframe:
    timestamp: float
    chaser_key: VariableKey
    target_key: VariableKey
    trigger: str  # MEASUREMENT | TIME_GATE
    meas_kinds: tuple[str, ...] = ()
    # USBL/OPTICAL records at this keyframe, in stream order
    records: tuple[MeasurementRecord, ...] = ()
    # composed odometry and effective record count since the previous
    # keyframe; None on the first
    odometry: tuple[Pose3, float] | None = None

    @property
    def group(self) -> str:
        if "OPTICAL" in self.meas_kinds:
            return "OPTICAL"
        if "USBL" in self.meas_kinds:
            return "USBL"
        return "GATE"


@dataclass
class ModePolicy:
    mode: str = "A"  # A: SE(3) target throughout; B: R^3 <-> SE(3) switching
    down_after: int = 1  # consecutive non-optical keyframes before R^3

    def __post_init__(self):
        if self.mode not in ("A", "B"):
            raise ValueError(f"mode must be A or B, got {self.mode!r}")


@dataclass
class TrackingConfig(NoiseSigmas):
    chaser_start: Pose3 = field(default_factory=Pose3.identity)
    target_start: Pose3 | None = None

    def ct_base_cov(self, kind) -> np.ndarray:
        if kind.tag == "SE3":
            return np.diag([self.ct_sigma_pos ** 2] * 3
                           + [self.ct_sigma_rot ** 2] * 3)
        return np.eye(kind.dim) * self.ct_sigma_pos ** 2


@dataclass
class TrajectoryEstimate:
    keyframes: list[Keyframe]
    chaser_poses: list[Pose3]
    target_states: list  # Pose3 or EuclidPoint per keyframe
    rel_positions: np.ndarray  # chaser-frame target offsets, (n, 3)
    rel_angles: np.ndarray  # |Log| of relative rotation, nan where undefined
    report: SolveReport


def schedule_keyframes(measurements: list[MeasurementRecord], gate: float = 1.0,
                       policy: ModePolicy | None = None,
                       until: float | None = None) -> list[Keyframe]:
    """One keyframe per relative measurement plus time-gated fillers.

    A gated keyframe is inserted every `gate` seconds inside any measurement
    gap longer than the gate (and out to `until`, when given). Each keyframe
    carries its relative-measurement records and the odometry composed since
    the previous keyframe; this is the only pass over the stream.
    """
    policy = policy or ModePolicy()

    def _tkey(t: float) -> float:
        return round(t, 9)

    # The tolerance is measured from the latest time seen, so that small
    # steps back cannot add up.
    latest = -math.inf
    events: dict[float, list[MeasurementRecord]] = {}
    for rec in measurements:
        if rec.timestamp < latest - 1e-9:
            raise StreamOrderError(
                f"measurement at t={rec.timestamp} arrived after t={latest}")
        latest = max(latest, rec.timestamp)
        if rec.kind in ("USBL", "OPTICAL"):
            events.setdefault(_tkey(rec.timestamp), []).append(rec)

    times = sorted(events)
    if not times:
        raise NeedsPriorError("stream contains no relative measurements")

    # (time, records, trigger) with gate fillers interleaved
    slots: list[tuple[float, list[MeasurementRecord], str]] = []
    horizon = times + ([until] if until is not None and until > times[-1] else [])
    prev = None
    for t in horizon:
        if prev is not None:
            g = prev + gate
            while t - g > 1e-9:
                slots.append((g, [], "TIME_GATE"))
                g += gate
        recs = events.get(_tkey(t))
        if recs is not None:
            slots.append((t, recs, "MEASUREMENT"))
        elif not slots or abs(slots[-1][0] - t) > 1e-9:
            slots.append((t, [], "TIME_GATE"))  # terminal gate at `until`
        prev = t

    odo = _OdometrySpline(measurements)
    keyframes: list[Keyframe] = []
    next_id = 0
    repr_tag = "R3" if policy.mode == "B" else "SE3"
    non_optical = 0
    for t, recs, trigger in slots:
        kinds = tuple(sorted({r.kind for r in recs}))
        if policy.mode == "B":
            if "OPTICAL" in kinds:
                repr_tag, non_optical = "SE3", 0
            else:
                non_optical += 1
                if non_optical >= policy.down_after:
                    repr_tag = "R3"
        target_kind = SE3 if repr_tag == "SE3" else R3
        ck = VariableKey(id=next_id, kind=SE3, timestamp=t)
        tk = VariableKey(id=next_id + 1, kind=target_kind, timestamp=t)
        next_id += 2
        odometry = odo.relative(keyframes[-1].timestamp, t) if keyframes else None
        keyframes.append(Keyframe(timestamp=t, chaser_key=ck, target_key=tk,
                                  trigger=trigger, meas_kinds=kinds,
                                  records=tuple(recs), odometry=odometry))
    return keyframes


# ---------------------------------------------------------------------------
# Odometry composition.


class _OdometrySpline:
    """Composes/interpolates raw odometry records over arbitrary intervals.

    Each record spans from the previous record's timestamp to its own;
    splitting inside a span uses screw interpolation, exact for
    constant-twist motion.
    """

    def __init__(self, measurements: list[MeasurementRecord]):
        recs = [r for r in measurements if r.kind == "ODOM"]
        self.segments: list[tuple[float, float, Pose3]] = []
        for i, rec in enumerate(recs):
            if i == 0:
                # backfill the first record's span from the observed cadence
                dt = (recs[1].timestamp - rec.timestamp) if len(recs) > 1 \
                    else max(rec.timestamp, 1e-3)
                start = max(0.0, rec.timestamp - dt)
                if rec.timestamp - start > 1e-12:
                    self.segments.append((start, rec.timestamp, rec.payload))
            else:
                self.segments.append(
                    (recs[i - 1].timestamp, rec.timestamp, rec.payload))
        # Running max of segment ends and running min (from the back) of
        # segment starts: both are sorted even if the timestamps are not, so
        # bisecting them bounds the segments that can overlap an interval.
        self._reach = list(accumulate((b for _, b, _ in self.segments), max))
        self._floor = list(accumulate(
            (a for a, _, _ in reversed(self.segments)), min))[::-1]

    def relative(self, ta: float, tb: float) -> tuple[Pose3, float]:
        """Relative pose over (ta, tb] and the effective record count."""
        out = Pose3.identity()
        n_eff = 0.0
        # segments before `first` end at or before ta, and segments from
        # `stop` on start at or after tb: neither can overlap (ta, tb]
        first = bisect_right(self._reach, ta)
        stop = bisect_left(self._floor, tb)
        for a, b, rel in self.segments[first:stop]:
            lo, hi = max(a, ta), min(b, tb)
            if hi - lo <= 1e-12:
                continue
            frac = (hi - lo) / (b - a)
            n_eff += frac
            piece = rel if frac > 1.0 - 1e-12 else manifold.exp_se3(
                frac * manifold.log_se3(rel))
            out = manifold.compose(out, piece)
        return out, n_eff


# ---------------------------------------------------------------------------
# Initialization.


def initialize_values(keyframes: list[Keyframe],
                      config: TrackingConfig) -> Values:
    """Dead-reckoned chaser chain plus measurement/extrapolation target seeds."""
    if not keyframes:
        raise NeedsPriorError("no keyframes to initialize")
    values = Values()
    chaser = config.chaser_start
    # (t, target element) of the measured keyframes only: extrapolating from
    # a gated seed compounds its error, and when the gate does not divide
    # the measurement period the seeds diverge geometrically
    prev_states: list[tuple[float, object]] = []
    for kf in keyframes:
        if kf.odometry is not None:
            chaser = manifold.compose(chaser, kf.odometry[0])
        values.set(kf.chaser_key, chaser)

        opt = next((r for r in kf.records if r.kind == "OPTICAL"), None)
        usbl = next((r for r in kf.records if r.kind == "USBL"), None)
        target = _seed_target(kf, chaser, opt, usbl, prev_states, config)
        values.set(kf.target_key, target)
        if opt is not None or usbl is not None:
            prev_states.append((kf.timestamp, target))
    _refine_rotation_seeds(keyframes, values)
    return values


# s: the longest span of optical fixes whose rotation rate seeds the target
# rotations before the first fix and after the last one
_MAX_RATE_BASELINE = 10.0


def _refine_rotation_seeds(keyframes: list[Keyframe], values: Values) -> None:
    """Re-seed unanchored target rotations by constant-twist interpolation
    between optical fixes.

    The forward pass holds the last seen rotation through optical-free spans,
    which leaves long chains a large yaw swing away from the optimum and slows
    the optimizer badly. Offline we know the later fixes, so interpolate.
    """
    anchors = [(kf.timestamp, values.get(kf.target_key).rotation)
               for kf in keyframes
               if "OPTICAL" in kf.meas_kinds and kf.target_key.kind.tag == "SE3"]
    if len(anchors) < 2:
        return

    def rate(a, b):
        (ta, Ra), (tb, Rb) = a, b
        return manifold.log_so3(Rotation3(Ra.matrix.T @ Rb.matrix)) / (tb - ta)

    def pair_near(reverse):
        # widest anchor pair within _MAX_RATE_BASELINE of the span end
        seq = anchors if not reverse else anchors[::-1]
        first = seq[0]
        last = first
        for a in seq[1:]:
            if abs(a[0] - first[0]) > _MAX_RATE_BASELINE:
                break
            last = a
        return (first, last) if not reverse else (last, first)

    times = np.array([t for t, _ in anchors])
    for kf in keyframes:
        if kf.target_key.kind.tag != "SE3" or "OPTICAL" in kf.meas_kinds:
            continue
        S = values.get(kf.target_key)
        t = kf.timestamp
        if t <= times[0]:
            ta, Ra = anchors[0]
            w = rate(*pair_near(reverse=False))
        elif t >= times[-1]:
            ta, Ra = anchors[-1]
            w = rate(*pair_near(reverse=True))
        else:
            i = int(np.searchsorted(times, t)) - 1
            ta, Ra = anchors[i]
            w = rate(anchors[i], anchors[i + 1])
        R = Rotation3(Ra.matrix @ manifold.exp_so3(w * (t - ta)).matrix)
        values.set(kf.target_key, Pose3(R, S.translation))


def _translation_of(state) -> np.ndarray:
    return state.translation if isinstance(state, Pose3) else state.coords


def _seed_target(kf: Keyframe, chaser: Pose3, opt, usbl, prev_states,
                 config: TrackingConfig):
    want_se3 = kf.target_key.kind.tag == "SE3"
    if opt is not None:
        pose = manifold.compose(chaser, opt.payload)
        return pose if want_se3 else EuclidPoint(pose.translation)
    if usbl is not None:
        p = chaser.translation + chaser.rotation.matrix @ np.asarray(usbl.payload)
        if not want_se3:
            return EuclidPoint(p)
        R = _previous_rotation(prev_states, config)
        return Pose3(R, p)
    # time gate: constant-twist extrapolation of the previous two states
    if not prev_states:
        raise NeedsPriorError(
            f"no measurement before first target keyframe at t={kf.timestamp}")
    if len(prev_states) >= 2:
        (ta, Sa), (tb, Sb) = prev_states[-2], prev_states[-1]
        p = _extrapolate_position_aware(Sa, Sb, tb - ta, kf.timestamp - tb,
                                        want_se3, config)
        return p
    t, S = prev_states[-1]
    if want_se3:
        return S if isinstance(S, Pose3) else Pose3(
            _previous_rotation(prev_states[:-1], config), S.coords)
    return EuclidPoint(_translation_of(S))


def _previous_rotation(prev_states, config: TrackingConfig):
    for _, S in reversed(prev_states):
        if isinstance(S, Pose3):
            return S.rotation
    if config.target_start is not None:
        return config.target_start.rotation
    return manifold.Rotation3.identity()


def _extrapolate_position_aware(Sa, Sb, dt1, horizon, want_se3, config):
    if isinstance(Sa, Pose3) and isinstance(Sb, Pose3):
        pred = extrapolate(Sa, Sb, dt1, horizon)
        return pred if want_se3 else EuclidPoint(pred.translation)
    pa, pb = _translation_of(Sa), _translation_of(Sb)
    p = pb + (pb - pa) * (horizon / dt1)
    if want_se3:
        rot = Sb.rotation if isinstance(Sb, Pose3) else _previous_rotation(
            [(0.0, Sa), (0.0, Sb)], config)
        return Pose3(rot, p)
    return EuclidPoint(p)


def extrapolate(prev, curr, dt1: float, horizon: float, kind=None):
    """Constant-twist forward prediction from the last two states."""
    if dt1 <= 0:
        raise ValueError("dt1 must be positive")
    kind = kind or manifold.kind_of(curr)
    xi = manifold.ominus(kind, curr, prev) / dt1
    return manifold.oplus(kind, curr, xi * horizon)


# ---------------------------------------------------------------------------
# Graph building.


def build_graph(keyframes: list[Keyframe], policy: ModePolicy,
                config: TrackingConfig) -> tuple[FactorGraph, Values]:
    """Assembles the joint chaser/target smoothing graph and its initial values
    from the records and odometry that `schedule_keyframes` attached."""
    if not keyframes:
        raise NeedsPriorError("no keyframes")
    values = initialize_values(keyframes, config)
    graph = FactorGraph()

    # Chaser chain: anchor prior plus composed odometry.
    cp_cov = np.diag([config.chaser_prior_sigma_pos ** 2] * 3
                     + [config.chaser_prior_sigma_rot ** 2] * 3)
    graph.add(prior_factor(keyframes[0].chaser_key, config.chaser_start, cp_cov))
    odom_cov_unit = np.diag([config.odom_sigma_pos ** 2] * 3
                            + [config.odom_sigma_rot ** 2] * 3)
    for prev, kf in zip(keyframes, keyframes[1:]):
        rel, n_eff = kf.odometry
        cov = odom_cov_unit * max(n_eff, 0.25)
        graph.add(relative_pose_factor(prev.chaser_key, kf.chaser_key, rel, cov))

    # Measurement factors.
    usbl_cov = np.eye(3) * config.usbl_sigma ** 2
    opt_cov = np.diag([config.optical_sigma_pos ** 2] * 3
                      + [config.optical_sigma_rot ** 2] * 3)
    for kf in keyframes:
        for rec in kf.records:
            if rec.kind == "USBL":
                graph.add(usbl_factor(
                    kf.chaser_key, kf.target_key, rec.payload, usbl_cov))
            else:
                graph.add(relative_pose_factor(
                    kf.chaser_key, kf.target_key, rec.payload, opt_cov))

    # Target chain: initial prior, constant-twist links, Mode A's roll-pitch.
    _add_target_prior(graph, keyframes[0], config)
    _add_target_chain(graph, values, keyframes, config)
    if policy.mode == "A":
        rp_spec = RollPitchSpec(covariance=np.eye(2) * config.rp_sigma ** 2)
        for kf in keyframes:
            graph.add(roll_pitch_factor(kf.target_key, rp_spec))
    return graph, values


def _add_target_prior(graph, kf0: Keyframe, config: TrackingConfig):
    if config.target_start is None:
        return
    key = kf0.target_key
    if key.kind.tag == "SE3":
        cov = np.diag([config.target_prior_sigma_pos ** 2] * 3
                      + [config.target_prior_sigma_rot ** 2] * 3)
        graph.add(prior_factor(key, config.target_start, cov))
    else:
        cov = np.eye(3) * config.target_prior_sigma_pos ** 2
        graph.add(prior_factor(
            key, EuclidPoint(config.target_start.translation), cov))


def _add_ct_chain(graph, keys: list[VariableKey], config: TrackingConfig):
    for ka, kb, kc in zip(keys, keys[1:], keys[2:]):
        spec = ConstantTwistSpec(
            dt1=kb.timestamp - ka.timestamp,
            dt2=kc.timestamp - kb.timestamp,
            base_covariance=config.ct_base_cov(kb.kind))
        graph.add(ct_factor((ka, kb, kc), spec))


def _add_target_chain(graph, values: Values, keyframes: list[Keyframe],
                      config: TrackingConfig):
    """Per-representation ct runs with twin-variable boundary transitions.

    At each R^3 <-> SE(3) switch, the outgoing chain is extended by a twin
    variable at the switch instant and tied to the new state by a
    translation-equality boundary factor. Mode A is the single-run case: one
    SE(3) ct chain over every target key and no transitions.
    """
    runs: list[list[Keyframe]] = []
    for kf in keyframes:
        if runs and runs[-1][-1].target_key.kind == kf.target_key.kind:
            runs[-1].append(kf)
        else:
            runs.append([kf])

    next_id = max(k.id for kf in keyframes for k in (kf.chaser_key, kf.target_key)) + 1
    bnd_cov = np.eye(3) * config.boundary_sigma ** 2
    for run in runs:
        _add_ct_chain(graph, [kf.target_key for kf in run], config)
    for prev_run, run in zip(runs, runs[1:]):
        first = run[0]
        if len(prev_run) < 2:
            continue  # no twist estimate to carry over; chains stay measurement-tied
        ka, kb = prev_run[-2].target_key, prev_run[-1].target_key
        twin = VariableKey(id=next_id, kind=ka.kind, timestamp=first.timestamp)
        next_id += 1
        spec = ConstantTwistSpec(
            dt1=kb.timestamp - ka.timestamp,
            dt2=first.timestamp - kb.timestamp,
            base_covariance=config.ct_base_cov(ka.kind))
        graph.add(ct_factor((ka, kb, twin), spec))
        values.set(twin, extrapolate(values.get(ka), values.get(kb),
                                     spec.dt1, spec.dt2))
        if ka.kind.tag == "SE3":  # DOWN: SE(3) chain hands off to R^3
            graph.extend(boundary_factors(twin, first.target_key, "DOWN", bnd_cov))
        else:  # UP: R^3 chain hands off to SE(3)
            graph.extend(boundary_factors(first.target_key, twin, "UP", bnd_cov))


# ---------------------------------------------------------------------------
# Smoothing and metrics.


def smooth(graph: FactorGraph, initial: Values, settings: SolverSettings,
           keyframes: list[Keyframe]) -> TrajectoryEstimate:
    solution, report = optimize(graph, initial, settings)
    chaser_poses, target_states = [], []
    rel_pos = np.empty((len(keyframes), 3))
    rel_ang = np.full(len(keyframes), np.nan)
    for i, kf in enumerate(keyframes):
        C: Pose3 = solution.get(kf.chaser_key)
        S = solution.get(kf.target_key)
        chaser_poses.append(C)
        target_states.append(S)
        rel_pos[i] = C.rotation.matrix.T @ (_translation_of(S) - C.translation)
        if isinstance(S, Pose3):
            R_rel = C.rotation.matrix.T @ S.rotation.matrix
            rel_ang[i] = np.linalg.norm(
                manifold.log_so3(manifold.Rotation3(R_rel)))
    return TrajectoryEstimate(keyframes=keyframes, chaser_poses=chaser_poses,
                              target_states=target_states,
                              rel_positions=rel_pos, rel_angles=rel_ang,
                              report=report)


@dataclass
class GroupStats:
    mean_pos: float
    std_pos: float
    count: int
    mean_ang: float
    std_ang: float
    ang_count: int


@dataclass
class ErrorReport:
    pos_errors: np.ndarray
    ang_errors: np.ndarray
    groups: dict[str, GroupStats]


def _group_stats(pos: np.ndarray, ang: np.ndarray) -> GroupStats:
    ang_ok = ang[np.isfinite(ang)]
    return GroupStats(
        mean_pos=float(np.mean(pos)) if pos.size else float("nan"),
        std_pos=float(np.std(pos)) if pos.size else float("nan"),
        count=int(pos.size),
        mean_ang=float(np.mean(ang_ok)) if ang_ok.size else float("nan"),
        std_ang=float(np.std(ang_ok)) if ang_ok.size else float("nan"),
        ang_count=int(ang_ok.size))


def _true_relative(truth, t: float, tol: float):
    """The true chaser-frame target offset and relative rotation at the truth
    sample nearest `t`, or None when no sample lies within `tol`."""
    try:
        j = truth.index_at(t)
    except ValueError:
        return None
    if abs(truth.times[j] - t) > tol:
        return None
    C_t, T_t = truth.chaser[j], truth.target[j]
    R_c = C_t.rotation.matrix.T
    return R_c @ (T_t.translation - C_t.translation), R_c @ T_t.rotation.matrix


def metrics(estimate: TrajectoryEstimate, truth, tol: float = 0.05) -> ErrorReport:
    """Relative position/angle errors against ground truth, grouped by
    keyframe type (USBL / OPTICAL / GATE / ALL)."""
    n = len(estimate.keyframes)
    pos_err = np.full(n, np.nan)
    ang_err = np.full(n, np.nan)
    matched = np.zeros(n, dtype=bool)
    for i, kf in enumerate(estimate.keyframes):
        true = _true_relative(truth, kf.timestamp, tol)
        if true is None:
            continue
        matched[i] = True
        rel_t, R_rel_t = true
        pos_err[i] = np.linalg.norm(estimate.rel_positions[i] - rel_t)
        S = estimate.target_states[i]
        if isinstance(S, Pose3):
            C_e = estimate.chaser_poses[i]
            R_rel_e = C_e.rotation.matrix.T @ S.rotation.matrix
            ang_err[i] = np.linalg.norm(manifold.log_so3(
                manifold.Rotation3(R_rel_e.T @ R_rel_t)))
    if not matched.any():
        raise ValueError("no keyframe timestamps overlap the ground truth")

    groups: dict[str, GroupStats] = {}
    labels = np.array([kf.group for kf in estimate.keyframes])
    for g in ("USBL", "OPTICAL", "GATE"):
        sel = matched & (labels == g)
        groups[g] = _group_stats(pos_err[sel], ang_err[sel])
    groups["ALL"] = _group_stats(pos_err[matched], ang_err[matched])
    return ErrorReport(pos_errors=pos_err, ang_errors=ang_err, groups=groups)


def measurement_baselines(measurements: list[MeasurementRecord], truth,
                          tol: float = 0.05) -> dict[str, GroupStats]:
    """Raw-measurement error baselines (USBL offsets, optical translations)."""
    rows: dict[str, tuple[list, list]] = {"USBL": ([], []), "OPTICAL": ([], [])}
    for rec in measurements:
        if rec.kind not in rows:
            continue
        true = _true_relative(truth, rec.timestamp, tol)
        if true is None:
            continue
        rel_t, R_rel_t = true
        if rec.kind == "USBL":
            rows["USBL"][0].append(np.linalg.norm(rec.payload - rel_t))
            rows["USBL"][1].append(np.nan)
        else:
            z: Pose3 = rec.payload
            rows["OPTICAL"][0].append(np.linalg.norm(z.translation - rel_t))
            rows["OPTICAL"][1].append(np.linalg.norm(manifold.log_so3(
                manifold.Rotation3(z.rotation.matrix.T @ R_rel_t))))
    return {k: _group_stats(np.asarray(p), np.asarray(a))
            for k, (p, a) in rows.items()}
