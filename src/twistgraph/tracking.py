"""Scenario-level graph construction and smoothing.

Turns a time-ordered measurement stream into keyframes, builds the Mode A
(SE(3)-only) or Mode B (R^3 <-> SE(3) switching) joint chaser/target graph,
smooths it, and computes error metrics against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    NoiseSigmas,
    boundary_tables,
    ct_tables,
    prior_tables,
    relative_pose_tables,
    roll_pitch_tables,
    usbl_tables,
)


# the most keyframes schedule_keyframes makes; a smaller gate is refused
_MAX_KEYFRAMES = 1_000_000


class ConfigError(ValueError):
    """Bad key, value, or syntax in a run configuration."""


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
    # keyframe; on the first, since t = 0, or None when no record covers that
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


def _pose_cov(sigma_pos: float, sigma_rot: float) -> np.ndarray:
    """Diagonal SE(3) tangent covariance, translation block first."""
    return np.diag([sigma_pos ** 2] * 3 + [sigma_rot ** 2] * 3)


@dataclass
class TrackingConfig(NoiseSigmas):
    chaser_start: Pose3 = field(default_factory=Pose3.identity)
    target_start: Pose3 | None = None

    def ct_base_cov(self, kind) -> np.ndarray:
        if kind.tag == "SE3":
            return _pose_cov(self.ct_sigma_pos, self.ct_sigma_rot)
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
    the previous keyframe; this is the only pass over the stream. Relative
    records within 1e-9 s of a keyframe's first record share that keyframe.
    """
    policy = policy or ModePolicy()

    # The tolerance is measured from the latest time seen, so that small
    # steps back cannot add up. A relative record within the tolerance of
    # the current event's first record joins that event; each later event
    # starts past it, so the events come out in time order.
    stamps = np.array([rec.timestamp for rec in measurements])
    latest = np.maximum.accumulate(stamps)
    back = np.flatnonzero(stamps[1:] < latest[:-1] - 1e-9)
    if back.size:
        i = int(back[0]) + 1
        raise StreamOrderError(f"measurement at t={measurements[i].timestamp} "
                               f"arrived after t={float(latest[i - 1])}")
    events: list[tuple[float, list[MeasurementRecord] | None]] = []
    for rec in measurements:
        if rec.kind in ("USBL", "OPTICAL"):
            if events and abs(rec.timestamp - events[-1][0]) <= 1e-9:
                events[-1][1].append(rec)
            else:
                events.append((rec.timestamp, [rec]))

    if not events:
        raise NeedsPriorError("stream contains no relative measurements")
    if until is not None and until > events[-1][0]:
        events.append((until, None))

    # each gap between events holds at most gap / gate fillers
    event_times = np.array([t for t, _ in events])
    wanted = (len(events) + np.floor(np.diff(event_times) / gate).sum()
              if gate > 0 else math.inf)
    if not wanted <= _MAX_KEYFRAMES:
        raise ConfigError(f"gate = {gate!r} asks for {wanted:.3g} keyframes, "
                          f"more than {_MAX_KEYFRAMES}")

    # (time, records, trigger) with gate fillers interleaved
    slots: list[tuple[float, list[MeasurementRecord], str]] = []
    prev = None
    for t, recs in events:
        if prev is not None:
            g = prev + gate
            while t - g > 1e-9:
                slots.append((g, [], "TIME_GATE"))
                g += gate
        if recs is not None:
            slots.append((t, recs, "MEASUREMENT"))
        elif abs(slots[-1][0] - t) > 1e-9:
            slots.append((t, [], "TIME_GATE"))  # terminal gate at `until`
        prev = t

    # the odometry of every interval at once: into the first keyframe from
    # t = 0, then between consecutive keyframes
    times = [t for t, _, _ in slots]
    R, trans, n_eff = _OdometrySpline(measurements).intervals(
        [0.0] + times[:-1], times)
    keyframes: list[Keyframe] = []
    next_id = 0
    repr_tag = "R3" if policy.mode == "B" else "SE3"
    non_optical = 0
    for i, (t, recs, trigger) in enumerate(slots):
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
        odometry = (Pose3(Rotation3(R[i]), trans[i]), n_eff[i])
        if i == 0 and not n_eff[0] > 0:
            odometry = None  # no record covers a gap at the start
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
        ends = [r.timestamp for r in recs]
        poses = [r.payload for r in recs]
        starts = ends[:-1]
        if recs:
            # backfill the first record's span from the observed cadence
            dt = ends[1] - ends[0] if len(ends) > 1 else max(ends[0], 1e-3)
            start = max(0.0, ends[0] - dt)
            if ends[0] - start > 1e-12:
                starts.insert(0, start)
            else:
                ends, poses = ends[1:], poses[1:]
        # (start, end, relative pose) per record
        self.segments = list(zip(starts, ends, poses))
        self._starts, self._ends = np.array(starts), np.array(ends)
        self._R = np.array([T.rotation.matrix for T in poses]).reshape(-1, 3, 3)
        self._t = np.array([T.translation for T in poses]).reshape(-1, 3)
        # Running max of segment ends and running min (from the back) of
        # segment starts: both are sorted even if the timestamps are not, so
        # searching them bounds the segments that can overlap an interval.
        self._reach = np.maximum.accumulate(self._ends)
        self._floor = np.minimum.accumulate(self._starts[::-1])[::-1]

    def intervals(self, ta, tb) -> tuple[np.ndarray, np.ndarray, list[float]]:
        """Relative poses (R, t) over each interval (ta[i], tb[i]] and their
        effective record counts, all intervals at once.

        Step k composes the k-th piece of every interval that has one, so
        each interval is composed left to right, as a scan over its segments
        would: the results round as that scan's do.
        """
        ta, tb = np.asarray(ta, dtype=float), np.asarray(tb, dtype=float)
        n = len(ta)
        # segments before `first` end at or before ta, and segments from
        # `stop` on start at or after tb: neither can overlap (ta, tb]
        first = np.searchsorted(self._reach, ta, side="right")
        stop = np.searchsorted(self._floor, tb, side="left")
        count = np.maximum(stop - first, 0)
        owner = np.repeat(np.arange(n), count)
        seg = (np.arange(len(owner)) + np.repeat(first - np.cumsum(count)
                                                 + count, count))
        lo = np.maximum(self._starts[seg], ta[owner])
        hi = np.minimum(self._ends[seg], tb[owner])
        keep = hi - lo > 1e-12
        owner, seg = owner[keep], seg[keep]
        frac = (hi[keep] - lo[keep]) / (self._ends[seg] - self._starts[seg])
        R, t = self._R[seg], self._t[seg]
        part = ~(frac > 1.0 - 1e-12)  # a fraction of the record's span
        if part.any():
            R[part], t[part] = manifold.exp_se3_batch(
                frac[part, None] * manifold.log_se3_batch(R[part], t[part]))
        # the position of each piece in its interval
        pos = np.arange(len(owner)) - np.searchsorted(owner, owner)
        out_R = np.tile(np.eye(3), (n, 1, 1))
        out_t = np.zeros((n, 3))
        n_eff = np.zeros(n)
        for k in range(pos.max(initial=-1) + 1):
            at = pos == k
            i = owner[at]
            out_R[i], out_t[i] = manifold.compose_batch(
                out_R[i], out_t[i], R[at], t[at])
            n_eff[i] += frac[at]
        return out_R, out_t, n_eff.tolist()

    def relative(self, ta: float, tb: float) -> tuple[Pose3, float]:
        """Relative pose over (ta, tb] and the effective record count."""
        R, t, n_eff = self.intervals([ta], [tb])
        return Pose3(Rotation3(R[0]), t[0]), n_eff[0]


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
    measured: list[tuple[float, object]] = []
    # the rotation of the latest measured SE(3) seed
    rotation = (config.target_start.rotation if config.target_start is not None
                else Rotation3.identity())
    for kf in keyframes:
        if kf.odometry is not None:
            chaser = manifold.compose(chaser, kf.odometry[0])
        values.set(kf.chaser_key, chaser)
        target = _seed_target(kf, chaser, measured, rotation)
        values.set(kf.target_key, target)
        if kf.records:
            measured.append((kf.timestamp, target))
            if isinstance(target, Pose3):
                rotation = target.rotation
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


def _seed_target(kf: Keyframe, chaser: Pose3, measured, rotation):
    """The target seed at `kf` from its own record or from the measured seeds
    before it; `rotation` is the latest measured SE(3) seed's rotation.

    Scheduling makes every optical keyframe SE(3), and in Mode B an SE(3)
    keyframe without an optical record follows an SE(3) measured keyframe, so
    the measured seed a gated SE(3) seed takes its rotation from is a pose.
    """
    want_se3 = kf.target_key.kind.tag == "SE3"
    for rec in kf.records:
        if rec.kind == "OPTICAL":
            return manifold.compose(chaser, rec.payload)
    if kf.records:  # USBL
        p = chaser.translation + chaser.rotation.matrix @ np.asarray(
            kf.records[0].payload)
        return Pose3(rotation, p) if want_se3 else EuclidPoint(p)
    # time gate: constant-twist extrapolation of the last two measured seeds
    tb, Sb = measured[-1]
    if len(measured) == 1:
        return Sb if want_se3 else EuclidPoint(_translation_of(Sb))
    ta, Sa = measured[-2]
    if isinstance(Sa, Pose3) and isinstance(Sb, Pose3):
        pred = extrapolate(Sa, Sb, tb - ta, kf.timestamp - tb)
        return pred if want_se3 else EuclidPoint(pred.translation)
    pa, pb = _translation_of(Sa), _translation_of(Sb)
    p = pb + (pb - pa) * ((kf.timestamp - tb) / (tb - ta))
    return Pose3(Sb.rotation, p) if want_se3 else EuclidPoint(p)


def extrapolate(prev, curr, dt1: float, horizon: float):
    """Constant-twist forward prediction from the last two states."""
    if dt1 <= 0:
        raise ValueError("dt1 must be positive")
    kind = manifold.kind_of(curr)
    xi = manifold.ominus(kind, curr, prev) / dt1
    return manifold.oplus(kind, curr, xi * horizon)


# ---------------------------------------------------------------------------
# Graph building.


def build_graph(keyframes: list[Keyframe], policy: ModePolicy,
                config: TrackingConfig) -> tuple[FactorGraph, Values]:
    """Assembles the joint chaser/target smoothing graph and its initial values
    from the records and odometry that `schedule_keyframes` attached, one
    vectorized constructor call per factor family."""
    if not keyframes:
        raise NeedsPriorError("no keyframes")
    values = initialize_values(keyframes, config)
    graph = FactorGraph()
    chaser = [kf.chaser_key for kf in keyframes]

    # Chaser chain: anchor prior plus composed odometry.
    cp_cov = _pose_cov(config.chaser_prior_sigma_pos,
                       config.chaser_prior_sigma_rot)
    odom_cov_unit = _pose_cov(config.odom_sigma_pos, config.odom_sigma_rot)
    # The prior sits at the first keyframe's seed: the start pose, composed
    # with the odometry since t = 0 after a measurement gap at the start.
    kf0 = keyframes[0]
    if kf0.odometry is not None:
        cp_cov = cp_cov + kf0.odometry[1] * odom_cov_unit
    graph.add(prior_tables(chaser[:1], [values.get(kf0.chaser_key)], cp_cov))
    odometry = [kf.odometry for kf in keyframes[1:]]
    n_eff = np.maximum([n for _, n in odometry], 0.25).reshape(-1, 1, 1)
    graph.add(relative_pose_tables(chaser[:-1], chaser[1:],
                                   [rel for rel, _ in odometry],
                                   odom_cov_unit * n_eff))

    # Measurement factors, one per record in stream order.
    measured = [(kf, rec) for kf in keyframes for rec in kf.records]
    is_usbl = np.array([rec.kind == "USBL" for _, rec in measured], bool)
    usbl = [measured[i] for i in np.flatnonzero(is_usbl)]
    optical = [measured[i] for i in np.flatnonzero(~is_usbl)]
    graph.add(usbl_tables(
        [kf.chaser_key for kf, _ in usbl], [kf.target_key for kf, _ in usbl],
        [rec.payload for _, rec in usbl], np.eye(3) * config.usbl_sigma ** 2,
        order=np.flatnonzero(is_usbl)) + relative_pose_tables(
        [kf.chaser_key for kf, _ in optical],
        [kf.target_key for kf, _ in optical],
        [rec.payload for _, rec in optical],
        _pose_cov(config.optical_sigma_pos, config.optical_sigma_rot),
        order=np.flatnonzero(~is_usbl)))

    # Target chain: initial prior, constant-twist links, Mode A's roll-pitch.
    # Nothing carries the target's t = 0 pose forward to a later first
    # keyframe, so the prior goes only on a keyframe without odometry.
    if kf0.odometry is None and config.target_start is not None:
        key = kf0.target_key
        if key.kind.tag == "SE3":
            graph.add(prior_tables([key], [config.target_start], _pose_cov(
                config.target_prior_sigma_pos, config.target_prior_sigma_rot)))
        else:
            graph.add(prior_tables(
                [key], [EuclidPoint(config.target_start.translation)],
                np.eye(3) * config.target_prior_sigma_pos ** 2))
    _add_target_chain(graph, values, keyframes, config)
    if policy.mode == "A":
        graph.add(roll_pitch_tables([kf.target_key for kf in keyframes],
                                    np.eye(2) * config.rp_sigma ** 2))
    return graph, values


def _add_target_chain(graph, values: Values, keyframes: list[Keyframe],
                      config: TrackingConfig):
    """Per-representation ct runs with twin-variable boundary transitions.

    At each R^3 <-> SE(3) switch, the outgoing chain is extended by a twin
    variable at the switch instant and tied to the new state by a
    translation-equality boundary factor. Mode A is the single-run case: one
    SE(3) ct chain over every target key and no transitions.
    """
    runs: list[list[VariableKey]] = []
    for kf in keyframes:
        if runs and runs[-1][-1].kind == kf.target_key.kind:
            runs[-1].append(kf.target_key)
        else:
            runs.append([kf.target_key])
    triples = [abc for run in runs for abc in zip(run, run[1:], run[2:])]
    graph.add(ct_tables(*zip(*triples) if triples else ([], [], []),
                        config.ct_base_cov))

    # Each switch after a run of at least two keys: the run's ct link to a
    # twin at the switch instant, then the twin's boundary factor.
    next_id = max(k.id for kf in keyframes
                  for k in (kf.chaser_key, kf.target_key)) + 1
    links, ties = [], []
    for prev_run, run in zip(runs, runs[1:]):
        if len(prev_run) < 2:
            continue  # no twist to carry over; chains stay measurement-tied
        ka, kb, first = prev_run[-2], prev_run[-1], run[0]
        twin = VariableKey(id=next_id, kind=ka.kind, timestamp=first.timestamp)
        next_id += 1
        values.set(twin, extrapolate(values.get(ka), values.get(kb),
                                     kb.timestamp - ka.timestamp,
                                     first.timestamp - kb.timestamp))
        links.append((ka, kb, twin))
        # DOWN: an SE(3) chain hands off to R^3; UP: the reverse
        ties.append((twin, first, "DOWN") if ka.kind.tag == "SE3"
                    else (first, twin, "UP"))
    steps = 2 * np.arange(len(links))
    graph.add(ct_tables(*zip(*links) if links else ([], [], []),
                        config.ct_base_cov, order=steps)
              + boundary_tables(*zip(*ties) if ties else ([], [], []),
                                np.eye(3) * config.boundary_sigma ** 2,
                                order=steps + 1))


# ---------------------------------------------------------------------------
# Smoothing and metrics.


def _angle(R: np.ndarray) -> float:
    """The rotation angle of the matrix R, without its axis: defined up to
    and at pi, where log_so3 refuses."""
    return math.atan2(math.hypot(R[2, 1] - R[1, 2], R[0, 2] - R[2, 0],
                                 R[1, 0] - R[0, 1]),
                      R[0, 0] + R[1, 1] + R[2, 2] - 1.0)


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
            rel_ang[i] = _angle(C.rotation.matrix.T @ S.rotation.matrix)
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
            ang_err[i] = _angle(R_rel_e.T @ R_rel_t)
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
            rows["OPTICAL"][1].append(_angle(z.rotation.matrix.T @ R_rel_t))
    return {k: _group_stats(np.asarray(p), np.asarray(a))
            for k, (p, a) in rows.items()}
