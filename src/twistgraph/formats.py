"""On-disk formats: flat key=value configs and comma-separated record files.

Poses serialize as `tx,ty,tz,qw,qx,qy,qz` (unit quaternion, w first,
normalized on read).  Every writer round-trips losslessly through the
matching reader.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, fields, field
from typing import NoReturn

import numpy as np
from scipy.spatial.transform import Rotation as ScipyRotation

from .manifold import Pose3, Rotation3
from .simkit import GroundTruth, ScenarioConfig, TwistSegment
from .tracking import (
    ConfigError, MeasurementRecord, ModePolicy, TrackingConfig,
    TrajectoryEstimate)
from .factors import NoiseSigmas
from .fgraph import SolverSettings


def poses_to_fields(poses: list[Pose3]) -> list[list[str]]:
    """`tx,ty,tz,qw,qx,qy,qz` fields of each pose, converting all rotations
    in one call."""
    if len(poses) == 0:
        return []
    quats = ScipyRotation.from_matrix(
        np.stack([T.rotation.matrix for T in poses])).as_quat()  # x, y, z, w
    return [[f"{v:.12g}" for v in (*T.translation, q[3], q[0], q[1], q[2])]
            for T, q in zip(poses, quats)]


def poses_from_fields(rows) -> list[Pose3]:
    """Poses from rows of seven numbers or numeric strings, converting all
    rows in one call; each quaternion is normalized."""
    if len(rows) == 0:
        return []
    a = np.array(rows, dtype=float)[:, :7]
    # x, y, z, w; contiguous, so that each row's dot product runs through the
    # same BLAS dot as np.linalg.norm and rounds as a per-row norm does
    q = np.ascontiguousarray(a[:, [4, 5, 6, 3]])
    q /= np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0])
    mats = ScipyRotation.from_quat(q).as_matrix()
    return [Pose3(Rotation3(R), t) for R, t in zip(mats, a[:, :3])]


POSE_COLS = ["tx", "ty", "tz", "qw", "qx", "qy", "qz"]


def _rows(path):
    """Data rows of a record file, each with its `path:line` location."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r, None)  # header
        for row in r:
            yield row, f"{path}:{r.line_num}"


def _data_rows(path) -> list[list[str]]:
    """Data rows of a record file, in one csv pass."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _numbers(rows, lo: int, hi: int) -> np.ndarray:
    """Fields lo:hi of every row as one (len(rows), hi - lo) array; a
    ValueError if a row is short or a field is no number."""
    a = np.array([row[lo:hi] for row in rows], dtype=float).reshape(-1, hi - lo)
    if len(a) != len(rows):
        raise ValueError("short row")
    return a


def _name_bad_row(path, check_row) -> NoReturn:
    """Raise the ConfigError of the first row `check_row` refuses; the bulk
    parse failed, so the file is read again to locate the row."""
    for row, where in _rows(path):
        check_row(row, where)
    raise ConfigError(f"{path}: malformed record file")


def _require(row: list[str], n: int, where: str) -> None:
    if len(row) < n:
        raise ConfigError(
            f"{where}: expected at least {n} fields, got {len(row)}")


def _floats(row: list[str], lo: int, hi: int, where: str) -> list[float]:
    _require(row, hi, where)
    try:
        return [float(v) for v in row[lo:hi]]
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _check_rows(a: np.ndarray, path, index=None,
                quaternions: bool = False) -> None:
    """Refuse a file whose numeric fields `a` hold a non-finite value or,
    with `quaternions`, whose pose rows hold a zero quaternion (fields 3:7).
    Row i of `a` is data row index[i] of the file (by default, row i). One
    test of the stacked rows per file; the row is located only on failure."""
    bad = ~np.isfinite(a).all(axis=1)
    if quaternions:
        bad |= ~a[:, 3:7].any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        what = "a zero quaternion" if np.isfinite(a[i]).all() \
            else "a non-finite value"
        k = i if index is None else int(index[i])
        where = next(itertools.islice(_rows(path), k, None))[1]
        raise ConfigError(f"{where}: {what} in {a[i].tolist()}")


def _timestamp(row: list[str], where: str) -> float:
    """Leading timestamp of a record row, which carries a label after it."""
    _require(row, 2, where)
    (t,) = _floats(row, 0, 1, where)
    if not math.isfinite(t):
        raise ConfigError(f"{where}: timestamp must be finite, got {row[0]!r}")
    return t


def _timestamps(rows) -> np.ndarray:
    """The leading timestamps of the rows; a ValueError if one is missing or
    no finite number."""
    times = _numbers(rows, 0, 1)[:, 0]
    if not np.isfinite(times).all():
        raise ValueError("non-finite timestamp")
    return times


# ---------------------------------------------------------------------------
# Trajectory (ground truth) files.


def write_truth(path, truth: GroundTruth) -> int:
    n = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "agent"] + POSE_COLS)
        for t, C, T in zip(truth.times, poses_to_fields(truth.chaser),
                           poses_to_fields(truth.target)):
            w.writerow([f"{t:.9g}", "chaser"] + C)
            w.writerow([f"{t:.9g}", "target"] + T)
            n += 2
    return n


def _truth_row(row: list[str], where: str) -> None:
    _timestamp(row, where)
    _floats(row, 2, 9, where)


def read_truth(path) -> GroundTruth:
    rows = _data_rows(path)
    try:
        times = _timestamps(rows)
        chaser_rows = np.array([row[1] == "chaser" for row in rows], dtype=bool)
        fields_ = _numbers(rows, 2, 9)
    except (IndexError, ValueError):
        _name_bad_row(path, _truth_row)
    _check_rows(fields_, path, quaternions=True)
    poses = poses_from_fields(fields_)
    chaser = [T for T, c in zip(poses, chaser_rows) if c]
    target = [T for T, c in zip(poses, chaser_rows) if not c]
    if len(chaser) != len(target):
        raise ConfigError(f"unpaired trajectory rows in {path}")
    return GroundTruth(times=times[chaser_rows], chaser=chaser, target=target)


# ---------------------------------------------------------------------------
# Measurement files.


def write_measurements(path, records: list[MeasurementRecord]) -> int:
    poses = iter(poses_to_fields(
        [rec.payload for rec in records if rec.kind != "USBL"]))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "kind"] + POSE_COLS)
        for rec in records:
            if rec.kind == "USBL":
                payload = [f"{v:.12g}" for v in rec.payload] + [""] * 4
            else:
                payload = next(poses)
            w.writerow([f"{rec.timestamp:.9g}", rec.kind] + payload)
    return len(records)


_POSE_KINDS = ("ODOM", "OPTICAL")


def _measurement_row(row: list[str], where: str) -> None:
    _timestamp(row, where)
    if row[1] == "USBL":
        _floats(row, 2, 5, where)
    elif row[1] in _POSE_KINDS:
        _floats(row, 2, 9, where)
    else:
        raise ConfigError(f"{where}: unknown measurement kind {row[1]!r}")


def read_measurements(path) -> list[MeasurementRecord]:
    """Measurement records; a malformed row is a ConfigError naming its line."""
    rows = _data_rows(path)
    try:
        times = _timestamps(rows)
        kinds = [row[1] for row in rows]
        if not set(kinds) <= {"USBL", *_POSE_KINDS}:
            raise ValueError("unknown measurement kind")
        usbl_rows = np.array([k == "USBL" for k in kinds], dtype=bool)
        usbl = _numbers(list(itertools.compress(rows, usbl_rows)), 2, 5)
        pose_fields = _numbers(
            list(itertools.compress(rows, ~usbl_rows)), 2, 9)
    except (IndexError, ValueError):
        _name_bad_row(path, _measurement_row)
    _check_rows(usbl, path, np.flatnonzero(usbl_rows))
    _check_rows(pose_fields, path, np.flatnonzero(~usbl_rows),
                quaternions=True)
    poses, offsets = iter(poses_from_fields(pose_fields)), iter(usbl)
    return [MeasurementRecord(
                timestamp=t, kind=kind,
                payload=next(offsets) if kind == "USBL" else next(poses))
            for t, kind in zip(times.tolist(), kinds)]


# ---------------------------------------------------------------------------
# Estimate files.


def write_estimate(path, estimate: TrajectoryEstimate) -> int:
    chaser = poses_to_fields(estimate.chaser_poses)
    target = iter(poses_to_fields(
        [S for S in estimate.target_states if isinstance(S, Pose3)]))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "trigger", "group"]
                   + ["chaser_" + c for c in POSE_COLS]
                   + ["target_" + c for c in POSE_COLS]
                   + ["rel_x", "rel_y", "rel_z", "rel_angle"])
        for i, kf in enumerate(estimate.keyframes):
            S = estimate.target_states[i]
            if isinstance(S, Pose3):
                tgt = next(target)
            else:  # R^3 state: orientation columns stay empty
                tgt = [f"{v:.12g}" for v in S.coords] + [""] * 4
            ang = estimate.rel_angles[i]
            w.writerow(
                [f"{kf.timestamp:.9g}", kf.trigger, kf.group]
                + chaser[i] + tgt
                + [f"{v:.12g}" for v in estimate.rel_positions[i]]
                + [f"{ang:.12g}" if np.isfinite(ang) else ""])
    return len(estimate.keyframes)


@dataclass
class EstimateRow:
    timestamp: float
    trigger: str
    group: str
    chaser: Pose3
    target_position: np.ndarray
    target_pose: Pose3 | None
    rel_position: np.ndarray
    rel_angle: float  # nan when undefined


def _estimate_row(row: list[str], where: str) -> None:
    _require(row, 21, where)
    if row[13] != "":
        _floats(row, 10, 17, where)
    _floats(row, 3, 13, where)
    _floats(row, 17, 20, where)
    if row[20] != "":  # an empty angle is allowed
        _floats(row, 20, 21, where)
    _timestamp(row, where)


def read_estimate(path) -> list[EstimateRow]:
    """Estimate rows; a malformed row is a ConfigError naming its line."""
    rows = _data_rows(path)
    try:
        has_tgt_rot = np.array([row[13] != "" for row in rows], dtype=bool)
        has_ang = np.array([row[20] != "" for row in rows], dtype=bool)
        target_fields = _numbers(
            list(itertools.compress(rows, has_tgt_rot)), 10, 17)
        # chaser pose, target position, relative position and angle, with
        # 0 standing in for an empty angle
        numbers = np.zeros((len(rows), 14))
        numbers[:, :10] = _numbers(rows, 3, 13)
        numbers[:, 10:13] = _numbers(rows, 17, 20)
        numbers[has_ang, 13:] = _numbers(
            list(itertools.compress(rows, has_ang)), 20, 21)
        times = _timestamps(rows)
    except (IndexError, ValueError):
        _name_bad_row(path, _estimate_row)
    _check_rows(numbers, path, quaternions=True)
    _check_rows(target_fields, path, np.flatnonzero(has_tgt_rot),
                quaternions=True)
    targets = iter(poses_from_fields(target_fields))
    angles = np.where(has_ang, numbers[:, 13], np.nan)
    return [EstimateRow(timestamp=t, trigger=row[1], group=row[2], chaser=C,
                        target_position=v[7:10],
                        target_pose=next(targets) if rot else None,
                        rel_position=v[10:13], rel_angle=ang)
            for t, row, v, C, rot, ang
            in zip(times.tolist(), rows, numbers, poses_from_fields(numbers),
                   has_tgt_rot, angles.tolist())]


# ---------------------------------------------------------------------------
# Metrics files.


def write_metrics(path, groups: dict, baselines: dict) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row", "group", "mean_pos", "std_pos", "count",
                    "mean_ang", "std_ang", "ang_count"])
        for label, d in (("estimate", groups), ("baseline", baselines)):
            for g, s in d.items():
                w.writerow([label, g, f"{s.mean_pos:.6g}", f"{s.std_pos:.6g}",
                            s.count, f"{s.mean_ang:.6g}", f"{s.std_ang:.6g}",
                            s.ang_count])


def metrics_table(groups: dict, baselines: dict) -> str:
    lines = [f"{'row':<10}{'group':<9}{'pos mean±std [m]':<24}"
             f"{'angle mean±std [rad]':<24}{'n':>5}"]
    for label, d in (("estimate", groups), ("baseline", baselines)):
        for g, s in d.items():
            pos = f"{s.mean_pos:.3f} ± {s.std_pos:.3f}" if s.count else "---"
            ang = (f"{s.mean_ang:.4f} ± {s.std_ang:.4f}"
                   if s.ang_count else "---")
            lines.append(f"{label:<10}{g:<9}{pos:<24}{ang:<24}{s.count:>5}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Run configuration: flat key=value text plus command-line overrides.


@dataclass(kw_only=True)
class RunConfig(TrackingConfig, ScenarioConfig, SolverSettings, ModePolicy):
    """Every setting of a run, one config key each.

    The defaults are the library configs': TrackingConfig precedes
    ScenarioConfig so that its chaser_start default fills ScenarioConfig's
    required field. RunConfig declares only what no library config holds.
    """

    duration: float = 320.0
    gate: float = 1.0  # schedule_keyframes' gate
    # The CLI anchors the target at the scenario start; TrackingConfig's
    # None means no target prior.
    target_start: Pose3 = field(default_factory=Pose3.identity)
    # empty lists: the CLI fills in its default rendezvous
    chaser_segments: list = field(default_factory=list)  # [TwistSegment, ...]
    target_segments: list = field(default_factory=list)

    def check_smoothable(self) -> None:
        """Every sigma weights a factor that smoothing can build, so a zero
        one (allowed for simulation) is refused."""
        for name in _SIGMAS:
            if getattr(self, name) == 0:
                raise ConfigError(
                    f"{name} must be positive to smooth, got 0")


_SIGMAS = tuple(f.name for f in fields(NoiseSigmas))


def _parse_pose(text: str) -> Pose3:
    vals = text.replace(",", " ").split()
    if len(vals) != 7:
        raise ConfigError(f"pose needs 7 numbers (tx ty tz qw qx qy qz): {text!r}")
    return poses_from_fields([vals])[0]


def _parse_segments(text: str) -> list[TwistSegment]:
    segs = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        vals = [float(v) for v in part.replace(",", " ").split()]
        if len(vals) != 7:
            raise ConfigError(
                f"segment needs 7 numbers (vx vy vz wx wy wz duration): {part!r}")
        segs.append(TwistSegment(twist=np.array(vals[:6]), duration=vals[6]))
    return segs


def _parse_windows(text: str) -> list[tuple[float, float]]:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        a, b = part.split(":")
        out.append((float(a), float(b)))
    return out


_PARSERS = {
    "mode": str,
    "optical_windows": _parse_windows,
    "gaps": _parse_windows,
    "chaser_start": _parse_pose,
    "target_start": _parse_pose,
    "chaser_segments": _parse_segments,
    "target_segments": _parse_segments,
    "seed": int,
    "down_after": int,
    "max_iterations": int,
}


def parse_config(lines, source: str = "<config>",
                 overrides: dict | None = None) -> RunConfig:
    """Flat key=value parser; later assignments (and overrides) win.

    Unknown keys are rejected with the offending line number.
    """
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        _assign(cfg, key, value, f"{source}:{lineno}")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in known:
            raise ConfigError(f"override: unknown key {key!r}")
        if isinstance(value, str):
            _assign(cfg, key, value, "override")
        else:
            setattr(cfg, key, value)
    _validate(cfg)
    return cfg


def _assign(cfg: RunConfig, key: str, value: str, where: str) -> None:
    parser = _PARSERS.get(key, float)
    try:
        setattr(cfg, key, parser(value))
    except (ValueError, ConfigError) as err:
        raise ConfigError(f"{where}: bad value for {key!r}: {err}") from err


# the keys that parse as floats
_FLOATS = tuple(f.name for f in fields(RunConfig) if f.name not in _PARSERS)


def _validate(cfg: RunConfig) -> None:
    if cfg.mode not in ("A", "B"):
        raise ConfigError(f"mode must be A or B, got {cfg.mode!r}")
    for name in _FLOATS:
        value = getattr(cfg, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    for name in _SIGMAS:
        value = getattr(cfg, name)
        if value < 0:
            raise ConfigError(f"{name} must be non-negative, got {value!r}")
    for name in ("gate", "duration", "ct_sigma_pos", "ct_sigma_rot",
                 "rp_sigma", "boundary_sigma", "dt", "odom_rate_hz",
                 "init_lambda"):
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"{name} must be positive")


def load_config(path, overrides: dict | None = None) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh, source=str(path), overrides=overrides)
