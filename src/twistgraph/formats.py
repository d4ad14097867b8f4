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


def _data_rows(path) -> list[list[str]]:
    """Data rows of a record file, in one csv pass."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _where(path, i: int, mask=None) -> str:
    """`path:line` of data row i, or of the i-th row that `mask` selects."""
    k = i if mask is None else int(np.flatnonzero(mask)[i])
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(itertools.islice(r, k + 1, None))  # past the header and k rows
        return f"{path}:{r.line_num}"


def _float(text: str) -> float:
    """float(text), refusing what only Python's parser reads as a number:
    digit separators (`1_0`) and non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _numbers(rows, lo, hi, width, path, mask=None) -> np.ndarray:
    """Fields lo:hi of every row (or of those `mask` selects) as one array,
    in one conversion and one check of the span's text; only if either
    fails, a walk names the first row shorter than `width` or with a field
    that is no number."""
    if mask is not None:
        rows = list(itertools.compress(rows, mask))
    try:
        if rows and min(map(len, rows)) < width:
            raise ValueError("short row")
        span = list(itertools.chain.from_iterable(row[lo:hi] for row in rows))
        text = "".join(span)
        if not text.isascii() or "_" in text:
            raise ValueError("not a plain decimal number")
        return np.array(span, dtype=float).reshape(-1, hi - lo)
    except ValueError:
        for i, row in enumerate(rows):
            try:
                if len(row) < width:
                    raise ValueError(
                        f"expected at least {width} fields, got {len(row)}")
                list(map(_float, row[lo:hi]))
            except ValueError as err:
                raise ConfigError(f"{_where(path, i, mask)}: {err}") from None
        raise


def _check_rows(a: np.ndarray, path, mask=None,
                quaternions: bool = False) -> None:
    """Refuse a file whose numeric fields `a` (of every row, or of the rows
    `mask` selects) hold a non-finite value or, with `quaternions`, whose
    pose rows hold a zero quaternion (fields 3:7). One test of the stacked
    rows per file; the row is located only on failure."""
    bad = ~np.isfinite(a).all(axis=1)
    if quaternions:
        bad |= ~a[:, 3:7].any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        what = "a zero quaternion" if np.isfinite(a[i]).all() \
            else "a non-finite value"
        raise ConfigError(f"{_where(path, i, mask)}: {what} in {a[i].tolist()}")


def _timestamps(rows, path) -> np.ndarray:
    """The leading timestamps, each finite, of rows with a label after it."""
    times = _numbers(rows, 0, 1, 2, path)[:, 0]
    bad = ~np.isfinite(times)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(f"{_where(path, i)}: timestamp must be finite, "
                          f"got {rows[i][0]!r}")
    return times


def _labels(rows, allowed, path, what: str) -> list[str]:
    """Field 1 of every row; a label not in `allowed` is a ConfigError."""
    labels = [row[1] for row in rows]
    if not set(labels) <= set(allowed):
        i = next(i for i, x in enumerate(labels) if x not in allowed)
        raise ConfigError(f"{_where(path, i)}: unknown {what} {labels[i]!r}")
    return labels


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


def read_truth(path) -> GroundTruth:
    """Chaser and target trajectories; the i-th target row pairs with the
    i-th chaser row at its time. A bad row is a ConfigError naming its line."""
    rows = _data_rows(path)
    times = _timestamps(rows, path)
    labels = _labels(rows, ("chaser", "target"), path, "agent label")
    is_chaser = np.array([x == "chaser" for x in labels], dtype=bool)
    fields_ = _numbers(rows, 2, 9, 9, path)
    _check_rows(fields_, path, quaternions=True)
    ci, ti = np.flatnonzero(is_chaser), np.flatnonzero(~is_chaser)
    n = min(len(ci), len(ti))
    late = np.flatnonzero(times[ci[:n]] != times[ti[:n]])
    if late.size or len(ci) != len(ti):  # name the first unpaired row
        k = ti[late[0]] if late.size else max(ci, ti, key=len)[n]
        raise ConfigError(f"{_where(path, k)}: unpaired trajectory rows: "
                          f"{rows[k][1]} row at t = {rows[k][0]}")
    poses = poses_from_fields(fields_)
    return GroundTruth(times=times[is_chaser],
                       chaser=list(itertools.compress(poses, is_chaser)),
                       target=list(itertools.compress(poses, ~is_chaser)))


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


def read_measurements(path) -> list[MeasurementRecord]:
    """Measurement records; a malformed row is a ConfigError naming its line."""
    rows = _data_rows(path)
    times = _timestamps(rows, path)
    kinds = _labels(rows, ("USBL", "ODOM", "OPTICAL"), path,
                    "measurement kind")
    usbl_rows = np.array([k == "USBL" for k in kinds], dtype=bool)
    usbl = _numbers(rows, 2, 5, 5, path, usbl_rows)
    pose_fields = _numbers(rows, 2, 9, 9, path, ~usbl_rows)
    _check_rows(usbl, path, usbl_rows)
    _check_rows(pose_fields, path, ~usbl_rows, quaternions=True)
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


def read_estimate(path) -> list[EstimateRow]:
    """Estimate rows; a malformed row is a ConfigError naming its line."""
    rows = _data_rows(path)
    # a short row counts as filled, so that the conversions below name it
    has_tgt_rot = np.array([row[13:14] != [""] for row in rows], dtype=bool)
    has_ang = np.array([row[20:21] != [""] for row in rows], dtype=bool)
    target_fields = _numbers(rows, 10, 17, 21, path, has_tgt_rot)
    # chaser pose, target position, relative position and angle, with
    # 0 standing in for an empty angle
    numbers = np.zeros((len(rows), 14))
    numbers[:, :10] = _numbers(rows, 3, 13, 21, path)
    numbers[:, 10:13] = _numbers(rows, 17, 20, 21, path)
    numbers[has_ang, 13:] = _numbers(rows, 20, 21, 21, path, has_ang)
    times = _timestamps(rows, path)
    _check_rows(numbers, path, quaternions=True)
    _check_rows(target_fields, path, has_tgt_rot, quaternions=True)
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
