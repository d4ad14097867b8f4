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

from .manifold import Pose3, Rotation3
from .simkit import GroundTruth, ScenarioConfig, TwistSegment
from .tracking import (
    KINDS, USBL, ConfigError, EstimateRow, MeasurementStream,
    ModePolicy, TrackingConfig)
from .factors import NoiseSigmas
from .fgraph import SolverSettings


# The rotation conversions below do scipy's Rotation arithmetic (from_matrix
# then as_quat, from_quat then as_matrix) operation for operation, so that
# they give its results to the last bit without importing scipy.spatial.


def _normalized(q: np.ndarray) -> np.ndarray:
    """Each row of the (n, 4) q over its norm, the squares summed in order."""
    sq = q * q
    return q / np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3])[:, None]


def _orthogonal(R: np.ndarray) -> np.ndarray:
    """R, refused if a determinant is not positive, with each matrix that is
    not orthogonal to 1e-12 replaced by its nearest rotation, U V^T of its
    SVD."""
    flipped = np.linalg.det(R) <= 0
    if flipped.any():
        i = int(np.argmax(flipped))
        raise ValueError(f"Non-positive determinant (left-handed or null "
                         f"coordinate frame) in rotation matrix {i}: {R[i]}.")
    off = ~np.isclose(R @ R.swapaxes(1, 2), np.eye(3),
                      atol=1e-12).all(axis=(1, 2))
    if off.any():
        U, _, Vt = np.linalg.svd(R[off], full_matrices=False)
        R = R.copy()
        R[off] = U @ Vt
    return R


def _quaternions(R: np.ndarray) -> np.ndarray:
    """(n, 4) `qw,qx,qy,qz` of the (n, 3, 3) rotations R, in one pass.

    Each row takes the branch of the largest of R00, R11, R22 and the
    trace, which keeps the largest component away from cancellation."""
    R = _orthogonal(R)
    trace = R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2]
    choice = np.argmax(np.stack([R[:, 0, 0], R[:, 1, 1], R[:, 2, 2], trace],
                                axis=1), axis=1)
    q = np.empty((len(R), 4))  # x, y, z, w
    at = choice == 3
    r = R[at]
    q[at] = np.stack([r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0],
                      r[:, 1, 0] - r[:, 0, 1], 1 + trace[at]], axis=1)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        at = choice == i
        r = R[at]
        q[at, i] = 1 - trace[at] + 2 * r[:, i, i]
        q[at, j] = r[:, j, i] + r[:, i, j]
        q[at, k] = r[:, k, i] + r[:, i, k]
        q[at, 3] = r[:, k, j] - r[:, j, k]
    return _normalized(q)[:, [3, 0, 1, 2]]


def _pose_columns(poses: list[Pose3]) -> np.ndarray:
    """(n, 7) `tx,ty,tz,qw,qx,qy,qz` of each pose, converting all rotations
    in one call."""
    out = np.empty((len(poses), 7))
    if len(poses):
        out[:, :3] = [T.translation for T in poses]
        out[:, 3:] = _quaternions(np.stack([T.rotation.matrix for T in poses]))
    return out


def _write_columns(path, header: list[str], columns) -> None:
    """A record file: the header line, then a line per row of `columns`,
    each a (format, values, shown) triple. `values` holds n labels, or an
    (n,) or (n, k) array, each field of which is written with the %-format
    on the rows that the (n,) mask `shown` marks (None: on every row) and
    left empty on the others. Every row is formatted by one % template, the
    template of its pattern of empty fields; `"%.12g" % x` is
    `"{:.12g}".format(x)` for a float x. No field holds a comma, quote or
    line break, so none is quoted, and lines end as csv.writer ends them."""
    specs, cells, shown = [], [], []
    for spec, values, show in columns:
        block = np.asarray(values, dtype=object)
        if block.ndim == 1:
            block = block[:, None]
        specs += [spec] * block.shape[1]
        cells.append(block)
        shown.append(np.ones(block.shape, bool) if show is None
                     else np.repeat(show[:, None], block.shape[1], axis=1))
    cells, shown = np.hstack(cells), np.hstack(shown)
    patterns, which = np.unique(shown @ (1 << np.arange(len(specs))),
                                return_inverse=True)
    templates = np.array(
        [",".join(spec if p >> j & 1 else "" for j, spec in enumerate(specs))
         + "\r\n" for p in patterns.tolist()], dtype=object)
    text = "".join(templates[which].tolist()) % tuple(cells[shown].tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + text)


def _rotation_matrices(a: np.ndarray) -> np.ndarray:
    """The rotations of rows `tx,ty,tz,qw,qx,qy,qz` of `a`, converted in one
    call; each quaternion is normalized."""
    if len(a) == 0:
        return np.empty((0, 3, 3))
    # x, y, z, w; contiguous, so that each row's dot product runs through the
    # same BLAS dot as np.linalg.norm and rounds as a per-row norm does
    q = np.ascontiguousarray(a[:, [4, 5, 6, 3]])
    q /= np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0])
    x, y, z, w = _normalized(q).T
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.stack([x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw),
                     2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw),
                     2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
                    axis=1).reshape(-1, 3, 3)


def poses_from_fields(rows) -> list[Pose3]:
    """Poses from rows of seven numbers or numeric strings, converting all
    rows in one call; each quaternion is normalized."""
    if len(rows) == 0:
        return []
    a = np.array(rows, dtype=float)[:, :7]
    return [Pose3(Rotation3(R), t)
            for R, t in zip(_rotation_matrices(a), a[:, :3])]


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


def _labels(rows, allowed, path, what: str, field: int = 1) -> list[str]:
    """Field `field` of every row; a label not in `allowed` is a
    ConfigError."""
    labels = [row[field] for row in rows]
    if not set(labels) <= set(allowed):
        i = next(i for i, x in enumerate(labels) if x not in allowed)
        raise ConfigError(f"{_where(path, i)}: unknown {what} {labels[i]!r}")
    return labels


# ---------------------------------------------------------------------------
# Trajectory (ground truth) files.


def write_truth(path, truth: GroundTruth) -> int:
    """A chaser row and then a target row per sample, from the truth's
    columns."""
    n = len(truth.times)
    poses = np.empty((2 * n, 7))
    poses[:, :3] = truth.translations.reshape(-1, 3)
    poses[:, 3:] = _quaternions(truth.rotations.reshape(-1, 3, 3))
    _write_columns(path, ["timestamp", "agent"] + POSE_COLS,
                   [("%.9g", np.repeat(truth.times, 2), None),
                    ("%s", ["chaser", "target"] * n, None),
                    ("%.12g", poses, None)])
    return 2 * n


def read_truth(path) -> GroundTruth:
    """Chaser and target trajectories, as columns; the i-th target row
    pairs with the i-th chaser row at its time. A bad row is a ConfigError
    naming its line, and a file of one sample, which sets no time step, one
    naming the file."""
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
    if len(ci) == 1:
        raise ConfigError(f"{path}: one ground-truth sample sets no time step")
    agents = np.stack([ci, ti], axis=1)
    return GroundTruth(times=times[ci],
                       rotations=_rotation_matrices(fields_)[agents],
                       translations=fields_[agents, :3])


# ---------------------------------------------------------------------------
# Measurement files.


def write_measurements(path, records) -> int:
    """One row per record, from the stream's columns; a list of records is
    stacked once."""
    stream = MeasurementStream.of(records)
    rotated = stream.kinds != USBL
    quaternions = np.zeros((len(stream), 4))
    quaternions[rotated] = _quaternions(stream.rotations[rotated])
    _write_columns(path, ["timestamp", "kind"] + POSE_COLS,
                   [("%.9g", stream.times, None),
                    ("%s", np.array(KINDS, dtype=object)[stream.kinds], None),
                    ("%.12g", stream.vectors, None),
                    ("%.12g", quaternions, rotated)])
    return len(stream)


_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}


def read_measurements(path) -> MeasurementStream:
    """The measurement stream, as columns; a malformed row is a ConfigError
    naming its line."""
    rows = _data_rows(path)
    times = _timestamps(rows, path)
    labels = _labels(rows, KINDS, path, "measurement kind")
    kinds = np.fromiter(map(_KIND_CODES.__getitem__, labels), np.int8,
                        len(labels))
    usbl_rows = kinds == USBL
    usbl = _numbers(rows, 2, 5, 5, path, usbl_rows)
    pose_fields = _numbers(rows, 2, 9, 9, path, ~usbl_rows)
    _check_rows(usbl, path, usbl_rows)
    _check_rows(pose_fields, path, ~usbl_rows, quaternions=True)
    vectors = np.empty((len(rows), 3))
    vectors[usbl_rows] = usbl
    vectors[~usbl_rows] = pose_fields[:, :3]
    rotations = np.zeros((len(rows), 3, 3))
    rotations[~usbl_rows] = _rotation_matrices(pose_fields)
    return MeasurementStream(times=times, kinds=kinds, vectors=vectors,
                             rotations=rotations)


# ---------------------------------------------------------------------------
# Estimate files.


def write_estimate(path, rows: list[EstimateRow]) -> int:
    """One line per estimate row, formatted from its columns."""
    n = len(rows)
    targets = [row.target_pose for row in rows]
    se3 = np.array([T is not None for T in targets], dtype=bool)
    # the chaser poses, then the SE(3) targets, in one rotation conversion
    poses = _pose_columns([row.chaser for row in rows]
                          + list(itertools.compress(targets, se3)))
    target_quaternions = np.zeros((n, 4))
    target_quaternions[se3] = poses[n:, 3:]
    angles = np.array([row.rel_angle for row in rows], dtype=float)
    header = (["timestamp", "trigger", "group"]
              + ["chaser_" + c for c in POSE_COLS]
              + ["target_" + c for c in POSE_COLS]
              + ["rel_x", "rel_y", "rel_z", "rel_angle"])
    _write_columns(path, header, [
        ("%.9g", [row.timestamp for row in rows], None),
        ("%s", [row.trigger for row in rows], None),
        ("%s", [row.group for row in rows], None),
        ("%.12g", poses[:n], None),
        ("%.12g", np.reshape([row.target_position for row in rows], (-1, 3)),
         None),
        ("%.12g", target_quaternions, se3),
        ("%.12g", np.reshape([row.rel_position for row in rows], (-1, 3)),
         None),
        ("%.12g", angles, np.isfinite(angles))])
    return n


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
    triggers = _labels(rows, ("MEASUREMENT", "TIME_GATE"), path,
                       "keyframe trigger")
    groups = _labels(rows, ("USBL", "OPTICAL", "GATE"), path,
                     "keyframe group", 2)
    # a time gate makes a GATE keyframe, and a measurement a USBL or an
    # OPTICAL one
    paired = (np.array(triggers) == "TIME_GATE") == (np.array(groups) == "GATE")
    if not paired.all():
        i = int(np.argmin(paired))
        raise ConfigError(f"{_where(path, i)}: keyframe trigger "
                          f"{triggers[i]!r} with group {groups[i]!r}")
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
        a, b = map(float, part.split(":"))
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigError(f"window bounds must be finite: {part!r}")
        if b < a:
            raise ConfigError(f"window ends before it starts: {part!r}")
        out.append((a, b))
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
