"""File formats: pose serialization, record files, and run configuration."""

import csv
import gc
import tempfile
from dataclasses import MISSING, astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from twistgraph import cli
from twistgraph import manifold as M
from twistgraph.factors import MeasurementSigmas, NoiseSigmas, RollPitchSpec
from twistgraph.fgraph import SolverSettings
from twistgraph.formats import (
    ConfigError,
    RunConfig,
    load_config,
    metrics_table,
    parse_config,
    _pose_columns,
    _write_columns,
    poses_from_fields,
    read_estimate,
    read_measurements,
    read_truth,
    write_estimate,
    write_measurements,
    write_metrics,
    write_truth,
)
from twistgraph.simkit import (
    ScenarioConfig,
    TwistSegment,
    generate_ground_truth,
    synthesize_measurements,
)
from twistgraph.tracking import (
    MeasurementRecord,
    MeasurementStream,
    ModePolicy,
    TrackingConfig,
    build_graph,
    measurement_baselines,
    metrics,
    schedule_keyframes,
    smooth,
)

from conftest import assert_identical, random_pose


def small_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        chaser_start=M.Pose3.identity(),
        target_start=M.Pose3(M.Rotation3.identity(), np.array([6.0, 2.0, 0.0])),
        chaser_segments=[TwistSegment(np.array([0.3, 0, 0, 0, 0, 0.01]), 30.0)],
        target_segments=[TwistSegment(np.array([0.25, 0, 0, 0, 0, 0.02]), 30.0)],
        optical_windows=[(8.0, 15.0)],
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def pose_fields(poses: list[M.Pose3]) -> list[list[str]]:
    """`tx,ty,tz,qw,qx,qy,qz` fields of each pose, as the writers format
    them."""
    return [list(map("{:.12g}".format, row))
            for row in _pose_columns(poses).tolist()]


class TestPoseSerialization:
    def test_round_trip(self, rng):
        for _ in range(200):
            T = random_pose(rng, max_angle=3.0, scale=100.0)
            back = poses_from_fields(pose_fields([T]))[0]
            np.testing.assert_allclose(back.matrix(), T.matrix(), atol=1e-9)

    def test_reader_normalizes_quaternion(self):
        fs = ["1", "2", "3", "2", "0", "0", "0"]  # qw = 2: not unit
        (T,) = poses_from_fields([fs])
        assert T.rotation.is_valid()
        np.testing.assert_allclose(T.rotation.matrix, np.eye(3), atol=1e-12)


def smoothed_estimate(mode):
    cfg = small_scenario()
    truth = generate_ground_truth(cfg)
    records = synthesize_measurements(truth, cfg)
    tcfg = TrackingConfig(target_start=cfg.target_start)
    policy = ModePolicy(mode=mode)
    kfs = schedule_keyframes(records, gate=1.0, policy=policy)
    graph, values = build_graph(kfs, policy, tcfg)
    return smooth(graph, values, SolverSettings(), kfs), truth, records


def scalar_pose_to_fields(T: M.Pose3) -> list[str]:
    """Reference writer: one rotation conversion per pose."""
    q = ScipyRotation.from_matrix(T.rotation.matrix).as_quat()  # x, y, z, w
    vals = list(T.translation) + [q[3], q[0], q[1], q[2]]
    return [f"{v:.12g}" for v in vals]


def scalar_pose_from_fields(fs) -> M.Pose3:
    """Reference reader: one rotation conversion per row."""
    t = np.array([float(v) for v in fs[:3]])
    qw, qx, qy, qz = (float(v) for v in fs[3:7])
    q = np.array([qx, qy, qz, qw])
    q = q / np.linalg.norm(q)
    return M.Pose3(M.Rotation3(ScipyRotation.from_quat(q).as_matrix()), t)


def assert_same_pose(a: M.Pose3, b: M.Pose3):
    assert np.array_equal(a.rotation.matrix, b.rotation.matrix)
    assert np.array_equal(a.translation, b.translation)


def special_poses() -> list[M.Pose3]:
    """Identity, rotations at and just below pi, and ones whose quaternion
    comes out with a negative w."""
    out = [M.Pose3.identity()]
    for axis in (np.array([1.0, 0, 0]), np.array([0, 0, 1.0]),
                 np.array([1.0, -2.0, 0.5]) / np.linalg.norm([1.0, -2.0, 0.5])):
        for angle in (np.pi, np.pi - 1e-9, np.pi - 1e-4, -2.5, 1e-12):
            out.append(M.Pose3(M.exp_so3(axis * angle),
                               np.array([1e3, -0.5, 1e-7]) * angle))
    out.append(M.Pose3(M.Rotation3(np.diag([1.0, -1.0, -1.0])), np.zeros(3)))
    return out


quat_rows = st.tuples(
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda q: np.linalg.norm(q) > 1e-3),
    st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),  # non-unit scale
).map(lambda r: [f"{v:.17g}" for v in r[0] + [c * r[2] for c in r[1]]])


class TestBatchedConversion:
    """Batched conversions equal the per-row scalar reference, bit for bit."""

    def test_to_fields_matches_scalar(self, rng):
        poses = special_poses() + [random_pose(rng, max_angle=np.pi, scale=50.0)
                                   for _ in range(200)]
        assert pose_fields(poses) == [scalar_pose_to_fields(T)
                                          for T in poses]
        assert pose_fields(poses[3:4]) == [scalar_pose_to_fields(poses[3])]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(quat_rows, min_size=1, max_size=30))
    def test_from_fields_matches_scalar(self, rows):
        rows.append(["0", "0", "0", "-1", "0", "0", "0"])  # negative qw
        rows.append(["1", "2", "3", "-0.5", "0.5", "-3", "7"])  # non-unit
        for got, fs in zip(poses_from_fields(rows), rows):
            assert_same_pose(got, scalar_pose_from_fields(fs))
        assert_same_pose(poses_from_fields(rows[:1])[0],
                         scalar_pose_from_fields(rows[0]))

    def test_round_trip_of_special_rotations(self):
        poses = special_poses()
        rows = pose_fields(poses)
        for got, fs in zip(poses_from_fields(rows), rows):
            assert_same_pose(got, scalar_pose_from_fields(fs))

    def test_empty_batches(self):
        assert pose_fields([]) == []
        assert poses_from_fields([]) == []

    def test_left_handed_rotation_is_refused(self):
        for R in (np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3))):
            pose = M.Pose3(M.Rotation3(R), np.zeros(3))
            with pytest.raises(ValueError, match="Non-positive determinant"):
                ScipyRotation.from_matrix(R)
            with pytest.raises(ValueError, match="Non-positive determinant"):
                pose_fields([M.Pose3.identity(), pose])

    def test_non_orthogonal_rotation_is_projected(self, rng):
        """A matrix further than 1e-12 from orthogonal is written as the
        nearest rotation, as scipy projects it; an orthogonal one of the
        same batch is written as it is."""
        poses = [random_pose(rng, max_angle=np.pi, scale=5.0)
                 for _ in range(50)]
        skewed = [M.Pose3(M.Rotation3(T.rotation.matrix
                                      + rng.normal(0.0, 1e-6, (3, 3))),
                          T.translation) for T in poses[:25]] + poses[25:]
        got = np.array(pose_fields(skewed), dtype=float)[:, 3:]
        want = np.array([scalar_pose_to_fields(T) for T in skewed],
                        dtype=float)[:, 3:]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)
        assert pose_fields(skewed[25:]) == [scalar_pose_to_fields(T)
                                            for T in poses[25:]]


def scalar_measurement_rows(records) -> list[list[str]]:
    return [[f"{r.timestamp:.9g}", r.kind]
            + ([f"{v:.12g}" for v in r.payload] + [""] * 4
               if r.kind == "USBL" else scalar_pose_to_fields(r.payload))
            for r in records]


def csv_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


class TestBatchedRecordFiles:
    """Batched readers and writers against per-row scalar references."""

    def test_truth_writer_and_reader_match_scalar(self, tmp_path):
        truth = generate_ground_truth(small_scenario(
            chaser_segments=[TwistSegment(np.array([0.3, 0, 0, 0, 0, 3.0]), 4.0)],
            target_segments=[TwistSegment(np.array([0.2, 0, 0, -2.0, 0, 0]), 4.0)]))
        path = tmp_path / "truth.csv"
        write_truth(path, truth)
        expected = []
        for t, C, T in zip(truth.times, truth.chaser, truth.target):
            expected.append([f"{t:.9g}", "chaser"] + scalar_pose_to_fields(C))
            expected.append([f"{t:.9g}", "target"] + scalar_pose_to_fields(T))
        rows = csv_rows(path)
        assert rows == expected
        back = read_truth(path)
        poses = [scalar_pose_from_fields(r[2:9]) for r in rows]
        for got, ref in zip([*back.chaser, *back.target],
                            poses[0::2] + poses[1::2]):
            assert_same_pose(got, ref)

    def test_measurement_writer_and_reader_match_scalar(self, tmp_path):
        cfg = small_scenario()
        records = synthesize_measurements(generate_ground_truth(cfg), cfg)
        path = tmp_path / "meas.csv"
        write_measurements(path, records)
        rows = csv_rows(path)
        assert rows == scalar_measurement_rows(records)
        for rec, row in zip(read_measurements(path), rows):
            if rec.kind == "USBL":
                assert np.array_equal(
                    rec.payload, np.array([float(v) for v in row[2:5]]))
            else:
                assert_same_pose(rec.payload, scalar_pose_from_fields(row[2:9]))

    def test_stream_and_its_records_write_the_same_bytes(self, tmp_path):
        cfg = small_scenario()
        records = synthesize_measurements(generate_ground_truth(cfg), cfg)
        write_measurements(tmp_path / "meas.csv", records)
        stream = read_measurements(tmp_path / "meas.csv")
        assert stream.records is None
        write_measurements(tmp_path / "stream.csv", stream)
        write_measurements(tmp_path / "list.csv", list(stream))
        assert ((tmp_path / "stream.csv").read_bytes()
                == (tmp_path / "list.csv").read_bytes())

    def test_special_rotations_in_a_measurement_file(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(
            "timestamp,kind,tx,ty,tz,qw,qx,qy,qz\n"
            "0.1,ODOM,0,0,0,1,0,0,0\n"
            "0.2,ODOM,1,2,3,-0.9,0.1,0.2,-0.3\n"  # negative qw
            "0.3,OPTICAL,1,2,3,1e-9,1,0,0\n"  # near pi
            "0.4,ODOM,1,2,3,3,0,4,0\n"  # norm 5
            "0.4,USBL,4,5,6,,,,\n")
        rows = csv_rows(path)
        for rec, row in zip(read_measurements(path), rows):
            if rec.kind != "USBL":
                assert_same_pose(rec.payload, scalar_pose_from_fields(row[2:9]))

    def test_header_only_files(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("timestamp,kind,tx,ty,tz,qw,qx,qy,qz\n")
        assert list(read_measurements(path)) == []
        assert read_estimate(path) == []
        truth = read_truth(path)
        assert truth.times.size == 0
        assert list(truth.chaser) == [] == list(truth.target)

    def test_usbl_only_stream(self, tmp_path):
        records = [MeasurementRecord(timestamp=0.5 * k, kind="USBL",
                                     payload=np.array([5.0, 0.1 * k, -1.0]))
                   for k in range(4)]
        path = tmp_path / "usbl.csv"
        assert write_measurements(path, records) == 4
        assert csv_rows(path) == scalar_measurement_rows(records)
        back = read_measurements(path)
        assert [r.kind for r in back] == ["USBL"] * 4
        for rec, row in zip(back, csv_rows(path)):
            assert np.array_equal(rec.payload,
                                  np.array([float(v) for v in row[2:5]]))

    def test_estimate_with_only_r3_targets(self, tmp_path):
        est, _, _ = smoothed_estimate("B")
        r3 = [row for row in est.rows if row.target_pose is None]
        path = tmp_path / "est.csv"
        assert write_estimate(path, r3) == len(r3) > 0
        rows = csv_rows(path)
        for row, C in zip(rows, [r.chaser for r in r3]):
            assert row[3:10] == scalar_pose_to_fields(C)
            assert row[13:17] == [""] * 4
        for got, row in zip(read_estimate(path), rows):
            assert got.target_pose is None and np.isnan(got.rel_angle)
            assert_same_pose(got.chaser, scalar_pose_from_fields(row[3:10]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(), max_size=40),
           st.lists(st.booleans(), min_size=40, max_size=40))
    def test_row_templates_format_as_str_format(self, values, shown):
        """A column's %-format gives str.format's text of every float, nan,
        inf, -0.0 and subnormal included, and a row outside its mask leaves
        the column's fields empty."""
        values = np.array(values + [0.0, -0.0, 5e-324, 1e300, np.nan, -np.inf,
                                    0.1, 123456789.0125], dtype=float)
        shown = np.array(shown + [True, False] * 4)[:len(values)]
        pairs = np.stack([values, -values], axis=1)
        labels = [f"L{i}" for i in range(len(values))]
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/v.csv"
            _write_columns(path, ["t", "label", "a", "b"],
                           [("%.9g", values, None), ("%s", labels, None),
                            ("%.12g", pairs, shown)])
            with open(path, "rb") as fh:
                text = fh.read()
        expected = "t,label,a,b\r\n" + "".join(
            f"{'{:.9g}'.format(v)},{label},"
            + (",".join(map("{:.12g}".format, p)) if k else ",")
            + "\r\n" for v, label, p, k in zip(values.tolist(), labels,
                                               pairs.tolist(), shown))
        assert text == expected.encode()

    def test_empty_estimate_writes_its_header(self, tmp_path):
        path = tmp_path / "est.csv"
        assert write_estimate(path, []) == 0
        assert path.read_bytes().count(b"\r\n") == 1
        assert read_estimate(path) == []

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_estimate_writer_and_reader_match_scalar(self, tmp_path, mode):
        est, _, _ = smoothed_estimate(mode)
        path = tmp_path / "est.csv"
        write_estimate(path, est.rows)
        rows = csv_rows(path)
        for row, C, S in zip(rows, [r.chaser for r in est.rows],
                             [r.target_pose for r in est.rows]):
            assert row[3:10] == scalar_pose_to_fields(C)
            if S is not None:
                assert row[10:17] == scalar_pose_to_fields(S)
        for got, row in zip(read_estimate(path), rows):
            assert_same_pose(got.chaser, scalar_pose_from_fields(row[3:10]))
            if row[13] != "":
                assert_same_pose(got.target_pose,
                                 scalar_pose_from_fields(row[10:17]))


# malformed measurement rows and the error each raises
MALFORMED_ROWS = [
    ("0.1,ODOM,0,0,0,1,0,0\n", "expected at least 9 fields"),
    ("0.1,ODOM,0,zero,0,1,0,0,0\n", "could not convert"),
    ("0.1,USBL,1,2\n", "expected at least 5 fields"),
    ("abc,USBL,1,2,3,,,,\n", "could not convert"),
    ("nan,USBL,1,2,3,,,,\n", "timestamp must be finite"),
    ("0.1\n", "expected at least 2 fields"),
]
NON_FINITE_ROWS = [
    ("0.1,ODOM,0,0,0,0,0,0,0\n", "zero quaternion"),
    ("0.1,USBL,1,nan,3,,,,\n", "non-finite value"),
    ("0.1,ODOM,inf,0,0,1,0,0,0\n", "non-finite value"),
    ("0.1,OPTICAL,1,2,3,nan,0,0,0\n", "non-finite value"),
    ("0.1,OPTICAL,1,2,3,1,-inf,0,0\n", "non-finite value"),
]
# (column, value, error) edits of an estimate row
ESTIMATE_EDITS = [
    (3, "inf", "non-finite value"),  # chaser tx
    (6, "0", "zero quaternion"),  # chaser qw..qz
    (10, "nan", "non-finite value"),  # target tx
    (13, "0", "zero quaternion"),  # target qw..qz
    (17, "nan", "non-finite value"),  # rel_x
    (20, "inf", "non-finite value"),  # rel_angle
    (2, "usbl", "unknown keyframe group 'usbl'"),  # group
    (1, "MEASURMENT", "unknown keyframe trigger 'MEASURMENT'"),  # trigger
]
# pose fields of a truth row and the error each raises
TRUTH_FIELDS = [
    ("1,2,nan,1,0,0,0", "non-finite value"),
    ("1,2,3,0,0,0,0", "zero quaternion"),
]

# the chaser and target rows of a truth file at t = 0
CHASER_0 = "0,chaser,0,0,0,1,0,0,0\n"
TARGET_0 = "0,target,1,0,0,1,0,0,0\n"


def edit_estimate_row(line: str, column: int, value: str) -> str:
    fields_ = line.rstrip("\r\n").split(",")
    # a zero quaternion zeroes all four of its fields
    for c in range(column, column + (4 if value == "0" else 1)):
        fields_[c] = value
    return ",".join(fields_) + "\n"


class TestMalformedRows:
    HEADER = "timestamp,kind,tx,ty,tz,qw,qx,qy,qz\n"

    @pytest.mark.parametrize("line, message", MALFORMED_ROWS)
    def test_measurement_row_errors_name_file_and_line(self, tmp_path, line,
                                                       message):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "0.0,USBL,1,2,3,,,,\n" + line)
        with pytest.raises(ConfigError, match=message) as err:
            read_measurements(path)
        assert f"{path}:3" in str(err.value)

    @pytest.mark.parametrize("line, message", NON_FINITE_ROWS)
    def test_non_finite_or_zero_quaternion_names_its_line(self, tmp_path,
                                                          line, message):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "0.0,ODOM,0,0,0,1,0,0,0\n" + line
                        + "0.2,USBL,1,2,3,,,,\n0.3,OPTICAL,0,0,1,1,0,0,0\n")
        with pytest.raises(ConfigError, match=message) as err:
            read_measurements(path)
        assert str(err.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("column, value, message", ESTIMATE_EDITS)
    def test_estimate_rows_are_finite(self, tmp_path, column, value,
                                      message):
        path = tmp_path / "est.csv"
        write_estimate(path, smoothed_estimate("A")[0].rows)
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = edit_estimate_row(lines[5], column, value)
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match=message) as err:
            read_estimate(path)
        assert str(err.value).startswith(f"{path}:6: ")

    @pytest.mark.parametrize("fields_, message", TRUTH_FIELDS)
    def test_truth_rows_are_finite(self, tmp_path, fields_, message):
        path = tmp_path / "truth.csv"
        write_truth(path, generate_ground_truth(small_scenario()))
        lines = path.read_text().splitlines(keepends=True)
        lines[8] = ",".join(lines[8].split(",")[:2]) + "," + fields_ + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match=message) as err:
            read_truth(path)
        assert str(err.value).startswith(f"{path}:9: ")

    @pytest.mark.parametrize("rows, line, message", [
        ([CHASER_0, "0,tagret,1,0,0,1,0,0,0\n"], 3,
         "unknown agent label 'tagret'"),
        ([CHASER_0, TARGET_0, "0.05,chaser,0,0,0,1,0,0,0\n",
          "0.1,target,1,0,0,1,0,0,0\n"], 5,
         "unpaired trajectory rows: target row at t = 0.1"),
        ([CHASER_0, TARGET_0, "0.05,chaser,0,0,0,1,0,0,0\n"], 4,
         "unpaired trajectory rows: chaser row at t = 0.05"),
        ([CHASER_0, TARGET_0, "0.05,target,1,0,0,1,0,0,0\n"], 4,
         "unpaired trajectory rows: target row at t = 0.05"),
    ])
    def test_truth_rows_pair_by_label_and_time(self, tmp_path, rows, line,
                                               message):
        path = tmp_path / "truth.csv"
        path.write_text("timestamp,agent,tx,ty,tz,qw,qx,qy,qz\n"
                        + "".join(rows))
        with pytest.raises(ConfigError, match=message) as err:
            read_truth(path)
        assert str(err.value).startswith(f"{path}:{line}: ")

    # digit separators and non-ASCII digits read as numbers by Python's
    # float alone (as 10 and 1); a record file holds neither
    PYTHON_ONLY = ["1_0", "\uff11"]

    @pytest.mark.parametrize("value", PYTHON_ONLY)
    def test_stream_field_only_python_reads_is_refused(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "0.0,USBL,1,2,3,,,,\n"
                        f"0.1,ODOM,0,0,{value},1,0,0,0\n"
                        "0.2,USBL,1,2,3,,,,\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="could not convert") as err:
            read_measurements(path)
        assert str(err.value).startswith(f"{path}:3: ")
        assert cli.main(["smooth", "--meas", str(path), "--out",
                         str(tmp_path / "est.csv")]) == 2

    @pytest.mark.parametrize("value", PYTHON_ONLY)
    def test_truth_field_only_python_reads_is_refused(self, tmp_path, value):
        path = tmp_path / "truth.csv"
        path.write_text("timestamp,agent,tx,ty,tz,qw,qx,qy,qz\n" + CHASER_0
                        + TARGET_0 + f"{value},chaser,0,0,0,1,0,0,0\n"
                        f"{value},target,1,0,0,1,0,0,0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="could not convert") as err:
            read_truth(path)
        assert str(err.value).startswith(f"{path}:4: ")

    @pytest.mark.parametrize("value", PYTHON_ONLY)
    def test_estimate_field_only_python_reads_is_refused(self, tmp_path,
                                                         value):
        path = tmp_path / "est.csv"
        write_estimate(path, smoothed_estimate("A")[0].rows)
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = edit_estimate_row(lines[5], 17, value)  # rel_x
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ConfigError, match="could not convert") as err:
            read_estimate(path)
        assert str(err.value).startswith(f"{path}:6: ")

    def test_short_estimate_row(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("header\n0.0,MEASUREMENT,USBL,0,0,0,1,0,0,0\n")
        with pytest.raises(ConfigError, match=f"{path}:2"):
            read_estimate(path)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """The CLI's default seed-1 scenario (3461 stream rows, 12800 truth
    rows) and its Mode B estimate (383 rows)."""
    d = tmp_path_factory.mktemp("full")
    paths = {k: d / f"{k}.csv" for k in ("truth", "meas", "est")}
    assert cli.main(["simulate", "--seed", "1", "--out-truth",
                     str(paths["truth"]), "--out-meas", str(paths["meas"])]) == 0
    assert cli.main(["smooth", "--mode", "B", "--meas", str(paths["meas"]),
                     "--out", str(paths["est"])]) == 0
    return {k: p.read_text() for k, p in paths.items()}


class TestBulkReader:
    """The one-pass readers on whole files: the last row is named when it
    is malformed, and every field reads as a per-row reader reads it."""

    @pytest.mark.parametrize("trigger, group", [
        ("TIME_GATE", "OPTICAL"), ("TIME_GATE", "USBL"),
        ("MEASUREMENT", "GATE")])
    def test_trigger_and_group_must_pair(self, tmp_path, full_run, trigger,
                                         group):
        """A time gate makes a GATE keyframe and a measurement a USBL or
        an OPTICAL one: any other pair names its line, and metrics exits
        2 on it."""
        lines = full_run["est"].splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines[1:], 1)
                 if line.split(",")[1] == trigger)
        fields_ = lines[i].split(",")
        fields_[2] = group
        lines[i] = ",".join(fields_)
        est, truth = tmp_path / "est.csv", tmp_path / "truth.csv"
        est.write_text("".join(lines))
        truth.write_text(full_run["truth"])
        with pytest.raises(ConfigError, match=f"keyframe trigger {trigger!r} "
                           f"with group {group!r}") as err:
            read_estimate(est)
        assert str(err.value).startswith(f"{est}:{i + 1}: ")
        assert cli.main(["metrics", "--estimate", str(est), "--truth",
                         str(truth)]) == 2

    @pytest.mark.parametrize("line, message", MALFORMED_ROWS + NON_FINITE_ROWS)
    def test_bad_last_stream_row_is_named(self, tmp_path, full_run, line,
                                          message):
        path = tmp_path / "meas.csv"
        path.write_text(full_run["meas"] + line)
        n = (full_run["meas"] + line).count("\n")
        assert n > 3000
        with pytest.raises(ConfigError, match=message) as err:
            read_measurements(path)
        assert str(err.value).startswith(f"{path}:{n}: ")

    @pytest.mark.parametrize("fields_, message", TRUTH_FIELDS)
    def test_bad_last_truth_row_is_named(self, tmp_path, full_run, fields_,
                                         message):
        lines = full_run["truth"].splitlines(keepends=True)
        lines[-1] = ",".join(lines[-1].split(",")[:2]) + "," + fields_ + "\n"
        path = tmp_path / "truth.csv"
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match=message) as err:
            read_truth(path)
        assert str(err.value).startswith(f"{path}:{len(lines)}: ")

    @pytest.mark.parametrize("column, value, message", ESTIMATE_EDITS)
    def test_bad_last_estimate_row_is_named(self, tmp_path, full_run, column,
                                            value, message):
        lines = full_run["est"].splitlines(keepends=True)
        lines[-1] = edit_estimate_row(lines[-1], column, value)
        path = tmp_path / "est.csv"
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match=message) as err:
            read_estimate(path)
        assert str(err.value).startswith(f"{path}:{len(lines)}: ")

    def test_stream_matches_per_row_reader(self, tmp_path, full_run):
        path = tmp_path / "meas.csv"
        path.write_text(full_run["meas"])
        rows = csv_rows(path)
        records = read_measurements(path)
        assert len(records) == len(rows) > 3000
        for rec, row in zip(records, rows):
            assert (rec.timestamp, rec.kind) == (float(row[0]), row[1])
            if rec.kind == "USBL":
                assert np.array_equal(
                    rec.payload, np.array([float(v) for v in row[2:5]]))
            else:
                assert_same_pose(rec.payload, scalar_pose_from_fields(row[2:9]))

    def test_stream_keeps_few_collector_objects(self, tmp_path, full_run):
        """The stream is columns: reading 3461 rows leaves a fixed handful
        of objects the cyclic collector tracks, not a few per row."""
        path = tmp_path / "meas.csv"
        path.write_text(full_run["meas"])
        read_measurements(path)  # first-call caches fill here
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            stream = read_measurements(path)
            kept = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert isinstance(stream, MeasurementStream) and len(stream) == 3461
        assert kept <= 4

    def test_stream_is_a_record_sequence(self, tmp_path, full_run):
        path = tmp_path / "meas.csv"
        path.write_text(full_run["meas"])
        stream = read_measurements(path)
        records = list(stream)
        assert len(records) == len(stream) == 3461
        assert {r.kind for r in records} == {"ODOM", "USBL", "OPTICAL"}
        for i in (0, 1, 1000, -1, -len(stream)):
            a, b = stream[i], records[i]
            assert (a.timestamp, a.kind) == (b.timestamp, b.kind)
            if a.kind == "USBL":
                assert_identical(a.payload, b.payload)
            else:
                assert_same_pose(a.payload, b.payload)
        assert [r.timestamp for r in stream[5:9]] == \
            [r.timestamp for r in records[5:9]]
        for i in (len(stream), -len(stream) - 1):
            with pytest.raises(IndexError):
                stream[i]
        # stacked from records, the stream hands back the caller's objects
        again = MeasurementStream.of(records)
        assert MeasurementStream.of(again) is again
        assert all(a is b for a, b in zip(again, records))
        assert again[-1] is records[-1]
        for name in ("times", "kinds", "vectors", "rotations"):
            assert_identical(getattr(again, name), getattr(stream, name))

    def test_truth_and_estimate_match_per_row_reader(self, tmp_path,
                                                     full_run):
        path = tmp_path / "truth.csv"
        path.write_text(full_run["truth"])
        rows = csv_rows(path)
        truth = read_truth(path)
        assert truth.times.tolist() == [float(r[0]) for r in rows[0::2]]
        for got, row in zip([*truth.chaser, *truth.target],
                            rows[0::2] + rows[1::2]):
            assert_same_pose(got, scalar_pose_from_fields(row[2:9]))
        path = tmp_path / "est.csv"
        path.write_text(full_run["est"])
        rows = csv_rows(path)
        for got, row in zip(read_estimate(path), rows):
            assert (got.timestamp, got.trigger, got.group) == (
                float(row[0]), row[1], row[2])
            assert_same_pose(got.chaser, scalar_pose_from_fields(row[3:10]))
            assert np.array_equal(got.target_position,
                                  [float(v) for v in row[10:13]])
            assert np.array_equal(got.rel_position,
                                  [float(v) for v in row[17:20]])
            if row[13] != "":
                assert_same_pose(got.target_pose,
                                 scalar_pose_from_fields(row[10:17]))
                assert got.rel_angle == float(row[20])
            else:
                assert got.target_pose is None and np.isnan(got.rel_angle)

    def test_empty_and_header_only_files(self, tmp_path):
        for text in ("", "timestamp,kind,tx,ty,tz,qw,qx,qy,qz\n"):
            path = tmp_path / "empty.csv"
            path.write_text(text)
            assert list(read_measurements(path)) == []
            assert read_estimate(path) == []
            assert list(read_truth(path).chaser) == []


class TestRecordFiles:
    def test_truth_round_trip(self, tmp_path):
        truth = generate_ground_truth(small_scenario())
        path = tmp_path / "truth.csv"
        n = write_truth(path, truth)
        assert n == 2 * len(truth.times)
        back = read_truth(path)
        np.testing.assert_allclose(back.times, truth.times, atol=1e-9)
        for Ta, Tb in zip(back.chaser[::100] + back.target[::100],
                          truth.chaser[::100] + truth.target[::100]):
            np.testing.assert_allclose(Ta.matrix(), Tb.matrix(), atol=1e-9)

    def test_measurements_round_trip(self, tmp_path):
        cfg = small_scenario()
        records = synthesize_measurements(generate_ground_truth(cfg), cfg)
        path = tmp_path / "meas.csv"
        assert write_measurements(path, records) == len(records)
        back = read_measurements(path)
        assert [r.kind for r in back] == [r.kind for r in records]
        np.testing.assert_allclose([r.timestamp for r in back],
                                   [r.timestamp for r in records], atol=1e-9)
        for ra, rb in zip(records, back):
            if ra.kind == "USBL":
                np.testing.assert_allclose(rb.payload, ra.payload, atol=1e-9)
            else:
                np.testing.assert_allclose(rb.payload.matrix(),
                                           ra.payload.matrix(), atol=1e-9)

    def test_unknown_measurement_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,kind,tx,ty,tz,qw,qx,qy,qz\n"
                        "1.0,SONAR,0,0,0,1,0,0,0\n")
        with pytest.raises(ConfigError):
            read_measurements(path)

    _estimate = staticmethod(smoothed_estimate)

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_estimate_round_trip(self, tmp_path, mode):
        est, _, _ = self._estimate(mode)
        path = tmp_path / "est.csv"
        assert write_estimate(path, est.rows) == len(est.rows)
        rows = read_estimate(path)
        assert len(rows) == len(est.rows)
        for row, ref in zip(rows, est.rows):
            assert row.timestamp == pytest.approx(ref.timestamp)
            assert row.trigger == ref.trigger and row.group == ref.group
            np.testing.assert_allclose(row.chaser.matrix(),
                                       ref.chaser.matrix(), atol=1e-9)
            np.testing.assert_allclose(row.rel_position, ref.rel_position,
                                       atol=1e-9)
            if ref.target_pose is not None:
                assert row.target_pose is not None
                np.testing.assert_allclose(row.target_pose.matrix(),
                                           ref.target_pose.matrix(), atol=1e-9)
                assert row.rel_angle == pytest.approx(ref.rel_angle, abs=1e-9)
            else:
                assert row.target_pose is None
                np.testing.assert_allclose(row.target_position,
                                           ref.target_position, atol=1e-9)
                assert np.isnan(row.rel_angle)

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_metrics_of_estimate_file_match_its_rows(self, tmp_path, mode):
        est, truth, _ = self._estimate(mode)
        path = tmp_path / "est.csv"
        write_estimate(path, est.rows)
        got = metrics(read_estimate(path), truth).groups
        ref = metrics(est.rows, truth).groups
        assert list(got) == list(ref)
        for g, s in ref.items():
            assert (got[g].count, got[g].ang_count) == (s.count, s.ang_count)
            for name in ("mean_pos", "std_pos", "mean_ang", "std_ang"):
                assert getattr(got[g], name) == pytest.approx(
                    getattr(s, name), rel=1e-9, nan_ok=True), (g, name)

    def test_baselines_of_read_stream_match_its_records(self, tmp_path):
        _, truth, records = self._estimate("A")
        path = tmp_path / "meas.csv"
        write_measurements(path, records)
        stream = read_measurements(path)
        got = measurement_baselines(stream, truth)
        ref = measurement_baselines(list(stream), truth)
        assert list(got) == list(ref) == ["USBL", "OPTICAL"]
        for g in ref:
            assert_identical(astuple(got[g]), astuple(ref[g]))

    def test_metrics_file_and_table(self, tmp_path):
        est, truth, records = self._estimate("A")
        rep = metrics(est.rows, truth)
        base = measurement_baselines(records, truth)
        path = tmp_path / "metrics.csv"
        write_metrics(path, rep.groups, base)
        text = path.read_text()
        assert "estimate,ALL" in text and "baseline,USBL" in text
        table = metrics_table(rep.groups, base)
        assert "ALL" in table and "baseline" in table


class TestRunConfig:
    def test_sigma_defaults_come_from_one_table(self):
        table = {f.name: f.default for f in fields(NoiseSigmas)}
        assert table == {
            "odom_sigma_pos": 0.002, "odom_sigma_rot": 0.0005,
            "usbl_sigma": 1.5, "optical_sigma_pos": 0.05,
            "optical_sigma_rot": 0.01, "ct_sigma_pos": 0.05,
            "ct_sigma_rot": 0.005, "rp_sigma": 0.05, "boundary_sigma": 0.01,
            "chaser_prior_sigma_pos": 1e-4, "chaser_prior_sigma_rot": 1e-4,
            "target_prior_sigma_pos": 10.0, "target_prior_sigma_rot": 0.5}
        measurement = [f.name for f in fields(MeasurementSigmas)]
        for cls, names in ((ScenarioConfig, measurement),
                           (TrackingConfig, table), (RunConfig, table)):
            defaults = {f.name: f.default for f in fields(cls)
                        if "sigma" in f.name}
            assert defaults == {name: table[name] for name in names}
        np.testing.assert_array_equal(RollPitchSpec().covariance,
                                      np.eye(2) * table["rp_sigma"] ** 2)
        cfg = RunConfig(usbl_sigma=0.7, ct_sigma_rot=0.03)
        assert isinstance(cfg, (ScenarioConfig, TrackingConfig))
        assert (cfg.usbl_sigma, cfg.ct_sigma_rot) == (0.7, 0.03)

    # every setting besides the sigmas and the two poses, with its default
    RUN_DEFAULTS = {
        "mode": "A", "down_after": 1, "gate": 1.0, "seed": 0,
        "duration": 320.0, "dt": 0.05, "odom_rate_hz": 10.0,
        "usbl_rate_hz": 0.5, "optical_rate_hz": 2.0, "optical_windows": [],
        "gaps": [], "chaser_segments": [], "target_segments": [],
        "max_iterations": 100, "rel_cost_tol": 1e-9, "dx_tol": 1e-10,
        "init_lambda": 1e-4}

    def test_config_keys_and_defaults(self):
        """parse_config takes exactly these 32 keys; writing each default
        back as text parses to the same value and type."""
        cfg = parse_config([])
        sigmas = {f.name for f in fields(NoiseSigmas)}
        keys = {f.name for f in fields(cfg)}
        assert keys == (set(self.RUN_DEFAULTS) | sigmas
                        | {"chaser_start", "target_start"})
        assert len(keys) == 32
        for name, value in self.RUN_DEFAULTS.items():
            got = getattr(cfg, name)
            assert (got, type(got)) == (value, type(value)), name
        for name in ("chaser_start", "target_start"):
            np.testing.assert_array_equal(getattr(cfg, name).matrix(),
                                          np.eye(4))
        for name in sorted(keys):
            value = getattr(cfg, name)
            text = (" ".join(pose_fields([value])[0])
                    if isinstance(value, M.Pose3)
                    else "" if isinstance(value, list) else str(value))
            got = getattr(parse_config([f"{name} = {text}\n"]), name)
            if isinstance(value, M.Pose3):
                np.testing.assert_array_equal(got.matrix(), value.matrix())
            else:
                assert (got, type(got)) == (value, type(value)), name

    def test_each_default_is_declared_once(self):
        """RunConfig inherits every default from the library configs and
        declares only the settings none of them gives it."""
        declared = {}
        for cls in (MeasurementSigmas, NoiseSigmas, ScenarioConfig,
                    TrackingConfig, SolverSettings, ModePolicy):
            for name in vars(cls).get("__annotations__", {}):
                f = cls.__dataclass_fields__[name]
                if f.default is MISSING and f.default_factory is MISSING:
                    continue
                declared.setdefault(name, []).append(cls.__name__)
        assert [n for n, owners in declared.items() if len(owners) > 1] == []
        own = set(vars(RunConfig)["__annotations__"])
        assert own == {"duration", "gate", "target_start", "chaser_segments",
                       "target_segments"}
        # ScenarioConfig requires the segment lists and the start poses;
        # TrackingConfig's target_start default (None) means no target prior
        assert own & set(declared) == {"target_start"}
        assert TrackingConfig().target_start is None

    def test_defaults_and_adapters(self):
        cfg = parse_config([])
        assert cfg.mode == "A" and cfg.gate == 1.0
        # the CLI passes the RunConfig itself as each library config
        for cls in (ScenarioConfig, TrackingConfig, SolverSettings,
                    ModePolicy):
            assert isinstance(cfg, cls)
        assert cfg.usbl_sigma == ScenarioConfig.usbl_sigma
        assert cfg.ct_sigma_rot == TrackingConfig.ct_sigma_rot
        assert cfg.max_iterations == SolverSettings.max_iterations

    def test_full_file_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "mode = B\n"
            "gate = 2.0   # trailing comment\n"
            "seed = 11\n"
            "usbl_sigma = 0.8\n"
            "target_start = 5 1 -2 1 0 0 0\n"
            "chaser_segments = 0.3 0 0 0 0 0.01 20; 0.2 0 0 0 0 -0.01 10\n"
            "optical_windows = 5:10; 20:25\n")
        cfg = load_config(path)
        assert cfg.mode == "B" and cfg.gate == 2.0 and cfg.seed == 11
        assert cfg.usbl_sigma == 0.8
        np.testing.assert_allclose(cfg.target_start.translation, [5, 1, -2])
        assert len(cfg.chaser_segments) == 2
        assert cfg.chaser_segments[1].duration == 10.0
        assert cfg.optical_windows == [(5.0, 10.0), (20.0, 25.0)]

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="demo.cfg:2"):
            parse_config(["mode = A\n", "wibble = 3\n"], source="demo.cfg")

    def test_bad_syntax_and_values(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(["just words\n"])
        with pytest.raises(ConfigError, match="gate"):
            parse_config(["gate = -1\n"])
        with pytest.raises(ConfigError, match="mode"):
            parse_config(["mode = Z\n"])
        with pytest.raises(ConfigError, match="pose"):
            parse_config(["target_start = 1 2 3\n"])

    def test_overrides_win(self):
        cfg = parse_config(["gate = 1.5\n", "seed = 1\n"],
                           overrides={"gate": "3.0", "seed": 9,
                                      "mode": None})
        assert cfg.gate == 3.0 and cfg.seed == 9 and cfg.mode == "A"

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="override"):
            parse_config([], overrides={"nope": "1"})

    def test_later_assignment_wins(self):
        cfg = parse_config(["gate = 1.0\n", "gate = 4.0\n"])
        assert cfg.gate == 4.0
