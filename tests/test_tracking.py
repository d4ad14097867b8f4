"""Keyframe scheduling, initialization, graph building, and metrics."""

import dataclasses
import gc
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistgraph import cli, fgraph, formats
from twistgraph import manifold as M
from twistgraph import tracking
from twistgraph.fgraph import (
    FactorGraph,
    Linearizer,
    SolverSettings,
    Values,
    optimize,
    total_cost,
)
from twistgraph.simkit import (
    ScenarioConfig,
    TwistSegment,
    generate_ground_truth,
    synthesize_measurements,
)
from twistgraph.tracking import (
    ConfigError,
    MeasurementRecord,
    ModePolicy,
    NeedsPriorError,
    StreamOrderError,
    TrackingConfig,
    _OdometrySpline,
    build_graph,
    check_odometry_gate,
    extrapolate,
    initialize_values,
    measurement_baselines,
    metrics,
    schedule_keyframes,
    smooth,
)

from conftest import assert_identical


def usbl(t, z=(5.0, 0.0, 0.0)):
    return MeasurementRecord(timestamp=t, kind="USBL", payload=np.asarray(z, float))


def optical(t, pose=None):
    return MeasurementRecord(timestamp=t, kind="OPTICAL",
                             payload=pose or M.Pose3.identity())


def odom(t, rel=None):
    return MeasurementRecord(timestamp=t, kind="ODOM",
                             payload=rel or M.Pose3.identity())


def small_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        chaser_start=M.Pose3.identity(),
        target_start=M.Pose3(M.Rotation3.identity(),
                             np.array([6.0, 2.0, 0.0])),
        chaser_segments=[TwistSegment(np.array([0.3, 0, 0, 0, 0, 0.01]), 40.0)],
        target_segments=[TwistSegment(np.array([0.25, 0, 0, 0, 0, 0.02]), 40.0)],
        optical_windows=[(10.0, 20.0)],
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScheduling:
    def test_gate_fillers_between_sparse_measurements(self):
        kfs = schedule_keyframes([usbl(0.0), usbl(3.5)], gate=1.0)
        assert [kf.timestamp for kf in kfs] == [0.0, 1.0, 2.0, 3.0, 3.5]
        assert [kf.trigger for kf in kfs] == [
            "MEASUREMENT", "TIME_GATE", "TIME_GATE", "TIME_GATE", "MEASUREMENT"]

    def test_same_time_measurements_merge(self):
        kfs = schedule_keyframes([usbl(1.0), optical(1.0)], gate=1.0)
        assert len(kfs) == 1
        assert kfs[0].meas_kinds == ("OPTICAL", "USBL")
        assert kfs[0].group == "OPTICAL"

    def test_until_extends_with_terminal_gates(self):
        kfs = schedule_keyframes([usbl(0.0)], gate=1.0, until=3.0)
        assert [kf.timestamp for kf in kfs] == [0.0, 1.0, 2.0, 3.0]
        assert kfs[-1].trigger == "TIME_GATE"

    def test_mode_b_switching(self):
        policy = ModePolicy(mode="B")
        recs = [usbl(0.0), optical(1.0), optical(2.0), usbl(3.0), usbl(4.0)]
        kfs = schedule_keyframes(recs, gate=1.0, policy=policy)
        tags = [kf.target_key.kind.tag for kf in kfs]
        assert tags == ["RN", "SE3", "SE3", "RN", "RN"]

    def test_mode_b_down_after_hysteresis(self):
        policy = ModePolicy(mode="B", down_after=2)
        recs = [optical(0.0), usbl(1.0), usbl(2.0), usbl(3.0)]
        kfs = schedule_keyframes(recs, gate=1.0, policy=policy)
        tags = [kf.target_key.kind.tag for kf in kfs]
        assert tags == ["SE3", "SE3", "RN", "RN"]

    def test_mode_a_is_all_se3(self):
        recs = [usbl(0.0), optical(1.0), usbl(2.0)]
        kfs = schedule_keyframes(recs, gate=1.0, policy=ModePolicy(mode="A"))
        assert all(kf.target_key.kind.tag == "SE3" for kf in kfs)

    def test_out_of_order_stream_rejected(self):
        with pytest.raises(StreamOrderError):
            schedule_keyframes([usbl(2.0), usbl(1.0)])

    def test_steps_back_within_tolerance_do_not_accumulate(self):
        # each record steps back 9e-10 (< 1e-9) but the stream falls 1.8e-6
        with pytest.raises(StreamOrderError):
            schedule_keyframes([usbl(1.0 - 9e-10 * k) for k in range(2000)])
        # a single step back within the tolerance is still accepted, and
        # joins the keyframe it stepped back into
        recs = [usbl(1.0), usbl(1.0 - 9e-10), usbl(2.0)]
        kfs = schedule_keyframes(recs)
        assert len(kfs) == 2
        assert kfs[0].records == tuple(recs[:2])

    def test_records_within_tolerance_merge_across_rounding_grid(self):
        # 52 + 4.999e-10 and 52 + 5.001e-10 round to different 1e-9 steps
        recs = [usbl(51.0), usbl(52.0 + 4.999e-10, (5.0, 1.0, 0.0)),
                optical(52.0 + 5.001e-10), usbl(53.0)]
        kfs = schedule_keyframes(recs, gate=1.0)
        assert [kf.timestamp for kf in kfs] == [51.0, 52.0 + 4.999e-10, 53.0]
        assert kfs[1].records == tuple(recs[1:3])
        assert kfs[1].meas_kinds == ("OPTICAL", "USBL")
        # the tolerance is measured from the event's first record
        kfs = schedule_keyframes([usbl(1.0), usbl(1.0 + 8e-10),
                                  usbl(1.0 + 1.6e-9)])
        assert [len(kf.records) for kf in kfs] == [2, 1]

    @pytest.mark.parametrize("gate", [1e-9, 0.0, -1.0, float("nan")])
    def test_unbounded_gate_refused(self, gate):
        with pytest.raises(ConfigError, match="^gate = .* asks for"):
            schedule_keyframes([usbl(0.0), odom(2.5), usbl(5.0)], gate=gate)

    def test_gate_under_the_odometry_period_refused(self):
        """A gate shorter than the shortest step between distinct odometry
        times (repeats and steps back within 1e-9 s left out) is refused;
        a gate of that step is not, and the scheduler itself takes the
        short gate."""
        recs = ([usbl(0.0), odom(0.1), odom(0.1), odom(0.1 - 5e-10)]
                + [odom(0.1 * k) for k in range(2, 31)] + [usbl(3.0)])
        with pytest.raises(ConfigError, match=re.escape(
                "gate = 0.05 is shorter than the stream's odometry period "
                "of 0.1 s")):
            check_odometry_gate(recs, 0.05)
        check_odometry_gate(recs, 0.1)
        check_odometry_gate([usbl(0.0), usbl(3.0)], 0.05)
        assert schedule_keyframes(recs, gate=0.05)

    def test_unknown_kind_rejected(self):
        sonar = MeasurementRecord(timestamp=0.5, kind="SONAR",
                                  payload=np.zeros(3))
        with pytest.raises(ValueError,
                           match="unknown measurement kind 'SONAR'"):
            schedule_keyframes([usbl(0.0), sonar, usbl(1.0)])

    def test_no_relative_measurements_rejected(self):
        with pytest.raises(NeedsPriorError):
            schedule_keyframes([odom(0.1), odom(0.2)])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ModePolicy(mode="C")

    def test_keys_are_unique_and_timestamped(self):
        kfs = schedule_keyframes([usbl(0.0), usbl(3.0)], gate=1.0)
        all_keys = [k for kf in kfs for k in (kf.chaser_key, kf.target_key)]
        assert len(set(all_keys)) == len(all_keys)
        for kf in kfs:
            assert kf.chaser_key.timestamp == kf.timestamp
            assert kf.target_key.timestamp == kf.timestamp


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    """The CLI's seed-1 stream, and the seed-1 stream with a measurement gap
    at the start (`gaps = 0:30; 150:170`), as files."""
    d = tmp_path_factory.mktemp("streams")
    (d / "gap.cfg").write_text("gaps = 0:30; 150:170\n")
    out = {}
    for name, config in (("default", []), ("gap", ["--config",
                                                    str(d / "gap.cfg")])):
        out[name] = d / f"meas_{name}.csv"
        assert cli.main(["simulate", *config, "--seed", "1", "--out-truth",
                         str(d / f"truth_{name}.csv"),
                         "--out-meas", str(out[name])]) == 0
    return out


def assert_same_keyframes(kfs, ref):
    """Times, triggers, kinds, keys, odometry and record payloads, bit for
    bit."""
    assert len(kfs) == len(ref)
    for a, b in zip(kfs, ref):
        assert (a.timestamp, a.trigger, a.meas_kinds) == \
            (b.timestamp, b.trigger, b.meas_kinds)
        assert (a.chaser_key, a.target_key) == (b.chaser_key, b.target_key)
        assert (a.odometry is None) == (b.odometry is None)
        if a.odometry is not None:
            (Ta, na), (Tb, nb) = a.odometry, b.odometry
            assert_identical(Ta.rotation.matrix, Tb.rotation.matrix)
            assert_identical(Ta.translation, Tb.translation)
            assert na == nb
        assert [r.kind for r in a.records] == [r.kind for r in b.records]
        assert [r.timestamp for r in a.records] == \
            [r.timestamp for r in b.records]
        for ra, rb in zip(a.records, b.records):
            if ra.kind == "USBL":
                assert_identical(ra.payload, rb.payload)
            else:
                assert_identical(ra.payload.rotation.matrix,
                                 rb.payload.rotation.matrix)
                assert_identical(ra.payload.translation,
                                 rb.payload.translation)


class TestStreamScheduling:
    """schedule_keyframes on the reader's column stream and on the same
    stream as a list of records."""

    @pytest.mark.parametrize("mode", ["A", "B"])
    @pytest.mark.parametrize("name", ["default", "gap"])
    def test_stream_and_records_schedule_alike(self, streams, name, mode):
        cfg = formats.parse_config([], overrides={"mode": mode})
        stream = formats.read_measurements(streams[name])
        kfs = schedule_keyframes(stream, gate=cfg.gate, policy=cfg)
        records = list(stream)
        ref = schedule_keyframes(records, gate=cfg.gate, policy=cfg)
        assert_same_keyframes(kfs, ref)
        # from records, a keyframe holds the caller's own objects
        held = {id(r) for kf in ref for r in kf.records}
        assert held <= {id(r) for r in records}
        assert sum(len(kf.records) for kf in kfs) == sum(
            r.kind != "ODOM" for r in records)

    def test_seed_1_mode_a_report_holds_the_gauge_verdict(self, streams):
        """The CLI's seed-1 Mode A solve passes the gauge check by a wide
        margin, and its report holds the check's verdict on the first
        iterate's band."""
        cfg = formats.parse_config([], overrides={"mode": "A"})
        records = formats.read_measurements(streams["default"])
        kfs = schedule_keyframes(records, gate=cfg.gate, policy=cfg)
        graph, values = build_graph(kfs, cfg, cfg)
        gauge = smooth(graph, values, cfg, kfs).report.gauge
        assert set(gauge) == {"min_pivot_sq", "inverse_bound", "suspects"}
        assert gauge["suspects"] == 0
        assert gauge["min_pivot_sq"] > 1e-9 and gauge["inverse_bound"] > 1e-9
        lin = Linearizer(graph)
        _, band = lin.residual(values)[1]()
        assert fgraph._check_gauge(band, lin.offsets) == gauge

    def test_repeated_usbl_rows_share_its_keyframe(self, streams, tmp_path):
        """A USBL row repeated at its own time and 1e-10 s later joins the
        original's keyframe."""
        lines = streams["default"].read_text().splitlines(keepends=True)
        # past the first optical window and the gaps around it
        i = next(i for i, line in enumerate(lines) if ",USBL," in line
                 and float(line.split(",")[0]) > 140.0)
        t, rest = lines[i].split(",", 1)
        lines[i + 1:i + 1] = [lines[i], f"{float(t) + 1e-10!r},{rest}"]
        path = tmp_path / "meas.csv"
        path.write_text("".join(lines))
        kfs = schedule_keyframes(formats.read_measurements(path))
        ref = schedule_keyframes(formats.read_measurements(streams["default"]))
        assert [kf.timestamp for kf in kfs] == [kf.timestamp for kf in ref]
        (kf,) = [kf for kf in kfs if kf.timestamp == float(t)]
        assert [r.timestamp for r in kf.records] == [float(t)] * 2 + [
            float(t) + 1e-10]


class TestExtrapolate:
    def test_r3_linear(self):
        a = M.EuclidPoint(np.array([1.0, 0.0, 0.0]))
        b = M.EuclidPoint(np.array([3.0, 0.0, 0.0]))
        out = extrapolate(a, b, 1.0, 2.0)
        np.testing.assert_allclose(out.coords, [7.0, 0.0, 0.0])

    def test_se3_stays_on_circular_arc(self):
        from twistgraph.simkit import arc_distance, unit_circle_pose
        out = extrapolate(unit_circle_pose(0), unit_circle_pose(1), 1.0, 3.0)
        assert arc_distance(out.translation) < 1e-12
        np.testing.assert_allclose(out.matrix(), unit_circle_pose(4).matrix(),
                                   atol=1e-12)

    def test_rejects_bad_dt(self):
        a = M.EuclidPoint(np.zeros(3))
        with pytest.raises(ValueError):
            extrapolate(a, a, 0.0, 1.0)


def relative(spline, ta, tb):
    """The spline's relative pose over (ta, tb] and its effective record
    count, from a batch of one interval."""
    R, t, n_eff = spline.intervals([ta], [tb])
    return M.Pose3(M.Rotation3(R[0]), t[0]), n_eff[0]


class TestOdometrySpline:
    def test_exact_composition_over_record_boundaries(self):
        # two records spanning (0,1] and (1,2]
        r1 = M.exp_se3(np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.05]))
        r2 = M.exp_se3(np.array([0.2, 0.1, 0.0, 0.0, 0.0, -0.02]))
        spline = _OdometrySpline([odom(1.0, r1), odom(2.0, r2)])
        rel, n_eff = relative(spline, 0.0, 2.0)
        np.testing.assert_allclose(rel.matrix(), M.compose(r1, r2).matrix(),
                                   atol=1e-12)
        assert n_eff == pytest.approx(2.0)

    def test_screw_split_is_exact_for_constant_twist(self):
        xi = np.array([0.3, 0.0, 0.1, 0.0, 0.0, 0.2])
        rec = M.exp_se3(xi)
        spline = _OdometrySpline([odom(1.0, rec)])
        half, n_eff = relative(spline, 0.0, 0.5)
        np.testing.assert_allclose(half.matrix(), M.exp_se3(xi / 2).matrix(),
                                   atol=1e-12)
        assert n_eff == pytest.approx(0.5)

    def test_empty_interval(self):
        spline = _OdometrySpline([odom(1.0)])
        rel, n_eff = relative(spline, 0.6, 0.6)
        np.testing.assert_allclose(rel.matrix(), np.eye(4), atol=1e-15)
        assert n_eff == 0.0


def scan_relative(segments, ta, tb):
    """Reference composition: visit every segment in order."""
    out, n_eff = M.Pose3.identity(), 0.0
    for a, b, rel in segments:
        lo, hi = max(a, ta), min(b, tb)
        if hi - lo <= 1e-12:
            continue
        frac = (hi - lo) / (b - a)
        n_eff += frac
        piece = rel if frac > 1.0 - 1e-12 else M.exp_se3(frac * M.log_se3(rel))
        out = M.compose(out, piece)
    return out, n_eff


# Record spacings: regular, jittered, zero (duplicate timestamps), and small
# steps back that the scheduler's 1e-9 order tolerance lets through.
spacings = st.lists(
    st.one_of(st.just(0.0), st.just(0.1), st.floats(1e-3, 2.0),
              st.sampled_from([-5e-10, -9e-10])),
    min_size=1, max_size=25)
# Offsets that put an interval end on a segment edge, within (or just
# beyond) the 1e-12 overlap tolerance of one, or inside a step back.
edge_offsets = st.sampled_from(
    [0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12,
     2e-10, -2e-10, -4e-10])


@st.composite
def odometry_queries(draw):
    t0 = draw(st.sampled_from([0.0, 0.05, 3.0]))
    times = list(np.cumsum([t0] + draw(spacings)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    recs = [odom(float(t), M.exp_se3(rng.normal(0.0, 0.3, 6))) for t in times]
    edges = [0.0] + times

    def instant():
        return draw(st.one_of(
            st.floats(-1.0, times[-1] + 1.0),  # inside, before or after
            st.sampled_from(edges).flatmap(
                lambda e: edge_offsets.map(lambda d: e + d))))

    queries = []
    for _ in range(draw(st.integers(1, 6))):
        ta, tb = sorted((instant(), instant()))
        queries.append((ta, tb))
    return recs, queries


class TestOdometryBisection:
    """The bisected composition equals a scan over every segment, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(odometry_queries())
    def test_matches_linear_scan(self, case):
        recs, queries = case
        spline = _OdometrySpline(recs)
        for ta, tb in queries:
            rel, n_eff = relative(spline, ta, tb)
            ref, ref_n = scan_relative(spline.segments, ta, tb)
            assert np.array_equal(rel.rotation.matrix, ref.rotation.matrix)
            assert np.array_equal(rel.translation, ref.translation)
            assert n_eff == ref_n

    def test_interval_inside_one_segment_and_on_edges(self):
        xi = np.array([0.3, 0.0, 0.1, 0.0, 0.0, 0.2])
        recs = [odom(t, M.exp_se3(xi)) for t in (1.0, 2.0, 2.0, 3.0)]
        spline = _OdometrySpline(recs)
        for ta, tb in [(1.2, 1.7), (1.0, 2.0), (2.0 - 1e-13, 3.0 + 1e-13),
                       (2.0 + 5e-13, 3.0), (-1.0, 0.5), (2.5, 9.0),
                       (3.0 - 1e-13, 4.0), (2.0, 2.0)]:
            rel, n_eff = relative(spline, ta, tb)
            ref, ref_n = scan_relative(spline.segments, ta, tb)
            assert np.array_equal(rel.matrix(), ref.matrix())
            assert n_eff == ref_n

    @pytest.mark.parametrize("times, ta, tb", [
        # steps back by less than the scheduler's 1e-9 tolerance leave the
        # segment starts (first case) or ends (second case) unsorted
        ((0.5, 0.4999999991, 0.4999999986, 1.4999999986, 2.4999999986,
          2.9999999986, 3.4999999986, 3.9999999986),
         0.4999999984, 0.4999999987),
        ((0.5, 1.5, 1.5 - 9e-10, 1.5 - 1.8e-9), 1.5 - 2e-10, 1.5),
    ])
    def test_out_of_order_records_match_scan(self, times, ta, tb):
        recs = [odom(t, M.exp_se3(np.full(6, 0.05 * k)))
                for k, t in enumerate(times, start=1)]
        spline = _OdometrySpline(recs)
        rel, n_eff = relative(spline, ta, tb)
        ref, ref_n = scan_relative(spline.segments, ta, tb)
        assert ref_n > 0.0
        assert np.array_equal(rel.matrix(), ref.matrix())
        assert n_eff == ref_n


@st.composite
def odometry_streams(draw):
    """Whole streams: odometry with duplicate timestamps and steps back
    within the scheduler's 1e-9 tolerance, USBL fixes that may start after
    a gap and leave gaps for gated keyframes, and a gate."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    steps = draw(st.lists(
        st.one_of(st.just(0.0), st.just(0.1), st.floats(1e-3, 1.5),
                  st.sampled_from([-5e-10, -9e-10])),
        min_size=1, max_size=40))
    stream, t, latest = [], draw(st.sampled_from([0.0, 0.05, 0.1, 2.0])), 0.0
    for step in steps:
        # a step back is taken from the latest time, as the tolerance is
        t = latest + step if step < 0 else t + step
        latest = max(latest, t)
        stream.append((latest, odom(t, M.exp_se3(rng.normal(0.0, 0.3, 6)))))
    first = draw(st.sampled_from([0.0, 1.0, 4.0]))  # a gap at the start
    fixes = draw(st.lists(st.floats(first, first + latest + 3.0),
                          max_size=12))
    for tr in [first] + fixes:
        stream.append((tr, usbl(tr)))
    stream.sort(key=lambda e: e[0])  # stable: steps back stay in order
    gate = draw(st.sampled_from([0.3, 0.7, 1.0, 2.5]))
    return [rec for _, rec in stream], gate


class TestScheduledOdometry:
    """schedule_keyframes' odometry equals the reference scan of each
    keyframe interval, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(odometry_streams())
    def test_matches_linear_scan_per_interval(self, case):
        recs, gate = case
        kfs = schedule_keyframes(recs, gate=gate)
        segments = _OdometrySpline(recs).segments
        prev = 0.0
        for i, kf in enumerate(kfs):
            ref, ref_n = scan_relative(segments, prev, kf.timestamp)
            prev = kf.timestamp
            if i == 0 and not ref_n > 0:
                assert kf.odometry is None
                continue
            rel, n_eff = kf.odometry
            assert np.array_equal(rel.rotation.matrix, ref.rotation.matrix)
            assert np.array_equal(rel.translation, ref.translation)
            assert n_eff == ref_n


@st.composite
def seeding_cases(draw):
    """Relative record streams at irregular spacings, with gates, modes and
    down_after values that put USBL and gated keyframes in both kinds."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["USBL", "OPTICAL", "BOTH"]),
                          min_size=1, max_size=30))
    steps = draw(st.lists(st.sampled_from([0.3, 0.5, 1.0, 1.7, 3.2]),
                          min_size=len(kinds), max_size=len(kinds)))
    recs, t = [], draw(st.sampled_from([0.0, 2.5]))
    for kind, dt in zip(kinds, steps):
        if kind != "OPTICAL":
            recs.append(usbl(t, rng.normal(0.0, 5.0, 3)))
        if kind != "USBL":
            # rotations under 0.7 rad: no relative rotation nears pi
            recs.append(optical(t, M.exp_se3(rng.uniform(-0.4, 0.4, 6))))
        t += dt
    gate = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    policy = ModePolicy(mode=draw(st.sampled_from(["A", "B"])),
                        down_after=draw(st.integers(1, 3)))
    target_start = draw(st.sampled_from(
        [None, M.exp_se3(np.array([3.0, 1.0, 0.0, 0.0, 0.0, 0.4]))]))
    return recs, gate, policy, TrackingConfig(target_start=target_start)


class TestInitialization:
    def test_optical_seed_matches_measurement(self):
        z = M.exp_se3(np.array([2.0, 1.0, 0.0, 0.0, 0.0, 0.3]))
        recs = [optical(0.0, z), usbl(1.0)]
        kfs = schedule_keyframes(recs, gate=1.0)
        values = initialize_values(kfs, TrackingConfig())
        seeded = values.get(kfs[0].target_key)
        np.testing.assert_allclose(seeded.matrix(), z.matrix(), atol=1e-12)

    def test_usbl_seed_places_target_in_world(self):
        recs = [usbl(0.0, (5.0, 1.0, -2.0)), usbl(1.0, (5.0, 1.0, -2.0))]
        kfs = schedule_keyframes(recs, gate=1.0, policy=ModePolicy(mode="B"))
        values = initialize_values(kfs, TrackingConfig())
        seeded = values.get(kfs[0].target_key)
        np.testing.assert_allclose(seeded.coords, [5.0, 1.0, -2.0], atol=1e-12)

    def test_gate_seed_extrapolates_previous_pair(self):
        recs = [usbl(0.0, (1.0, 0.0, 0.0)), usbl(1.0, (2.0, 0.0, 0.0)),
                usbl(4.0, (0.0, 0.0, 0.0))]
        kfs = schedule_keyframes(recs, gate=1.0, policy=ModePolicy(mode="B"))
        values = initialize_values(kfs, TrackingConfig())
        gate_kfs = [kf for kf in kfs if kf.trigger == "TIME_GATE"]
        # seeds at t=2, 3 continue the (1,0,0) -> (2,0,0) drift
        np.testing.assert_allclose(values.get(gate_kfs[0].target_key).coords,
                                   [3.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(values.get(gate_kfs[1].target_key).coords,
                                   [4.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("first", [0.0, 11.0])
    def test_rotation_seed_beyond_far_apart_fixes(self, first):
        """Before the first optical fix (or after the last), the target
        rotation follows the rate between the two fixes, also when they lie
        more than _MAX_RATE_BASELINE apart."""
        za = M.exp_se3(np.array([1.0, 0.0, 0.0, 0.1, 0.0, 0.2]))
        zb = M.exp_se3(np.array([1.0, 0.0, 0.0, 0.0, 0.3, -0.1]))
        recs = sorted([usbl(first), optical(0.3, za), optical(10.4, zb)],
                      key=lambda r: r.timestamp)
        kfs = schedule_keyframes(recs, gate=1.0, policy=ModePolicy(mode="A"))
        values = initialize_values(kfs, TrackingConfig())
        kf = next(kf for kf in kfs if kf.timestamp == first)
        ta, Ra = (0.3, za.rotation) if first < 0.3 else (10.4, zb.rotation)
        w = M.log_so3(M.Rotation3(za.rotation.matrix.T @ zb.rotation.matrix))
        expected = Ra.matrix @ M.exp_so3(w / (10.4 - 0.3) * (first - ta)).matrix
        np.testing.assert_allclose(values.get(kf.target_key).rotation.matrix,
                                   expected, atol=1e-12)

    # The gate does not divide the 2 s USBL period in either stream, so
    # gated keyframes fall between measurements at varying offsets. With
    # down_after = 2, Mode B also seeds SE(3) keyframes from USBL and gates.
    @pytest.mark.parametrize("setting", [
        {"gate": 1.5}, {"usbl_rate_hz": 0.6},
        {"gate": 1.5, "down_after": 2}, {"usbl_rate_hz": 0.6, "down_after": 2}])
    def test_gated_seeds_keep_initial_cost_bounded(self, setting):
        cfg = formats.parse_config([], overrides=dict(setting, seed=3,
                                                      mode="B"))
        cli._default_segments(cfg)
        truth = generate_ground_truth(cfg)
        recs = synthesize_measurements(truth, cfg)
        kfs = schedule_keyframes(recs, gate=cfg.gate, policy=cfg)
        graph, values = build_graph(kfs, cfg, cfg)
        if cfg.down_after > 1:
            assert any(kf.target_key.kind == M.SE3
                       and "OPTICAL" not in kf.meas_kinds for kf in kfs)
        # about 3e7-6e7 when only measured states seed the extrapolation;
        # chaining gated seeds gave 1e30-1e55
        assert total_cost(graph, values) <= 1e9

    def test_dead_reckoned_chaser_chain(self):
        step = M.exp_se3(np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.1]))
        recs = [odom(1.0, step), usbl(0.0), odom(2.0, step), usbl(2.0)]
        recs.sort(key=lambda r: r.timestamp)
        kfs = schedule_keyframes(recs, gate=5.0)
        values = initialize_values(kfs, TrackingConfig())
        c0 = values.get(kfs[0].chaser_key)
        c1 = values.get(kfs[1].chaser_key)
        np.testing.assert_allclose(c0.matrix(), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(
            c1.matrix(), M.compose(step, step).matrix(), atol=1e-12)

    def test_gap_at_start_moves_the_chaser_prior_to_the_first_keyframe(self):
        """Odometry before the first relative record carries the start pose
        to the first keyframe; the target's start pose has nothing to carry
        it there, so it gets no prior."""
        step = M.exp_se3(np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.1]))
        recs = [odom(0.5 * k, step) for k in range(1, 9)]
        recs += [usbl(3.0), usbl(4.0)]
        recs.sort(key=lambda r: r.timestamp)
        start = M.exp_se3(np.array([1.0, -2.0, 0.5, 0.1, 0.0, 0.3]))
        cfg = TrackingConfig(chaser_start=start, target_start=start)
        kfs = schedule_keyframes(recs, gate=5.0)
        rel, n_eff = kfs[0].odometry
        assert kfs[0].timestamp == 3.0 and n_eff == pytest.approx(6.0)
        expected = start
        for _ in range(6):
            expected = M.compose(expected, step)
        graph, values = build_graph(kfs, ModePolicy(), cfg)
        np.testing.assert_allclose(values.get(kfs[0].chaser_key).matrix(),
                                   expected.matrix(), atol=1e-12)
        priors = [f for f in graph.factors if f.name.startswith("prior")]
        assert [f.keys for f in priors] == [(kfs[0].chaser_key,)]
        mean_at = Values()
        mean_at.set(kfs[0].chaser_key, expected)
        np.testing.assert_allclose(priors[0].residual_fn(mean_at), 0.0,
                                   atol=1e-12)
        np.testing.assert_allclose(
            np.diag(priors[0].noise.covariance),
            [cfg.chaser_prior_sigma_pos ** 2 + 6 * cfg.odom_sigma_pos ** 2] * 3
            + [cfg.chaser_prior_sigma_rot ** 2
               + 6 * cfg.odom_sigma_rot ** 2] * 3)
        # no odometry before the first record: both priors at the start poses
        kfs = schedule_keyframes([usbl(3.0), usbl(4.0)], gate=5.0)
        assert kfs[0].odometry is None
        graph, _ = build_graph(kfs, ModePolicy(), cfg)
        assert [f.keys for f in graph.factors if f.name.startswith("prior")] \
            == [(kfs[0].chaser_key,), (kfs[0].target_key,)]

    @settings(max_examples=150, deadline=None)
    @given(seeding_cases())
    def test_seeds_match_the_scheduled_kinds(self, case):
        """The invariant target seeding relies on: optical keyframes are
        SE(3), Mode A is SE(3) throughout, and in Mode B an SE(3) keyframe
        without an optical record follows an SE(3) measured keyframe; every
        key is seeded with an element of its kind."""
        recs, gate, policy, cfg = case
        kfs = schedule_keyframes(recs, gate=gate, policy=policy)
        values = initialize_values(kfs, cfg)
        last_measured = None
        for kf in kfs:
            se3 = kf.target_key.kind == M.SE3
            if "OPTICAL" in kf.meas_kinds or policy.mode == "A":
                assert se3
            elif se3:
                assert last_measured is not None
                assert last_measured.target_key.kind == M.SE3
            for key in (kf.chaser_key, kf.target_key):
                assert M.kind_of(values.get(key)) == key.kind
            if kf.records:
                last_measured = kf


class TestBuildGraph:
    def _pipeline(self, mode, cfg=None):
        cfg = cfg or small_scenario()
        truth = generate_ground_truth(cfg)
        recs = list(synthesize_measurements(truth, cfg))
        tcfg = TrackingConfig(target_start=cfg.target_start)
        policy = ModePolicy(mode=mode)
        kfs = schedule_keyframes(recs, gate=1.0, policy=policy)
        graph, values = build_graph(kfs, policy, tcfg)
        return truth, recs, kfs, graph, values, tcfg

    def test_mode_a_factor_census(self):
        truth, recs, kfs, graph, values, _ = self._pipeline("A")
        names = {}
        for f in graph.factors:
            prefix = f.name.split("[")[0]
            names[prefix] = names.get(prefix, 0) + 1
        n = len(kfs)
        n_usbl = sum(1 for r in recs if r.kind == "USBL")
        n_opt = sum(1 for r in recs if r.kind == "OPTICAL")
        # relpose covers both the odometry chain and the optical measurements
        assert names["relpose"] == (n - 1) + n_opt
        assert names["usbl"] == n_usbl
        assert names["ct"] == n - 2
        assert names["rollpitch"] == n
        assert names["prior"] == 2  # chaser anchor + target start

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_composes_each_interval_once(self, mode, monkeypatch):
        """One batched request covers exactly the keyframe intervals, in
        order: the first from t = 0, then each consecutive pair."""
        calls = []
        intervals = _OdometrySpline.intervals

        def recording(self, ta, tb):
            calls.append((list(ta), list(tb)))
            return intervals(self, ta, tb)

        monkeypatch.setattr(_OdometrySpline, "intervals", recording)
        _, _, kfs, _, _, _ = self._pipeline(mode)
        times = [kf.timestamp for kf in kfs]
        assert calls == [([0.0] + times[:-1], times)]

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_initial_values_match_standalone_initialization(self, mode):
        _, recs, kfs, _, values, tcfg = self._pipeline(mode)
        alone = initialize_values(kfs, tcfg)
        for kf in kfs:
            for key in (kf.chaser_key, kf.target_key):
                a, b = values.get(key), alone.get(key)
                if isinstance(b, M.Pose3):
                    assert np.array_equal(a.rotation.matrix, b.rotation.matrix)
                    assert np.array_equal(a.translation, b.translation)
                else:
                    assert np.array_equal(a.coords, b.coords)

    def test_build_graph_initializes_through_module_attribute(self, monkeypatch):
        """Profilers time initialization by wrapping the module attribute."""
        seen = []
        init = tracking.initialize_values

        def spy(*args, **kwargs):
            seen.append(args)
            return init(*args, **kwargs)

        monkeypatch.setattr(tracking, "initialize_values", spy)
        _, _, kfs, _, values, _ = self._pipeline("B")
        assert len(seen) == 1 and seen[0][0] is kfs
        assert all(k in values for kf in kfs
                   for k in (kf.chaser_key, kf.target_key))

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_every_record_sits_in_one_keyframe(self, mode):
        _, recs, kfs, _, _, _ = self._pipeline(mode)
        relative = [r for r in recs if r.kind in ("USBL", "OPTICAL")]
        carried = [r for kf in kfs for r in kf.records]
        assert len(carried) == len(relative)
        assert all(a is b for a, b in zip(carried, relative))
        for kf in kfs:
            assert all(abs(r.timestamp - kf.timestamp) <= 1e-9
                       for r in kf.records)
            assert kf.meas_kinds == tuple(sorted({r.kind for r in kf.records}))
            assert (kf.trigger == "MEASUREMENT") == bool(kf.records)
        assert kfs[0].odometry is None
        assert all(kf.odometry is not None for kf in kfs[1:])

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_one_measurement_factor_per_record(self, mode):
        _, _, kfs, graph, _, _ = self._pipeline(mode)
        chaser = {kf.chaser_key for kf in kfs}
        measured = [f for f in graph.factors if len(f.keys) == 2
                    and f.keys[0] in chaser and f.keys[1] not in chaser
                    and f.name.split("[")[0] in ("usbl", "relpose")]
        expected = [("usbl" if r.kind == "USBL" else "relpose",
                     (kf.chaser_key, kf.target_key))
                    for kf in kfs for r in kf.records]
        assert [(f.name.split("[")[0], f.keys) for f in measured] == expected

    def test_mode_a_target_chain_is_one_run(self):
        _, _, kfs, graph, _, _ = self._pipeline("A")
        targets = [kf.target_key for kf in kfs]
        target_set = set(targets)
        tail = [(f.name.split("[")[0], f.keys) for f in graph.factors
                if set(f.keys) <= target_set
                and not f.name.startswith("prior")]
        assert tail == ([("ct", tuple(targets[i:i + 3]))
                         for i in range(len(targets) - 2)]
                        + [("rollpitch", (k,)) for k in targets])

    def test_mode_b_has_boundaries_and_mixed_kinds(self):
        truth, recs, kfs, graph, values, _ = self._pipeline("B")
        tags = {kf.target_key.kind.tag for kf in kfs}
        assert tags == {"RN", "SE3"}
        assert any(f.name.startswith("boundary") for f in graph.factors)
        assert all(k in values for k in graph.variables)

    def test_mode_b_run_of_one_keyframe(self):
        """A lone optical keyframe between USBL ones, with down_after = 1,
        is an SE(3) run of length 1: the run has no twist to carry into a
        DOWN twin, so none is added. The graph still passes the gauge
        check and converges."""
        cfg = small_scenario()
        recs = list(synthesize_measurements(generate_ground_truth(cfg), cfg))
        lone = next(r for r in recs if r.kind == "OPTICAL")
        recs = [r for r in recs if r.kind != "OPTICAL" or r is lone]
        policy = ModePolicy(mode="B", down_after=1)
        kfs = schedule_keyframes(recs, gate=1.0, policy=policy)
        tags = [kf.target_key.kind.tag for kf in kfs]
        i = tags.index("SE3")
        assert tags.count("SE3") == 1 and 2 <= i < len(tags) - 1
        assert "OPTICAL" in kfs[i].meas_kinds
        graph, values = build_graph(
            kfs, policy, TrackingConfig(target_start=cfg.target_start))
        names = [f.name.split("[")[0] for f in graph.factors]
        assert names.count("boundary-UP") == 1
        assert "boundary-DOWN" not in names
        _, report = optimize(graph, values, SolverSettings())
        assert report.converged

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_smoothing_beats_raw_usbl(self, mode):
        truth, recs, kfs, graph, values, tcfg = self._pipeline(mode)
        est = smooth(graph, values, SolverSettings(), kfs)
        assert est.report.converged
        rep = metrics(est.rows, truth)
        base = measurement_baselines(recs, truth)
        assert rep.groups["USBL"].mean_pos < base["USBL"].mean_pos
        assert rep.groups["ALL"].count == len(kfs)

    def test_estimate_relative_fields(self):
        truth, recs, kfs, graph, values, _ = self._pipeline("A")
        est = smooth(graph, values, SolverSettings(), kfs)
        for i, kf in enumerate(kfs):
            C = est.rows[i].chaser
            S = est.rows[i].target_pose
            ref = C.rotation.matrix.T @ (S.translation - C.translation)
            np.testing.assert_allclose(est.rows[i].rel_position, ref,
                                       atol=1e-12)
            assert np.isfinite(est.rows[i].rel_angle)

    def test_mode_b_rel_angles_nan_on_r3(self):
        truth, recs, kfs, graph, values, _ = self._pipeline("B")
        est = smooth(graph, values, SolverSettings(), kfs)
        for i, kf in enumerate(kfs):
            if kf.target_key.kind.tag == "RN":
                assert np.isnan(est.rows[i].rel_angle)
            else:
                assert np.isfinite(est.rows[i].rel_angle)


class TestFactorTables:
    """build_graph holds its factors as one table per family and key kinds;
    its views, added one by one, make the same graph."""

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_views_readded_linearize_bit_identically(self, mode):
        _, _, _, graph, values, _ = TestBuildGraph()._pipeline(mode)
        readded = FactorGraph()
        readded.extend(graph.factors)
        assert len(readded) == len(graph)
        assert [f.name for f in readded.factors] == \
            [f.name for f in graph.factors]
        out = []
        for g in (graph, readded):
            lin = Linearizer(g)
            J, r = lin(values)
            out.append((J, r, lin.residual(values)[1]()[1].copy()))
        (J, r, band), (J_ref, r_ref, band_ref) = out
        for name in ("data", "indices", "indptr"):
            assert_identical(getattr(J, name), getattr(J_ref, name))
        assert_identical(r, r_ref)
        assert_identical(band, band_ref)

    def test_mode_b_graph_keeps_few_objects_per_factor(self, tmp_path):
        """Built on the seed-1 stream, the graph keeps at most 2 objects the
        cyclic collector tracks per factor, its initial values aside."""
        meas = tmp_path / "meas.csv"
        assert cli.main(["simulate", "--seed", "1", "--out-truth",
                         str(tmp_path / "truth.csv"), "--out-meas",
                         str(meas)]) == 0
        cfg = formats.parse_config([], overrides={"mode": "B"})
        kfs = schedule_keyframes(formats.read_measurements(meas),
                                 gate=cfg.gate, policy=cfg)
        build_graph(kfs, cfg, cfg)  # caches fill on the first build
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            graph, values = build_graph(kfs, cfg, cfg)
            del values
            kept = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(graph) == 1027
        assert kept <= 2 * len(graph)

    def test_first_near_pi_row_in_graph_order_is_named(self):
        """A flipped target start fails the target prior, which shares the
        first table with the chaser anchor; a flipped second chaser pose
        fails odometry, earlier in graph order but in a later table."""
        cfg = small_scenario()
        recs = synthesize_measurements(generate_ground_truth(cfg), cfg)
        policy = ModePolicy(mode="A")
        kfs = schedule_keyframes(recs, gate=1.0, policy=policy)
        graph, values = build_graph(
            kfs, policy, TrackingConfig(target_start=cfg.target_start))
        flip = M.exp_se3(np.array([0, 0, 0, 0, 0, np.pi]))
        values.set(kfs[0].target_key, M.compose(cfg.target_start, flip))
        values.set(kfs[1].chaser_key, M.compose(M.compose(
            values.get(kfs[0].chaser_key), kfs[1].odometry[0]), flip))
        names = [f.name for f in graph.factors]
        odometry = names.index(f"relpose[{kfs[0].chaser_key.id},"
                               f"{kfs[1].chaser_key.id}]")
        prior = names.index(f"prior[{kfs[0].target_key.id}]")
        assert odometry < prior
        tables = graph.tables()
        assert tables[0].family is graph.factors[prior].family
        assert tables[0].family is not graph.factors[odometry].family
        messages = []
        for p in (odometry, prior):
            f = graph.factors[p]
            with pytest.raises(M.NearSingularError) as ref:
                f.residual_fn(values)
            messages.append(f"linearization failed in {fgraph._describe(f)}:"
                            f" {ref.value}")
        with pytest.raises(M.NearSingularError) as exc:
            Linearizer(graph)(values)
        assert str(exc.value) == messages[0]


class TestMetrics:
    def test_grouping_covers_all_keyframes(self):
        cfg = small_scenario()
        truth = generate_ground_truth(cfg)
        recs = synthesize_measurements(truth, cfg)
        policy = ModePolicy(mode="A")
        tcfg = TrackingConfig(target_start=cfg.target_start)
        kfs = schedule_keyframes(recs, gate=1.0, policy=policy)
        graph, values = build_graph(kfs, policy, tcfg)
        est = smooth(graph, values, SolverSettings(), kfs)
        rep = metrics(est.rows, truth)
        total = sum(rep.groups[g].count for g in ("USBL", "OPTICAL", "GATE"))
        assert total == rep.groups["ALL"].count
        assert rep.groups["OPTICAL"].mean_pos < rep.groups["USBL"].mean_pos

    def test_no_overlap_raises(self):
        cfg = small_scenario()
        truth = generate_ground_truth(cfg)
        recs = [usbl(1000.0), usbl(1001.0)]
        kfs = schedule_keyframes(recs, gate=5.0)
        values = initialize_values(kfs, TrackingConfig())
        from twistgraph.tracking import EstimateRow
        rows = [EstimateRow(
            timestamp=kf.timestamp, trigger=kf.trigger, group=kf.group,
            chaser=values.get(kf.chaser_key),
            target_position=values.get(kf.target_key).translation,
            target_pose=values.get(kf.target_key),
            rel_position=np.zeros(3), rel_angle=np.nan) for kf in kfs]
        with pytest.raises(ValueError):
            metrics(rows, truth)

    @pytest.mark.parametrize("mode", ["A", "B"])
    @pytest.mark.parametrize("tol", [0.05, 0.01])
    def test_errors_pair_as_the_per_fix_loop(self, mode, tol):
        """Errors paired from the truth's columns equal, bit for bit, those
        of the per-fix loop over `index_at` they replace, for estimate rows
        (some moved off the truth's support or its samples) and for raw
        fixes."""
        cfg = small_scenario()
        truth = generate_ground_truth(cfg)
        recs = synthesize_measurements(truth, cfg)
        policy = ModePolicy(mode=mode)
        kfs = schedule_keyframes(recs, gate=1.0, policy=policy)
        graph, values = build_graph(
            kfs, policy, TrackingConfig(target_start=cfg.target_start))
        rows = smooth(graph, values, SolverSettings(), kfs).rows
        for k, shift in ((0, -0.03), (3, 0.02), (5, 0.012), (-1, 100.0)):
            rows[k] = dataclasses.replace(rows[k],
                                          timestamp=rows[k].timestamp + shift)

        def per_fix(fixes):
            fixes = list(fixes)
            pos, ang = np.full(len(fixes), np.nan), np.full(len(fixes), np.nan)
            matched = np.zeros(len(fixes), dtype=bool)
            for i, (t, p, R) in enumerate(fixes):
                try:
                    j = truth.index_at(t)
                except ValueError:
                    continue
                if abs(truth.times[j] - t) > tol:
                    continue
                matched[i] = True
                C_t, T_t = truth.chaser[j], truth.target[j]
                R_c = C_t.rotation.matrix.T
                pos[i] = np.linalg.norm(
                    p - R_c @ (T_t.translation - C_t.translation))
                if R is not None:
                    ang[i] = tracking._angle(R.T @ (R_c @ T_t.rotation.matrix))
            return matched, pos, ang

        rep = metrics(rows, truth, tol)
        matched, pos, ang = per_fix(
            (row.timestamp, row.rel_position,
             None if row.target_pose is None else
             row.chaser.rotation.matrix.T @ row.target_pose.rotation.matrix)
            for row in rows)
        assert 0 < matched.sum() < len(rows) - 1
        assert_identical(rep.pos_errors, pos)
        assert_identical(rep.ang_errors, ang)
        stream = tracking.MeasurementStream.of(recs)
        for kind, stats in measurement_baselines(recs, truth, tol).items():
            sel = stream.kinds == tracking.KINDS.index(kind)
            matched, pos, ang = per_fix(zip(
                stream.times[sel], stream.vectors[sel],
                stream.rotations[sel] if kind == "OPTICAL"
                else [None] * sel.sum()))
            ref = tracking._group_stats(pos[matched], ang[matched])
            np.testing.assert_equal(dataclasses.astuple(stats),
                                    dataclasses.astuple(ref))

    def test_angle_matches_log_norm(self, rng):
        """The axis-free angle used by smooth, metrics and baselines equals
        |log_so3| wherever log_so3 is defined, and reaches pi."""
        for _ in range(2000):
            R = M.exp_so3(rng.normal(size=3)
                          * rng.uniform(0.0, np.pi - 1e-3)).matrix
            ref = np.linalg.norm(M.log_so3(M.Rotation3(R)))
            assert abs(tracking._angle(R) - ref) <= 1e-12
        for axis in np.eye(3):
            assert tracking._angle(M.exp_so3(np.pi * axis).matrix) \
                == pytest.approx(np.pi, abs=1e-12)
