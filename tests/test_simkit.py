"""Scenario generator, measurement synthesis, and fixture oracles."""

import dataclasses

import numpy as np
import pytest

from twistgraph import manifold as M
from twistgraph import factors, simkit, tracking
from twistgraph.fgraph import Factor, NoiseModel, Values, VariableKey, optimize
from twistgraph.formats import ConfigError, RunConfig
from twistgraph.simkit import (
    GroundTruth,
    ScenarioConfig,
    UNIT_CIRCLE_STEP,
    TwistSegment,
    arc_distance,
    finite_difference_jacobian,
    generate_ground_truth,
    generate_trajectory,
    synthesize_measurements,
    unit_circle_fixtures,
    unit_circle_pose,
)

from conftest import assert_identical, random_pose, random_rotation


def small_config(**overrides) -> ScenarioConfig:
    base = dict(
        chaser_start=M.Pose3.identity(),
        target_start=M.Pose3(M.Rotation3.identity(),
                             np.array([5.0, 0.0, 0.0])),
        chaser_segments=[TwistSegment(np.array([0.3, 0, 0, 0, 0, 0.02]), 20.0)],
        target_segments=[TwistSegment(np.array([0.2, 0, 0, 0, 0, -0.01]), 20.0)],
        optical_windows=[(5.0, 10.0)],
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestTrajectoryGeneration:
    def test_matches_closed_form_exponential(self):
        # one constant twist: T(t) = T0 * Exp(xi * t)
        xi = np.array([0.3, 0.0, 0.1, 0.0, 0.0, 0.05])
        start = M.Pose3(M.exp_so3(np.array([0.1, 0.2, -0.1])),
                        np.array([1.0, -2.0, 0.5]))
        times, R, p = generate_trajectory(
            start, [TwistSegment(xi, 10.0)], dt=0.05)
        assert times[-1] == pytest.approx(10.0)
        for t, T in zip(times[::40], map(M.Pose3, map(M.Rotation3, R[::40]),
                                         p[::40])):
            T_ref = M.compose(start, M.exp_se3(xi * t))
            np.testing.assert_allclose(T.matrix(), T_ref.matrix(), atol=1e-9)

    def test_segment_count_and_validation(self):
        times, R, p = generate_trajectory(
            M.Pose3.identity(),
            [TwistSegment(np.zeros(6), 1.0), TwistSegment(np.zeros(6), 2.0)],
            dt=0.1)
        assert times.shape == (31,) and R.shape == (31, 3, 3)
        assert p.shape == (31, 3)
        with pytest.raises(ValueError):
            TwistSegment(np.zeros(6), 0.0)

    def test_index_at_bounds(self):
        truth = generate_ground_truth(small_config())
        assert truth.index_at(0.0) == 0
        assert np.isclose(truth.times[truth.index_at(7.5)], 7.5)
        with pytest.raises(ValueError):
            truth.index_at(truth.times[-1] + 1.0)
        with pytest.raises(ValueError):
            truth.index_at(-5.0)

    def test_ground_truth_trims_to_common_span(self):
        cfg = small_config(
            target_segments=[TwistSegment(np.zeros(6), 12.0)])
        truth = generate_ground_truth(cfg)
        assert truth.times[-1] == pytest.approx(12.0)
        assert len(truth.chaser) == len(truth.target) == len(truth.times)


class TestWorkCeiling:
    """A step or rate that asks for unbounded work is refused, naming its
    key, before a sample is made."""

    def test_tiny_dt_refused(self):
        with pytest.raises(ConfigError, match=r"^dt = 1e-09 asks for 3\.2e\+11"):
            generate_trajectory(M.Pose3.identity(),
                                [TwistSegment(np.zeros(6), 320.0)], 1e-9)

    @pytest.mark.parametrize("key", ["odom_rate_hz", "usbl_rate_hz",
                                     "optical_rate_hz"])
    def test_huge_rate_refused(self, key):
        cfg = small_config(**{key: 1e9})
        truth = generate_ground_truth(cfg)
        with pytest.raises(ConfigError, match=f"^{key} = 1000000000.0 asks"):
            synthesize_measurements(truth, cfg)

    def test_defaults_stay_far_below(self):
        cfg = RunConfig()
        assert 100 * cfg.duration / cfg.dt < simkit._MAX_SAMPLES
        assert 100 * cfg.duration * cfg.odom_rate_hz < simkit._MAX_SAMPLES
        assert 100 * cfg.duration / cfg.gate < tracking._MAX_KEYFRAMES


class TestMeasurementSynthesis:
    def test_seed_determinism(self):
        cfg = small_config()
        truth = generate_ground_truth(cfg)
        a = synthesize_measurements(truth, cfg)
        b = synthesize_measurements(truth, cfg)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.timestamp == rb.timestamp and ra.kind == rb.kind
            if ra.kind == "USBL":
                np.testing.assert_array_equal(ra.payload, rb.payload)
            else:
                np.testing.assert_array_equal(ra.payload.matrix(),
                                              rb.payload.matrix())
        c = synthesize_measurements(truth, small_config(seed=8))
        assert any(
            r1.kind == "USBL" and not np.allclose(r1.payload, r2.payload)
            for r1, r2 in zip(a, c))

    def test_rates_and_kinds(self):
        cfg = small_config(gaps=[])
        truth = generate_ground_truth(cfg)
        records = synthesize_measurements(truth, cfg)
        kinds = {}
        for r in records:
            kinds.setdefault(r.kind, []).append(r.timestamp)
        assert len(kinds["ODOM"]) == 200       # 10 Hz over 20 s, from t=0.1
        assert len(kinds["USBL"]) == 11        # 0.5 Hz including both ends
        assert len(kinds["OPTICAL"]) == 11     # 2 Hz inside [5, 10]
        assert all(5.0 <= t <= 10.0 for t in kinds["OPTICAL"])
        ts = [r.timestamp for r in records]
        assert ts == sorted(ts)

    def test_gaps_suppress_relative_measurements_only(self):
        cfg = small_config(gaps=[(4.0, 8.0)])
        truth = generate_ground_truth(cfg)
        records = synthesize_measurements(truth, cfg)
        for r in records:
            if r.kind in ("USBL", "OPTICAL"):
                assert not (4.0 <= r.timestamp <= 8.0)
        odom_in_gap = [r for r in records
                       if r.kind == "ODOM" and 4.0 <= r.timestamp <= 8.0]
        assert len(odom_in_gap) == 41  # 10 Hz ticks at 4.0, 4.1, ..., 8.0

    def test_noiseless_measurements_match_truth(self):
        cfg = small_config(odom_sigma_pos=0.0, odom_sigma_rot=0.0,
                           usbl_sigma=0.0, optical_sigma_pos=0.0,
                           optical_sigma_rot=0.0)
        truth = generate_ground_truth(cfg)
        for r in synthesize_measurements(truth, cfg):
            i = truth.index_at(r.timestamp)
            C, T = truth.chaser[i], truth.target[i]
            if r.kind == "USBL":
                ref = C.rotation.matrix.T @ (T.translation - C.translation)
                np.testing.assert_allclose(r.payload, ref, atol=1e-12)
            elif r.kind == "OPTICAL":
                ref = M.compose(M.inverse(C), T)
                np.testing.assert_allclose(r.payload.matrix(), ref.matrix(),
                                           atol=1e-12)

    def test_usbl_noise_statistics(self):
        cfg = small_config(usbl_sigma=1.5, usbl_rate_hz=20.0, gaps=[],
                           optical_rate_hz=0.0)
        truth = generate_ground_truth(cfg)
        errs = []
        for r in synthesize_measurements(truth, cfg):
            if r.kind != "USBL":
                continue
            i = truth.index_at(r.timestamp)
            C, T = truth.chaser[i], truth.target[i]
            ref = C.rotation.matrix.T @ (T.translation - C.translation)
            errs.append(r.payload - ref)
        errs = np.array(errs)
        assert errs.shape[0] >= 400
        sigma_hat = errs.std()
        assert 1.3 < sigma_hat < 1.7
        assert np.abs(errs.mean()) < 0.2


# ---------------------------------------------------------------------------
# The per-record rollout and synthesis that the columnar ones replace, kept
# as the reference they must equal bit for bit.


def reference_trajectory(start, segments, dt):
    """Piecewise constant-twist rollout, one Pose3 per step."""
    poses = [start]
    times = [0.0]
    T = start
    t = 0.0
    n_steps = 0
    for seg in segments:
        steps = int(round(seg.duration / dt))
        step = M.exp_se3(seg.twist * dt)
        for _ in range(steps):
            T = M.compose(T, step)
            n_steps += 1
            if n_steps % 1000 == 0:
                T = M.Pose3(T.rotation.orthonormalized(), T.translation)
            t += dt
            times.append(t)
            poses.append(T)
    return np.asarray(times), poses


class ReferenceTruth:
    """Chaser and target rolled out one after the other, as lists of
    Pose3s, trimmed to their common span; `index_at` per time."""

    def __init__(self, cfg):
        tc, chaser = reference_trajectory(cfg.chaser_start,
                                          cfg.chaser_segments, cfg.dt)
        tt, target = reference_trajectory(cfg.target_start,
                                          cfg.target_segments, cfg.dt)
        n = min(len(tc), len(tt))
        self.times, self.chaser, self.target = tc[:n], chaser[:n], target[:n]

    def index_at(self, t):
        dt = self.times[1] - self.times[0]
        i = int(round((t - self.times[0]) / dt))
        if not (0 <= i < len(self.times)) or abs(self.times[i] - t) > dt / 2 + 1e-9:
            raise ValueError(f"time {t} outside ground-truth support")
        return i


def reference_measurements(truth: ReferenceTruth, cfg):
    """One record at a time, each noise vector drawn on its own."""
    rng = np.random.default_rng(cfg.seed)
    t_end = float(truth.times[-1])
    records = []

    def in_any(t, windows):
        return any(a <= t <= b for a, b in windows)

    def noisy_pose(T, sig_pos, sig_rot):
        if sig_pos == 0.0 and sig_rot == 0.0:
            return T
        d = np.concatenate([rng.normal(0.0, sig_pos, 3) if sig_pos else np.zeros(3),
                            rng.normal(0.0, sig_rot, 3) if sig_rot else np.zeros(3)])
        return M.compose(T, M.exp_se3(d))

    odom_dt = 1.0 / cfg.odom_rate_hz
    n_odom = int(np.floor(t_end / odom_dt + 1e-9))
    for k in range(1, n_odom + 1):
        ta, tb = (k - 1) * odom_dt, k * odom_dt
        Ta = truth.chaser[truth.index_at(ta)]
        Tb = truth.chaser[truth.index_at(tb)]
        rel = M.compose(M.inverse(Ta), Tb)
        records.append(tracking.MeasurementRecord(
            timestamp=tb, kind="ODOM",
            payload=noisy_pose(rel, cfg.odom_sigma_pos, cfg.odom_sigma_rot)))
    if cfg.usbl_rate_hz > 0:
        usbl_dt = 1.0 / cfg.usbl_rate_hz
        n_usbl = int(np.floor(t_end / usbl_dt + 1e-9))
        for k in range(n_usbl + 1):
            t = k * usbl_dt
            if in_any(t, cfg.gaps):
                continue
            i = truth.index_at(t)
            C, T = truth.chaser[i], truth.target[i]
            z = C.rotation.matrix.T @ (T.translation - C.translation)
            if cfg.usbl_sigma:
                z = z + rng.normal(0.0, cfg.usbl_sigma, 3)
            records.append(tracking.MeasurementRecord(timestamp=t, kind="USBL",
                                                      payload=z))
    if cfg.optical_rate_hz > 0:
        opt_dt = 1.0 / cfg.optical_rate_hz
        n_opt = int(np.floor(t_end / opt_dt + 1e-9))
        for k in range(n_opt + 1):
            t = k * opt_dt
            if not in_any(t, cfg.optical_windows) or in_any(t, cfg.gaps):
                continue
            i = truth.index_at(t)
            C, T = truth.chaser[i], truth.target[i]
            rel = M.compose(M.inverse(C), T)
            records.append(tracking.MeasurementRecord(
                timestamp=t, kind="OPTICAL",
                payload=noisy_pose(rel, cfg.optical_sigma_pos,
                                   cfg.optical_sigma_rot)))
    records.sort(key=lambda r: (r.timestamp, r.kind))
    return records


SIGMAS = ("odom_sigma_pos", "odom_sigma_rot", "usbl_sigma",
          "optical_sigma_pos", "optical_sigma_rot")

# twists of several segments, with the chaser's span longer than the
# target's and their segment ends at different steps
MULTI_SEGMENT = dict(
    chaser_segments=[
        TwistSegment(np.array([0.3, 0.0, 0.05, 0.0, 0.0, 0.02]), 6.0),
        TwistSegment(np.array([0.2, 0.1, 0.0, 0.03, -0.02, -0.04]), 7.3),
        TwistSegment(np.array([0.25, 0.0, -0.02, 0.0, 0.01, 0.05]), 9.0)],
    target_segments=[
        TwistSegment(np.array([0.2, 0.0, 0.0, 0.0, 0.0, -0.01]), 4.45),
        TwistSegment(np.array([0.1, -0.05, 0.02, 0.02, 0.0, 0.03]), 13.0)])

REFERENCE_CASES = {
    "default": {},
    "gaps at start, middle and end": dict(gaps=[(0.0, 3.0), (8.0, 9.5),
                                                (18.0, 20.0)]),
    "no optical window": dict(optical_windows=[]),
    "optical window inside a gap": dict(optical_windows=[(5.0, 10.0)],
                                        gaps=[(4.0, 11.0)]),
    "optical window overlapping gaps": dict(optical_windows=[(2.0, 12.0)],
                                            gaps=[(0.0, 4.0), (9.0, 15.0)]),
    **{f"{name} zero": {name: 0.0} for name in SIGMAS},
    "every sigma zero": {name: 0.0 for name in SIGMAS},
    "no USBL": dict(usbl_rate_hz=0.0),
    "no optical": dict(optical_rate_hz=0.0),
    "odometry only": dict(usbl_rate_hz=0.0, optical_rate_hz=0.0),
    "multi-segment, unequal spans": MULTI_SEGMENT,
    "3490 steps, orthonormalized 3 times": dict(MULTI_SEGMENT, dt=0.005),
}


class TestColumnarEqualsPerRecord:
    """The array rollout and the batched synthesis give the per-record
    reference's truth and stream bit for bit: the same products in the
    same order, and the same normal draws in the same order."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_truth_and_stream_are_bit_identical(self, case):
        cfg = small_config(**REFERENCE_CASES[case])
        truth, ref = generate_ground_truth(cfg), ReferenceTruth(cfg)
        assert_identical(truth.times, ref.times)
        assert len(truth.times) == len(ref.chaser) == len(ref.target)
        for agent, poses in ((0, ref.chaser), (1, ref.target)):
            assert_identical(truth.rotations[:, agent],
                             np.array([T.rotation.matrix for T in poses]))
            assert_identical(truth.translations[:, agent],
                             np.array([T.translation for T in poses]))
        stream = synthesize_measurements(truth, cfg)
        expected = tracking.MeasurementStream.of(
            reference_measurements(ref, cfg))
        assert len(expected) > 0
        for name in ("times", "kinds", "vectors", "rotations"):
            assert_identical(getattr(stream, name), getattr(expected, name))

    def test_cases_reach_every_branch(self):
        """The cases above make every kind, leave some kind empty, roll out
        past 1000 steps, and keep every tick on its sample."""
        kinds = set()
        for case in REFERENCE_CASES.values():
            cfg = small_config(**case)
            truth = generate_ground_truth(cfg)
            stream = synthesize_measurements(truth, cfg)
            kinds |= set(np.unique(stream.kinds).tolist())
            i, ok = truth.indices_at(stream.times)
            assert ok.all()
            assert np.abs(truth.times[i] - stream.times).max() <= 1e-9
        assert kinds == {0, 1, 2}
        cfg = small_config(
            **REFERENCE_CASES["3490 steps, orthonormalized 3 times"])
        assert len(generate_ground_truth(cfg).times) == 3491

    def test_generate_trajectory_is_one_agent_of_the_rollout(self):
        cfg = small_config(**MULTI_SEGMENT)
        times, R, t = generate_trajectory(cfg.chaser_start,
                                          cfg.chaser_segments, cfg.dt)
        ref_times, poses = reference_trajectory(cfg.chaser_start,
                                                cfg.chaser_segments, cfg.dt)
        assert_identical(times, ref_times)
        assert_identical(R, np.array([T.rotation.matrix for T in poses]))
        assert_identical(t, np.array([T.translation for T in poses]))


class TestGroundTruthColumns:
    def test_agents_are_sequences_of_poses(self):
        truth = generate_ground_truth(small_config())
        n = len(truth.times)
        for agent, poses in ((0, truth.chaser), (1, truth.target)):
            assert len(poses) == n
            last = poses[-1]
            assert_identical(last.rotation.matrix,
                             truth.rotations[n - 1, agent])
            assert_identical(last.translation,
                             truth.translations[n - 1, agent])
            assert_identical(poses[-n].translation, poses[0].translation)
            part = poses[3:9:2]
            assert isinstance(part, list) and len(part) == 3
            for T, i in zip(part, (3, 5, 7)):
                assert_identical(T.translation, truth.translations[i, agent])
            assert poses[n:] == [] and len(poses[::-1]) == n
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    poses[i]
            assert sum(1 for _ in poses) == n

    def test_indices_at_follows_index_at(self):
        truth = generate_ground_truth(small_config())
        t = np.array([0.0, 0.024, 0.026, 7.5, 7.5249, 20.0, 20.026, -0.03,
                      np.nan, np.inf, -np.inf])
        i, ok = truth.indices_at(t)
        assert ok.tolist() == [True] * 6 + [False] * 5
        assert i[ok].tolist() == [truth.index_at(x) for x in t[ok]]
        for x in t[~ok]:
            with pytest.raises(ValueError, match="outside ground-truth"):
                truth.index_at(x)

    def test_one_sample_supports_no_time(self):
        truth = generate_ground_truth(small_config(
            chaser_segments=[TwistSegment(np.zeros(6), 0.01)]))
        assert len(truth.times) == 1
        i, ok = truth.indices_at(np.array([0.0]))
        assert not ok.any()
        with pytest.raises(ValueError, match="outside ground-truth"):
            truth.index_at(0.0)


class TestRecordsOnTheirSamples:
    """A record is made from its tick's nearest truth sample, and stamped
    with that sample's time where the two differ by more than 1e-9 s."""

    def test_odometry_spans_its_stamped_samples(self):
        cfg = small_config(dt=0.03, **{name: 0.0 for name in SIGMAS})
        truth = generate_ground_truth(cfg)
        stream = synthesize_measurements(truth, cfg)
        odom = stream.kinds == tracking.ODOM
        stamps = stream.times[odom]
        # the tick at 0.2 s falls on the 0.21 s sample, 7 steps after 0.0
        assert stamps[1] == truth.times[7] and abs(stamps[1] - 0.21) < 1e-12
        i = truth.samples_at(stamps)
        on_grid = np.abs(truth.times[i] - stamps) <= 1e-9
        assert on_grid.all()
        assert np.unique(i).size == i.size
        a = np.concatenate([[0], i[:-1]])
        for k, (ia, ib) in enumerate(zip(a, i)):
            rel = M.compose(M.inverse(truth.chaser[ia]), truth.chaser[ib])
            assert_identical(stream.rotations[odom][k], rel.rotation.matrix)
            assert_identical(stream.vectors[odom][k], rel.translation)

    def test_usbl_off_the_grid_is_stamped_with_its_sample(self):
        cfg = small_config(usbl_rate_hz=0.6, gaps=[])
        truth = generate_ground_truth(cfg)
        stream = synthesize_measurements(truth, cfg)
        stamps = stream.times[stream.kinds == tracking.USBL]
        np.testing.assert_allclose(stamps[:4], [0.0, 1.65, 3.35, 5.0],
                                   atol=1e-12)
        i, ok = truth.indices_at(stamps)
        assert ok.all() and np.abs(truth.times[i] - stamps).max() <= 1e-9
        # the two stamps off the grid are their samples' times exactly
        assert stamps[1] == truth.times[33] and stamps[2] == truth.times[67]
        assert np.all(np.diff(stream.times) >= 0)

    def test_ticks_on_the_grid_keep_their_nominal_times(self):
        cfg = small_config()
        stream = synthesize_measurements(generate_ground_truth(cfg), cfg)
        odom = stream.times[stream.kinds == tracking.ODOM]
        assert_identical(odom, np.arange(1, len(odom) + 1) * (1.0 / 10.0))
        usbl = stream.times[stream.kinds == tracking.USBL]
        assert_identical(usbl, np.arange(len(usbl)) * 2.0)

    @pytest.mark.parametrize("key,rate", [("odom_rate_hz", 30.0),
                                          ("usbl_rate_hz", 25.0),
                                          ("optical_rate_hz", 21.0)])
    def test_period_under_dt_refused(self, key, rate):
        cfg = small_config(**{key: rate})
        truth = generate_ground_truth(cfg)
        with pytest.raises(ConfigError,
                           match=rf"^{key} = {rate!r} has a period of .* "
                                 r"shorter than dt = 0\.05"):
            synthesize_measurements(truth, cfg)

    def test_period_of_dt_accepted(self):
        cfg = small_config(dt=0.05, usbl_rate_hz=20.0, optical_rate_hz=20.0)
        truth = generate_ground_truth(cfg)
        stream = synthesize_measurements(truth, cfg)
        usbl = stream.times[stream.kinds == tracking.USBL]
        assert len(usbl) == len(truth.times)


def retracted(values: Values, key: VariableKey, delta) -> Values:
    """A copy of `values` with `key` moved to X (+) delta."""
    out = values.copy()
    out.set(key, M.oplus(key.kind, values.get(key), delta))
    return out


def reference_jacobian(residual_fn, values, key, step=1e-6):
    """Central differences as the oracle once took them: a base residual for
    the row count, then a fresh Exp(+-step e_i) per column."""
    d = key.kind.dim
    r0 = np.asarray(residual_fn(values))
    J = np.empty((r0.shape[0], d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        rp = np.asarray(residual_fn(retracted(values, key, e)))
        rm = np.asarray(residual_fn(retracted(values, key, -e)))
        J[:, i] = (rp - rm) / (2.0 * step)
    return J


def every_family(rng):
    """(factors, values): a factor of every built-in family, ct on SE(3),
    SO(3), R^3 and R^2 keys and USBL on both target kinds, plus a custom
    closure, at random values."""
    def keys(kind, first):
        return tuple(VariableKey(first + i, kind, float(i)) for i in range(3))

    se3, so3, r3, r2 = (keys(kind, 10 * n) for n, kind in
                        enumerate((M.SE3, M.SO3, M.R3, M.rn(2))))
    values = Values()
    for k in se3:
        values.set(k, random_pose(rng))
    for k in so3:
        values.set(k, random_rotation(rng))
    for k in r3 + r2:
        values.set(k, M.EuclidPoint(rng.normal(0.0, 3.0, k.kind.dim)))
    spec = factors.ConstantTwistSpec
    fs = [factors.ct_factor(ks, spec(0.7, 1.3, np.eye(ks[0].kind.dim)))
          for ks in (se3, so3, r3, r2)]
    fs += [factors.prior_factor(se3[0], random_pose(rng), np.eye(6)),
           factors.prior_factor(so3[0], random_rotation(rng), np.eye(3)),
           factors.prior_factor(r2[0], M.EuclidPoint(rng.normal(size=2)),
                                np.eye(2)),
           factors.relative_pose_factor(se3[0], se3[1], random_pose(rng),
                                        np.eye(6)),
           factors.usbl_factor(se3[0], se3[2], rng.normal(size=3), np.eye(3)),
           factors.usbl_factor(se3[0], r3[0], rng.normal(size=3), np.eye(3)),
           factors.roll_pitch_factor(se3[1])]
    fs += factors.boundary_factors(se3[2], r3[1], "DOWN", np.eye(3))
    fs += factors.boundary_factors(se3[2], r3[1], "UP", np.eye(3))
    A = rng.normal(size=(2, 2))

    def custom(values):
        p = values.get(r2[1]).coords
        return np.concatenate([A @ np.sin(p),
                               M.log_se3(values.get(se3[1]))[:2] * p])

    fs.append(Factor(keys=(r2[1], se3[1]), residual_fn=custom,
                     jacobian_fn=lambda values: None,
                     noise=NoiseModel(np.eye(4)), name="custom"))
    return fs, values


class TestFiniteDifferenceOracle:
    def test_recovers_known_linear_jacobian(self):
        key = VariableKey(0, M.R3, 0.0)
        A = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]])

        def residual(values):
            return A @ values.get(key).coords

        values = Values()
        values.set(key, M.EuclidPoint(np.array([0.3, -0.2, 1.0])))
        np.testing.assert_allclose(
            finite_difference_jacobian(residual, values, key), A, atol=1e-8)

    def test_respects_manifold_retraction(self, rng):
        # residual = Log(X) has right Jacobian inverse as derivative
        key = VariableKey(0, M.SE3, 0.0)
        xi = rng.normal(0.0, 0.5, 6)
        values = Values()
        values.set(key, M.exp_se3(xi))

        def residual(values):
            return M.log_se3(values.get(key))

        J = finite_difference_jacobian(residual, values, key)
        np.testing.assert_allclose(J, M.SE3.group.jr_inv(xi), atol=1e-6)

    @pytest.mark.parametrize("step", [1e-6, 1e-4, -2e-5])
    def test_equals_the_retraction_per_column_reference(self, rng, step):
        """Every family's columns on every key kind equal the reference's
        bit for bit, and the caller's values keep their objects."""
        fs, values = every_family(rng)
        held = {k: values.get(k) for k in values.keys()}
        kinds = set()
        for f in fs:
            for key in f.keys:
                J = finite_difference_jacobian(f.residual_fn, values, key,
                                               step)
                ref = reference_jacobian(f.residual_fn, values, key, step)
                assert J.shape == (f.dim, key.kind.dim)
                assert_identical(J, ref)
                kinds.add(key.kind)
        assert kinds == {M.SE3, M.SO3, M.R3, M.rn(2)}
        assert len(values) == len(held)
        assert all(values.get(k) is v for k, v in held.items())

    def test_increments_are_made_once_and_read_only(self, monkeypatch, rng):
        calls = []
        exp_se3 = M.exp_se3
        monkeypatch.setattr(M, "exp_se3",
                            lambda xi: calls.append(xi) or exp_se3(xi))
        key = VariableKey(0, M.SE3, 0.0)
        values = Values()
        values.set(key, random_pose(rng))
        step = 3.0517578125e-05
        simkit._increments.cache_clear()

        def residual(values):
            return M.log_se3(values.get(key))

        first = finite_difference_jacobian(residual, values, key, step)
        assert len(calls) == 12
        again = finite_difference_jacobian(residual, values, key, step)
        assert len(calls) == 12
        assert_identical(first, again)
        for pair in simkit._increments(M.SE3, step):
            for T in pair:
                for part in (T.rotation.matrix, T.translation):
                    assert not part.flags.writeable
        for kind in (M.SO3, M.R3):
            for pair in simkit._increments(kind, step):
                for element in pair:
                    for part in kind.group.parts(element):
                        assert not part.flags.writeable

    @pytest.mark.parametrize("step", [1e-6, 1e-4, -2e-5])
    def test_built_in_batch_equals_the_loop(self, monkeypatch, rng, step):
        """A built-in factor's columns, taken as one batch of its family,
        equal the per-direction loop's bit for bit: ct on SE(3), SO(3) and
        R^3, priors, relative pose (also over one key twice), USBL to both
        target kinds, roll-pitch and boundary factors, and a key the factor
        does not bind, whose columns are zeros. The batch calls no
        element residual, and the caller's values keep their objects."""
        fs, values = every_family(rng)
        fs = [f for f in fs if f.family is not None]
        fs.append(factors.relative_pose_factor(fs[0].keys[0], fs[0].keys[0],
                                               random_pose(rng), np.eye(6)))
        held = {k: values.get(k) for k in values.keys()}
        loop_calls, call = [], factors.RowResidual.__call__
        monkeypatch.setattr(factors.RowResidual, "__call__", lambda row, v:
                            loop_calls.append(1) or call(row, v))
        unbound = fs[0].keys[0]  # an SE(3) key
        seen = set()
        for f in fs:
            assert type(f.residual_fn) is factors.RowResidual
            seen.add((f.family.name, tuple(k.kind.tag for k in f.keys)))
            for key in f.keys + (unbound,) * (unbound not in f.keys):
                J = finite_difference_jacobian(f.residual_fn, values, key,
                                               step)
                assert not loop_calls, f.name
                loop = finite_difference_jacobian(
                    lambda v: f.residual_fn(v), values, key, step)
                assert len(loop_calls) == 2 * key.kind.dim
                loop_calls.clear()
                assert_identical(J, loop)
                if key not in f.keys:
                    assert J.shape == (f.dim, key.kind.dim) and not J.any()
        se3, so3, rn = ("SE3",), ("SO3",), ("RN",)
        assert seen == {("ct", se3 * 3), ("ct", so3 * 3), ("ct", rn * 3),
                        ("prior", se3), ("prior", so3), ("prior", rn),
                        ("relpose", se3 * 2), ("usbl", se3 * 2),
                        ("usbl", se3 + rn), ("rollpitch", se3),
                        ("boundary", se3 + rn)}
        assert len(values) == len(held)
        assert all(values.get(k) is v for k, v in held.items())

    def test_increment_stacks_are_read_only_rows_of_the_pairs(self):
        step = 1e-6
        for kind in (M.SE3, M.SO3, M.R3):
            stack = simkit._increment_stack(kind, step)
            assert stack is simkit._increment_stack(kind, step)
            rows = [kind.group.parts(x)
                    for pair in simkit._increments(kind, step) for x in pair]
            assert len(stack[0]) == 2 * kind.dim
            for part, column in zip(stack, zip(*rows)):
                assert not part.flags.writeable
                assert_identical(part, np.array(column))

    def test_other_callables_take_the_loop(self, rng):
        """A residual_fn assigned on a view or given to
        dataclasses.replace, and a custom factor binding one key twice,
        are called once per perturbed state, and give the reference."""
        fs, values = every_family(rng)
        ct = fs[0]
        (key, *_) = ct.keys
        calls = []
        row = ct.residual_fn

        def counted(v):
            calls.append(1)
            return row(v)

        copy = dataclasses.replace(ct, residual_fn=counted)
        ct.residual_fn = counted
        custom = Factor(keys=(key, key), residual_fn=lambda v: counted(v)
                        + M.log_se3(v.get(key))[0],
                        jacobian_fn=lambda v: None,
                        noise=NoiseModel(np.eye(6)), name="twice")
        for f in (ct, copy, custom):
            J = finite_difference_jacobian(f.residual_fn, values, key)
            assert len(calls) == 12
            assert_identical(J, reference_jacobian(f.residual_fn, values,
                                                   key))
            calls.clear()

    def test_near_pi_error_is_the_loops(self):
        """A perturbation that takes a prior's error past the near-pi
        margin raises in the batch; the oracle then runs the loop, whose
        NearSingularError it raises."""
        for kind in (M.SO3, M.SE3):
            key = VariableKey(0, kind, 0.0)
            values = Values()
            z = np.zeros(kind.dim)
            z[-1] = np.pi - M.NEAR_PI_MARGIN - 5e-7
            values.set(key, kind.group.exp(z))
            f = factors.prior_factor(key, kind.group.exp(np.zeros(kind.dim)),
                                     np.eye(kind.dim))
            f.residual_fn(values)  # the state itself is inside the margin
            with pytest.raises(M.NearSingularError) as batch:
                finite_difference_jacobian(f.residual_fn, values, key)
            with pytest.raises(M.NearSingularError) as loop:
                finite_difference_jacobian(lambda v: f.residual_fn(v),
                                           values, key)
            assert str(batch.value) == str(loop.value)
            row = f.residual_fn
            with pytest.raises(M.NearSingularError) as direct:
                simkit._row_differences(row, values, key, 1e-6)
            assert str(direct.value) != str(loop.value)

    @pytest.mark.parametrize("step", [0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_zero_or_non_finite_step_is_refused(self, step):
        key = VariableKey(0, M.R3, 0.0)
        values = Values()
        values.set(key, M.EuclidPoint(np.zeros(3)))
        with pytest.raises(ValueError, match="step"):
            finite_difference_jacobian(lambda v: v.get(key).coords, values,
                                       key, step)


class TestUnitCircleFixtures:
    def test_poses_sit_on_unit_circle(self):
        for k in range(12):
            p = unit_circle_pose(k).translation
            assert arc_distance(p) < 1e-12

    def test_twist_advances_along_arc(self):
        # one step along the arc: advance step metres, turn step radians
        xi = np.array([UNIT_CIRCLE_STEP, 0.0, 0.0, 0.0, 0.0, UNIT_CIRCLE_STEP])
        for k in range(12):
            stepped = M.oplus(M.SE3, unit_circle_pose(k), xi)
            ref = unit_circle_pose(k + 1)
            np.testing.assert_allclose(stepped.matrix(), ref.matrix(),
                                       atol=1e-12)

    @pytest.mark.parametrize("variant,n,free",
                             [("EXTRAPOLATE", 3, [2]),
                              ("INTERPOLATE", 3, [1]),
                              ("CHAIN", 6, [1, 2, 3, 4])])
    def test_fixture_shapes(self, variant, n, free):
        graph, initial, keys, oracle = unit_circle_fixtures(variant, sigma=0.1)
        assert len(keys) == n and len(initial) == n
        anchored = [k for k in range(n) if k not in free]
        for k in anchored:
            np.testing.assert_allclose(initial.get(keys[k]).matrix(),
                                       oracle(k).matrix(), atol=1e-12)
        for k in free:
            assert not np.allclose(initial.get(keys[k]).matrix(),
                                   oracle(k).matrix(), atol=1e-6)

    def test_fixture_optimum_is_on_arc(self):
        graph, initial, keys, oracle = unit_circle_fixtures(
            "INTERPOLATE", sigma=0.1, seed=3)
        solution, report = optimize(graph, initial)
        assert report.converged
        err = M.ominus(M.SE3, solution.get(keys[1]), oracle(1))
        assert np.max(np.abs(err)) < 1e-6

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            unit_circle_fixtures("SPIRAL")

    def test_arc_distance(self):
        assert arc_distance(np.array([1.0, 0.0, 0.0])) == 0.0
        assert arc_distance(np.array([2.0, 0.0, 0.0])) == pytest.approx(1.0)
        assert arc_distance(np.array([0.0, 1.0, 0.5])) == pytest.approx(0.5)
