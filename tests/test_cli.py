"""End-to-end command-line interface checks."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from twistgraph import cli, tracking
from twistgraph.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_UNDERCONSTRAINED,
    main,
)
from twistgraph.fgraph import SolveReport
from twistgraph.formats import (
    read_estimate,
    read_measurements,
    read_truth,
    write_measurements,
)
from twistgraph.tracking import MeasurementRecord
from twistgraph.manifold import Pose3, exp_so3


def strict_json(line):
    """The JSON value on `line`, refusing NaN and Infinity, which strict
    JSON readers reject."""
    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(line, parse_constant=refuse)


@pytest.fixture
def short_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "duration = 60\n"
        "gate = 2.0\n"
        "target_start = 8 3 -1 1 0 0 0\n"
        "optical_windows = 18:24; 48:54\n"
        "gaps = 30:42\n")
    return path


def simulate(tmp_path, short_cfg, seed=0):
    truth = tmp_path / "truth.csv"
    meas = tmp_path / "meas.csv"
    rc = main(["simulate", "--config", str(short_cfg), "--seed", str(seed),
               "--out-truth", str(truth), "--out-meas", str(meas)])
    assert rc == EXIT_OK
    return truth, meas


class TestPipeline:
    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_simulate_smooth_metrics(self, tmp_path, short_cfg, mode, capsys):
        truth, meas = simulate(tmp_path, short_cfg)
        est = tmp_path / f"est_{mode}.csv"
        rc = main(["smooth", "--config", str(short_cfg), "--mode", mode,
                   "--meas", str(meas), "--out", str(est)])
        assert rc == EXIT_OK
        rows = read_estimate(est)
        assert rows and rows[0].timestamp == pytest.approx(0.0)
        if mode == "B":
            assert any(r.target_pose is None for r in rows)
            assert any(r.target_pose is not None for r in rows)
        else:
            assert all(r.target_pose is not None for r in rows)

        out = tmp_path / "metrics.csv"
        rc = main(["metrics", "--estimate", str(est), "--truth", str(truth),
                   "--meas", str(meas), "--out", str(out)])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "ALL" in text and "baseline" in text
        assert out.exists()

    def test_commands_import_no_scipy_linalg_sparse_or_spatial(
            self, tmp_path, short_cfg):
        """simulate, smooth and metrics, run in one fresh process, load
        none of scipy.linalg, scipy.sparse, scipy.spatial or scipy's
        array-API layer: the solver binds its LAPACK routines alone."""
        code = (
            "import sys\n"
            "from twistgraph import cli\n"
            "cfg, out = sys.argv[1:]\n"
            "truth, meas, est = (f'{out}/{name}.csv' for name in"
            " ('truth', 'meas', 'est'))\n"
            "for argv in (['simulate', '--config', cfg, '--seed', '1',"
            " '--out-truth', truth, '--out-meas', meas],\n"
            "             ['smooth', '--config', cfg, '--mode', 'A',"
            " '--meas', meas, '--out', est],\n"
            "             ['metrics', '--estimate', est, '--truth', truth,"
            " '--meas', meas]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "loaded = [name for name in ('scipy.linalg', 'scipy.sparse',"
            " 'scipy.spatial', 'scipy._lib._array_api')"
            " if name in sys.modules]\n"
            "assert not loaded, loaded\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        run = subprocess.run(
            [sys.executable, "-c", code, str(short_cfg), str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path})
        assert run.returncode == 0, run.stderr

    def test_main_builds_one_parser_and_keeps_no_option(self, monkeypatch):
        """Two calls share one parser, and an option given to the first is
        not a default of the second."""
        built, modes = [], []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "cmd_smooth",
                            lambda args: modes.append(args.mode) or EXIT_OK)
        cli._parser.cache_clear()
        try:
            for extra in (["--mode", "A"], []):
                assert main(["smooth", "--meas", "m.csv", "--out", "e.csv",
                             *extra]) == EXIT_OK
        finally:
            cli._parser.cache_clear()
        assert built == [1] and modes == ["A", None]

    def test_seed_determinism(self, tmp_path, short_cfg):
        for sub in ("a", "b", "c"):
            (tmp_path / sub).mkdir()
        t1, m1 = simulate(tmp_path / "a", short_cfg, seed=5)
        t2, m2 = simulate(tmp_path / "b", short_cfg, seed=5)
        assert m1.read_text() == m2.read_text()
        assert t1.read_text() == t2.read_text()
        _, m3 = simulate(tmp_path / "c", short_cfg, seed=6)
        assert m1.read_text() != m3.read_text()

    def test_records_straddling_rounding_grid_share_a_keyframe(
            self, tmp_path, short_cfg, capsys):
        # one USBL record split in two, 2e-10 s apart, on either side of a
        # 1e-9 s rounding step
        _, meas = simulate(tmp_path, short_cfg, seed=1)
        rows = meas.read_text().splitlines(keepends=True)
        i = next(i for i, row in enumerate(rows) if row.startswith("20,USBL,"))
        rest = rows[i][len("20"):]
        rows[i:i + 1] = ["20.0000000004999" + rest, "20.0000000005001" + rest]
        meas.write_text("".join(rows))
        for mode in ("A", "B"):
            est = tmp_path / f"est_{mode}.csv"
            rc = main(["smooth", "--config", str(short_cfg), "--mode", mode,
                       "--meas", str(meas), "--out", str(est)])
            assert rc == EXIT_OK, capsys.readouterr().err
            times = [r.timestamp for r in read_estimate(est)]
            assert sum(19.9 < t < 20.1 for t in times) == 1

    def test_trace_of_seed_1_mode_a_matches_its_report(
            self, tmp_path, monkeypatch, capsys):
        """`smooth --trace` on the CLI's seed-1 stream in Mode A writes one
        JSON line per try and per iteration, one solve record and one line
        of stage timings; its iterations, tries and final cost are the
        SolveReport's and the stdout line's."""
        meas = tmp_path / "meas.csv"
        assert main(["simulate", "--seed", "1", "--out-truth",
                     str(tmp_path / "truth.csv"), "--out-meas",
                     str(meas)]) == EXIT_OK
        reports = []
        library_smooth = tracking.smooth

        def smooth(*args):
            estimate = library_smooth(*args)
            reports.append(estimate.report)
            return estimate
        monkeypatch.setattr(tracking, "smooth", smooth)
        capsys.readouterr()
        trace = tmp_path / "trace.jsonl"
        assert main(["smooth", "--mode", "A", "--meas", str(meas), "--out",
                     str(tmp_path / "est.csv"), "--trace",
                     str(trace)]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [strict_json(line) for line in
                 trace.read_text().splitlines()]
        by_kind = {}
        for line in lines:
            by_kind.setdefault(line.pop("record"), []).append(line)
        assert set(by_kind) == {"try", "iteration", "solve", "stages"}
        (solve,), (stages,) = by_kind["solve"], by_kind["stages"]
        (report,) = reports
        assert by_kind["try"] == report.tries
        assert by_kind["iteration"] == report.phases
        assert solve["iterations"] == report.iterations == len(report.phases)
        assert solve["final_cost"] == report.final_cost
        assert solve["gauge"] == report.gauge
        assert solve["family_costs_end"] == report.family_costs_end
        assert set(stages) == {"read_s", "schedule_s", "build_s", "solve_s",
                               "write_s"}
        match = re.search(r"cost (\S+) after (\d+) iterations", out)
        assert match.group(1) == f"{solve['final_cost']:.6g}"
        assert int(match.group(2)) == solve["iterations"]

    def test_trace_of_an_underconstrained_solve(self, tmp_path, capsys):
        """The seed-1 stream with its t = 52 USBL row repeated 1 us later
        exits 4 in both modes, naming id=107@t=52. With --trace it exits
        and prints the same, and writes the stages timed up to the solve
        and a solve record of the error and the gauge check's verdict."""
        meas = tmp_path / "meas.csv"
        assert main(["simulate", "--seed", "1", "--out-truth",
                     str(tmp_path / "truth.csv"), "--out-meas",
                     str(meas)]) == EXIT_OK
        lines = meas.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines)
                 if line.startswith("52,USBL,"))
        lines.insert(i + 1, "52.000001" + lines[i][len("52"):])
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("".join(lines))
        for mode in ("A", "B"):
            args = ["smooth", "--mode", mode, "--meas", str(repeated),
                    "--out", str(tmp_path / "est.csv")]
            capsys.readouterr()
            assert main(args) == EXIT_UNDERCONSTRAINED
            untraced = capsys.readouterr()
            assert "id=107@t=52" in untraced.err
            trace = tmp_path / f"trace_{mode}.jsonl"
            assert main(args + ["--trace", str(trace)]) \
                == EXIT_UNDERCONSTRAINED
            assert capsys.readouterr() == untraced
            solve, stages = (strict_json(line) for line in
                             trace.read_text().splitlines())
            assert solve.pop("record") == "solve"
            assert stages.pop("record") == "stages"
            assert untraced.err == f"error: {solve['error']}\n"
            assert set(solve) == {"error", "gauge"}
            assert set(solve["gauge"]) == {"min_pivot_sq", "inverse_bound",
                                           "suspects"}
            assert solve["gauge"]["suspects"] >= 1
            assert set(stages) == {"read_s", "schedule_s", "build_s",
                                   "solve_s"}
            assert all(s >= 0.0 for s in stages.values())

    def test_trace_writes_a_non_finite_try_cost_as_null(self, tmp_path):
        """A try whose candidate cost overflowed or is nan keeps strict JSON
        in the trace: the cost is written as null."""
        report = SolveReport(final_cost=2.5, iterations=1, tries=[
            {"iteration": 0, "lam": 1e-3, "outcome": "cost_increase",
             "cost": float("inf"), "step_inf": 1e300, "grad_inf": 4.0},
            {"iteration": 0, "lam": 1e-2, "outcome": "cost_increase",
             "cost": float("nan"), "step_inf": 0.5, "grad_inf": 4.0},
            {"iteration": 0, "lam": 1e-1, "outcome": "accepted",
             "cost": 2.5, "step_inf": 0.1, "grad_inf": 4.0}],
            family_costs_end={"usbl": float("-inf")})
        trace = tmp_path / "trace.jsonl"
        cli._write_trace(trace, report, {"solve_s": 0.25})
        lines = [strict_json(line) for line in
                 trace.read_text().splitlines()]
        assert [line["cost"] for line in lines[:3]] == [None, None, 2.5]
        assert lines[0]["step_inf"] == 1e300
        assert lines[3]["record"] == "solve"
        assert lines[3]["family_costs_end"] == {"usbl": None}
        assert lines[4] == {"record": "stages", "solve_s": 0.25}

    def test_gap_at_start_carries_the_chaser_prior(self, tmp_path, capsys):
        """With no relative record before t = 32 s, the first keyframe's
        chaser prior is the start pose carried there on odometry."""
        cfg = tmp_path / "gap.cfg"
        cfg.write_text("gaps = 0:30; 150:170\n")
        truth_path, meas = simulate(tmp_path, cfg, seed=1)
        truth = read_truth(truth_path)
        for mode in ("A", "B"):
            est = tmp_path / f"est_{mode}.csv"
            rc = main(["smooth", "--config", str(cfg), "--mode", mode,
                       "--meas", str(meas), "--out", str(est)])
            assert rc == EXIT_OK, capsys.readouterr().err
            first = read_estimate(est)[0]
            assert first.timestamp == pytest.approx(32.0)
            true = truth.chaser[truth.index_at(first.timestamp)]
            assert np.linalg.norm(
                first.chaser.translation - true.translation) < 0.5


    @pytest.mark.parametrize("line", ["dt = 0.03", "usbl_rate_hz = 0.6"])
    def test_every_record_is_stamped_at_a_truth_sample(self, tmp_path,
                                                       line, capsys):
        """Ticks that fall between truth samples are stamped with the
        sample their record was made from."""
        cfg = tmp_path / "off_grid.cfg"
        cfg.write_text("duration = 40\n" + line + "\n")
        truth_path, meas_path = simulate(tmp_path, cfg)
        truth = read_truth(truth_path)
        stream = read_measurements(meas_path)
        i, ok = truth.indices_at(stream.times)
        assert ok.all()
        assert np.abs(truth.times[i] - stream.times).max() <= 1e-9
        nominal = {"dt = 0.03": 0.2, "usbl_rate_hz = 0.6": 5 / 3}[line]
        assert not np.isclose(stream.times, nominal, rtol=0, atol=1e-6).any()


class TestErrorExits:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mode = Z\n")
        rc = main(["simulate", "--config", str(bad),
                   "--out-truth", str(tmp_path / "t.csv"),
                   "--out-meas", str(tmp_path / "m.csv")])
        assert rc == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        rc = main(["smooth", "--meas", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_CONFIG

    def test_out_of_order_stream_exits_2(self, tmp_path, capsys):
        meas = tmp_path / "backwards.csv"
        write_measurements(meas, [
            MeasurementRecord(timestamp=t, kind="USBL",
                              payload=np.array([5.0, 0.0, 0.0]))
            for t in (1.0, 2.0, 1.5)])
        rc = main(["smooth", "--meas", str(meas),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: measurement at t=1.5 arrived after t=2.0"]

    def test_accumulated_steps_back_exit_2(self, tmp_path, capsys):
        meas = tmp_path / "creeping.csv"
        meas.write_text("timestamp,kind,tx,ty,tz,qw,qx,qy,qz\n" + "".join(
            f"{1.0 - 9e-10 * k!r},USBL,5,0,0,,,,\n" for k in range(2000)))
        rc = main(["smooth", "--meas", str(meas),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith("arrived after t=1.0")

    @pytest.mark.parametrize("line", [
        "usbl_sigma = 0",
        "chaser_prior_sigma_pos = 0",
        "usbl_sigma = nan",
        "odom_sigma_rot = inf",
        "target_prior_sigma_rot = -1",
        "init_lambda = -1",
    ])
    def test_degenerate_setting_exits_2(self, tmp_path, short_cfg, capsys,
                                        line):
        _, meas = simulate(tmp_path, short_cfg)
        cfg = tmp_path / "degenerate.cfg"
        cfg.write_text(short_cfg.read_text() + line + "\n")
        capsys.readouterr()
        rc = main(["smooth", "--config", str(cfg), "--meas", str(meas),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {line.split()[0]} must be ")

    @pytest.mark.parametrize("line", [
        "duration = nan",
        "duration = inf",
        "duration = 0",
        "usbl_rate_hz = inf",
        "odom_rate_hz = inf",
        "gate = nan",
        "gate = inf",
    ])
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        rc = main(["simulate", "--config", str(cfg),
                   "--out-truth", str(tmp_path / "t.csv"),
                   "--out-meas", str(tmp_path / "m.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {line.split()[0]} must be ")

    @pytest.mark.parametrize("line", [
        "gaps = nan:90",
        "gaps = 10:inf",
        "optical_windows = 200:100",
    ])
    def test_bad_window_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("duration = 320\n" + line + "\n")
        rc = main(["simulate", "--config", str(cfg),
                   "--out-truth", str(tmp_path / "t.csv"),
                   "--out-meas", str(tmp_path / "m.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"error: {cfg}:2: bad value for {line.split()[0]!r}: window ")

    def test_non_finite_gate_option_exits_2(self, tmp_path, capsys):
        rc = main(["smooth", "--gate", "nan", "--meas", str(tmp_path / "m.csv"),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: gate must be finite")

    @pytest.mark.parametrize("kind, column, value", [
        ("ODOM", 5, "0,0,0,0"),  # zero quaternion
        ("USBL", 3, "nan"),
        ("ODOM", 2, "inf"),
        ("OPTICAL", 6, "nan"),  # quaternion
    ])
    def test_non_finite_stream_field_exits_2(self, tmp_path, short_cfg,
                                             capsys, kind, column, value):
        _, meas = simulate(tmp_path, short_cfg, seed=1)
        lines = meas.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines)
                 if i > 100 and f",{kind}," in line)
        row = lines[i].rstrip("\r\n").split(",")
        new = value.split(",")
        row[column:column + len(new)] = new
        lines[i] = ",".join(row) + "\n"
        meas.write_text("".join(lines))
        rc = main(["smooth", "--config", str(short_cfg), "--meas", str(meas),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {meas}:{i + 1}: ")

    @pytest.mark.parametrize("line", ["dt = 1e-9", "odom_rate_hz = 1e9",
                                      "usbl_rate_hz = 1e9",
                                      "optical_rate_hz = 1e9"])
    def test_unbounded_simulation_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("duration = 10\n" + line + "\n")
        truth = tmp_path / "truth.csv"
        rc = main(["simulate", "--config", str(cfg), "--out-truth", str(truth),
                   "--out-meas", str(tmp_path / "meas.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        key = line.split(" = ")[0]
        assert len(err) == 1 and err[0].startswith(f"error: {key} = ")
        assert not truth.exists()

    @pytest.mark.parametrize("line", ["odom_rate_hz = 30",
                                      "usbl_rate_hz = 25",
                                      "optical_rate_hz = 21"])
    def test_rate_period_under_dt_exits_2(self, tmp_path, capsys, line):
        """Two ticks of a rate faster than the 0.05 s truth step would come
        from one truth sample."""
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("duration = 10\n" + line + "\n")
        truth = tmp_path / "truth.csv"
        rc = main(["simulate", "--config", str(cfg), "--out-truth", str(truth),
                   "--out-meas", str(tmp_path / "meas.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        key = line.split(" = ")[0]
        assert len(err) == 1 and err[0].startswith(f"error: {key} = ")
        assert "shorter than dt = 0.05" in err[0]
        assert not truth.exists()

    def test_unbounded_gate_exits_2(self, tmp_path, capsys):
        meas = optical_stream(tmp_path, exp_so3(np.zeros(3)))
        rc = main(["smooth", "--gate", "1e-9", "--meas", str(meas),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: gate = 1e-09 asks")

    @pytest.mark.parametrize("gate, error", [
        ("0.001", "error: gate = 0.001 is shorter than the stream's "
                  "odometry period of 0.1 s"),
        ("1e-9", "error: gate = 1e-09 asks for 2e+09 keyframes, more than "
                 "1000000")], ids=["0.001", "1e-9"])
    def test_gate_is_refused_before_scheduling(self, tmp_path, capsys,
                                               monkeypatch, gate, error):
        """A gate the keyframe ceiling allows but the odometry period does
        not, and one the ceiling refuses, are refused before any keyframe
        is made."""
        def no_schedule(*args, **kwargs):
            raise AssertionError("keyframes were scheduled")

        monkeypatch.setattr(tracking, "schedule_keyframes", no_schedule)
        meas = optical_stream(tmp_path, exp_so3(np.zeros(3)))
        rc = main(["smooth", "--gate", gate, "--meas", str(meas),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.strip().splitlines() == [error]

    def test_gate_under_the_odometry_period_exits_2(self, tmp_path, capsys):
        """The stream's odometry runs at 10 Hz: a 0.05 s gate is refused
        before the graph is built or solved."""
        meas = optical_stream(tmp_path, exp_so3(np.zeros(3)))
        out = tmp_path / "est.csv"
        rc = main(["smooth", "--gate", "0.05", "--meas", str(meas),
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: gate = 0.05 is shorter than the stream's "
                       "odometry period of 0.1 s"]
        assert not out.exists()

    def test_simulate_accepts_zero_measurement_noise(self, tmp_path,
                                                     short_cfg):
        cfg = tmp_path / "noiseless.cfg"
        cfg.write_text(short_cfg.read_text() + "usbl_sigma = 0\n"
                       "odom_sigma_pos = 0\noptical_sigma_rot = 0\n")
        simulate(tmp_path, cfg)

    @pytest.mark.parametrize("row", [
        "0.2,ODOM,0,0,x,1,0,0,0",  # non-numeric field
        "0.2,ODOM,0,0,0,1,0,0",  # short ODOM row
    ])
    def test_malformed_stream_row_exits_2(self, tmp_path, capsys, row):
        meas = tmp_path / "bad.csv"
        meas.write_text("timestamp,kind,tx,ty,tz,qw,qx,qy,qz\n"
                        "0.1,USBL,5,0,0,,,,\n" + row + "\n")
        rc = main(["smooth", "--meas", str(meas),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {meas}:3: ")

    def test_no_relative_measurements_exits_4(self, tmp_path):
        meas = tmp_path / "odom_only.csv"
        records = [MeasurementRecord(timestamp=0.1 * k, kind="ODOM",
                                     payload=Pose3.identity())
                   for k in range(1, 11)]
        write_measurements(meas, records)
        rc = main(["smooth", "--meas", str(meas),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_UNDERCONSTRAINED

    def test_estimate_outside_truth_exits_2(self, tmp_path, short_cfg, capsys):
        truth, meas = simulate(tmp_path, short_cfg, seed=1)
        est = tmp_path / "est.csv"
        assert main(["smooth", "--config", str(short_cfg), "--mode", "A",
                     "--meas", str(meas), "--out", str(est)]) == EXIT_OK
        header, *rows = est.read_text().splitlines(keepends=True)
        shifted = tmp_path / "shifted.csv"
        shifted.write_text(header + "".join(
            f"{float(t) + 1000.0!r},{rest}"
            for t, rest in (row.split(",", 1) for row in rows)))
        capsys.readouterr()
        rc = main(["metrics", "--estimate", str(shifted),
                   "--truth", str(truth), "--meas", str(meas)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            "error: no keyframe timestamps overlap the ground truth"]

    @pytest.mark.parametrize("lines, message", [
        (3, "{cut}: one ground-truth sample sets no time step"),
        (1, "no keyframe timestamps overlap the ground truth"),
    ])
    def test_truth_without_time_step_exits_2(self, tmp_path, short_cfg,
                                             capsys, lines, message):
        truth, meas = simulate(tmp_path, short_cfg, seed=1)
        est = tmp_path / "est.csv"
        assert main(["smooth", "--config", str(short_cfg), "--mode", "B",
                     "--meas", str(meas), "--out", str(est)]) == EXIT_OK
        # the header and one chaser/target pair, or the header alone
        cut = tmp_path / "truth_cut.csv"
        cut.write_text("".join(
            truth.read_text().splitlines(keepends=True)[:lines]))
        capsys.readouterr()
        rc = main(["metrics", "--estimate", str(est), "--truth", str(cut),
                   "--meas", str(meas)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: " + message.format(cut=cut)]

    def test_singular_initial_estimate_exits_3(self, tmp_path, capsys):
        # Optical fixes put the target upside down, where the Mode A
        # roll-pitch factor has no tilt direction.
        meas = optical_stream(tmp_path, exp_so3(np.array([np.pi, 0.0, 0.0])))
        rc = main(["smooth", "--meas", str(meas), "--mode", "A",
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: linearization failed in rollpitch[")
        assert "id=1@t=1" in err[0] and "pitch" in err[0]

    def test_unconverged_solve_exits_3(self, tmp_path, short_cfg, capsys,
                                       monkeypatch):
        """A solve stopped by max_iterations still writes its estimate,
        then exits 3, naming the factor family with the largest whitened
        cost at the last iterate."""
        _, meas = simulate(tmp_path, short_cfg, seed=1)
        capsys.readouterr()
        one = tmp_path / "one_iteration.cfg"
        one.write_text(short_cfg.read_text() + "max_iterations = 1\n")
        est = tmp_path / "est.csv"
        estimates = []
        smooth = tracking.smooth
        monkeypatch.setattr(tracking, "smooth", lambda *args: estimates.append(
            smooth(*args)) or estimates[-1])
        rc = main(["smooth", "--config", str(one), "--mode", "B",
                   "--meas", str(meas), "--out", str(est)])
        assert rc == EXIT_NO_CONVERGENCE
        out, err = capsys.readouterr()
        assert out.rstrip().endswith("after 1 iterations")
        (line,) = err.strip().splitlines()
        named = re.fullmatch(
            r"smooth: solver did not converge; the costliest factor family "
            r"at the last iterate is (\w+), whitened cost (\S+) of (\S+)",
            line)
        assert named
        report = estimates[0].report
        costs = report.family_costs_end
        assert len(costs) > 1
        assert named[1] == max(costs, key=costs.get)
        assert float(named[2]) == pytest.approx(costs[named[1]], rel=1e-5)
        assert float(named[3]) == pytest.approx(report.final_cost, rel=1e-5)
        assert read_estimate(est)

    def test_vertical_pitch_converges_in_mode_a(self, tmp_path, capsys):
        meas = optical_stream(tmp_path,
                              exp_so3(np.array([0.0, np.pi / 2, 0.0])))
        rc = main(["smooth", "--meas", str(meas), "--mode", "A",
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_OK, capsys.readouterr().err

    @pytest.mark.parametrize("angle", [np.pi, np.pi - 1e-7])
    def test_upside_down_target_in_mode_b(self, tmp_path, capsys, angle):
        # no roll-pitch factor in Mode B: the solve converges, and the
        # relative angle is reported up to pi
        meas = optical_stream(tmp_path, exp_so3(np.array([angle, 0.0, 0.0])))
        est = tmp_path / "est.csv"
        rc = main(["smooth", "--meas", str(meas), "--mode", "B",
                   "--out", str(est)])
        assert rc == EXIT_OK, capsys.readouterr().err
        rows = read_estimate(est)
        assert len(rows) == 3
        for row in rows:
            assert abs(row.rel_angle - angle) <= 1e-9


def optical_stream(tmp_path, rotation):
    """Three optical fixes of a target at (5, 0, 0) with `rotation`, 1 s
    apart, on 10 Hz identity odometry."""
    fix = Pose3(rotation, np.array([5.0, 0.0, 0.0]))
    records = []
    for k in range(1, 31):
        records.append(MeasurementRecord(timestamp=0.1 * k, kind="ODOM",
                                         payload=Pose3.identity()))
        if k % 10 == 0:
            records.append(MeasurementRecord(
                timestamp=0.1 * k, kind="OPTICAL", payload=fix))
    meas = tmp_path / "optical.csv"
    write_measurements(meas, records)
    return meas


class TestUnitCircle:
    @pytest.mark.parametrize("variant", ["EXTRAPOLATE", "INTERPOLATE", "CHAIN"])
    def test_variants_run_clean(self, variant, capsys):
        rc = main(["unit-circle", "--variant", variant, "--sigma", "0.1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert variant in out and "arc distance" in out

    @pytest.mark.parametrize("variant", ["EXTRAPOLATE", "INTERPOLATE", "CHAIN"])
    def test_printed_cost_does_not_rise_at_zero_sigma(self, variant, capsys):
        """Both printed costs come from the solver's own residual, so a solve
        that accepts no worse step never prints an increase."""
        rc = main(["unit-circle", "--variant", variant, "--sigma", "0"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        m = re.search(r"cost (\S+) -> (\S+) in", out)
        assert m is not None, out
        assert float(m.group(2)) <= float(m.group(1))
