"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import filecmp
import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import instrument  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def tg():
    return run.load_program(run.ROOT)


def test_self_time_subtracts_direct_children():
    # op [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tr = Tracer(clock=iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]).__next__)
    with tr.span("bench.op"):
        with tr.span("x.a"):
            with tr.span("x.b"):
                pass
        with tr.span("x.c"):
            pass
    assert list(tr.parent) == [-1, 0, 1, 0]
    assert list(tr.self_times()) == [3.0, 2.0, 1.0, 4.0]


def test_manifold_calls_go_to_nearest_caller_outside_manifold():
    tr = Tracer(clock=itertools.count().__next__)
    inner = tr.wrap(lambda: None, "manifold.log_so3")
    outer = tr.wrap(lambda: inner(), "manifold.log_se3")
    tr.op_id = 0
    with tr.span("bench.op"):
        with tr.span("factors.ct_se3.residual"):
            outer()
        with tr.span("fgraph.retract"):
            inner()
    m = instrument.layer_metrics(tr, n_ops=1)
    assert m["manifold.calls.from_factors"][0] == 2
    assert m["manifold.calls.from_fgraph"][0] == 1
    assert m["factors.ct_se3.evals"][0] == 1
    # log_se3 spans 3 ticks around log_so3's 1; the lone log_so3 spans 1.
    assert m["manifold.self_s"][0] == 2 + 1 + 1


def test_uninstall_restores_every_patched_attribute(tg):
    modules = [getattr(tg, m) for m in instrument.MODULES] + [tg.package]
    before = [dict(vars(m)) for m in modules]
    call = tg.fgraph.Linearizer.__call__
    tr = Tracer()
    instrument.install(tr, tg)
    assert tg.factors.skew is not before[modules.index(tg.factors)]["skew"]
    assert tg.cli.optimize is tg.fgraph.optimize
    tr.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert tg.fgraph.Linearizer.__call__ is call


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 9) is None
    assert run.tail(list(range(100)))[0] == 90.0
    assert run.tail([float(i) for i in range(1000)]) == (99.0, 989.0)


def test_probe_uses_samples_inside_the_operation_or_the_nearest():
    probe = run.SpeedProbe()
    probe.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    probe.samples = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    assert probe.around(1.5, 5.5) == 35.0  # the four samples inside
    assert probe.around(3.9, 4.1) == 40.0  # widened to three around 4.0
    assert probe.around(6.5, 7.0) == 50.0  # clamped to the last three


def test_same_seed_gives_byte_identical_streams(tg, tmp_path):
    streams = []
    for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / sub).mkdir()
        streams.append(workloads.Rendezvous(tg, tmp_path / sub, "A").setup(seed))
    a, b, c = streams
    for kind in ("truth", "meas"):
        assert filecmp.cmp(a[kind], b[kind], shallow=False)
    assert not filecmp.cmp(a["meas"], c["meas"], shallow=False)


@pytest.mark.parametrize("name", ["twochain-1000", "jacobian-cert"])
def test_same_seed_gives_identical_counts(tg, tmp_path, name):
    def traced_counts():
        wl = workloads.make(name, tg, tmp_path)
        wl.traced_ops = 3
        if name == "twochain-1000":
            wl.N = 60  # the same graph shape, small enough for a unit test
        attempted, failed, metrics, _, _ = run.run_traced(
            wl, tg, 11, tmp_path / "spans.npz")
        assert failed == 0  # includes: traced results equal untraced ones
        return {k: v for k, (v, unit) in metrics.items() if unit == "count"}

    first = traced_counts()
    assert first == traced_counts()
    assert first["factors.ct_se3.evals"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jacobian-cert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
