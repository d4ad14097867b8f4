"""twistgraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from its
`src/` directory and nowhere else.  One client runs one operation at a time
in this process (a closed loop), so the only other threads are the BLAS
library's own.

--trace 0 sets up the workload's `inputs` from the seed, then runs operations
over them round-robin for about --seconds, and reports the end-to-end
metrics.  --trace 1 sets up one input under tracing, runs the
workload's fixed number of operations untraced and then traced, checks that
both give identical results, and reports the per-layer metrics.

The report goes to stdout, then one JSON object as the last line; the full
record (environment, seeds, samples, checks) is written to perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from bisect import bisect_left
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("rendezvous-A", "rendezvous-B", "twochain-1000", "jacobian-cert")
PROGRAM_MODULES = ("manifold", "fgraph", "factors", "tracking", "simkit",
                   "formats", "cli")
# Never used while the benchmark was written or tuned; keep it for checking
# a claimed gain on unseen inputs.
HELD_OUT_SEED = 7919
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
clock = time.perf_counter


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def input_seeds(seed: int, count: int) -> list[int]:
    """Seeds of the inputs one run makes; distinct for distinct run seeds."""
    return [1000 * seed + i for i in range(count)]


def load_program(root: Path) -> SimpleNamespace:
    src = (root / "src").resolve()
    if not (src / "twistgraph" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("twistgraph")
    if Path(package.__file__).resolve().parent != src / "twistgraph":
        raise ProgramMissing(f"imported twistgraph from {package.__file__}, "
                             f"not from {src}")
    return SimpleNamespace(package=package, **{
        m: importlib.import_module(f"twistgraph.{m}") for m in PROGRAM_MODULES})


def blas_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "libraries": {}}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype, fn.argtypes = ctypes.c_int, []
                record["libraries"][Path(path).name] = {"threads": fn()}
                break
    return record


def environment(loadavg_before) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_record(), "platform": platform.platform(),
            "loadavg_before": list(loadavg_before)}


def interleave(unit_lists: list[list]) -> list:
    """Round-robin over the inputs' units, so consecutive operations differ."""
    out = []
    for i in range(max(len(u) for u in unit_lists)):
        out.extend(u[i] for u in unit_lists if i < len(u))
    return out


def tail(samples: list[float]):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, by nearest rank; None when there are too few samples."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p, sorted(samples)[math.ceil(p / 100.0 * n) - 1]
    return None


class SpeedProbe:
    """Samples how fast this thread runs while the operations execute.

    On a virtual machine that shares its host, identical code runs up to 2x
    slower in phases that last from one to many seconds.  Wall times then
    spread more between runs than any bound allows.  While active, a timer
    signal every PERIOD seconds times a fixed small kernel (3x3 numpy
    products and small dict, list and tuple allocations, like the program's
    inner loops) in this thread, so the samples follow the phases each
    operation ran in.  The handler runs between bytecodes, never inside the
    program's native calls, and touches no program state; it costs about
    0.1% of the run.
    """

    PERIOD = 0.05
    LOOPS = 6

    def __init__(self):
        import numpy as np

        self.A = np.arange(9.0).reshape(3, 3) / 9.0
        self.v = np.ones(3)
        self.times: list[float] = []
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        A, v, acc = self.A, self.v, 0.0
        t0 = clock()
        for _ in range(self.LOOPS):
            acc += float((A @ v) @ v)
            {j: (j, [j]) for j in range(10)}
        t1 = clock()
        self.times.append(t1)
        self.samples.append(t1 - t0)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # so that even a short run has samples

    def around(self, start: float, end: float, least: int = 3) -> float:
        """Median kernel time sampled during [start, end], widened to the
        `least` samples nearest its middle when the span holds fewer."""
        lo, hi = bisect_left(self.times, start), bisect_left(self.times, end)
        if hi - lo < least:
            mid = bisect_left(self.times, (start + end) / 2.0)
            lo = max(0, min(mid - least // 2, len(self.times) - least))
            hi = lo + least
        return statistics.median(self.samples[lo:hi])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def attempt(wl, unit):
    """One operation: (start, end, outcome) or (start, None, traceback)."""
    t0 = clock()
    try:
        outcome = wl.run(unit)
    except Exception:
        return t0, None, traceback.format_exc(limit=3)
    return t0, clock(), outcome


def check(wl, unit, outcome):
    """`wl.check`, with an exception turned into a failed check."""
    from workloads import Checked

    try:
        return wl.check(unit, outcome)
    except Exception:
        return Checked(problems=[traceback.format_exc(limit=3)])


def aggregate_accuracy(checks) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for c in checks:
        for k, v in c.accuracy.items():
            values.setdefault(k, []).append(v)
    out = {}
    for k, vs in values.items():
        out[k] = max(vs) if k == "jac_rel_err_max" else statistics.fmean(vs)
    return out


def run_untraced(wl, tg, seeds, seconds, import_s):
    from workloads import warm_up

    setup_times, inputs = [], []
    for s in seeds:
        t0 = clock()
        inputs.append(wl.setup(s))
        setup_times.append(clock() - t0)
    t0 = clock()
    warm_up(tg)
    warm_s = clock() - t0
    for inp in inputs:
        wl.prepare(inp)
    units = interleave([wl.units(inp) for inp in inputs])

    spans, times, checks, problems = [], [], [], []
    start = clock()
    i = 0
    with SpeedProbe() as probe:
        # Start another operation only while, at the median length so far,
        # it would end nearer to `seconds` than stopping now.
        while i == 0 or clock() - start + (
                statistics.median(times) / 2 if times else 0.0) < seconds:
            unit = units[i % len(units)]
            t0, t1, outcome = attempt(wl, unit)
            i += 1
            if t1 is None:
                problems.append(outcome)
                continue
            spans.append((t0, t1))
            times.append(t1 - t0)
            checks.append(check(wl, unit, outcome))
            problems.extend(checks[-1].problems)
    failed = sum(1 for c in checks if c.problems) + (i - len(spans))
    probes = [probe.around(t0, t1) for t0, t1 in spans]

    metrics = {
        "setup_s": (import_s + statistics.median(setup_times) + warm_s, "s"),
        "op_probe_p50": (statistics.median(
            t / p for t, p in zip(times, probes)) if times else 0.0, "probe"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "op_s_p50": (statistics.median(times) if times else clock() - start, "s"),
        "failed_frac": (failed / i, "ratio"),
    }
    t = tail(times)
    if t is not None:
        extra["op_s_tail"] = (t[1], "s")
    for k, v in aggregate_accuracy(checks).items():
        extra[k] = (v, "rad" if k.endswith("_rad") else "m" if k.endswith("_m")
                    else "ratio")
    detail = {"import_s": import_s, "setup_times_s": setup_times,
              "warm_up_s": warm_s, "op_times_s": times, "ops": i,
              "op_probe_s": probes, "probe_samples": len(probe.samples),
              "op_s_tail_percentile": t[0] if t else None,
              "problems": problems[:20]}
    return i, failed, metrics, extra, detail


def run_traced(wl, tg, seed, spans_path):
    from instrument import install, layer_metrics
    from tracer import Tracer
    from workloads import warm_up

    tracer = Tracer()
    install(tracer, tg)
    try:
        inp = wl.setup(seed)
    finally:
        tracer.uninstall()
    warm_up(tg)
    wl.prepare(inp)
    units = wl.units(inp)[:wl.traced_ops]

    def run_all(traced: bool):
        results = []
        t0 = clock()
        for i, unit in enumerate(units):
            tracer.op_id = i if traced else -1
            t_op = clock()
            try:
                if traced:
                    with tracer.span("bench.op"):
                        outcome = wl.run(unit)
                else:
                    outcome = wl.run(unit)
                results.append((clock() - t_op, outcome))
            except Exception:
                results.append((None, traceback.format_exc(limit=3)))
        return clock() - t0, results

    base_s, base = run_all(traced=False)
    install(tracer, tg)
    try:
        traced_s, traced = run_all(traced=True)
    finally:
        tracer.uninstall()

    problems, failed = [], 0
    for unit, (tb, ob), (tt, ot) in zip(units, base, traced):
        if tb is None or tt is None:
            failed += 1
            problems.append(ob if tb is None else ot)
            continue
        cb, ct = check(wl, unit, ob), check(wl, unit, ot)
        same = (json.dumps([cb.accuracy, cb.solver], sort_keys=True)
                == json.dumps([ct.accuracy, ct.solver], sort_keys=True))
        if cb.problems or ct.problems or not same:
            failed += 1
            problems.extend(cb.problems + ct.problems)
            if not same:
                problems.append(f"traced run differs: untraced {cb.accuracy} "
                                f"{cb.solver}, traced {ct.accuracy} {ct.solver}")

    metrics = layer_metrics(tracer, len(units))
    metrics["trace.base_op_s"] = (base_s / len(units), "s")
    metrics["trace.overhead_ratio"] = (traced_s / base_s, "ratio")
    tracer.save(spans_path)
    detail = {"ops": len(units), "untraced_s": base_s, "traced_s": traced_s,
              "spans": len(tracer.start), "problems": problems[:20]}
    return 2 * len(units), failed, metrics, {}, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    t0 = clock()
    try:
        tg = load_program(ROOT)
    except (ProgramMissing, ImportError) as err:
        print(f"perfbench: cannot load the program: {err}", file=sys.stderr)
        return 2
    import_s = clock() - t0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, tg, workdir)
    if args.trace:
        seeds = input_seeds(args.seed, 1)
        attempted, failed, metrics, extra, detail = run_traced(
            wl, tg, seeds[0],
            OUT / f"spans-{args.workload}.npz")
    else:
        seeds = input_seeds(args.seed, wl.inputs)
        attempted, failed, metrics, extra, detail = run_untraced(
            wl, tg, seeds, args.seconds, import_s)

    record = {"workload": args.workload, "seed": args.seed,
              "input_seeds": seeds, "held_out_seed": HELD_OUT_SEED,
              "trace": args.trace, "seconds": args.seconds,
              "environment": environment(loadavg),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**metrics, **extra}.items()},
              "detail": detail}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed} (inputs {seeds}), "
          f"trace {args.trace}; held-out seed {HELD_OUT_SEED}")
    print("environment " + json.dumps(record["environment"]))
    for k, (v, u) in {**metrics, **extra}.items():
        print(f"  {k:<36} {v:.6g} {u}")
    if not args.trace:
        print(f"  op_s_p50 from {len(detail['op_times_s'])} operations; "
              + (f"op_s_tail is p{detail['op_s_tail_percentile']:g}"
                 if detail["op_s_tail_percentile"] else
                 "too few operations for op_s_tail"))
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
