"""Command-line front end.

Subcommands: simulate, smooth, metrics, unit-circle.
Exit codes: 0 success, 2 configuration error (including a malformed,
non-finite or out-of-order record file, a non-finite setting, a
negative or, for smooth, zero sigma, and a step, rate or gate that asks
for unbounded work), 3 solver did not converge
(including an initial estimate on a singular chart; `smooth` names the
factor family with the largest whitened cost at the last iterate), 4
underconstrained problem.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from time import perf_counter

import numpy as np

from . import formats, simkit, tracking
from .fgraph import UnderconstrainedGraphError, optimize
from .formats import ConfigError, RunConfig
from .manifold import NearSingularError
from .simkit import TwistSegment
from .tracking import NeedsPriorError, StreamOrderError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_UNDERCONSTRAINED = 4


def _default_segments(cfg: RunConfig) -> None:
    """Fill in a curved rendezvous scenario when the config names none."""
    d = cfg.duration
    if not cfg.optical_windows:
        cfg.optical_windows = [(0.30 * d, 0.40 * d), (0.80 * d, 0.90 * d)]
    if not cfg.gaps:
        cfg.gaps = [(0.19 * d, 0.28 * d), (0.72 * d, 0.80 * d)]
    if not cfg.chaser_segments:
        half = cfg.duration / 2.0
        cfg.chaser_segments = [
            TwistSegment(np.array([0.35, 0.0, 0.0, 0.0, 0.0, 0.012]), half),
            TwistSegment(np.array([0.25, 0.0, 0.02, 0.0, 0.0, -0.010]), half)]
    if not cfg.target_segments:
        third = cfg.duration / 3.0
        cfg.target_segments = [
            TwistSegment(np.array([0.30, 0.0, 0.0, 0.0, 0.0, 0.008]), third),
            TwistSegment(np.array([0.22, 0.0, 0.0, 0.0, 0.0, -0.015]), third),
            TwistSegment(np.array([0.28, 0.0, 0.0, 0.0, 0.0, 0.010]), third)]


def _load(args, **overrides) -> RunConfig:
    if args.config:
        cfg = formats.load_config(args.config, overrides)
    else:
        cfg = formats.parse_config([], overrides=overrides)
    _default_segments(cfg)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load(args, seed=args.seed)
    truth = simkit.generate_ground_truth(cfg)
    records = simkit.synthesize_measurements(truth, cfg)
    formats.write_truth(args.out_truth, truth)
    formats.write_measurements(args.out_meas, records)
    print(f"simulate: {len(truth.times)} truth samples, "
          f"{len(records)} measurements (seed {cfg.seed})")
    return EXIT_OK


def _staged(stages: dict | None, name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), its seconds kept as stages[name + "_s"] when
    `stages` is a dict (a traced run); None times nothing."""
    if stages is None:
        return fn(*args, **kwargs)
    t0 = perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        stages[f"{name}_s"] = perf_counter() - t0


def _finite(value):
    """`value` with each non-finite float (a try's nan or inf cost) made
    None, which strict JSON can hold."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _write_trace(path, report, stages: dict) -> None:
    """The solve's records as JSON lines: one `try` line per damped try
    (`SolveReport.tries`), one `iteration` line per iteration (`phases`),
    one `solve` line and one `stages` line of the seconds of the stages
    timed. `report` is the SolveReport, or the UnderconstrainedGraphError
    the solve raised: then the solve line holds its message as `error` and
    its verdict as `gauge`, and no try or iteration line is written. A
    non-finite number is written as null."""
    if isinstance(report, UnderconstrainedGraphError):
        lines = [{"record": "solve", "error": str(report),
                  "gauge": report.gauge}]
    else:
        solve = {"iterations": report.iterations,
                 "converged": report.converged,
                 "final_cost": report.final_cost, "gauge": report.gauge,
                 "family_costs_start": report.family_costs_start,
                 "family_costs_end": report.family_costs_end,
                 "linearizer_s": report.linearizer_s,
                 "gauge_s": report.gauge_s}
        lines = [*({"record": "try", **t} for t in report.tries),
                 *({"record": "iteration", **p} for p in report.phases),
                 {"record": "solve", **solve}]
    lines.append({"record": "stages", **stages})
    with open(path, "w") as fh:
        fh.writelines(json.dumps(_finite(line), allow_nan=False) + "\n"
                      for line in lines)


def cmd_smooth(args) -> int:
    cfg = _load(args, mode=args.mode, gate=args.gate)
    cfg.check_smoothable()
    stages = {} if args.trace else None
    records = _staged(stages, "read", formats.read_measurements, args.meas)
    keyframes = _staged(stages, "schedule", tracking.schedule_keyframes,
                        records, gate=cfg.gate, policy=cfg)
    tracking.check_odometry_gate(records, cfg.gate)
    graph, initial = _staged(stages, "build", tracking.build_graph,
                             keyframes, cfg, cfg)
    try:
        estimate = _staged(stages, "solve", tracking.smooth, graph, initial,
                           cfg, keyframes)
    except UnderconstrainedGraphError as err:
        if args.trace:
            _write_trace(args.trace, err, stages)
        raise
    _staged(stages, "write", formats.write_estimate, args.out, estimate.rows)
    rpt = estimate.report
    if args.trace:
        _write_trace(args.trace, rpt, stages)
    print(f"smooth: mode {cfg.mode}, {len(keyframes)} keyframes, "
          f"{len(graph.factors)} factors, cost {rpt.final_cost:.6g} "
          f"after {rpt.iterations} iterations")
    if not rpt.converged:
        costs = rpt.family_costs_end
        worst = max(costs, key=costs.get)
        print(f"smooth: solver did not converge; the costliest factor family "
              f"at the last iterate is {worst}, whitened cost "
              f"{costs[worst]:.6g} of {rpt.final_cost:.6g}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_metrics(args) -> int:
    truth = formats.read_truth(args.truth)
    report = tracking.metrics(formats.read_estimate(args.estimate), truth)
    baselines = {}
    if args.meas:
        records = formats.read_measurements(args.meas)
        baselines = tracking.measurement_baselines(records, truth)
    if args.out:
        formats.write_metrics(args.out, report.groups, baselines)
    print(formats.metrics_table(report.groups, baselines))
    return EXIT_OK


def cmd_unit_circle(args) -> int:
    graph, initial, keys, oracle = simkit.unit_circle_fixtures(
        args.variant, sigma=args.sigma, seed=args.seed)
    solution, report = optimize(graph, initial)
    worst = 0.0
    for key in keys:
        worst = max(worst, simkit.arc_distance(solution.get(key).translation))
    print(f"unit-circle {args.variant}: cost {report.cost_trace[0]:.4g} "
          f"-> {report.final_cost:.4g} in {report.iterations} iterations, "
          f"max arc distance {worst:.3g}")
    if not report.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twistgraph",
        description="Constant-twist factor-graph smoothing tools.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="generate ground truth and measurements")
    s.add_argument("--config", help="key=value run configuration file")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out-truth", required=True)
    s.add_argument("--out-meas", required=True)
    s.set_defaults(fn=cmd_simulate)

    s = sub.add_parser("smooth", help="run the factor-graph smoother")
    s.add_argument("--config", help="key=value run configuration file")
    s.add_argument("--meas", required=True, help="measurement stream file")
    s.add_argument("--mode", choices=("A", "B"), default=None)
    s.add_argument("--gate", type=float, default=None)
    s.add_argument("--out", required=True, help="estimate output file")
    s.add_argument("--trace", metavar="FILE.jsonl",
                   help="write the solve's records and stage timings as "
                        "JSON lines, once the solve returns or finds the "
                        "graph underconstrained")
    s.set_defaults(fn=cmd_smooth)

    s = sub.add_parser("metrics", help="score an estimate against ground truth")
    s.add_argument("--estimate", required=True)
    s.add_argument("--truth", required=True)
    s.add_argument("--meas", help="optional stream for raw-measurement baselines")
    s.add_argument("--out", help="optional metrics output file")
    s.set_defaults(fn=cmd_metrics)

    s = sub.add_parser("unit-circle", help="run a unit-circle fixture")
    s.add_argument("--variant", required=True,
                   choices=("EXTRAPOLATE", "INTERPOLATE", "CHAIN"))
    s.add_argument("--sigma", type=float, default=0.1)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_unit_circle)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call. Parsing leaves a
    parser as it was, so each call starts from the same defaults."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, StreamOrderError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnderconstrainedGraphError, NeedsPriorError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNDERCONSTRAINED
    except NearSingularError as err:
        # LM damps away from singular charts, but the initial estimate
        # itself can sit on one
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
