"""The benchmark's workloads: set-up, one operation, and the checks on it.

Every workload drives the program through its public entry points only:
`cli.main`, `fgraph.optimize`, the `factors` constructors and
`simkit.finite_difference_jacobian`.  An untimed run sets up `inputs`
inputs.  `setup(seed)` makes one input from a seed; `prepare(input)` adds the
reference data for checks, untimed; `units(input)` lists what the operations
run on; `run(unit)` is one timed operation; `check(unit, outcome)` verifies
it outside the timed part.  A traced run uses one input and its first
`traced_ops` units.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Criterion 1's tolerance on analytic-vs-finite-difference Jacobians.
JACOBIAN_TOL = 1e-5
SMOOTH_LINE = re.compile(r"smooth: mode (\w), (\d+) keyframes, (\d+) factors, "
                         r"cost (\S+) after (\d+) iterations")


@dataclass
class Checked:
    problems: list[str] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)
    # Solver facts that a traced run must reproduce exactly.
    solver: dict[str, object] = field(default_factory=dict)


def quiet_cli(tg, argv: list[str]) -> tuple[int, str]:
    """`cli.main(argv)` with its output captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tg.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def warm_up(tg) -> None:
    """A tiny solve through the CLI: first-call costs land in set-up."""
    code, text = quiet_cli(tg, ["unit-circle", "--variant", "CHAIN"])
    if code != 0:
        raise RuntimeError(f"warm-up failed: {text}")


def relative_errors(chaser, target, chaser_true, target_true):
    """Per-keyframe chaser-frame position error and relative-rotation angle
    error (nan where the target carries no rotation)."""
    pos, ang = [], []
    for C, T, Ct, Tt in zip(chaser, target, chaser_true, target_true):
        rel_true = Ct.rotation.matrix.T @ (Tt.translation - Ct.translation)
        rel = C.rotation.matrix.T @ (T[0] - C.translation)
        pos.append(np.linalg.norm(rel - rel_true))
        if T[1] is None:
            ang.append(np.nan)
            continue
        R_err = (C.rotation.matrix.T @ T[1]).T @ (
            Ct.rotation.matrix.T @ Tt.rotation.matrix)
        ang.append(np.arccos(np.clip((np.trace(R_err) - 1.0) / 2.0, -1.0, 1.0)))
    return np.asarray(pos), np.asarray(ang)


def accuracy(pos: np.ndarray, ang: np.ndarray) -> dict[str, float]:
    ang = ang[np.isfinite(ang)]
    return {"rel_pos_err_m": float(pos.mean()),
            "rel_ang_err_rad": float(ang.mean()) if ang.size else float("nan")}


# ---------------------------------------------------------------------------


class Rendezvous:
    """`twistgraph smooth --mode A|B` on the CLI's default 320 s scenario."""

    # LM iterations differ between streams (10-19 in Mode A), so a run
    # spreads its operations over several streams.
    inputs = 3
    traced_ops = 1

    def __init__(self, tg, workdir: Path, mode: str):
        self.tg, self.workdir, self.mode = tg, workdir, mode

    def setup(self, seed: int) -> dict:
        truth = self.workdir / f"truth-{seed}.csv"
        meas = self.workdir / f"meas-{seed}.csv"
        code, text = quiet_cli(self.tg, [
            "simulate", "--seed", str(seed),
            "--out-truth", str(truth), "--out-meas", str(meas)])
        if code != 0:
            raise RuntimeError(f"simulate --seed {seed} failed: {text}")
        return {"seed": seed, "truth": truth, "meas": meas}

    def prepare(self, stream: dict) -> None:
        """Reference data for the checks; not part of set-up time."""
        tg = self.tg
        cfg = tg.formats.parse_config([], overrides={"mode": self.mode})
        records = tg.formats.read_measurements(stream["meas"])
        truth = tg.formats.read_truth(stream["truth"])
        policy = tg.tracking.ModePolicy(mode=cfg.mode, down_after=cfg.down_after)
        stream["keyframes"] = len(tg.tracking.schedule_keyframes(
            records, gate=cfg.gate, policy=policy))
        stream["usbl_baseline_m"] = tg.tracking.measurement_baselines(
            records, truth)["USBL"].mean_pos
        stream["truth_data"] = truth

    def units(self, stream: dict) -> list:
        return [stream]

    def run(self, stream: dict):
        out = self.workdir / f"estimate-{self.mode}-{stream['seed']}.csv"
        code, text = quiet_cli(self.tg, [
            "smooth", "--meas", str(stream["meas"]), "--mode", self.mode,
            "--out", str(out)])
        return code, text, out

    def check(self, stream: dict, outcome) -> Checked:
        code, text, out = outcome
        c = Checked()
        if code != 0:
            c.problems.append(f"smooth exited {code}: {text.strip()}")
            return c
        m = SMOOTH_LINE.search(text)
        if m is None:
            c.problems.append(f"no solve summary in output: {text.strip()}")
            return c
        c.solver = {"keyframes": int(m[2]), "factors": int(m[3]),
                    "cost": m[4], "iterations": int(m[5])}
        rows = self.tg.formats.read_estimate(out)
        if len(rows) != stream["keyframes"]:
            c.problems.append(f"{len(rows)} estimate rows for "
                              f"{stream['keyframes']} scheduled keyframes")
            return c
        finite = all(
            np.isfinite(r.chaser.matrix()).all()
            and np.isfinite(r.target_position).all()
            and np.isfinite(r.rel_position).all()
            and (r.target_pose is None or np.isfinite(r.target_pose.matrix()).all())
            for r in rows)
        if not finite:
            c.problems.append("estimate has non-finite entries")
            return c
        truth = stream["truth_data"]
        idx = [truth.index_at(r.timestamp) for r in rows]
        pos, ang = relative_errors(
            [r.chaser for r in rows],
            [(r.target_position,
              None if r.target_pose is None else r.target_pose.rotation.matrix)
             for r in rows],
            [truth.chaser[j] for j in idx], [truth.target[j] for j in idx])
        c.accuracy = accuracy(pos, ang)
        if not c.accuracy["rel_pos_err_m"] < stream["usbl_baseline_m"]:
            c.problems.append(
                f"rel_pos_err_m {c.accuracy['rel_pos_err_m']:.4g} is not below "
                f"the raw USBL baseline {stream['usbl_baseline_m']:.4g}")
        return c


# ---------------------------------------------------------------------------


class TwoChain:
    """Acceptance criterion 9's graph: 1000 chaser and 1000 target keyframes
    with odometry, USBL on every keyframe, an optical fix every 20th, and a
    constant-twist target chain; built and optimized in one operation."""

    # The noise draws change the LM iteration count (4-7), so each
    # operation of a run gets its own draw.
    inputs = 8
    traced_ops = 1
    N = 1000
    DT = 1.0
    XI_C = np.array([0.3, 0, 0, 0, 0, 0.01])
    XI_T = np.array([0.25, 0, 0, 0, 0, 0.02])

    def __init__(self, tg):
        self.tg = tg

    def setup(self, seed: int) -> dict:
        M = self.tg.manifold
        rng = np.random.default_rng(seed)
        C = M.Pose3.identity()
        T = M.Pose3(M.Rotation3.identity(), np.array([8.0, 3.0, -1.0]))
        chaser, target = [], []
        for _ in range(self.N):
            chaser.append(C)
            target.append(T)
            C = M.oplus(M.SE3, C, self.XI_C * self.DT)
            T = M.oplus(M.SE3, T, self.XI_T * self.DT)
        odom = [M.compose(M.inverse(a), b) for a, b in zip(chaser, chaser[1:])]
        usbl = [c.rotation.matrix.T @ (t.translation - c.translation)
                + rng.normal(0.0, 1.5, 3) for c, t in zip(chaser, target)]
        optical = {k: M.compose(M.inverse(chaser[k]), target[k])
                   for k in range(0, self.N, 20)}
        init_c = [M.oplus(M.SE3, c, rng.normal(0.0, 0.01, 6)) for c in chaser]
        init_t = [M.oplus(M.SE3, t, rng.normal(0.0, 0.02, 6)) for t in target]
        return {"seed": seed, "chaser": chaser, "target": target, "odom": odom,
                "usbl": usbl, "optical": optical,
                "init_c": init_c, "init_t": init_t}

    def prepare(self, inp: dict) -> None:
        rel_true = [c.rotation.matrix.T @ (t.translation - c.translation)
                    for c, t in zip(inp["chaser"], inp["target"])]
        inp["usbl_baseline_m"] = float(np.mean(
            [np.linalg.norm(z - r) for z, r in zip(inp["usbl"], rel_true)]))

    def units(self, inp: dict) -> list:
        return [inp]

    def run(self, inp: dict):
        tg = self.tg
        F, G, M = tg.factors, tg.fgraph, tg.manifold
        n, dt = self.N, self.DT
        ck = [G.VariableKey(id=2 * k, kind=M.SE3, timestamp=k * dt)
              for k in range(n)]
        tk = [G.VariableKey(id=2 * k + 1, kind=M.SE3, timestamp=k * dt)
              for k in range(n)]
        graph = G.FactorGraph()
        graph.add(F.prior_factor(ck[0], inp["chaser"][0], np.eye(6) * 1e-8))
        graph.add(F.prior_factor(tk[0], inp["target"][0],
                                 np.diag([1.0] * 3 + [0.25] * 3)))
        odom_cov = np.diag([0.002 ** 2] * 3 + [0.0005 ** 2] * 3)
        usbl_cov = np.eye(3) * 1.5 ** 2
        opt_cov = np.diag([0.05 ** 2] * 3 + [0.01 ** 2] * 3)
        ct_cov = np.diag([0.05 ** 2] * 3 + [0.005 ** 2] * 3)
        for k in range(1, n):
            graph.add(F.relative_pose_factor(ck[k - 1], ck[k], inp["odom"][k - 1],
                                             odom_cov))
        for k in range(n):
            graph.add(F.usbl_factor(ck[k], tk[k], inp["usbl"][k], usbl_cov))
            if k in inp["optical"]:
                graph.add(F.relative_pose_factor(ck[k], tk[k], inp["optical"][k],
                                                 opt_cov))
        for a, b, c in zip(tk, tk[1:], tk[2:]):
            graph.add(F.ct_factor((a, b, c), F.ConstantTwistSpec(dt, dt, ct_cov)))
        values = G.Values()
        for k in range(n):
            values.set(ck[k], inp["init_c"][k])
            values.set(tk[k], inp["init_t"][k])
        solution, report = G.optimize(graph, values, G.SolverSettings())
        return len(graph.factors), [solution.get(k) for k in ck], \
            [solution.get(k) for k in tk], report

    def check(self, inp: dict, outcome) -> Checked:
        n_factors, chaser, target, report = outcome
        c = Checked(solver={"factors": n_factors, "iterations": report.iterations,
                            "cost_trace": list(report.cost_trace)})
        if not report.converged:
            c.problems.append(f"solve did not converge after "
                              f"{report.iterations} iterations")
        if len(chaser) != self.N or not all(
                np.isfinite(p.matrix()).all() for p in chaser + target):
            c.problems.append("estimate is missing keyframes or not finite")
            return c
        pos, ang = relative_errors(
            chaser, [(t.translation, t.rotation.matrix) for t in target],
            inp["chaser"], inp["target"])
        c.accuracy = accuracy(pos, ang)
        if not c.accuracy["rel_pos_err_m"] < inp["usbl_baseline_m"]:
            c.problems.append(
                f"rel_pos_err_m {c.accuracy['rel_pos_err_m']:.4g} is not below "
                f"the raw USBL baseline {inp['usbl_baseline_m']:.4g}")
        return c


# ---------------------------------------------------------------------------


class JacobianCert:
    """Criterion 1's certification of one random triple, with every factor
    family each time: analytic `jacobian_fn` against central differences of
    `residual_fn` through `simkit.finite_difference_jacobian`."""

    inputs = 3
    traced_ops = 100
    TRIPLES = 600

    def __init__(self, tg):
        self.tg = tg
        M, G = tg.manifold, tg.fgraph

        def key(i, kind, t=None):
            return G.VariableKey(id=i, kind=kind,
                                 timestamp=float(i if t is None else t))

        self.se3 = (key(0, M.SE3), key(1, M.SE3), key(2, M.SE3))
        self.r3 = (key(3, M.R3, 0), key(4, M.R3, 1), key(5, M.R3, 2))
        self.chaser = key(10, M.SE3)
        self.point = key(11, M.R3, 10)
        self.target = key(12, M.SE3, 10)

    def setup(self, seed: int) -> dict:
        M = self.tg.manifold
        rng = np.random.default_rng(seed)
        triples = []
        for _ in range(self.TRIPLES):
            dt1 = rng.uniform(0.3, 2.0)
            dt2 = dt1 * rng.uniform(0.2, 5.0)
            # Base pose anywhere with |theta| <= pi - 0.1; increments kept well
            # inside the logarithm's injectivity radius so residuals are smooth.
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            T0 = M.Pose3(M.exp_so3(axis * rng.uniform(0.0, np.pi - 0.1)),
                         rng.normal(0.0, 3.0, 3))
            T1 = M.oplus(M.SE3, T0, rng.normal(0.0, 0.3, 6))
            T2 = M.oplus(M.SE3, T1, rng.normal(0.0, 0.3, 6))
            pitch = -np.arcsin(np.clip(T0.rotation.matrix[2, 0], -1.0, 1.0))
            triples.append({
                "dt": (dt1, dt2), "poses": (T0, T1, T2),
                "points": tuple(M.EuclidPoint(p) for p in rng.normal(0.0, 5.0, (3, 3))),
                "relpose": M.exp_se3(rng.normal(0.0, 0.3, 6)),
                "usbl": rng.normal(0.0, 3.0, 3),
                # Roll-pitch only away from its gimbal guard, as in criterion 1.
                "rollpitch": abs(pitch) < np.pi / 2 - 0.05,
            })
        return {"seed": seed, "triples": triples}

    def prepare(self, inp: dict) -> None:
        pass

    def units(self, inp: dict) -> list:
        return inp["triples"]

    def run(self, tr: dict) -> float:
        tg = self.tg
        F, G = tg.factors, tg.fgraph
        (T0, T1, T2), (p0, p1, p2) = tr["poses"], tr["points"]
        values = G.Values()
        for k, v in zip(self.se3 + self.r3, (T0, T1, T2, p0, p1, p2)):
            values.set(k, v)
        values.set(self.chaser, T0)
        values.set(self.point, p0)
        values.set(self.target, T2)
        eye6, eye3 = np.eye(6), np.eye(3)
        factors = [
            F.ct_factor(self.se3, F.ConstantTwistSpec(*tr["dt"], eye6)),
            F.ct_factor(self.r3, F.ConstantTwistSpec(*tr["dt"], eye3)),
            F.prior_factor(self.se3[0], T1, eye6),
            F.relative_pose_factor(self.se3[0], self.se3[1], tr["relpose"], eye6),
            F.relative_pose_factor(self.chaser, self.target, tr["relpose"], eye6),
            F.usbl_factor(self.chaser, self.point, tr["usbl"], eye3),
        ]
        factors += F.boundary_factors(self.chaser, self.point, "DOWN", eye3)
        if tr["rollpitch"]:
            factors.append(F.roll_pitch_factor(self.se3[0]))
        worst = 0.0
        for f in factors:
            for key, J in zip(f.keys, f.jacobian_fn(values)):
                J_fd = tg.simkit.finite_difference_jacobian(f.residual_fn, values,
                                                            key)
                worst = max(worst, np.abs(J - J_fd).max()
                            / max(1.0, np.abs(J_fd).max()))
        return worst

    def check(self, tr: dict, worst: float) -> Checked:
        c = Checked(accuracy={"jac_rel_err_max": worst}, solver={"worst": worst})
        if not worst <= JACOBIAN_TOL:
            c.problems.append(f"Jacobian relative error {worst:.3g} > "
                              f"{JACOBIAN_TOL:g}")
        return c


def make(name: str, tg, workdir: Path):
    if name == "rendezvous-A":
        return Rendezvous(tg, workdir, "A")
    if name == "rendezvous-B":
        return Rendezvous(tg, workdir, "B")
    if name == "twochain-1000":
        return TwoChain(tg)
    if name == "jacobian-cert":
        return JacobianCert(tg)
    raise ValueError(f"unknown workload {name!r}")

