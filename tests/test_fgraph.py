"""Solver-layer checks against dense linear-algebra oracles."""

import copy
import dataclasses
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from operator import attrgetter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from twistgraph import factors, fgraph
from twistgraph import manifold as M
from twistgraph.fgraph import (
    Factor,
    FactorGraph,
    Linearizer,
    NoiseModel,
    SolverSettings,
    UnderconstrainedGraphError,
    Values,
    VariableKey,
    marginal_covariance,
    optimize,
    total_cost,
    variable_offsets,
)
from twistgraph.factors import (
    ConstantTwistSpec,
    RollPitchSpec,
    boundary_factors,
    ct_factor,
    ct_tables,
    prior_factor,
    relative_pose_factor,
    roll_pitch_factor,
    usbl_factor,
)
from twistgraph.simkit import (
    ScenarioConfig,
    TwistSegment,
    generate_ground_truth,
    synthesize_measurements,
    unit_circle_fixtures,
)
from twistgraph.tracking import (
    ModePolicy,
    TrackingConfig,
    build_graph,
    schedule_keyframes,
)

from conftest import assert_identical, random_pose


def linearize(graph, values):
    """(J, r, column offsets) of one stand-alone linearization."""
    lin = Linearizer(graph)
    J, r = lin(values)
    return J, r, lin.offsets


def r3_key(i, t=None):
    return VariableKey(id=i, kind=M.R3, timestamp=float(i if t is None else t))


def linear_factor(keys, A_blocks, b, cov):
    """Residual sum_i A_i x_i - b on R^n variables."""

    def residual(values):
        r = -np.asarray(b, dtype=float)
        for key, A in zip(keys, A_blocks):
            r = r + A @ values.get(key).coords
        return r

    def jacobian(values):
        return tuple(A_blocks)

    return Factor(keys=tuple(keys), residual_fn=residual,
                  jacobian_fn=jacobian, noise=NoiseModel(cov))


class TestVariableKey:
    def test_equality_and_hash(self):
        key = VariableKey(7, M.SE3, 2.5)
        same = VariableKey(7, M.SE3, 2.5)
        assert key == same and hash(key) == hash(same)
        assert {key: 1}[same] == 1
        # equal kinds built apart give equal keys
        assert VariableKey(7, M.rn(3), 2.5) == VariableKey(7, M.R3, 2.5)
        # keys differing only in kind, even of one dim, are distinct
        assert VariableKey(7, M.SO3, 2.5) != VariableKey(7, M.R3, 2.5)
        assert VariableKey(7, M.SE3, 2.5) != VariableKey(7, M.R3, 2.5)
        assert len({VariableKey(7, M.SO3, 2.5),
                    VariableKey(7, M.R3, 2.5)}) == 2

    def test_copies_keep_equality_and_hash(self):
        key = VariableKey(7, M.SE3, 2.5)
        for twin in (copy.copy(key), copy.deepcopy(key),
                     pickle.loads(pickle.dumps(key))):
            assert twin == key and hash(twin) == hash(key)
            assert {twin: 1}[key] == 1

    def test_unpickled_key_hashes_in_its_process(self):
        """A kind's hash hashes its tag string, which varies with the
        process's hash seed; an unpickled key still finds an equal one."""
        data = pickle.dumps(VariableKey(7, M.SE3, 2.5))
        code = ("import pickle, sys\n"
                "from twistgraph import manifold as M\n"
                "from twistgraph.fgraph import VariableKey\n"
                "key = pickle.loads(sys.stdin.buffer.read())\n"
                "assert {VariableKey(7, M.SE3, 2.5): 1}.get(key) == 1\n")
        src = os.path.dirname(os.path.dirname(fgraph.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        for seed in ("1", "2"):
            subprocess.run([sys.executable, "-c", code], input=data,
                           check=True, env={**os.environ, "PYTHONPATH": path,
                                            "PYTHONHASHSEED": seed})

    def test_frozen_eq_hash_repr_and_pickle(self):
        key = VariableKey(7, M.SE3, 2.5)
        assert repr(key) == ("VariableKey(id=7, kind=ManifoldKind(tag='SE3', "
                             "dim=6), timestamp=2.5)")
        assert key == VariableKey(id=7, kind=M.SE3, timestamp=2.5)
        assert key != VariableKey(7, M.SE3, 3.0) and key != (7, M.SE3, 2.5)
        assert hash(key) == hash(VariableKey(7, M.SE3, 2.5))
        assert VariableKey(7, M.R3) == VariableKey(7, M.R3, 0.0)
        assert [f.name for f in dataclasses.fields(key)] == [
            "id", "kind", "timestamp"]
        twin = pickle.loads(pickle.dumps(key))
        assert twin == key and hash(twin) == hash(key)
        assert repr(twin) == repr(key)
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.timestamp = 3.0

    def test_fields_are_frozen(self):
        key = VariableKey(7, M.SE3, 2.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.id = 8
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.kind = M.SO3


class TestNoiseModel:
    def test_whiten_matches_mahalanobis(self, rng):
        A = rng.normal(size=(3, 3))
        cov = A @ A.T + 3.0 * np.eye(3)
        nm = NoiseModel(cov)
        for _ in range(20):
            e = rng.normal(size=3)
            w = nm.whiten(e)
            assert np.isclose(w @ w, e @ np.linalg.solve(cov, e))

    def test_rejects_non_spd(self):
        with pytest.raises(np.linalg.LinAlgError):
            NoiseModel(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            NoiseModel(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_bad_covariances_raise_on_every_call(self):
        # the factor cache must not remember a failure as a success
        for _ in range(3):
            with pytest.raises(np.linalg.LinAlgError):
                NoiseModel(np.diag([2.0, -2.0]))
            with pytest.raises(ValueError, match="symmetric"):
                NoiseModel(np.array([[2.0, 0.5], [0.2, 2.0]]))
            with pytest.raises(ValueError, match="finite"):
                NoiseModel(np.diag([2.0, np.nan]))
            with pytest.raises(ValueError, match="finite"):
                NoiseModel(np.diag([np.inf, 2.0]))

    def test_equal_covariances_share_a_read_only_factor(self, rng):
        A = rng.normal(size=(6, 6))
        cov = A @ A.T + np.eye(6)
        a, b = NoiseModel(cov), NoiseModel(cov.copy())
        assert a.sqrt_info is b.sqrt_info
        assert a.covariance is cov
        assert not a.sqrt_info.flags.writeable
        with pytest.raises(ValueError):
            a.sqrt_info[0, 0] = 1.0
        np.testing.assert_allclose(a.sqrt_info.T @ a.sqrt_info,
                                   np.linalg.inv(cov), rtol=1e-9)
        assert NoiseModel(cov[:3, :3]).sqrt_info.shape == (3, 3)

    def test_changed_caller_array_gives_a_new_factor(self):
        cov = np.eye(3)
        before = NoiseModel(cov)
        cov *= 4.0
        after = NoiseModel(cov)
        np.testing.assert_array_equal(before.sqrt_info, np.eye(3))
        np.testing.assert_array_equal(after.sqrt_info, np.eye(3) / 2.0)


class TestLinearize:
    def _small_problem(self, rng):
        k0, k1 = r3_key(0), r3_key(1)
        graph = FactorGraph()
        graph.add(linear_factor([k0], [np.eye(3)], [1.0, 2.0, 3.0],
                                np.eye(3) * 4.0))
        graph.add(linear_factor([k0, k1], [-np.eye(3), np.eye(3)],
                                [0.5, 0.5, 0.5], np.eye(3) * 0.25))
        values = Values()
        values.set(k0, M.EuclidPoint(rng.normal(size=3)))
        values.set(k1, M.EuclidPoint(rng.normal(size=3)))
        return graph, values, (k0, k1)

    def test_matches_dense_assembly(self, rng):
        graph, values, (k0, k1) = self._small_problem(rng)
        J, r, offsets = linearize(graph, values)
        assert J.shape == (6, 6)
        x0 = values.get(k0).coords
        x1 = values.get(k1).coords
        J_dense = np.zeros((6, 6))
        J_dense[:3, offsets[k0]:offsets[k0] + 3] = np.eye(3) / 2.0
        J_dense[3:, offsets[k0]:offsets[k0] + 3] = -np.eye(3) / 0.5
        J_dense[3:, offsets[k1]:offsets[k1] + 3] = np.eye(3) / 0.5
        np.testing.assert_allclose(J.toarray(), J_dense, atol=1e-12)
        np.testing.assert_allclose(
            r[:3], (x0 - np.array([1.0, 2.0, 3.0])) / 2.0)
        np.testing.assert_allclose(
            r[3:], (x1 - x0 - 0.5) / 0.5)
        assert np.isclose(total_cost(graph, values), r @ r)

    def test_linearizer_reuse_tracks_values(self, rng):
        graph, values, (k0, _) = self._small_problem(rng)
        lin = Linearizer(graph)
        J1, r1 = lin(values)
        moved = values.copy()
        moved.set(k0, M.oplus(k0.kind, values.get(k0),
                              np.array([1.0, -1.0, 0.5])))
        J2, r2 = lin(moved)
        J_ref, r_ref, _ = linearize(graph, moved)
        np.testing.assert_allclose(J2.toarray(), J_ref.toarray())
        np.testing.assert_allclose(r2, r_ref)
        assert not np.allclose(r1, r2)

    def test_empty_graph_gives_empty_jacobian(self):
        J, r = Linearizer(FactorGraph())(Values())
        assert J.shape == (0, 0) and r.shape == (0,)

    def test_offsets_follow_timestamps(self):
        k_late = r3_key(0, t=9.0)
        k_early = r3_key(1, t=1.0)
        graph = FactorGraph()
        graph.add(linear_factor([k_late, k_early],
                                [np.eye(3), -np.eye(3)], np.zeros(3),
                                np.eye(3)))
        offsets, n = variable_offsets(graph)
        assert n == 6
        assert offsets[k_early] == 0 and offsets[k_late] == 3


class TestOptimize:
    def test_linear_problem_matches_lstsq(self, rng):
        keys = [r3_key(i) for i in range(4)]
        graph = FactorGraph()
        rows = []
        rhs = []
        for i, k in enumerate(keys):
            b = rng.normal(size=3)
            graph.add(linear_factor([k], [np.eye(3)], b, np.eye(3)))
            row = np.zeros((3, 12))
            row[:, 3 * i:3 * i + 3] = np.eye(3)
            rows.append(row)
            rhs.append(b)
        for a, bk in zip(keys, keys[1:]):
            d = rng.normal(size=3)
            graph.add(linear_factor([a, bk], [-np.eye(3), np.eye(3)], d,
                                    np.eye(3) * 0.01))
            row = np.zeros((3, 12))
            ia, ib = keys.index(a), keys.index(bk)
            row[:, 3 * ia:3 * ia + 3] = -np.eye(3) / 0.1
            row[:, 3 * ib:3 * ib + 3] = np.eye(3) / 0.1
            rows.append(row)
            rhs.append(d / 0.1)
        A = np.vstack(rows)
        b = np.concatenate([r if r.shape == (3,) else r for r in rhs])
        x_ref, *_ = np.linalg.lstsq(A, b, rcond=None)

        values = Values()
        for k in keys:
            values.set(k, M.EuclidPoint(np.zeros(3)))
        solution, report = optimize(graph, values)
        assert report.converged
        x = np.concatenate([solution.get(k).coords for k in keys])
        np.testing.assert_allclose(x, x_ref, atol=1e-8)

    def test_se3_chain_recovers_truth(self, rng):
        keys = [VariableKey(i, M.SE3, float(i)) for i in range(4)]
        truth = [random_pose(rng, max_angle=1.0) for _ in keys]
        graph = FactorGraph()
        graph.add(prior_factor(keys[0], truth[0], np.eye(6) * 1e-8))
        from twistgraph.factors import relative_pose_factor
        for a, b, Ta, Tb in zip(keys, keys[1:], truth, truth[1:]):
            z = M.compose(M.inverse(Ta), Tb)
            graph.add(relative_pose_factor(a, b, z, np.eye(6) * 1e-4))
        values = Values()
        for k, T in zip(keys, truth):
            values.set(k, M.oplus(M.SE3, T, rng.normal(0.0, 0.1, 6)))
        solution, report = optimize(graph, values)
        assert report.converged
        for k, T in zip(keys, truth):
            err = M.ominus(M.SE3, solution.get(k), T)
            assert np.max(np.abs(err)) < 1e-6

    def test_cost_trace_monotone(self, rng):
        keys = [VariableKey(i, M.SE3, float(i)) for i in range(3)]
        graph = FactorGraph()
        graph.add(prior_factor(keys[0], M.Pose3.identity(), np.eye(6) * 1e-4))
        graph.add(ct_factor(tuple(keys),
                            ConstantTwistSpec(1.0, 1.0, np.eye(6) * 0.01)))
        graph.add(prior_factor(keys[1], random_pose(rng, 0.5),
                               np.eye(6) * 0.01))
        values = Values()
        for k in keys:
            values.set(k, random_pose(rng, 0.5))
        _, report = optimize(graph, values)
        trace = np.array(report.cost_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert report.final_cost == pytest.approx(trace[-1])

    def test_missing_initials_raise(self):
        k = r3_key(0)
        graph = FactorGraph()
        graph.add(linear_factor([k], [np.eye(3)], np.zeros(3), np.eye(3)))
        with pytest.raises(KeyError):
            optimize(graph, Values())

    @pytest.mark.parametrize("init_lambda", [-1.0, 0.0, np.nan])
    def test_non_positive_damping_rejected(self, rng, init_lambda):
        graph, values, _, _ = linear_chain(rng, static=False, n=3)
        with pytest.raises(ValueError, match="init_lambda"):
            optimize(graph, values, SolverSettings(init_lambda=init_lambda))

    def test_empty_graph_converges_trivially(self):
        values, report = optimize(FactorGraph(), Values())
        assert report.converged and report.iterations == 0

    def test_keyless_graph_converges_at_its_cost(self, monkeypatch):
        """A graph whose factors bind no variable has no column to solve
        for: it converges at its cost, with no gauge check and no solve."""
        def no_solve(*args, **kwargs):
            raise AssertionError("a graph without columns was solved")

        monkeypatch.setattr(fgraph, "solveh_banded", no_solve)
        monkeypatch.setattr(fgraph, "_check_gauge", no_solve)
        graph = FactorGraph()
        graph.add(Factor(keys=(), residual_fn=lambda values: np.array([3.0]),
                         jacobian_fn=lambda values: (),
                         noise=NoiseModel(np.eye(1))))
        values, report = optimize(graph, Values())
        assert report.converged and report.iterations == 0
        assert report.cost_trace == [9.0] and report.final_cost == 9.0
        assert report.family_costs_start == report.family_costs_end \
            == {"custom": 9.0}
        assert not report.tries and len(values) == 0

    def test_gives_up_when_no_damped_try_is_accepted(self):
        """A residual that is finite only at its initial point rejects every
        try up to MAX_LAMBDA: the solve stops after one iteration, with the
        initial value and cost."""
        key = VariableKey(id=0, kind=M.rn(1), timestamp=0.0)

        def residual(values):
            x = values.get(key).coords
            return np.where(x == 1.0, x, np.nan)

        graph = FactorGraph()
        graph.add(Factor(keys=(key,), residual_fn=residual,
                         jacobian_fn=lambda values: (np.eye(1),),
                         noise=NoiseModel(np.eye(1))))
        settings = SolverSettings()
        solution, report = optimize(
            graph, Values({key: M.EuclidPoint([1.0])}), settings)
        lams, lam = [], settings.init_lambda
        while lam <= fgraph.MAX_LAMBDA:
            lams.append(lam)
            lam *= fgraph.LAMBDA_UP
        assert not report.converged and report.iterations == 1
        assert len(report.tries) == len(lams) == 17
        assert [t["lam"] for t in report.tries] == lams
        assert {t["outcome"] for t in report.tries} == {"cost_increase"}
        assert report.cost_trace == [1.0] and report.final_cost == 1.0
        assert solution.get(key).coords.tolist() == [1.0]

    @staticmethod
    def wrong_sign_graph():
        """r = x - 1 with a Jacobian of the wrong sign: every step climbs."""
        key = VariableKey(id=0, kind=M.rn(1), timestamp=0.0)
        graph = FactorGraph()
        graph.add(Factor(keys=(key,),
                         residual_fn=lambda values: values.get(key).coords - 1,
                         jacobian_fn=lambda values: (-np.eye(1),),
                         noise=NoiseModel(np.eye(1))))
        return graph, key

    def test_rising_cost_under_a_step_below_dx_tol_converges(self):
        """A first try whose step is under dx_tol and whose finite cost came
        out higher ends the solve as converged at the current iterate, with
        no further damping: the least-damped step is that small, so it
        moves the cost by rounding alone."""
        graph, key = self.wrong_sign_graph()
        start = Values({key: M.EuclidPoint([1.0 + 1e-12])})
        solution, report = optimize(graph, start)
        (tried,) = report.tries
        assert tried["outcome"] == "cost_increase"
        assert tried["cost"] > report.final_cost
        assert 0.0 < tried["step_inf"] < SolverSettings().dx_tol
        assert report.converged and report.iterations == 1
        assert len(report.cost_trace) == 1
        assert solution.get(key).coords.tolist() == [1.0 + 1e-12]

    def test_a_climbing_step_damped_under_dx_tol_does_not_converge(self):
        """Only the least-damped try's small step means convergence: a step
        that still climbs once damping has shrunk it under dx_tol shows a
        direction that does not descend, so the tries run to MAX_LAMBDA
        and the solve ends unconverged at its start."""
        graph, key = self.wrong_sign_graph()
        settings = SolverSettings()
        solution, report = optimize(
            graph, Values({key: M.EuclidPoint([1.1])}), settings)
        assert not report.converged and report.iterations == 1
        assert len(report.tries) == 17
        assert {t["outcome"] for t in report.tries} == {"cost_increase"}
        assert report.tries[0]["step_inf"] > settings.dx_tol
        assert report.tries[-1]["step_inf"] < settings.dx_tol
        assert report.final_cost == report.cost_trace[0]
        assert solution.get(key).coords.tolist() == [1.1]


class TestTotalCost:
    def test_equals_the_solvers_initial_cost(self):
        """total_cost reads the solver's own whitened residual, so it is
        the first entry of the cost trace to the last bit."""
        graph, initial, *_ = unit_circle_fixtures("CHAIN", sigma=0.3)
        _, report = optimize(graph, initial)
        assert total_cost(graph, initial) == report.cost_trace[0]


class TestAddTables:
    @pytest.mark.parametrize("orders", [[[1, 2]], [[0, 0]], [[0], [0]],
                                        [[0], [2]]])
    def test_rows_not_ranked_from_zero_are_refused(self, orders):
        """Tables added together must rank their rows 0, 1, ...; a graph
        refuses any other order and keeps none of their rows."""
        keys = [r3_key(i) for i in range(4)]
        tables = [table for order in orders for table in ct_tables(
            keys[:len(order)], keys[1:len(order) + 1],
            keys[2:len(order) + 2], lambda kind: np.eye(3), order)]
        graph = FactorGraph()
        with pytest.raises(ValueError, match=r"ranked 0, 1, \.\.\. by"):
            graph.add(tables)
        assert len(graph) == 0 and not graph.variables and not graph.factors


class TestGaugeDetection:
    def test_unanchored_chain_is_underconstrained(self, rng):
        keys = [r3_key(i) for i in range(3)]
        graph = FactorGraph()
        for a, b in zip(keys, keys[1:]):
            graph.add(linear_factor([a, b], [-np.eye(3), np.eye(3)],
                                    rng.normal(size=3), np.eye(3)))
        values = Values()
        for k in keys:
            values.set(k, M.EuclidPoint(rng.normal(size=3)))
        with pytest.raises(UnderconstrainedGraphError) as exc:
            optimize(graph, values)
        assert exc.value.suspect_keys

    def test_anchored_chain_is_fine(self, rng):
        keys = [r3_key(i) for i in range(3)]
        graph = FactorGraph()
        graph.add(linear_factor([keys[0]], [np.eye(3)], np.zeros(3),
                                np.eye(3)))
        for a, b in zip(keys, keys[1:]):
            graph.add(linear_factor([a, b], [-np.eye(3), np.eye(3)],
                                    rng.normal(size=3), np.eye(3)))
        values = Values()
        for k in keys:
            values.set(k, M.EuclidPoint(rng.normal(size=3)))
        _, report = optimize(graph, values)
        assert report.converged


class TestMarginals:
    def test_matches_dense_inverse(self, rng):
        keys = [r3_key(i) for i in range(3)]
        graph = FactorGraph()
        for k in keys:
            graph.add(linear_factor([k], [np.eye(3)], rng.normal(size=3),
                                    np.eye(3) * rng.uniform(0.5, 2.0)))
        for a, b in zip(keys, keys[1:]):
            graph.add(linear_factor([a, b], [-np.eye(3), np.eye(3)],
                                    rng.normal(size=3), np.eye(3) * 0.2))
        values = Values()
        for k in keys:
            values.set(k, M.EuclidPoint(rng.normal(size=3)))
        solution, _ = optimize(graph, values)
        J, _, offsets = linearize(graph, solution)
        info_dense = (J.T @ J).toarray()
        full_cov = np.linalg.inv(info_dense)
        for k in keys:
            c0 = offsets[k]
            ref = full_cov[c0:c0 + 3, c0:c0 + 3]
            np.testing.assert_allclose(
                marginal_covariance(graph, solution, k), ref, atol=1e-9)

    def test_matches_sparse_lu_on_criterion_9(self):
        graph, values = criterion_9_graph()
        solution, report = optimize(graph, values)
        assert report.converged
        J, _, offsets = linearize(graph, solution)
        keys = [VariableKey(2 * k + side, M.SE3, float(k))
                for k, side in ((0, 0), (500, 0), (0, 1), (501, 1), (999, 1))]
        unit = np.zeros((J.shape[1], 6 * len(keys)))
        for i, k in enumerate(keys):
            unit[offsets[k]:offsets[k] + 6, 6 * i:6 * i + 6] = np.eye(6)
        ref_cols = splu((J.T @ J).tocsc()).solve(unit)
        for i, k in enumerate(keys):
            ref = ref_cols[offsets[k]:offsets[k] + 6, 6 * i:6 * i + 6]
            cov = marginal_covariance(graph, solution, k)
            assert np.max(np.abs(cov - ref)) <= 1e-8 * np.max(np.abs(ref))


def coo_entries(graph, offsets, values):
    """Reference: each factor through residual_fn/jacobian_fn in graph order,
    every block entry kept in the solver's COO order (factor by factor, key
    by key, row-major). Returns rows, columns, data and the residual."""
    rows, cols = [np.empty(0, int)], [np.empty(0, int)]
    data, res = [np.empty(0)], [np.empty(0)]
    row0 = 0
    for f in graph.factors:
        W = f.noise.sqrt_info
        res.append(W @ f.residual_fn(values))
        for key, J in zip(f.keys, f.jacobian_fn(values)):
            r, c = np.meshgrid(np.arange(row0, row0 + f.dim),
                               np.arange(offsets[key],
                                         offsets[key] + key.kind.dim),
                               indexing="ij")
            rows.append(r.ravel())
            cols.append(c.ravel())
            data.append((W @ J).ravel())
        row0 += f.dim
    return (np.concatenate(rows), np.concatenate(cols), np.concatenate(data),
            np.concatenate(res))


def per_factor_linearization(graph, offsets, values):
    """Reference: `coo_entries` assembled the way the solver lays them out."""
    rows, cols, data, res = coo_entries(graph, offsets, values)
    n_cols = sum(k.kind.dim for k in offsets)
    J = sp.coo_matrix((data, (rows, cols)), shape=(len(res), n_cols)).tocsr()
    return J, res


def assert_same_linearization(J, r, J_ref, r_ref, tol=1e-12):
    J = J.copy()
    J.sum_duplicates()  # J lists each factor's columns in key order
    np.testing.assert_array_equal(J.indptr, J_ref.indptr)
    np.testing.assert_array_equal(J.indices, J_ref.indices)
    assert np.max(np.abs(J.data - J_ref.data)) <= tol * np.max(np.abs(J_ref.data))
    assert np.max(np.abs(r - r_ref)) <= tol * max(1.0, np.max(np.abs(r_ref)))


def mixed_graph(rng):
    """Every built-in factor family, an SO(3) ct factor, a custom linear
    factor and a custom factor binding one key twice, interleaved in a
    shuffled order."""
    chaser = [VariableKey(i, M.SE3, float(i)) for i in range(4)]
    target = [VariableKey(10 + i, M.SE3, float(i)) for i in range(4)]
    point = [r3_key(20 + i, t=float(i)) for i in range(4)]
    so3 = [VariableKey(30 + i, M.SO3, float(i)) for i in range(3)]
    cov6 = np.diag([0.05 ** 2] * 3 + [0.01 ** 2] * 3)
    factors = [
        prior_factor(chaser[0], random_pose(rng, 1.0), np.eye(6) * 1e-4),
        prior_factor(point[0], M.EuclidPoint(rng.normal(size=3)), np.eye(3)),
        relative_pose_factor(chaser[0], target[0], random_pose(rng, 1.0), cov6),
        roll_pitch_factor(target[1], RollPitchSpec()),
        ct_factor(tuple(so3), ConstantTwistSpec(0.5, 1.5, np.eye(3) * 0.01)),
        linear_factor([point[1], point[2]], [rng.normal(size=(3, 3)),
                                             np.eye(3)],
                      rng.normal(size=3), np.eye(3) * 0.5),
        linear_factor([point[2], point[2]], [rng.normal(size=(3, 3)),
                                             np.eye(3)],
                      rng.normal(size=3), np.eye(3) * 2.0),
    ]
    factors += boundary_factors(target[3], point[3], "DOWN", np.eye(3) * 1e-4)
    for a, b in zip(chaser, chaser[1:]):
        factors.append(relative_pose_factor(a, b, random_pose(rng, 0.5),
                                            np.eye(6) * 1e-3))
    for c, t, p in zip(chaser, target, point):
        factors.append(usbl_factor(c, t, rng.normal(size=3), np.eye(3) * 2.0))
        factors.append(usbl_factor(c, p, rng.normal(size=3), np.eye(3) * 2.0))
    for trio, dt2 in ((target[:3], 0.5), (target[1:], 2.0)):
        factors.append(ct_factor(tuple(trio), ConstantTwistSpec(
            1.0, dt2, np.diag([0.05 ** 2] * 3 + [0.005 ** 2] * 3))))
    factors.append(ct_factor(tuple(point[:3]),
                             ConstantTwistSpec(1.0, 3.0, np.eye(3) * 0.01)))
    order = rng.permutation(len(factors))
    graph = FactorGraph()
    for i in order:
        graph.add(factors[i])

    values = Values()
    for k in chaser + target:
        values.set(k, random_pose(rng, 2.0))
    for k in point:
        values.set(k, M.EuclidPoint(rng.normal(0.0, 3.0, 3)))
    for k in so3:
        values.set(k, M.exp_so3(rng.normal(0.0, 0.5, 3)))
    return graph, values


def near_singular_graph(rng):
    """A graph whose second factor (ct[0,1,2]) is the first to fail on a
    rotation of pi. The relative-pose batch comes first and fails on its
    second factor, but the ct factor before that one in the graph fails
    too."""
    a, b, c, d = (VariableKey(i, M.SE3, 2.0 * i) for i in range(4))
    T = random_pose(rng, 1.0)
    flipped = M.compose(T, M.exp_se3(np.array([0, 0, 0, 0, 0, np.pi])))
    graph = FactorGraph()
    graph.add(relative_pose_factor(c, d, M.Pose3.identity(), np.eye(6)))
    graph.add(ct_factor((a, b, c), ConstantTwistSpec(
        1.0, 1.0, np.eye(6) * 0.01)))
    graph.add(relative_pose_factor(a, b, M.Pose3.identity(), np.eye(6)))
    return graph, Values({a: T, b: flipped, c: T, d: T})


class TestBatchedLinearizer:
    def test_matches_per_factor_reference(self, rng):
        for _ in range(5):
            graph, values = mixed_graph(rng)
            lin = Linearizer(graph)
            assert any(f.family is None for f in graph.factors)
            for step in range(2):
                J, r = lin(values)
                J_ref, r_ref = per_factor_linearization(graph, lin.offsets,
                                                        values)
                assert_same_linearization(J, r, J_ref, r_ref)
                values = Values({k: M.oplus(k.kind, values.get(k),
                                            rng.normal(0.0, 0.1, k.kind.dim))
                                 for k in values.keys()})

    def test_near_singular_names_first_offending_factor(self, rng):
        graph, values = near_singular_graph(rng)
        with pytest.raises(M.NearSingularError) as exc:
            Linearizer(graph)(values)
        message = str(exc.value)
        assert message.startswith(
            "linearization failed in ct[0,1,2] (variables id=0@t=0, "
            "id=1@t=2, id=2@t=4): ")
        with pytest.raises(M.NearSingularError) as ref:
            graph.factors[1].residual_fn(values)
        assert message.endswith(str(ref.value))

    def test_loose_factor_error_also_keeps_graph_order(self, rng):
        keys = tuple(VariableKey(i, M.SO3, float(i)) for i in range(2))
        p = VariableKey(5, M.SE3, 9.0)
        graph = FactorGraph()
        # a custom factor, which has no family
        graph.add(Factor(keys=keys, residual_fn=lambda values: M.ominus(
                             M.SO3, values.get(keys[1]), values.get(keys[0])),
                         jacobian_fn=lambda values: (-np.eye(3), np.eye(3)),
                         noise=NoiseModel(np.eye(3) * 0.01),
                         name="custom[0,1]"))
        graph.add(prior_factor(p, M.Pose3.identity(), np.eye(6)))
        flip = M.exp_so3(np.array([0.0, 0.0, np.pi]))
        values = Values({keys[0]: M.Rotation3.identity(), keys[1]: flip,
                         p: M.Pose3(flip, np.zeros(3))})
        assert graph.factors[0].family is None
        with pytest.raises(M.NearSingularError,
                           match=r"in custom\[0,1\] \(variables id=0@t=0"):
            Linearizer(graph)(values)


def strided_graph(rng, n=8):
    """Interleaved SE(3) chaser and target chains with R^3 points: every
    other row of the SE(3) stack in the chains' slots, irregular rows in
    the optical fixes', tables whose rows follow each other in graph order
    (one slice of J's data) and tables whose rows interleave."""
    c = [VariableKey(2 * k, M.SE3, float(k)) for k in range(n)]
    t = [VariableKey(2 * k + 1, M.SE3, float(k)) for k in range(n)]
    p = [r3_key(100 + k, t=float(k)) for k in range(n)]
    cov6 = np.diag([0.05 ** 2] * 3 + [0.01 ** 2] * 3)
    graph = FactorGraph()
    graph.add(prior_factor(c[0], random_pose(rng, 1.0), np.eye(6) * 1e-4))
    for a, b in zip(c, c[1:]):
        graph.add(relative_pose_factor(a, b, random_pose(rng, 0.5), cov6))
    for k in range(n):
        graph.add(usbl_factor(c[k], t[k], rng.normal(size=3), np.eye(3) * 2.0))
        graph.add(usbl_factor(c[k], p[k], rng.normal(size=3), np.eye(3) * 2.0))
        if k in (0, 1, 3, 6):
            graph.add(relative_pose_factor(c[k], t[k], random_pose(rng, 1.0),
                                           cov6))
    for trio in zip(t, t[1:], t[2:]):
        graph.add(ct_factor(trio, ConstantTwistSpec(1.0, 1.0, cov6)))
    for trio in zip(p, p[1:], p[2:]):
        graph.add(ct_factor(trio, ConstantTwistSpec(1.0, 2.0,
                                                    np.eye(3) * 0.01)))
    graph.extend(boundary_factors(t[-1], p[-1], "DOWN", np.eye(3) * 1e-4))
    values = Values({k: random_pose(rng, 2.0) for k in c + t})
    for k in p:
        values.set(k, M.EuclidPoint(rng.normal(0.0, 3.0, 3)))
    return graph, values


def per_view_linearization(graph, values):
    """Reference: J's data and r from each factor's view, through its
    closures and noise model, laid out factor by factor in graph order."""
    data, res = [np.empty(0)], [np.empty(0)]
    for f in graph.factors:
        W = f.noise.sqrt_info
        res.append(W @ f.residual_fn(values))
        data.append(np.concatenate([W @ J for J in f.jacobian_fn(values)],
                                   axis=1).ravel())
    return np.concatenate(data), np.concatenate(res)


class TestResidualFirst:
    def test_in_place_linearization_equals_per_view_reference(self, rng):
        """Slice and scattered cells, strided and irregular slot rows: J
        and r equal the per-view reference bit for bit, from Values and
        from stacks, the residual pass alone gives the same r, and its
        normal pass the band of that J."""
        graphs = [strided_graph(rng)] + [mixed_graph(rng) for _ in range(3)]
        lin = Linearizer(graphs[0][0])
        cells = {isinstance(c, slice) for c in lin._csr_layout()[2]}
        steps = [np.unique(np.diff(rows)) for b in lin._batches
                 for _, rows in b.slots]
        assert cells == {True, False}
        assert any(len(d) == 1 and d[0] > 1 for d in steps)
        assert any(len(d) > 1 for d in steps)
        for graph, values in graphs:
            lin = Linearizer(graph)
            data, res = per_view_linearization(graph, values)
            for at in (values, lin.layout.stack(values)):
                J, r = lin(at)
                assert_identical(J.data, data)
                assert_identical(r, res)
                r_only, normal = lin.residual(at)
                assert_identical(r_only, res)
                assert_identical(normal()[1],
                                 ReferenceLinearizer(graph).normal_band(J))

    def test_closures_run_residual_first(self, rng):
        """Over one solve, each custom factor's residual_fn runs once per
        evaluated try and once at the start, and its jacobian_fn once per
        iteration: neither a rejected try nor the returned iterate builds
        a Jacobian."""
        graph, values = anchored_mixed_graph(np.random.default_rng(0))
        calls = {"residual": 0, "jacobian": 0}

        def counted(fn, name):
            def call(values):
                calls[name] += 1
                return fn(values)
            return call

        custom = [f for f in graph.factors if f.family is None]
        for f in custom:
            f.residual_fn = counted(f.residual_fn, "residual")
            f.jacobian_fn = counted(f.jacobian_fn, "jacobian")
        _, report = optimize(graph, values)
        evaluated = [t for t in report.tries if t["step_inf"] is not None]
        assert report.converged and len(evaluated) > report.iterations
        assert calls == {"residual": len(custom) * (len(evaluated) + 1),
                         "jacobian": len(custom) * report.iterations}


    def test_combined_closure_runs_once_per_linearization(self, rng):
        """A custom factor with a combined_fn is evaluated by it alone, once
        in the residual pass; the Jacobian reads the blocks it gave."""
        keys = [r3_key(i) for i in range(3)]
        plain = linear_factor(keys[:2], [rng.normal(size=(3, 3)), np.eye(3)],
                              rng.normal(size=3), np.eye(3) * 0.5)
        calls = []

        def combined(values):
            calls.append(None)
            return plain.residual_fn(values), plain.jacobian_fn(values)

        def unused(values):
            raise AssertionError("combined_fn evaluates this factor")

        fused = Factor(keys=plain.keys, residual_fn=unused,
                       jacobian_fn=unused, noise=plain.noise,
                       combined_fn=combined)
        values = Values({k: M.EuclidPoint(rng.normal(size=3)) for k in keys})
        prior = prior_factor(keys[2], M.EuclidPoint(np.zeros(3)), np.eye(3))

        def linearize(f):
            graph = FactorGraph()
            graph.extend([f, prior])
            return Linearizer(graph)(values)

        J_ref, r_ref = linearize(plain)
        J, r = linearize(fused)
        assert len(calls) == 1
        assert_identical(J.data, J_ref.data)
        assert_identical(r, r_ref)


def so3_custom(a, b, name):
    """A custom factor a^-1 b on SO(3), singular where that is near pi."""
    return Factor(keys=(a, b), residual_fn=lambda values: M.ominus(
                      M.SO3, values.get(b), values.get(a)),
                  jacobian_fn=lambda values: (-np.eye(3), np.eye(3)),
                  noise=NoiseModel(np.eye(3) * 0.01), name=name)


class TestCustomFactorRows:
    def test_custom_factors_of_one_shape_share_a_table(self, rng):
        """Custom factors with the same key kinds and dim, interleaved with
        built-ins, are the rows of one table and read back as added."""
        keys = [r3_key(i) for i in range(5)]
        graph, custom = FactorGraph(), {}
        for i, (a, b) in enumerate(zip(keys, keys[1:])):
            graph.add(prior_factor(a, M.EuclidPoint(rng.normal(size=3)),
                                   np.eye(3)))
            custom[len(graph)] = linear_factor(
                [a, b], [rng.normal(size=(3, 3)), np.eye(3)],
                rng.normal(size=3), np.eye(3) * (i + 1.0))
            graph.add(custom[len(graph)])
        custom[len(graph)] = linear_factor([keys[4]], [np.eye(3)],
                                           rng.normal(size=3), np.eye(3))
        graph.add(custom[len(graph)])
        closures = sorted((t for t in graph.tables()
                           if t.family is fgraph._CLOSURES), key=len)
        assert [t.order.tolist() for t in closures] == [[8], [1, 3, 5, 7]]
        for i, f in custom.items():
            assert graph.factors[i] is f
        values = Values({k: M.EuclidPoint(rng.normal(size=3)) for k in keys})
        lin = Linearizer(graph)
        J, r = lin(values)
        J_ref, r_ref = per_factor_linearization(graph, lin.offsets, values)
        assert_same_linearization(J, r, J_ref, r_ref)

    def test_failing_row_of_a_custom_table_is_named(self):
        """Of three custom factors in one table only the second fails; the
        error names it, from Values and from stacks alike."""
        keys = [VariableKey(i, M.SO3, float(i)) for i in range(4)]
        graph = FactorGraph()
        for i, (a, b) in enumerate(zip(keys, keys[1:])):
            graph.add(so3_custom(a, b, f"custom[{i}]"))
        assert len(graph.tables()) == 1
        flip = M.exp_so3(np.array([0.0, 0.0, np.pi]))
        values = Values({keys[0]: M.Rotation3.identity(),
                         keys[1]: M.Rotation3.identity(),
                         keys[2]: flip, keys[3]: flip})
        lin = Linearizer(graph)
        for at in (values, lin.layout.stack(values)):
            with pytest.raises(M.NearSingularError, match=re.escape(
                    "in custom[1] (variables id=1@t=1, id=2@t=2): ")):
                lin(at)

    @pytest.mark.parametrize("residual, blocks", [
        (np.zeros(3), (np.eye(3),)),
        (np.zeros(3), (np.eye(3),) * 3),
        (np.zeros(3), (np.eye(3), np.eye(3, 2))),
        (np.zeros(2), (np.eye(3), np.eye(3))),
    ], ids=["too-few-blocks", "too-many-blocks", "block-width",
            "residual-length"])
    def test_malformed_custom_factor_names_itself(self, residual, blocks):
        keys = (r3_key(0), r3_key(1))
        f = Factor(keys=keys, residual_fn=lambda values: residual,
                   jacobian_fn=lambda values: blocks,
                   noise=NoiseModel(np.eye(3)), name="bad[0,1]")
        graph = FactorGraph()
        graph.add(f)
        values = Values({k: M.EuclidPoint(np.zeros(3)) for k in keys})
        with pytest.raises(ValueError, match=re.escape(fgraph._describe(f))):
            optimize(graph, values)


def criterion_9_graph():
    """Acceptance criterion 9's two-chain graph, seed 7."""
    rng = np.random.default_rng(7)
    n, dt = 1000, 1.0
    xi_c = np.array([0.3, 0, 0, 0, 0, 0.01])
    xi_t = np.array([0.25, 0, 0, 0, 0, 0.02])
    C = M.Pose3.identity()
    T = M.Pose3(M.Rotation3.identity(), np.array([8.0, 3.0, -1.0]))
    chaser, target = [], []
    for _ in range(n):
        chaser.append(C)
        target.append(T)
        C = M.oplus(M.SE3, C, xi_c * dt)
        T = M.oplus(M.SE3, T, xi_t * dt)
    ck = [VariableKey(2 * k, M.SE3, k * dt) for k in range(n)]
    tk = [VariableKey(2 * k + 1, M.SE3, k * dt) for k in range(n)]
    graph = FactorGraph()
    graph.add(prior_factor(ck[0], chaser[0], np.eye(6) * 1e-8))
    graph.add(prior_factor(tk[0], target[0], np.diag([1.0] * 3 + [0.25] * 3)))
    odom_cov = np.diag([0.002 ** 2] * 3 + [0.0005 ** 2] * 3)
    opt_cov = np.diag([0.05 ** 2] * 3 + [0.01 ** 2] * 3)
    ct_cov = np.diag([0.05 ** 2] * 3 + [0.005 ** 2] * 3)
    for k in range(1, n):
        graph.add(relative_pose_factor(
            ck[k - 1], ck[k], M.compose(M.inverse(chaser[k - 1]), chaser[k]),
            odom_cov))
    for k in range(n):
        z = (chaser[k].rotation.matrix.T
             @ (target[k].translation - chaser[k].translation)
             + rng.normal(0.0, 1.5, 3))
        graph.add(usbl_factor(ck[k], tk[k], z, np.eye(3) * 1.5 ** 2))
        if k % 20 == 0:
            graph.add(relative_pose_factor(
                ck[k], tk[k], M.compose(M.inverse(chaser[k]), target[k]),
                opt_cov))
    for a, b, c in zip(tk, tk[1:], tk[2:]):
        graph.add(ct_factor((a, b, c), ConstantTwistSpec(dt, dt, ct_cov)))
    values = Values()
    for k in range(n):
        values.set(ck[k], M.oplus(M.SE3, chaser[k], rng.normal(0.0, 0.01, 6)))
        values.set(tk[k], M.oplus(M.SE3, target[k], rng.normal(0.0, 0.02, 6)))
    return graph, values


def test_criterion_9_solve_matches_per_factor_solver():
    graph, values = criterion_9_graph()
    J, r = Linearizer(graph)(values)
    J_ref, r_ref = per_factor_linearization(graph, variable_offsets(graph)[0],
                                            values)
    assert_same_linearization(J, r, J_ref, r_ref)
    _, report = optimize(graph, values, SolverSettings())
    # iterations and cost trace of the per-factor solver this replaced
    reference = [2754124.950121723, 3174.106473756564, 2869.9129839774023,
                 2869.901336439705, 2869.9013064492615, 2869.901305615146]
    assert report.converged
    assert report.iterations == 5
    np.testing.assert_allclose(report.cost_trace, reference, rtol=1e-9)


def test_criterion_9_rows_share_noise_models(rng):
    """Criterion 9's per-factor graph holds one noise model per distinct
    covariance in each table, and linearizes to the same bits as the same
    tables with one noise model per row. Each batch whitens by one matrix
    per distinct sqrt_info, as the per-row stack of its noise models
    would."""
    graph, values = criterion_9_graph()
    tables = graph.tables()
    assert sorted((t.family.label, len(t.noise)) for t in tables) == [
        ("ct", 1), ("prior", 2), ("relpose", 2), ("usbl", 1)]
    for t in tables:
        covs = [nm.covariance.tobytes() for nm in t.noise]
        assert len(set(covs)) == len(covs)
    per_row = FactorGraph()
    per_row.add([dataclasses.replace(
        t, noise=[NoiseModel(t.noise[w].covariance.copy())
                  for w in t.which.tolist()], which=np.arange(len(t)))
        for t in tables])
    lin, ref = Linearizer(graph), Linearizer(per_row)
    (J, r), (J_ref, r_ref) = lin(values), ref(values)
    (g, band), (g_ref, band_ref) = (x.residual(values)[1]()
                                    for x in (lin, ref))
    for a, b in ((J.data, J_ref.data), (J.indices, J_ref.indices),
                 (J.indptr, J_ref.indptr), (r, r_ref), (band, band_ref),
                 (g, g_ref)):
        assert_identical(a, b)
    for x in (lin, ref):
        for b in x._batches:
            t = b.table
            assert len(b.models) == len({id(nm.sqrt_info) for nm in t.noise})
            blocks = rng.normal(size=(len(t), t.dim, 4))
            per_row = np.array([nm.sqrt_info for nm in t.noise])[t.which]
            assert_identical(b.whiten(blocks), per_row @ blocks)
    assert sorted(len(b.models) for b in ref._batches) == [1, 1, 2, 2]


def test_rows_of_equal_kinds_share_a_table(rng):
    """Keys of equal kinds that are distinct objects put their factors'
    rows in one table."""
    keys = [VariableKey(i, M.rn(3), float(i)) for i in range(4)]
    graph = FactorGraph()
    for k in keys:
        graph.add(prior_factor(k, M.EuclidPoint(rng.normal(size=3)),
                               np.eye(3)))
    graph.add(ct_factor(tuple(keys[:3]), ConstantTwistSpec(1.0, 1.0,
                                                           np.eye(3))))
    assert sorted((t.family.label, len(t)) for t in graph.tables()) == [
        ("ct", 1), ("prior", 4)]


def test_a_changed_view_joins_the_table_of_its_family_and_keys(rng):
    """A per-factor view keeps the table it was made for only while it
    holds the same keys and family."""
    keys = [VariableKey(i, M.SE3, float(i)) for i in range(3)]
    moved, custom = (prior_factor(keys[0], random_pose(rng, 1.0), np.eye(6))
                     for _ in range(2))
    moved.keys = (keys[2],)
    custom.residual_fn
    custom.family = None
    graph = FactorGraph()
    graph.add(prior_factor(keys[1], random_pose(rng, 1.0), np.eye(6)))
    graph.add(moved)
    graph.add(custom)
    assert sorted((len(t), t.keys[0][-1].id) for t in graph.tables()) == [
        (1, 0), (2, 2)]
    assert graph.factors[2] is custom
    assert graph.factors[1].keys == (keys[2],)


def random_band_system(rng, n, bandwidth):
    """J^T J of a random J whose rows each span bandwidth + 1
    consecutive columns, so J^T J has exactly that lower bandwidth."""
    rows = np.repeat(np.arange(2 * n), bandwidth + 1)
    first = np.minimum(np.arange(2 * n) // 2, n - 1 - bandwidth)
    cols = (first[:, None] + np.arange(bandwidth + 1)).ravel()
    J = sp.csr_matrix((rng.normal(size=rows.size), (rows, cols)),
                      shape=(2 * n, n))
    return (J.T @ J).tocsc()


def lower_band(JtJ, bandwidth):
    """band[i - j, j] = JtJ[i, j] for the lower band of a sparse JtJ."""
    coo = JtJ.tocoo()
    lower = coo.row >= coo.col
    band = np.zeros((bandwidth + 1, JtJ.shape[0]))
    band[coo.row[lower] - coo.col[lower], coo.col[lower]] = coo.data[lower]
    return band


def linear_chain(rng, static, n=30):
    """R^3 keyframes at t = 1..n: a prior on each, a link between
    neighbours and, when `static`, a link from one static variable at the
    default timestamp 0 to every keyframe. Returns the graph, zero initial
    values, the keys and the dense least-squares optimum."""
    frames = [VariableKey(i, M.R3, float(i)) for i in range(1, n + 1)]
    keys = frames + ([VariableKey(n + 1, M.R3)] if static else [])
    col = {k: 3 * i for i, k in enumerate(keys)}
    graph = FactorGraph()
    rows, rhs = [], []

    def add(ks, blocks, sigma):
        b = rng.normal(size=3)
        graph.add(linear_factor(ks, blocks, b, np.eye(3) * sigma ** 2))
        row = np.zeros((3, 3 * len(keys)))
        for k, A in zip(ks, blocks):
            row[:, col[k]:col[k] + 3] = A / sigma
        rows.append(row)
        rhs.append(b / sigma)

    for k in frames:
        add([k], [np.eye(3)], 2.0)
    for a, b in zip(frames, frames[1:]):
        add([a, b], [-np.eye(3), rng.normal(size=(3, 3)) + 2.0 * np.eye(3)],
            0.1)
    if static:
        for k in frames:
            add([keys[-1], k], [np.eye(3), -np.eye(3)], 0.5)
    x_ref, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs),
                                rcond=None)
    values = Values()
    for k in keys:
        values.set(k, M.EuclidPoint(np.zeros(3)))
    return graph, values, keys, x_ref


class TestDampedSolve:
    @pytest.mark.parametrize("bandwidth", [0, 1, 5, 17])
    def test_band_matches_splu(self, rng, bandwidth):
        for _ in range(5):
            n = int(rng.integers(bandwidth + 2, 80))
            JtJ = random_band_system(rng, n, bandwidth)
            coo = JtJ.tocoo()
            assert np.max(coo.row - coo.col) == bandwidth
            b = rng.normal(size=n)
            band = fgraph._damped_solver(lower_band(JtJ, bandwidth))
            for lam in (1e-9, 1e-4, 1.0, 1e3):
                x = band(lam, b)
                x_ref = splu((JtJ + lam * sp.identity(n, format="csc"))
                             .tocsc()).solve(b)
                assert (np.linalg.norm(x - x_ref)
                        <= 1e-9 * np.linalg.norm(x_ref))

    def test_indefinite_band_raises_linalg_error(self):
        JtJ = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            fgraph._damped_solver(lower_band(JtJ, 1))(0.5, np.ones(2))

    @pytest.mark.parametrize("bandwidth", [0, 1, 2, 29])
    def test_lapack_binding_matches_scipy_linalg(self, rng, bandwidth):
        """fgraph loads scipy's LAPACK module without scipy.linalg; once
        scipy.linalg is imported, its LAPACK functions are the ones fgraph
        calls, and `fgraph.solveh_banded` (dptsv on bandwidth 1, dpbsv
        otherwise) gives scipy's solution bit for bit."""
        import scipy.linalg

        assert scipy.linalg.lapack.dpbtrf is fgraph._flapack.dpbtrf
        assert scipy.linalg.lapack.dpbtrs is fgraph._flapack.dpbtrs
        n = bandwidth + 40
        band = np.asfortranarray(
            lower_band(random_band_system(rng, n, bandwidth), bandwidth))
        for b in (rng.normal(size=n), rng.normal(size=(n, 8))):
            want = scipy.linalg.solveh_banded(band, b, lower=True,
                                              check_finite=False)
            assert_identical(fgraph.solveh_banded(band, b), want)
            ab = band.copy(order="F")
            assert_identical(fgraph.solveh_banded(ab, b, overwrite_ab=True),
                             want)

    def test_scipy_linalg_imported_later_holds_its_lapack_module(self):
        """In a process that imports fgraph first, fgraph's LAPACK module
        is not left in sys.modules, and a later `import scipy.linalg` sets
        `scipy.linalg._flapack`, whose routines are fgraph's."""
        code = (
            "import sys\n"
            "from twistgraph import fgraph\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "assert 'scipy.linalg._flapack' not in sys.modules\n"
            "import numpy as np, scipy.linalg\n"
            "assert scipy.linalg._flapack.dpbsv is fgraph._flapack.dpbsv\n"
            "assert scipy.linalg.lapack.dptsv is fgraph._flapack.dptsv\n"
            "ab = np.array([[4.0, 4.0, 4.0], [1.0, 1.0, 0.0],"
            " [0.5, 0.0, 0.0]])\n"
            "b = np.array([1.0, 2.0, 3.0])\n"
            "want = scipy.linalg.solveh_banded(ab, b, lower=True)\n"
            "assert (fgraph.solveh_banded(ab, b) == want).all()\n"
            "assert (scipy.linalg._flapack.dpbsv(ab, b, lower=1)[1]"
            " == want).all()\n")
        src = os.path.dirname(os.path.dirname(fgraph.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        run = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("band", [[[1.0, 1.0], [2.0, 0.0]],
                                      [[1.0, 1.0, 1.0], [0.5, 2.0, 0.0],
                                       [0.1, 0.0, 0.0]]])
    def test_not_positive_definite_raises_like_scipy(self, band):
        import scipy.linalg

        band = np.array(band)
        b = np.ones(band.shape[1])
        with pytest.raises(np.linalg.LinAlgError,
                           match="leading minor not positive definite"):
            scipy.linalg.solveh_banded(band, b, lower=True)
        with pytest.raises(np.linalg.LinAlgError,
                           match="leading minor not positive definite"):
            fgraph.solveh_banded(band, b)

    def test_pattern_bandwidth(self, rng):
        graphs = [mixed_graph(rng) for _ in range(3)]
        graphs += [linear_chain(rng, static)[:2] for static in (False, True)]
        for graph, values in graphs:
            lin = Linearizer(graph)
            J, _ = lin(values)
            P = J.copy()
            P.data[:] = 1.0  # structural pattern; products of ones never cancel
            pattern = (P.T @ P).tocoo()
            assert lin.bandwidth == np.max(pattern.row - pattern.col)
        # the static variable is coupled to every keyframe: a dense band
        assert lin.bandwidth == lin.total_cols - 1 == 92

    def test_non_positive_definite_try_is_damped(self, rng, monkeypatch):
        diagonals = []
        solveh_banded = fgraph.solveh_banded

        def first_try_fails(ab, b, **kwargs):
            diagonals.append(ab[0].copy())
            if len(diagonals) == 1:
                raise np.linalg.LinAlgError("not positive definite")
            return solveh_banded(ab, b, **kwargs)

        monkeypatch.setattr(fgraph, "solveh_banded", first_try_fails)
        graph, values, keys, x_ref = linear_chain(rng, static=False)
        settings = SolverSettings()
        solution, report = optimize(graph, values, settings)
        assert report.converged
        np.testing.assert_allclose(diagonals[1] - diagonals[0],
                                   (fgraph.LAMBDA_UP - 1.0)
                                   * settings.init_lambda, rtol=1e-9)
        x = np.concatenate([solution.get(k).coords for k in keys])
        np.testing.assert_allclose(x, x_ref, atol=1e-8)

    def test_tries_record_every_damped_solve(self, rng):
        graph, values = criterion_9_graph()
        _, report = optimize(graph, values)
        tries = report.tries
        accepted = [t for t in tries if t["outcome"] == "accepted"]
        assert len(accepted) == len(report.cost_trace) - 1
        assert [t["cost"] for t in accepted] == report.cost_trace[1:]
        assert [t["iteration"] for t in tries] == sorted(
            t["iteration"] for t in tries)
        assert {t["iteration"] for t in tries} == set(range(report.iterations))
        for t in tries:
            assert set(t) == {"iteration", "lam", "outcome", "cost",
                              "step_inf", "grad_inf"}
            assert t["outcome"] in ("accepted", "cost_increase")
            assert t["step_inf"] > 0.0 and t["grad_inf"] > 0.0

    def test_records_time_the_phases_and_split_the_cost(self):
        """Criterion 9's solve: one phase record per iteration, every time
        finite, non-negative and within the call's wall time, and family
        costs that sum to the first and the final cost."""
        graph, values = criterion_9_graph()
        t0 = time.perf_counter()
        _, report = optimize(graph, values)
        wall = time.perf_counter() - t0
        assert [p["iteration"] for p in report.phases] == list(
            range(report.iterations))
        times = [report.linearizer_s, report.gauge_s]
        for p in report.phases:
            assert set(p) == {"iteration", "linearize_s", "band_s",
                              "solve_s", "retract_s"}
            times += [p[k] for k in p if k != "iteration"]
        assert all(np.isfinite(s) and s >= 0.0 for s in times)
        assert sum(times) <= wall
        for costs, total in ((report.family_costs_start,
                              report.cost_trace[0]),
                             (report.family_costs_end, report.final_cost)):
            assert set(costs) == {"ct", "prior", "relpose", "usbl"}
            assert all(c >= 0.0 for c in costs.values())
            assert sum(costs.values()) == pytest.approx(total, rel=1e-12)

    def test_family_costs_name_every_family(self, rng):
        """Each built-in family and the custom one by name, each the
        whitened cost of its factors' own residuals."""
        graph, values = mixed_graph(rng)
        lin = Linearizer(graph)
        _, r = lin(values)
        want = {}
        for f in graph.factors:
            name = "custom" if f.family is None else f.family.name
            e = f.noise.whiten(f.residual_fn(values))
            want[name] = want.get(name, 0.0) + float(e @ e)
        costs = lin.family_costs(r)
        assert set(costs) == {"ct", "prior", "relpose", "usbl", "rollpitch",
                              "boundary", "custom"}
        for name, cost in want.items():
            assert costs[name] == pytest.approx(cost, rel=1e-12)

    def test_failed_factorization_try_is_recorded(self, rng, monkeypatch):
        calls = []
        solveh_banded = fgraph.solveh_banded

        def first_try_fails(ab, b, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("not positive definite")
            return solveh_banded(ab, b, **kwargs)

        monkeypatch.setattr(fgraph, "solveh_banded", first_try_fails)
        graph, values, _, _ = linear_chain(rng, static=False)
        settings = SolverSettings()
        _, report = optimize(graph, values, settings)
        first, second = report.tries[:2]
        assert first == {"iteration": 0, "lam": settings.init_lambda,
                         "outcome": "failed_factorization", "cost": None,
                         "step_inf": None, "grad_inf": first["grad_inf"]}
        assert second["lam"] == settings.init_lambda * fgraph.LAMBDA_UP
        assert second["grad_inf"] == first["grad_inf"]

    def test_singular_chart_try_is_recorded(self, rng, monkeypatch):
        """A candidate whose residual pass raises NearSingularError is
        recorded with its step and no cost, and the next try damps
        harder."""
        calls = []
        residual = Linearizer.residual

        def first_candidate_singular(self, values):
            calls.append(None)
            if len(calls) == 2:  # the initial linearization is the first
                raise M.NearSingularError("injected")
            return residual(self, values)

        monkeypatch.setattr(Linearizer, "residual", first_candidate_singular)
        graph, values, _, _ = linear_chain(rng, static=False)
        settings = SolverSettings()
        _, report = optimize(graph, values, settings)
        assert report.converged
        first, second = report.tries[:2]
        assert first["outcome"] == "singular_chart"
        assert first["cost"] is None and first["step_inf"] > 0.0
        assert second["lam"] == first["lam"] * fgraph.LAMBDA_UP
        assert second["iteration"] == 0 and second["outcome"] == "accepted"

    def test_singular_jacobian_of_an_accepted_try_is_recorded(
            self, rng, monkeypatch):
        """An accepted candidate whose Jacobian, continued from its residual
        pass, raises NearSingularError is a singular_chart try too, with no
        cost, and the next try damps harder. The normal pass had begun to
        refill the band, so one more pass forms the current iterate's."""
        calls = []
        residual = Linearizer.residual

        def first_candidate_singular(self, values):
            r, jacobian = residual(self, values)

            def continued():
                calls.append(None)
                if len(calls) == 2:  # the initial linearization is the first
                    raise M.NearSingularError("injected")
                return jacobian()
            return r, continued

        monkeypatch.setattr(Linearizer, "residual", first_candidate_singular)
        graph, values, _, _ = linear_chain(rng, static=False)
        _, report = optimize(graph, values)
        assert report.converged and len(calls) == report.iterations + 2
        first, second = report.tries[:2]
        assert first["outcome"] == "singular_chart"
        assert first["cost"] is None and first["step_inf"] > 0.0
        assert second["lam"] == first["lam"] * fgraph.LAMBDA_UP
        assert second["iteration"] == 0 and second["outcome"] == "accepted"

    def test_band_part_refilled_by_a_failed_normal_pass_is_formed_again(
            self, monkeypatch):
        """A normal pass that raises after adding its first (d, w) group
        has refilled part of the band in place: the try after the
        singular_chart one damps the current iterate's band, bit for bit
        the band the first try damped."""
        graph, values = mode_b_graph()
        groups = len(Linearizer(graph)._band_groups)
        assert groups >= 2
        added, seen = [], []
        add_group, damped = Linearizer._add_group, fgraph._damped_solver

        def failing(self, *args):
            at = add_group(self, *args)
            added.append(None)
            if len(added) == groups + 1:  # the accepted candidate's pass
                raise M.NearSingularError("injected")
            return at

        def recording(band):
            solve = damped(band)

            def recorded(lam, b):
                seen.append(band.copy())
                return solve(lam, b)
            return recorded

        monkeypatch.setattr(Linearizer, "_add_group", failing)
        monkeypatch.setattr(fgraph, "_damped_solver", recording)
        _, report = optimize(graph, values)
        first, second = report.tries[:2]
        assert first["outcome"] == "singular_chart"
        assert second["iteration"] == 0
        assert_identical(seen[1], seen[0])

    def test_returned_iterate_builds_no_jacobian(self, rng, monkeypatch):
        """The iterate a solve returns is never linearized, so a Jacobian
        that would raise NearSingularError there does not reject it: with
        max_iterations = 1, the one candidate is accepted and returned."""
        calls = []
        residual = Linearizer.residual

        def singular_after_first(self, values):
            r, jacobian = residual(self, values)

            def continued():
                calls.append(None)
                if len(calls) > 1:
                    raise M.NearSingularError("injected")
                return jacobian()
            return r, continued

        monkeypatch.setattr(Linearizer, "residual", singular_after_first)
        graph, values, _, _ = linear_chain(rng, static=False)
        _, report = optimize(graph, values, SolverSettings(max_iterations=1))
        assert len(calls) == 1 and report.iterations == 1
        assert [t["outcome"] for t in report.tries] == ["accepted"]
        assert report.final_cost < report.cost_trace[0]

    @pytest.mark.parametrize("static", [False, True])
    def test_path_follows_pattern(self, rng, monkeypatch, static):
        """A static variable (timestamp 0) tied to every keyframe makes the
        band as wide as the graph; such a graph takes the band path too."""
        calls = {"band": 0, "lu": 0}
        solveh_banded, splu = fgraph.solveh_banded, fgraph.splu

        def band(*args, **kwargs):
            calls["band"] += 1
            return solveh_banded(*args, **kwargs)

        def lu(A, *args, **kwargs):
            calls["lu"] += 1
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(fgraph, "solveh_banded", band)
        monkeypatch.setattr(fgraph, "splu", lu)
        graph, values, keys, x_ref = linear_chain(rng, static)
        solution, report = optimize(graph, values)
        assert report.converged
        x = np.concatenate([solution.get(k).coords for k in keys])
        np.testing.assert_allclose(x, x_ref, atol=1e-8)
        assert calls["band"] > 0 and calls["lu"] == 0


def anchored_mixed_graph(rng):
    """`mixed_graph` with a prior on each SO(3) key, so it is well posed."""
    graph, values = mixed_graph(rng)
    for key in sorted(graph.variables, key=lambda k: k.id):
        if key.kind == M.SO3:
            graph.add(prior_factor(key, M.exp_so3(rng.normal(0.0, 0.3, 3)),
                                   np.eye(3) * 0.1))
    return graph, values


def unanchored_chain(rng, n=3, sigma=1.0):
    """n R^3 keys, each linked to the next through a random invertible
    block with noise sigma, and nothing anchoring them."""
    keys = [r3_key(i) for i in range(n)]
    graph = FactorGraph()
    for a, b in zip(keys, keys[1:]):
        A = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        graph.add(linear_factor([a, b], [-A, A], rng.normal(size=3),
                                np.eye(3) * sigma ** 2))
    return graph, Values({k: M.EuclidPoint(rng.normal(size=3)) for k in keys})


def criterion_9_free_rotation():
    """Criterion 9's graph without the ct factors on target keyframe 501:
    its USBL factor leaves that keyframe's rotation free."""
    graph, values = criterion_9_graph()
    free = VariableKey(2 * 501 + 1, M.SE3, 501.0)
    loose = FactorGraph()
    loose.extend(f for f in graph.factors
                 if not (f.name.startswith("ct") and free in f.keys))
    return loose, values


def criterion_9_unanchored():
    """Criterion 9's graph without its two priors: every keyframe can move
    with the rest as one rigid body, yet no squared pivot nears the shift."""
    graph, values = criterion_9_graph()
    loose = FactorGraph()
    loose.extend(f for f in graph.factors if not f.name.startswith("prior"))
    return loose, values


def lu_check_gauge(JtJ, offsets):
    """Reference gauge check on a sparse J^T J: the pivots of an unpivoted
    sparse LU of the equilibrated, shifted system, with the same threshold
    and message as `fgraph._check_gauge`."""
    n, shift = JtJ.shape[0], 1e-12
    diag = JtJ.diagonal()
    D = sp.diags(1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0)), format="csc")
    lu = splu((D @ JtJ @ D + shift * sp.identity(n, format="csc")).tocsc(),
              permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    bad_cols = np.nonzero(np.abs(lu.U.diagonal()) <= 1e3 * shift)[0]
    if not bad_cols.size:
        return
    suspects = [key for key, c0 in offsets.items()
                if any(c0 <= c < c0 + key.kind.dim for c in bad_cols)]
    names = ", ".join(f"id={k.id}@t={k.timestamp:g}" for k in sorted(
        suspects, key=lambda k: (k.timestamp, k.id)))
    raise UnderconstrainedGraphError(
        f"underconstrained graph: null space touches variables [{names}]",
        suspects)


def assert_verdict_is_check_gauges(graph, values):
    """The band check and optimize raise the verdict and suspect list of
    the LU reference check on the sparse J^T J."""
    lin = Linearizer(graph)
    J, _ = lin(values)
    with pytest.raises(UnderconstrainedGraphError) as ref:
        lu_check_gauge((J.T @ J).tocsc(), lin.offsets)
    with pytest.raises(UnderconstrainedGraphError) as band:
        fgraph._check_gauge(lin.residual(values)[1]()[1], lin.offsets)
    with pytest.raises(UnderconstrainedGraphError) as got:
        optimize(graph, values)
    assert ref.value.suspect_keys
    for err in (band, got):
        assert err.value.suspect_keys == ref.value.suspect_keys
        assert str(err.value) == str(ref.value)


class ReferenceLinearizer(Linearizer):
    """Reference band: every entry of each factor's X^T X, read off J's
    rows by a loop over the factors and binned by `np.bincount`, the
    entries with col_p < col_q into one discarded bin. Factors are grouped
    by (d, w) as the Linearizer groups them, so each bin sums in the same
    order."""

    def normal_band(self, J):
        n, m = self.total_cols, self.bandwidth + 1
        groups = {}
        row0 = 0
        for f in self.graph.factors:
            start, stop = J.indptr[row0:row0 + 2].tolist()
            if stop > start:
                groups.setdefault((f.dim, stop - start), []).append(start)
            row0 += f.dim
        targets, products = [np.empty(0, int)], [np.empty(0)]
        for (d, w), starts in sorted(groups.items()):
            cells = (np.array(starts)[:, None, None]
                     + np.arange(d * w).reshape(d, w))
            cols = J.indices[cells[:, 0]].astype(int)
            ci, cj = cols[:, :, None], cols[:, None, :]
            target = ci + cj * (m - 1)
            target[ci < cj] = n * m
            targets.append(target.ravel())
            products.append(np.matmul(J.data[cells.transpose(0, 2, 1)],
                                      J.data[cells]).ravel())
        band = np.bincount(np.concatenate(targets),
                           weights=np.concatenate(products),
                           minlength=n * m + 1)
        # no weights at all give an int array
        return band[:n * m].astype(float).reshape(n, m).T


def assert_normal_pass(graph, values):
    """A normal pass at `values`: its band is the reference's bincount
    band of `__call__`'s J bit for bit, and its gradient J^T r to 1e-12.
    Returns the Linearizer, J, r and the band."""
    lin = Linearizer(graph)
    J, r = lin(values)
    g, band = lin.residual(values)[1]()
    assert_identical(band, ReferenceLinearizer(graph).normal_band(J))
    want = J.T @ r
    assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want)
    return lin, J, r, band


def scalar_graph(graph):
    """`graph` with every family dropped, so each factor is evaluated by
    its residual_fn/jacobian_fn, as `coo_entries` evaluates it."""
    plain = FactorGraph()
    plain.extend(dataclasses.replace(f, family=None) for f in graph.factors)
    return plain


def structure_graphs(rng):
    """The mixed graphs (one has a custom factor binding a key twice), the
    wide static chain, criterion 9's graph, a one-factor graph and the
    empty graph."""
    graphs = [mixed_graph(rng) for _ in range(3)]
    graphs.append(linear_chain(rng, static=True)[:2])
    graphs.append(criterion_9_graph())
    key = VariableKey(3, M.SE3, 1.5)
    one = FactorGraph()
    one.add(prior_factor(key, random_pose(rng, 1.0), np.eye(6) * 0.01))
    graphs.append((one, Values({key: random_pose(rng, 1.0)})))
    graphs.append((FactorGraph(), Values()))
    return graphs


class TestStructureBuild:
    def test_linearization_equals_coo_reference(self, rng):
        """Evaluated factor by factor, J sums to the COO -> CSR assembly of
        `coo_entries` bit for bit and r equals its residual; with batches
        or without, the normal pass's band equals the reference's bincount
        band of J and its gradient J^T r."""
        graphs = structure_graphs(rng)
        assert any(len(set(f.keys)) < len(f.keys)
                   for f in graphs[0][0].factors)
        for graph, values in graphs:
            for g in (graph, scalar_graph(graph)):
                lin, J, r, _ = assert_normal_pass(g, values)
            J_ref, r_ref = per_factor_linearization(graph, lin.offsets, values)
            J.sum_duplicates()
            for name in ("data", "indices", "indptr"):
                assert_identical(getattr(J, name), getattr(J_ref, name))
            assert_identical(r, r_ref)

    def test_keyless_custom_factor(self):
        """A custom factor that binds no key (w = 0): its residual enters
        r, the cost trace and the family costs, its rows of J are empty,
        the gradient and the band are those of the graph without it, and
        the solve converges."""
        x = VariableKey(0, M.rn(2), 0.0)
        values = Values({x: M.EuclidPoint(np.zeros(2))})
        anchored = FactorGraph()
        anchored.add(linear_factor([x], [np.eye(2)], np.ones(2), np.eye(2)))
        graph = FactorGraph()
        graph.extend([anchored.factors[0], Factor(
            keys=(), residual_fn=lambda values: np.array([3.0]),
            jacobian_fn=lambda values: (), noise=NoiseModel(np.eye(1)))])
        lin, J, r, _ = assert_normal_pass(graph, values)
        assert J.shape == (3, 2) and J.nnz == 4
        assert J.indptr.tolist() == [0, 2, 4, 4]
        assert_identical(r, np.array([-1.0, -1.0, 3.0]))
        assert lin.family_costs(r) == {"custom": 11.0}
        for got, want in zip(lin.residual(values)[1](),
                             Linearizer(anchored).residual(values)[1]()):
            assert_identical(got, want)
        solution, report = optimize(graph, values)
        assert report.converged
        assert report.cost_trace[0] == 11.0
        assert report.family_costs_end["custom"] == report.final_cost
        assert report.final_cost == pytest.approx(9.0, abs=1e-12)
        np.testing.assert_allclose(solution.get(x).coords, [1.0, 1.0],
                                   atol=1e-9)


def key_order_graphs(rng):
    """A Mode B DOWN boundary factor, whose keys run against column order:
    the SE(3) twin comes first, but at the shared timestamp its id is the
    larger, so the R^3 state's columns come first. Alone, and next to a
    custom factor that binds the late key twice around the early one."""
    point, twin = r3_key(4, t=2.0), VariableKey(5, M.SE3, 2.0)
    early, late = r3_key(6, t=3.0), r3_key(7, t=3.0)
    values = Values({twin: random_pose(rng, 1.0),
                     point: M.EuclidPoint(rng.normal(size=3)),
                     early: M.EuclidPoint(rng.normal(size=3)),
                     late: M.EuclidPoint(rng.normal(size=3))})
    alone = FactorGraph()
    alone.extend(boundary_factors(twin, point, "DOWN", np.eye(3) * 1e-2))
    mixed = FactorGraph()
    mixed.extend(alone.factors)
    mixed.add(linear_factor([late, early, late],
                            [rng.normal(size=(3, 3)) for _ in range(3)],
                            rng.normal(size=3), np.eye(3) * 0.5))
    return [(alone, values), (mixed, values)]


class TestKeyOrder:
    def test_factor_keys_against_column_order(self, rng):
        for graph, values in key_order_graphs(rng):
            lin, J, r, band = assert_normal_pass(graph, values)
            # the boundary factor's rows list the twin's columns first
            assert J.indices[:9].tolist() == [3, 4, 5, 6, 7, 8, 0, 1, 2]
            J_ref, r_ref = per_factor_linearization(graph, lin.offsets, values)
            assert_same_linearization(J, r, J_ref, r_ref)
            ref = lower_band((J_ref.T @ J_ref).tocsc(), lin.bandwidth)
            assert np.max(np.abs(band - ref)) <= 1e-12 * np.max(np.abs(ref))
            # J^T J summed over J's repeated entries is the same matrix
            np.testing.assert_allclose((J.T @ J).toarray(),
                                       (J_ref.T @ J_ref).toarray(),
                                       rtol=1e-12, atol=1e-12)


@st.composite
def key_order_cases(draw):
    """Linear factors over R^1..R^3 variables whose keys come in any order,
    some bound more than once, with residual dims that put factors of
    different key orders into one (d, w) group."""
    dims = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=6))
    keys = [VariableKey(i, M.rn(dd), float(draw(st.integers(0, 3))))
            for i, dd in enumerate(dims)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    graph = FactorGraph()
    for _ in range(draw(st.integers(1, 12))):
        ks = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4))
        d = draw(st.sampled_from([1, 2, 3]))
        graph.add(linear_factor(
            ks, [rng.normal(size=(d, k.kind.dim)) for k in ks],
            rng.normal(size=d), np.eye(d)))
    values = Values({k: M.EuclidPoint(rng.normal(size=k.kind.dim))
                     for k in keys})
    return graph, values


def grid_layout(graph, J):
    """(pick, rows) of each (d, w) group, from the grid of every column
    pair of each factor, read off J's rows: one pattern when all the
    group's grids agree, else one list over the group."""
    groups, row0 = {}, 0
    for f in graph.factors:
        cols = J.indices[J.indptr[row0]:J.indptr[row0 + 1]]
        if len(cols):
            groups.setdefault((f.dim, len(cols)), []).append(cols)
        row0 += f.dim
    out = []
    for cols in (np.array(c) for _, c in sorted(groups.items())):
        lower = (cols[:, :, None] >= cols[:, None, :]).reshape(len(cols), -1)
        out.append((np.flatnonzero(lower[0]), len(cols))
                   if (lower == lower[0]).all()
                   else (np.flatnonzero(lower), 1))
    return out


def assert_grid_layout(graph, values):
    """The Linearizer's band layout equals the grid's, its bandwidth that
    of J^T J's structural pattern, and its normal pass's band the
    reference's, bit for bit."""
    lin, J, _, _ = assert_normal_pass(graph, values)
    P = J.copy()
    P.data[:] = 1.0  # structural pattern; products of ones never cancel
    pattern = (P.T @ P).tocoo()
    assert lin.bandwidth == np.max(pattern.row - pattern.col, initial=0)
    grid = grid_layout(graph, J)
    assert len(grid) == len(lin._band_groups)
    for (pick, rows), (_, got, got_rows, *_) in zip(grid, lin._band_groups):
        assert_identical(got, pick)
        assert got_rows == rows
    return lin


class TestBandLayout:
    @settings(max_examples=150, deadline=None)
    @given(key_order_cases())
    def test_layout_matches_grid_for_any_key_order(self, case):
        """The band layout, read off each table's column matrix, picks what
        the grid of every column pair of J's rows picks, shared by a group
        exactly when the grid's patterns agree, has the bandwidth of J^T
        J's pattern, and sums J's blocks into the same bins, in the same
        order, as the reference."""
        assert_grid_layout(*case)

    def test_key_bound_twice_counts_once(self, rng):
        """(a, a, b) over R^2, R^2, R^1 and (g, x, g, x, h) over R^1 order
        their five columns alike, so they share one pattern, as their
        grids do."""
        a, b = VariableKey(0, M.rn(2), 0.0), VariableKey(1, M.rn(1), 1.0)
        g, x, h = (VariableKey(i, M.rn(1), float(i)) for i in (2, 3, 4))
        graph = FactorGraph()
        for ks in ([a, a, b], [g, x, g, x, h]):
            graph.add(linear_factor(
                ks, [rng.normal(size=(2, k.kind.dim)) for k in ks],
                rng.normal(size=2), np.eye(2)))
        values = Values({k: M.EuclidPoint(rng.normal(size=k.kind.dim))
                         for k in (a, b, g, x, h)})
        lin = assert_grid_layout(graph, values)
        assert [rows for _, _, rows, *_ in lin._band_groups] == [2]


def mode_b_graph():
    """A small Mode B rendezvous graph (40 s, seed 3): its (3, 9) group
    holds USBL rows to R^3 targets, R^3 constant-twist rows and boundary
    rows, three tables whose rows interleave in graph order."""
    cfg = ScenarioConfig(
        chaser_start=M.Pose3.identity(),
        target_start=M.Pose3(M.Rotation3.identity(),
                             np.array([6.0, 2.0, 0.0])),
        chaser_segments=[TwistSegment(np.array([0.3, 0, 0, 0, 0, 0.01]),
                                      40.0)],
        target_segments=[TwistSegment(np.array([0.25, 0, 0, 0, 0, 0.02]),
                                      40.0)],
        optical_windows=[(10.0, 20.0)], seed=3)
    records = synthesize_measurements(generate_ground_truth(cfg), cfg)
    policy = ModePolicy(mode="B")
    return build_graph(schedule_keyframes(records, gate=1.0, policy=policy),
                       policy, TrackingConfig(target_start=cfg.target_start))


class TestWorkingSet:
    """What a solve keeps alive: the band, one damped-solve buffer, one
    batch's blocks at a time and a layout sized by the factor count, the
    blocks copied into the band's buffers a chunk of factors at a time.
    No Jacobian is built."""

    def test_band_over_several_chunks_matches_reference(self, rng):
        """Two groups of more factors than a normal pass takes at once, one
        sharing its pattern and one picking per row (keys in either order),
        give the reference's band bit for bit."""
        n = 2 * fgraph._BAND_CHUNK + 37
        keys = [VariableKey(i, M.rn(1), float(i)) for i in range(n + 1)]
        graph = FactorGraph()
        for i, (a, b) in enumerate(zip(keys, keys[1:])):
            graph.add(linear_factor([a, b] if i % 3 else [b, a],
                                    rng.normal(size=(2, 1, 1)),
                                    rng.normal(size=1), np.eye(1)))
            graph.add(linear_factor([a, b], rng.normal(size=(2, 2, 1)),
                                    rng.normal(size=2), np.eye(2)))
        values = Values({k: M.EuclidPoint(rng.normal(size=1)) for k in keys})
        lin = assert_grid_layout(graph, values)
        assert [(d, w, rows) for _, _, rows, d, w, _ in lin._band_groups] \
            == [(1, 2, 1), (2, 2, n)]

    def test_group_of_three_tables_takes_their_rows_in_graph_order(self):
        """Mode B's (3, 9) group spans the USBL, R^3 constant-twist and
        boundary tables, as built and with the factors re-added in time
        order, which interleaves those tables' rows: the normal pass's band
        is the reference's bit for bit, and its gradient J^T r."""
        graph, values = mode_b_graph()
        by_time = FactorGraph()
        by_time.extend(sorted(graph.factors, key=lambda f: max(
            k.timestamp for k in f.keys)))
        interleaved = []
        for g in (graph, by_time):
            lin, *_ = assert_normal_pass(g, values)
            (chunks, batches), = [
                (chunks, batches) for (chunks, _, _, d, w, _), batches
                in zip(lin._band_groups, lin._group_batches)
                if (d, w) == (3, 9)]
            assert sorted(lin._batches[i].table.family.name
                          for i in batches) == ["boundary", "ct", "usbl"]
            interleaved.append(any(not isinstance(to, slice)
                                   for *_, parts in chunks
                                   for _, to, _ in parts))
        assert interleaved == [False, True]

    def test_each_jacobian_is_freed_before_the_next_is_built(
            self, monkeypatch):
        """A normal pass drops each batch's Jacobian blocks, as the family
        gives them and whitened, once they are in the gradient and the
        band: no earlier batch's blocks are alive when the next batch's are
        built, and a solve runs one normal pass per iteration."""
        graph, values = criterion_9_graph()
        built, passes = [], []
        jacobian, whiten = factors._Family.jacobian, fgraph._Batch.whiten
        residual = Linearizer.residual

        def tracked_jacobian(self, params, states, steps):
            assert [ref() for ref in built] == [None] * len(built)
            blocks = jacobian(self, params, states, steps)
            built.extend(weakref.ref(X) for X in blocks)
            return blocks

        def tracked_whiten(self, x):
            out = whiten(self, x)
            built.append(weakref.ref(out))
            return out

        def tracked(self, at):
            r, normal = residual(self, at)

            def tracked_normal():
                passes.append(None)
                return normal()
            return r, tracked_normal

        monkeypatch.setattr(factors._Family, "jacobian", tracked_jacobian)
        monkeypatch.setattr(fgraph._Batch, "whiten", tracked_whiten)
        monkeypatch.setattr(Linearizer, "residual", tracked)
        _, report = optimize(graph, values)
        assert report.converged
        assert len(passes) == report.iterations >= 2

    def test_solver_builds_no_jacobian(self, monkeypatch):
        """optimize, marginal_covariance and total_cost read the graph
        through the residual and normal passes alone: none calls
        `Linearizer.__call__` or makes a scipy.sparse matrix."""
        graphs = [anchored_mixed_graph(np.random.default_rng(0)),
                  criterion_9_graph()]
        want = [(marginal_covariance(graph, values, min(
                     graph.variables, key=attrgetter("id"))),
                 total_cost(graph, values)) for graph, values in graphs]

        def refuse(*args, **kwargs):
            raise AssertionError("a Jacobian was built")

        monkeypatch.setattr(Linearizer, "__call__", refuse)
        for name in ("csr_matrix", "csc_matrix", "coo_matrix", "csr_array",
                     "csc_array", "coo_array"):
            monkeypatch.setattr(sp, name, refuse)
        for (graph, values), (cov, cost) in zip(graphs, want):
            _, report = optimize(graph, values)
            assert report.converged
            first = min(graph.variables, key=attrgetter("id"))
            assert_identical(marginal_covariance(graph, values, first), cov)
            assert total_cost(graph, values) == cost

    def test_solve_peak_is_bounded(self):
        """The traced peak of a solve of criterion 9's graph (12000
        columns), its tables' first stacking included, stays under 21 MB.
        The working set peaks at about 18.2 MB here; with scratch of whole
        band groups and two live Jacobians it reached 28.8 MB."""
        assert solve_peak(*criterion_9_graph()) < 21e6

    def test_solve_peak_holds_no_jacobian(self):
        """Without a Jacobian, its index copy, a per-row stack of noise
        blocks or a concatenation of a batch's blocks, the traced peak of
        a solve of criterion 9's graph is at most 14e6 bytes: 13.4e6 was
        measured as the first solve of a process (12.5e6 after another),
        18.2e6 while each iteration built a CSR J."""
        assert solve_peak(*criterion_9_graph()) <= 14e6


def solve_peak(graph, values) -> int:
    """The traced peak, in bytes, of a converged solve of `graph`."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        _, report = optimize(graph, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert report.converged
    return peak


class TestBandNativeSolve:
    def test_band_from_blocks_matches_normal_equations(self, rng):
        graphs = [mixed_graph(rng) for _ in range(4)] + [criterion_9_graph()]
        graphs.append(linear_chain(rng, static=True)[:2])  # a dense band
        for graph, values in graphs:
            lin = Linearizer(graph)
            J, _ = lin(values)
            _, band = lin.residual(values)[1]()
            ref = lower_band((J.T @ J).tocsc(), lin.bandwidth)
            assert band.shape == ref.shape
            assert (np.max(np.abs(band - ref))
                    <= 1e-12 * np.max(np.abs(ref)))
        graph = graphs[0][0]
        assert any(f.family is None for f in graph.factors)
        assert any(len(set(f.keys)) < len(f.keys) for f in graph.factors)
        assert {k.kind.tag for k in graph.variables} == {"SE3", "SO3", "RN"}

    def test_edits_to_J_leave_the_next_call_alone(self, rng):
        for graph, values in structure_graphs(rng):
            lin = Linearizer(graph)
            J, r = lin(values)
            want, want_r = J.copy(), r.copy()
            for array in (J.data, J.indices, J.indptr, r):
                array[:] = 0
            J2, r2 = lin(values)
            for name in ("data", "indices", "indptr"):
                assert_identical(getattr(J2, name), getattr(want, name))
            assert_identical(r2, want_r)

    def test_band_gauge_passes_well_posed_graphs(self, rng, monkeypatch):
        calls = []
        check_gauge = fgraph._check_gauge
        monkeypatch.setattr(fgraph, "_check_gauge",
                            lambda *a, **k: calls.append(1) or check_gauge(
                                *a, **k))
        graphs = [anchored_mixed_graph(rng) for _ in range(3)]
        graphs += [linear_chain(rng, static)[:2] for static in (False, True)]
        graphs.append(criterion_9_graph())
        for graph, values in graphs:
            lin = Linearizer(graph)
            J, _ = lin(values)
            _, band = lin.residual(values)[1]()
            check_gauge(band, lin.offsets)  # no raise
            lu_check_gauge((J.T @ J).tocsc(), lin.offsets)  # agrees
            _, report = optimize(graph, values,
                                 SolverSettings(max_iterations=2))
            assert report.iterations == 2
        # optimize checks once per solve, at its first iteration
        assert calls == [1] * len(graphs)

    def test_band_that_does_not_factor_names_its_column(self):
        """The equilibrated [[1, 2], [2, 1]] is indefinite: the banded
        Cholesky stops at column 1, whose variable is the suspect. Past
        that column LAPACK leaves partial updates, not pivots, so a third,
        zero column is not read."""
        a, b, c = (VariableKey(i, M.rn(1), float(i)) for i in range(3))
        for band, keys in (([[1.0, 1.0], [2.0, 0.0]], (a, b)),
                           ([[1.0, 1.0, 0.0], [2.0, 0.0, 0.0]], (a, b, c))):
            with pytest.raises(UnderconstrainedGraphError) as exc:
                fgraph._check_gauge(np.asfortranarray(band),
                                    {k: i for i, k in enumerate(keys)})
            assert exc.value.suspect_keys == [b]
            assert str(exc.value) == ("underconstrained graph: null space "
                                      "touches variables [id=1@t=1]")

    def test_pivot_threshold_is_a_thousand_shifts(self):
        """The equilibrated [[1, c], [c, 1]] has squared second pivot
        1 - c^2 plus about twice the 1e-12 shift, against a threshold of
        1e3 shifts: 5e-10 flags column 1 and 5e-9 passes, so a factor of
        1e2 or 1e4 would turn one verdict."""
        a, b = (VariableKey(i, M.rn(1), float(i)) for i in range(2))

        def band(gap):  # gap = 1 - c^2
            return np.asfortranarray([[1.0, 1.0], [np.sqrt(1.0 - gap), 0.0]])

        with pytest.raises(UnderconstrainedGraphError) as exc:
            fgraph._check_gauge(band(5e-10), {a: 0, b: 1})
        assert exc.value.suspect_keys == [b]
        fgraph._check_gauge(band(5e-9), {a: 0, b: 1})

    @pytest.mark.parametrize("fixture", [
        mixed_graph, unanchored_chain,
        lambda rng: criterion_9_free_rotation()],
        ids=["mixed-graph", "chain", "criterion-9-free-rotation"])
    def test_underconstrained_verdict_is_check_gauges(self, rng, fixture):
        assert_verdict_is_check_gauges(*fixture(rng))

    def test_rigid_motion_of_the_whole_graph_is_underconstrained(self):
        """Inverse iteration on the gauge check's factor finds the null
        direction that its pivots miss, and names it in one line."""
        graph, values = criterion_9_unanchored()
        with pytest.raises(UnderconstrainedGraphError) as exc:
            optimize(graph, values)
        message, suspects = str(exc.value), exc.value.suspect_keys
        assert "\n" not in message and message.startswith(
            "underconstrained graph: null space touches variables [id=")
        assert message.endswith(f", and {len(suspects) - 8} more]")
        times = [k.timestamp for k in suspects]
        assert len(suspects) > 1000 and min(times) < 10 and max(times) > 990
        with pytest.raises(UnderconstrainedGraphError):
            marginal_covariance(graph, values, sorted(
                graph.variables, key=lambda k: k.id)[0])

    def test_verdict_names_the_test_that_flagged(self):
        """The error holds the verdict: a pivot under the threshold gives
        no inverse-iteration bound, a rigid motion of the whole graph
        passes the pivots and is flagged by the bound, and each counts its
        suspects."""
        a, b = (VariableKey(i, M.rn(1), float(i)) for i in range(2))
        band = np.asfortranarray([[1.0, 1.0], [np.sqrt(1.0 - 5e-10), 0.0]])
        with pytest.raises(UnderconstrainedGraphError) as exc:
            fgraph._check_gauge(band, {a: 0, b: 1})
        assert exc.value.gauge["inverse_bound"] is None
        assert 0.0 < exc.value.gauge["min_pivot_sq"] <= 1e-9
        assert exc.value.gauge["suspects"] == 1
        graph, values = criterion_9_unanchored()
        with pytest.raises(UnderconstrainedGraphError) as exc:
            optimize(graph, values)
        gauge = exc.value.gauge
        assert gauge["min_pivot_sq"] > 1e-9 >= gauge["inverse_bound"]
        assert gauge["suspects"] == len(exc.value.suspect_keys)

    def test_probe_columns_are_made_once_per_size(self):
        assert fgraph._probe(12) is fgraph._probe(12)
        assert not fgraph._probe(12).flags.writeable
        assert_identical(fgraph._probe(12),
                         np.random.default_rng(0).random((12, 8)) - 0.5)

    def test_stiff_unanchored_chains_are_underconstrained(self, rng):
        """Weights of 1e6-1e10 leave an unequilibrated null direction a
        pivot far above the shift; the equilibrated band flags it."""
        for sigma in (1e-3, 1e-4, 1e-5):
            for _ in range(3):
                assert_verdict_is_check_gauges(
                    *unanchored_chain(rng, n=20, sigma=sigma))

    def test_custom_and_family_factors_reach_lstsq_optimum(self, rng):
        """Custom (family-less) links run on Values built from the stacked
        iterate; the family priors run on the stacks themselves."""
        keys = [r3_key(i) for i in range(6)]
        graph = FactorGraph()
        rows, rhs = [], []
        for i, k in enumerate(keys):
            mean, sigma = rng.normal(size=3), 2.0
            graph.add(prior_factor(k, M.EuclidPoint(mean),
                                   np.eye(3) * sigma ** 2))
            row = np.zeros((3, 18))
            row[:, 3 * i:3 * i + 3] = np.eye(3) / sigma
            rows.append(row)
            rhs.append(mean / sigma)
        for i, (a, b) in enumerate(zip(keys, keys[1:])):
            A, d, sigma = rng.normal(size=(3, 3)) + 2.0 * np.eye(3), \
                rng.normal(size=3), 0.1
            graph.add(linear_factor([a, b], [-np.eye(3), A], d,
                                    np.eye(3) * sigma ** 2))
            row = np.zeros((3, 18))
            row[:, 3 * i:3 * i + 3] = -np.eye(3) / sigma
            row[:, 3 * i + 3:3 * i + 6] = A / sigma
            rows.append(row)
            rhs.append(d / sigma)
        assert {f.family is None for f in graph.factors} == {True, False}
        x_ref, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs),
                                    rcond=None)
        values = Values({k: M.EuclidPoint(np.zeros(3)) for k in keys})
        solution, report = optimize(graph, values)
        assert report.converged
        x = np.concatenate([solution.get(k).coords for k in keys])
        np.testing.assert_allclose(x, x_ref, atol=1e-8)

    def test_result_keeps_initial_extra_keys(self, rng):
        graph, values, keys, x_ref = linear_chain(rng, static=False, n=5)
        extra = {VariableKey(99, M.SE3, 2.5): random_pose(rng, 1.0),
                 r3_key(98): M.EuclidPoint(rng.normal(size=3))}
        initial = values.copy()
        for key, element in extra.items():
            initial.set(key, element)
        solution, report = optimize(graph, initial)
        assert report.converged
        assert set(solution.keys()) == set(initial.keys())
        for key, element in extra.items():
            assert solution.get(key) is element
        x = np.concatenate([solution.get(k).coords for k in keys])
        np.testing.assert_allclose(x, x_ref, atol=1e-8)
        assert all(initial.get(k).coords.tolist() == [0.0] * 3 for k in keys)

    def test_singular_chart_from_stacks_names_first_offending_factor(
            self, rng):
        graph, values = near_singular_graph(rng)
        lin = Linearizer(graph)
        with pytest.raises(M.NearSingularError) as exc:
            lin(lin.layout.stack(values))
        assert str(exc.value).startswith(
            "linearization failed in ct[0,1,2] (variables id=0@t=0, "
            "id=1@t=2, id=2@t=4): ")
