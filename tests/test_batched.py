"""Batched manifold kernels and factor families against the scalar reference.

The solver linearizes built-in factors in batches, one per family, and
retracts all variables in one pass.  Each batched kernel must give exactly
what its scalar kernel gives; each family's batch must give what each
factor's residual_fn/jacobian_fn give, to 1e-12 (absolute, or relative to the
block's largest entry).  Both must raise NearSingularError for exactly the
inputs where the scalar path raises.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistgraph import manifold as M
from twistgraph.factors import (
    ConstantTwistSpec,
    RollPitchSpec,
    boundary_factors,
    ct_factor,
    prior_factor,
    relative_pose_factor,
    roll_pitch_factor,
    usbl_factor,
)
from twistgraph.fgraph import (
    Values,
    VariableKey,
    _StateLayout,
    _retract_all,
)
from twistgraph.manifold import EuclidPoint, NearSingularError, Pose3, Rotation3

from conftest import q_block_batch

PI_EDGE = np.pi - M.NEAR_PI_MARGIN

seeds = st.integers(0, 2 ** 32 - 1)
# Rotation angles on both sides of every branch point: the small-angle
# series, q_block's series, the symmetric-part log above 2.8 rad, and the
# near-pi rejection.
angles = st.one_of(
    st.just(0.0),
    st.floats(0.1 * M.SMALL_ANGLE, 10.0 * M.SMALL_ANGLE),
    st.floats(M.Q_SERIES_ANGLE - 1e-3, M.Q_SERIES_ANGLE + 1e-3),
    st.floats(2.8 - 1e-3, 2.8 + 1e-3),
    st.floats(PI_EDGE - 1e-3, PI_EDGE - 1e-7),
    st.floats(0.0, 3.0),
)
beyond_edge = st.floats(PI_EDGE + 1e-7, np.pi)
# dt2 / dt1
ratios = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)

SETTINGS = settings(max_examples=60, deadline=None)


def assert_close(batch, scalar, tol=1e-12):
    batch, scalar = np.asarray(batch), np.asarray(scalar)
    assert batch.shape == scalar.shape
    scale = max(1.0, float(np.max(np.abs(scalar), initial=0.0)))
    assert np.max(np.abs(batch - scalar), initial=0.0) <= tol * scale


assert_equal = np.testing.assert_array_equal


def q_seven_products(rho, theta):
    """q_block as the seven 3x3 products of its series form, from the
    kernel's own coefficients: the reference for the closed-form assembly."""
    P, K = M.skew(rho), M.skew(theta)
    c1, c2, c3 = M._q_coeffs(float(theta @ theta))
    KP = K @ P
    PK = P @ K
    KPK = KP @ K
    return (0.5 * P
            + c1 * (KP + PK + KPK)
            - c2 * (K @ KP + PK @ K - 3.0 * KPK)
            - 0.5 * (c2 - 3.0 * c3) * (KPK @ K + K @ KPK))


def unit_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def assert_pairs_match(group, deltas):
    """The group's (J_l^-1, J_r^-1) pairs equal its jl_inv at d and -d,
    exactly, on elements and on the stack."""
    Jl, Jr = group.batch.jl_jr_inv(deltas)
    assert_equal(Jl, group.batch.jl_inv(deltas))
    assert_equal(Jr, group.batch.jl_inv(-deltas))
    for n, d in enumerate(deltas):
        jl, jr = group.jl_jr_inv(d)
        assert_equal(jl, group.jl_inv(d))
        assert_equal(jr, group.jl_inv(-d))
        assert_equal(jl, Jl[n])
        assert_equal(jr, Jr[n])


def twist(rng, angle, scale=1.0):
    """SE(3) tangent with a random translation and a rotation of `angle`."""
    return np.concatenate([rng.normal(0.0, scale, 3), unit_axis(rng) * angle])


def random_pose(rng):
    return Pose3(M.exp_so3(unit_axis(rng) * rng.uniform(0.0, 3.0)),
                 rng.normal(0.0, 2.0, 3))


def se3_key(i):
    return VariableKey(id=i, kind=M.SE3, timestamp=float(i))


def rn_key(i, dim=3):
    return VariableKey(id=i, kind=M.rn(dim), timestamp=float(i))


def stack(kind, elements):
    return kind.group.stack(elements)


def evaluate(family, params, states):
    """(r, per-key Jacobians) of a family's rows at the slot stacks
    `states`: its steps, then the blocks continued from them."""
    steps = family.residual(params, states)
    return steps[-1], family.jacobian(params, states, steps)


def assert_family_matches_scalar(factors, values):
    """Evaluate `factors` (one family, one batch) and check every row."""
    family = factors[0].family
    assert family is not None
    assert all(f.family is family for f in factors)
    params = tuple(np.array(p) for p in zip(*(f.family_params for f in factors)))
    states = [stack(key.kind, [values.get(f.keys[i]) for f in factors])
              for i, key in enumerate(factors[0].keys)]
    try:
        scalar = [(f.residual_fn(values), f.jacobian_fn(values))
                  for f in factors]
    except NearSingularError:
        with pytest.raises(NearSingularError):
            evaluate(family, params, states)
        return
    r, Js = evaluate(family, params, states)
    assert r.shape == (len(factors), factors[0].dim)
    for n, (r_ref, Js_ref) in enumerate(scalar):
        assert_close(r[n], r_ref)
        assert len(Js) == len(Js_ref)
        for J, J_ref in zip(Js, Js_ref):
            assert_close(J[n], J_ref)


# ---------------------------------------------------------------------------
# Kernels.


class TestKernels:
    """The scalar and batch kernels assemble their matrices with the same
    functions from the same coefficients, so they agree exactly."""

    @SETTINGS
    @given(st.lists(st.tuples(angles, seeds), min_size=1, max_size=6))
    def test_so3_kernels(self, cases):
        theta = np.array([unit_axis(np.random.default_rng(s)) * a
                          for a, s in cases])
        R = M.exp_so3_batch(theta)
        for n, th in enumerate(theta):
            assert_equal(R[n], M.exp_so3(th).matrix)
        w = M.log_so3_batch(R)
        for n in range(len(theta)):
            assert_equal(w[n], M.log_so3(Rotation3(R[n])))
        for batched, scalar in [(M.jl_so3_batch, M.jl_so3),
                                (M.jl_inv_so3_batch, M.jl_inv_so3),
                                (M.SO3.group.batch.jr_inv, M.SO3.group.jr_inv)]:
            out = batched(theta)
            for n, th in enumerate(theta):
                assert_equal(out[n], scalar(th))
        assert_pairs_match(M.SO3.group, theta)

    @SETTINGS
    @given(st.lists(st.tuples(angles, seeds), min_size=1, max_size=6))
    def test_se3_kernels(self, cases):
        xi = np.array([twist(np.random.default_rng(s), a) for a, s in cases])
        R, t = M.exp_se3_batch(xi)
        poses = [M.exp_se3(x) for x in xi]
        for n, T in enumerate(poses):
            assert_equal(R[n], T.rotation.matrix)
            assert_equal(t[n], T.translation)
        log = M.log_se3_batch(R, t)
        for n in range(len(xi)):
            assert_equal(log[n], M.log_se3(Pose3(Rotation3(R[n]), t[n])))
        Ad = M.adjoint_inv_se3_batch(R, t)
        for n, T in enumerate(poses):
            assert_equal(Ad[n], M.adjoint_inv_se3(T))
        Q = q_block_batch(xi[:, :3], xi[:, 3:])
        for n, x in enumerate(xi):
            assert_equal(Q[n], M.q_block(x[:3], x[3:]))
        for batched, scalar in [(M.jl_se3_batch, M.jl_se3),
                                (M.jl_inv_se3_batch, M.jl_inv_se3),
                                (M.SE3.group.batch.jr, M.SE3.group.jr),
                                (M.SE3.group.batch.jr_inv, M.SE3.group.jr_inv)]:
            out = batched(xi)
            for n, x in enumerate(xi):
                assert_equal(out[n], scalar(x))
        assert_pairs_match(M.SE3.group, xi)

    @pytest.mark.parametrize("angles", [
        [0.5, 1.0, 2.0, 3.0], [0.0, 1e-9, 5e-7], [0.0, 0.5, 1e-8, 2.0]],
        ids=["all-large", "all-small", "mixed"])
    def test_series_or_closed_per_row(self, angles):
        """Rows that all take the closed form, all the series, or some
        each: every row is its own branch, exactly as the masked
        assignment gives it, and the kernels built on it equal their
        scalar ones."""
        angle = np.array(angles)
        small = angle < M.SMALL_ANGLE
        series = 1.0 - angle * angle / 6.0

        def closed(m):
            return np.sin(angle[m]) / angle[m]

        want = series.copy()
        if not small.all():
            want[~small] = closed(~small)
        assert_equal(M._series_or_closed(small, series.copy(), closed), want)
        theta = angle[:, None] * np.array([0.6, 0.0, 0.8])
        for n, R in enumerate(M.exp_so3_batch(theta)):
            assert_equal(R, M.exp_so3(theta[n]).matrix)
        xi = np.concatenate([theta[:, ::-1], theta], axis=1)
        for n, J in enumerate(M.jl_jr_inv_se3_batch(xi)[1]):
            assert_equal(J, M.SE3.group.jr_inv(xi[n]))

    @SETTINGS
    @given(st.lists(st.tuples(angles, seeds), min_size=1, max_size=6))
    def test_q_block_matches_seven_products(self, cases):
        """The closed-form Q against the seven-product form it replaced,
        relative to the Frobenius norm of Q, on both paths."""
        xi = np.array([twist(np.random.default_rng(s), a) for a, s in cases])
        Q = q_block_batch(xi[:, :3], xi[:, 3:])
        for n, x in enumerate(xi):
            ref = q_seven_products(x[:3], x[3:])
            assert_equal(Q[n], M.q_block(x[:3], x[3:]))
            assert (np.max(np.abs(Q[n] - ref))
                    <= 1e-15 * max(1.0, float(np.linalg.norm(ref))))

    @SETTINGS
    @given(st.lists(seeds, min_size=2, max_size=6))
    def test_group_operations(self, seed_list):
        poses = [random_pose(np.random.default_rng(s)) for s in seed_list]
        A, B = poses[:-1], poses[1:]
        Ra, ta = stack(M.SE3, A)
        Rb, tb = stack(M.SE3, B)
        Rc, tc = M.compose_batch(Ra, ta, Rb, tb)
        Ri, ti = M.inverse_batch(Ra, ta)
        Ad = M.adjoint_inv_se3_batch(Ra, ta)
        for n, (a, b) in enumerate(zip(A, B)):
            ref = M.compose(a, b)
            assert_close(Rc[n], ref.rotation.matrix)
            assert_close(tc[n], ref.translation)
            inv = M.inverse(a)
            assert_close(Ri[n], inv.rotation.matrix)
            assert_close(ti[n], inv.translation)
            assert_close(Ad[n], M.adjoint_inv_se3(a))
        assert_close(M.skew_batch(ta)[0], M.skew(ta[0]))
        for kind, elements in [
                (M.SE3, poses),
                (M.SO3, [T.rotation for T in poses]),
                (M.rn(2), [EuclidPoint(T.translation[:2]) for T in poses])]:
            group = kind.group
            X = stack(kind, elements)
            inverses = group.batch.inverse(X)
            identity = group.parts(group.exp(np.zeros(kind.dim)))
            for n, x in enumerate(elements):
                for part, ref in zip(inverses, group.parts(group.inverse(x))):
                    assert_close(part[n], ref)
            for part, ref in zip(group.batch.compose(X, inverses), identity):
                for row in part:
                    assert_close(row, ref)

    @SETTINGS
    @given(angles, beyond_edge, seeds)
    def test_near_pi_rows_raise(self, inside, outside, seed):
        rng = np.random.default_rng(seed)
        theta = np.array([unit_axis(rng) * inside, unit_axis(rng) * outside])
        R = M.exp_so3_batch(theta)
        with pytest.raises(NearSingularError):
            M.log_so3(Rotation3(R[1]))
        with pytest.raises(NearSingularError, match="row 1"):
            M.log_so3_batch(R)
        with pytest.raises(NearSingularError):
            M.jl_inv_so3(theta[1])
        with pytest.raises(NearSingularError, match="row 1"):
            M.jl_inv_so3_batch(theta)

    @SETTINGS
    @given(angles, beyond_edge, seeds)
    def test_jacobian_pair_near_pi_rows_raise(self, inside, outside, seed):
        rng = np.random.default_rng(seed)
        xi = np.array([twist(rng, inside), twist(rng, outside)])
        M.jl_jr_inv_se3(xi[0])
        with pytest.raises(NearSingularError):
            M.jl_jr_inv_se3(xi[1])
        with pytest.raises(NearSingularError, match="row 1"):
            M.jl_jr_inv_se3_batch(xi)
        with pytest.raises(NearSingularError, match="row 1"):
            M.SO3.group.batch.jl_jr_inv(xi[:, 3:])

    def test_exp_rejects_non_finite_rows(self):
        xi = np.zeros((3, 6))
        xi[2, 4] = np.inf
        with pytest.raises(ValueError):
            M.exp_se3_batch(xi)
        with pytest.raises(ValueError):
            M.exp_so3_batch(xi[:, 3:])


# ---------------------------------------------------------------------------
# Factor families.


def ct_case(values, i, a1, a_eps, ratio, seed, kind=M.SE3):
    """A ct triple whose increment turns by a1 and whose residual by a_eps;
    on SO(3), the rotations of the SE(3) case."""
    rng = np.random.default_rng(seed)
    keys = tuple(VariableKey(3 * i + j, kind, float(3 * i + j))
                 for j in range(3))
    dt1 = rng.uniform(0.1, 2.0)
    T0, xi1, xi_eps = random_pose(rng), twist(rng, a1), twist(rng, a_eps, 0.1)
    if kind == M.SO3:
        T0, xi1, xi_eps = T0.rotation, xi1[3:], xi_eps[3:]
    T1 = M.oplus(kind, T0, xi1)
    # Log(T0^-1 T1) = xi1 below pi, so this is the factor's prediction
    predicted = M.oplus(kind, T1, ratio * xi1)
    T2 = M.oplus(kind, predicted, xi_eps)
    for key, T in zip(keys, (T0, T1, T2)):
        values.set(key, T)
    sigmas = np.array([0.05] * 3 + [0.005] * 3)[-kind.dim:]
    return ct_factor(keys, ConstantTwistSpec(dt1, ratio * dt1,
                                             np.diag(sigmas ** 2)))


class TestFamilies:
    @SETTINGS
    @given(st.lists(st.tuples(angles, angles, ratios, seeds),
                    min_size=1, max_size=4))
    def test_ct_se3(self, cases):
        values = Values()
        factors = [ct_case(values, i, *case) for i, case in enumerate(cases)]
        assert_family_matches_scalar(factors, values)

    @SETTINGS
    @given(st.one_of(angles, beyond_edge), st.one_of(angles, beyond_edge),
           ratios, seeds)
    # a draw that once left J_prev and J_curr 1e-9 apart: the batch applied
    # J_l to rho as a matrix, the scalar kernels as a vector
    @example(a1=3.1412738857760423, a_eps=0.0, ratio=999.999999999999,
             seed=100)
    def test_ct_se3_near_pi(self, a1, a_eps, ratio, seed):
        values = Values()
        factors = [ct_case(values, 0, 0.3, 0.1, 1.0, seed + 1),
                   ct_case(values, 1, a1, a_eps, ratio, seed)]
        assert_family_matches_scalar(factors, values)

    @SETTINGS
    @given(st.lists(st.tuples(st.one_of(angles, beyond_edge),
                              st.one_of(angles, beyond_edge), ratios, seeds),
                    min_size=1, max_size=4))
    def test_ct_so3(self, cases):
        values = Values()
        factors = [ct_case(values, i, *case, kind=M.SO3)
                   for i, case in enumerate(cases)]
        assert_family_matches_scalar(factors, values)

    @SETTINGS
    @given(st.lists(st.tuples(ratios, seeds), min_size=1, max_size=4),
           st.sampled_from([2, 3]))
    def test_ct_rn(self, cases, dim):
        values = Values()
        factors = []
        for i, (ratio, seed) in enumerate(cases):
            rng = np.random.default_rng(seed)
            keys = tuple(rn_key(3 * i + j, dim) for j in range(3))
            for key in keys:
                values.set(key, EuclidPoint(rng.normal(0.0, 5.0, dim)))
            dt1 = rng.uniform(0.1, 2.0)
            factors.append(ct_factor(keys, ConstantTwistSpec(
                dt1, ratio * dt1, np.eye(dim) * 0.01)))
        assert_family_matches_scalar(factors, values)

    @SETTINGS
    @given(st.lists(st.tuples(st.one_of(angles, beyond_edge), seeds),
                    min_size=1, max_size=4))
    def test_relative_pose(self, cases):
        values = Values()
        factors = []
        for i, (angle, seed) in enumerate(cases):
            rng = np.random.default_rng(seed)
            ka, kb = se3_key(2 * i), se3_key(2 * i + 1)
            Ta, Tb = random_pose(rng), random_pose(rng)
            values.set(ka, Ta)
            values.set(kb, Tb)
            # z^-1 Ta^-1 Tb = Exp(xi): the residual turns by `angle`
            z = M.compose(M.compose(M.inverse(Ta), Tb),
                          M.inverse(M.exp_se3(twist(rng, angle))))
            factors.append(relative_pose_factor(
                ka, kb, z, np.diag([0.002 ** 2] * 3 + [0.0005 ** 2] * 3)))
        assert_family_matches_scalar(factors, values)

    @SETTINGS
    @given(st.lists(seeds, min_size=1, max_size=4), st.booleans())
    def test_usbl(self, seed_list, se3_target):
        values = Values()
        factors = []
        for i, seed in enumerate(seed_list):
            rng = np.random.default_rng(seed)
            kc = se3_key(2 * i)
            kt = se3_key(2 * i + 1) if se3_target else rn_key(2 * i + 1)
            values.set(kc, random_pose(rng))
            values.set(kt, random_pose(rng) if se3_target
                       else EuclidPoint(rng.normal(0.0, 5.0, 3)))
            factors.append(usbl_factor(kc, kt, rng.normal(0.0, 5.0, 3),
                                       np.eye(3) * 1.5 ** 2))
        assert_family_matches_scalar(factors, values)

    @SETTINGS
    @given(st.lists(st.tuples(st.one_of(angles, beyond_edge), seeds),
                    min_size=1, max_size=4))
    def test_prior_se3(self, cases):
        values = Values()
        factors = []
        for i, (angle, seed) in enumerate(cases):
            rng = np.random.default_rng(seed)
            mean = random_pose(rng)
            key = se3_key(i)
            values.set(key, M.oplus(M.SE3, mean, twist(rng, angle)))
            factors.append(prior_factor(key, mean, np.eye(6) * 0.01))
        assert_family_matches_scalar(factors, values)

    @SETTINGS
    @given(st.lists(st.tuples(st.one_of(angles, beyond_edge), seeds),
                    min_size=1, max_size=4))
    def test_prior_so3(self, cases):
        values = Values()
        factors = []
        for i, (angle, seed) in enumerate(cases):
            rng = np.random.default_rng(seed)
            mean = random_pose(rng).rotation
            key = VariableKey(i, M.SO3, float(i))
            values.set(key, M.oplus(M.SO3, mean, unit_axis(rng) * angle))
            factors.append(prior_factor(key, mean, np.eye(3) * 0.01))
        assert_family_matches_scalar(factors, values)

    @SETTINGS
    @given(st.lists(seeds, min_size=1, max_size=4))
    def test_prior_rn(self, seed_list):
        values = Values()
        factors = []
        for i, seed in enumerate(seed_list):
            rng = np.random.default_rng(seed)
            key = rn_key(i)
            values.set(key, EuclidPoint(rng.normal(size=3)))
            factors.append(prior_factor(key, EuclidPoint(rng.normal(size=3)),
                                        np.eye(3) * 4.0))
        assert_family_matches_scalar(factors, values)

    # tilts around 90 degrees, and on both sides of the inversion guard
    @SETTINGS
    @given(st.lists(st.tuples(st.one_of(st.floats(np.pi / 2 - 1e-2,
                                                  np.pi / 2 + 1e-2),
                                        st.floats(PI_EDGE - 1e-7,
                                                  PI_EDGE + 1e-7)),
                              seeds),
                    min_size=1, max_size=4))
    def test_roll_pitch_near_vertical_and_inverted(self, cases):
        values = Values()
        factors = []
        for i, (tilt, seed) in enumerate(cases):
            rng = np.random.default_rng(seed)
            heading = rng.uniform(-np.pi, np.pi)
            axis = np.array([np.cos(heading), np.sin(heading), 0.0])
            R = (M.exp_so3(np.array([0.0, 0.0, rng.uniform(-np.pi, np.pi)]))
                 .matrix @ M.exp_so3(tilt * axis).matrix)
            key = se3_key(i)
            values.set(key, Pose3(Rotation3(R), rng.normal(size=3)))
            factors.append(roll_pitch_factor(key, RollPitchSpec()))
        assert_family_matches_scalar(factors, values)

    @SETTINGS
    @given(st.lists(st.tuples(seeds, st.sampled_from(["DOWN", "UP"])),
                    min_size=1, max_size=4))
    def test_boundary(self, cases):
        values = Values()
        factors = []
        for i, (seed, direction) in enumerate(cases):
            rng = np.random.default_rng(seed)
            kT, kp = se3_key(2 * i), rn_key(2 * i + 1)
            values.set(kT, random_pose(rng))
            values.set(kp, EuclidPoint(rng.normal(size=3)))
            factors += boundary_factors(kT, kp, direction, np.eye(3) * 1e-4)
        assert_family_matches_scalar(factors, values)

    def test_ct_rn_batch_is_exact(self):
        """Criterion 2 on the batch: (alpha I, -(1 + alpha) I, I) exactly."""
        rng = np.random.default_rng(7)
        keys = tuple(rn_key(j) for j in range(3))
        values = Values({k: EuclidPoint(rng.normal(size=3)) for k in keys})
        factors = [ct_factor(keys, ConstantTwistSpec(dt1, dt2, np.eye(3)))
                   for dt1, dt2 in rng.uniform(0.1, 5.0, (100, 2))]
        params = (np.array([f.family_params[0] for f in factors]),)
        states = [stack(k.kind, [values.get(k)] * len(factors)) for k in keys]
        _, (J_prev, J_curr, J_next) = evaluate(factors[0].family, params,
                                               states)
        for n, (alpha,) in enumerate(f.family_params for f in factors):
            np.testing.assert_array_equal(J_prev[n], alpha * np.eye(3))
            np.testing.assert_array_equal(J_curr[n], -(1.0 + alpha) * np.eye(3))
            np.testing.assert_array_equal(J_next[n], np.eye(3))


# ---------------------------------------------------------------------------
# Retraction.


def mixed_values(rng, angles_se3):
    values = Values()
    keys = [se3_key(i) for i in range(len(angles_se3))]
    for key in keys:
        values.set(key, random_pose(rng))
    so3 = [VariableKey(100 + i, M.SO3, float(i)) for i in range(2)]
    for key in so3:
        values.set(key, M.exp_so3(unit_axis(rng) * rng.uniform(0.0, 3.0)))
    rn = [rn_key(200), rn_key(201, dim=2)]
    for key in rn:
        values.set(key, EuclidPoint(rng.normal(size=key.kind.dim)))
    order = keys + so3 + rn
    rng.shuffle(order)
    offsets, col = {}, 0
    for key in order:
        offsets[key] = col
        col += key.kind.dim
    delta = rng.normal(size=col)
    for key, angle in zip(keys, angles_se3):
        c0 = offsets[key]
        delta[c0 + 3:c0 + 6] = unit_axis(rng) * angle
    return values, offsets, delta


def retract(values, offsets, delta):
    """_retract_all on the stacks of `values`, returned as Values."""
    layout = _StateLayout(offsets)
    return layout.values(_retract_all(layout.stack(values), layout.columns,
                                      delta))


class TestRetraction:
    @SETTINGS
    @given(st.lists(st.one_of(angles, st.floats(3.0, 10.0)),
                    min_size=1, max_size=5), seeds)
    def test_matches_per_key_oplus(self, angles_se3, seed):
        values, offsets, delta = mixed_values(np.random.default_rng(seed),
                                              angles_se3)
        out = retract(values, offsets, delta)
        assert set(out.keys()) == set(values.keys())
        for key, c0 in offsets.items():
            ref = M.oplus(key.kind, values.get(key), delta[c0:c0 + key.kind.dim])
            got = out.get(key)
            assert type(got) is type(ref)
            if key.kind.tag == "SE3":
                assert_close(got.rotation.matrix, ref.rotation.matrix)
                assert_close(got.translation, ref.translation)
            elif key.kind.tag == "SO3":
                assert_close(got.matrix, ref.matrix)
            else:
                assert_close(got.coords, ref.coords)

    @pytest.mark.parametrize("tag", ["SE3", "SO3"])
    def test_non_finite_step_raises_like_oplus(self, tag):
        values, offsets, delta = mixed_values(np.random.default_rng(3),
                                              [0.5, 1.0])
        key = next(k for k in offsets if k.kind.tag == tag)
        delta[offsets[key]] = np.nan
        with pytest.raises(ValueError):
            M.oplus(key.kind, values.get(key),
                    delta[offsets[key]:offsets[key] + key.kind.dim])
        with pytest.raises(ValueError):
            retract(values, offsets, delta)

    def test_non_finite_rn_step_propagates_like_oplus(self):
        values, offsets, delta = mixed_values(np.random.default_rng(4), [0.5])
        key = next(k for k in offsets if k.kind.tag == "RN")
        delta[offsets[key]] = np.nan
        out = retract(values, offsets, delta)
        assert np.isnan(out.get(key).coords[0])
