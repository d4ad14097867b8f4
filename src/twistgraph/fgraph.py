"""Sparse nonlinear least-squares factor graph on mixed manifolds.

Variables live on SO(3), SE(3) or R^n; factors contribute Mahalanobis-weighted
residuals; optimization is Levenberg-Marquardt with retraction-based updates
on each variable's tangent space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dpbtrf
from scipy.sparse.linalg import splu

from . import manifold
from .manifold import ManifoldKind


class UnderconstrainedGraphError(RuntimeError):
    """The normal equations are rank deficient (gauge not fixed)."""

    def __init__(self, message: str, suspect_keys: Sequence["VariableKey"] = ()):
        super().__init__(message)
        self.suspect_keys = list(suspect_keys)


@dataclass(frozen=True)
class VariableKey:
    id: int
    kind: ManifoldKind
    timestamp: float = 0.0


class Values:
    """Map from VariableKey to a manifold element of the matching kind."""

    def __init__(self, data: dict | None = None):
        self._data = dict(data) if data else {}

    def set(self, key: VariableKey, element) -> None:
        self._data[key] = element

    def get(self, key: VariableKey):
        try:
            return self._data[key]
        except KeyError:
            raise KeyError(f"no value stored for variable {key}") from None

    def __contains__(self, key: VariableKey) -> bool:
        return key in self._data

    def keys(self):
        return self._data.keys()

    def copy(self) -> "Values":
        return Values(self._data)

    def retracted(self, key: VariableKey, delta: np.ndarray) -> "Values":
        out = self.copy()
        out.set(key, manifold.oplus(key.kind, self.get(key), delta))
        return out

    def __len__(self):
        return len(self._data)


@lru_cache(maxsize=256)
def _sqrt_info(shape: tuple, data: bytes) -> np.ndarray:
    """Read-only L^-1 for the covariance L L^T with these shape and bytes.

    Graphs hand the same few covariances to thousands of factors, so each is
    checked and factored once. Errors are not cached: a bad covariance
    raises on every call.
    """
    covariance = np.frombuffer(data).reshape(shape)
    if not np.isfinite(covariance).all():
        raise ValueError("covariance must be finite")
    if not np.allclose(covariance, covariance.T, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    L = np.linalg.cholesky(covariance)  # raises on non-SPD
    # whiten(e) = L^-1 e, so |whiten(e)|^2 = e^T Sigma^-1 e
    W = np.linalg.inv(L)
    W.flags.writeable = False
    return W


class NoiseModel:
    """Gaussian noise with a square-root information factor shared by every
    noise model of an equal covariance (read-only)."""

    __slots__ = ("covariance", "sqrt_info")

    def __init__(self, covariance: np.ndarray):
        covariance = np.asarray(covariance, dtype=float)
        self.sqrt_info = _sqrt_info(covariance.shape, covariance.tobytes())
        self.covariance = covariance

    @staticmethod
    def from_sigmas(sigmas) -> "NoiseModel":
        sigmas = np.asarray(sigmas, dtype=float)
        return NoiseModel(np.diag(sigmas ** 2))

    @staticmethod
    def isotropic(dim: int, sigma: float) -> "NoiseModel":
        return NoiseModel(np.eye(dim) * sigma ** 2)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def whiten(self, e: np.ndarray) -> np.ndarray:
        return self.sqrt_info @ e


@dataclass
class Factor:
    """Residual-plus-Jacobians unit binding 1-3 variable keys.

    residual_fn(values) -> r (dim,)
    jacobian_fn(values) -> tuple of per-key matrices (dim x key.kind.dim)

    A factor with a `family` is linearized in a batch with the other factors
    of its family (see Linearizer); family_params are its own parameters,
    which the batch stacks row by row.
    """

    keys: tuple[VariableKey, ...]
    residual_fn: Callable[[Values], np.ndarray]
    jacobian_fn: Callable[[Values], tuple[np.ndarray, ...]]
    noise: NoiseModel
    name: str = "factor"
    # optional fused path returning (residual, jacobians) in one evaluation
    combined_fn: Callable[[Values], tuple] | None = None
    # optional batched path: family(params, states) -> (r (N, dim),
    # per-key Jacobians (N, dim, key.kind.dim)) for N factors at once
    family: Callable | None = None
    family_params: tuple = ()

    @property
    def dim(self) -> int:
        return self.noise.dim


class FactorGraph:
    def __init__(self):
        self.factors: list[Factor] = []
        self.variables: set[VariableKey] = set()

    def add(self, factor: Factor) -> None:
        self.factors.append(factor)
        self.variables.update(factor.keys)

    def extend(self, factors) -> None:
        for f in factors:
            self.add(f)


# LM damping: a rejected try multiplies lambda by LAMBDA_UP, an accepted one
# divides it by LAMBDA_DOWN, and an iteration gives up past MAX_LAMBDA
LAMBDA_UP = 10.0
LAMBDA_DOWN = 10.0
MAX_LAMBDA = 1e12


@dataclass
class SolverSettings:
    max_iterations: int = 100
    rel_cost_tol: float = 1e-9
    dx_tol: float = 1e-10
    init_lambda: float = 1e-4


@dataclass
class SolveReport:
    final_cost: float = 0.0
    iterations: int = 0
    converged: bool = False
    cost_trace: list = field(default_factory=list)


def total_cost(graph: FactorGraph, values: Values) -> float:
    cost = 0.0
    for f in graph.factors:
        w = f.noise.whiten(f.residual_fn(values))
        cost += float(w @ w)
    return cost


def variable_offsets(graph: FactorGraph) -> tuple[dict[VariableKey, int], int]:
    """Tangent-space column offsets in timestamp order."""
    ordered = sorted(graph.variables, key=lambda k: (k.timestamp, k.id))
    offsets = {}
    pos = 0
    for key in ordered:
        offsets[key] = pos
        pos += key.kind.dim
    return offsets, pos


def _describe(f: Factor) -> str:
    where = ", ".join(f"id={k.id}@t={k.timestamp:g}" for k in f.keys)
    return f"{f.name} (variables {where})"


def _stack_states(kind: ManifoldKind, elements: list):
    """SE(3) elements as an (R, t) stack, SO(3) elements as (N, 3, 3)
    matrices, R^n elements as (N, n) coordinates."""
    if kind.tag == "SE3":
        return (np.array([e.rotation.matrix for e in elements]),
                np.array([e.translation for e in elements]))
    if kind.tag == "SO3":
        return np.array([e.matrix for e in elements])
    return np.array([e.coords for e in elements])


def _take(states, rows: np.ndarray):
    if isinstance(states, tuple):
        return tuple(s[rows] for s in states)
    return states[rows]


class _StateLayout:
    """Every variable in one `_stack_states` stack per manifold kind.

    The keys of a kind sit in column order: `row[key]` is a key's row in
    its kind's stack and `columns[kind]` holds each row's tangent columns.
    """

    def __init__(self, offsets: dict[VariableKey, int]):
        self.keys: dict[ManifoldKind, list[VariableKey]] = {}
        for key in sorted(offsets, key=offsets.__getitem__):
            self.keys.setdefault(key.kind, []).append(key)
        self.row = {key: i for keys in self.keys.values()
                    for i, key in enumerate(keys)}
        self.columns = {
            kind: np.array([offsets[k] for k in keys])[:, None]
            + np.arange(kind.dim) for kind, keys in self.keys.items()}

    def stack(self, values: Values) -> dict:
        return {kind: _stack_states(kind, [values.get(k) for k in keys])
                for kind, keys in self.keys.items()}

    def values(self, states: dict, base: Values | None = None) -> Values:
        """`base` (default empty) with every variable set from `states`."""
        out = Values() if base is None else base.copy()
        for kind, keys in self.keys.items():
            X = states[kind]
            if kind.tag == "SE3":
                elements = map(manifold.Pose3, map(manifold.Rotation3, X[0]),
                               X[1])
            elif kind.tag == "SO3":
                elements = map(manifold.Rotation3, X)
            else:
                elements = map(manifold.EuclidPoint, X)
            out._data.update(zip(keys, elements))
        return out


@dataclass
class _Batch:
    """The factors of one family over one tuple of key kinds."""

    family: Callable
    params: tuple  # family_params stacked over the factors
    sqrt_info: np.ndarray  # (N, d, d)
    slots: list  # per key: (kind, row of each factor's variable in its stack)
    rows: np.ndarray  # residual rows, (N * d,)
    cells: np.ndarray  # COO data positions of the Jacobian blocks, flat


class Linearizer:
    """Evaluates the whitened Jacobian with a precomputed sparsity pattern.

    The block structure never changes between iterations, so the CSR
    layout (the COO -> CSR permutation, `indices` and `indptr`) is built
    once and only the numeric entries are refreshed. Factors that carry a
    family are evaluated in one batch per (family, key kinds, dim) group
    and scattered into their rows and COO data positions; the others are
    evaluated one by one.

    The same pattern fixes J^T J's structure: `bandwidth` is its lower
    bandwidth, and `normal_band` builds that band from the whitened blocks.
    Timestamp order keeps the band of a smoothing graph narrow; a variable
    bound across all times (a static one linked to every keyframe) widens
    it to the whole graph, (bandwidth + 1) * columns entries.
    """

    def __init__(self, graph: FactorGraph):
        offsets, _ = variable_offsets(graph)
        self.graph = graph
        self.offsets = offsets
        self.layout = _StateLayout(offsets)
        self.total_cols = sum(k.kind.dim for k in offsets)
        self.total_rows = sum(f.dim for f in graph.factors)

        # (data position, first row, rows, first column, columns, factor)
        blocks = []
        self._entries = []  # (factor, res row slice, per-key data slices)
        grouped: dict[tuple, list] = {}
        pos = 0
        row0 = 0
        for i, f in enumerate(graph.factors):
            d = f.dim
            spans = []
            for key in f.keys:
                dk = key.kind.dim
                blocks.append((pos, row0, d, offsets[key], dk, i))
                spans.append(slice(pos, pos + d * dk))
                pos += d * dk
            entry = (f, slice(row0, row0 + d), spans)
            self._entries.append(entry)
            if f.family is not None:
                group = (f.family, tuple(k.kind for k in f.keys), d)
                grouped.setdefault(group, []).append(entry)
            row0 += d
        # Each block is row-major: entry j of a d x dk block sits at row
        # row0 + j // dk and column c0 + j % dk.
        rows = np.empty(pos, dtype=int)
        cols = np.empty(pos, dtype=int)
        blocks = np.array(blocks, dtype=int).reshape(-1, 6)
        for d, dk in {(b[2], b[4]) for b in blocks.tolist()}:
            same = blocks[(blocks[:, 2] == d) & (blocks[:, 4] == dk)]
            j = np.arange(d * dk)
            at = same[:, :1] + j
            rows[at] = same[:, 1:2] + j // dk
            cols[at] = same[:, 3:4] + j % dk
        self._csr_layout(rows, cols)
        # a row's columns ascend, so its span is its last minus its first
        self.bandwidth = int(np.max(
            self._indices[self._indptr[1:] - 1]
            - self._indices[self._indptr[:-1]], initial=0))
        _, first = np.unique(blocks[:, 5], return_index=True)
        self._band_layout(blocks[first, 1], blocks[first, 2])
        self._data = np.empty(pos)
        self._res = np.empty(row0)

        self._loose = [e for e in self._entries if e[0].family is None]
        self._batches = []
        for (family, kinds, d), entries in grouped.items():
            fs = [f for f, _, _ in entries]
            slots = [(kind, np.array([self.layout.row[f.keys[i]] for f in fs]))
                     for i, kind in enumerate(kinds)]
            # each factor's blocks sit back to back in the COO data
            starts = np.array([spans[0].start for _, _, spans in entries])
            width = d * sum(k.dim for k in kinds)
            self._batches.append(_Batch(
                family=family,
                params=tuple(np.array(p) for p in zip(
                    *(f.family_params for f in fs))),
                sqrt_info=np.array([f.noise.sqrt_info for f in fs]),
                slots=slots,
                rows=(np.array([r.start for _, r, _ in entries])[:, None]
                      + np.arange(d)).ravel(),
                cells=(starts[:, None] + np.arange(width)).ravel()))

    def _csr_layout(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """The COO -> CSR permutation of the Jacobian's entries.

        `_order` picks each distinct (row, column) cell's first COO entry in
        CSR order; a factor binding one key twice has further entries on
        the same cells, which `_dup_src` adds onto CSR positions `_dup_dst`.
        Every residual row belongs to one factor, so a factor's CSR entries
        form one contiguous d x w block with its columns in ascending order.
        """
        order = np.argsort(rows * self.total_cols + cols, kind="stable")
        r, c = rows[order], cols[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        self._order = order[first]
        self._dup_src = order[~first]
        self._dup_dst = (np.cumsum(first) - 1)[~first]
        index = np.int32 if max(len(order), self.total_cols) < 2 ** 31 \
            else np.int64  # what scipy would choose, so it copies nothing
        self._indices = c[first].astype(index)
        self._indptr = np.zeros(self.total_rows + 1, dtype=index)
        np.cumsum(np.bincount(r[first], minlength=self.total_rows),
                  out=self._indptr[1:])

    def _band_layout(self, first_rows: np.ndarray, dims: np.ndarray) -> None:
        """Gather cells and band targets of every factor's X^T X.

        Factors are grouped by (rows d, CSR width w): `cells` gathers each
        factor's d x w block X from the CSR data and `cells_t` its
        transpose. Entry (p, q) of X^T X adds into band[i - j, j] for
        i = col_p >= j = col_q, kept at flat index j * (bw + 1) + i - j of
        the (n, bw + 1) array whose transpose is the band; the entries with
        col_p < col_q go to one extra bin past the end.
        """
        indptr, indices = self._indptr, self._indices
        n, m = self.total_cols, self.bandwidth + 1
        widths = indptr[first_rows + 1] - indptr[first_rows]
        self._band_groups = []
        targets = []
        for d, w in sorted(set(zip(dims.tolist(), widths.tolist()))):
            starts = indptr[first_rows[(dims == d) & (widths == w)]]
            cells = starts[:, None, None] + np.arange(d * w).reshape(d, w)
            cols = indices[cells[:, 0]].astype(int)
            ci, cj = cols[:, :, None], cols[:, None, :]
            target = ci + cj * (m - 1)
            target[ci < cj] = n * m
            targets.append(target.ravel())
            self._band_groups.append(
                (cells.ravel(), cells.transpose(0, 2, 1).ravel(), d, w))
        self._band_targets = np.concatenate([np.empty(0, int), *targets])
        # Reused buffers: fresh arrays of this size cost more in page faults
        # than the products themselves.
        self._band_products = np.empty(len(self._band_targets))
        self._band_scratch = np.empty(
            (2, max((len(cells) for cells, *_ in self._band_groups),
                    default=0)))

    def __call__(self, values):
        """(J, r) at `values`: a Values, or the stacks of `layout.stack`."""
        if isinstance(values, Values):
            states = self.layout.stack(values)
        else:
            states, values = values, None
        try:
            self._batched(states)
            if self._loose:
                self._per_factor(self._loose, values if values is not None
                                 else self.layout.values(states))
        except manifold.NearSingularError:
            # Redo it factor by factor in graph order, so the error names
            # the first offending factor, as the per-factor path alone would.
            self._per_factor(self._entries, values if values is not None
                             else self.layout.values(states))
        data = self._data[self._order]
        if self._dup_src.size:
            np.add.at(data, self._dup_dst, self._data[self._dup_src])
        # the layout arrays are copied: a caller may edit J's in place
        J = sp.csr_matrix((data, self._indices.copy(), self._indptr.copy()),
                          shape=(self.total_rows, self.total_cols))
        return J, self._res.copy()

    def normal_band(self, J: sp.csr_matrix) -> np.ndarray:
        """J^T J's lower band, band[i - j, j] = (J^T J)[i, j], from J's
        blocks. It is Fortran-ordered, the layout LAPACK's banded routines
        take without a copy."""
        X_t, X = self._band_scratch
        at = 0
        for cells, cells_t, d, w in self._band_groups:
            size = len(cells)
            N = size // (d * w)
            np.matmul(
                np.take(J.data, cells_t, out=X_t[:size],
                        mode="clip").reshape(N, w, d),
                np.take(J.data, cells, out=X[:size],
                        mode="clip").reshape(N, d, w),
                out=self._band_products[at:at + N * w * w].reshape(N, w, w))
            at += N * w * w
        n, m = self.total_cols, self.bandwidth + 1
        band = np.bincount(self._band_targets, weights=self._band_products,
                           minlength=n * m + 1)
        return band[:n * m].reshape(n, m).T

    def _batched(self, states: dict) -> None:
        for b in self._batches:
            r, Js = b.family(b.params,
                             [_take(states[kind], i) for kind, i in b.slots])
            W = b.sqrt_info
            self._res[b.rows] = (W @ r[:, :, None]).ravel()
            self._data[b.cells] = np.concatenate(
                [(W @ J).reshape(len(W), -1) for J in Js], axis=1).ravel()

    def _per_factor(self, entries, values: Values) -> None:
        data, res = self._data, self._res
        for f, rspan, spans in entries:
            try:
                if f.combined_fn is not None:
                    r, Js = f.combined_fn(values)
                else:
                    r = f.residual_fn(values)
                    Js = f.jacobian_fn(values)
            except manifold.NearSingularError as err:
                raise manifold.NearSingularError(
                    f"linearization failed in {_describe(f)}: {err}"
                ) from err
            W = f.noise.sqrt_info
            res[rspan] = W @ r
            for span, J in zip(spans, Js):
                data[span] = (W @ J).ravel()


def linearize(graph: FactorGraph, values: Values):
    """Whitened block-sparse Jacobian and residual at the current estimate.

    Returns (J, r, offsets) with J (total_res_dim x total_tan_dim) in CSR form.
    """
    lin = Linearizer(graph)
    J, r = lin(values)
    return J, r, lin.offsets


def _retract_all(states: dict, columns: dict, delta: np.ndarray) -> dict:
    """X (+) d for every variable, one batched pass per manifold kind.

    `states` and the result are `_StateLayout` stacks; `columns[kind]`
    holds the tangent columns of each row of that kind's stack.
    """
    out = {}
    for kind, X in states.items():
        steps = delta[columns[kind]]
        if kind.tag == "SE3":
            out[kind] = manifold.compose_batch(*X,
                                               *manifold.exp_se3_batch(steps))
        elif kind.tag == "SO3":
            out[kind] = X @ manifold.exp_so3_batch(steps)
        else:
            out[kind] = X + steps
    return out


def _check_gauge(band: np.ndarray, offsets: dict[VariableKey, int]) -> None:
    """Raise UnderconstrainedGraphError if the undamped system is singular.

    `band` is J^T J's lower band. It is Jacobi-equilibrated first, so wildly
    different factor strengths (tight anchors vs soft smoothing terms) share
    one pivot scale, and a tiny-shifted copy is factored by a banded
    Cholesky: the shift keeps exactly singular systems factorizable while
    null directions show up as shift-sized squared pivots (in exact
    arithmetic, the pivots of an unpivoted LU). A factorization that stops
    at a column names that column too.
    """
    diag = band[0]
    s = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    n = band.shape[1]
    scaled = band * s
    for k in range(len(band)):  # band[k, j] couples columns j + k and j
        scaled[k, :n - k] *= s[k:]
    shift = 1e-12
    scaled[0] += shift
    L, info = dpbtrf(scaled, lower=1, overwrite_ab=1)
    bad = L[0] * L[0] <= 1e3 * shift
    if info > 0:  # stopped at column info - 1; no pivot past it is computed
        bad[info:] = False
        bad[info - 1] = True
    if not bad.any():
        return
    suspects = [key for key, c0 in offsets.items()
                if bad[c0:c0 + key.kind.dim].any()]
    names = ", ".join(f"id={k.id}@t={k.timestamp:g}" for k in sorted(
        suspects, key=lambda k: (k.timestamp, k.id)))
    raise UnderconstrainedGraphError(
        f"underconstrained graph: null space touches variables [{names}]",
        suspects,
    )


def _damped_solver(band: np.ndarray):
    """solve(lam, b) = (J^T J + lam I)^-1 b.

    `band` is J^T J's lower band (band[i - j, j] = (J^T J)[i, j]), which
    each call factors by a banded Cholesky; it raises
    np.linalg.LinAlgError when the damped system does not factor.
    """
    def solve(lam: float, b: np.ndarray) -> np.ndarray:
        ab = band.copy(order="K")
        ab[0] += lam
        return solveh_banded(ab, b, overwrite_ab=True, lower=True,
                             check_finite=False)
    return solve


def optimize(graph: FactorGraph, initial: Values,
             settings: SolverSettings | None = None) -> tuple[Values, SolveReport]:
    """Levenberg-Marquardt with multiplicative damping on the tangent space."""
    settings = settings or SolverSettings()
    if not settings.init_lambda > 0:
        # damping grows by multiplication, so it could never leave 0 or
        # turn positive, and a failed try would be retried forever
        raise ValueError(
            f"init_lambda must be positive, got {settings.init_lambda!r}")
    report = SolveReport()
    if not graph.factors:
        report.converged = True
        return initial.copy(), report

    missing = [k for k in graph.variables if k not in initial]
    if missing:
        raise KeyError(f"initial values missing for variables: {missing}")

    lam = settings.init_lambda

    # One linearization per cost evaluation: the whitened residual norm is the
    # cost, and an accepted candidate's Jacobian seeds the next iteration.
    # The iterate stays in the Linearizer's stacks until the solve returns.
    lin = Linearizer(graph)
    layout = lin.layout
    states = layout.stack(initial)
    J, r = lin(states)
    cost = float(r @ r)
    report.cost_trace.append(cost)
    for it in range(settings.max_iterations):
        g = J.T @ r
        band = lin.normal_band(J)
        if it == 0:
            _check_gauge(band, lin.offsets)

        solve = _damped_solver(band)
        accepted = False
        while lam <= MAX_LAMBDA:
            try:
                delta = solve(lam, -g)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_UP
                continue
            candidate = _retract_all(states, layout.columns, delta)
            try:
                J_cand, r_cand = lin(candidate)
            except manifold.NearSingularError:
                # candidate stepped onto a singular chart; damp harder
                lam *= LAMBDA_UP
                continue
            new_cost = float(r_cand @ r_cand)
            if np.isfinite(new_cost) and new_cost <= cost:
                states, J, r = candidate, J_cand, r_cand
                prev_cost = cost
                cost = new_cost
                lam = max(lam / LAMBDA_DOWN, 1e-15)
                accepted = True
                break
            lam *= LAMBDA_UP
        report.iterations = it + 1
        if not accepted:
            break
        report.cost_trace.append(cost)
        rel_drop = (prev_cost - cost) / max(prev_cost, 1e-300)
        if rel_drop < settings.rel_cost_tol or np.max(np.abs(delta)) < settings.dx_tol:
            report.converged = True
            break

    if not report.converged and len(report.cost_trace) >= 2:
        # A rejected final step with an already-tiny gradient still counts.
        rel = (report.cost_trace[-2] - report.cost_trace[-1]) / max(
            report.cost_trace[-2], 1e-300)
        report.converged = rel < settings.rel_cost_tol
    report.final_cost = cost
    return layout.values(states, base=initial), report


def marginal_covariance(graph: FactorGraph, values: Values,
                        key: VariableKey) -> np.ndarray:
    """Block of (J^T J)^-1 for one variable at the current estimate."""
    lin = Linearizer(graph)
    J, _ = lin(values)
    _check_gauge(lin.normal_band(J), lin.offsets)
    JtJ = (J.T @ J).tocsc()
    lu = splu(JtJ)
    c0 = lin.offsets[key]
    d = key.kind.dim
    cov = np.empty((d, d))
    for i in range(d):
        e = np.zeros(JtJ.shape[0])
        e[c0 + i] = 1.0
        cov[:, i] = lu.solve(e)[c0:c0 + d]
    return 0.5 * (cov + cov.T)
