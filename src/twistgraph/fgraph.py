"""Sparse nonlinear least-squares factor graph on mixed manifolds.

Variables live on SO(3), SE(3) or R^n; factors contribute Mahalanobis-weighted
residuals; optimization is Levenberg-Marquardt with retraction-based updates
on each variable's tangent space.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, solveh_banded
from scipy.linalg.lapack import dpbtrf
# Nothing here factors with splu; it stays a module attribute because the
# traced benchmark run (perfbench/instrument.py) patches `fgraph.splu`.
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

    def __post_init__(self):
        # Hashed once: the solver indexes dicts and sets by key thousands of
        # times, and the generated hash would hash the kind dataclass anew.
        object.__setattr__(self, "_hash",
                           hash((self.id, self.kind, self.timestamp)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so the hash is the unpickling process's
        return VariableKey, (self.id, self.kind, self.timestamp)


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

    A built-in factor is a view of one row of a FactorTable: its `family`
    evaluates a table's rows as one batch, and family_params are the row's
    params. A custom factor has no family and is evaluated through its
    closures.
    """

    keys: tuple[VariableKey, ...]
    residual_fn: Callable[[Values], np.ndarray]
    jacobian_fn: Callable[[Values], tuple[np.ndarray, ...]]
    noise: NoiseModel
    name: str = "factor"
    # optional fused path returning (residual, jacobians) in one evaluation
    combined_fn: Callable[[Values], tuple] | None = None
    family: Callable | None = None
    family_params: tuple = ()

    @property
    def dim(self) -> int:
        return self.noise.dim


@dataclass(eq=False)
class FactorTable:
    """Built-in factors of one family over one tuple of key kinds, one per
    row: the form in which a FactorGraph holds them and the Linearizer
    evaluates them, as one batch.

    Row i binds keys[s][i] in key slot s, takes row i of each array of the
    family's stacked `params`, and has the noise model noise[which[i]].
    `order` ranks the rows among those added to a graph together; in a
    graph's own tables it is each row's position in graph order.
    `family(params, states)` evaluates every row on stacks, and
    `family.view(table, i)` makes row i's Factor.
    """

    family: Callable
    kinds: tuple[ManifoldKind, ...]
    keys: tuple[list, ...]
    params: tuple
    noise: list[NoiseModel]  # each distinct one once
    which: np.ndarray
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.which)

    @property
    def dim(self) -> int:
        return self.noise[0].dim


def _concat(chunks) -> FactorTable:
    """The rows of the (table, first position) pairs `chunks` in one table,
    each row's order made its position."""
    tables = [t for t, _ in chunks]
    rows = [len(t) for t in tables]
    first = tables[0]
    return FactorTable(
        first.family, first.kinds,
        keys=tuple(list(chain.from_iterable(col))
                   for col in zip(*(t.keys for t in tables))),
        params=tuple(map(np.concatenate, zip(*(t.params for t in tables)))),
        noise=list(chain.from_iterable(t.noise for t in tables)),
        which=np.concatenate([t.which for t in tables])
        + np.repeat(_starts([len(t.noise) for t in tables])[:-1], rows),
        order=np.concatenate([t.order for t in tables])
        + np.repeat([start for _, start in chunks], rows))


class FactorGraph:
    """Factors in graph order. Built-in factors are held as the rows of one
    FactorTable per (family, key kinds, dim) and custom factors stay loose;
    `factors` lists them all, as views made on demand."""

    def __init__(self):
        self.variables: set[VariableKey] = set()
        # (family, kinds, dim) -> (table, position of its order 0) pairs, and
        # -> (position, keys, params, noise) of the views added one by one
        self._tables: dict[tuple, list] = {}
        self._rows: dict[tuple, list] = {}
        self._loose: list[tuple[int, Factor]] = []  # (position, factor)
        self._size = 0
        self._where = None

    def __len__(self) -> int:
        return self._size

    @property
    def factors(self) -> Sequence[Factor]:
        return _Views(self)

    def add(self, item) -> None:
        """Append a Factor, or the rows of a FactorTable or of a list of
        tables, which take their places among themselves by their `order`.
        A built-in factor's row joins its table; a custom factor stays
        loose."""
        self._where = None
        if isinstance(item, Factor):
            if item.family is None:
                self._loose.append((self._size, item))
            else:
                kinds = tuple(key.kind for key in item.keys)
                self._rows.setdefault((item.family, kinds, item.dim), []).append(
                    (self._size, item.keys, item.family_params, item.noise))
            self.variables.update(item.keys)
            self._size += 1
            return
        tables = [item] if isinstance(item, FactorTable) else list(item)
        placed = np.sort(np.concatenate(
            [t.order for t in tables] or [np.empty(0, np.intp)]))
        if not np.array_equal(placed, np.arange(len(placed))):
            raise ValueError("the rows added together must be ranked 0, 1, "
                             "... by their tables' order")
        for t in tables:
            self._tables.setdefault((t.family, t.kinds, t.dim), []).append(
                (t, self._size))
            for keys in t.keys:
                self.variables.update(keys)
        self._size += len(placed)

    def extend(self, factors) -> None:
        for f in factors:
            self.add(f)

    def tables(self) -> list[FactorTable]:
        """One table per (family, key kinds, dim), each row's order its
        position in graph order."""
        for (family, kinds, _), rows in self._rows.items():
            at, keys, params, noise = zip(*rows)
            self._tables.setdefault((family, kinds, _), []).append((
                FactorTable(family, kinds, tuple(map(list, zip(*keys))),
                            tuple(np.array(p) for p in zip(*params)),
                            list(noise), np.arange(len(rows)), np.array(at)),
                0))
        self._rows.clear()
        for signature, chunks in self._tables.items():
            if len(chunks) > 1 or chunks[0][1]:
                self._tables[signature] = [(_concat(chunks), 0)]
        return [chunks[0][0] for chunks in self._tables.values()]

    def _located(self) -> list:
        """Each position's factor: a loose Factor or a (table, row) pair."""
        if self._where is None:
            where = [None] * self._size
            for t in self.tables():
                for i, p in enumerate(t.order.tolist()):
                    where[p] = (t, i)
            for p, f in self._loose:
                where[p] = f
            self._where = where
        return self._where


class _Views(Sequence):
    """A graph's factors in graph order, each made when it is read: a loose
    factor as added, a table's row as its view."""

    def __init__(self, graph: FactorGraph):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph)

    def __getitem__(self, i: int) -> Factor:
        f = self._graph._located()[i]
        return f if isinstance(f, Factor) else f[0].family.view(*f)


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
    # by timestamp, then id: two stable sorts compare numbers, not tuples
    ordered = sorted(sorted(graph.variables, key=attrgetter("id")),
                     key=attrgetter("timestamp"))
    starts = [0, *accumulate(key.kind.dim for key in ordered)]
    return dict(zip(ordered, starts)), starts[-1]


def _describe(f: Factor) -> str:
    where = ", ".join(f"id={k.id}@t={k.timestamp:g}" for k in f.keys)
    return f"{f.name} (variables {where})"


class _StateLayout:
    """Every variable in one `manifold.Group` stack per manifold kind.

    `offsets` lists the variables in column order, as `variable_offsets`
    returns them, and numbers them in that order; the keys of a kind keep
    it. Variable v is row `row[v]` of the stack of the kind numbered
    `kind[v]` (in the order of `keys`), and `columns[kind]` holds each
    row's tangent columns.
    """

    def __init__(self, offsets: dict[VariableKey, int]):
        keys = list(offsets)
        kinds = list(map(attrgetter("kind"), keys))
        # A graph holds a few kind objects: they are numbered by identity,
        # so that only one object of each is hashed, and equal ones merge.
        number: dict[ManifoldKind, int] = {}
        code = {i: number.setdefault(kind, len(number))
                for i, kind in dict(zip(map(id, kinds), kinds)).items()}
        self.kind = np.fromiter(map(code.__getitem__, map(id, kinds)),
                                np.intp, len(keys))
        cols = np.fromiter(offsets.values(), np.intp, len(offsets))
        self.row = np.empty(len(offsets), dtype=np.intp)
        self.keys: dict[ManifoldKind, list[VariableKey]] = {}
        self.columns = {}
        for c, kind in enumerate(number):
            at = np.flatnonzero(self.kind == c)
            self.keys[kind] = [keys[v] for v in at.tolist()]
            self.row[at] = np.arange(len(at))
            self.columns[kind] = cols[at][:, None] + np.arange(kind.dim)

    def stack(self, values: Values) -> dict:
        return {kind: kind.group.stack([values.get(k) for k in keys])
                for kind, keys in self.keys.items()}

    def values(self, states: dict, base: Values | None = None) -> Values:
        """`base` (default empty) with every variable set from `states`."""
        out = Values() if base is None else base.copy()
        for kind, keys in self.keys.items():
            out._data.update(zip(keys, kind.group.unstack(states[kind])))
        return out


@dataclass
class _Batch:
    """A table's rows, placed: their residual rows and J's data cells."""

    table: FactorTable
    sqrt_info: np.ndarray  # (N, d, d)
    slots: list  # per key: (kind, row of each factor's variable in its stack)
    rows: np.ndarray  # residual rows, (N * d,)
    cells: np.ndarray  # J's data positions of the factors' blocks, flat

    def __call__(self, states: dict, n: int | None = None):
        """The family's (r, per-key Jacobians) at the `_StateLayout` stacks
        `states`, on every row or on the first n."""
        t = self.table
        return t.family(tuple(p[:n] for p in t.params),
                        [tuple(s[i[:n]] for s in states[kind])
                         for kind, i in self.slots])

    def first_failure(self, states: dict) -> int | None:
        """The first row whose evaluation raises NearSingularError, or None.
        Rows fail independently, so bisection finds the shortest failing
        prefix."""
        def fails(n):
            try:
                self(states, n)
            except manifold.NearSingularError:
                return True
            return False

        lo, hi = 0, len(self.table)  # the first lo rows pass, hi rows fail
        if not fails(hi):
            return None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fails(mid):
                hi = mid
            else:
                lo = mid
        return hi - 1


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each run of a concatenation of runs of these lengths starts,
    with the total appended."""
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out


class Linearizer:
    """Evaluates the whitened Jacobian with a precomputed sparsity pattern.

    The block structure never changes between iterations, so it is built
    once: each table's keys and order and each loose factor's keys and
    rows are read once, and every layout array is computed from those with
    numpy. Each factor's whitened Jacobian is one row-major block, its
    keys' columns side by side in key order, and J's CSR data is the
    blocks back to back: `indices` and `indptr` are fixed, and only the
    data is refreshed. Each of the graph's tables is evaluated as one
    batch and scattered into its rows and blocks; loose factors are
    evaluated one by one.

    The same pattern fixes J^T J's structure: `bandwidth` is its lower
    bandwidth, and `normal_band` builds that band from the whitened blocks.
    Timestamp order keeps the band of a smoothing graph narrow; a variable
    bound across all times (a static one linked to every keyframe) widens
    it to the whole graph, (bandwidth + 1) * columns entries.
    """

    def __init__(self, graph: FactorGraph):
        offsets, self.total_cols = variable_offsets(graph)
        self.graph = graph
        self.offsets = offsets
        self.layout = layout = _StateLayout(offsets)
        tables, loose = graph.tables(), graph._loose
        # each factor's key count and rows, in graph order, then each key
        # slot's first column
        n_keys = np.empty(len(graph), np.intp)
        d = np.empty(len(graph), np.intp)
        for t in tables:
            n_keys[t.order], d[t.order] = len(t.kinds), t.dim
        for p, f in loose:
            n_keys[p], d[p] = len(f.keys), f.dim
        key0 = _starts(n_keys)  # first slot of each factor
        col = np.empty(key0[-1], np.intp)
        for t in tables:
            for s, keys in enumerate(t.keys):
                col[key0[t.order] + s] = np.fromiter(
                    map(offsets.__getitem__, keys), np.intp, len(keys))
        for p, f in loose:
            col[key0[p]:key0[p + 1]] = [offsets[k] for k in f.keys]
        row0 = _starts(d)  # first residual row of each factor
        self.total_rows = int(row0[-1])
        # each slot's variable, numbered in column order, and its dim
        var_col = np.fromiter(offsets.values(), np.intp, len(offsets))
        var = np.searchsorted(var_col, col)
        dk = np.diff(var_col, append=self.total_cols)[var]
        block0 = self._block_layout(col, dk, key0, d, row0)

        self._loose = [(f, p, slice(int(row0[p]), int(row0[p + 1])),
                        slice(int(block0[p]), int(block0[p + 1])))
                       for p, f in loose]
        self._batches = []
        for t in tables:
            at = t.order
            width = t.dim * sum(kind.dim for kind in t.kinds)
            self._batches.append(_Batch(
                table=t,
                sqrt_info=np.array([nm.sqrt_info for nm in t.noise])[t.which],
                slots=[(kind, layout.row[var[key0[at] + s]])
                       for s, kind in enumerate(t.kinds)],
                rows=(row0[at][:, None] + np.arange(t.dim)).ravel(),
                cells=(block0[at][:, None] + np.arange(width)).ravel()))

    def _block_layout(self, col, dk, key0, d, row0) -> np.ndarray:
        """The CSR layout of J and the layout of J^T J's band, from each key
        slot's first column and dim and each factor's first slot, rows d
        and first row. Returns where each factor's block starts in J's
        data, with the total appended.

        Every residual row belongs to one factor, so a factor's entries form
        one row-major d x w block X, each row listing the columns of the
        factor's keys in key order. The columns need not ascend, and a key
        bound twice lists its columns twice: scipy sums repeated entries
        wherever it reads them (products, `toarray`, `sum_duplicates`).

        Factors are grouped by (d, w): `cells` gathers each factor's X from
        J's data, and `pick` selects, in row-major order, the entries (p, q)
        of X^T X with col_p >= col_q (a repeated column's cross terms
        included): as one pattern that every factor of the group shares
        (`rows` = N), which keeps the layout small, or, when their key
        orders differ, as one list over the whole group (`rows` = 1). Each
        adds into band[i - j, j] for i = col_p and j = col_q, kept at flat
        index j * (bw + 1) + i - j of the (n, bw + 1) array whose transpose
        is the band.
        """
        n = self.total_cols
        # every factor's columns in key order, factor after factor
        slot0 = _starts(dk)
        key_col = np.arange(slot0[-1]) + np.repeat(col - slot0[:-1], dk)
        col0 = slot0[key0]  # each factor's first entry in key_col
        w = np.diff(col0)
        row_w = np.repeat(w, d)
        indptr = _starts(row_w)
        # entry e of row r holds key_col[col0[f] + e - indptr[r]], f its factor
        entry = np.arange(indptr[-1])
        entry += np.repeat(np.repeat(col0[:-1], d) - indptr[:-1], row_w)
        index = np.int32 if max(indptr[-1], n) < 2 ** 31 \
            else np.int64  # what scipy would choose, so it copies nothing
        self._indices = key_col[entry].astype(index)
        self._indptr = indptr.astype(index)
        block0 = indptr[row0]

        bound = w > 0
        first = col0[:-1][bound]
        self.bandwidth = int(np.max(np.maximum.reduceat(key_col, first)
                                    - np.minimum.reduceat(key_col, first),
                                    initial=0))
        m = self.bandwidth + 1
        targets = [np.empty(0, np.intp)]
        self._band_groups = []
        for dd, ww in sorted(set(zip(d[bound].tolist(), w[bound].tolist()))):
            fs = np.flatnonzero((d == dd) & (w == ww))
            cells = block0[fs, None] + np.arange(dd * ww)
            cols = key_col[col0[fs, None] + np.arange(ww)]
            col_p, col_q = cols[:, :, None], cols[:, None, :]
            lower = (col_p >= col_q).reshape(len(fs), -1)
            if (lower == lower[0]).all():
                pick, rows = np.flatnonzero(lower[0]), len(fs)
            else:
                pick, rows = np.flatnonzero(lower), 1
            targets.append((col_p + col_q * (m - 1)).reshape(rows, -1)
                           .take(pick, axis=1).ravel())
            self._band_groups.append((cells.ravel(), pick, rows, dd, ww))
        self._band_targets = np.concatenate(targets)
        # Reused buffers: fresh arrays of this size cost more in page faults
        # than the products themselves.
        self._band_products = np.empty(len(self._band_targets))
        self._band_scratch = np.empty(
            (2, max((len(cells) for cells, *_ in self._band_groups),
                    default=0)))
        self._band_full = np.empty(max(
            (len(cells) // d * w for cells, *_, d, w in self._band_groups),
            default=0))
        self._band = np.empty(n * m)
        return block0

    def __call__(self, values):
        """(J, r) at `values`: a Values, or the stacks of `layout.stack`.

        J is in CSR form, with each row's column indices in its factor's
        key order: unsorted, and repeated where a factor binds a key twice
        (`J.sum_duplicates()` gives the canonical form).
        """
        if isinstance(values, Values):
            states = self.layout.stack(values)
        else:
            states, values = values, None
        # fresh arrays, which J and r own
        data = np.empty(int(self._indptr[-1]))
        res = np.empty(self.total_rows)
        try:
            self._batched(states, data, res)
            if self._loose:
                self._per_factor(values if values is not None
                                 else self.layout.values(states), data, res)
        except manifold.NearSingularError:
            self._name_first_failure(states, values)
            raise
        # the layout arrays are copied: a caller may edit J's in place
        J = sp.csr_matrix((data, self._indices.copy(), self._indptr.copy()),
                          shape=(self.total_rows, self.total_cols))
        return J, res

    def normal_band(self, J: sp.csr_matrix) -> np.ndarray:
        """J^T J's lower band, band[i - j, j] = (J^T J)[i, j], from J's
        blocks. It is Fortran-ordered, the layout LAPACK's banded routines
        take without a copy, and it is a view of a buffer the Linearizer
        owns: valid until the next call, which refills it."""
        X_t, X = self._band_scratch
        at = 0
        for cells, pick, rows, d, w in self._band_groups:
            size = len(cells)
            N = size // (d * w)
            block = np.take(J.data, cells, out=X[:size],
                            mode="clip").reshape(N, d, w)
            block_t = X_t[:size].reshape(N, w, d)
            np.copyto(block_t, block.transpose(0, 2, 1))
            XtX = self._band_full[:N * w * w].reshape(N, w, w)
            np.matmul(block_t, block, out=XtX)
            np.take(XtX.reshape(rows, -1), pick, axis=1, mode="clip",
                    out=self._band_products[at:at + rows * len(pick)]
                    .reshape(rows, -1))
            at += rows * len(pick)
        n, m = self.total_cols, self.bandwidth + 1
        band = self._band
        band.fill(0.0)  # then summed in product order
        np.add.at(band, self._band_targets, self._band_products)
        return band.reshape(n, m).T

    def _batched(self, states: dict, data: np.ndarray,
                 res: np.ndarray) -> None:
        for b in self._batches:
            r, Js = b(states)
            W = b.sqrt_info
            res[b.rows] = (W @ r[:, :, None]).ravel()
            data[b.cells] = np.concatenate([W @ J for J in Js],
                                           axis=2).ravel()

    def _per_factor(self, values: Values, data: np.ndarray,
                    res: np.ndarray) -> None:
        for f, _, rows, block in self._loose:
            r, Js = _evaluate(f, values)
            W = f.noise.sqrt_info
            res[rows] = W @ r
            data[block] = np.concatenate([W @ J for J in Js], axis=1).ravel()

    def _name_first_failure(self, states: dict, values) -> None:
        """Raise the error of the first factor in graph order that fails at
        `states`, in its closures' words. Each batch reports its first
        failing row and the loose factors are tried in order; only the
        first of those is evaluated again, as a view."""
        values = values if values is not None else self.layout.values(states)
        failed = []  # (position, table and row, or a loose factor and None)
        for b in self._batches:
            i = b.first_failure(states)
            if i is not None:
                failed.append((int(b.table.order[i]), b.table, i))
        for f, p, *_ in self._loose:
            try:
                _evaluate(f, values)
            except manifold.NearSingularError:
                failed.append((p, f, None))
                break
        if failed:
            _, f, i = min(failed, key=itemgetter(0))
            _evaluate(f if i is None else f.family.view(f, i), values)


def _evaluate(f: Factor, values: Values):
    """(r, Js) of one factor through its closures; a NearSingularError
    names the factor."""
    try:
        if f.combined_fn is not None:
            return f.combined_fn(values)
        return f.residual_fn(values), f.jacobian_fn(values)
    except manifold.NearSingularError as err:
        raise manifold.NearSingularError(
            f"linearization failed in {_describe(f)}: {err}") from err


def linearize(graph: FactorGraph, values: Values):
    """Whitened block-sparse Jacobian and residual at the current estimate.

    Returns (J, r, offsets) with J (total_res_dim x total_tan_dim) in CSR
    form, its column indices in each factor's key order: unsorted, and
    repeated where a factor binds a key twice.
    """
    lin = Linearizer(graph)
    J, r = lin(values)
    return J, r, lin.offsets


def _retract_all(states: dict, columns: dict, delta: np.ndarray) -> dict:
    """X (+) d for every variable, one batched pass per manifold kind.

    `states` and the result are `_StateLayout` stacks; `columns[kind]`
    holds the tangent columns of each row of that kind's stack.
    """
    return {kind: kind.group.batch.oplus(X, delta[columns[kind]])
            for kind, X in states.items()}


def _check_gauge(band: np.ndarray, offsets: dict[VariableKey, int]) -> None:
    """Raise UnderconstrainedGraphError if the undamped system is singular.

    `band` is J^T J's lower band. It is Jacobi-equilibrated first, so wildly
    different factor strengths (tight anchors vs soft smoothing terms) share
    one pivot scale, and a tiny-shifted copy is factored by a banded
    Cholesky: the shift keeps exactly singular systems factorizable while
    null directions show up as shift-sized squared pivots (in exact
    arithmetic, the pivots of an unpivoted LU). A factorization that stops
    at a column names that column too.

    A null direction spread over the whole graph (a free rigid-body motion
    of every keyframe) can leave every pivot large, so two steps of inverse
    iteration on the same factor follow, the first on 8 fixed-seed random
    columns and the second on the one that grew most. A column y = A^-1 x
    of a unit x bounds the smallest eigenvalue of the shifted system A
    from above by 1 / |y|, which flags the graph only if that eigenvalue
    is at most the pivot threshold. The variables holding the grown
    column's large entries are the suspects.
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
        x = np.random.default_rng(0).random((n, 8)) - 0.5
        for _ in range(2):  # x = A^-1 x, keeping the column that grew most
            y = cho_solve_banded((L, True), x / np.linalg.norm(x, axis=0),
                                 check_finite=False)
            growth = np.linalg.norm(y, axis=0)
            j = int(np.argmax(growth))
            x = y[:, j:j + 1]
        if 1.0 / growth[j] > 1e3 * shift:
            return
        bad = np.abs(x[:, 0]) >= 1e-3 * growth[j]
    suspects = [key for key, c0 in offsets.items()
                if bad[c0:c0 + key.kind.dim].any()]
    by_time = sorted(suspects, key=lambda k: (k.timestamp, k.id))
    names = ", ".join(f"id={k.id}@t={k.timestamp:g}" for k in by_time[:8])
    if len(by_time) > 8:
        names += f", and {len(by_time) - 8} more"
    raise UnderconstrainedGraphError(
        f"underconstrained graph: null space touches variables [{names}]",
        suspects,
    )


def _damped_solver(band: np.ndarray):
    """solve(lam, b) = (J^T J + lam I)^-1 b.

    `band` is J^T J's lower band (band[i - j, j] = (J^T J)[i, j]), which
    each call reads afresh (so a refilled band is seen) and factors by a
    banded Cholesky in one reused copy; it raises np.linalg.LinAlgError
    when the damped system does not factor.
    """
    ab = np.empty_like(band)

    def solve(lam: float, b: np.ndarray) -> np.ndarray:
        np.copyto(ab, band)
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
        band = lin.normal_band(J)  # refills the band `solve` reads
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
    band = lin.normal_band(J)
    _check_gauge(band, lin.offsets)
    c0, d = lin.offsets[key], key.kind.dim
    unit = np.zeros((band.shape[1], d))  # the key's unit columns
    unit[c0:c0 + d] = np.eye(d)
    cov = _damped_solver(band)(0.0, unit)[c0:c0 + d]
    return 0.5 * (cov + cov.T)
