"""Sparse nonlinear least-squares factor graph on mixed manifolds.

Variables live on SO(3), SE(3) or R^n; factors contribute Mahalanobis-weighted
residuals; optimization is Levenberg-Marquardt with retraction-based updates
on each variable's tangent space.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field
from functools import cache, lru_cache
from itertools import accumulate, chain, pairwise
from operator import attrgetter, itemgetter
from time import perf_counter
from typing import Callable

import numpy as np
import scipy

from . import manifold
from .manifold import ManifoldKind


def _load_flapack():
    """scipy's compiled LAPACK module, `scipy.linalg._flapack`, loaded
    from its file alone.

    The solver needs four of its routines, and `import scipy.linalg` would
    cost every process about 0.3 s and 22 MB for them (the package's init
    loads scipy's array-API layer, which loads `numpy.f2py` and
    `numpy.testing`); the extension alone costs a few ms. Loading it
    registers it in `sys.modules` before its package exists; that entry is
    removed, so that a later `import scipy.linalg` loads it again and sets
    it as the package's attribute. Its routines are then this module's
    objects, because the extension's state is made once per process. Where
    the file cannot be loaded so, the package loads it.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy.__path__[0], "linalg", "_flapack" + suffix)
        if not os.path.isfile(path):
            continue
        try:
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
        except ImportError:
            break
        sys.modules.pop(name, None)
        return module
    from scipy.linalg import _flapack
    return _flapack


_flapack = _load_flapack()


def solveh_banded(ab: np.ndarray, b: np.ndarray,
                  overwrite_ab: bool = False) -> np.ndarray:
    """x with A x = b for the symmetric positive definite A whose lower
    band is `ab`, as `scipy.linalg.solveh_banded(ab, b, lower=True,
    check_finite=False)` computes it for real arrays of at least one
    column: LAPACK's `dptsv` on a 2-row band, `dpbsv` on any other.
    Raises np.linalg.LinAlgError when A is not positive definite."""
    if ab.shape[-1] != b.shape[0]:
        raise ValueError("shapes of ab and b are not compatible.")
    if ab.shape[0] == 2:
        *_, x, info = _flapack.dptsv(ab[0], ab[1, :-1], b, overwrite_ab,
                                     overwrite_ab)
    else:
        _, x, info = _flapack.dpbsv(ab, b, lower=1, overwrite_ab=overwrite_ab)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal "
                         f"pbsv")
    return x


def splu(A, *args, **kwargs):
    """`scipy.sparse.linalg.splu`, imported on the first call. The solver
    factors nothing with it; the traced benchmark run
    (perfbench/instrument.py) patches `fgraph.splu`."""
    from scipy.sparse.linalg import splu
    return splu(A, *args, **kwargs)


class UnderconstrainedGraphError(RuntimeError):
    """The normal equations are rank deficient (gauge not fixed)."""

    def __init__(self, message: str,
                 suspect_keys: Sequence["VariableKey"] = (),
                 gauge: dict | None = None):
        super().__init__(message)
        self.suspect_keys = list(suspect_keys)
        # the gauge check's verdict, as SolveReport.gauge holds one
        self.gauge = gauge or {}


@dataclass(frozen=True, init=False)
class VariableKey:
    # Slotted: a graph makes thousands of keys, and without a __dict__ each
    # one is a single object for the garbage collector to track. A slot
    # takes no class-level default, so timestamp's is __init__'s.
    __slots__ = ("id", "kind", "timestamp", "_hash")
    id: int
    kind: ManifoldKind
    timestamp: float

    def __init__(self, id: int, kind: ManifoldKind, timestamp: float = 0.0):
        # Hashed once: the solver indexes dicts and sets by key thousands
        # of times. The hash leaves out the kind, whose dataclass hash is a
        # Python call; equal keys still hash equal.
        _set_id(self, id)
        _set_kind(self, kind)
        _set_timestamp(self, timestamp)
        _set_hash(self, hash((id, timestamp)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so the hash is the unpickling process's
        return VariableKey, (self.id, self.kind, self.timestamp)


# the slots' own setters, which a frozen dataclass's __setattr__ refuses
_set_id, _set_kind, _set_timestamp, _set_hash = (
    getattr(VariableKey, slot).__set__ for slot in VariableKey.__slots__)


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

    @staticmethod
    def of(covariance: np.ndarray) -> "NoiseModel":
        """The one noise model of every covariance with these shape and
        bytes, its covariance a read-only copy."""
        covariance = np.asarray(covariance, dtype=float)
        return _shared_noise(covariance.shape, covariance.tobytes())


@lru_cache(maxsize=256)
def _shared_noise(shape: tuple, data: bytes) -> NoiseModel:
    return NoiseModel(np.frombuffer(data).reshape(shape))


class _Made:
    """A Factor field that a view made without its __init__ leaves out:
    its first read makes it, with the view's other such fields, as
    `f.family.made(f)` gives them, and the view then holds it, so that an
    assignment replaces it. A Factor made by its __init__ holds every
    field from the start."""

    def __init__(self, default=MISSING):
        self.default = default

    def __set_name__(self, owner, attr):
        self.attr = attr

    def __get__(self, f, owner=None):
        if f is None:  # the field's default, as the dataclass reads it
            if self.default is MISSING:
                raise AttributeError(self.attr)
            return self.default
        for attr, value in f.family.made(f).items():
            f.__dict__.setdefault(attr, value)
        return f.__dict__[self.attr]


@dataclass(frozen=True, eq=False)
class Signature:
    """A family and the key kinds of its rows: with a dim, what picks a
    graph's table. `signature` makes one object per equal pair, so that a
    graph finds a row's table by identity, without hashing its kinds."""

    family: object
    kinds: tuple[ManifoldKind, ...]


signature = cache(Signature)


@dataclass
class Factor:
    """Residual-plus-Jacobians unit binding 1-3 variable keys.

    residual_fn(values) -> r (dim,)
    jacobian_fn(values) -> tuple of per-key matrices (dim x key.kind.dim)

    A built-in factor is a view of one row of a FactorTable: its `family`
    evaluates a table's rows as one batch, and family_params are the row's
    params. A view is made without its closures and name, which its
    family makes when one of them is first read. A custom factor has no
    family: a graph holds it as a row of a table whose family runs each
    row's own closures.
    """

    keys: tuple[VariableKey, ...]
    residual_fn: Callable[[Values], np.ndarray] = _Made()
    jacobian_fn: Callable[[Values], tuple[np.ndarray, ...]] = _Made()
    noise: NoiseModel
    name: str = _Made("factor")
    # optional fused path returning (residual, jacobians) in one evaluation
    combined_fn: Callable[[Values], tuple] | None = None
    family: object | None = None
    family_params: tuple = ()
    # a per-factor constructor's view holds its keys and their Signature,
    # made once
    _resolved = None

    @property
    def dim(self) -> int:
        return self.noise.dim


@dataclass(eq=False)
class FactorTable:
    """Factors of one family over one tuple of key kinds, one per row: the
    form in which a FactorGraph holds them and the Linearizer evaluates
    them, as one batch.

    Row i binds keys[s][i] in key slot s, takes row i of each array of the
    family's stacked `params`, and has the noise model noise[which[i]].
    `order` ranks the rows among those added to a graph together; in a
    graph's own tables it is each row's position in graph order.
    `family.residual(params, states)` evaluates every row's steps on
    stacks, the last of them the residuals, `family.jacobian(params,
    states, steps)` continues from those steps to the per-key Jacobians,
    and `family.view(table, i)` makes row i's Factor.
    """

    family: object
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
    """Factors in graph order, held as the rows of one FactorTable per
    (family, key kinds, dim); custom factors share the family `_CLOSURES`.
    `factors` lists them all, as views made on demand."""

    def __init__(self):
        self.variables: set[VariableKey] = set()
        # (Signature, dim) -> (table, position of its order 0) pairs, and
        # -> the columns of the factors added one by one: their positions,
        # keys and params (each row's in turn, in one flat list) and noise
        # models. Flat columns keep no object per row alive, so building a
        # graph factor by factor leaves the garbage collector less to track.
        self._tables: dict[tuple, list] = {}
        self._rows: dict[tuple, list] = {}
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
        A factor's row joins the table of its family, key kinds and dim; a
        custom factor is the one param of its `_CLOSURES` row."""
        self._where = None
        if isinstance(item, Factor):
            family, params, keys = item.family, item.family_params, item.keys
            if family is None:
                family, params = _CLOSURES, (item,)
            made_for, sig = item._resolved or (None, None)
            if made_for is not keys or sig.family is not family:
                sig = signature(family, tuple([key.kind for key in keys]))
            rows = self._rows.get((sig, item.dim))
            if rows is None:
                rows = self._rows[sig, item.dim] = ([], [], [], [])
            rows[0].append(self._size)
            rows[1].extend(keys)
            rows[2].extend(params)
            rows[3].append(item.noise)
            self.variables.update(keys)
            self._size += 1
            return
        tables = [item] if isinstance(item, FactorTable) else list(item)
        placed = np.sort(np.concatenate(
            [t.order for t in tables] or [np.empty(0, np.intp)]))
        if not np.array_equal(placed, np.arange(len(placed))):
            raise ValueError("the rows added together must be ranked 0, 1, "
                             "... by their tables' order")
        for t in tables:
            self._tables.setdefault((signature(t.family, t.kinds), t.dim),
                                    []).append((t, self._size))
            for keys in t.keys:
                self.variables.update(keys)
        self._size += len(placed)

    def extend(self, factors) -> None:
        for f in factors:
            self.add(f)

    def tables(self) -> list[FactorTable]:
        """One table per (family, key kinds, dim), each row's order its
        position in graph order."""
        for (sig, dim), (at, keys, params, noise) in self._rows.items():
            n, k = len(at), len(sig.kinds)
            m = len(params) // n
            # each distinct noise model once: equal covariances share one
            index = {nm: i for i, nm in enumerate(dict.fromkeys(noise))}
            self._tables.setdefault((sig, dim), []).append((FactorTable(
                sig.family, sig.kinds, tuple(keys[s::k] for s in range(k)),
                tuple(np.array(params[s::m]) for s in range(m)), list(index),
                np.fromiter(map(index.__getitem__, noise), np.intp, n),
                np.array(at)), 0))
        self._rows.clear()
        for key, chunks in self._tables.items():
            if len(chunks) > 1 or chunks[0][1]:
                self._tables[key] = [(_concat(chunks), 0)]
        return [chunks[0][0] for chunks in self._tables.values()]

    def _located(self) -> list:
        """Each position's (table, row) pair."""
        if self._where is None:
            where = [None] * self._size
            for t in self.tables():
                for i, p in enumerate(t.order.tolist()):
                    where[p] = (t, i)
            self._where = where
        return self._where


class _Views(Sequence):
    """A graph's factors in graph order, each made when it is read as its
    table row's view."""

    def __init__(self, graph: FactorGraph):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph)

    def __getitem__(self, i: int) -> Factor:
        table, row = self._graph._located()[i]
        return table.family.view(table, row)


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
    # one dict per damped solve: its `iteration` (from 0), `lam`, `outcome`
    # (accepted, cost_increase, singular_chart or failed_factorization),
    # the candidate's `cost` (None when it has none), the step's largest
    # entry `step_inf` (None when no step was solved) and the gradient's
    # `grad_inf`
    tries: list = field(default_factory=list)
    # one dict per iteration: its `iteration` and the seconds its tries
    # spent in `linearize_s` (residual passes), `band_s` (normal passes:
    # Jacobian blocks, whitening, gradient and band), `solve_s` and
    # `retract_s`; iteration 0's include the first iterate's passes
    phases: list = field(default_factory=list)
    # seconds to build the Linearizer and to run the gauge check
    linearizer_s: float = 0.0
    gauge_s: float = 0.0
    # the gauge check's verdict at the first iterate, as `_check_gauge`
    # returns it: `min_pivot_sq`, `inverse_bound` and `suspects`
    gauge: dict = field(default_factory=dict)
    # the whitened cost of each factor family (ct, prior, relpose, usbl,
    # rollpitch, boundary, custom) at the initial and at the final iterate
    family_costs_start: dict = field(default_factory=dict)
    family_costs_end: dict = field(default_factory=dict)


def total_cost(graph: FactorGraph, values: Values) -> float:
    """The whitened squared residual norm, as the solver's cost reads it."""
    r, _ = Linearizer(graph).residual(values)
    return float(r @ r)


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
    returns them; the keys of a kind keep it. `keys[kind]` lists the
    variables of each stack's rows, and `columns[kind]` holds each row's
    tangent columns.
    """

    def __init__(self, offsets: dict[VariableKey, int]):
        keys = list(offsets)
        kinds = list(map(attrgetter("kind"), keys))
        # A graph holds a few kind objects: they are numbered by identity,
        # so that only one object of each is hashed, and equal ones merge.
        number: dict[ManifoldKind, int] = {}
        code = {i: number.setdefault(kind, len(number))
                for i, kind in dict(zip(map(id, kinds), kinds)).items()}
        of_kind = np.fromiter(map(code.__getitem__, map(id, kinds)),
                              np.intp, len(keys))
        cols = np.fromiter(offsets.values(), np.intp, len(offsets))
        self.keys: dict[ManifoldKind, list[VariableKey]] = {}
        self.columns = {}
        for c, kind in enumerate(number):
            at = np.flatnonzero(of_kind == c)
            self.keys[kind] = [keys[v] for v in at.tolist()]
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
    """A table's rows, placed: their residual rows, their noise models,
    their columns and where each key's columns sit in a factor's block."""

    table: FactorTable
    # per distinct noise model: its sqrt_info and the rows it whitens (None
    # when it whitens every row)
    models: list
    slots: list  # per key: (kind, row of each factor's variable in its stack)
    rows: np.ndarray | slice  # residual rows, (N * d,)
    # (N, w): each factor's key columns side by side in key order, the
    # columns of its block X
    cols: np.ndarray
    spans: list  # per key: its (first, stop) columns in a factor's block

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """Each row's (d, k) block of the (N, d, k) stack x premultiplied
        by its noise model's sqrt_info, as a new array."""
        if len(self.models) == 1:
            return self.models[0][0] @ x
        out = np.empty(x.shape)
        for W, at in self.models:
            out[at] = W @ x[at]
        return out

    def args(self, states: dict, n: int | None = None) -> tuple:
        """The family's (params, slot stacks) at the `_StateLayout` stacks
        `states`, on every row or on the first n."""
        return (tuple(p[:n] for p in self.table.params),
                [tuple(s[i[:n]] for s in states[kind])
                 for kind, i in self.slots])

    def first_failure(self, states: dict) -> int | None:
        """The first row whose evaluation raises NearSingularError, or None.
        Rows fail independently, so bisection finds the shortest failing
        prefix."""
        family = self.table.family

        def fails(n):
            params, slots = self.args(states, n)
            try:
                family.jacobian(params, slots, family.residual(params, slots))
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


def _span(index: np.ndarray):
    """`index`, or the slice it spans when it is one ascending run: a slice
    assigns without a scatter."""
    if len(index) and (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


# factors per chunk of a normal pass: the whitened blocks it copies into one
# buffer and the products it forms at once, in buffers it reuses
_BAND_CHUNK = 128


class Linearizer:
    """Evaluates the whitened residual and the normal equations, J^T r and
    J^T J's band, with a layout built once.

    The block structure never changes between iterations, so it is built
    once, from one integer matrix per table: its `cols`, each row a
    factor's key columns side by side in key order, read once from the
    table's keys. Each factor's whitened Jacobian is one row-major d x w
    block X over those columns, and every layout reads them: the band's
    pattern and targets, the bandwidth, the gradient's scatter, each
    batch's stack rows and J's CSR `indices`. Each of the graph's tables,
    of built-in or of custom factors, is evaluated as one batch, in two
    passes. `residual` runs each family's steps and whitens their residual
    into r; the normal pass it returns continues from those steps to the
    family's per-key Jacobian blocks, whitens each, adds its X^T r into the
    gradient and its X^T X into the band, and frees the batch's steps and
    blocks before the next batch's. A scored and dropped candidate stops
    after the first pass.

    `bandwidth` is J^T J's lower bandwidth, the widest span of one
    factor's columns. Timestamp order keeps the band of a smoothing graph
    narrow; a variable bound across all times (a static one linked to every
    keyframe) widens it to the whole graph, (bandwidth + 1) * columns
    entries.

    What a solve keeps alive is the band; the one buffer of its size that
    each damped solve factors in; one batch's blocks (the batches of one
    (d, w) group, when several tables share it), copied `_BAND_CHUNK`
    factors at a time into a few reused buffers; and a layout sized by the
    factor count (each table's columns and stack rows, residual rows and
    band targets). No Jacobian is held: a CSR J comes only from `__call__`,
    for tests and diagnostics, built from the same whitened blocks, its
    `indices`, `indptr` and cells laid out on its first call.
    """

    def __init__(self, graph: FactorGraph):
        offsets, self.total_cols = variable_offsets(graph)
        self.graph = graph
        self.offsets = offsets
        self.layout = layout = _StateLayout(offsets)
        tables = graph.tables()
        d = np.empty(len(graph), np.intp)  # each factor's rows, graph order
        for t in tables:
            d[t.order] = t.dim
        row0 = _starts(d)  # first residual row of each factor
        self.total_rows = int(row0[-1])
        # each variable's row in its kind's stack, at its first column
        stack_row = np.empty(self.total_cols, np.intp)
        for c in layout.columns.values():
            stack_row[c[:, 0]] = np.arange(len(c))
        self._csr = None

        self._batches = []
        for t in tables:
            ends = list(accumulate([kind.dim for kind in t.kinds], initial=0))
            spans = list(pairwise(ends))
            cols = np.empty((len(t), ends[-1]), np.intp)
            for (c0, c1), keys in zip(spans, t.keys):
                cols[:, c0:c1] = np.fromiter(
                    map(offsets.__getitem__, keys), np.intp,
                    len(keys))[:, None] + np.arange(c1 - c0)
            # rows share a model when their noise models share a sqrt_info
            # (equal covariances do)
            infos = {id(nm.sqrt_info): nm.sqrt_info for nm in t.noise}
            code = {key: c for c, key in enumerate(infos)}
            which = np.array([code[id(nm.sqrt_info)] for nm in t.noise],
                             np.intp)[t.which]
            models = [(W, None if len(infos) == 1 else np.flatnonzero(
                which == c)) for c, W in enumerate(infos.values())]
            self._batches.append(_Batch(
                table=t, models=models,
                slots=[(kind, stack_row[cols[:, c0]])
                       for kind, (c0, _) in zip(t.kinds, spans)],
                rows=_span((row0[t.order][:, None]
                            + np.arange(t.dim)).ravel()),
                cols=cols, spans=spans))
        self._band_layout()

    def _band_layout(self) -> None:
        """The layout of J^T J's band, from each batch's `cols`.

        Factors are grouped by (d, w), in graph order, and taken
        `_BAND_CHUNK` at a time: each chunk lists, per batch of its
        factors, where in the chunk they go and which of the batch's rows
        they are (a group of several tables takes each table's rows in
        graph order). `pick` selects, in row-major order, the entries
        (p, q) of a factor's X^T X with cols[p] >= cols[q] (a repeated
        column's cross terms included): as one pattern that every factor
        of the group shares (`rows` = N), which keeps the layout small, or,
        when their key orders differ, as one list over the whole group
        (`rows` = 1), with `bounds` where each chunk's picks start. Each
        adds into band[i - j, j] for i = cols[p] and j = cols[q], kept at
        flat index j * (bw + 1) + i - j of the (n, bw + 1) array whose
        transpose is the band.
        """
        n = self.total_cols
        self.bandwidth = max((int(np.ptp(b.cols, axis=1).max())
                              for b in self._batches if b.cols.size),
                             default=0)
        groups: dict[tuple, list] = {}
        for i, b in enumerate(self._batches):
            if b.cols.size:
                groups.setdefault((b.table.dim, b.cols.shape[1]), []).append(i)
        m = self.bandwidth + 1
        # a band of under 2^31 entries takes int32 targets, which halve the
        # memory traffic of forming them
        target = np.int32 if n * m < 2 ** 31 else np.intp
        targets = [np.empty(0, target)]
        # per (d, w) group: its chunks, picks, rows, d, w and bounds, and
        # the batches it holds
        self._band_groups = []
        self._group_batches = []
        for (dd, ww), batches in sorted(groups.items()):
            parts = [self._batches[i] for i in batches]
            # the group's factors in graph order: each one's batch, row in
            # it and columns
            at = np.argsort(np.concatenate([b.table.order for b in parts]))
            batch = np.repeat(batches, [len(b.cols) for b in parts])[at]
            row = np.concatenate([np.arange(len(b.cols)) for b in parts])[at]
            cols = np.concatenate([b.cols for b in parts])[at].astype(target)
            lower = cols[:, :, None] >= cols[:, None, :]
            if (lower == lower[0]).all():
                pick = np.flatnonzero(lower[0])
                rows, f, (p, q) = len(cols), slice(None), np.divmod(pick, ww)
                bounds = None
            else:
                pick = np.flatnonzero(lower)
                rows, (f, e) = 1, np.divmod(pick, ww * ww)
                p, q = np.divmod(e, ww)
                bounds = np.searchsorted(f, np.arange(
                    0, len(cols) + _BAND_CHUNK, _BAND_CHUNK)).tolist()
            targets.append((cols[f, p] + cols[f, q] * (m - 1)).ravel())
            chunks = []
            for a in range(0, len(cols), _BAND_CHUNK):
                of, rs = batch[a:a + _BAND_CHUNK], row[a:a + _BAND_CHUNK]
                chunks.append((a, len(of), [
                    (i, _span(to), _span(rs[to]))
                    for i in np.unique(of).tolist()
                    for to in [np.flatnonzero(of == i)]]))
            self._band_groups.append((chunks, pick, rows, dd, ww, bounds))
            self._group_batches.append(batches)
        self._band_targets = np.concatenate(targets)
        # Reused buffers: fresh arrays cost more in page faults than the
        # products themselves. Each holds one chunk of factors, so only the
        # band grows with the graph.
        block = max((dd * ww for *_, dd, ww, _ in self._band_groups),
                    default=0)
        grid = max((ww * ww for *_, ww, _ in self._band_groups), default=0)
        self._band_blocks = np.empty(_BAND_CHUNK * block)
        self._band_scratch = np.empty(_BAND_CHUNK * block)
        self._band_full = np.empty(_BAND_CHUNK * grid)
        self._band_products = np.empty(_BAND_CHUNK * grid)
        self._band = np.empty(n * m)

    def _csr_layout(self) -> tuple:
        """J's CSR `indices` and `indptr`, and each batch's cells in J's
        data, laid out on the first call and kept.

        Every residual row belongs to one factor, so a factor's entries form
        its block X, each of its d rows listing the factor's `cols`. The
        columns need not ascend, and a key bound twice lists its columns
        twice: scipy sums repeated entries wherever it reads them
        (products, `toarray`, `sum_duplicates`).
        """
        if self._csr is None:
            row_w = np.empty(self.total_rows, np.intp)
            for b in self._batches:
                row_w[b.rows] = b.cols.shape[1]
            indptr = _starts(row_w)
            index = np.int32 if max(indptr[-1], self.total_cols) < 2 ** 31 \
                else np.int64  # what scipy would choose, so it copies nothing
            indices = np.empty(indptr[-1], index)
            cells = []
            for b in self._batches:
                # row r's entries start at indptr[r], and a factor's rows
                # are consecutive: its cells are its block X, row-major
                at = _span((indptr[:-1][b.rows][:, None]
                            + np.arange(b.cols.shape[1])).ravel())
                indices[at] = np.repeat(b.cols, b.table.dim, axis=0).ravel()
                cells.append(at)
            self._csr = (indices, indptr.astype(index), cells)
        return self._csr

    def __call__(self, values):
        """(J, r) at `values`: a Values, or the stacks of `layout.stack`.

        J is in CSR form, built from the whitened blocks a normal pass
        reads, with each row's column indices in its factor's key order:
        unsorted, and repeated where a factor binds a key twice
        (`J.sum_duplicates()` gives the canonical form).
        """
        states = self._stacks(values)
        res, passes = self._residual_pass(states)
        indices, indptr, cells = self._csr_layout()
        data = np.empty(int(indptr[-1]))  # fresh, which J owns
        with self._naming(states):
            for batches in self._group_batches:
                for i, blocks in self._whitened(batches, passes).items():
                    data[cells[i]] = np.concatenate(blocks, axis=2).ravel()
        import scipy.sparse as sp  # only tests and diagnostics build J

        # the layout arrays are copied: a caller may edit J's in place
        return sp.csr_matrix((data, indices.copy(), indptr.copy()),
                             shape=(self.total_rows, self.total_cols)), res

    def residual(self, values):
        """(r, normal) at `values`, as `__call__` takes them: the whitened
        residual, from each family's steps alone, and the normal pass,
        which continues from those steps, once.

        normal() returns (g, band): the gradient J^T r and J^T J's lower
        band, band[i - j, j] = (J^T J)[i, j]. The band is Fortran-ordered,
        the layout LAPACK's banded routines take without a copy, and a
        view of a buffer the Linearizer owns: valid until the next normal
        pass, which refills it. A try that is scored and dropped forms
        neither."""
        states = self._stacks(values)
        res, passes = self._residual_pass(states)
        return res, lambda: self._normal(states, res, passes)

    def _stacks(self, values) -> dict:
        return self.layout.stack(values) if isinstance(values, Values) \
            else values

    def _residual_pass(self, states: dict) -> tuple[np.ndarray, list]:
        """r, and each batch's (params, slot stacks, steps)."""
        res = np.empty(self.total_rows)  # fresh, which r owns
        passes = []
        with self._naming(states):
            for b in self._batches:
                params, slots = b.args(states)
                steps = b.table.family.residual(params, slots)
                res[b.rows] = b.whiten(steps[-1][:, :, None]).ravel()
                passes.append((params, slots, steps))
        return res, passes

    def _whitened(self, batches: list, passes: list) -> dict:
        """Each of these batches' whitened per-key blocks, continued from
        its residual pass, whose steps are then dropped."""
        out = {}
        for i in batches:
            b = self._batches[i]
            blocks = list(b.table.family.jacobian(*passes[i]))
            passes[i] = None  # the batch's steps
            for s in range(len(blocks)):  # each raw block freed as whitened
                blocks[s] = b.whiten(blocks[s])
            out[i] = blocks
        return out

    def _normal(self, states: dict, res: np.ndarray, passes: list):
        """(g, band) from each (d, w) group's blocks in turn, the band
        summed chunk by chunk in the order of `_band_targets`."""
        n, m = self.total_cols, self.bandwidth + 1
        g = np.zeros(n)
        self._band.fill(0.0)  # then summed in product order
        at = 0
        with self._naming(states):
            for group, batches in zip(self._band_groups, self._group_batches):
                at = self._add_group(group, self._whitened(batches, passes),
                                     res, g, at)
        return g, self._band.reshape(n, m).T

    def _add_group(self, group, blocks: dict, res, g, at: int) -> int:
        """Add one (d, w) group's blocks into the gradient g and the band,
        its products from `_band_targets[at]` on; returns where the next
        group's products start."""
        chunks, pick, _, d, w, bounds = group
        for i, Xs in blocks.items():
            b = self._batches[i]
            e = res[b.rows].reshape(-1, 1, d)
            for (c0, c1), X in zip(b.spans, Xs):
                np.add.at(g, b.cols[:, c0:c1], (e @ X)[:, 0])
        for c, (a, k, parts) in enumerate(chunks):
            X = self._band_blocks[:k * d * w].reshape(k, d, w)
            for i, to, src in parts:
                for (c0, c1), Xs in zip(self._batches[i].spans, blocks[i]):
                    X[to, :, c0:c1] = Xs[src]
            X_t = self._band_scratch[:k * d * w].reshape(k, w, d)
            np.copyto(X_t, X.transpose(0, 2, 1))
            XtX = self._band_full[:k * w * w].reshape(k, w, w)
            np.matmul(X_t, X, out=XtX)
            if bounds is None:  # one pattern, shared by every factor
                products = self._band_products[:k * len(pick)]
                np.take(XtX.reshape(k, -1), pick, axis=1, mode="clip",
                        out=products.reshape(k, -1))
            else:  # each factor's own picks
                lo, hi = bounds[c], bounds[c + 1]
                products = self._band_products[:hi - lo]
                np.take(XtX.reshape(-1), pick[lo:hi] - a * w * w,
                        mode="clip", out=products)
            np.add.at(self._band, self._band_targets[at:at + len(products)],
                      products)
            at += len(products)
        return at

    def family_costs(self, r: np.ndarray) -> dict[str, float]:
        """The whitened cost of each factor family in the residual r that
        this Linearizer gave, read from its batches' rows."""
        costs: dict[str, float] = {}
        for b in self._batches:
            part = r[b.rows]
            name = b.table.family.name
            costs[name] = costs.get(name, 0.0) + float(part @ part)
        return costs

    @contextmanager
    def _naming(self, states: dict):
        """A NearSingularError raised inside names the first failing factor
        in graph order."""
        try:
            yield
        except manifold.NearSingularError:
            self._name_first_failure(states)
            raise

    def _name_first_failure(self, states: dict) -> None:
        """Raise the error of the first factor in graph order that fails at
        `states`, in its closures' words. Each batch reports its first
        failing row; only the first of those in graph order is evaluated
        again, as its view, at the Values read from `states`."""
        failed = []  # (position, table, row)
        for b in self._batches:
            i = b.first_failure(states)
            if i is not None:
                failed.append((int(b.table.order[i]), b.table, i))
        if failed:
            _, t, i = min(failed, key=itemgetter(0))
            _evaluate(t.family.view(t, i), self.layout.values(states))


@contextmanager
def _in_factor(f: Factor):
    """A NearSingularError raised inside names the factor f."""
    try:
        yield
    except manifold.NearSingularError as err:
        raise manifold.NearSingularError(
            f"linearization failed in {_describe(f)}: {err}") from err


def _evaluate(f: Factor, values: Values):
    """(r, Js) of one factor through its closures; a NearSingularError
    names the factor."""
    with _in_factor(f):
        if f.combined_fn is not None:
            return f.combined_fn(values)
        return f.residual_fn(values), f.jacobian_fn(values)


class _Closures:
    """The family of custom factors: a table's one param column holds the
    Factors as added, and each row is evaluated through its own closures:
    its residual_fn in `residual`, its jacobian_fn in `jacobian`, or its
    combined_fn, when it has one, once in `residual`."""

    name = "custom"

    def residual(self, params, states):
        """The factors `params[0]` unstacked at the slot stacks `states`
        into one Values, the blocks of those with a combined_fn (else
        None), and the residuals, stacked."""
        (factors,) = params
        values = Values()
        for s, stack in enumerate(states):
            values._data.update(zip(
                [f.keys[s] for f in factors],
                factors[0].keys[s].kind.group.unstack(stack)))
        rs, blocks = [], []
        for f in factors:
            with _in_factor(f):
                if f.combined_fn is not None:
                    r, Js = f.combined_fn(values)
                else:
                    r, Js = f.residual_fn(values), None
            if np.shape(r) != (f.dim,):
                raise ValueError(
                    f"{_describe(f)} gave a residual of shape {np.shape(r)}; "
                    f"its noise takes {(f.dim,)}")
            rs.append(r)
            blocks.append(Js)
        return values, blocks, np.array(rs)

    def jacobian(self, params, states, steps):
        """The per-key Jacobians, stacked, of the factors `params[0]`."""
        (factors,) = params
        values, held, _ = steps
        blocks = []
        for f, Js in zip(factors, held):
            if Js is None:
                with _in_factor(f):
                    Js = f.jacobian_fn(values)
            got = [np.shape(J) for J in Js]
            want = [(f.dim, key.kind.dim) for key in f.keys]
            if got != want:
                raise ValueError(
                    f"{_describe(f)} gave blocks of shapes {got}; its noise "
                    f"and keys take {want}")
            blocks.append(Js)
        return tuple(map(np.array, zip(*blocks)))

    def view(self, table: FactorTable, i: int) -> Factor:
        return table.params[0][i]


# one object, so that a graph holds one table of custom factors per key
# kinds and dim
_CLOSURES = _Closures()


def _retract_all(states: dict, columns: dict, delta: np.ndarray) -> dict:
    """X (+) d for every variable, one batched pass per manifold kind.

    `states` and the result are `_StateLayout` stacks; `columns[kind]`
    holds the tangent columns of each row of that kind's stack.
    """
    return {kind: kind.group.batch.oplus(X, delta[columns[kind]])
            for kind, X in states.items()}


@lru_cache(maxsize=8)
def _probe(n: int) -> np.ndarray:
    """The gauge check's 8 fixed-seed random columns of length n,
    read-only: made once per size."""
    x = np.random.default_rng(0).random((n, 8)) - 0.5
    x.flags.writeable = False
    return x


def _check_gauge(band: np.ndarray, offsets: dict[VariableKey, int]) -> dict:
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

    Returns the verdict, which the error also holds as `gauge`: the
    smallest squared pivot `min_pivot_sq` (0.0 when the factorization
    stops at a column), the bound `inverse_bound` (None when the pivots
    already flag the graph) and the number of `suspects`.
    """
    diag = band[0]
    s = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    n = band.shape[1]
    scaled = band * s
    for k in range(len(band)):  # band[k, j] couples columns j + k and j
        scaled[k, :n - k] *= s[k:]
    shift = 1e-12
    scaled[0] += shift
    L, info = _flapack.dpbtrf(scaled, lower=1, overwrite_ab=1)
    pivot_sq = L[0] * L[0]
    bad = pivot_sq <= 1e3 * shift
    verdict = {"min_pivot_sq": 0.0 if info > 0 else
               float(np.min(pivot_sq, initial=np.inf)),
               "inverse_bound": None, "suspects": 0}
    if info > 0:  # stopped at column info - 1; no pivot past it is computed
        bad[info:] = False
        bad[info - 1] = True
    if not bad.any():
        x = _probe(n)
        for _ in range(2):  # x = A^-1 x, keeping the column that grew most
            y, _ = _flapack.dpbtrs(L, x / np.linalg.norm(x, axis=0),
                                   lower=1)
            growth = np.linalg.norm(y, axis=0)
            j = int(np.argmax(growth))
            x = y[:, j:j + 1]
        verdict["inverse_bound"] = 1.0 / float(growth[j])
        if verdict["inverse_bound"] > 1e3 * shift:
            return verdict
        bad = np.abs(x[:, 0]) >= 1e-3 * growth[j]
    suspects = [key for key, c0 in offsets.items()
                if bad[c0:c0 + key.kind.dim].any()]
    verdict["suspects"] = len(suspects)
    by_time = sorted(suspects, key=lambda k: (k.timestamp, k.id))
    names = ", ".join(f"id={k.id}@t={k.timestamp:g}" for k in by_time[:8])
    if len(by_time) > 8:
        names += f", and {len(by_time) - 8} more"
    raise UnderconstrainedGraphError(
        f"underconstrained graph: null space touches variables [{names}]",
        suspects, verdict)


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
        return solveh_banded(ab, b, overwrite_ab=True)
    return solve


def optimize(graph: FactorGraph, initial: Values,
             settings: SolverSettings | None = None) -> tuple[Values, SolveReport]:
    """Levenberg-Marquardt with multiplicative damping on the tangent space.

    Each try is scored on a residual-only pass (`Linearizer.residual`); the
    normal pass that continues it to the gradient and the band runs only
    for an accepted candidate that the next iteration linearizes, so a
    solve of k iterations runs k, the first at `initial`. No Jacobian is
    held: each batch's blocks are dropped once they are in the gradient
    and the band. A NearSingularError in either pass makes the try a
    singular_chart one; the normal pass refills the band in place, so one
    raised there has the current iterate's band formed again. The returned
    iterate's normal pass never runs, so an error that only it would raise
    (a custom jacobian_fn's) does not reject that iterate;
    `marginal_covariance` there raises it. A graph without columns (no
    factors, or only keyless ones) converges at its cost, unsolved."""
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
    # the current iteration's phase seconds; before iteration 0, the first
    # iterate's passes, which iteration 0 takes over
    spent = {"linearize_s": 0.0, "band_s": 0.0}

    def timed(phase, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            spent[phase] += perf_counter() - t0

    # The whitened residual norm is the cost. The iterate stays in the
    # Linearizer's stacks until the solve returns.
    t0 = perf_counter()
    lin = Linearizer(graph)
    report.linearizer_s = perf_counter() - t0
    layout = lin.layout
    states = layout.stack(initial)
    r, normal = timed("linearize_s", lin.residual, states)
    cost = float(r @ r)
    report.cost_trace.append(cost)
    report.family_costs_start = lin.family_costs(r)
    if not lin.total_cols:  # only keyless factors: nothing to solve for
        report.converged = True
        report.final_cost = cost
        report.family_costs_end = dict(report.family_costs_start)
        return initial.copy(), report
    # the band `solve` reads, which each normal pass refills
    g, band = timed("band_s", normal)
    for it in range(settings.max_iterations):
        spent = {"iteration": it,
                 "linearize_s": spent["linearize_s"] if it == 0 else 0.0,
                 "band_s": spent["band_s"] if it == 0 else 0.0,
                 "solve_s": 0.0, "retract_s": 0.0}
        report.phases.append(spent)
        grad_inf = float(np.max(np.abs(g), initial=0.0))
        if it == 0:
            t0 = perf_counter()
            report.gauge = _check_gauge(band, lin.offsets)
            report.gauge_s = perf_counter() - t0
            solve = _damped_solver(band)
        accepted = converged = False
        lam_start = lam  # the least-damped try's
        while lam <= MAX_LAMBDA:
            tried = {"iteration": it, "lam": lam, "outcome": None,
                     "cost": None, "step_inf": None, "grad_inf": grad_inf}
            report.tries.append(tried)
            try:
                delta = timed("solve_s", solve, lam, -g)
            except np.linalg.LinAlgError:
                tried["outcome"] = "failed_factorization"
                lam *= LAMBDA_UP
                continue
            tried["step_inf"] = float(np.max(np.abs(delta), initial=0.0))
            candidate = timed("retract_s", _retract_all, states,
                              layout.columns, delta)
            refilling = False
            try:
                r_cand, normal = timed("linearize_s", lin.residual,
                                       candidate)
                new_cost = float(r_cand @ r_cand)
                accepted = bool(np.isfinite(new_cost) and new_cost <= cost)
                if accepted:
                    rel_drop = (cost - new_cost) / max(cost, 1e-300)
                    converged = (rel_drop < settings.rel_cost_tol
                                 or tried["step_inf"] < settings.dx_tol)
                    if not converged and it + 1 < settings.max_iterations:
                        refilling = True
                        g, _ = timed("band_s", normal)
            except manifold.NearSingularError:
                # candidate stepped onto a singular chart; damp harder
                tried["outcome"] = "singular_chart"
                accepted = converged = False
                lam *= LAMBDA_UP
                if refilling:  # the band is part refilled: form it again
                    timed("band_s", lambda: lin.residual(states)[1]())
                continue
            finally:
                normal = None  # the try's steps, read at most once
            tried["cost"] = new_cost
            if accepted:
                tried["outcome"] = "accepted"
                states, r, cost = candidate, r_cand, new_cost
                lam = max(lam / LAMBDA_DOWN, 1e-15)
                break
            tried["outcome"] = "cost_increase"
            if (lam == lam_start and np.isfinite(new_cost)
                    and tried["step_inf"] < settings.dx_tol):
                # the least-damped step is this small, so it moves a finite
                # cost by rounding alone: the current iterate has converged.
                # A rise only after more damping shows a step that does not
                # descend (a wrong Jacobian), which is no convergence.
                converged = True
                break
            lam *= LAMBDA_UP
        report.iterations = it + 1
        if accepted:
            report.cost_trace.append(cost)
        if converged:
            report.converged = True
            break
        if not accepted:
            break
    report.final_cost = cost
    report.family_costs_end = lin.family_costs(r)
    return layout.values(states, base=initial), report


def marginal_covariance(graph: FactorGraph, values: Values,
                        key: VariableKey) -> np.ndarray:
    """Block of (J^T J)^-1 for one variable at the current estimate."""
    lin = Linearizer(graph)
    _, band = lin.residual(values)[1]()
    _check_gauge(band, lin.offsets)
    c0, d = lin.offsets[key], key.kind.dim
    unit = np.zeros((band.shape[1], d))  # the key's unit columns
    unit[c0:c0 + d] = np.eye(d)
    cov = _damped_solver(band)(0.0, unit)[c0:c0 + d]
    return 0.5 * (cov + cov.T)
