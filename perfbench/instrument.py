"""Which of the program's callables the traced run wraps, and the per-layer
metrics computed from the spans they record.

The layers are the program's modules: manifold, factors, fgraph, tracking,
simkit, formats and cli.  A callable is wrapped at every attribute of those
modules that holds it, because that is the name its callers look up (for
example `factors.skew`, `tracking.optimize`, `fgraph.splu`).
"""

from __future__ import annotations

import inspect
import itertools

import numpy as np

MODULES = ("cli", "tracking", "fgraph", "factors", "simkit", "formats",
           "manifold")
KERNELS = ("log_se3", "exp_se3", "compose", "q_block", "jl_so3", "jl_inv_so3",
           "jr_inv_se3", "adjoint_inv_se3", "log_so3", "exp_so3", "skew")
FAMILIES = ("ct_se3", "ct_r3", "odom", "optical", "usbl", "prior",
            "rollpitch", "boundary")
CALLERS = ("tracking", "factors", "fgraph", "simkit")
FACTOR_CONSTRUCTORS = ("ct_factor", "prior_factor", "relative_pose_factor",
                       "usbl_factor", "roll_pitch_factor", "boundary_factors")
# A damped-system factorization leaves the ordering to SuperLU; the gauge
# check asks for the natural ordering.
GAUGE_ORDERING = "NATURAL"


def factor_family(factor) -> str:
    """Family of a constructed factor, read from its name and keys.

    A relative-pose factor between keys at two different times is composed
    odometry on the chaser chain; one between keys at the same time is an
    optical chaser-to-target fix.
    """
    head = factor.name.split("[", 1)[0]
    if head == "ct":
        return {"SE3": "ct_se3", "RN": "ct_r3"}.get(factor.keys[0].kind.tag,
                                                    "ct_so3")
    if head == "relpose":
        a, b = factor.keys
        return "odom" if a.timestamp != b.timestamp else "optical"
    if head.startswith("boundary"):
        return "boundary"
    return head


def install(tracer, tg) -> None:
    """Wrap the program's public callables; `tracer.uninstall()` undoes it."""
    modules = [getattr(tg, m) for m in MODULES] + [tg.package]

    def everywhere(original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, attr, replacement)

    def wrap_all(module, names, prefix, **hooks):
        for name in names:
            fn = getattr(module, name)
            everywhere(fn, tracer.wrap(fn, f"{prefix}.{name}",
                                       on_result=hooks.get(name)))

    manifold = tg.manifold
    kernels = [name for name, fn in vars(manifold).items()
               if inspect.isfunction(fn) and fn.__module__ == manifold.__name__
               and not name.startswith("_")]
    wrap_all(manifold, kernels, "manifold")

    serial = itertools.count()

    def wrap_factor(f):
        fam, tag = factor_family(f), next(serial)
        f.residual_fn = tracer.wrap(f.residual_fn, f"factors.{fam}.residual", tag)
        f.jacobian_fn = tracer.wrap(f.jacobian_fn, f"factors.{fam}.jacobian", tag)
        if f.combined_fn is not None:
            f.combined_fn = tracer.wrap(f.combined_fn,
                                        f"factors.{fam}.combined", tag)

    def wrap_factors(result):
        for f in result if isinstance(result, list) else [result]:
            wrap_factor(f)

    for name in FACTOR_CONSTRUCTORS:
        fn = getattr(tg.factors, name)
        everywhere(fn, tracer.wrap(fn, "factors.construct",
                                   on_result=wrap_factors))

    fgraph = tg.fgraph

    def linearized(result):
        J, _ = result
        tracer.note("rows", J.shape[0])
        tracer.note("cols", J.shape[1])
        tracer.note("jacobian_nnz", J.nnz)

    def factorized(lu):
        tracer.note("factor_nnz", lu.L.nnz + lu.U.nnz)

    def solved(result):
        _, report = result
        tracer.note("iterations", report.iterations)
        tracer.note("accepted", len(report.cost_trace) - 1)

    tracer.patch(fgraph.Linearizer, "__call__", tracer.wrap(
        fgraph.Linearizer.__call__, "fgraph.linearize", on_result=linearized))
    splu = fgraph.splu
    gauge = tracer.wrap(splu, "fgraph.gauge")
    factorize = tracer.wrap(splu, "fgraph.factorize", on_result=factorized)

    def classified_splu(A, *args, **kwargs):
        use = gauge if kwargs.get("permc_spec") == GAUGE_ORDERING else factorize
        return use(A, *args, **kwargs)

    tracer.patch(fgraph, "splu", classified_splu)
    tracer.patch(fgraph, "_retract_all",
                 tracer.wrap(fgraph._retract_all, "fgraph.retract"))
    wrap_all(fgraph, ["optimize"], "fgraph", optimize=solved)

    wrap_all(tg.tracking,
             ["schedule_keyframes", "initialize_values", "build_graph", "smooth"],
             "tracking",
             schedule_keyframes=lambda kfs: tracer.note("keyframes", len(kfs)),
             build_graph=lambda gv: tracer.note("factors", len(gv[0].factors)))
    wrap_all(tg.simkit, ["generate_ground_truth", "synthesize_measurements",
                         "finite_difference_jacobian"], "simkit")
    wrap_all(tg.formats, ["read_measurements", "write_estimate"], "formats")
    wrap_all(tg.cli, ["main"], "cli")


def attributed_layer(layers: np.ndarray, parent: np.ndarray,
                     is_manifold: np.ndarray) -> np.ndarray:
    """For each span, the span index of its nearest ancestor outside manifold
    (-1 when there is none)."""
    anc = parent.copy()
    while True:
        climb = (anc >= 0) & is_manifold[np.maximum(anc, 0)]
        if not climb.any():
            return anc
        anc[climb] = parent[anc[climb]]


def layer_metrics(tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for the traced operations, per operation.

    Counts and seconds are summed over spans of traced operations and
    divided by their number; `us_per_call`/`us_per_eval` are mean inclusive
    span durations.  Set-up spans (operation id -1) feed only the simkit
    set-up timings.
    """
    a = tracer.arrays()
    names = tracer.names
    name_id, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    own = tracer.self_times()
    in_op = a["op"] >= 0
    layer = np.array([n.split(".", 1)[0] for n in names] or [""])[name_id]
    is_manifold = layer == "manifold"

    def ids(pred):
        return [i for i, n in enumerate(names) if pred(n)]

    def mask(pred, scope=in_op):
        return np.isin(name_id, ids(pred)) & scope

    def named(name):
        return mask(lambda n: n == name)

    per_op = float(max(n_ops, 1))
    out: dict[str, tuple[float, str]] = {}

    def put(key, value, unit):
        out[key] = (float(value), unit)

    def mean_us(sel):
        return 1e6 * float(dur[sel].mean()) if sel.any() else 0.0

    anc = attributed_layer(layer, parent, is_manifold)
    from_layer = np.where(anc >= 0, layer[np.maximum(anc, 0)], "")
    man = is_manifold & in_op
    for caller in CALLERS:
        put(f"manifold.calls.from_{caller}",
            np.count_nonzero(man & (from_layer == caller)) / per_op, "count")
    put("manifold.self_s", own[man].sum() / per_op, "s")
    for k in KERNELS:
        put(f"manifold.{k}.us_per_call", mean_us(named(f"manifold.{k}")), "us")

    factor_eval = mask(lambda n: n.startswith("factors.")
                       and n.rsplit(".", 1)[-1] in
                       ("residual", "jacobian", "combined"))
    for fam in FAMILIES:
        sel = factor_eval & mask(lambda n: n.split(".")[1] == fam)
        put(f"factors.{fam}.evals", np.count_nonzero(sel) / per_op, "count")
        put(f"factors.{fam}.us_per_eval", mean_us(sel), "us")
    # A duplicate is a jacobian_fn call whose factor (tag) also ran
    # residual_fn inside the same linearization (parent span).
    lin = named("fgraph.linearize")
    under_lin = np.isin(parent, np.flatnonzero(lin)) & factor_eval
    res = under_lin & mask(lambda n: n.endswith(".residual"))
    jac = under_lin & mask(lambda n: n.endswith(".jacobian"))
    res_keys = set(zip(parent[res], a["tag"][res]))
    dup = sum(k in res_keys for k in zip(parent[jac], a["tag"][jac]))
    put("factors.duplicate_evals", dup / per_op, "count")
    con = named("factors.construct")
    put("factors.construct.calls", np.count_nonzero(con) / per_op, "count")
    put("factors.construct_s", dur[con].sum() / per_op, "s")

    notes: dict[str, list[float]] = {}
    for op, key, value in tracer.notes:
        if op >= 0:
            notes.setdefault(key, []).append(value)

    def noted(key, how=max):
        return how(notes[key]) if key in notes else 0.0

    fac = named("fgraph.factorize")
    put("fgraph.linearize.calls", np.count_nonzero(lin) / per_op, "count")
    put("fgraph.linearize.self_s", own[lin].sum() / per_op, "s")
    put("fgraph.factorize.calls", np.count_nonzero(fac) / per_op, "count")
    put("fgraph.factorize_s", dur[fac].sum() / per_op, "s")
    put("fgraph.gauge_s", dur[named("fgraph.gauge")].sum() / per_op, "s")
    put("fgraph.factor_nnz", noted("factor_nnz"), "count")
    put("fgraph.optimize.self_s", own[named("fgraph.optimize")].sum() / per_op,
        "s")
    put("fgraph.retract.calls", np.count_nonzero(named("fgraph.retract")) / per_op,
        "count")
    tries = float(np.count_nonzero(fac))
    accepted = noted("accepted", sum)
    put("fgraph.lm.iterations", noted("iterations", sum) / per_op, "count")
    put("fgraph.lm.tries", tries / per_op, "count")
    put("fgraph.lm.rejected", (tries - accepted) / per_op, "count")
    put("fgraph.lm.accept_ratio", accepted / tries if tries else 0.0, "ratio")
    put("fgraph.rows", noted("rows"), "count")
    put("fgraph.cols", noted("cols"), "count")
    put("fgraph.jacobian_nnz", noted("jacobian_nnz"), "count")

    init = named("tracking.initialize_values")
    put("tracking.schedule_s",
        dur[named("tracking.schedule_keyframes")].sum() / per_op, "s")
    put("tracking.initialize_s", dur[init].sum() / per_op, "s")
    put("tracking.initialize.calls", np.count_nonzero(init) / per_op, "count")
    put("tracking.build_graph.self_s",
        own[named("tracking.build_graph")].sum() / per_op, "s")
    put("tracking.smooth_s", dur[named("tracking.smooth")].sum() / per_op, "s")
    put("tracking.keyframes", noted("keyframes", sum) / per_op, "count")
    put("tracking.factors", noted("factors", sum) / per_op, "count")

    put("formats.read_measurements_s",
        dur[named("formats.read_measurements")].sum() / per_op, "s")
    put("formats.write_estimate_s",
        dur[named("formats.write_estimate")].sum() / per_op, "s")

    fd = named("simkit.finite_difference_jacobian")
    put("simkit.fd_jacobian.calls", np.count_nonzero(fd) / per_op, "count")
    put("simkit.fd_jacobian.self_s", own[fd].sum() / per_op, "s")
    everything = np.ones_like(in_op)
    put("simkit.generate_s", dur[mask(
        lambda n: n == "simkit.generate_ground_truth", everything)].sum(), "s")
    put("simkit.synthesize_s", dur[mask(
        lambda n: n == "simkit.synthesize_measurements", everything)].sum(), "s")

    put("cli.main.self_s", own[named("cli.main")].sum() / per_op, "s")
    put("trace.spans_per_op", np.count_nonzero(in_op) / per_op, "count")
    return out
