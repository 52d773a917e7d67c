"""Layer spans for the traced benchmark run.

The tracer wraps functions of the ``degcz`` modules from the outside: the
package itself carries no instrumentation.  Each wrapped call records a span
(layer name, start, end, parent span) in memory, plus the work counters of
that layer.  Self times are computed once the pass is over.  Untraced passes
run with the original functions, because :func:`installed` puts every
original back when it exits.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("weight_algebra.ball_nodes.calls", "count", "lower"),
    ("weight_algebra.ball_nodes.nodes", "count", "lower"),
    ("weight_algebra.ball_nodes.self_s", "s", "lower"),
    ("weight_algebra.ball_nodes.reuse", "ratio", "higher"),
    ("weight_algebra.field_eval.points", "count", "lower"),
    ("weight_algebra.field_eval.self_s", "s", "lower"),
    ("weight_algebra.matfun.self_s", "s", "lower"),
    ("weight_algebra.log_mean.self_s", "s", "lower"),
    ("seminorms.bmo.balls", "count", "lower"),
    ("seminorms.bmo.self_s", "s", "lower"),
    ("seminorms.ap.balls", "count", "lower"),
    ("seminorms.ap.self_s", "s", "lower"),
    ("seminorms.checks.self_s", "s", "lower"),
    ("exact_examples.eval.points", "count", "lower"),
    ("exact_examples.eval.self_s", "s", "lower"),
    ("meshing.build.cells", "count", "lower"),
    ("meshing.build.self_s", "s", "lower"),
    ("meshing.refine.cells", "count", "lower"),
    ("meshing.refine.self_s", "s", "lower"),
    ("pde_solver.assembly.self_s", "s", "lower"),
    ("pde_solver.factor.calls", "count", "lower"),
    ("pde_solver.factor.self_s", "s", "lower"),
    ("pde_solver.factor.per_solve", "ratio", "lower"),
    ("pde_solver.residual.self_s", "s", "lower"),
    ("pde_solver.solve.calls", "count", "lower"),
    ("pde_solver.solve.self_s", "s", "lower"),
    ("pde_solver.newton.steps", "count", "lower"),
    ("pde_solver.line_search.evals", "count", "lower"),
    ("pde_solver.line_search.accept", "ratio", "higher"),
    ("nfunctions.props.samples", "count", "lower"),
    ("nfunctions.props.self_s", "s", "lower"),
    ("nfunctions.maps.self_s", "s", "lower"),
    ("cz_harness.ratio.calls", "count", "lower"),
    ("cz_harness.ratio.self_s", "s", "lower"),
    ("cz_harness.sweep.calls", "count", "lower"),
    ("cz_harness.sweep.self_s", "s", "lower"),
    ("reporting.write.bytes", "bytes", "lower"),
    ("reporting.write.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
]

#: span name of one benchmark op; its self time is time spent in no layer
OP_SPAN = "op"


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.node_sets: set = set()
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, layer: str, fn, counter=None):
        """``fn`` inside a span named ``layer``; ``counter`` then sees the call."""
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out, exc = None, None
            with self.span(layer):
                try:
                    out = fn(*args, **kwargs)
                except Exception as err:
                    exc = err
                    raise
                finally:
                    if counter is not None:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        counter(self, bound.arguments, out, exc)
            return out

        return traced

    def self_times(self) -> dict[str, float]:
        """Sum over spans of each name of the span's time minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``, for this pass."""
        selfs = self.self_times()
        c = self.counts
        values = {name: 0.0 for name, _, _ in PER_LAYER}
        for name in values:
            if name.endswith(".self_s"):
                values[name] = selfs.get(name[: -len(".self_s")], 0.0)
            elif name in c:
                values[name] = c[name]
        calls = c["weight_algebra.ball_nodes.calls"]
        values["weight_algebra.ball_nodes.reuse"] = len(self.node_sets) / calls if calls else 0.0
        solves = c["pde_solver.solve.calls"]
        values["pde_solver.factor.per_solve"] = (
            c["pde_solver.factor.calls"] / solves if solves else 0.0
        )
        evals = c["pde_solver.line_search.evals"]
        values["pde_solver.line_search.accept"] = (
            c["pde_solver.newton.steps"] / evals if evals else 0.0
        )
        values["trace.uncovered_s"] = selfs.get(OP_SPAN, 0.0)
        del values["trace.overhead_s"]
        return values


# ---------------------------------------------------------------------------
# counters: (tracer, bound arguments, result, exception) -> None.  They read
# arguments with .get, so a renamed parameter loses a count, not the op.
# ---------------------------------------------------------------------------

def _calls(metric):
    def counter(t, a, out, exc):
        t.count(metric)
    return counter


def _points(metric):
    def counter(t, a, out, exc):
        if a.get("points") is not None:
            t.count(metric, len(np.atleast_2d(a["points"])))
    return counter


def _balls(metric):
    def counter(t, a, out, exc):
        t.count(metric, getattr(a.get("fam"), "count", 0))
    return counter


def _cells(metric):
    def counter(t, a, out, exc):
        if out is not None:
            t.count(metric, out.num_cells)
    return counter


def _ball_nodes(t, a, out, exc):
    t.count("weight_algebra.ball_nodes.calls")
    if out is not None:
        t.count("weight_algebra.ball_nodes.nodes", len(out[1]))
    sing = a.get("singular")
    sing = None if sing is None else np.asarray(sing, dtype=float).tobytes()
    t.node_sets.add((a.get("ball"), a.get("quad"), a.get("clip"), sing))


def _solve(t, a, out, exc):
    t.count("pde_solver.solve.calls")
    trace = getattr(out if out is not None else exc, "trace", [])
    steps = sum(1 for e in trace if e.get("iteration", 0) > 0 and e.get("step", 0) > 0)
    t.count("pde_solver.newton.steps", steps)


def _line_search(t, a, out, exc):
    t.count("pde_solver.line_search.evals")


def _props(t, a, out, exc):
    t.count("nfunctions.props.samples", a.get("samples", 0))


def _written(t, a, out, exc):
    if out is not None:
        t.count("reporting.write.bytes", os.path.getsize(out))


def _layer_table():
    """(layer, owner, attribute, counter) for every traced function.

    An owner that is a class has the attribute replaced on the class; a
    module function is replaced under every name any ``degcz`` module binds
    it to, so re-imports such as ``seminorms.ball_nodes`` are traced too.
    """
    from degcz import (
        cli, cz_harness, exact_examples, meshing, nfunctions, pde_solver, reporting,
        seminorms, weight_algebra as wa,
    )

    table = [("weight_algebra.ball_nodes", wa, "ball_nodes", _ball_nodes)]
    for cls in (wa.ScalarField, wa.MatrixField, wa.ScalarWeightField, wa.WeightField):
        table.append(("weight_algebra.field_eval", cls, "evaluate",
                      _points("weight_algebra.field_eval.points")))
    for name in ("sym_exp_batched", "sym_log_batched", "spectral_norm_sym", "_sym_eigvals",
                 "spd_exp", "spd_log"):
        table.append(("weight_algebra.matfun", wa, name, None))
    for name in ("log_mean_scalar", "log_mean_matrix"):
        table.append(("weight_algebra.log_mean", wa, name, None))
    for name in ("bmo_scalar", "bmo_matrix"):
        table.append(("seminorms.bmo", seminorms, name, _balls("seminorms.bmo.balls")))
    table.append(("seminorms.ap", seminorms, "muckenhoupt_ap", _balls("seminorms.ap.balls")))
    table.append(("seminorms.ap", cz_harness, "muckenhoupt_ap_like",
                  _balls("seminorms.ap.balls")))
    for name in ("prop_small_check", "small_scalar_checks"):
        table.append(("seminorms.checks", seminorms, name, None))
    for name in ("u", "u_with_origin", "grad_u", "weight", "log_weight", "omega", "flux"):
        table.append(("exact_examples.eval", exact_examples.MeyersExample, name,
                      _points("exact_examples.eval.points")))
    table.append(("meshing.build", meshing, "disk_mesh", _cells("meshing.build.cells")))
    table.append(("meshing.refine", meshing.Mesh, "refine", _cells("meshing.refine.cells")))
    for name in ("_cell_data", "_stiffness", "_gradient_hessian", "energy"):
        table.append(("pde_solver.assembly", pde_solver, name, None))
    table.append(("pde_solver.assembly", pde_solver, "_energy_from_values", _line_search))
    table.append(("pde_solver.residual", pde_solver, "weak_residual", None))
    table.append(("pde_solver.solve", pde_solver, "solve", _solve))
    table.append(("nfunctions.props", nfunctions, "run_property_sweep", _props))
    for name in ("a_map", "v_map", "weighted_maps"):
        table.append(("nfunctions.maps", nfunctions, name, None))
    table.append(("cz_harness.ratio", cz_harness, "cz_ratio", _calls("cz_harness.ratio.calls")))
    table.append(("cz_harness.sweep", cz_harness, "run_sweep", _calls("cz_harness.sweep.calls")))
    for name in ("write_csv", "write_json", "write_jsonl"):
        table.append(("reporting.write", reporting, name, _written))
    table.append(("cli", cli, "main", None))
    return table


class _ModuleView:
    """A module with some attributes replaced, for one importer only."""

    def __init__(self, module, **overrides):
        self._module = module
        vars(self).update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def installed(tracer: Tracer):
    """Trace the degcz layers into ``tracer`` until the block exits."""
    from degcz import pde_solver

    modules = [m for n, m in list(sys.modules.items()) if n == "degcz" or n.startswith("degcz.")]
    undo = []
    for layer, owner, attr, counter in _layer_table():
        if isinstance(owner, type):
            orig = owner.__dict__.get(attr)
            if orig is None:
                continue
            setattr(owner, attr, tracer.wrap(layer, orig, counter))
            undo.append((owner, attr, orig))
            continue
        orig = getattr(owner, attr, None)
        if orig is None:
            continue
        traced = tracer.wrap(layer, orig, counter)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, traced)
                    undo.append((mod, name, orig))
    # the sparse factorizations pde_solver runs through scipy; splu and
    # factorized are covered too, so a solver that factors once and reuses
    # the factor still has its factorizations counted
    spla = pde_solver.spla
    factor = _calls("pde_solver.factor.calls")
    pde_solver.spla = _ModuleView(spla, **{
        name: tracer.wrap("pde_solver.factor", getattr(spla, name), factor)
        for name in ("spsolve", "splu", "factorized") if hasattr(spla, name)
    })
    undo.append((pde_solver, "spla", spla))
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
