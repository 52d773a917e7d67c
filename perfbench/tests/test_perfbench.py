"""Tests of the benchmark itself: metric names, failure counting, tracing.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, CliExit, Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return [(m["name"], m["unit"], m["better"]) for m in SPEC[section]]


def test_declared_metrics_match_benchmark_json():
    assert run.END_TO_END == _declared("end_to_end")
    assert tracing.PER_LAYER == _declared("per_layer")
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_emitted_metric_names_match_benchmark_json():
    res = {"pass_wall_s": [1.0, 2.0], "pass_cpu_s": [1.0, 2.0], "gen_s": 0.01,
           "peak_rss_mb": 50.0, "attempted": 3, "failed": 2}
    emitted = run.end_to_end(res, [0.5, 0.6])
    assert [(k, v["unit"]) for k, v in emitted.items()] == [
        (name, unit) for name, unit, _ in _declared("end_to_end")]
    assert emitted["ops_ok"]["value"] == pytest.approx(1 / 3)

    layers = tracing.Tracer().layer_metrics()
    layers["trace.overhead_s"] = 0.0
    emitted = run.per_layer({"per_layer": layers})
    assert [(k, v["unit"]) for k, v in emitted.items()] == [
        (name, unit) for name, unit, _ in _declared("per_layer")]


def _raise(state):
    raise RuntimeError("injected")


def _exit(state):
    raise CliExit("degcz nfun-props exited with 4")


INJECTED = [
    Op("ok", lambda state: 1, lambda out: None),
    Op("raises", _raise, lambda out: None),
    Op("exits", _exit, lambda out: None),
    Op("wrong", lambda state: 2, lambda out: f"got {out}"),
    Op("check-raises", lambda state: 3, lambda out: 1 / 0),
]


def test_injected_failing_ops_are_counted_not_raised(tmp_path):
    kinds = [o["kind"] for o in worker.run_pass(INJECTED)["outcomes"]]
    assert kinds == ["ok", "raised", "exit", "check", "check"]

    res = worker.measure(lambda seed, workdir: INJECTED, 0, 0.0, False, tmp_path)
    n = res["passes"]
    assert n == 2
    assert res["attempted"] == 5 * n and res["failed"] == 4 * n
    assert res["check_failures"] == 2 * n
    assert any("injected" in f for f in res["failures"])


def test_traced_pass_counts_layers_and_restores_functions(tmp_path):
    from degcz import exact_examples, meshing, pde_solver, seminorms, weight_algebra

    originals = (seminorms.ball_nodes, pde_solver.spla, meshing.Mesh.refine)
    ex = exact_examples.MeyersExample(2, 0.25, "plain")
    fam = seminorms.standard_family(weight_algebra.Ball((0.0, 0.0), 1.0), 1)

    def run_ops(state):
        seminorms.bmo_matrix(ex.weight_field().log(), fam)
        prob = pde_solver.WeakProblem(ex.weight_field(), 2.0, None, ex.u_with_origin)
        mesh = meshing.disk_mesh(angular=8, layers=4).refine()
        return pde_solver.solve(prob, mesh).converged

    ops = [Op("small", run_ops, lambda out: None if out else "not converged")]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert worker.run_pass(ops, tracer)["outcomes"][0]["kind"] == "ok"
    assert (seminorms.ball_nodes, pde_solver.spla, meshing.Mesh.refine) == originals

    m = tracer.layer_metrics()
    assert m["seminorms.bmo.balls"] == fam.count
    assert m["weight_algebra.ball_nodes.calls"] == fam.count
    assert m["weight_algebra.ball_nodes.reuse"] == 1.0
    cells = meshing.disk_mesh(angular=8, layers=4).num_cells
    assert m["meshing.build.cells"] == cells and m["meshing.refine.cells"] == 4 * cells
    assert m["pde_solver.solve.calls"] == 1 and m["pde_solver.factor.per_solve"] == 2
    assert m["exact_examples.eval.points"] > 0 and m["weight_algebra.field_eval.points"] > 0
    # self times partition the op: every span's self time is non-negative
    # and together they cover the op span exactly
    selfs = tracer.self_times()
    assert all(v >= 0 for v in selfs.values())
    (op,) = [s for s in tracer.spans if s[0] == tracing.OP_SPAN]
    assert sum(selfs.values()) == pytest.approx(op[2] - op[1])


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 2.0, 3.0, 1]]
    assert t.self_times() == {"a": 8.0, "b": 2.0}


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weights", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    def configs(seed):
        d = tmp_path / f"{seed}-{len(list(tmp_path.iterdir()))}"
        d.mkdir()
        WORKLOADS[name](seed, d)
        return {p.name: p.read_text() for p in d.glob("*.cfg")}

    assert configs(7) == configs(7)
    if name in ("weights", "sweep-props"):
        assert configs(8) != configs(7)

