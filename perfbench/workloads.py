"""The benchmark's workloads: seeded inputs, the ops that use them, and checks.

A workload turns a seed into a list of ops.  One pass runs every op once,
in order, each starting when the previous one ends.  An op's ``run`` may
keep state for later ops of the same pass; its ``check`` returns ``None``
when the output meets the workload's acceptance invariants and a message
otherwise.  Ops look up every degcz function through its module at call
time, so that traced passes see the wrapped functions.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from degcz import cli, cz_harness, exact_examples, meshing, pde_solver
from degcz.weight_algebra import Ball


class CliExit(RuntimeError):
    """A CLI op returned a non-zero exit code."""


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _cli_op(name: str, command: str, config: dict | None, extra: list[str], workdir: Path,
            check: Callable[[Path], str | None]) -> Op:
    """An op running ``degcz <command>`` in-process with ``--threads 1``."""
    out = workdir / name
    argv = [command, "--threads", "1", "--out", str(out)] + extra
    if config is not None:
        cfg = workdir / f"{name}.cfg"
        cfg.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in config.items()))
        argv += ["--config", str(cfg)]

    def run(state):
        code = cli.main(argv)
        if code != 0:
            raise CliExit(f"degcz {command} exited with {code}")
        return out

    return Op(name, run, check)


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _nonfinite(rows: list[dict], columns: tuple[str, ...]) -> str | None:
    for row in rows:
        for col in columns:
            if not math.isfinite(float(row[col])):
                return f"{col}={row[col]}"
    return None


# ---------------------------------------------------------------------------
# weights: ball quadrature and the BMO / Muckenhoupt estimators
# ---------------------------------------------------------------------------

#: file -> (row count, numeric columns); the 3-level dyadic family has 259
#: balls and the ball table lists them for both log-BMO estimates
WEIGHT_CSVS = {
    "weight_summary.csv": (4, ("value", "detail")),
    "weight_bmo_balls.csv": (2 * 259, ("center_x", "center_y", "radius", "per_ball_value",
                                       "running_max")),
    "weight_oscillation.csv": (2, ("lhs", "bmo_log", "ratio")),
    "weight_power_means.csv": (3, ("bmo_log", "mean_pos", "mean_neg", "margin_product")),
}


def _check_weight(out: Path) -> str | None:
    summary = json.loads((out / "weight_analysis.json").read_text())
    for key in ("bmo_log_omega", "bmo_log_M", "bmo_M", "ap_p=2", "condition_sampled"):
        if not isinstance(summary.get(key), float) or not math.isfinite(summary[key]):
            return f"{key} is {summary.get(key)!r}"
    if not summary["bmo_log_omega"] <= 2.0 * summary["bmo_log_M"] + 1e-9:
        return "bmo_log_omega exceeds 2 bmo_log_M"
    for fname, (count, columns) in WEIGHT_CSVS.items():
        rows = _csv_rows(out / fname)
        if len(rows) != count:
            return f"{fname} has {len(rows)} rows, expected {count}"
        bad = _nonfinite(rows, columns)
        if bad:
            return f"{fname}: {bad}"
    return None


def weights_ops(seed: int, workdir: Path) -> list[Op]:
    common = {"family.levels": 3, "seed": seed}
    return [
        _cli_op("power-radial", "analyze-weight",
                {"weight.kind": "power-radial", "weight.eps": 0.25, **common}, [],
                workdir, _check_weight),
        _cli_op("log-normal", "analyze-weight",
                {"weight.kind": "log-normal", "weight.n": 2, "weight.seed": seed, **common}, [],
                workdir, _check_weight),
    ]


# ---------------------------------------------------------------------------
# fem-linear: the p = 2 convergence study of acceptance criterion 2
# ---------------------------------------------------------------------------

def fem_linear_ops(seed: int, workdir: Path) -> list[Op]:
    def level_op(level: int) -> Op:
        def run(state):
            ex = exact_examples.MeyersExample(2, 0.25, "plain")
            prob = pde_solver.WeakProblem(ex.weight_field(), 2.0, None, ex.u_with_origin)
            if level == 0:
                mesh = meshing.disk_mesh(angular=20, layers=36, grading=0.7)
            else:
                mesh = state["mesh"].refine()
            state["mesh"] = mesh
            result = pde_solver.solve(prob, mesh)
            err = pde_solver.weighted_h1_error(result.field, ex.grad_u, ex.scalar_weight())
            prev = state.get("error")
            state["error"] = err
            return result.converged, prev, err

        def check(out):
            converged, prev, err = out
            if not converged:
                return "p = 2 solve did not converge"
            if not (math.isfinite(err) and err > 0):
                return f"error {err}"
            if prev is not None and prev / err < 1.5:
                return f"error ratio {prev / err:.3f} < 1.5"
            return None

        return Op(f"level-{level}", run, check)

    return [level_op(level) for level in range(4)]


# ---------------------------------------------------------------------------
# fem-newton: p = 3 solves on the default cz-sweep meshes
# ---------------------------------------------------------------------------

def fem_newton_ops(seed: int, workdir: Path) -> list[Op]:
    spec = cz_harness.SweepSpec(p=3.0, use_fem=True)

    def level_op(level: int) -> Op:
        def run(state):
            ex = exact_examples.MeyersExample(spec.n, spec.eps_list[0], spec.variant)
            prob = pde_solver.WeakProblem(ex.weight_field(), spec.p, None, ex.u_with_origin)
            result = pde_solver.solve(prob, spec.mesh_for(level))
            b0 = Ball(spec.ball_center, spec.ball_radius)
            ratios = [cz_harness.cz_ratio(result.field, prob, b0, rho, spec.geometry).ratio
                      for rho in spec.rho_list]
            return result.converged, ratios

        def check(out):
            converged, ratios = out
            if not converged:
                return "solve returned converged=False"
            if not all(math.isfinite(r) and r > 0 for r in ratios):
                return f"cz ratios {ratios}"
            return None

        return Op(f"level-{level}", run, check)

    return [level_op(level) for level in spec.levels]


# ---------------------------------------------------------------------------
# sweep-props: interpolation cz-sweeps and the N-function property sweep
# ---------------------------------------------------------------------------

def _check_sweep(expected: dict[float, str], rows: int, boundary: tuple[float, float]):
    def check(out: Path) -> str | None:
        summary = json.loads((out / "cz_summary.json").read_text())
        got = {c["rho"]: c["classification"] for c in summary["cells"]}
        for rho, cls in expected.items():
            if got.get(rho) != cls:
                return f"rho={rho:g} classified {got.get(rho)!r}, expected {cls!r}"
        (b,) = [pb["rho_boundary"] for pb in summary["phase_boundaries"]]
        if b is None or not boundary[0] <= b <= boundary[1]:
            return f"phase boundary {b} outside {boundary}"
        n = len(_csv_rows(out / "cz_report.csv"))
        return None if n == rows else f"cz_report.csv has {n} rows, expected {rows}"
    return check


def _check_props(out: Path) -> str | None:
    rows = _csv_rows(out / "nfun_props.csv")
    if len(rows) != 4 * 14:
        return f"nfun_props.csv has {len(rows)} rows, expected 56"
    bad = [r["case"] for r in rows if int(r["violations"]) != 0]
    return f"violations in {bad}" if bad else None


def sweep_props_ops(seed: int, workdir: Path) -> list[Op]:
    base = {"example.variant": "plain", "sweep.levels": [1, 2, 3], "seed": seed}
    half = {2.0: "bounded", 3.0: "bounded", 3.6: "bounded", 4.4: "diverging", 5.0: "diverging"}
    quarter = {7.2: "bounded", 9.4: "diverging"}
    return [
        _cli_op("sweep-eps0.5", "cz-sweep",
                {**base, "example.eps": [0.5], "sweep.rho": list(half)}, [], workdir,
                _check_sweep(half, 15, (3.6, 4.4))),
        _cli_op("sweep-eps0.25", "cz-sweep",
                {**base, "example.eps": [0.25], "sweep.rho": [7.2, 7.8, 8.8, 9.4]}, [],
                workdir, _check_sweep(quarter, 12, (7.2, 8.8))),
        _cli_op("nfun-props", "nfun-props", None, ["--seed", str(seed)], workdir,
                _check_props),
    ]


#: workload name -> ops factory (seed, work directory); why each exists is
#: recorded in BENCHMARK.json and README.md
WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "weights": weights_ops,
    "fem-linear": fem_linear_ops,
    "fem-newton": fem_newton_ops,
    "sweep-props": sweep_props_ops,
}
