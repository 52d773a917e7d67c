"""Batch front-end: configure, run, and report experiments with fixed seeds.

Configs are flat ``key = value`` text files with dotted keys and JSON-style
values; command-line flags override file values, and the fully resolved
config (with its hash) is echoed next to every output.  Exit codes: 1 usage,
2 setup, 3 nonconvergence, 4 property violation.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import cz_harness, exact_examples, nfunctions, pde_solver, seminorms
from .calibration import CALIBRATED
from .meshing import disk_mesh, unit_square_mesh
from .reporting import settings_hash, write_csv, write_json, write_jsonl
from .weight_algebra import (
    Ball,
    DEFAULT_QUAD,
    QuadratureSpec,
    SCALAR_WEIGHT_KINDS,
    lambda_max_sym,
    scalar_weight_from_config,
    weight_from_config,
)

__all__ = ["main"]

EXIT_USAGE = 1
EXIT_SETUP = 2
EXIT_NONCONVERGENCE = 3
EXIT_PROPERTY = 4


class UsageError(ValueError):
    pass


class SetupError(RuntimeError):
    pass


class PropertyViolation(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

# a line up to its comment: the first '#' outside a double-quoted string
_UNCOMMENTED = re.compile(r'(?:[^"#]|"(?:[^"\\]|\\.)*"|")*')


def parse_config_file(path: str | Path) -> dict:
    """Parse ``key = value`` lines; dotted keys nest, values parse as JSON.

    A ``#`` starts a comment unless it lies inside a JSON string.
    """
    cfg: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = _UNCOMMENTED.match(raw).group(0).strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            parsed = json.loads(val)
        except json.JSONDecodeError:
            parsed = val
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = parsed
    return cfg


def _get(cfg: dict, dotted: str, default=None):
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def _set(cfg: dict, dotted: str, value) -> None:
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = parse_config_file(args.config) if args.config else {}
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", 0)
    if args.eps is not None:
        _set(cfg, "example.eps", args.eps)
    if args.p is not None:
        _set(cfg, "problem.p", args.p)
    if args.rho is not None:
        _set(cfg, "sweep.rho", [args.rho])
    if args.grid is not None:
        _set(cfg, "sweep.levels", list(range(1, args.grid + 1)))
        _set(cfg, "mesh.refinements", args.grid)
    cfg["threads"] = args.threads
    out = os.environ.get("DEGCZ_OUT") or args.out
    cfg["out"] = str(out)
    return cfg


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: dict, out: Path, command: str) -> dict:
    resolved = {"command": command, **cfg}
    # the hash identifies the experiment: output location and worker count
    # do not affect results and stay out of it
    hashed = {k: v for k, v in resolved.items() if k not in ("out", "threads")}
    resolved["settings_hash"] = settings_hash(hashed)
    write_json(out / f"{command.replace('-', '_')}_config.json", resolved)
    return resolved


def _quad_from_cfg(cfg: dict, default: QuadratureSpec = DEFAULT_QUAD) -> QuadratureSpec:
    q = _get(cfg, "quadrature", None)
    if not q:
        return default
    if not isinstance(q, dict):
        raise UsageError(f"quadrature must be a table of settings, got {q!r}")
    res = q.get("resolution", list(default.counts()))
    if isinstance(res, list):
        res = tuple(int(r) for r in res)
    return QuadratureSpec(q.get("scheme", "polar-midpoint"), res, q.get("seed"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze_weight(cfg: dict) -> int:
    out = _outdir(cfg)
    resolved = _echo_config(cfg, out, "analyze-weight")
    wcfg = _get(cfg, "weight")
    if not isinstance(wcfg, dict) or "kind" not in wcfg:
        raise UsageError(
            "analyze-weight needs a weight.kind entry; known kinds: "
            + ", ".join(SCALAR_WEIGHT_KINDS)
        )
    scalar_only = wcfg["kind"] in ("power", "constant") and "matrix" not in wcfg
    p_list = _get(cfg, "ap.p_list", [2.0])
    q_list = _get(cfg, "oscillation.q_list", [2.0, 4.0])
    s_list = _get(cfg, "small.s_list", [1.0, 2.0, 4.0])
    lists = (p_list, q_list, s_list)
    if not (all(isinstance(x, list) and all(type(v) in (int, float) for v in x) for x in lists)
            and all(1.0 < p < math.inf for p in p_list)
            and all(1.0 <= v < math.inf for v in q_list + s_list)):
        raise UsageError("ap.p_list, oscillation.q_list and small.s_list must list finite "
                         "numbers, each p above 1 and each q and s at least 1")
    try:
        omega = scalar_weight_from_config(wcfg)
        matrix = None if scalar_only else weight_from_config(wcfg)
        dom = Ball(tuple(_get(cfg, "domain.center", (0.0, 0.0))), _get(cfg, "domain.radius", 1.0))
        quad = _quad_from_cfg(cfg)
        fam = seminorms.standard_family(dom, int(_get(cfg, "family.levels", 3)))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    header = {"settings_hash": resolved["settings_hash"], "seed": cfg["seed"]}

    summary: dict = {"label": omega.label, "calibrated": CALIBRATED.as_dict()}
    rows = []
    ball_rows: list[tuple] = []

    def record_balls(family_id: str, est) -> None:
        ball_rows.extend((family_id,) + r for r in est.rows)
        summary.setdefault("attaining_balls", {})[family_id] = {
            "center": list(est.attaining_ball.center),
            "radius": est.attaining_ball.radius,
            "value": est.value,
        }

    # omega = |M|, and every matrix kind has a closed-form log M, so one
    # evaluation of it serves both, since log omega = lambda_max(log M)
    if matrix is not None:
        est_w, est_m = seminorms.bmo_views(
            matrix.log(), fam, quad, (lambda_max_sym, lambda h: h)
        )
    else:
        est_w, est_m = seminorms.bmo(omega.log(), fam, quad), None
    summary["bmo_log_omega"] = est_w.value
    rows.append(("bmo_log_omega", est_w.value, est_w.attaining_ball.radius))
    record_balls("bmo_log_omega", est_w)
    if matrix is not None:
        summary["bmo_log_M"] = est_m.value
        rows.append(("bmo_log_M", est_m.value, est_m.attaining_ball.radius))
        record_balls("bmo_log_M", est_m)
        # refined() extends the ladder, so its first ladder.count rows are the
        # ladder's own per-ball values
        ladder = seminorms.BallFamily.origin_ladder(dom, levels=2)
        est_raw_deep = seminorms.bmo(matrix, ladder.refined(), quad)
        raw_value = max(row[4] for row in est_raw_deep.rows[:ladder.count])
        unbounded = est_raw_deep.value > 1.5 * raw_value
        summary["bmo_M"] = est_raw_deep.value
        summary["bmo_M_flag"] = (
            "unbounded (growing with family refinement)" if unbounded else "stable"
        )
        rows.append(("bmo_M", est_raw_deep.value, est_raw_deep.attaining_ball.radius))
        sampled = matrix.measured_condition(
            np.linspace(0.05, 0.95, 37)[:, None] * np.array([[1.0, 0.37]])
        )
        summary["condition_sampled"] = sampled
        summary["condition_bound"] = matrix.cond_bound
    for p in p_list:
        est = seminorms.muckenhoupt_ap(omega, float(p), fam, quad)
        key = f"ap_p={p:g}"
        summary[key] = "divergent" if est.divergent else est.value
        rows.append((key, math.nan if est.divergent else est.value, 0.0))
    # oscillation and power-mean check tables
    prop_rows = []
    for q_exp in q_list:
        rep = seminorms.prop_small_check(omega, dom, float(q_exp), quad, bmo_log=est_w.value)
        prop_rows.append((q_exp, rep.lhs, rep.bmo, rep.ratio))
    small_rows = []
    for s in s_list:
        rep = seminorms.small_scalar_checks(omega, dom, float(s), quad, bmo_log=est_w.value)
        small_rows.append(
            (s, rep.bmo_log, int(rep.condition_met), int(rep.divergent),
             rep.mean_pos, rep.mean_neg, rep.margin_pos, rep.margin_neg,
             rep.margin_product, int(rep.holds))
        )
    write_csv(out / "weight_summary.csv", ("quantity", "value", "detail"), rows, header)
    write_csv(
        out / "weight_bmo_balls.csv",
        ("family_id", "ball_index", "center_x", "center_y", "radius",
         "per_ball_value", "running_max"),
        ball_rows,
        header,
    )
    write_csv(
        out / "weight_oscillation.csv", ("q", "lhs", "bmo_log", "ratio"), prop_rows, header
    )
    write_csv(
        out / "weight_power_means.csv",
        ("s", "bmo_log", "condition_met", "divergent", "mean_pos", "mean_neg",
         "margin_pos", "margin_neg", "margin_product", "holds"),
        small_rows,
        header,
    )
    summary["settings_hash"] = resolved["settings_hash"]
    write_json(out / "weight_analysis.json", summary)
    print(f"analyze-weight: wrote {out}/weight_analysis.json")
    return 0


def _example_from_cfg(cfg: dict) -> exact_examples.MeyersExample:
    return exact_examples.MeyersExample(
        n=int(_get(cfg, "example.n", 2)),
        eps=float(_get(cfg, "example.eps", 0.25)),
        variant=str(_get(cfg, "example.variant", "plain")),
        theta_override=_get(cfg, "example.theta_override"),
    )


def cmd_verify_example(cfg: dict) -> int:
    out = _outdir(cfg)
    resolved = _echo_config(cfg, out, "verify-example")
    ex = _example_from_cfg(cfg)
    rng = np.random.default_rng(int(cfg["seed"]))
    checks: list[tuple[str, bool, float]] = []

    coeff = ex.divergence_coefficient()
    checks.append(("divergence_identity", abs(coeff) <= 1e-14, coeff))

    pts = rng.standard_normal((50, ex.n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= 0.05 + 0.9 * rng.random((50, 1))
    cal_a, _ = nfunctions.weighted_maps(ex.weight(pts), 2.0, ex.grad_u(pts))
    flux_err = float(
        np.max(np.linalg.norm(cal_a - ex.flux(pts), axis=1)
               / np.maximum(np.linalg.norm(ex.flux(pts), axis=1), 1e-30))
    )
    checks.append(("flux_consistency", flux_err <= 1e-10, flux_err))

    h = 1e-6
    fd_err = 0.0
    pts = pts[:25]
    grad = ex.grad_u(pts)
    for axis in range(ex.n):
        shift = np.zeros(ex.n)
        shift[axis] = h
        fd = (ex.u(pts + shift) - ex.u(pts - shift)) / (2 * h)
        fd_err = max(
            fd_err,
            float(np.max(np.abs(fd - grad[:, axis]) / np.maximum(np.abs(grad).max(1), 1e-12))),
        )
    checks.append(("gradient_fd", fd_err <= 1e-5, fd_err))

    if ex.n == 2:
        wfield = ex.weight_field()
        prob = pde_solver.WeakProblem(wfield, 2.0, None, ex.u_with_origin)
        residuals = []
        mesh = disk_mesh(angular=20, layers=16, grading=0.7)
        for level in range(3):
            u = pde_solver.interpolate(mesh, ex.u_with_origin)
            res, _ = pde_solver.weak_residual(prob, u)
            residuals.append(res)
            if level < 2:
                mesh = mesh.refine()
        # observed order >= 0.5 in h over two quadrisections when the flux is
        # divergence free; a wrong theta leaves the residual bounded below
        vanishing = residuals[-1] <= residuals[0] / 2.0 ** 1.0
        checks.append(("residual_refinement", vanishing, residuals[-1] / residuals[0]))

    rows = [(name, int(ok), val) for name, ok, val in checks]
    write_csv(out / "verify_example.csv", ("check", "passed", "value"), rows,
              {"settings_hash": resolved["settings_hash"], "seed": cfg["seed"]})
    for name, ok, val in checks:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({val:.3e})")
    if not all(ok for _, ok, _ in checks):
        raise PropertyViolation("example verification failed")
    return 0


def _mesh_from_cfg(cfg: dict):
    kind = _get(cfg, "mesh.kind", "disk")
    if kind == "disk":
        return disk_mesh(
            radius=float(_get(cfg, "mesh.radius", 1.0)),
            angular=int(_get(cfg, "mesh.angular", 24)),
            layers=int(_get(cfg, "mesh.layers", 20)),
            grading=float(_get(cfg, "mesh.grading", 0.7)),
        )
    if kind == "square":
        return unit_square_mesh(int(_get(cfg, "mesh.divisions", 32)))
    raise SetupError(f"unknown mesh kind {kind!r}")


def _data_from_cfg(cfg: dict):
    spec = _get(cfg, "problem.data", "zero")
    if spec == "zero" or spec is None:
        return None
    if isinstance(spec, list):
        g = np.asarray(spec, dtype=float)
        return lambda pts: np.broadcast_to(g, (len(pts), len(g))).copy()
    raise SetupError(f"unknown data spec {spec!r}")


def _dirichlet_from_cfg(cfg: dict, ex) -> object:
    spec = _get(cfg, "problem.dirichlet", "example")
    if spec == "zero":
        return lambda pts: np.zeros(len(pts))
    if spec == "example":
        return ex.u_with_origin
    if isinstance(spec, list):
        a, b, c = (float(v) for v in spec)
        return lambda pts: a * pts[:, 0] + b * pts[:, 1] + c
    raise SetupError(f"unknown dirichlet spec {spec!r}")


def cmd_solve(cfg: dict) -> int:
    out = _outdir(cfg)
    resolved = _echo_config(cfg, out, "solve")
    ex = _example_from_cfg(cfg)
    wcfg = _get(cfg, "weight")
    try:
        wfield = weight_from_config(wcfg) if wcfg else ex.weight_field()
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    try:
        mesh = _mesh_from_cfg(cfg)
    except ValueError as exc:
        raise SetupError(str(exc)) from exc
    prob = pde_solver.WeakProblem(
        wfield,
        float(_get(cfg, "problem.p", 2.0)),
        _data_from_cfg(cfg),
        _dirichlet_from_cfg(cfg, ex),
    )
    scfg = pde_solver.SolverConfig(
        tolerance=float(_get(cfg, "solver.tolerance", 1e-10)),
        max_iterations=int(_get(cfg, "solver.max_iterations", 60)),
    )
    result = pde_solver.solve(prob, mesh, scfg)
    header = {"settings_hash": resolved["settings_hash"], "seed": cfg["seed"]}
    mesh.to_csv(out / "mesh")
    write_csv(
        out / "solution.csv",
        ("vertex", "x", "y", "value"),
        [(i, v[0], v[1], val) for i, (v, val) in enumerate(zip(mesh.vertices, result.field.values))],
        header,
    )
    write_jsonl(out / "trace.jsonl", result.trace)
    print(
        f"solve: {len(result.trace)} trace entries, residual {result.residual:.3e}, "
        f"wrote {out}/solution.csv"
    )
    if not result.converged:
        print(f"nonconvergence: residual {result.residual:g} above tolerance", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return 0


def cmd_cz_sweep(cfg: dict) -> int:
    out = _outdir(cfg)
    resolved = _echo_config(cfg, out, "cz-sweep")
    spec = cz_harness.SweepSpec(
        variant=str(_get(cfg, "example.variant", "plain")),
        n=int(_get(cfg, "example.n", 2)),
        eps_list=tuple(np.atleast_1d(_get(cfg, "example.eps", [0.5])).tolist()),
        rho_list=tuple(_get(cfg, "sweep.rho", [2.0, 3.0, 5.0])),
        levels=tuple(_get(cfg, "sweep.levels", [1, 2, 3])),
        ball_center=tuple(_get(cfg, "ball.center", (0.0, 0.0))),
        ball_radius=float(_get(cfg, "ball.radius", 0.2)),
        p=float(_get(cfg, "problem.p", 2.0)),
        geometry=str(_get(cfg, "sweep.geometry", "nonlinear")),
        angular=int(_get(cfg, "mesh.angular", 16)),
        base_layers=int(_get(cfg, "mesh.base_layers", 20)),
        layers_per_level=int(_get(cfg, "mesh.layers_per_level", 100)),
        grading=float(_get(cfg, "mesh.grading", 0.7)),
        use_fem=bool(_get(cfg, "sweep.use_fem", False)),
        experiment_id=str(_get(cfg, "experiment_id", resolved["settings_hash"])),
    )
    threads = int(cfg.get("threads", 1))
    if threads > 1 and len(spec.eps_list) > 1:
        parts = [dataclasses.replace(spec, eps_list=(eps,)) for eps in spec.eps_list]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(cz_harness.run_sweep, parts))
        report = cz_harness.CzReport.merged(reports)
    else:
        report = cz_harness.run_sweep(spec)
    header = {"settings_hash": resolved["settings_hash"], "seed": cfg["seed"]}
    write_csv(
        out / "cz_report.csv",
        cz_harness.CzRow.CSV_COLUMNS,
        [row.as_csv_values() for row in report.rows],
        header,
    )
    write_json(out / "cz_summary.json", report.summary())
    print(f"cz-sweep: {len(report.rows)} rows, boundaries {report.boundaries}")
    return 0


def cmd_nfun_props(cfg: dict) -> int:
    out = _outdir(cfg)
    resolved = _echo_config(cfg, out, "nfun-props")
    p_list = _get(cfg, "nfun.p_list", [1.5, 2.0, 3.0, 4.5])
    if not isinstance(p_list, list):
        raise UsageError(f"nfun.p_list must be a list, got {p_list!r}")
    try:
        p_list = [float(p) for p in p_list]
        samples = int(_get(cfg, "nfun.samples", 100_000))
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"nfun.p_list and nfun.samples must be numbers: {exc}") from exc
    if samples < 1:
        raise UsageError(f"nfun.samples must be at least 1, got {samples}")
    if not all(math.isfinite(p) and p > 1.0 for p in p_list):
        raise UsageError(f"nfun.p_list entries must be finite and exceed 1, got {p_list}")
    rows = []
    violations = 0
    for p in p_list:
        for case in nfunctions.run_property_sweep(p, samples, int(cfg["seed"])):
            rows.append(
                (case.p, case.case, case.min_ratio, case.max_ratio, case.violations)
            )
            violations += case.violations
    write_csv(
        out / "nfun_props.csv",
        ("p", "case", "min_ratio", "max_ratio", "violations"),
        rows,
        {"settings_hash": resolved["settings_hash"], "seed": cfg["seed"]},
    )
    print(f"nfun-props: {len(rows)} cases, {violations} violations")
    if violations:
        raise PropertyViolation(f"{violations} property violations recorded")
    return 0


def cmd_report(cfg: dict) -> int:
    out = _outdir(cfg)
    resolved = _echo_config(cfg, out, "report")
    merged: dict = {"files": {}}
    for csv_path in sorted(out.glob("*.csv")):
        with open(csv_path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        merged["files"][csv_path.name] = max(len(lines) - 1, 0)
    for json_path in sorted(out.glob("*_summary.json")) + sorted(out.glob("*analysis.json")):
        with open(json_path) as fh:
            merged[json_path.stem] = json.load(fh)
    merged["settings_hash"] = resolved["settings_hash"]
    write_json(out / "summary.json", merged)
    print(f"report: merged {len(merged['files'])} CSV files into {out}/summary.json")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degcz",
        description="Experiments around degenerate matrix-weighted elliptic estimates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze-weight", "verify-example", "solve", "cz-sweep",
                 "nfun-props", "report"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--out", type=str, default="degcz_out")
        sp.add_argument("--grid", type=int, default=None)
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--rho", type=float, default=None)
    return parser


_COMMANDS = {
    "analyze-weight": cmd_analyze_weight,
    "verify-example": cmd_verify_example,
    "solve": cmd_solve,
    "cz-sweep": cmd_cz_sweep,
    "nfun-props": cmd_nfun_props,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SetupError, FileNotFoundError, cz_harness.GeometryError) as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    except pde_solver.NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
