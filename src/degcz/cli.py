"""Batch front-end: configure, run, and report experiments with fixed seeds.

Configs are TOML, usually flat ``key = value`` lines with dotted keys: a
string is quoted, a key is set once, there is no null, and the non-finite
floats are spelled ``inf`` and ``nan``.  Command-line flags override file
values, and the fully resolved config (with its hash) is echoed next to every
output.  Exit codes: 1 usage, 2 setup, 3 nonconvergence, 4 property violation.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import cz_harness, exact_examples, nfunctions, pde_solver, seminorms
from .calibration import CALIBRATED
from .meshing import disk_mesh, unit_square_mesh
from .reporting import settings_hash, write_csv, write_json, write_jsonl
from .weight_algebra import (
    Ball,
    QuadratureSpec,
    SCALAR_WEIGHT_KINDS,
    lambda_max_sym,
    log_mean,
    omega_and_matrix_from_config,
    sandwich_check,
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

def parse_config_file(path: str | Path) -> dict:
    """Parse a TOML config; a decode error is a usage error naming the file
    and line."""
    import tomllib  # on first use: perfbench's setup_s times `import degcz.cli`

    try:
        return tomllib.loads(Path(path).read_text())
    except tomllib.TOMLDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from exc


_ABSENT = object()


def _get(cfg: dict, dotted: str, default=None):
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def _settings(cfg: dict, table: dict) -> dict:
    """Keyword arguments from the keys of ``table``, ``config key ->
    (parameter, type)``, that the config sets; the rest keep the defaults of
    the library call they feed."""
    found = {key: _get(cfg, key, _ABSENT) for key in table}
    return {table[k][0]: table[k][1](v) for k, v in found.items() if v is not _ABSENT}


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
    # a command registers only the flags it reads, so the others are absent
    if getattr(args, "eps", None) is not None:
        _set(cfg, "example.eps", args.eps)
    if getattr(args, "p", None) is not None:
        _set(cfg, "problem.p", args.p)
    if getattr(args, "rho", None) is not None:
        _set(cfg, "sweep.rho", [args.rho])
    if getattr(args, "grid", None) is not None:
        _set(cfg, "sweep.levels", list(range(1, args.grid + 1)))
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    cfg["threads"] = args.threads
    out = os.environ.get("DEGCZ_OUT") or args.out
    cfg["out"] = str(out)
    return cfg


def _echo_config(cfg: dict, out: Path, command: str) -> str:
    """Write the resolved config with its settings hash; return the hash."""
    resolved = {"command": command, **cfg}
    # the hash identifies the experiment: output location and worker count
    # do not affect results and stay out of it
    hashed = {k: v for k, v in resolved.items() if k not in ("out", "threads")}
    resolved["settings_hash"] = settings_hash(hashed)
    write_json(out / f"{command.replace('-', '_')}_config.json", resolved)
    return resolved["settings_hash"]


def _quad_from_cfg(cfg: dict) -> QuadratureSpec:
    q = _get(cfg, "quadrature") or {}
    if not isinstance(q, dict):
        raise UsageError(f"quadrature must be a table of settings, got {q!r}")
    unknown = sorted(set(q) - {"resolution"})
    if unknown:
        raise UsageError(f"unknown quadrature settings {unknown}; the one setting is resolution")
    return QuadratureSpec(**q)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze_weight(cfg: dict, out: Path, header: dict) -> int:
    wcfg = _get(cfg, "weight")
    if not isinstance(wcfg, dict) or "kind" not in wcfg:
        raise UsageError(
            "analyze-weight needs a weight.kind entry; known kinds: "
            + ", ".join(SCALAR_WEIGHT_KINDS)
        )
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
        omega, matrix = omega_and_matrix_from_config(wcfg)
        dom = Ball(tuple(_get(cfg, "domain.center", (0.0, 0.0))), _get(cfg, "domain.radius", 1.0))
        if dom.dim != omega.dim:
            raise ValueError(f"domain.center must have {omega.dim} coordinates, got {dom.dim}")
        quad = _quad_from_cfg(cfg)
        fam = seminorms.standard_family(dom, **_settings(cfg, {"family.levels": ("levels", int)}))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc

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
    # evaluation of it serves both, since log omega = lambda_max(log M); the
    # same pass over the family takes the coarse-rule A_p means from it
    log_f, views = ((matrix.log(), (lambda_max_sym, lambda h: h)) if matrix is not None
                    else (omega.log(), (lambda h: h,)))
    bmos, estimates = seminorms.bmo_and_ap(
        log_f, views, omega, [float(p) for p in p_list], fam, quad
    )
    est_w = bmos[0]
    summary["bmo_log_omega"] = est_w.value
    rows.append(("bmo_log_omega", est_w.value, est_w.attaining_ball.radius))
    record_balls("bmo_log_omega", est_w)
    if matrix is not None:
        est_m = bmos[1]
        summary["bmo_log_M"] = est_m.value
        rows.append(("bmo_log_M", est_m.value, est_m.attaining_ball.radius))
        record_balls("bmo_log_M", est_m)
        # the three-level ladder starts with the two-level one, so its first
        # ladder.count rows are the shallow ladder's own per-ball values
        ladder = seminorms.BallFamily.origin_ladder(dom, levels=2)
        est_raw_deep = seminorms.bmo(
            matrix, seminorms.BallFamily.origin_ladder(dom, levels=3), quad
        )
        raw_value = max(row[-2] for row in est_raw_deep.rows[:ladder.count])
        unbounded = est_raw_deep.value > 1.5 * raw_value
        summary["bmo_M"] = est_raw_deep.value
        summary["bmo_M_flag"] = (
            "unbounded (growing with family refinement)" if unbounded else "stable"
        )
        rows.append(("bmo_M", est_raw_deep.value, est_raw_deep.attaining_ball.radius))
        # the ray through (1, 0.37), padded with zeros to the weight's dimension
        ray = np.array([[1.0, 0.37] + [0.0] * (matrix.dim - 2)])
        sampled = matrix.measured_condition(np.linspace(0.05, 0.95, 37)[:, None] * ray)
        summary["condition_sampled"] = sampled
        summary["condition_bound"] = matrix.cond_bound
    for p, est in zip(p_list, estimates):
        key = f"ap_p={p:g}"
        summary[key] = "divergent" if est.divergent else est.value
        rows.append((key, math.nan if est.divergent else est.value, 0.0))
    # oscillation and power-mean check tables, around one log mean omega_B
    omega_b = log_mean(omega, dom, quad)
    prop_rows = []
    for q_exp in q_list:
        rep = seminorms.prop_small_check(omega, dom, float(q_exp), est_w.value, omega_b, quad)
        prop_rows.append((q_exp, rep.lhs, rep.bmo, rep.ratio))
    small_rows = []
    for s in s_list:
        rep = seminorms.small_scalar_checks(omega, dom, float(s), est_w.value, omega_b, quad)
        small_rows.append(
            (s, rep.bmo_log, int(rep.condition_met), int(rep.divergent),
             rep.mean_pos, rep.mean_neg, rep.margin_pos, rep.margin_neg,
             rep.margin_product, int(rep.holds))
        )
    write_csv(out / "weight_summary.csv", ("quantity", "value", "detail"), rows, header)
    write_csv(
        out / "weight_bmo_balls.csv",
        ("family_id", "ball_index", *("center_x", "center_y", "center_z")[:dom.dim], "radius",
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
    summary["settings_hash"] = header["settings_hash"]
    write_json(out / "weight_analysis.json", summary)
    print(f"analyze-weight: wrote {out}/weight_analysis.json")
    return 0


_EXAMPLE_KEYS = {
    "example.variant": ("variant", str), "example.theta_override": ("theta_override", float),
}


def _example_from_cfg(cfg: dict, eps=None) -> exact_examples.MeyersExample:
    """The configured example, at ``eps`` when given; bad ``example.*``
    settings are usage errors."""
    try:
        return exact_examples.MeyersExample(
            n=int(_get(cfg, "example.n", 2)),
            eps=float(_get(cfg, "example.eps", 0.25) if eps is None else eps),
            **_settings(cfg, _EXAMPLE_KEYS),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"example settings: {exc}") from exc


#: B0 of the local checks in verify-example: centred on the singular point,
#: with 2 B0 inside the unit disk
LOCAL_BALL = Ball((0.0, 0.0), 0.4)

LOCAL_COLUMNS = (
    "level", "cells", "caccioppoli_lhs", "caccioppoli_rhs", "poincare_lhs",
    "poincare_rhs", "poincare_condition_value", "poincare_condition_flagged",
    "comparison_lhs", "oscillation_term", "u_term", "data_term", "bmo_log",
    "sandwich_lower_margin", "sandwich_upper_margin", "sandwich_holds",
)


def _local_row(level: int, u, prob, sandwich, condition, bmo_log: float) -> tuple:
    """Both sides of the local estimates on B0 = LOCAL_BALL at one mesh level:
    Caccioppoli, Poincare (p = 2, theta = 1) and the comparison of the
    localized solution with the one frozen at the log-mean M_B of (1/2) B0,
    given the mesh-independent estimates of ``cmd_verify_example``."""
    cacc = cz_harness.caccioppoli_check(u, prob, LOCAL_BALL)
    poin = cz_harness.poincare_check(u, prob.weight.omega(), LOCAL_BALL, p=2.0, theta=1.0)
    tri = cz_harness.build_localized(u, prob, LOCAL_BALL, sandwich.matrix_mean)
    comp = cz_harness.comparison_check(tri, prob, delta=0.3, bmo_log=bmo_log)
    return (
        level, u.mesh.num_cells, cacc.lhs, cacc.rhs, poin.lhs, poin.rhs,
        condition[0], int(condition[1]), comp.lhs,
        comp.oscillation_term, comp.u_term, comp.data_term, comp.bmo_log,
        sandwich.lower_margin, sandwich.upper_margin, int(sandwich.holds),
    )


def cmd_verify_example(cfg: dict, out: Path, header: dict) -> int:
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

    local_rows = []
    if ex.n == 2:
        wfield = ex.weight_field()
        prob = pde_solver.WeakProblem(wfield, 2.0, None, ex.u_with_origin)
        # weight-side estimates, shared by every level: the log-mean sandwich
        # (with M_B) and |log M|_BMO on (1/2) B0, the Poincare condition on 2 B0
        half = LOCAL_BALL.scaled(0.5)
        sandwich = sandwich_check(wfield, half)
        bmo_log = seminorms.bmo(wfield.log(), seminorms.standard_family(half, 3)).value
        condition = cz_harness.poincare_condition(
            wfield.omega(), LOCAL_BALL.scaled(2.0), p=2.0, theta=1.0
        )
        residuals = []
        mesh = disk_mesh(angular=20, layers=16, grading=0.7)
        for level in range(3):
            u = pde_solver.interpolate(mesh, ex.u_with_origin)
            res, _ = pde_solver.weak_residual(prob, u)
            residuals.append(res)
            local_rows.append(_local_row(level, u, prob, sandwich, condition, bmo_log))
            if level < 2:
                mesh = mesh.refine()
        # observed order >= 0.5 in h over two quadrisections when the flux is
        # divergence free; a wrong theta leaves the residual bounded below
        vanishing = residuals[-1] <= residuals[0] / 2.0 ** 1.0
        checks.append(("residual_refinement", vanishing, residuals[-1] / residuals[0]))

    rows = [(name, int(ok), val) for name, ok, val in checks]
    write_csv(out / "verify_example.csv", ("check", "passed", "value"), rows, header)
    if local_rows:
        write_csv(out / "verify_local.csv", LOCAL_COLUMNS, local_rows, header)
    for name, ok, val in checks:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({val:.3e})")
    if not all(ok for _, ok, _ in checks):
        raise PropertyViolation("example verification failed")
    return 0


_DISK_KEYS = {
    "mesh.radius": ("radius", float), "mesh.angular": ("angular", int),
    "mesh.layers": ("layers", int), "mesh.grading": ("grading", float),
}


def _mesh_from_cfg(cfg: dict):
    kind = _get(cfg, "mesh.kind", "disk")
    if kind == "disk":
        return disk_mesh(**_settings(cfg, _DISK_KEYS))
    if kind == "square":
        return unit_square_mesh(int(_get(cfg, "mesh.divisions", 32)))
    raise SetupError(f"unknown mesh kind {kind!r}")


def _data_from_cfg(cfg: dict):
    spec = _get(cfg, "problem.data")
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


_SOLVER_KEYS = {
    "solver.tolerance": ("tolerance", float), "solver.max_iterations": ("max_iterations", int),
}


def cmd_solve(cfg: dict, out: Path, header: dict) -> int:
    ex = _example_from_cfg(cfg)
    wcfg = _get(cfg, "weight")
    try:
        wfield = weight_from_config(wcfg) if wcfg else ex.weight_field()
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    if ex.n != 2 or wfield.dim != 2:
        raise UsageError(f"solve meshes are 2-d; got example.n = {ex.n}, a {wfield.dim}-d weight")
    try:
        mesh = _mesh_from_cfg(cfg)
    except ValueError as exc:
        raise SetupError(str(exc)) from exc
    try:
        prob = pde_solver.WeakProblem(
            wfield, data=_data_from_cfg(cfg), dirichlet=_dirichlet_from_cfg(cfg, ex),
            **_settings(cfg, {"problem.p": ("p", float)}),
        )
        scfg = pde_solver.SolverConfig(**_settings(cfg, _SOLVER_KEYS))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"problem settings: {exc}") from exc
    result = pde_solver.solve(prob, mesh, scfg)
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


_SWEEP_KEYS = {
    "example.variant": ("variant", str),
    "example.n": ("n", int),
    "example.eps": ("eps_list", lambda v: tuple(float(e) for e in np.atleast_1d(v).tolist())),
    "sweep.rho": ("rho_list", tuple),
    "sweep.levels": ("levels", tuple),
    "ball.center": ("ball_center", tuple),
    "ball.radius": ("ball_radius", float),
    "problem.p": ("p", float),
    "sweep.geometry": ("geometry", str),
    "mesh.angular": ("angular", int),
    "mesh.base_layers": ("base_layers", int),
    "mesh.layers_per_level": ("layers_per_level", int),
    "mesh.grading": ("grading", float),
    "sweep.use_fem": ("use_fem", bool),
    "experiment_id": ("experiment_id", str),
}


def cmd_cz_sweep(cfg: dict, out: Path, header: dict) -> int:
    try:
        spec = cz_harness.SweepSpec(
            **{"experiment_id": header["settings_hash"], **_settings(cfg, _SWEEP_KEYS)}
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"sweep settings: {exc}") from exc
    for eps in spec.eps_list:  # checks example.n and example.variant too
        _example_from_cfg(cfg, eps)
    report = cz_harness.run_sweep(spec, cfg["threads"])
    write_csv(
        out / "cz_report.csv",
        cz_harness.CzRow.CSV_COLUMNS,
        [row.as_csv_values() for row in report.rows],
        header,
    )
    write_json(out / "cz_summary.json", report.summary())
    print(f"cz-sweep: {len(report.rows)} rows, boundaries {report.boundaries}")
    return 0


def cmd_nfun_props(cfg: dict, out: Path, header: dict) -> int:
    p_list = _get(cfg, "nfun.p_list", [1.5, 2.0, 3.0, 4.5])
    if not isinstance(p_list, list):
        raise UsageError(f"nfun.p_list must be a list, got {p_list!r}")
    try:
        p_list = [float(p) for p in p_list]
        sweep = _settings(cfg, {"nfun.samples": ("samples", int)})
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"nfun.p_list and nfun.samples must be numbers: {exc}") from exc
    if sweep.get("samples", 1) < 1:
        raise UsageError(f"nfun.samples must be at least 1, got {sweep['samples']}")
    if not all(math.isfinite(p) and p > 1.0 for p in p_list):
        raise UsageError(f"nfun.p_list entries must be finite and exceed 1, got {p_list}")
    rows = []
    violations = 0
    for p in p_list:
        for case in nfunctions.run_property_sweep(p, seed=int(cfg["seed"]), **sweep):
            rows.append(
                (case.p, case.case, case.min_ratio, case.max_ratio, case.violations)
            )
            violations += case.violations
    write_csv(
        out / "nfun_props.csv",
        ("p", "case", "min_ratio", "max_ratio", "violations"),
        rows,
        header,
    )
    print(f"nfun-props: {len(rows)} cases, {violations} violations")
    if violations:
        raise PropertyViolation(f"{violations} property violations recorded")
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
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--out", type=str, default="degcz_out")
        for flag in flags:
            sp.add_argument(f"--{flag}", type=_FLAG_TYPES[flag], default=None)
    return parser


_FLAG_TYPES = {"eps": float, "p": float, "grid": int, "rho": float}

#: each command with the setting flags it reads, on top of --config, --seed,
#: --threads and --out
_COMMANDS = {
    "analyze-weight": (cmd_analyze_weight, ()),
    "verify-example": (cmd_verify_example, ("eps",)),
    "solve": (cmd_solve, ("eps", "p")),
    "cz-sweep": (cmd_cz_sweep, ("eps", "p", "grid", "rho")),
    "nfun-props": (cmd_nfun_props, ()),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    try:
        cfg = resolve_config(args)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        header = {"settings_hash": _echo_config(cfg, out, args.command), "seed": cfg["seed"]}
        return _COMMANDS[args.command][0](cfg, out, header)
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
