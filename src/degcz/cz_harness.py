"""Empirical two-sided measurement of the gradient transfer estimates.

Every check here evaluates both sides of an inequality on discrete fields and
reports them; nothing asserts a value for the existential constants.  The
sweep classifies (eps, rho) cells as bounded or diverging from the growth of
the inner-ball weighted mean across mesh refinement levels.  Because the
blow-up of a power singularity is logarithmic in the resolved radius, each
sweep refinement level extends the geometric mesh grading by a fixed block of
layers, advancing the resolved scale geometrically.
"""
from __future__ import annotations

import math
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .exact_examples import MeyersExample
from .meshing import Mesh, disk_mesh, region_mean
from .nfunctions import v_map
from .pde_solver import (
    DiscreteField,
    NonconvergenceError,
    WeakProblem,
    _matvec,
    interpolate,
    solve,
)
from .seminorms import BallFamily, bmo, muckenhoupt_ap, standard_family
from .weight_algebra import (Ball, DEFAULT_QUAD, Field, QuadratureSpec, constant_weight,
                             euclidean_norm)

__all__ = [
    "GeometryError",
    "GROWTH_THRESHOLD",
    "CzRow",
    "CzReport",
    "cz_ratio",
    "cz_ratios",
    "caccioppoli_check",
    "poincare_check",
    "poincare_condition",
    "LocalizedTriple",
    "build_localized",
    "comparison_check",
    "sharp_maximal",
    "fefferman_stein_constant",
    "SweepSpec",
    "run_sweep",
]

#: per-level ratio growth above this classifies an (eps, rho) cell as diverging
GROWTH_THRESHOLD = 1.5
#: the ball pairs of ``cz_ratio``: (1/2) B0 vs 4 B0, or B0 vs 2 B0
GEOMETRIES = ("nonlinear", "linear")


class GeometryError(ValueError):
    """Raised when an enlarged ball does not fit inside the mesh domain, or
    when the disk mesh of a sweep level cannot be built."""


def _require_ball(mesh: Mesh, ball: Ball, label: str) -> None:
    if not mesh.contains_ball(ball.center, ball.radius):
        raise GeometryError(f"{label} ball {ball} exits the mesh domain")


class _Cells:
    """|grad u|, omega and |G| at the barycenters of u's mesh; ``mean`` is the
    area mean over the cells whose barycenter lies in a ball."""

    def __init__(self, u: DiscreteField, omega: Field, data=None):
        self.mesh = mesh = u.mesh
        self.grad = euclidean_norm(u.cell_gradients())
        self.w = omega.evaluate(mesh.barycenters)
        self.data = None if data is None else euclidean_norm(data(mesh.barycenters))

    def mean(self, values: np.ndarray, ball: Ball) -> float:
        return region_mean(self.mesh, values, ball.contains(self.mesh.barycenters))


# ---------------------------------------------------------------------------
# ratio checks
# ---------------------------------------------------------------------------

@dataclass
class RatioReport:
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        """lhs / rhs; nan when both sides vanish, inf when only the right does."""
        return self.lhs / self.rhs if self.rhs > 0 else (math.nan if self.lhs == 0 else math.inf)


def cz_ratio(
    u: DiscreteField,
    prob: WeakProblem,
    b0: Ball,
    rho: float,
    geometry: str = "nonlinear",
) -> RatioReport:
    """Inner weighted rho-mean of the gradient against the outer data side.

    ``nonlinear`` geometry compares over (1/2) B0 vs 4 B0; ``linear`` over
    B0 vs 2 B0.  The right-hand side is the outer first-power mean of
    |grad u| omega plus the outer weighted rho-mean of |G|.
    """
    return cz_ratios(u, prob, b0, (rho,), geometry)[0]


def cz_ratios(u: DiscreteField, prob: WeakProblem, b0: Ball, rhos,
              geometry: str = "nonlinear") -> list[RatioReport]:
    """``cz_ratio`` at each rho of ``rhos``, from one table of cell values
    and ball masks."""
    if geometry not in GEOMETRIES:
        raise ValueError(f"geometry must be one of {GEOMETRIES}")
    if any(rho < 1 for rho in rhos):
        raise ValueError("rho must be at least 1")
    inner = b0.scaled(0.5) if geometry == "nonlinear" else b0
    outer = b0.scaled(4.0) if geometry == "nonlinear" else b0.scaled(2.0)
    _require_ball(u.mesh, outer, "outer")
    mesh = u.mesh
    c = _Cells(u, prob.weight.omega(), prob.data)
    inner, outer = inner.contains(mesh.barycenters), outer.contains(mesh.barycenters)
    gw = c.grad * c.w
    first = region_mean(mesh, gw, outer)
    reports = []
    for rho in rhos:
        rhs = first
        if c.data is not None:
            rhs += region_mean(mesh, (c.data * c.w) ** rho, outer) ** (1.0 / rho)
        reports.append(RatioReport(region_mean(mesh, gw ** rho, inner) ** (1.0 / rho), rhs))
    return reports


def caccioppoli_check(u: DiscreteField, prob: WeakProblem, ball: Ball) -> RatioReport:
    """Gradient energy on B against scaled oscillation plus data on 2B."""
    outer = ball.scaled(2.0)
    _require_ball(u.mesh, outer, "outer")
    p = prob.p
    c = _Cells(u, prob.weight.omega(), prob.data)
    lhs = c.mean((c.grad * c.w) ** p, ball)
    uc = u.cell_values()
    u_mean = c.mean(uc, outer)
    rhs = c.mean((np.abs(uc - u_mean) / ball.radius * c.w) ** p, outer)
    if c.data is not None:
        rhs += c.mean((c.data * c.w) ** p, outer)
    return RatioReport(lhs, rhs)


def poincare_check(
    u: DiscreteField, omega: Field, ball: Ball, p: float, theta: float
) -> RatioReport:
    """Weighted oscillation mean against the theta-damped gradient mean.

    The duality-weight condition behind the inequality depends on the weight
    alone; :func:`poincare_condition` estimates it.
    """
    n = ball.dim
    tp = theta * p
    if tp < max(1.0, n * p / (n + p)) - 1e-12:
        raise ValueError("theta p must be at least max(1, n p / (n + p))")
    _require_ball(u.mesh, ball, "poincare")
    c = _Cells(u, omega)
    uc = u.cell_values()
    u_mean = c.mean(uc, ball)
    lhs = c.mean((np.abs(uc - u_mean) / ball.radius * c.w) ** p, ball) ** (1.0 / p)
    rhs = c.mean((c.grad * c.w) ** tp, ball) ** (1.0 / tp)
    return RatioReport(lhs, rhs)


def poincare_condition(
    omega: Field, dom: Ball, p: float, theta: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> tuple[float, bool]:
    """The Poincare check's duality-exponent Muckenhoupt-type condition on the
    dyadic sub-balls of ``dom`` (2B where it fits the domain, else B): the
    largest sampled value and whether the estimate diverged, reported instead
    of raised.  (inf, True) when theta p <= 1 leaves no finite dual exponent.
    """
    tp = theta * p
    if tp <= 1.0:
        return math.inf, True
    fam = standard_family(dom, levels=2)
    est = muckenhoupt_ap(omega, p, fam, quad, neg_exponent=tp / (tp - 1.0))
    return max(0.0, *(row[4] for row in est.rows)), est.divergent


# ---------------------------------------------------------------------------
# localization and the frozen comparison problem
# ---------------------------------------------------------------------------

def cutoff_values(points: np.ndarray, ball: Ball) -> np.ndarray:
    """C1 radial bump: 1 on (1/2) ball, 0 outside, cubic smoothstep between."""
    d = np.linalg.norm(
        np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(ball.center), axis=1
    )
    s = np.clip(2.0 * d / ball.radius - 1.0, 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


@dataclass
class LocalizedTriple:
    """Cutoff localization z of u, its gradient defect g, and the frozen
    replacement h solving the constant-coefficient problem inside the
    comparison ball with boundary data z."""

    z: DiscreteField
    g: np.ndarray                  # per-cell vector field
    h: DiscreteField
    ball: Ball                     # localization ball B0
    comparison_ball: Ball          # ball of the frozen solve
    frozen_matrix: np.ndarray
    p: float
    u: DiscreteField
    u_mean: float


def build_localized(
    u: DiscreteField, prob: WeakProblem, b0: Ball, m_b: np.ndarray
) -> LocalizedTriple:
    """Construct the localized field, its cutoff defect, and the frozen solve.

    The comparison ball is (1/2) B0, whose 4x enlargement equals 2 B0 and
    stays inside the localization region; ``m_b`` is the logarithmic mean
    M_B of the weight over it, at which the frozen problem is solved.
    """
    mesh = u.mesh
    _require_ball(mesh, b0.scaled(2.0), "localization")
    comparison_ball = b0.scaled(0.5)
    pc = prob.p / (prob.p - 1.0)

    mask2 = b0.scaled(2.0).contains(mesh.barycenters)
    u_mean = region_mean(mesh, u.cell_values(), mask2)
    zeta_v = cutoff_values(mesh.vertices, b0)
    z = DiscreteField(mesh, (u.values - u_mean) * zeta_v ** pc)
    zeta_c = cutoff_values(mesh.barycenters, b0)
    g = (zeta_c ** pc)[:, None] * u.cell_gradients() - z.cell_gradients()

    frozen = WeakProblem(constant_weight(m_b, "M_B"), prob.p)
    fixed = ~comparison_ball.contains(mesh.vertices)
    result = solve(frozen, mesh, fixed_mask=fixed, fixed_values=z.values)
    return LocalizedTriple(
        z, g, result.field, b0, comparison_ball,
        m_b, prob.p, u, u_mean,
    )


@dataclass
class ComparisonReport:
    """Both sides of the frozen-replacement distance estimate, term by term."""

    lhs: float                     # mean |V(M_B grad h) - V(M_B grad z)|^2
    oscillation_term: float        # (bmo^2 + delta) * (mean (|grad z|^p w^p)^s)^(1/s)
    u_term: float                  # delta^(1-p) * outer scaled-oscillation mean
    data_term: float               # delta^(1-p) * outer cutoff data mean
    bmo_log: float


def comparison_check(
    triple: LocalizedTriple,
    prob: WeakProblem,
    delta: float,
    bmo_log: float,
) -> ComparisonReport:
    """Both sides of the frozen-replacement estimate on the comparison ball B,
    at the cost ``bmo_log`` = |log M|_BMO(B), estimated by the caller, with
    the higher-integrability exponent s = 1.25 on the right-hand means."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    s = 1.25
    mesh = triple.z.mesh
    b = triple.comparison_ball
    p = triple.p
    outer = b.scaled(4.0)
    _require_ball(mesh, outer, "comparison outer")
    c = _Cells(triple.z, prob.weight.omega(), prob.data)
    vz = v_map(p, _matvec(triple.frozen_matrix, triple.z.cell_gradients()))
    vh = v_map(p, _matvec(triple.frozen_matrix, triple.h.cell_gradients()))
    lhs = c.mean(euclidean_norm(vh - vz) ** 2, b)
    osc = (bmo_log ** 2 + delta) * c.mean((c.grad * c.w) ** (p * s), b) ** (1.0 / s)
    dev = np.abs(triple.u.cell_values() - triple.u_mean) / (2.0 * triple.ball.radius)
    u_term = delta ** (1.0 - p) * c.mean((dev * c.w) ** (p * s), outer) ** (1.0 / s)
    data_term = 0.0
    if c.data is not None:
        g = cutoff_values(mesh.barycenters, triple.ball) * c.data
        data_term = delta ** (1.0 - p) * c.mean((g * c.w) ** (p * s), outer) ** (1.0 / s)
    return ComparisonReport(lhs, osc, u_term, data_term, bmo_log)


# ---------------------------------------------------------------------------
# discrete maximal operators
# ---------------------------------------------------------------------------

def sharp_maximal(
    mesh: Mesh, cell_values: np.ndarray, rho: float, fam: BallFamily
) -> np.ndarray:
    """Sharp (mean-oscillation) maximal field over the family, brute force:
    per cell, the max of the rho-oscillation over the family balls whose cell
    region holds its barycenter (0 where none does)."""
    vals = np.asarray(cell_values, dtype=float)
    out = np.zeros(mesh.num_cells)
    for ball in fam.balls:
        mask = ball.contains(mesh.barycenters)
        if mask.any():
            dev = np.abs(vals - region_mean(mesh, vals, mask)) ** rho
            osc = region_mean(mesh, dev, mask) ** (1.0 / rho)
            np.maximum(out, np.where(mask, osc, 0.0), out=out)
    return out


def _lq_norm(mesh: Mesh, cell_values: np.ndarray, q: float) -> float:
    everywhere = np.ones(mesh.num_cells, dtype=bool)
    return region_mean(mesh, np.abs(cell_values) ** q, everywhere) ** (1.0 / q)


def fefferman_stein_constant(
    mesh: Mesh, cell_values: np.ndarray, fam: BallFamily, q: float
) -> float:
    """C(q) = ||f||_q / (q ||sharp maximal_1 f||_q) on the mesh region."""
    sharp = sharp_maximal(mesh, cell_values, 1.0, fam)
    return _lq_norm(mesh, cell_values, q) / (q * _lq_norm(mesh, sharp, q))


# ---------------------------------------------------------------------------
# sharpness sweep
# ---------------------------------------------------------------------------

@dataclass
class CzRow:
    experiment_id: str
    variant: str
    n: int
    eps: float
    p: float
    rho: float
    ball_cx: float
    ball_cy: float
    ball_r: float
    level: int
    lhs: float
    rhs: float
    ratio: float
    bmo_logM: float
    lambda_cond: float
    classification: str = ""

    CSV_COLUMNS = (
        "experiment_id", "variant", "n", "eps", "p", "rho", "ball_cx", "ball_cy",
        "ball_r", "level", "lhs", "rhs", "ratio", "bmo_logM", "lambda_cond",
        "classification",
    )

    def as_csv_values(self) -> list:
        return [getattr(self, c) for c in self.CSV_COLUMNS]


@dataclass
class CzReport:
    rows: list[CzRow] = field(default_factory=list)
    classifications: dict = field(default_factory=dict)   # (eps, rho) -> str
    boundaries: dict = field(default_factory=dict)        # eps -> float | None

    @staticmethod
    def merged(parts) -> "CzReport":
        """One report from per-eps reports: rows in (eps, rho, ball, level) order."""
        report = CzReport()
        for part in parts:
            report.rows.extend(part.rows)
            report.classifications.update(part.classifications)
            report.boundaries.update(part.boundaries)
        report.rows.sort(key=lambda r: (r.eps, r.rho, r.ball_cx, r.ball_cy, r.level))
        return report

    def summary(self) -> dict:
        return {
            "cells": [
                {"eps": eps, "rho": rho, "classification": cls}
                for (eps, rho), cls in sorted(self.classifications.items())
            ],
            "phase_boundaries": [
                {"eps": eps, "rho_boundary": b} for eps, b in sorted(self.boundaries.items())
            ],
        }


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for the sharpness sweep.

    Refinement levels index geometric grading depth: level L meshes carry
    ``base_layers + L * layers_per_level`` rings, so the resolved radius
    shrinks by grading**layers_per_level per level.
    """

    variant: str = "plain"
    n: int = 2
    eps_list: tuple[float, ...] = (0.5,)
    rho_list: tuple[float, ...] = (2.0, 3.0, 5.0)
    levels: tuple[int, ...] = (1, 2, 3)
    ball_center: tuple[float, float] = (0.0, 0.0)
    ball_radius: float = 0.2
    p: float = 2.0
    geometry: str = "nonlinear"
    angular: int = 16
    base_layers: int = 20
    layers_per_level: int = 100
    grading: float = 0.7
    use_fem: bool = False
    experiment_id: str = "sweep"

    def __post_init__(self):
        if not (self.eps_list and self.rho_list and self.levels):
            raise ValueError("the eps, rho and level lists must not be empty")
        if not (1.0 < self.p < math.inf):
            raise ValueError("p must lie in (1, inf)")
        if any(rho < 1 for rho in self.rho_list):
            raise ValueError("rho must be at least 1")
        if self.n != 2:
            raise ValueError(f"the sweep meshes are 2-d, so n must be 2, got {self.n}")
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"geometry must be one of {GEOMETRIES}")
        Ball(self.ball_center, self.ball_radius)  # raises on a bad ball

    def mesh_for(self, level: int) -> Mesh:
        try:
            return disk_mesh(
                angular=self.angular,
                layers=self.base_layers + level * self.layers_per_level,
                grading=self.grading,
            )
        except ValueError as exc:
            raise GeometryError(f"sweep mesh at level {level}: {exc}") from exc


def _classify(ratios: list[float]) -> str:
    finite = [r for r in ratios if math.isfinite(r) and r > 0]
    if len(finite) < 2:
        return "undetermined"
    growth = (finite[-1] / finite[0]) ** (1.0 / (len(finite) - 1))
    return "diverging" if growth >= GROWTH_THRESHOLD else "bounded"


def run_sweep(spec: SweepSpec, threads: int = 1) -> CzReport:
    """Run the classification sweep over the (eps, rho, level) grid, ``threads``
    eps values at a time.

    No eps starts once one has raised: the first error in eps order is raised
    after the eps values already running finish.
    """
    futures = []
    with ThreadPoolExecutor(threads) as pool:
        for eps in spec.eps_list:
            running = [f for f in futures if not f.done()]
            if len(running) >= threads:
                wait(running, return_when=FIRST_COMPLETED)
            if any(f.done() and f.exception() is not None for f in futures):
                break
            futures.append(pool.submit(_sweep_eps, spec, eps))
    return CzReport.merged(f.result() for f in futures)


def _sweep_eps(spec: SweepSpec, eps: float) -> CzReport:
    report = CzReport()
    b0 = Ball(spec.ball_center, spec.ball_radius)
    ex = MeyersExample(n=spec.n, eps=eps, variant=spec.variant)
    wfield = ex.weight_field()
    prob = WeakProblem(wfield, spec.p, None, ex.u_with_origin)
    diag_ball = Ball(spec.ball_center, min(1.0, 4.0 * spec.ball_radius))
    bmo_log = bmo(wfield.log(), standard_family(diag_ball, 3), DEFAULT_QUAD).value
    lam = ex.cond_bound
    per_rho: dict[float, list[float]] = {rho: [] for rho in spec.rho_list}
    for level in spec.levels:
        mesh = spec.mesh_for(level)
        if spec.use_fem:
            result = solve(prob, mesh)
            if not result.converged:
                raise NonconvergenceError(
                    f"sweep solve at eps={eps:g}, level {level}: residual "
                    f"{result.residual:g} above tolerance", result.trace,
                )
            u = result.field
        else:
            u = interpolate(mesh, ex.u_with_origin)
        for rho, rr in zip(spec.rho_list, cz_ratios(u, prob, b0, spec.rho_list, spec.geometry)):
            per_rho[rho].append(rr.ratio)
            report.rows.append(
                CzRow(
                    spec.experiment_id, spec.variant, spec.n, eps, spec.p, rho,
                    b0.center[0], b0.center[1], b0.radius, level,
                    rr.lhs, rr.rhs, rr.ratio, bmo_log, lam,
                )
            )
    bounded_max, diverging_min = None, None
    for rho in spec.rho_list:
        cls = _classify(per_rho[rho])
        report.classifications[(eps, rho)] = cls
        if cls == "bounded":
            bounded_max = rho if bounded_max is None else max(bounded_max, rho)
        elif cls == "diverging":
            diverging_min = rho if diverging_min is None else min(diverging_min, rho)
    for row in report.rows:
        row.classification = report.classifications[(eps, row.rho)]
    if bounded_max is not None and diverging_min is not None and bounded_max < diverging_min:
        report.boundaries[eps] = 0.5 * (bounded_max + diverging_min)
    else:
        report.boundaries[eps] = None
    return report
