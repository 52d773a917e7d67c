"""P1 finite-element energy minimization for matrix-weighted p-Laplace problems.

One-point (barycenter) quadrature makes the nonlinearity pointwise per cell:
with piecewise-linear trial functions the gradient is cell-constant, so the
assembled energy, residual, and Hessian are exact for the discrete integrand.
For p = 2 the solve is a single SPD sparse solve, and one SuperLU factorization
of the free block of the stiffness matrix serves both the solve and the
dual-norm residual of its result; otherwise a damped Newton iteration runs on a
regularized energy with a geometric continuation of the regularization
parameter, warm-started from the p = 2 solve.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .meshing import Mesh, cells_in_ball
from .nfunctions import a_map
from .weight_algebra import Ball, ScalarWeightField, WeightField

__all__ = [
    "NonconvergenceError",
    "DiscreteField",
    "WeakProblem",
    "SolverConfig",
    "SolveResult",
    "interpolate",
    "energy",
    "weak_residual",
    "solve",
    "weighted_lp_norm",
    "weighted_h1_error",
]


class NonconvergenceError(RuntimeError):
    """Raised when the damped Newton iteration stalls; carries the trace."""

    def __init__(self, message: str, trace: list[dict]):
        super().__init__(message)
        self.trace = trace


@dataclass
class DiscreteField:
    """Nodal scalar field on a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.num_vertices,):
            raise ValueError("value count must equal the vertex count")

    def cell_gradients(self) -> np.ndarray:
        return self.mesh.cell_gradients(self.values)

    def cell_values(self) -> np.ndarray:
        return self.mesh.cell_values(self.values)


def interpolate(mesh: Mesh, fn: Callable[[np.ndarray], np.ndarray]) -> DiscreteField:
    return DiscreteField(mesh, np.asarray(fn(mesh.vertices), dtype=float))


@dataclass
class WeakProblem:
    """Weighted p-Laplace problem with divergence-form data.

    ``data`` maps points to the vector field G (None means zero);
    ``dirichlet`` maps boundary points to trace values.  When ``frozen`` is
    set, the variable weight is replaced by that constant SPD matrix.
    """

    weight: WeightField
    p: float = 2.0
    data: Callable[[np.ndarray], np.ndarray] | None = None
    dirichlet: Callable[[np.ndarray], np.ndarray] | None = None
    frozen: np.ndarray | None = None

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise ValueError("p must lie in (1, inf)")

    def weight_at(self, points: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
        """Weight at quadrature points; a point sitting exactly on a singular
        point is shifted by 1e-12 of the local length scale."""
        if self.frozen is not None:
            m = np.asarray(self.frozen, dtype=float)
            return np.broadcast_to(m, (len(points),) + m.shape)
        pts = np.asarray(points, dtype=float)
        sing = np.asarray(self.weight.singular_points or ()).reshape(-1, pts.shape[-1])
        if len(sing):
            d = np.linalg.norm(pts[:, None, :] - sing[None, :, :], axis=-1).min(axis=1)
            hit = d < 1e-250
            if hit.any():
                warnings.warn("weight evaluated at a singular barycenter; shifting the point")
                h = scale[hit] if scale is not None else np.ones(hit.sum())
                pts = pts.copy()
                pts[hit, 0] += 1e-12 * h
        return self.weight.evaluate(pts)

    def data_at(self, points: np.ndarray) -> np.ndarray:
        if self.data is None:
            return np.zeros((len(points), 2))
        return np.asarray(self.data(points), dtype=float)


@dataclass
class SolverConfig:
    tolerance: float = 1e-10
    max_iterations: int = 60
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 40
    eps_start: float = 1e-1
    eps_end: float = 1e-8
    eps_factor: float = 0.1


@dataclass
class SolveResult:
    field: DiscreteField
    trace: list[dict] = dataclass_field(default_factory=list)
    converged: bool = True
    residual: float = math.nan


# ---------------------------------------------------------------------------
# assembled quantities
# ---------------------------------------------------------------------------

def _cell_data(prob: WeakProblem, mesh: Mesh):
    """Per-cell weight, weighted hat gradients, and data in the M-applied frame.

    Since M is symmetric, (M A(M xi)) . grad(lambda) = A(M xi) . (M grad(lambda)),
    so assembly works entirely with M-applied vectors.
    """
    M = prob.weight_at(mesh.barycenters, np.sqrt(mesh.areas))  # (nc, 2, 2)
    Mgrads = np.einsum("cab,clb->cla", M, mesh.hat_gradients)  # (nc, 3, 2)
    G = prob.data_at(mesh.barycenters)
    MG = np.einsum("cab,cb->ca", M, G)
    aG = a_map(prob.p, MG)                                   # A(M G)
    return M, Mgrads, MG, aG


def _weighted_gradients(M: np.ndarray, mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """q = M grad u per cell."""
    return np.einsum("cab,cb->ca", M, mesh.cell_gradients(values))


def _scatter(mesh: Mesh, Mgrads: np.ndarray, flux: np.ndarray) -> np.ndarray:
    """Nodal vector sum over cells of area * flux . (M grad lambda)."""
    r_cells = np.einsum("cla,ca,c->cl", Mgrads, flux, mesh.areas)  # (nc, 3)
    r = np.zeros(mesh.num_vertices)
    np.add.at(r, mesh.cells, r_cells)
    return r


def _energy_of(p: float, mesh: Mesh, q: np.ndarray, aG: np.ndarray, eps: float) -> float:
    q2 = (q * q).sum(axis=1) + eps * eps
    # data term written against grad u via the assembled weighted flux
    data = np.einsum("ca,ca->c", aG, q)
    return float(np.sum(mesh.areas * (q2 ** (p / 2.0) / p - data)))


def energy(prob: WeakProblem, u: DiscreteField, eps: float = 0.0) -> float:
    """Dirichlet p-energy minus the data coupling, barycenter quadrature."""
    M, _, _, aG = _cell_data(prob, u.mesh)
    return _energy_of(prob.p, u.mesh, _weighted_gradients(M, u.mesh, u.values), aG, eps)


def _gradient_hessian(prob, mesh, M, Mgrads, aG, u_values, eps):
    """Nodal gradient and sparse Hessian of the regularized energy."""
    p = prob.p
    q = _weighted_gradients(M, mesh, u_values)              # (nc, 2)
    q2 = (q * q).sum(axis=1) + eps * eps
    kappa = q2 ** ((p - 2.0) / 2.0)
    r = _scatter(mesh, Mgrads, kappa[:, None] * q - aG)

    kprime = (p - 2.0) * q2 ** ((p - 4.0) / 2.0)
    h_cells = np.einsum(
        "c,cla,cma,c->clm", kappa, Mgrads, Mgrads, mesh.areas
    ) + np.einsum("c,cl,cm,c->clm",
                  kprime,
                  np.einsum("cla,ca->cl", Mgrads, q),
                  np.einsum("cma,ca->cm", Mgrads, q),
                  mesh.areas)
    return r, _assemble(mesh, h_cells)


def _assemble(mesh: Mesh, blocks: np.ndarray) -> sp.csr_matrix:
    """Sparse matrix from per-cell 3x3 blocks."""
    rows = np.repeat(mesh.cells, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.cells, (1, 3)).reshape(-1)
    return sp.coo_matrix(
        (blocks.reshape(-1), (rows, cols)),
        shape=(mesh.num_vertices, mesh.num_vertices),
    ).tocsr()


def _stiffness(mesh: Mesh, Mgrads: np.ndarray) -> sp.csr_matrix:
    return _assemble(mesh, np.einsum("cla,cma,c->clm", Mgrads, Mgrads, mesh.areas))


def _factor(K: sp.csr_matrix, free: np.ndarray):
    """SuperLU factor of the free block of K; None when no vertex is free."""
    return spla.splu(K[free][:, free].tocsc()) if len(free) else None


def _dual_residual(p, mesh, Mgrads, aG, q, fixed_mask, lu) -> tuple[float, np.ndarray]:
    """Dual norm sqrt(r K^-1 r) of the residual, K^-1 applied through the
    factor ``lu`` of the free block, and the raw residual r."""
    r = _scatter(mesh, Mgrads, a_map(p, q) - aG)
    r[fixed_mask] = 0.0
    if lu is None:
        return 0.0, r
    rf = r[~fixed_mask]
    return math.sqrt(max(float(rf @ lu.solve(rf)), 0.0)), r


def weak_residual(
    prob: WeakProblem, u: DiscreteField, fixed_mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """First-order-condition residual against the free hat functions.

    Returns the residual measured in the discrete dual norm of the weighted
    energy space, sqrt(r K^-1 r) with K the weighted quadratic stiffness,
    plus the raw per-vertex residual vector (zero on constrained rows).
    The dual norm vanishes under refinement for consistent interpolants of a
    weak solution but stays bounded below when the flux has a genuinely
    nonzero divergence, which a pointwise-scaled norm cannot distinguish.
    """
    mesh = u.mesh
    if fixed_mask is None:
        fixed_mask = mesh.boundary_mask
    M, Mgrads, _, aG = _cell_data(prob, mesh)
    lu = _factor(_stiffness(mesh, Mgrads), np.where(~fixed_mask)[0])
    q = _weighted_gradients(M, mesh, u.values)
    return _dual_residual(prob.p, mesh, Mgrads, aG, q, fixed_mask, lu)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _dirichlet_values(prob: WeakProblem, mesh: Mesh, fixed_mask: np.ndarray) -> np.ndarray:
    values = np.zeros(mesh.num_vertices)
    if prob.dirichlet is not None:
        idx = np.where(fixed_mask)[0]
        values[idx] = np.asarray(prob.dirichlet(mesh.vertices[idx]), dtype=float)
    return values


def solve(
    prob: WeakProblem,
    mesh: Mesh,
    cfg: SolverConfig = SolverConfig(),
    fixed_mask: np.ndarray | None = None,
    fixed_values: np.ndarray | None = None,
) -> SolveResult:
    """Minimize the discrete energy subject to the Dirichlet data.

    For p = 2 this is a single SPD solve.  Otherwise a damped Newton method
    with Armijo line search runs through a geometric continuation of the
    regularization parameter; the reported residual is always measured on
    the unregularized problem.  ``fixed_mask`` generalizes the constraint set
    beyond the mesh boundary (used by the frozen replacement problem).
    """
    if fixed_mask is None:
        fixed_mask = mesh.boundary_mask
    if fixed_values is None:
        values = _dirichlet_values(prob, mesh, fixed_mask)
    else:
        values = np.where(fixed_mask, fixed_values, 0.0)
    free = np.where(~fixed_mask)[0]
    # one weight evaluation and one stiffness matrix K serve the p = 2 solve
    # (the Newton warm start for other p) and the dual-norm residual of the
    # result; at p = 2 one factorization of the free block of K serves both
    M, Mgrads, MG, aG = _cell_data(prob, mesh)
    K = _stiffness(mesh, Mgrads)
    lu = _factor(K, free)
    if lu is not None:
        fixed = np.where(fixed_mask)[0]
        rhs = _scatter(mesh, Mgrads, aG if prob.p == 2.0 else a_map(2.0, MG))
        values[free] = lu.solve(rhs[free] - K[free][:, fixed] @ values[fixed])
    trace: list[dict] = []
    if prob.p != 2.0:
        # a factor kept through the Newton loop would add to the peak memory
        # of every Hessian factorization, so K is factored again afterwards
        lu = None
        values, trace = _newton(prob, mesh, cfg, M, Mgrads, aG, values, free)
        lu = _factor(K, free)
    q = _weighted_gradients(M, mesh, values)
    res, _ = _dual_residual(prob.p, mesh, Mgrads, aG, q, fixed_mask, lu)
    trace.append({"iteration": len(trace), "eps": 0.0,
                  "energy": _energy_of(prob.p, mesh, q, aG, 0.0),
                  "residual": res, "step": 1.0 if prob.p == 2.0 else 0.0})
    u = DiscreteField(mesh, values)
    if prob.p == 2.0:
        return SolveResult(u, trace, res <= max(cfg.tolerance, 1e-8), res)
    if res > cfg.tolerance * (1.0 + float(np.abs(values).max())):
        raise NonconvergenceError(
            f"final residual {res:g} above tolerance {cfg.tolerance:g}", trace
        )
    return SolveResult(u, trace, True, res)


def _newton(prob, mesh, cfg, M, Mgrads, aG, values, interior):
    """Damped Newton with Armijo backtracking through the continuation in
    eps; returns the final values and one trace entry per accepted step."""
    eps_list: list[float] = []
    e = cfg.eps_start
    while e > cfg.eps_end:
        eps_list.append(e)
        e *= cfg.eps_factor
    eps_list.append(cfg.eps_end)

    trace: list[dict] = []
    for stage, eps in enumerate(eps_list):
        last_stage = stage == len(eps_list) - 1
        stage_tol = cfg.tolerance if last_stage else max(cfg.tolerance, eps * 1e-2)
        for _ in range(cfg.max_iterations):
            r, H = _gradient_hessian(prob, mesh, M, Mgrads, aG, values, eps)
            rn = float(np.linalg.norm(r[interior]))
            scale = 1.0 + float(np.abs(values).max())
            if rn <= stage_tol * scale:
                break
            step = np.zeros_like(values)
            step[interior] = spla.spsolve(
                H[interior][:, interior].tocsc(), -r[interior]
            )
            if not np.all(np.isfinite(step)):
                raise NonconvergenceError("Newton step is not finite", trace)
            e0 = _energy_from_values(prob, mesh, M, aG, values, eps)
            slope = float(r[interior] @ step[interior])
            t = 1.0
            for _bt in range(cfg.max_backtracks):
                cand = values + t * step
                e1 = _energy_from_values(prob, mesh, M, aG, cand, eps)
                if e1 <= e0 + cfg.armijo_c * t * slope:
                    break
                t *= cfg.backtrack
            else:
                raise NonconvergenceError(
                    f"line search failed at eps={eps:g}", trace
                )
            values = values + t * step
            trace.append(
                {"iteration": len(trace) + 1, "eps": eps, "energy": e1,
                 "residual": rn, "step": t}
            )
    return values, trace


def _energy_from_values(prob, mesh, M, aG, values, eps):
    return _energy_of(prob.p, mesh, _weighted_gradients(M, mesh, values), aG, eps)


# ---------------------------------------------------------------------------
# weighted norms and errors
# ---------------------------------------------------------------------------

def weighted_lp_norm(
    u: DiscreteField, omega: ScalarWeightField, rho: float, region: Ball
) -> float:
    """(mean over the region of (|grad u| omega)^rho)^(1/rho).

    Cells belong to the region when their barycenter does; the mean is taken
    against the covered area.
    """
    if rho < 1:
        raise ValueError("rho must be at least 1")
    mesh = u.mesh
    mask = cells_in_ball(mesh, region.center, region.radius)
    if not mask.any():
        raise ValueError("region contains no cell barycenters")
    grads = np.linalg.norm(u.cell_gradients()[mask], axis=1)
    w = omega.evaluate(mesh.barycenters[mask])
    areas = mesh.areas[mask]
    return float((np.sum((grads * w) ** rho * areas) / areas.sum()) ** (1.0 / rho))


def weighted_h1_error(
    u: DiscreteField,
    exact_grad: Callable[[np.ndarray], np.ndarray],
    omega: ScalarWeightField | None = None,
) -> float:
    """Weighted H1 seminorm distance (mean of (|grad(u - u_exact)| omega)^2)^(1/2)."""
    mesh = u.mesh
    diff = u.cell_gradients() - np.asarray(exact_grad(mesh.barycenters), dtype=float)
    mag = np.linalg.norm(diff, axis=1)
    if omega is not None:
        mag = mag * omega.evaluate(mesh.barycenters)
    return float(math.sqrt(np.sum(mag ** 2 * mesh.areas) / mesh.areas.sum()))
