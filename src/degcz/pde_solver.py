"""P1 finite-element energy minimization for matrix-weighted p-Laplace problems.

One-point (barycenter) quadrature makes the nonlinearity pointwise per cell:
with piecewise-linear trial functions the gradient is cell-constant, so the
assembled energy, residual, and Hessian are exact for the discrete integrand.
For p = 2 the solve is a single SPD sparse solve, and one SuperLU factorization
of the free block of the stiffness matrix serves both the solve and the
dual-norm residual of its result; otherwise a damped Newton iteration runs on a
regularized energy with a geometric continuation of the regularization
parameter, warm-started from the p = 2 solve.

One kernel per solve (``_Kernel``) holds the weight at the barycenters, the
M-applied hat gradients and the stiffness matrix K, assembled once.  Newton
writes each Hessian straight into the free block of K's sparsity pattern
through index maps built once, and factors it with the minimum-degree
ordering of H + H^T, which fills less than the default COLAMD.  A solve
factors K once: that factor gives the p = 2 solution (the Newton warm start
for other p) and every dual-norm residual of the solve.

scipy.sparse and scipy.sparse.linalg load at the first use of the module
attributes ``sp`` and ``spla``, which a solve makes, so importing the package
and running the commands that never solve loads no scipy.  Either attribute
can be read or replaced before the first solve; a solve calls whatever module
is bound to it at call time.

Newton stopping rule: the last continuation stage stops on the quantity the
result is accepted on, the dual norm sqrt(r K^-1 r) of the unregularized
residual; earlier stages stop on the Euclidean norm of their regularized
residual.  Once the squared Newton decrement lambda^2 = -r . step (Boyd &
Vandenberghe, *Convex Optimization*, 2004, section 9.5) falls below the
round-off of the energy, an Armijo comparison of two energies cannot resolve
the predicted decrease lambda^2 / 2, and the full step is taken.
"""
from __future__ import annotations

import importlib
import math
import warnings
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Callable

import numpy as np

from .meshing import Mesh, cells_in_ball, region_mean
from .nfunctions import a_map
from .weight_algebra import Ball, Field

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


_SCIPY = {"sp": "scipy.sparse", "spla": "scipy.sparse.linalg"}


def __getattr__(name: str):
    """Load and bind ``sp`` or ``spla`` at its first use."""
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import waits for another thread's import of the same module, and
    # setdefault keeps a module bound meanwhile, such as a wrapped spla
    return globals().setdefault(name, importlib.import_module(_SCIPY[name]))


def _scipy(name: str):
    """The module bound to ``sp`` or ``spla`` now, loaded at its first use."""
    return globals().get(name) or __getattr__(name)


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

    weight: Field
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
# the per-solve kernel
# ---------------------------------------------------------------------------

class _Kernel:
    """Cell data, stiffness matrix K and assembly of one problem on one mesh.

    Since M is symmetric, (M A(M xi)) . grad(lambda) = A(M xi) . (M grad(lambda)),
    so all assembly uses ``Mgrads`` = M grad(lambda) and ``aG`` = A(M G).
    """

    def __init__(self, prob: WeakProblem, mesh: Mesh, fixed_mask: np.ndarray | None = None):
        self.p = prob.p
        self.mesh = mesh
        self.fixed_mask = mesh.boundary_mask if fixed_mask is None else fixed_mask
        self.free = np.where(~self.fixed_mask)[0]
        self.M = prob.weight_at(mesh.barycenters, np.sqrt(mesh.areas))      # (nc, 2, 2)
        self.Mgrads = np.einsum("cab,clb->cla", self.M, mesh.hat_gradients)  # (nc, 3, 2)
        self.MG = np.einsum("cab,cb->ca", self.M, prob.data_at(mesh.barycenters))
        self.aG = a_map(prob.p, self.MG)

    @cached_property
    def K(self):
        # cell-block entry (c, l, m) sits at row cells[c, l], column cells[c, m]
        cells, n = self.mesh.cells, self.mesh.num_vertices
        rows = np.repeat(cells, 3, axis=1).reshape(-1)
        cols = np.tile(cells, (1, 3)).reshape(-1)
        blocks = np.einsum("cla,cma,c->clm", self.Mgrads, self.Mgrads, self.mesh.areas)
        return _scipy("sp").coo_matrix((blocks.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()

    def q(self, values: np.ndarray) -> np.ndarray:
        """q = M grad u per cell."""
        return np.einsum("cab,cb->ca", self.M, self.mesh.cell_gradients(values))

    def energy(self, q: np.ndarray, eps: float) -> float:
        q2 = (q * q).sum(axis=1) + eps * eps
        # data term written against grad u via the assembled weighted flux
        data = np.einsum("ca,ca->c", self.aG, q)
        return float(np.sum(self.mesh.areas * (q2 ** (self.p / 2.0) / self.p - data)))

    def scatter(self, flux: np.ndarray) -> np.ndarray:
        """Nodal vector sum over cells of area * flux . (M grad lambda)."""
        r_cells = np.einsum("cla,ca,c->cl", self.Mgrads, flux, self.mesh.areas)
        return np.bincount(self.mesh.cells.reshape(-1), r_cells.reshape(-1), self.mesh.num_vertices)

    def factor(self):
        """SuperLU factor of the free block of K; None when no vertex is free."""
        if not len(self.free):
            return None
        return _scipy("spla").splu(self.K[self.free][:, self.free].tocsc())

    def dual_residual(self, q: np.ndarray, lu) -> tuple[float, np.ndarray]:
        """Dual norm sqrt(r K^-1 r) of the residual, K^-1 applied through the
        factor ``lu`` of the free block, and the raw residual r."""
        r = self.scatter(a_map(self.p, q) - self.aG)
        r[self.fixed_mask] = 0.0
        if lu is None:
            return 0.0, r
        rf = r[~self.fixed_mask]
        return math.sqrt(max(float(rf @ lu.solve(rf)), 0.0)), r

    @cached_property
    def _refill(self):
        """K's slots of the cell-block entries and of the free block's CSC data."""
        K, cells, n = self.K, self.mesh.cells, self.mesh.num_vertices
        keys = np.repeat(np.arange(n), np.diff(K.indptr)) * n + K.indices
        slot = np.searchsorted(keys, (cells[:, :, None] * n + cells[:, None, :]).reshape(-1))
        # K's slot numbers, shifted by one so that none is an explicit zero
        numbered = _scipy("sp").csr_matrix((np.arange(1.0, K.nnz + 1), K.indices, K.indptr),
                                           shape=K.shape)
        block = numbered[self.free][:, self.free].tocsc()
        return slot, block.data.astype(np.int64) - 1, block.indices, block.indptr

    def gradient_hessian(self, values: np.ndarray, eps: float):
        """Nodal gradient of the regularized energy and the free block of its
        Hessian in CSC, from the cell blocks
        kappa area (gx gx^T + gy gy^T) + kappa' area g g^T, g = (M grad lambda) . q."""
        p = self.p
        q = self.q(values)
        q2 = (q * q).sum(axis=1) + eps * eps
        kappa = q2 ** ((p - 2.0) / 2.0)
        r = self.scatter(kappa[:, None] * q - self.aG)
        kprime = (p - 2.0) * q2 ** ((p - 4.0) / 2.0)
        gx, gy = self.Mgrads[..., 0], self.Mgrads[..., 1]
        g = gx * q[:, :1] + gy * q[:, 1:]
        areas = self.mesh.areas
        blocks = (kappa * areas)[:, None, None] * (gx[:, :, None] * gx[:, None, :]
                                                   + gy[:, :, None] * gy[:, None, :])
        blocks += (kprime * areas)[:, None, None] * (g[:, :, None] * g[:, None, :])
        slot, gather, indices, indptr = self._refill
        data = np.bincount(slot, blocks.reshape(-1), self.K.nnz)[gather]
        return r, _scipy("sp").csc_matrix((data, indices, indptr), shape=(len(self.free),) * 2)


def energy(prob: WeakProblem, u: DiscreteField, eps: float = 0.0) -> float:
    """Dirichlet p-energy minus the data coupling, barycenter quadrature."""
    kernel = _Kernel(prob, u.mesh)
    return kernel.energy(kernel.q(u.values), eps)


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
    kernel = _Kernel(prob, u.mesh, fixed_mask)
    return kernel.dual_residual(kernel.q(u.values), kernel.factor())


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

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
    regularization parameter (see ``_newton``).  Its last stage stops as soon
    as the dual-norm residual sqrt(r K^-1 r) of the unregularized problem is
    at most ``cfg.tolerance * (1 + max|u|)``, the test applied to the result;
    NonconvergenceError is raised when the steps run out first.  The reported
    residual is always that dual norm.  ``fixed_mask`` generalizes the
    constraint set beyond the mesh boundary (used by the frozen replacement
    problem).
    """
    kernel = _Kernel(prob, mesh, fixed_mask)
    fixed_mask, free, fixed = kernel.fixed_mask, kernel.free, np.where(kernel.fixed_mask)[0]
    if fixed_values is not None:
        values = np.where(fixed_mask, fixed_values, 0.0)
    else:
        values = np.zeros(mesh.num_vertices)
        if prob.dirichlet is not None:
            values[fixed] = np.asarray(prob.dirichlet(mesh.vertices[fixed]), dtype=float)
    # one factorization of the free block of K serves the p = 2 solve (the
    # Newton warm start for other p) and every dual-norm residual
    lu = kernel.factor()
    if lu is not None:
        rhs = kernel.scatter(kernel.aG if prob.p == 2.0 else a_map(2.0, kernel.MG))
        values[free] = lu.solve(rhs[free] - kernel.K[free][:, fixed] @ values[fixed])
    trace: list[dict] = []
    if prob.p != 2.0:
        values, trace = _newton(kernel, cfg, values, lu)
    q = kernel.q(values)
    res, _ = kernel.dual_residual(q, lu)
    trace.append({"iteration": len(trace), "eps": 0.0, "energy": kernel.energy(q, 0.0),
                  "residual": res, "step": 1.0 if prob.p == 2.0 else 0.0})
    u = DiscreteField(mesh, values)
    if prob.p == 2.0:
        return SolveResult(u, trace, res <= max(cfg.tolerance, 1e-8), res)
    if res > cfg.tolerance * (1.0 + float(np.abs(values).max())):
        raise NonconvergenceError(f"final residual {res:g} above tolerance {cfg.tolerance:g}",
                                  trace)
    return SolveResult(u, trace, True, res)


# relative round-off of a summed energy, with margin: below it the Armijo
# comparison of two energies is noise
_ENERGY_ROUNDOFF = 1e3 * np.finfo(float).eps


def _eps_schedule(cfg: SolverConfig) -> list[float]:
    """Continuation stages eps_start, eps_start * eps_factor, ..., eps_end;
    a product within half a factor (in log scale) of eps_end is eps_end
    itself, so round-off in the repeated product never adds a stage."""
    stages: list[float] = []
    e = cfg.eps_start
    while e * math.sqrt(cfg.eps_factor) > cfg.eps_end:
        stages.append(e)
        e *= cfg.eps_factor
    stages.append(cfg.eps_end)
    return stages


def _newton(kernel: _Kernel, cfg: SolverConfig, values: np.ndarray, lu):
    """Damped Newton with Armijo backtracking through the continuation in eps.

    An intermediate stage stops when the Euclidean norm of its regularized
    residual is at most max(tolerance, eps / 100) * (1 + max|u|); the last
    stage stops when the dual-norm residual, measured through ``lu``, the
    factor of K, passes the test ``solve`` applies.  Each Hessian is factored
    with partial pivoting and the minimum-degree ordering of H + H^T; a
    factor that meets an exactly zero pivot raises NonconvergenceError with
    the trace so far.  The line search accepts the full step once lambda^2 is
    below the energy's round-off.  Each accepted step adds a trace row that
    also records ``decrement`` (lambda^2 = -r . step) and ``stalled`` (true
    on the last row of a stage that used up ``max_iterations`` steps).
    """
    interior = kernel.free
    stages = _eps_schedule(cfg)
    trace: list[dict] = []
    for stage, eps in enumerate(stages):
        last_stage = stage == len(stages) - 1
        stage_tol = max(cfg.tolerance, eps * 1e-2)
        e0 = None
        for it in range(cfg.max_iterations):
            scale = 1.0 + float(np.abs(values).max())
            if last_stage:
                res, _ = kernel.dual_residual(kernel.q(values), lu)
                if res <= cfg.tolerance * scale:
                    return values, trace
            r, H = kernel.gradient_hessian(values, eps)
            rn = float(np.linalg.norm(r[interior]))
            if not last_stage and rn <= stage_tol * scale:
                break
            try:
                hlu = _scipy("spla").splu(H, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise NonconvergenceError(f"singular Hessian: {exc}", trace) from exc
            step = np.zeros_like(values)
            step[interior] = hlu.solve(-r[interior])
            hlu = None  # freed before the next factorization (peak memory)
            if not np.all(np.isfinite(step)):
                raise NonconvergenceError("Newton step is not finite", trace)
            lam2 = -float(r[interior] @ step[interior])
            if e0 is None:
                e0 = kernel.energy(kernel.q(values), eps)
            t = 1.0
            for _bt in range(cfg.max_backtracks):
                cand = values + t * step
                e1 = kernel.energy(kernel.q(cand), eps)
                # below the energy's round-off the Armijo test compares noise
                if lam2 <= _ENERGY_ROUNDOFF * abs(e0) or e1 <= e0 - cfg.armijo_c * t * lam2:
                    break
                t *= cfg.backtrack
            else:
                raise NonconvergenceError(
                    f"line search failed at eps={eps:g}", trace
                )
            values, e0 = cand, e1
            trace.append(
                {"iteration": len(trace) + 1, "eps": eps, "energy": e1,
                 "residual": rn, "step": t, "decrement": lam2,
                 "stalled": it == cfg.max_iterations - 1}
            )
    return values, trace


# ---------------------------------------------------------------------------
# weighted norms and errors
# ---------------------------------------------------------------------------

def weighted_lp_norm(
    u: DiscreteField, omega: Field, rho: float, region: Ball
) -> float:
    """(mean over the region of (|grad u| omega)^rho)^(1/rho).

    Cells belong to the region when their barycenter does; the mean is taken
    against the covered area.
    """
    if rho < 1:
        raise ValueError("rho must be at least 1")
    mesh = u.mesh
    mask = cells_in_ball(mesh, region.center, region.radius)
    grads = np.linalg.norm(u.cell_gradients(), axis=1)
    values = (grads * omega.evaluate(mesh.barycenters)) ** rho
    return region_mean(mesh, values, mask) ** (1.0 / rho)


def weighted_h1_error(
    u: DiscreteField,
    exact_grad: Callable[[np.ndarray], np.ndarray],
    omega: Field | None = None,
) -> float:
    """Weighted H1 seminorm distance (mean of (|grad(u - u_exact)| omega)^2)^(1/2)."""
    mesh = u.mesh
    diff = u.cell_gradients() - np.asarray(exact_grad(mesh.barycenters), dtype=float)
    mag = np.linalg.norm(diff, axis=1)
    if omega is not None:
        mag = mag * omega.evaluate(mesh.barycenters)
    return float(math.sqrt(np.sum(mag ** 2 * mesh.areas) / mesh.areas.sum()))
