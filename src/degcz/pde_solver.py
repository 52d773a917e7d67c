"""P1 finite-element energy minimization for matrix-weighted p-Laplace problems.

One-point (barycenter) quadrature makes the nonlinearity pointwise per cell:
with piecewise-linear trial functions the gradient is cell-constant, so the
assembled energy, residual, and Hessian are exact for the discrete integrand.
For p = 2 the solve is a single SPD sparse solve; otherwise a damped Newton
iteration runs on a regularized energy with a geometric continuation of the
regularization parameter, warm-started from the p = 2 solve.

One kernel per solve (``_Kernel``) holds the weight at the barycenters, the
M-applied hat gradients and the stiffness matrix K, assembled once.  A solve
factors the free block of K once, by banded Cholesky (George and Liu, *Computer
Solution of Large Sparse Positive Definite Systems*, 1981) in the narrower of
the reverse Cuthill-McKee and the breadth-first level-set order: that factor
gives the p = 2 solution and every dual-norm residual of the solve.  Each Newton
iteration assembles the gradient first and tests the stage's stopping rule on
it; only when a step is taken does it assemble the Hessian, which it writes
straight into the free block of K's sparsity pattern through index maps built
once, from the kappa-free cell blocks cached per kernel.  SuperLU factors H,
which is not positive definite in floating point, with the minimum-degree
ordering of H + H^T, which fills less than the default COLAMD.  The q = M grad u
of the accepted line-search candidate serves the next iteration's residual,
gradient and energy.  The kernels work column by column, on contiguous (nc,)
arrays, bit for bit: each does the IEEE operations of the einsum or broadcast
formula it replaced, in its order and summing onto +0.0 where einsum does.

scipy.sparse, scipy.sparse.linalg, scipy.linalg and scipy.sparse.csgraph load
at the first use of the module attributes ``sp``, ``spla``, ``sla`` and
``csgraph``, which a solve makes, so importing the package and running the
commands that never solve loads no scipy.  Each attribute can be read or
replaced before the first solve; a solve calls whatever module is bound to it
at call time.

Newton stopping rule: the last continuation stage stops on the quantity the
result is accepted on, the dual norm sqrt(r K^-1 r) of the unregularized
residual; earlier stages stop on the Euclidean norm of their regularized
residual.  Once the squared Newton decrement lambda^2 = -r . step (Boyd &
Vandenberghe, *Convex Optimization*, 2004, section 9.5) falls below the
round-off of the energy, an Armijo comparison of two energies cannot resolve
the predicted decrease lambda^2 / 2, and the full step is taken.

Kacanov start: for p > 2 on a weight with a singular point, the
first two steps use the Hessian without its kappa' term, the kappa-weighted
stiffness (Diening, Fornasier, Tomasi and Wank, Numer. Math. 2020).  Next to
the singular point the p = 2 warm start overshoots |M grad u| by up to 2^16,
which Newton on |q|^p / p only halves per step.  Such a step is factored,
line-searched, budgeted and stopped like a Newton step.
"""
from __future__ import annotations

import importlib
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Callable

import numpy as np

from .meshing import Mesh, _cells_last
from .nfunctions import a_map
from .weight_algebra import Field, _min_distance, euclidean_norm

__all__ = [
    "NonconvergenceError",
    "DiscreteField",
    "WeakProblem",
    "SolverConfig",
    "SolveResult",
    "interpolate",
    "weak_residual",
    "solve",
    "weighted_h1_error",
]


_SCIPY = {"sp": "scipy.sparse", "spla": "scipy.sparse.linalg", "sla": "scipy.linalg",
          "csgraph": "scipy.sparse.csgraph"}


def __getattr__(name: str):
    """Load and bind a module of ``_SCIPY`` at its first use."""
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import waits for another thread's import of the same module, and
    # setdefault keeps a module bound meanwhile, such as a wrapped spla
    return globals().setdefault(name, importlib.import_module(_SCIPY[name]))


def _scipy(name: str):
    """The module bound to ``name`` now, loaded at its first use."""
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
    ``dirichlet`` maps boundary points to trace values.
    """

    weight: Field
    p: float = 2.0
    data: Callable[[np.ndarray], np.ndarray] | None = None
    dirichlet: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise ValueError("p must lie in (1, inf)")

    def weight_at(self, points: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
        """Weight at quadrature points; a point sitting exactly on a singular
        point is shifted by 1e-12 of the local length scale."""
        pts = np.asarray(points, dtype=float)
        sing = np.asarray(self.weight.singular_points or ()).reshape(-1, pts.shape[-1])
        if len(sing):
            d = _min_distance(pts, sing)
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


@dataclass
class SolveResult:
    field: DiscreteField
    trace: list[dict] = dataclass_field(default_factory=list)
    converged: bool = True
    residual: float = math.nan


# ---------------------------------------------------------------------------
# the per-solve kernel
# ---------------------------------------------------------------------------

#: the (l, m) entries with l <= m of a symmetric 3 x 3 cell block
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m x per cell for (nc, 2) vectors x and (nc, 2, 2) matrices m, or one
    2 x 2 matrix m: (+0.0 + m[a, 0] x[0]) + m[a, 1] x[1] on contiguous columns,
    the bits of einsum("cab,cb->ca") or einsum("ab,cb->ca")."""
    out = _cells_last(x.shape)
    for a in range(2):
        out[:, a] = (0.0 + m[..., a, 0] * x[:, 0]) + m[..., a, 1] * x[:, 1]
    return out


class _BandCholesky:
    """Banded Cholesky factor of an SPD sparse matrix A in the narrower order:
    reverse Cuthill-McKee, or the breadth-first level sets from vertex
    ``start`` (a graded disk's rings), then the vertices they miss.  An A not
    numerically positive definite raises LinAlgError."""

    def __init__(self, A, start: int):
        csgraph, n, coo = _scipy("csgraph"), A.shape[0], A.tocoo()
        levels = csgraph.breadth_first_order(A, start, return_predecessors=False)
        levels = np.concatenate([levels, np.flatnonzero(np.bincount(levels, minlength=n) == 0)])
        pos = np.empty((2, n), dtype=np.int64)
        pos[0, csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)] = np.arange(n)
        pos[1, levels] = np.arange(n)
        widths = [np.abs(p[coo.row] - p[coo.col]).max() for p in pos]
        self.pos, w = pos[np.argmin(widths)], int(min(widths))
        self.order = np.argsort(self.pos)
        rows, cols = self.pos[coo.row], self.pos[coo.col]
        low = rows >= cols
        # the lower band ab[i - j, j] = A[i, j] in Fortran order, one entry a slot
        band = np.bincount((rows - cols + cols * (w + 1))[low], coo.data[low], (w + 1) * n)
        self.band = _scipy("sla").cholesky_banded(
            band.reshape((w + 1, n), order="F"), overwrite_ab=True, lower=True, check_finite=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return _scipy("sla").cho_solve_banded((self.band, True), b[self.order],
                                              check_finite=False)[self.pos]


class _Kernel:
    """Cell data, stiffness matrix K and assembly of one problem on one mesh.

    Since M is symmetric, (M A(M xi)) . grad(lambda) = A(M xi) . (M grad(lambda)),
    so all assembly uses ``Mgrads`` = M grad(lambda) and ``aG`` = A(M G).
    ``M``, ``Mgrads`` and q are stored with the cell axis last, so that every
    kernel works on contiguous (nc,) columns.
    """

    def __init__(self, prob: WeakProblem, mesh: Mesh, fixed_mask: np.ndarray | None = None):
        self.p = prob.p
        self.mesh = mesh
        self.fixed_mask = mesh.boundary_mask if fixed_mask is None else fixed_mask
        self.free = np.where(~self.fixed_mask)[0]
        nc = mesh.num_cells
        self.M = _cells_last((nc, 2, 2))
        self.M[...] = prob.weight_at(mesh.barycenters, np.sqrt(mesh.areas))
        self.Mgrads = _cells_last((nc, 3, 2))
        for loc in range(3):
            self.Mgrads[:, loc] = _matvec(self.M, mesh.hat_gradients[:, loc])
        self.MG = _matvec(self.M, prob.data_at(mesh.barycenters))
        self.aG = a_map(prob.p, self.MG)
        singular = len(prob.weight.singular_points) > 0
        # Kacanov steps that open the solve (see the module docstring)
        self.kacanov_steps = 2 if prob.p > 2.0 and singular else 0

    @cached_property
    def K(self):
        # cell-block entry (c, l, m) sits at row cells[c, l], column cells[c, m]
        cells, n = self.mesh.cells, self.mesh.num_vertices
        rows = np.repeat(cells, 3, axis=1).reshape(-1)
        cols = np.tile(cells, (1, 3)).reshape(-1)
        # einsum("cla,cma,c->clm", Mgrads, Mgrads, areas), summed onto +0.0
        mg, area = self.Mgrads, self.mesh.areas
        blocks = np.empty((len(cells), 3, 3))
        for l, m in _PAIRS:
            blocks[:, l, m] = blocks[:, m, l] = (
                (0.0 + mg[:, l, 0] * mg[:, m, 0] * area) + mg[:, l, 1] * mg[:, m, 1] * area)
        return _scipy("sp").coo_matrix((blocks.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()

    def q(self, values: np.ndarray) -> np.ndarray:
        """q = M grad u per cell."""
        return _matvec(self.M, self.mesh.cell_gradients(values))

    def energy(self, q: np.ndarray, eps: float) -> float:
        q2 = q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1] + eps * eps
        # data term written against grad u via the assembled weighted flux,
        # summed onto +0.0 as einsum("ca,ca->c", aG, q)
        data = (0.0 + self.aG[:, 0] * q[:, 0]) + self.aG[:, 1] * q[:, 1]
        return float(np.sum(self.mesh.areas * (q2 ** (self.p / 2.0) / self.p - data)))

    def scatter(self, flux: np.ndarray) -> np.ndarray:
        """Nodal vector sum over cells of area * flux . (M grad lambda)."""
        mg, area = self.Mgrads, self.mesh.areas
        # cell-major, the order in which bincount sums each vertex's terms
        r_cells = np.empty((len(area), 3))
        for loc in range(3):
            r_cells[:, loc] = (mg[:, loc, 0] * flux[:, 0]) * area + (mg[:, loc, 1] * flux[:, 1]) * area
        return np.bincount(self.mesh.cells.reshape(-1), r_cells.reshape(-1), self.mesh.num_vertices)

    def factor(self):
        """Factor of the free block of K, its level sets rooted at the free
        vertex nearest the mesh centroid; None when no vertex is free."""
        if not len(self.free):
            return None
        points = self.mesh.vertices
        start = np.argmin(euclidean_norm(points[self.free] - points.mean(axis=0)))
        return _BandCholesky(self.K[self.free][:, self.free], int(start))

    def dual_residual(self, q: np.ndarray, kf) -> tuple[float, np.ndarray]:
        """Dual norm sqrt(r K^-1 r) of the residual, K^-1 applied through the
        factor ``kf`` of the free block, and the raw residual r."""
        r = self.scatter(a_map(self.p, q) - self.aG)
        r[self.fixed_mask] = 0.0
        if kf is None:
            return 0.0, r
        rf = r[~self.fixed_mask]
        return math.sqrt(max(float(rf @ kf.solve(rf)), 0.0)), r

    @cached_property
    def _refill(self):
        """K's slots of the cells' upper block entries ``_PAIRS``, cell-major,
        and the free block's CSC pattern with the upper slot of each entry."""
        K, cells, n = self.K, self.mesh.cells, self.mesh.num_vertices
        rows = np.repeat(np.arange(n), np.diff(K.indptr))
        keys = rows * n + K.indices
        # a symmetric block's (l, m) and (m, l) entries are the same bits and
        # K's pattern is symmetric, so each pair of mirror slots sums the same
        # terms in the same cell order: assemble the upper slot only
        upper = np.searchsorted(keys, np.minimum(rows, K.indices) * n
                                + np.maximum(rows, K.indices))
        ends = cells[:, [l for l, _ in _PAIRS]], cells[:, [m for _, m in _PAIRS]]
        slot = np.searchsorted(keys, (np.minimum(*ends) * n + np.maximum(*ends)).reshape(-1))
        # K's slot numbers, shifted by one so that none is an explicit zero
        numbered = _scipy("sp").csr_matrix((np.arange(1.0, K.nnz + 1), K.indices, K.indptr),
                                           shape=K.shape)
        block = numbered[self.free][:, self.free].tocsc()
        return slot, upper[block.data.astype(np.int64) - 1], block.indices, block.indptr

    @cached_property
    def _gram(self):
        """The kappa-free upper entries gx gx^T + gy gy^T of every Hessian
        cell block, one (nc,) column per pair of ``_PAIRS``."""
        mg = self.Mgrads
        return [mg[:, l, 0] * mg[:, m, 0] + mg[:, l, 1] * mg[:, m, 1] for l, m in _PAIRS]

    def gradient(self, q: np.ndarray, eps: float):
        """Nodal gradient r of the regularized energy at q = M grad u, with the
        q^2 = |q|^2 + eps^2 and kappa = (q^2)^((p - 2) / 2) it computed."""
        q2 = q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1] + eps * eps
        kappa = q2 ** ((self.p - 2.0) / 2.0)
        flux = _cells_last(q.shape)
        for a in range(2):
            flux[:, a] = kappa * q[:, a] - self.aG[:, a]
        return self.scatter(flux), q2, kappa

    def hessian(self, q: np.ndarray, q2: np.ndarray, kappa: np.ndarray, kacanov: bool = False):
        """Free block of the Hessian at q in CSC, from ``gradient``'s q^2 and
        kappa and the cell blocks
        kappa area (gx gx^T + gy gy^T) + kappa' area g g^T, g = (M grad lambda) . q;
        with ``kacanov``, the Kacanov matrix: the first term alone."""
        areas = self.mesh.areas
        ka = kappa * areas
        # the upper entries of each symmetric cell block, cell-major
        blocks = np.empty((len(areas), len(_PAIRS)))
        if kacanov:
            for k in range(len(_PAIRS)):
                blocks[:, k] = ka * self._gram[k]
        else:
            kpa = (self.p - 2.0) * q2 ** ((self.p - 4.0) / 2.0) * areas
            mg = self.Mgrads
            g = [mg[:, loc, 0] * q[:, 0] + mg[:, loc, 1] * q[:, 1] for loc in range(3)]
            for k, (l, m) in enumerate(_PAIRS):
                blocks[:, k] = ka * self._gram[k] + (g[l] * g[m]) * kpa
        slot, gather, indices, indptr = self._refill
        data = np.bincount(slot, blocks.reshape(-1), self.K.nnz)[gather]
        return _scipy("sp").csc_matrix((data, indices, indptr), shape=(len(self.free),) * 2)


def weak_residual(prob: WeakProblem, u: DiscreteField,
                  fixed_mask: np.ndarray | None = None) -> tuple[float, np.ndarray]:
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
    constraint set beyond the mesh boundary (used by the comparison problem
    of ``cz_harness.build_localized``).
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
    kf = kernel.factor()
    if kf is not None:
        rhs = kernel.scatter(kernel.aG if prob.p == 2.0 else a_map(2.0, kernel.MG))
        values[free] = kf.solve(rhs[free] - kernel.K[free][:, fixed] @ values[fixed])
    q = kernel.q(values)
    trace: list[dict] = []
    res = None
    if prob.p != 2.0:
        values, q, res, trace = _newton(kernel, cfg, values, q, kf)
    if res is None:
        res, _ = kernel.dual_residual(q, kf)
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


#: continuation stages 0.1, 0.1 * 0.1, ... by repeated product, ending at
#: 1e-8 itself rather than at the product's round-off of it
_EPS_STAGES = tuple(itertools.accumulate([0.1] * 7, operator.mul)) + (1e-8,)
#: Armijo sufficient-decrease constant, step shrink factor and shrink budget
_ARMIJO_C, _BACKTRACK, _MAX_BACKTRACKS = 1e-4, 0.5, 40


def _newton(kernel: _Kernel, cfg: SolverConfig, values: np.ndarray, q: np.ndarray, kf):
    """Damped Newton with Armijo backtracking through the continuation in eps,
    from ``values`` and its q = M grad u; returns the last iterate, its q, its
    dual-norm residual (None when the steps run out before the last stage's
    test passes) and the trace.

    An iteration does only the work its stopping test and its step need: the
    dual-norm residual on the last stage, then the gradient and the stage's
    stopping test, and only for a step taken the Hessian, its factor and the
    line search.  An intermediate stage stops when the Euclidean norm of its
    regularized residual is at most max(tolerance, eps / 100) * (1 + max|u|);
    the last stage stops when the dual-norm residual, measured through
    ``kf``, the factor of K, passes the test ``solve`` applies.  A Hessian
    factor that meets an exactly zero pivot raises NonconvergenceError with
    the trace so far.  Each accepted step adds a trace row that also records
    ``decrement`` (lambda^2 = -r . step), ``stalled`` (true on the last row
    of a stage that used up ``max_iterations`` steps) and ``direction``,
    ``"kacanov"`` on the first ``kernel.kacanov_steps`` rows and ``"newton"``
    after them.
    """
    interior = kernel.free
    trace: list[dict] = []
    for eps in _EPS_STAGES:
        last_stage = eps == _EPS_STAGES[-1]
        stage_tol = max(cfg.tolerance, eps * 1e-2)
        e0 = None
        for it in range(cfg.max_iterations):
            scale = 1.0 + float(np.abs(values).max())
            if last_stage:
                res, _ = kernel.dual_residual(q, kf)
                if res <= cfg.tolerance * scale:
                    return values, q, res, trace
            r, q2, kappa = kernel.gradient(q, eps)
            rn = float(np.linalg.norm(r[interior]))
            if not last_stage and rn <= stage_tol * scale:
                break
            kacanov = len(trace) < kernel.kacanov_steps
            try:
                hlu = _scipy("spla").splu(kernel.hessian(q, q2, kappa, kacanov),
                                          permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise NonconvergenceError(f"singular Hessian: {exc}", trace) from exc
            step = np.zeros_like(values)
            step[interior] = hlu.solve(-r[interior])
            hlu = None  # freed before the next factorization (peak memory)
            if not np.all(np.isfinite(step)):
                raise NonconvergenceError("Newton step is not finite", trace)
            lam2 = -float(r[interior] @ step[interior])
            if e0 is None:
                e0 = kernel.energy(q, eps)
            t = 1.0
            for _bt in range(_MAX_BACKTRACKS):
                cand = values + t * step
                q_cand = kernel.q(cand)
                e1 = kernel.energy(q_cand, eps)
                # below the energy's round-off the Armijo test compares noise
                if lam2 <= _ENERGY_ROUNDOFF * abs(e0) or e1 <= e0 - _ARMIJO_C * t * lam2:
                    break
                t *= _BACKTRACK
            else:
                raise NonconvergenceError(f"line search failed at eps={eps:g}", trace)
            values, q, e0 = cand, q_cand, e1
            trace.append({"iteration": len(trace) + 1, "eps": eps, "energy": e1,
                          "residual": rn, "step": t, "decrement": lam2,
                          "stalled": it == cfg.max_iterations - 1,
                          "direction": "kacanov" if kacanov else "newton"})
    return values, q, None, trace


# ---------------------------------------------------------------------------
# weighted errors
# ---------------------------------------------------------------------------

def weighted_h1_error(u: DiscreteField, exact_grad: Callable[[np.ndarray], np.ndarray],
                      omega: Field | None = None) -> float:
    """Weighted H1 seminorm distance (mean of (|grad(u - u_exact)| omega)^2)^(1/2)."""
    mesh = u.mesh
    diff = u.cell_gradients() - np.asarray(exact_grad(mesh.barycenters), dtype=float)
    mag = euclidean_norm(diff)
    if omega is not None:
        mag = mag * omega.evaluate(mesh.barycenters)
    return float(math.sqrt(np.sum(mag ** 2 * mesh.areas) / mesh.areas.sum()))
