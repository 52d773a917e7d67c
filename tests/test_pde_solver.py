import math
import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import COORDS, MODERATE, coord_arrays, discrete_energy
from degcz import pde_solver
from degcz.cz_harness import SweepSpec
from degcz.exact_examples import MeyersExample
from degcz.meshing import Mesh, disk_mesh, unit_square_mesh
from degcz.nfunctions import a_map
from degcz.pde_solver import (
    DiscreteField,
    NonconvergenceError,
    SolverConfig,
    WeakProblem,
    interpolate,
    solve,
    weak_residual,
    weighted_h1_error,
)
from degcz.weight_algebra import Ball, Field, constant_weight, identity_weight, log_mean


def dirichlet_energy_oracle(ex: MeyersExample) -> float:
    """(1/2) integral over the unit disk of |M grad u|^2, by 2-d quadrature."""

    def integrand(r, t):
        pt = np.array([[r * math.cos(t), r * math.sin(t)]])
        q = ex.weight(pt)[0] @ ex.grad_u(pt)[0]
        return 0.5 * float(q @ q) * r

    val, _ = integrate.dblquad(integrand, 0.0, 2 * math.pi, 1e-12, 1.0, epsabs=1e-10)
    return val


class TestEnergy:
    def test_zero_field(self):
        mesh = unit_square_mesh(8)
        prob = WeakProblem(identity_weight(2), 2.0)
        assert discrete_energy(prob, DiscreteField(mesh, np.zeros(mesh.num_vertices))) == 0.0

    def test_linear_field_unit_square(self):
        mesh = unit_square_mesh(8)
        prob = WeakProblem(identity_weight(2), 2.0)
        u = interpolate(mesh, lambda p: p[:, 0])
        assert discrete_energy(prob, u) == pytest.approx(0.5, abs=1e-14)

    def test_example_energy_converges_to_oracle(self):
        ex = MeyersExample(2, 0.25, "plain")
        oracle = dirichlet_energy_oracle(ex)
        prob = WeakProblem(ex.weight_field(), 2.0)
        errs = []
        for angular, layers in ((16, 14), (32, 20), (64, 26)):
            mesh = disk_mesh(angular=angular, layers=layers, grading=0.7)
            u = interpolate(mesh, ex.u_with_origin)
            errs.append(abs(discrete_energy(prob, u) - oracle))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= 0.01 * oracle


class TestWeakResidual:
    def test_discrete_minimizer_residual_small(self):
        ex = MeyersExample(2, 0.25, "plain")
        prob = WeakProblem(ex.weight_field(), 2.0, None, ex.u_with_origin)
        mesh = disk_mesh(angular=20, layers=16, grading=0.7)
        result = solve(prob, mesh)
        res, r = weak_residual(prob, result.field)
        assert res <= 1e-10

    def test_interpolant_residual_vanishes_under_refinement(self):
        ex = MeyersExample(2, 0.5, "plain")
        prob = WeakProblem(ex.weight_field(), 2.0, None, ex.u_with_origin)
        mesh = disk_mesh(angular=20, layers=16, grading=0.7)
        residuals = []
        for level in range(3):
            residuals.append(weak_residual(prob, interpolate(mesh, ex.u_with_origin))[0])
            if level < 2:
                mesh = mesh.refine()
        orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        assert min(orders) >= 0.5

    def test_wrong_theta_residual_bounded_below(self):
        ex = MeyersExample(2, 0.5, "plain", theta_override=1.0)
        prob = WeakProblem(ex.weight_field(), 2.0, None, ex.u_with_origin)
        mesh = disk_mesh(angular=20, layers=16, grading=0.7)
        residuals = []
        for level in range(3):
            residuals.append(weak_residual(prob, interpolate(mesh, ex.u_with_origin))[0])
            if level < 2:
                mesh = mesh.refine()
        assert min(residuals) >= 0.5 * residuals[0] > 0.1


class TestSolve:
    def test_zero_data_zero_boundary(self):
        mesh = unit_square_mesh(8)
        prob = WeakProblem(identity_weight(2), 2.0, None, lambda p: np.zeros(len(p)))
        result = solve(prob, mesh)
        assert np.abs(result.field.values).max() <= 1e-14

    def test_harmonic_linear_function(self):
        mesh = unit_square_mesh(16)
        prob = WeakProblem(identity_weight(2), 2.0, None, lambda p: p[:, 0])
        result = solve(prob, mesh)
        assert np.abs(result.field.values - mesh.vertices[:, 0]).max() <= 1e-10

    def test_maximum_principle(self):
        ex = MeyersExample(2, 0.25, "plain")
        prob = WeakProblem(ex.weight_field(), 2.0, None, ex.u_with_origin)
        mesh = disk_mesh(angular=24, layers=18, grading=0.7)
        result = solve(prob, mesh)
        bvals = ex.u_with_origin(mesh.vertices[mesh.boundary_vertices])
        assert result.field.values.min() >= bvals.min() - 1e-10
        assert result.field.values.max() <= bvals.max() + 1e-10

    def test_galerkin_orthogonality(self):
        ex = MeyersExample(2, 0.25, "plain")
        prob = WeakProblem(ex.weight_field(), 2.0, None, ex.u_with_origin)
        mesh = disk_mesh(angular=24, layers=18, grading=0.7)
        result = solve(prob, mesh)
        _, r = weak_residual(prob, result.field)
        interior = ~mesh.boundary_mask
        scale = float(np.abs(result.field.values).max())
        assert np.abs(r[interior]).max() <= 1e-10 * max(scale, 1.0)

    def test_weighted_h1_convergence(self):
        ex = MeyersExample(2, 0.25, "plain")
        prob = WeakProblem(ex.weight_field(), 2.0, None, ex.u_with_origin)
        mesh = disk_mesh(angular=20, layers=30, grading=0.7)
        errs = []
        for level in range(3):
            result = solve(prob, mesh)
            errs.append(weighted_h1_error(result.field, ex.grad_u, ex.scalar_weight()))
            if level < 2:
                mesh = mesh.refine()
        assert errs[0] / errs[1] >= 1.5 and errs[1] / errs[2] >= 1.5

    def test_p_laplace_newton(self):
        # p = 3 with a curved exact-ish boundary datum: converges with
        # monotone energy along accepted steps within each continuation stage
        mesh = unit_square_mesh(12)
        prob = WeakProblem(
            identity_weight(2), 3.0, None, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
        )
        result = solve(prob, mesh, SolverConfig(tolerance=1e-9))
        assert result.converged
        assert result.residual <= 1e-9 * (1 + np.abs(result.field.values).max())
        by_eps: dict = {}
        for row in result.trace[:-1]:
            by_eps.setdefault(row["eps"], []).append(row["energy"])
        for eps, energies in by_eps.items():
            diffs = np.diff(energies)
            assert np.all(diffs <= 1e-12), f"energy increased at eps={eps}"

    def test_p_sub_two(self):
        mesh = unit_square_mesh(10)
        prob = WeakProblem(
            identity_weight(2), 1.5, None, lambda p: np.sin(math.pi * p[:, 0])
        )
        result = solve(prob, mesh, SolverConfig(tolerance=1e-8))
        assert result.converged

    def test_nonconvergence_carries_trace(self):
        # without Newton steps the p = 2 warm start stays above tolerance
        mesh = unit_square_mesh(8)
        prob = WeakProblem(
            identity_weight(2), 4.0, None, lambda p: p[:, 0] ** 3
        )
        with pytest.raises(NonconvergenceError) as err:
            solve(prob, mesh, SolverConfig(max_iterations=0))
        (final,) = err.value.trace
        assert final["residual"] > SolverConfig().tolerance

    def test_frozen_problem_constant_weight(self):
        # a problem frozen at one matrix is the problem of its constant weight
        mesh = disk_mesh(angular=16, layers=10, grading=0.7)
        frozen = np.diag([2.0, 1.0])
        prob = WeakProblem(constant_weight(frozen), 2.0, None, lambda p: p[:, 0])
        result = solve(prob, mesh)
        got = prob.weight_at(mesh.barycenters[:5])
        assert np.array_equal(got, np.broadcast_to(frozen, (5, 2, 2)))
        assert result.residual <= 1e-10

    def test_constant_weight_takes_no_kacanov_steps(self):
        # a constant weight has no singular point, so a p = 3 solve opens with
        # Newton; its kernel holds the matrix itself at every barycenter
        mesh = disk_mesh(angular=16, layers=10, grading=0.7)
        frozen = log_mean(MeyersExample(2, 0.25, "plain").weight_field(), Ball((0.0, 0.0), 0.2))
        kernel = pde_solver._Kernel(WeakProblem(constant_weight(frozen), 3.0), mesh)
        assert kernel.kacanov_steps == 0
        assert np.array_equal(kernel.M, np.broadcast_to(frozen, (mesh.num_cells, 2, 2)))


class TestNewtonStopping:
    FINAL_ROW_KEYS = {"iteration", "eps", "energy", "residual", "step"}

    @pytest.mark.parametrize("cfg, stages", [
        ((10.0, SolverConfig(tolerance=1e-10, max_iterations=1)), 8),
        ((10.0, SolverConfig(tolerance=1e-7, max_iterations=1)), 7),
        ((4.0, SolverConfig(tolerance=1e-2)), 1),
    ])
    def test_eps_schedule_ends_once_at_eps_end(self, cfg, stages):
        # the repeated product 0.1 * 0.1 * ..., with its round-off, and then
        # 1e-8 exactly, once
        assert pde_solver._EPS_STAGES == (
            0.1, 0.010000000000000002, 0.0010000000000000002, 0.00010000000000000003,
            1.0000000000000004e-05, 1.0000000000000004e-06, 1.0000000000000005e-07, 1e-08,
        )
        # a solve walks the first `stages` of them in order, one block each:
        # it stops once the residual passes, so a loose tolerance ends it early
        p, solver_cfg = cfg
        prob = WeakProblem(identity_weight(2), p, None, lambda q: q[:, 0] ** 5 + q[:, 1])
        *rows, _ = solve(prob, unit_square_mesh(8), solver_cfg).trace
        eps = [row["eps"] for row in rows]
        assert eps == sorted(eps, reverse=True)
        assert list(dict.fromkeys(eps)) == list(pde_solver._EPS_STAGES[:stages])

    @staticmethod
    def p3_problem():
        return WeakProblem(identity_weight(2), 3.0, None, lambda p: p[:, 0] ** 3)

    def test_trace_rows_carry_decrement_and_stall_flag(self):
        cfg = SolverConfig(tolerance=1e-9)
        result = solve(self.p3_problem(), unit_square_mesh(8), cfg)
        *rows, final = result.trace
        assert rows and set(final) == self.FINAL_ROW_KEYS
        for row in rows:
            assert set(row) == self.FINAL_ROW_KEYS | {"decrement", "stalled", "direction"}
            assert row["stalled"] is False
            assert math.isfinite(row["decrement"]) and row["decrement"] > 0
        assert {row["eps"] for row in rows} <= set(pde_solver._EPS_STAGES)

    def test_exhausted_stage_marked_stalled_and_raises(self):
        # a tolerance below round-off cannot be met: every stage's last step
        # is marked, and the last stage's stall still raises
        cfg = SolverConfig(tolerance=1e-18, max_iterations=3)
        with pytest.raises(NonconvergenceError) as err:
            solve(self.p3_problem(), unit_square_mesh(8), cfg)
        *rows, final = err.value.trace
        last_stage = [row for row in rows if row["eps"] == pde_solver._EPS_STAGES[-1]]
        assert len(last_stage) == 3
        assert [row["stalled"] for row in last_stage] == [False, False, True]
        assert final["residual"] > cfg.tolerance


@pytest.fixture
def factorizations(monkeypatch):
    """Counts of the factorizations the solver can run through scipy: K's
    banded Cholesky, the Hessians' banded LU (``dgbtrf``), and SuperLU, which
    no solve calls."""
    calls = {"cholesky_banded": 0, "dgbtrf": 0, "splu": 0, "spsolve": 0}
    modules = {"cholesky_banded": pde_solver.sla, "dgbtrf": pde_solver.sla.lapack}
    for name in calls:
        module = modules.get(name, pde_solver.spla)

        def counted(*args, _orig=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


class TestOneFactorization:
    """A p = 2 solve factors the free block of K once; that factor also gives
    the dual-norm residual, and the trace energy comes from the same cells."""

    EX = MeyersExample(2, 0.25, "plain")
    PROBLEMS = {
        "meyers": lambda: WeakProblem(TestOneFactorization.EX.weight_field(), 2.0, None,
                                      TestOneFactorization.EX.u_with_origin),
        "data-and-dirichlet": lambda: WeakProblem(
            TestOneFactorization.EX.weight_field(), 2.0,
            lambda p: np.broadcast_to([0.7, -0.4], (len(p), 2)).copy(),
            lambda p: p[:, 0] + 2.0 * p[:, 1] - 0.5,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("interior_fixed", [False, True])
    def test_p2_solve(self, factorizations, name, interior_fixed):
        prob = self.PROBLEMS[name]()
        mesh = disk_mesh(angular=20, layers=16, grading=0.7)
        fixed_mask = mesh.boundary_mask.copy()
        if interior_fixed:
            fixed_mask |= np.linalg.norm(mesh.vertices, axis=1) < 0.1
        result = solve(prob, mesh, fixed_mask=fixed_mask)
        assert factorizations == {"cholesky_banded": 1, "dgbtrf": 0, "splu": 0, "spsolve": 0}
        assert result.converged
        assert result.residual == weak_residual(prob, result.field, fixed_mask)[0]
        assert result.trace[0]["energy"] == discrete_energy(prob, result.field)

    def test_no_free_vertex(self, factorizations):
        prob = self.PROBLEMS["data-and-dirichlet"]()
        mesh = disk_mesh(angular=12, layers=6, grading=0.7)
        fixed_mask = np.ones(mesh.num_vertices, dtype=bool)
        result = solve(prob, mesh, fixed_mask=fixed_mask)
        assert sum(factorizations.values()) == 0
        assert result.converged and result.residual == 0.0
        assert np.array_equal(result.field.values, prob.dirichlet(mesh.vertices))
        assert result.trace[0]["energy"] == discrete_energy(prob, result.field)

    def test_newton_factorizations(self, factorizations):
        mesh = unit_square_mesh(8)
        prob = WeakProblem(identity_weight(2), 3.0, None, lambda p: p[:, 0] ** 2 - p[:, 1])
        result = solve(prob, mesh, SolverConfig(tolerance=1e-9))
        # K once, for the warm start and every dual-norm residual; one Hessian
        # per step
        steps = len(result.trace) - 1
        assert factorizations == {"cholesky_banded": 1, "dgbtrf": steps, "splu": 0,
                                  "spsolve": 0}
        assert result.residual == weak_residual(prob, result.field)[0]
        assert result.trace[-1]["energy"] == discrete_energy(prob, result.field)


def fem_linear_disk(level):
    """The graded disk of the p = 2 convergence study at ``level``."""
    mesh = disk_mesh(angular=20, layers=36, grading=0.7)
    for _ in range(level):
        mesh = mesh.refine()
    return mesh


def centre_fixed(mesh):
    """``mesh`` with its boundary and the vertices within 0.2 of its centre
    fixed."""
    centre = 0.5 * (mesh.vertices.min(axis=0) + mesh.vertices.max(axis=0))
    return mesh, mesh.boundary_mask | (np.linalg.norm(mesh.vertices - centre, axis=1) < 0.2)


def ring_split_disk():
    """A graded disk with its boundary and the ring of vertices at the fourth
    radius fixed, which splits the free vertices into a disk and an annulus."""
    mesh = disk_mesh(angular=12, layers=8, grading=0.7)
    radii = np.round(np.linalg.norm(mesh.vertices, axis=1), 12)
    return mesh, mesh.boundary_mask | (radii == np.unique(radii)[4])


def column_split_square():
    """A unit square with its boundary and the column x = 1/2 fixed."""
    mesh = unit_square_mesh(12)
    return mesh, mesh.boundary_mask | np.isclose(mesh.vertices[:, 0], 0.5)


class TestBandCholesky:
    """K's free block is factored by banded Cholesky in the narrower of the
    reverse Cuthill-McKee and the breadth-first level-set order."""

    EX = MeyersExample(2, 0.25, "plain")
    CASES = {
        "disk-0": lambda: (fem_linear_disk(0), None),
        "disk-1": lambda: (fem_linear_disk(1), None),
        "disk-2": lambda: (fem_linear_disk(2), None),
        "square-7": lambda: (unit_square_mesh(7), None),
        "square-16": lambda: (unit_square_mesh(16), None),
        "disk-centre-fixed": lambda: centre_fixed(fem_linear_disk(1)),
        "square-centre-fixed": lambda: centre_fixed(unit_square_mesh(16)),
        "disk-two-components": ring_split_disk,
        "square-two-components": column_split_square,
    }

    @classmethod
    def problem(cls):
        return WeakProblem(cls.EX.weight_field(), 2.0,
                           lambda p: np.stack([np.cos(3.0 * p[:, 1]), p[:, 0]], axis=1),
                           cls.EX.u_with_origin)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solution_agrees_with_superlu(self, monkeypatch, case):
        mesh, fixed_mask = self.CASES[case]()
        prob = self.problem()
        result = solve(prob, mesh, fixed_mask=fixed_mask)
        monkeypatch.setattr(pde_solver._Kernel, "factor", lambda k: pde_solver.spla.splu(
            k.K[k.free][:, k.free].tocsc()))
        reference = solve(prob, mesh, fixed_mask=fixed_mask).field.values
        scale = np.abs(reference).max()
        assert np.abs(result.field.values - reference).max() <= 1e-11 * scale
        assert result.converged

    @pytest.mark.parametrize("case", ["disk-two-components", "square-two-components"])
    def test_every_free_vertex_is_ordered(self, monkeypatch, case):
        """Breadth-first search from the centre reaches one of the two free
        components; the other still takes its place in the level order,
        which is chosen here because reverse Cuthill-McKee is replaced by a
        random order."""
        mesh, fixed_mask = self.CASES[case]()
        kernel = pde_solver._Kernel(self.problem(), mesh, fixed_mask)
        block, n = kernel.K[kernel.free][:, kernel.free], len(kernel.free)
        assert sp.csgraph.connected_components(block)[0] == 2
        start = np.argmin(np.linalg.norm(mesh.vertices[kernel.free] - mesh.vertices.mean(axis=0),
                                         axis=1))
        assert 0 < len(sp.csgraph.breadth_first_order(block, start,
                                                      return_predecessors=False)) < n
        rng = np.random.default_rng(5)
        shuffled = rng.permutation(n)
        monkeypatch.setattr(pde_solver, "csgraph", types.SimpleNamespace(
            breadth_first_order=sp.csgraph.breadth_first_order,
            reverse_cuthill_mckee=lambda A, symmetric_mode: shuffled))
        factor = kernel.factor()
        assert np.array_equal(np.sort(factor.pos), np.arange(n))
        coo, pos = block.tocoo(), np.argsort(shuffled)
        assert factor.band.shape[0] - 1 < np.abs(pos[coo.row] - pos[coo.col]).max()
        b = rng.standard_normal(n)
        reference = pde_solver.spla.splu(block.tocsc()).solve(b)
        assert np.abs(factor.solve(b) - reference).max() <= 1e-11 * np.abs(reference).max()

    def test_bandwidth(self):
        kernel = pde_solver._Kernel(self.problem(), fem_linear_disk(3))
        assert len(kernel.free) == 45361
        assert kernel.factor().band.shape[0] - 1 <= 161
        for n in (8, 16, 33):
            kernel = pde_solver._Kernel(self.problem(), unit_square_mesh(n))
            assert kernel.factor().band.shape[0] - 1 <= n - 1

    @pytest.mark.parametrize("kind", ["zero-weight", "negated", "indefinite"])
    def test_not_positive_definite_raises(self, factorizations, kind):
        """A free block that is singular or indefinite raises; no solution
        comes back and no LU is tried."""
        mesh = unit_square_mesh(8)
        if kind == "zero-weight":
            zero = Field(2, lambda pts: np.zeros((len(pts), 2, 2)), "zero")
            prob = WeakProblem(zero, 2.0, None, lambda p: p[:, 0])
            with pytest.raises(np.linalg.LinAlgError):
                solve(prob, mesh)
        else:
            kernel = pde_solver._Kernel(self.problem(), mesh)
            block = kernel.K[kernel.free][:, kernel.free]
            if kind == "negated":
                block = -block
            else:
                block = block - block.diagonal().mean() * sp.identity(block.shape[0], format="csr")
            with pytest.raises(np.linalg.LinAlgError):
                pde_solver._BandOrder(block, 0)
        assert factorizations["dgbtrf"] == factorizations["splu"] == factorizations["spsolve"] == 0


class TestBandLU:
    """Each Newton or Kacanov step solves its free-block matrix by LAPACK
    banded LU with partial pivoting, in the order and bandwidth of K's
    banded Cholesky factor."""

    EX = MeyersExample(2, 0.25, "plain")
    CASES = {
        "disk": lambda: (disk_mesh(angular=16, layers=12, grading=0.7),
                         TestBandLU.EX.weight_field(), TestBandLU.EX.u_with_origin),
        "disk-0": lambda: (fem_linear_disk(0), TestBandLU.EX.weight_field(),
                           TestBandLU.EX.u_with_origin),
        "square": lambda: (unit_square_mesh(12), identity_weight(2),
                           lambda p: np.sin(3.0 * p[:, 0]) * p[:, 1] ** 2),
    }

    @classmethod
    def step_system(cls, name, p, kacanov):
        """The kernel, its factor of K, the free-block matrix of a step at
        eps 0.1 from the interpolated case function, and the right side."""
        mesh, weight, fn = cls.CASES[name]()
        kernel = pde_solver._Kernel(WeakProblem(weight, p, None, fn), mesh)
        q = kernel.q(fn(mesh.vertices))
        r, q2, kappa = kernel.gradient(q, 0.1)
        return kernel, kernel.factor(), kernel.hessian(q, q2, kappa, kacanov), -r[kernel.free]

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("p, kacanov", [(3.0, False), (1.5, False), (3.0, True)])
    def test_step_equals_dense_solve(self, name, p, kacanov):
        _, kf, H, b = self.step_system(name, p, kacanov)
        dense = H.toarray()
        reference = np.linalg.solve(dense, b)
        got = kf.lu_solve(H, b)
        scale = np.linalg.cond(dense) * np.finfo(float).eps * np.abs(reference).max()
        assert np.abs(got - reference).max() <= 10.0 * scale
        assert np.abs(dense @ got - b).max() <= 1e-12 * np.abs(dense).max() * np.abs(got).max()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_band_has_the_order_and_bandwidth_of_K(self, monkeypatch, name):
        kernel, kf, H, b = self.step_system(name, 3.0, False)
        orig, seen = pde_solver.sla.lapack.dgbtrf, []

        def dgbtrf(ab, kl, ku, **kwargs):
            seen.append((ab.copy(), ab.flags.f_contiguous, kl, ku))
            return orig(ab, kl, ku, **kwargs)

        monkeypatch.setattr(pde_solver.sla.lapack, "dgbtrf", dgbtrf)
        kf.lu_solve(H, b)
        [(ab, fortran, kl, ku)] = seen
        w, n = kf.w, len(kernel.free)
        assert kl == ku == w == kf.band.shape[0] - 1
        assert ab.shape == (3 * w + 1, n) and fortran
        # rows 0..w-1 hold the fill-in; row 2w + i - j of column j holds
        # H[order[i], order[j]], and H has no entry outside the band
        assert not ab[:w].any()
        permuted = H.toarray()[np.ix_(kf.order, kf.order)]
        i, j = np.indices((n, n))
        inside = np.abs(i - j) <= w
        assert np.array_equal(ab[2 * w + (i - j)[inside], j[inside]], permuted[inside])
        assert not permuted[~inside].any()

    def test_p3_on_the_twice_refined_study_disk(self):
        """The 11,321 free vertices of the p = 2 convergence study's level 2
        at p = 3: 6 steps to a converged solve."""
        mesh = fem_linear_disk(2)
        assert (~mesh.boundary_mask).sum() == 11321
        result = solve(WeakProblem(self.EX.weight_field(), 3.0, None, self.EX.u_with_origin),
                       mesh)
        assert result.converged and len(result.trace) - 1 == 6


def reference_gradient_hessian(kernel, values, eps):
    """Gradient and free-block Hessian by the 4-operand einsum blocks, the
    np.add.at scatter and the COO assembly that the kernel's refill replaced."""
    mesh, Mgrads, p = kernel.mesh, kernel.Mgrads, kernel.p
    q = np.einsum("cab,cb->ca", kernel.M, mesh.cell_gradients(values))
    q2 = (q * q).sum(axis=1) + eps * eps
    kappa = q2 ** ((p - 2.0) / 2.0)
    r_cells = np.einsum("cla,ca,c->cl", Mgrads, kappa[:, None] * q - kernel.aG, mesh.areas)
    r = np.zeros(mesh.num_vertices)
    np.add.at(r, mesh.cells, r_cells)
    kprime = (p - 2.0) * q2 ** ((p - 4.0) / 2.0)
    g = np.einsum("cla,ca->cl", Mgrads, q)
    h_cells = np.einsum("c,cla,cma,c->clm", kappa, Mgrads, Mgrads, mesh.areas) + np.einsum(
        "c,cl,cm,c->clm", kprime, g, g, mesh.areas
    )
    rows = np.repeat(mesh.cells, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.cells, (1, 3)).reshape(-1)
    n = mesh.num_vertices
    H = sp.coo_matrix((h_cells.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    return r, H[kernel.free][:, kernel.free].tocsc()


class TestKernel:
    """The per-solve kernel against the assembly it replaced."""

    EX = MeyersExample(2, 0.5, "plain")
    CASES = {
        "square": lambda: (unit_square_mesh(8), identity_weight(2),
                           lambda p: np.sin(3.0 * p[:, 0]) * p[:, 1] ** 2),
        "graded-disk": lambda: (disk_mesh(angular=16, layers=20, grading=0.7),
                                TestKernel.EX.weight_field(), TestKernel.EX.u_with_origin),
        # cell areas down to 1e-100
        "sweep-level-3": lambda: (SweepSpec(p=3, use_fem=True).mesh_for(3),
                                  TestKernel.EX.weight_field(), TestKernel.EX.u_with_origin),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("p", [3.0, 1.5])
    @pytest.mark.parametrize("eps", [1e-1, 1e-8])
    def test_refilled_hessian_matches_reference(self, name, p, eps):
        mesh, weight, fn = self.CASES[name]()
        kernel = pde_solver._Kernel(WeakProblem(weight, p, None, fn), mesh)
        values = fn(mesh.vertices)
        q = kernel.q(values)
        r, q2, kappa = kernel.gradient(q, eps)
        H = kernel.hessian(q, q2, kappa)
        r_ref, H_ref = reference_gradient_hessian(kernel, values, eps)
        assert np.array_equal(r, r_ref)
        assert H.format == "csc" and H.shape == H_ref.shape
        assert np.array_equal(H.indptr, H_ref.indptr)
        assert np.array_equal(H.indices, H_ref.indices)
        assert np.all(np.abs(H.data - H_ref.data) <= 1e-13 * np.abs(H_ref.data))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bincount_scatter_equals_add_at(self, name):
        mesh, weight, fn = self.CASES[name]()
        kernel = pde_solver._Kernel(WeakProblem(weight, 3.0, None, fn), mesh)
        flux = np.random.default_rng(5).standard_normal((mesh.num_cells, 2))
        r_cells = np.einsum("cla,ca,c->cl", kernel.Mgrads, flux, mesh.areas)
        ref = np.zeros(mesh.num_vertices)
        np.add.at(ref, mesh.cells, r_cells)
        assert np.array_equal(kernel.scatter(flux), ref)


# ---------------------------------------------------------------------------
# the column kernels against the einsum and broadcast formulas they replaced
# ---------------------------------------------------------------------------

def reference_cell_data(kernel, M, G):
    """Mgrads, MG, aG and K by einsum over the (nc, 3, 2) and (nc, 2, 2) axes."""
    mesh = kernel.mesh
    mgrads = np.einsum("cab,clb->cla", M, mesh.hat_gradients)
    mg = np.einsum("cab,cb->ca", M, np.zeros((mesh.num_cells, 2)) if G is None else G)
    blocks = np.einsum("cla,cma,c->clm", mgrads, mgrads, mesh.areas)
    rows = np.repeat(mesh.cells, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.cells, (1, 3)).reshape(-1)
    n = mesh.num_vertices
    K = sp.coo_matrix((blocks.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    return mgrads, mg, a_map(kernel.p, mg), K


def reference_q2_kappa(kernel, q, eps):
    q2 = (q * q).sum(axis=1) + eps * eps
    return q2, q2 ** ((kernel.p - 2.0) / 2.0)


def reference_energy(kernel, q, eps):
    q2, _ = reference_q2_kappa(kernel, q, eps)
    data = np.einsum("ca,ca->c", kernel.aG, q)
    return float(np.sum(kernel.mesh.areas * (q2 ** (kernel.p / 2.0) / kernel.p - data)))


def reference_scatter(kernel, flux):
    mg, area = kernel.Mgrads, kernel.mesh.areas[:, None]
    r_cells = (mg[..., 0] * flux[:, None, 0]) * area + (mg[..., 1] * flux[:, None, 1]) * area
    return np.bincount(kernel.mesh.cells.reshape(-1), r_cells.reshape(-1),
                       kernel.mesh.num_vertices)


def reference_free_block(kernel, blocks):
    """(nc, 3, 3) cell blocks summed by one bincount into every slot of K,
    and the free block gathered from them."""
    K, cells, n = kernel.K, kernel.mesh.cells, kernel.mesh.num_vertices
    keys = np.repeat(np.arange(n), np.diff(K.indptr)) * n + K.indices
    slot = np.searchsorted(keys, (cells[:, :, None] * n + cells[:, None, :]).reshape(-1))
    numbered = sp.csr_matrix((np.arange(1.0, K.nnz + 1), K.indices, K.indptr), shape=K.shape)
    block = numbered[kernel.free][:, kernel.free].tocsc()
    data = np.bincount(slot, blocks.reshape(-1), K.nnz)[block.data.astype(np.int64) - 1]
    return sp.csc_matrix((data, block.indices, block.indptr), shape=block.shape)


def reference_kacanov(kernel, kappa):
    """The kappa-weighted stiffness blocks kappa area (gx gx^T + gy gy^T) by
    broadcast, in K's pattern."""
    gx, gy = kernel.Mgrads[..., 0], kernel.Mgrads[..., 1]
    gram = gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
    return reference_free_block(kernel, (kappa * kernel.mesh.areas)[:, None, None] * gram)


def reference_hessian(kernel, q, q2, kappa):
    """The (nc, 3, 3) broadcast Hessian blocks in K's pattern."""
    gx, gy = kernel.Mgrads[..., 0], kernel.Mgrads[..., 1]
    gram = gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
    p, areas = kernel.p, kernel.mesh.areas
    kprime = (p - 2.0) * q2 ** ((p - 4.0) / 2.0)
    g = kernel.Mgrads[..., 0] * q[:, :1] + kernel.Mgrads[..., 1] * q[:, 1:]
    blocks = (kappa * areas)[:, None, None] * gram
    gg = g[:, :, None] * g[:, None, :]
    gg *= (kprime * areas)[:, None, None]
    blocks += gg
    return reference_free_block(kernel, blocks)


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class _DrawnWeight:
    """A weight whose values at the barycenters are given."""

    singular_points = ()

    def __init__(self, values):
        self.values = values

    def evaluate(self, points):
        return self.values


@st.composite
def drawn_kernels(draw):
    """A kernel on the 3 x 3 square mesh, given with every other cell
    clockwise, with drawn weight values, hat gradients, cell areas (down to
    1e-100, as on the level-3 sweep mesh), p and data G (or None), all from
    COORDS or all from MODERATE; returns the kernel, its weight values, G
    and the element strategy for further draws."""
    sq = unit_square_mesh(3)
    cells = sq.cells.copy()
    cells[::2] = cells[::2, ::-1]
    mesh = Mesh(sq.vertices, cells)
    nc = mesh.num_cells
    elements = draw(st.sampled_from([COORDS, MODERATE]))
    mesh.hat_gradients = draw(coord_arrays((nc, 3, 2), elements))
    areas = st.one_of(st.floats(1e-100, 1e-90), st.floats(1e-3, 10.0), elements)
    mesh.areas = draw(coord_arrays(nc, areas))
    M = draw(coord_arrays((nc, 2, 2), elements))
    G = draw(st.none() | coord_arrays((nc, 2), elements))
    p = draw(st.sampled_from([1.5, 2.0, 3.0]))
    prob = WeakProblem(_DrawnWeight(M), p, None if G is None else (lambda pts: G))
    with np.errstate(all="ignore"):
        return pde_solver._Kernel(prob, mesh), M, G, elements


KERNEL_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
EPS = st.one_of(st.sampled_from([0.0, 1e-8, 0.1]), st.floats(0.0, 10.0))


class TestColumnKernels:
    """Each column kernel of ``_Kernel`` gives the bits of the einsum or
    broadcast formula it replaced, over signed zeros, subnormal and +-1e300
    weights, hat gradients and nodal values, p in {1.5, 2, 3}, G = None and
    drawn G."""

    @KERNEL_SETTINGS
    @given(drawn=drawn_kernels())
    def test_cell_data_and_stiffness(self, drawn):
        kernel, M, G, _ = drawn
        with np.errstate(all="ignore"):
            mgrads, mg, ag, K = reference_cell_data(kernel, M, G)
            got = kernel.K
        for a, b in ((kernel.M, M), (kernel.Mgrads, mgrads), (kernel.MG, mg), (kernel.aG, ag),
                     (got.data, K.data), (got.indices, K.indices), (got.indptr, K.indptr)):
            assert_bits(a, b)

    @KERNEL_SETTINGS
    @given(drawn=drawn_kernels(), data=st.data(), eps=EPS)
    def test_q_energy_gradient_and_scatter(self, drawn, data, eps):
        kernel, M, _, elements = drawn
        mesh = kernel.mesh
        values = data.draw(coord_arrays(mesh.num_vertices, elements))
        q, flux = (data.draw(coord_arrays((mesh.num_cells, 2), elements)) for _ in range(2))
        with np.errstate(all="ignore"):
            grads = np.einsum("cld,cl->cd", mesh.hat_gradients, values[mesh.cells])
            assert_bits(kernel.q(values), np.einsum("cab,cb->ca", M, grads))
            for qq in (q, kernel.q(values)):
                assert_bits(kernel.energy(qq, eps), reference_energy(kernel, qq, eps))
            assert_bits(kernel.scatter(flux), reference_scatter(kernel, flux))
            q2, kappa = reference_q2_kappa(kernel, q, eps)
            want = (reference_scatter(kernel, kappa[:, None] * q - kernel.aG), q2, kappa)
            for a, b in zip(kernel.gradient(q, eps), want):
                assert_bits(a, b)

    @KERNEL_SETTINGS
    @given(drawn=drawn_kernels(), data=st.data(), eps=EPS)
    def test_hessian(self, drawn, data, eps):
        kernel, _, _, elements = drawn
        q = data.draw(coord_arrays((kernel.mesh.num_cells, 2), elements))
        with np.errstate(all="ignore"):
            q2, kappa = reference_q2_kappa(kernel, q, eps)
            got, want = kernel.hessian(q, q2, kappa), reference_hessian(kernel, q, q2, kappa)
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert_bits(a, b)

    @KERNEL_SETTINGS
    @given(drawn=drawn_kernels(), data=st.data(), eps=EPS)
    def test_kacanov_matrix(self, drawn, data, eps):
        """The Kacanov matrix is the kappa-weighted stiffness, entry for
        entry, and symmetric."""
        kernel, _, _, elements = drawn
        q = data.draw(coord_arrays((kernel.mesh.num_cells, 2), elements))
        with np.errstate(all="ignore"):
            q2, kappa = reference_q2_kappa(kernel, q, eps)
            got, want = kernel.hessian(q, q2, kappa, True), reference_kacanov(kernel, kappa)
            mirror = got.T.tocsc()
        mirror.sort_indices()
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr), (got.data, mirror.data),
                     (got.indices, mirror.indices), (got.indptr, mirror.indptr)):
            assert_bits(a, b)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(m=coord_arrays((2, 2)),
           x=coord_arrays(st.tuples(st.integers(1, 20), st.just(2))))
    def test_one_matrix_matvec(self, m, x):
        """The frozen-matrix product of ``comparison_check``."""
        with np.errstate(all="ignore"):
            assert_bits(pde_solver._matvec(m, x), np.einsum("ab,cb->ca", m, x))


class TestNewtonWork:
    def test_one_hessian_assembly_per_hessian_factor(self, monkeypatch):
        """A stage exit needs only the gradient, so every assembled Hessian
        is factored: on the level-1 sweep mesh, 10 steps over 8 stages."""
        orig_gbtrf, orig_hessian = pde_solver.sla.lapack.dgbtrf, pde_solver._Kernel.hessian
        calls = {"hessian": 0, "dgbtrf": 0}

        def dgbtrf(*args, **kwargs):
            calls["dgbtrf"] += 1
            return orig_gbtrf(*args, **kwargs)

        def hessian(self, *args):
            calls["hessian"] += 1
            return orig_hessian(self, *args)

        monkeypatch.setattr(pde_solver.sla.lapack, "dgbtrf", dgbtrf)
        monkeypatch.setattr(pde_solver._Kernel, "hessian", hessian)
        spec = SweepSpec(p=3, use_fem=True)
        ex = MeyersExample(spec.n, spec.eps_list[0], spec.variant)
        result = solve(WeakProblem(ex.weight_field(), spec.p, None, ex.u_with_origin),
                       spec.mesh_for(1))
        assert len(result.trace) - 1 == 10
        assert calls == {"hessian": 10, "dgbtrf": 10}

    def test_kacanov_start_on_the_fem_newton_pass(self, factorizations):
        """p = 3 on the default sweep meshes, levels 1-3: two Kacanov steps
        open each solve, then Newton; one Cholesky factor of K per solve and
        one banded LU factor per step."""
        spec = SweepSpec(p=3.0, use_fem=True)
        ex = MeyersExample(spec.n, spec.eps_list[0], spec.variant)
        steps = []
        for level in spec.levels:
            prob = WeakProblem(ex.weight_field(), spec.p, None, ex.u_with_origin)
            *rows, _ = solve(prob, spec.mesh_for(level)).trace
            assert [row["direction"] for row in rows] == (
                ["kacanov"] * 2 + ["newton"] * (len(rows) - 2))
            steps.append(len(rows))
        assert steps == [10, 11, 11]
        assert factorizations == {"cholesky_banded": 3, "dgbtrf": 32, "splu": 0, "spsolve": 0}

    def test_p4_converges_on_the_level_1_sweep_mesh(self):
        """p = 4 Hessians next to the singular origin are not positive
        definite in floating point; the pivoted banded LU factors each one,
        and the level-1 solve converges in 27 steps."""
        spec = SweepSpec(p=4.0, use_fem=True)
        ex = MeyersExample(spec.n, spec.eps_list[0], spec.variant)
        result = solve(WeakProblem(ex.weight_field(), spec.p, None, ex.u_with_origin),
                       spec.mesh_for(1))
        assert result.converged and len(result.trace) - 1 == 27

    @pytest.mark.parametrize("case", ["identity-p3", "meyers-p1.5"])
    def test_newton_only_without_singular_point_or_for_p_below_two(self, case):
        if case == "identity-p3":
            prob, mesh = TestNewtonStopping.p3_problem(), unit_square_mesh(8)
        else:
            ex = MeyersExample(2, 0.25, "plain")
            prob = WeakProblem(ex.weight_field(), 1.5, None, ex.u_with_origin)
            mesh = disk_mesh(angular=16, layers=12, grading=0.7)
        *rows, _ = solve(prob, mesh, SolverConfig(tolerance=1e-9)).trace
        assert rows and {row["direction"] for row in rows} == {"newton"}

    @pytest.mark.parametrize("cfg", [SolverConfig(tolerance=1e-9),
                                     SolverConfig(tolerance=1e-18, max_iterations=3)])
    def test_one_dual_residual_per_last_stage_test(self, monkeypatch, cfg):
        """The last stage measures the dual residual once before each of its
        steps and once for the iterate that passes; ``solve`` reports that
        value and measures again only when the steps run out."""
        orig = pde_solver._Kernel.dual_residual
        values = []

        def dual_residual(self, q, kf):
            res = orig(self, q, kf)
            values.append(res[0])
            return res

        monkeypatch.setattr(pde_solver._Kernel, "dual_residual", dual_residual)
        try:
            trace = solve(TestNewtonStopping.p3_problem(), unit_square_mesh(8), cfg).trace
        except NonconvergenceError as exc:
            trace = exc.trace
        *rows, final = trace
        last_steps = sum(row["eps"] == pde_solver._EPS_STAGES[-1] for row in rows)
        assert len(values) == last_steps + 1
        assert final["residual"] == values[-1]


class TestHessianFactorFailure:
    """An exactly singular Hessian factor raises NonconvergenceError with
    the trace of the steps taken so far."""

    def test_singular_factor_raises_with_trace(self, monkeypatch):
        orig = pde_solver.sla.lapack.dgbtrf
        bands = []

        def dgbtrf(ab, kl, ku, **kwargs):
            bands.append((kl, ku))
            lu, piv, info = orig(ab, kl, ku, **kwargs)
            # the first two Hessians factor; the third meets a zero pivot
            return lu, piv, 5 if len(bands) > 2 else info

        monkeypatch.setattr(pde_solver.sla.lapack, "dgbtrf", dgbtrf)
        prob, mesh = TestNewtonStopping.p3_problem(), unit_square_mesh(8)
        with pytest.raises(NonconvergenceError, match="singular Hessian: .*column 5") as err:
            solve(prob, mesh, SolverConfig(tolerance=1e-9))
        w = pde_solver._Kernel(prob, mesh).factor().w
        assert bands == [(w, w)] * 3
        assert [row["iteration"] for row in err.value.trace] == [1, 2]
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
