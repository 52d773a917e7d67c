import math

import numpy as np
import pytest
from scipy import integrate

from degcz import pde_solver
from degcz.exact_examples import MeyersExample
from degcz.meshing import disk_mesh, unit_square_mesh
from degcz.pde_solver import (
    DiscreteField,
    NonconvergenceError,
    SolverConfig,
    WeakProblem,
    energy,
    interpolate,
    solve,
    weak_residual,
    weighted_h1_error,
    weighted_lp_norm,
)
from degcz.weight_algebra import Ball, identity_weight, scalar_weight_from_config


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
        assert energy(prob, DiscreteField(mesh, np.zeros(mesh.num_vertices))) == 0.0

    def test_linear_field_unit_square(self):
        mesh = unit_square_mesh(8)
        prob = WeakProblem(identity_weight(2), 2.0)
        u = interpolate(mesh, lambda p: p[:, 0])
        assert energy(prob, u) == pytest.approx(0.5, abs=1e-14)

    def test_example_energy_converges_to_oracle(self):
        ex = MeyersExample(2, 0.25, "plain")
        oracle = dirichlet_energy_oracle(ex)
        prob = WeakProblem(ex.weight_field(), 2.0)
        errs = []
        for angular, layers in ((16, 14), (32, 20), (64, 26)):
            mesh = disk_mesh(angular=angular, layers=layers, grading=0.7)
            u = interpolate(mesh, ex.u_with_origin)
            errs.append(abs(energy(prob, u) - oracle))
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
        mesh = unit_square_mesh(8)
        prob = WeakProblem(
            identity_weight(2), 4.0, None, lambda p: p[:, 0] ** 3
        )
        cfg = SolverConfig(max_backtracks=0)
        with pytest.raises(NonconvergenceError) as err:
            solve(prob, mesh, cfg)
        assert isinstance(err.value.trace, list)

    def test_frozen_problem_constant_weight(self):
        # frozen matrix replaces the variable weight entirely
        ex = MeyersExample(2, 0.25, "plain")
        mesh = disk_mesh(angular=16, layers=10, grading=0.7)
        frozen = np.diag([2.0, 1.0])
        prob = WeakProblem(ex.weight_field(), 2.0, None, lambda p: p[:, 0], frozen=frozen)
        result = solve(prob, mesh)
        got = prob.weight_at(mesh.barycenters[:5])
        assert np.allclose(got, frozen)
        assert result.residual <= 1e-10


class TestNewtonStopping:
    FINAL_ROW_KEYS = {"iteration", "eps", "energy", "residual", "step"}

    @pytest.mark.parametrize("cfg, stages", [
        (SolverConfig(), 8),
        (SolverConfig(eps_start=1.0, eps_end=1e-3, eps_factor=0.3), 7),
        (SolverConfig(eps_start=1e-9), 1),
    ])
    def test_eps_schedule_ends_once_at_eps_end(self, cfg, stages):
        sched = pde_solver._eps_schedule(cfg)
        assert len(sched) == stages
        assert sched[-1] == cfg.eps_end
        assert all(e > cfg.eps_end * 1.5 for e in sched[:-1])
        assert sched[0] == max(cfg.eps_start, cfg.eps_end)

    @staticmethod
    def p3_problem():
        return WeakProblem(identity_weight(2), 3.0, None, lambda p: p[:, 0] ** 3)

    def test_trace_rows_carry_decrement_and_stall_flag(self):
        cfg = SolverConfig(tolerance=1e-9)
        result = solve(self.p3_problem(), unit_square_mesh(8), cfg)
        *rows, final = result.trace
        assert rows and set(final) == self.FINAL_ROW_KEYS
        for row in rows:
            assert set(row) == self.FINAL_ROW_KEYS | {"decrement", "stalled"}
            assert row["stalled"] is False
            assert math.isfinite(row["decrement"]) and row["decrement"] > 0
        assert {row["eps"] for row in rows} <= set(pde_solver._eps_schedule(cfg))

    def test_exhausted_stage_marked_stalled_and_raises(self):
        # a tolerance below round-off cannot be met: every stage's last step
        # is marked, and the last stage's stall still raises
        cfg = SolverConfig(tolerance=1e-18, max_iterations=3)
        with pytest.raises(NonconvergenceError) as err:
            solve(self.p3_problem(), unit_square_mesh(8), cfg)
        *rows, final = err.value.trace
        last_stage = [row for row in rows if row["eps"] == cfg.eps_end]
        assert len(last_stage) == 3
        assert [row["stalled"] for row in last_stage] == [False, False, True]
        assert final["residual"] > cfg.tolerance


@pytest.fixture
def factorizations(monkeypatch):
    """Counts of the sparse factorizations the solver runs through scipy."""
    calls = {"splu": 0, "spsolve": 0}
    for name in calls:
        def counted(*args, _orig=getattr(pde_solver.spla, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(pde_solver.spla, name, counted)
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
        assert factorizations == {"splu": 1, "spsolve": 0}
        assert result.converged
        assert result.residual == weak_residual(prob, result.field, fixed_mask)[0]
        assert result.trace[0]["energy"] == energy(prob, result.field)

    def test_no_free_vertex(self, factorizations):
        prob = self.PROBLEMS["data-and-dirichlet"]()
        mesh = disk_mesh(angular=12, layers=6, grading=0.7)
        fixed_mask = np.ones(mesh.num_vertices, dtype=bool)
        result = solve(prob, mesh, fixed_mask=fixed_mask)
        assert sum(factorizations.values()) == 0
        assert result.converged and result.residual == 0.0
        assert np.array_equal(result.field.values, prob.dirichlet(mesh.vertices))
        assert result.trace[0]["energy"] == energy(prob, result.field)

    def test_newton_factorizations(self, factorizations):
        mesh = unit_square_mesh(8)
        prob = WeakProblem(identity_weight(2), 3.0, None, lambda p: p[:, 0] ** 2 - p[:, 1])
        result = solve(prob, mesh, SolverConfig(tolerance=1e-9))
        # K for the warm start and for the final residual, one Hessian per step
        steps = len(result.trace) - 1
        assert factorizations == {"splu": 2, "spsolve": steps}
        assert result.residual == weak_residual(prob, result.field)[0]
        assert result.trace[-1]["energy"] == energy(prob, result.field)


class TestWeightedLpNorm:
    def test_unit_gradient(self):
        mesh = unit_square_mesh(24)
        u = interpolate(mesh, lambda p: p[:, 0])
        one = scalar_weight_from_config({"kind": "constant", "value": 1.0})
        for rho in (1.5, 2.0, 4.0):
            assert weighted_lp_norm(u, one, rho, Ball((0.5, 0.5), 0.3)) == pytest.approx(1.0)

    def test_degenerate_example_dichotomy(self):
        # radial oracle: (|grad u| omega)^rho ~ r^-(rho eps); the mean over a
        # centered ball converges iff rho eps < n
        ex = MeyersExample(2, 0.5, "degenerate")
        om = ex.scalar_weight()
        ball = Ball((0.0, 0.0), 0.4)
        values = {3.0: [], 5.0: []}
        for layers in (60, 140, 220):
            mesh = disk_mesh(angular=16, layers=layers, grading=0.7)
            u = interpolate(mesh, ex.u_with_origin)
            for rho in values:
                values[rho].append(weighted_lp_norm(u, om, rho, ball))
        stable = values[3.0]
        assert abs(stable[2] / stable[1] - 1.0) <= 0.02
        growing = values[5.0]
        assert growing[1] >= 2.0 * growing[0] and growing[2] >= 2.0 * growing[1]
