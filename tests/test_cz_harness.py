import hashlib
import math
import time

import numpy as np
import pytest

from conftest import discrete_energy
from degcz.cz_harness import (
    GeometryError,
    SweepSpec,
    build_localized,
    caccioppoli_check,
    comparison_check,
    cutoff_values,
    cz_ratio,
    cz_ratios,
    fefferman_stein_constant,
    poincare_check,
    poincare_condition,
    run_sweep,
    sharp_maximal,
)
from degcz.exact_examples import MeyersExample
from degcz.meshing import disk_mesh, region_mean, unit_square_mesh
from degcz.pde_solver import (
    DiscreteField,
    WeakProblem,
    interpolate,
)
from degcz.seminorms import bmo, standard_family
from degcz.weight_algebra import (
    MEAN_QUAD,
    Ball,
    constant_weight,
    identity_weight,
    log_mean,
    omega_and_matrix_from_config,
)


def localized(u, prob, b0):
    """``build_localized`` frozen at M_B, the log mean of the weight on (1/2) B0."""
    return build_localized(u, prob, b0, log_mean(prob.weight, b0.scaled(0.5), MEAN_QUAD))


def compare(tri, prob, delta):
    """``comparison_check`` at |log M|_BMO of the comparison ball on its
    three-level dyadic family."""
    fam = standard_family(tri.comparison_ball, 3)
    return comparison_check(tri, prob, delta, bmo(prob.weight.log(), fam).value)


@pytest.fixture(scope="module")
def square():
    return unit_square_mesh(48)


@pytest.fixture(scope="module")
def graded_disk():
    return disk_mesh(angular=40, layers=24, grading=0.75)


class TestCzRatio:
    def test_constant_solution_sentinel(self, square):
        prob = WeakProblem(identity_weight(2), 2.0)
        u = DiscreteField(square, np.full(square.num_vertices, 4.0))
        rep = cz_ratio(u, prob, Ball((0.5, 0.5), 0.1), 4.0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and math.isnan(rep.ratio)

    def test_unit_gradient_ratio_one(self, square):
        prob = WeakProblem(identity_weight(2), 2.0)
        u = interpolate(square, lambda p: p[:, 0])
        rep = cz_ratio(u, prob, Ball((0.5, 0.5), 0.1), 4.0)
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0)
        assert rep.ratio == pytest.approx(1.0)

    def test_linear_geometry(self, square):
        prob = WeakProblem(identity_weight(2), 2.0)
        u = interpolate(square, lambda p: p[:, 0])
        rep = cz_ratio(u, prob, Ball((0.5, 0.5), 0.2), 3.0, geometry="linear")
        assert rep.ratio == pytest.approx(1.0)

    def test_outer_ball_must_fit(self, square):
        prob = WeakProblem(identity_weight(2), 2.0)
        u = interpolate(square, lambda p: p[:, 0])
        with pytest.raises(GeometryError):
            cz_ratio(u, prob, Ball((0.5, 0.5), 0.2), 4.0)

    def test_scaling_invariance(self, graded_disk):
        # M -> t M, u -> u / t leaves both sides unchanged
        ex = MeyersExample(2, 0.25, "plain")
        t = 37.0
        u = interpolate(graded_disk, ex.u_with_origin)
        u_scaled = DiscreteField(graded_disk, u.values / t)
        prob = WeakProblem(ex.weight_field(), 2.0)
        prob_scaled = WeakProblem(ex.weight_field().scaled(t), 2.0)
        b0 = Ball((0.0, 0.0), 0.2)
        r1 = cz_ratio(u, prob, b0, 3.0)
        r2 = cz_ratio(u_scaled, prob_scaled, b0, 3.0)
        assert r2.lhs == pytest.approx(r1.lhs, rel=1e-10)
        assert r2.rhs == pytest.approx(r1.rhs, rel=1e-10)


def reference_cz_ratio(u, prob, b0, rho, geometry):
    """One rho at a time, with np.linalg.norm and a fresh ball mask per mean:
    the form ``cz_ratios`` replaced."""
    inner = b0.scaled(0.5) if geometry == "nonlinear" else b0
    outer = b0.scaled(4.0) if geometry == "nonlinear" else b0.scaled(2.0)
    mesh = u.mesh

    def mean(values, ball):
        return region_mean(mesh, values, ball.contains(mesh.barycenters))

    grad = np.linalg.norm(u.cell_gradients(), axis=1)
    w = prob.weight.omega().evaluate(mesh.barycenters)
    lhs = mean((grad * w) ** rho, inner) ** (1.0 / rho)
    rhs = mean(grad * w, outer)
    if prob.data is not None:
        g = np.linalg.norm(prob.data(mesh.barycenters), axis=1)
        rhs += mean((g * w) ** rho, outer) ** (1.0 / rho)
    return lhs, rhs


class TestCzRatios:
    @pytest.mark.parametrize("geometry", ["nonlinear", "linear"])
    @pytest.mark.parametrize("with_data", [False, True])
    def test_one_table_keeps_the_bits_of_one_rho_at_a_time(self, graded_disk, geometry,
                                                           with_data):
        ex = MeyersExample(2, 0.25, "degenerate")
        data = (lambda x: np.stack([np.cos(3.0 * x[:, 1]), x[:, 0] - 0.5], axis=1)
                ) if with_data else None
        prob = WeakProblem(ex.weight_field(), 2.0, data)
        u = interpolate(graded_disk, ex.u_with_origin)
        b0, rhos = Ball((0.05, 0.0), 0.2), (1.0, 2.0, 3.6, 5.0)
        reports = cz_ratios(u, prob, b0, rhos, geometry)
        assert [(r.lhs, r.rhs) for r in reports] == \
            [reference_cz_ratio(u, prob, b0, rho, geometry) for rho in rhos]
        assert cz_ratio(u, prob, b0, 3.6, geometry) == reports[2]

    def test_every_rho_checked_before_work(self, square):
        u = interpolate(square, lambda p: p[:, 0])
        prob = WeakProblem(identity_weight(2), 2.0)
        with pytest.raises(ValueError, match="rho"):
            cz_ratios(u, prob, Ball((0.5, 0.5), 0.1), (2.0, 0.5))


class TestCaccioppoli:
    def test_constant_zero(self, square):
        prob = WeakProblem(identity_weight(2), 2.0)
        u = DiscreteField(square, np.ones(square.num_vertices))
        rep = caccioppoli_check(u, prob, Ball((0.5, 0.5), 0.2))
        assert rep.lhs == 0.0

    def test_linear_on_square_oracle(self):
        # oracle: the mean of (x1 - 1/2)^2 over the inscribed disk of radius
        # 1/2 equals r^2/4, so lhs = rhs = 1 at r_B = 1/4
        mesh = unit_square_mesh(96)
        prob = WeakProblem(identity_weight(2), 2.0)
        u = interpolate(mesh, lambda p: p[:, 0])
        rep = caccioppoli_check(u, prob, Ball((0.5, 0.5), 0.25))
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, rel=0.03)
        assert rep.ratio == pytest.approx(1.0, rel=0.03)

    def test_example_stability_under_refinement(self, rng):
        ex = MeyersExample(2, 0.25, "plain")
        prob = WeakProblem(ex.weight_field(), 2.0)
        m0 = disk_mesh(angular=96, layers=48, grading=1.0)
        m1 = m0.refine()
        u0, u1 = interpolate(m0, ex.u_with_origin), interpolate(m1, ex.u_with_origin)
        for _ in range(20):
            while True:
                c = rng.uniform(-0.5, 0.5, 2)
                r = rng.uniform(0.1, 0.2)
                if np.linalg.norm(c) + 2 * r <= 1.0:
                    break
            ball = Ball(tuple(c), r)
            r0 = caccioppoli_check(u0, prob, ball).ratio
            r1 = caccioppoli_check(u1, prob, ball).ratio
            assert abs(r1 / r0 - 1.0) <= 0.25


class TestPoincare:
    def test_linear_on_disk_oracle(self):
        # oracle: mean of x1^2 over the unit disk is 1/4, so lhs = 1/2, rhs = 1
        mesh = disk_mesh(angular=64, layers=30, grading=0.85)
        u = interpolate(mesh, lambda p: p[:, 0])
        one = omega_and_matrix_from_config({"kind": "constant", "value": 1.0})[0]
        ball = Ball((0.0, 0.0), 1.0)
        rep = poincare_check(u, one, ball, 2.0, 1.0)
        assert rep.lhs == pytest.approx(0.5, rel=2e-2)
        assert rep.rhs == pytest.approx(1.0, rel=1e-10)
        # 2B exits the disk, so the condition is sampled on B itself
        assert not poincare_condition(one, ball, 2.0, 1.0)[1]

    def test_constant_zero(self, square):
        one = omega_and_matrix_from_config({"kind": "constant", "value": 1.0})[0]
        u = DiscreteField(square, np.full(square.num_vertices, 2.0))
        rep = poincare_check(u, one, Ball((0.5, 0.5), 0.25), 2.0, 1.0)
        assert rep.lhs == 0.0

    def test_theta_validation(self, square):
        one = omega_and_matrix_from_config({"kind": "constant", "value": 1.0})[0]
        u = interpolate(square, lambda p: p[:, 0])
        with pytest.raises(ValueError):
            poincare_check(u, one, Ball((0.5, 0.5), 0.25), 2.0, 0.2)

    def test_degenerate_weight_finite(self, graded_disk):
        ex = MeyersExample(2, 0.1, "degenerate")
        u = interpolate(graded_disk, ex.u_with_origin)
        ball = Ball((0.0, 0.0), 0.45)
        rep = poincare_check(u, ex.scalar_weight(), ball, 2.0, 1.0)
        assert np.isfinite(rep.ratio) and rep.ratio > 0
        assert not poincare_condition(ex.scalar_weight(), ball.scaled(2.0), 2.0, 1.0)[1]


class TestLocalized:
    def test_constant_gives_zero_triple(self, graded_disk):
        prob = WeakProblem(identity_weight(2), 2.0)
        u = DiscreteField(graded_disk, np.full(graded_disk.num_vertices, 5.0))
        tri = localized(u, prob, Ball((0.4, 0.0), 0.25))
        assert np.abs(tri.z.values).max() <= 1e-12
        assert np.abs(tri.g).max() <= 1e-12
        assert np.abs(tri.h.values).max() <= 1e-12

    def test_cutoff_profile(self):
        ball = Ball((0.0, 0.0), 1.0)
        pts = np.array([[0.0, 0.0], [0.4, 0.0], [0.5, 0.0], [0.75, 0.0], [1.0, 0.0], [2.0, 0.0]])
        z = cutoff_values(pts, ball)
        assert np.allclose(z[[0, 1, 2]], 1.0)
        assert z[4] == 0.0 and z[5] == 0.0
        assert 0.0 < z[3] < 1.0

    def test_gradient_identity_and_support(self, graded_disk):
        ex = MeyersExample(2, 0.25, "plain")
        prob = WeakProblem(ex.weight_field(), 2.0)
        u = interpolate(graded_disk, ex.u_with_origin)
        b0 = Ball((0.4, 0.0), 0.25)
        tri = localized(u, prob, b0)
        pc = prob.p / (prob.p - 1.0)
        zeta_c = cutoff_values(graded_disk.barycenters, b0)
        defect = (zeta_c ** pc)[:, None] * u.cell_gradients() - tri.z.cell_gradients() - tri.g
        assert np.abs(defect).max() <= 1e-10
        outside = ~(np.linalg.norm(graded_disk.vertices - np.array(b0.center), axis=1) < b0.radius)
        assert np.abs(tri.z.values[outside]).max() == 0.0
        # g vanishes on cells whose closure lies in the flat cutoff region
        vdist = np.linalg.norm(graded_disk.vertices - np.array(b0.center), axis=1)
        flat_cells = np.all(vdist[graded_disk.cells] <= 0.5 * b0.radius, axis=1)
        assert flat_cells.any()
        assert np.abs(tri.g[flat_cells]).max() <= 1e-12

    def test_frozen_minimality(self, graded_disk):
        ex = MeyersExample(2, 0.25, "plain")
        prob = WeakProblem(ex.weight_field(), 2.0)
        u = interpolate(graded_disk, ex.u_with_origin)
        tri = localized(u, prob, Ball((0.4, 0.0), 0.25))
        frozen = WeakProblem(constant_weight(tri.frozen_matrix), prob.p)
        assert discrete_energy(frozen, tri.h) <= discrete_energy(frozen, tri.z) + 1e-8


class TestComparison:
    def test_zero_for_constant(self, graded_disk):
        prob = WeakProblem(identity_weight(2), 2.0)
        u = DiscreteField(graded_disk, np.zeros(graded_disk.num_vertices))
        tri = localized(u, prob, Ball((0.4, 0.0), 0.25))
        rep = compare(tri, prob, 0.5)
        assert rep.lhs == 0.0

    def test_identity_weight_small_constant(self, graded_disk):
        # frozen and true operators coincide; the distance is controlled by
        # the delta terms alone with a modest empirical constant
        prob = WeakProblem(identity_weight(2), 2.0)
        u = interpolate(graded_disk, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
        tri = localized(u, prob, Ball((0.4, 0.0), 0.25))
        rep = compare(tri, prob, 0.2)
        assert rep.bmo_log <= 1e-12
        assert rep.lhs <= rep.oscillation_term + rep.u_term + rep.data_term

    def test_monotone_in_eps(self, graded_disk):
        values = []
        for eps in (0.1, 0.3):
            ex = MeyersExample(2, eps, "plain")
            prob = WeakProblem(ex.weight_field(), 2.0)
            u = interpolate(graded_disk, ex.u_with_origin)
            tri = localized(u, prob, Ball((0.4, 0.0), 0.25))
            rep = compare(tri, prob, 0.2)
            values.append(rep.lhs)
            assert rep.lhs <= rep.oscillation_term + rep.u_term + rep.data_term
        assert values[1] > values[0]

    def test_delta_validation(self, graded_disk):
        prob = WeakProblem(identity_weight(2), 2.0)
        u = DiscreteField(graded_disk, np.zeros(graded_disk.num_vertices))
        tri = localized(u, prob, Ball((0.4, 0.0), 0.25))
        with pytest.raises(ValueError):
            compare(tri, prob, 1.5)


def reference_maximal(mesh, f, fam):
    """Hardy-Littlewood maximal field over the family: per cell, the max of
    the mean of |f| over the family balls holding its barycenter."""
    out = np.zeros(mesh.num_cells)
    for ball in fam.balls:
        mask = ball.contains(mesh.barycenters)
        if mask.any():
            out[mask] = np.maximum(out[mask], region_mean(mesh, np.abs(f), mask))
    return out


class TestMaximalOperators:
    def test_constant_field(self, square):
        fam = standard_family(Ball((0.5, 0.5), 0.5), 2)
        c = np.full(square.num_cells, 3.0)
        sh = sharp_maximal(square, c, 1.0, fam)
        assert np.abs(sh).max() <= 1e-12

    def test_sharp_below_twice_maximal(self, graded_disk):
        ex = MeyersExample(2, 0.25, "plain")
        u = interpolate(graded_disk, ex.u_with_origin)
        f = np.linalg.norm(u.cell_gradients(), axis=1)
        fam = standard_family(Ball((0.0, 0.0), 1.0), 3)
        mx = reference_maximal(graded_disk, f, fam)
        sh = sharp_maximal(graded_disk, f, 1.0, fam)
        assert np.all(sh <= 2.0 * mx + 1e-12)

    def test_fefferman_stein_stable_in_q(self):
        ex = MeyersExample(2, 0.5, "plain")
        mesh = disk_mesh(angular=32, layers=16, grading=0.7)
        u = interpolate(mesh, ex.u_with_origin)
        f = np.linalg.norm(u.cell_gradients(), axis=1) * ex.omega(mesh.barycenters)
        f = np.minimum(f, np.quantile(f, 0.95))
        fam = standard_family(Ball((0.0, 0.0), 1.0), 4)
        consts = [fefferman_stein_constant(mesh, f, fam, q) for q in (4.0, 8.0, 16.0)]
        assert max(consts) / min(consts) <= 2.0


class TestSweep:
    def test_constant_weight_everywhere_bounded(self):
        spec = SweepSpec(
            eps_list=(0.1,), rho_list=(2.0, 4.0), levels=(1, 2, 3),
            base_layers=10, layers_per_level=20, angular=12,
        )
        rep = run_sweep(spec)
        # eps = 0.1: both exponents are far below the blow-up threshold n/eps
        assert all(cls == "bounded" for cls in rep.classifications.values())

    def test_sharpness_eps_half(self):
        spec = SweepSpec(eps_list=(0.5,), rho_list=(3.0, 5.0), levels=(1, 2, 3))
        rep = run_sweep(spec)
        assert rep.classifications[(0.5, 3.0)] == "bounded"
        assert rep.classifications[(0.5, 5.0)] == "diverging"
        assert rep.boundaries[0.5] == pytest.approx(4.0)
        # rows sorted deterministically and carry diagnostics
        assert all(row.lambda_cond == 2.0 for row in rep.rows)
        assert all(row.bmo_logM > 0 for row in rep.rows)

    def test_boundary_scales_inversely_with_eps(self):
        # detected thresholds at eps = 0.5 and 0.25 sit near n/eps, so their
        # ratio is close to 2
        rep_half = run_sweep(
            SweepSpec(eps_list=(0.5,), rho_list=(3.0, 3.6, 4.4, 5.0), levels=(1, 2, 3))
        )
        rep_quarter = run_sweep(
            SweepSpec(eps_list=(0.25,), rho_list=(7.2, 7.8, 8.8, 9.4), levels=(1, 2, 3))
        )
        b_half = rep_half.boundaries[0.5]
        b_quarter = rep_quarter.boundaries[0.25]
        assert b_half is not None and b_quarter is not None
        assert b_quarter / b_half == pytest.approx(2.0, rel=0.15)

    def test_rows_track_csv_schema(self):
        spec = SweepSpec(eps_list=(0.5,), rho_list=(3.0,), levels=(1, 2),
                         base_layers=10, layers_per_level=20, angular=12)
        rep = run_sweep(spec)
        row = rep.rows[0]
        assert row.CSV_COLUMNS[:6] == ("experiment_id", "variant", "n", "eps", "p", "rho")
        assert len(row.as_csv_values()) == len(row.CSV_COLUMNS)


    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_eps_starts_after_one_raises(self, threads, monkeypatch):
        # eps 0.1 raises at once; every other eps takes long enough that the
        # failure is known before one finishes.  One thread runs no other
        # eps; two may have eps 0.2 running beside it, but never start 0.3
        from degcz import cz_harness
        from degcz.pde_solver import NonconvergenceError

        started = []

        def stub(spec, eps):
            started.append(eps)
            if eps == 0.1:
                raise NonconvergenceError("stub failure", [])
            time.sleep(0.3)
            return cz_harness.CzReport()

        monkeypatch.setattr(cz_harness, "_sweep_eps", stub)
        with pytest.raises(NonconvergenceError, match="stub failure"):
            run_sweep(SweepSpec(eps_list=(0.1, 0.2, 0.3, 0.4)), threads)
        assert sorted(started) in ([[0.1]] if threads == 1 else [[0.1], [0.1, 0.2]])


class TestFemSweep:
    """run_sweep with use_fem = True solves on the graded sweep meshes, whose
    cell areas reach 1e-100 at level 3."""

    BUDGET_SECONDS = 30.0

    @pytest.fixture
    def solves(self, monkeypatch):
        from degcz import cz_harness

        results = []

        def recorded(*args, **kwargs):
            results.append(orig(*args, **kwargs))
            return results[-1]

        orig = cz_harness.solve
        monkeypatch.setattr(cz_harness, "solve", recorded)
        return results

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_converges_on_every_level(self, solves, p):
        spec = SweepSpec(p=p, use_fem=True)
        start = time.perf_counter()
        rep = run_sweep(spec)
        assert time.perf_counter() - start < self.BUDGET_SECONDS
        assert [row.level for row in rep.rows[:3]] == [1, 2, 3]
        assert len(solves) == 3 and all(s.converged for s in solves)
        assert all(math.isfinite(row.ratio) and row.ratio > 0 for row in rep.rows)
        if p == 3.0:
            newton_rows = [row for row in solves[-1].trace if "decrement" in row]
            assert len(newton_rows) <= 30
            assert not any(row["stalled"] for s in solves for row in s.trace[:-1])

    def test_unconverged_solve_raises(self, monkeypatch):
        # a p = 2 solve reports failure through SolveResult.converged; the
        # sweep must not classify with its field
        import dataclasses

        from degcz import cz_harness
        from degcz.pde_solver import NonconvergenceError

        orig = cz_harness.solve
        monkeypatch.setattr(
            cz_harness, "solve",
            lambda *a, **k: dataclasses.replace(orig(*a, **k), converged=False),
        )
        spec = SweepSpec(use_fem=True, rho_list=(3.0,), levels=(1,),
                         base_layers=10, layers_per_level=20, angular=12)
        with pytest.raises(NonconvergenceError) as err:
            run_sweep(spec)
        assert err.value.trace and "eps=0.5, level 1" in str(err.value)


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values).tobytes()).hexdigest()


def _pinned_outputs(mesh) -> dict[str, str]:
    """Every mesh-side check on one graded disk, scalars by ``repr`` and
    arrays by the sha256 of their bytes."""

    def data(x):
        return np.stack([np.cos(3.0 * x[:, 1]), 0.5 + x[:, 0] * x[:, 1]], axis=1)

    out = {}

    def record(key, rep, *names):
        out.update({f"{key}.{name}": repr(getattr(rep, name)) for name in names})

    fam = standard_family(Ball((0.0, 0.0), 1.0), 3)
    b0 = Ball((0.05, 0.0), 0.2)
    for variant in ("plain", "degenerate"):
        ex = MeyersExample(2, 0.25, variant)
        weight = ex.weight_field()
        omega = weight.omega()
        u = interpolate(mesh, ex.u_with_origin)
        tri = localized(u, WeakProblem(weight, 2.0), Ball((0.1, 0.0), 0.4))
        for g in (None, data):
            key = f"{variant}/{'data' if g else 'none'}"
            prob = WeakProblem(weight, 2.0, g)
            for geometry in ("nonlinear", "linear"):
                rep = cz_ratio(u, prob, b0, 3.0, geometry)
                record(f"{key}/cz_ratio/{geometry}", rep, "lhs", "rhs", "ratio")
            rep = caccioppoli_check(u, prob, Ball((0.1, 0.1), 0.3))
            record(f"{key}/caccioppoli", rep, "lhs", "rhs", "ratio")
            record(f"{key}/comparison", compare(tri, prob, 0.3), "lhs",
                   "oscillation_term", "u_term", "data_term", "bmo_log")
        ball = Ball((0.0, 0.0), 0.45)
        record(f"{variant}/poincare", poincare_check(u, omega, ball, 3.0, 1.0),
               "lhs", "rhs", "ratio")
        value, flagged = poincare_condition(omega, ball.scaled(2.0), 3.0, 1.0)
        out[f"{variant}/poincare.condition_value"] = repr(value)
        out[f"{variant}/poincare.condition_flagged"] = repr(flagged)
        f = np.linalg.norm(u.cell_gradients(), axis=1) * omega.evaluate(mesh.barycenters)
        out[f"{variant}/sharp_maximal"] = _digest(sharp_maximal(mesh, f, 1.5, fam))
        out[f"{variant}/fefferman_stein"] = repr(fefferman_stein_constant(mesh, f, fam, 4.0))
    return out


PINNED = {
    "plain/none/cz_ratio/nonlinear.lhs": "1.801044972798708",
    "plain/none/cz_ratio/nonlinear.rhs": "1.0605502978742496",
    "plain/none/cz_ratio/nonlinear.ratio": "1.6982174031808714",
    "plain/none/cz_ratio/linear.lhs": "1.5470881751880112",
    "plain/none/cz_ratio/linear.rhs": "1.2698824931347914",
    "plain/none/cz_ratio/linear.ratio": "1.2182923881160994",
    "plain/none/caccioppoli.lhs": "1.8194989510661848",
    "plain/none/caccioppoli.rhs": "1.446311846338267",
    "plain/none/caccioppoli.ratio": "1.258026722019005",
    "plain/none/comparison.lhs": "0.15941685334838016",
    "plain/none/comparison.oscillation_term": "0.6820411128274344",
    "plain/none/comparison.u_term": "1.21401264350479",
    "plain/none/comparison.data_term": "0.0",
    "plain/none/comparison.bmo_log": "0.14384103622589045",
    "plain/data/cz_ratio/nonlinear.lhs": "1.801044972798708",
    "plain/data/cz_ratio/nonlinear.rhs": "1.9302409434498828",
    "plain/data/cz_ratio/nonlinear.ratio": "0.9330674385031614",
    "plain/data/cz_ratio/linear.lhs": "1.5470881751880112",
    "plain/data/cz_ratio/linear.rhs": "2.256485561532034",
    "plain/data/cz_ratio/linear.ratio": "0.6856184686320884",
    "plain/data/caccioppoli.lhs": "1.8194989510661848",
    "plain/data/caccioppoli.rhs": "2.2423586485284965",
    "plain/data/caccioppoli.ratio": "0.8114219160526328",
    "plain/data/comparison.lhs": "0.15941685334838016",
    "plain/data/comparison.oscillation_term": "0.6820411128274344",
    "plain/data/comparison.u_term": "1.21401264350479",
    "plain/data/comparison.data_term": "0.642565319248118",
    "plain/data/comparison.bmo_log": "0.14384103622589045",
    "plain/poincare.lhs": "0.6755354326416274",
    "plain/poincare.rhs": "1.2892584002620073",
    "plain/poincare.ratio": "0.5239721009413961",
    "plain/poincare.condition_value": "1.0",
    "plain/poincare.condition_flagged": "False",
    "plain/sharp_maximal": "453328e510ebaa53349fba50dc5ed4bb93bfef0481cf36520178f4eb8289c6d1",
    "plain/fefferman_stein": "1.4459583885205523",
    "degenerate/none/cz_ratio/nonlinear.lhs": "1.9126612366076188",
    "degenerate/none/cz_ratio/nonlinear.rhs": "1.1351218479229979",
    "degenerate/none/cz_ratio/nonlinear.ratio": "1.684983193749052",
    "degenerate/none/cz_ratio/linear.lhs": "1.6380716538938083",
    "degenerate/none/cz_ratio/linear.rhs": "1.351702185282201",
    "degenerate/none/cz_ratio/linear.ratio": "1.2118584047060785",
    "degenerate/none/caccioppoli.lhs": "2.0567537840395107",
    "degenerate/none/caccioppoli.rhs": "1.4724801848223834",
    "degenerate/none/caccioppoli.ratio": "1.3967955597905752",
    "degenerate/none/comparison.lhs": "0.0997299992783132",
    "degenerate/none/comparison.oscillation_term": "0.7565506768474023",
    "degenerate/none/comparison.u_term": "1.2214770066890388",
    "degenerate/none/comparison.data_term": "0.0",
    "degenerate/none/comparison.bmo_log": "0.1198135904069287",
    "degenerate/data/cz_ratio/nonlinear.lhs": "1.9126612366076188",
    "degenerate/data/cz_ratio/nonlinear.rhs": "2.117126002392681",
    "degenerate/data/cz_ratio/nonlinear.ratio": "0.9034234308425737",
    "degenerate/data/cz_ratio/linear.lhs": "1.6380716538938083",
    "degenerate/data/cz_ratio/linear.rhs": "2.5544216909609636",
    "degenerate/data/cz_ratio/linear.ratio": "0.6412690824268612",
    "degenerate/data/caccioppoli.lhs": "2.0567537840395107",
    "degenerate/data/caccioppoli.rhs": "2.5283276161234802",
    "degenerate/data/caccioppoli.ratio": "0.8134838898738119",
    "degenerate/data/comparison.lhs": "0.0997299992783132",
    "degenerate/data/comparison.oscillation_term": "0.7565506768474023",
    "degenerate/data/comparison.u_term": "1.2214770066890388",
    "degenerate/data/comparison.data_term": "1.0157823387991567",
    "degenerate/data/comparison.bmo_log": "0.1198135904069287",
    "degenerate/poincare.lhs": "0.6762457308115171",
    "degenerate/poincare.rhs": "1.364802369752501",
    "degenerate/poincare.ratio": "0.49548985684583063",
    "degenerate/poincare.condition_value": "1.0147766744012603",
    "degenerate/poincare.condition_flagged": "False",
    "degenerate/sharp_maximal": "00a03d6e1ae8e3c09330a0e79bbe80388f3c71efa1a47f92e5fbc7c9fff0249f",
    "degenerate/fefferman_stein": "1.6813723614743232",
}


def test_mesh_side_outputs_are_pinned(graded_disk):
    """Refactors of the two-sided checks keep every bit: both Meyers
    variants, with and without a data field.  The pins hold for a
    single-threaded BLAS (``OMP_NUM_THREADS=1``, ``OPENBLAS_NUM_THREADS=1``)."""
    assert _pinned_outputs(graded_disk) == PINNED


#: the same outputs on a 110-cell graded disk, where every region holds only
#: a few cells, so a one-ulp change in a per-cell value or in the log mean
#: behind ``build_localized`` reaches the pinned digits
COARSE_PINNED = {
    "plain/none/cz_ratio/nonlinear.lhs": "1.5618073056129906",
    "plain/none/cz_ratio/nonlinear.rhs": "1.0724868261459592",
    "plain/none/cz_ratio/nonlinear.ratio": "1.4562484755411231",
    "plain/none/cz_ratio/linear.lhs": "1.4935917903328513",
    "plain/none/cz_ratio/linear.rhs": "1.2421997836855305",
    "plain/none/cz_ratio/linear.ratio": "1.2023764695091608",
    "plain/none/caccioppoli.lhs": "1.7641285503144128",
    "plain/none/caccioppoli.rhs": "1.3706262988778348",
    "plain/none/caccioppoli.ratio": "1.2870966738043388",
    "plain/none/comparison.lhs": "0.19200732140962642",
    "plain/none/comparison.oscillation_term": "0.4931750231670262",
    "plain/none/comparison.u_term": "1.1457912864265367",
    "plain/none/comparison.data_term": "0.0",
    "plain/none/comparison.bmo_log": "0.14384103622589045",
    "plain/data/cz_ratio/nonlinear.lhs": "1.5618073056129906",
    "plain/data/cz_ratio/nonlinear.rhs": "1.945406881615416",
    "plain/data/cz_ratio/nonlinear.ratio": "0.8028178168651824",
    "plain/data/cz_ratio/linear.lhs": "1.4935917903328513",
    "plain/data/cz_ratio/linear.rhs": "2.229013392952815",
    "plain/data/cz_ratio/linear.ratio": "0.6700685581589364",
    "plain/data/caccioppoli.lhs": "1.7641285503144128",
    "plain/data/caccioppoli.rhs": "2.144976461168775",
    "plain/data/caccioppoli.ratio": "0.8224465779699782",
    "plain/data/comparison.lhs": "0.19200732140962642",
    "plain/data/comparison.oscillation_term": "0.4931750231670262",
    "plain/data/comparison.u_term": "1.1457912864265367",
    "plain/data/comparison.data_term": "0.6279807659591158",
    "plain/data/comparison.bmo_log": "0.14384103622589045",
    "plain/poincare.lhs": "0.7226307744407892",
    "plain/poincare.rhs": "1.232340277108264",
    "plain/poincare.ratio": "0.5863889932547456",
    "plain/poincare.condition_value": "1.0",
    "plain/poincare.condition_flagged": "False",
    "plain/sharp_maximal": "fe034af7b533b4c676447a9e52376a326004e2001e2f046867cd4d1ebafbad15",
    "plain/fefferman_stein": "1.5320224852852244",
    "degenerate/none/cz_ratio/nonlinear.lhs": "1.6533434023432352",
    "degenerate/none/cz_ratio/nonlinear.rhs": "1.141345502493621",
    "degenerate/none/cz_ratio/nonlinear.ratio": "1.4485915077695553",
    "degenerate/none/cz_ratio/linear.lhs": "1.5810282105959292",
    "degenerate/none/cz_ratio/linear.rhs": "1.326922767585279",
    "degenerate/none/cz_ratio/linear.ratio": "1.1914997987961793",
    "degenerate/none/caccioppoli.lhs": "1.9931578162061288",
    "degenerate/none/caccioppoli.rhs": "1.403788460061584",
    "degenerate/none/caccioppoli.ratio": "1.4198420010652384",
    "degenerate/none/comparison.lhs": "0.17890302348806686",
    "degenerate/none/comparison.oscillation_term": "0.5474363318073149",
    "degenerate/none/comparison.u_term": "1.1837061140405276",
    "degenerate/none/comparison.data_term": "0.0",
    "degenerate/none/comparison.bmo_log": "0.1198135904069287",
    "degenerate/data/cz_ratio/nonlinear.lhs": "1.6533434023432352",
    "degenerate/data/cz_ratio/nonlinear.rhs": "2.126238743067873",
    "degenerate/data/cz_ratio/nonlinear.ratio": "0.7775906669623026",
    "degenerate/data/cz_ratio/linear.lhs": "1.5810282105959292",
    "degenerate/data/cz_ratio/linear.rhs": "2.5184961457739345",
    "degenerate/data/cz_ratio/linear.ratio": "0.6277667779039141",
    "degenerate/data/caccioppoli.lhs": "1.9931578162061288",
    "degenerate/data/caccioppoli.rhs": "2.4387823698275466",
    "degenerate/data/caccioppoli.ratio": "0.817275801590722",
    "degenerate/data/comparison.lhs": "0.17890302348806686",
    "degenerate/data/comparison.oscillation_term": "0.5474363318073149",
    "degenerate/data/comparison.u_term": "1.1837061140405276",
    "degenerate/data/comparison.data_term": "0.9781476750223067",
    "degenerate/data/comparison.bmo_log": "0.1198135904069287",
    "degenerate/poincare.lhs": "0.7277244142898973",
    "degenerate/poincare.rhs": "1.3075001488229312",
    "degenerate/poincare.ratio": "0.5565769265456885",
    "degenerate/poincare.condition_value": "1.0147766744012603",
    "degenerate/poincare.condition_flagged": "False",
    "degenerate/sharp_maximal": "0b7d30c69d39a864d738d20d93863dd5d0d34851dc0607269c53b6a65722f680",
    "degenerate/fefferman_stein": "1.839390853722627",
}


def test_coarse_mesh_side_outputs_are_pinned():
    assert _pinned_outputs(disk_mesh(angular=10, layers=6, grading=0.7)) == COARSE_PINNED
