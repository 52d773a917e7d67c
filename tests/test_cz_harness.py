import hashlib
import math
import time

import numpy as np
import pytest

from degcz.cz_harness import (
    GeometryError,
    SweepSpec,
    build_localized,
    caccioppoli_check,
    comparison_check,
    cutoff_values,
    cz_ratio,
    fefferman_stein_constant,
    maximal,
    poincare_check,
    run_sweep,
    sharp_maximal,
)
from degcz.exact_examples import MeyersExample
from degcz.meshing import cells_in_ball, disk_mesh, unit_square_mesh
from degcz.pde_solver import (
    DiscreteField,
    WeakProblem,
    energy,
    interpolate,
    weighted_lp_norm,
)
from degcz.seminorms import standard_family
from degcz.weight_algebra import Ball, identity_weight, scalar_weight_from_config


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
        one = scalar_weight_from_config({"kind": "constant", "value": 1.0})
        rep = poincare_check(u, one, Ball((0.0, 0.0), 1.0), 2.0, 1.0)
        assert rep.lhs == pytest.approx(0.5, rel=2e-2)
        assert rep.rhs == pytest.approx(1.0, rel=1e-10)
        assert not rep.condition_flagged

    def test_constant_zero(self, square):
        one = scalar_weight_from_config({"kind": "constant", "value": 1.0})
        u = DiscreteField(square, np.full(square.num_vertices, 2.0))
        rep = poincare_check(u, one, Ball((0.5, 0.5), 0.25), 2.0, 1.0)
        assert rep.lhs == 0.0

    def test_theta_validation(self, square):
        one = scalar_weight_from_config({"kind": "constant", "value": 1.0})
        u = interpolate(square, lambda p: p[:, 0])
        with pytest.raises(ValueError):
            poincare_check(u, one, Ball((0.5, 0.5), 0.25), 2.0, 0.2)

    def test_degenerate_weight_finite(self, graded_disk):
        ex = MeyersExample(2, 0.1, "degenerate")
        u = interpolate(graded_disk, ex.u_with_origin)
        rep = poincare_check(u, ex.scalar_weight(), Ball((0.0, 0.0), 0.45), 2.0, 1.0)
        assert np.isfinite(rep.ratio) and rep.ratio > 0
        assert not rep.condition_flagged


class TestLocalized:
    def test_constant_gives_zero_triple(self, graded_disk):
        prob = WeakProblem(identity_weight(2), 2.0)
        u = DiscreteField(graded_disk, np.full(graded_disk.num_vertices, 5.0))
        tri = build_localized(u, prob, Ball((0.4, 0.0), 0.25))
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
        tri = build_localized(u, prob, b0)
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
        tri = build_localized(u, prob, Ball((0.4, 0.0), 0.25))
        frozen = WeakProblem(prob.weight, prob.p, frozen=tri.frozen_matrix)
        assert energy(frozen, tri.h) <= energy(frozen, tri.z) + 1e-8


class TestComparison:
    def test_zero_for_constant(self, graded_disk):
        prob = WeakProblem(identity_weight(2), 2.0)
        u = DiscreteField(graded_disk, np.zeros(graded_disk.num_vertices))
        tri = build_localized(u, prob, Ball((0.4, 0.0), 0.25))
        rep = comparison_check(tri, prob, 0.5)
        assert rep.lhs == 0.0

    def test_identity_weight_small_constant(self, graded_disk):
        # frozen and true operators coincide; the distance is controlled by
        # the delta terms alone with a modest empirical constant
        prob = WeakProblem(identity_weight(2), 2.0)
        u = interpolate(graded_disk, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
        tri = build_localized(u, prob, Ball((0.4, 0.0), 0.25))
        rep = comparison_check(tri, prob, 0.2)
        assert rep.bmo_log <= 1e-12
        assert rep.lhs <= rep.rhs_total

    def test_monotone_in_eps(self, graded_disk):
        values = []
        for eps in (0.1, 0.3):
            ex = MeyersExample(2, eps, "plain")
            prob = WeakProblem(ex.weight_field(), 2.0)
            u = interpolate(graded_disk, ex.u_with_origin)
            tri = build_localized(u, prob, Ball((0.4, 0.0), 0.25))
            rep = comparison_check(tri, prob, 0.2)
            values.append(rep.lhs)
            assert rep.lhs <= rep.rhs_total
        assert values[1] > values[0]

    def test_delta_validation(self, graded_disk):
        prob = WeakProblem(identity_weight(2), 2.0)
        u = DiscreteField(graded_disk, np.zeros(graded_disk.num_vertices))
        tri = build_localized(u, prob, Ball((0.4, 0.0), 0.25))
        with pytest.raises(ValueError):
            comparison_check(tri, prob, 1.5)


class TestMaximalOperators:
    def test_constant_field(self, square):
        fam = standard_family(Ball((0.5, 0.5), 0.5), 2)
        c = np.full(square.num_cells, 3.0)
        mx = maximal(square, c, 1.0, fam)
        sh = sharp_maximal(square, c, 1.0, fam)
        covered = mx > 0
        assert np.allclose(mx[covered], 3.0)
        assert np.abs(sh).max() <= 1e-12

    def test_indicator_decay(self, square):
        fam = standard_family(Ball((0.5, 0.5), 0.5), 3)
        f = cells_in_ball(square, (0.5, 0.5), 0.1).astype(float)
        mx = maximal(square, f, 1.0, fam)
        center_cell = int(np.argmin(np.linalg.norm(square.barycenters - [0.5, 0.5], axis=1)))
        far_cell = int(np.argmin(np.linalg.norm(square.barycenters - [0.85, 0.5], axis=1)))
        assert mx[center_cell] == pytest.approx(1.0, abs=0.05)
        assert mx[far_cell] < 0.5 * mx[center_cell]

    def test_sharp_below_twice_maximal(self, graded_disk):
        ex = MeyersExample(2, 0.25, "plain")
        u = interpolate(graded_disk, ex.u_with_origin)
        f = np.linalg.norm(u.cell_gradients(), axis=1)
        fam = standard_family(Ball((0.0, 0.0), 1.0), 3)
        mx = maximal(graded_disk, f, 1.0, fam)
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
        tri = build_localized(u, WeakProblem(weight, 2.0), Ball((0.1, 0.0), 0.4))
        for g in (None, data):
            key = f"{variant}/{'data' if g else 'none'}"
            prob = WeakProblem(weight, 2.0, g)
            for geometry in ("nonlinear", "linear"):
                rep = cz_ratio(u, prob, b0, 3.0, geometry)
                record(f"{key}/cz_ratio/{geometry}", rep, "lhs", "rhs", "ratio")
            rep = caccioppoli_check(u, prob, Ball((0.1, 0.1), 0.3))
            record(f"{key}/caccioppoli", rep, "lhs", "rhs", "ratio")
            record(f"{key}/comparison", comparison_check(tri, prob, 0.3), "lhs",
                   "oscillation_term", "u_term", "data_term", "bmo_log")
        rep = poincare_check(u, omega, Ball((0.0, 0.0), 0.45), 3.0, 1.0)
        record(f"{variant}/poincare", rep, "lhs", "rhs", "ratio", "condition_value",
               "condition_flagged")
        out[f"{variant}/weighted_lp_norm"] = repr(
            weighted_lp_norm(u, omega, 2.5, Ball((0.0, 0.1), 0.5))
        )
        f = np.linalg.norm(u.cell_gradients(), axis=1) * omega.evaluate(mesh.barycenters)
        out[f"{variant}/maximal"] = _digest(maximal(mesh, f, 2.0, fam))
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
    "plain/none/comparison.lhs": "0.1594168533483808",
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
    "plain/data/comparison.lhs": "0.1594168533483808",
    "plain/data/comparison.oscillation_term": "0.6820411128274344",
    "plain/data/comparison.u_term": "1.21401264350479",
    "plain/data/comparison.data_term": "0.642565319248118",
    "plain/data/comparison.bmo_log": "0.14384103622589045",
    "plain/poincare.lhs": "0.6755354326416274",
    "plain/poincare.rhs": "1.2892584002620073",
    "plain/poincare.ratio": "0.5239721009413961",
    "plain/poincare.condition_value": "1.0000000000000002",
    "plain/poincare.condition_flagged": "False",
    "plain/weighted_lp_norm": "1.2233627874751272",
    "plain/maximal": "3a0c5122f258c33f49c4149083f9a5aa743c72ca0775397854d4c0be68f4a1f3",
    "plain/sharp_maximal": "453328e510ebaa53349fba50dc5ed4bb93bfef0481cf36520178f4eb8289c6d1",
    "plain/fefferman_stein": "1.4459583885205523",
    "degenerate/none/cz_ratio/nonlinear.lhs": "1.9126612366076188",
    "degenerate/none/cz_ratio/nonlinear.rhs": "1.1351218479229979",
    "degenerate/none/cz_ratio/nonlinear.ratio": "1.684983193749052",
    "degenerate/none/cz_ratio/linear.lhs": "1.6380716538938083",
    "degenerate/none/cz_ratio/linear.rhs": "1.351702185282201",
    "degenerate/none/cz_ratio/linear.ratio": "1.2118584047060785",
    "degenerate/none/caccioppoli.lhs": "2.0567537840395107",
    "degenerate/none/caccioppoli.rhs": "1.4724801848223839",
    "degenerate/none/caccioppoli.ratio": "1.3967955597905748",
    "degenerate/none/comparison.lhs": "0.09972999927831253",
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
    "degenerate/data/caccioppoli.rhs": "2.5283276161234807",
    "degenerate/data/caccioppoli.ratio": "0.8134838898738118",
    "degenerate/data/comparison.lhs": "0.09972999927831253",
    "degenerate/data/comparison.oscillation_term": "0.7565506768474023",
    "degenerate/data/comparison.u_term": "1.2214770066890388",
    "degenerate/data/comparison.data_term": "1.0157823387991565",
    "degenerate/data/comparison.bmo_log": "0.1198135904069287",
    "degenerate/poincare.lhs": "0.6762457308115171",
    "degenerate/poincare.rhs": "1.364802369752501",
    "degenerate/poincare.ratio": "0.49548985684583063",
    "degenerate/poincare.condition_value": "1.0147766744012603",
    "degenerate/poincare.condition_flagged": "False",
    "degenerate/weighted_lp_norm": "1.297396484354125",
    "degenerate/maximal": "6351bfc9db2f2ca0e6b67525d82384a872858fd94a80650f62858bdd7586dcaa",
    "degenerate/sharp_maximal": "a723e91829668c3d240836974cd58bebdf0c895b2e308276acf69814f280ac10",
    "degenerate/fefferman_stein": "1.6813723614743232",
}


def test_mesh_side_outputs_are_pinned(graded_disk):
    """Refactors of the two-sided checks keep every bit: both Meyers
    variants, with and without a data field.  The pins hold for a
    single-threaded BLAS (``OMP_NUM_THREADS=1``, ``OPENBLAS_NUM_THREADS=1``)."""
    assert _pinned_outputs(graded_disk) == PINNED
