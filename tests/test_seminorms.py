import math

import numpy as np
import pytest
from scipy import integrate

from degcz.exact_examples import MeyersExample
from degcz.seminorms import (
    OVERFLOW_GUARD,
    STABILITY_GUARD,
    BallFamily,
    bmo,
    muckenhoupt_ap,
    prop_small_check,
    small_scalar_checks,
    standard_family,
)
from degcz.weight_algebra import (
    Ball,
    Field,
    QuadratureSpec,
    ball_nodes,
    constant_weight,
    scalar_weight_from_config,
)


def power(expo):
    return scalar_weight_from_config({"kind": "power", "exponent": expo})


def log_abs_field():
    return Field(
        2, lambda pts: np.log(np.linalg.norm(pts, axis=-1)), "log|x|", ((0.0, 0.0),)
    )


class TestBallFamily:
    def test_dyadic_members_inside_domain(self, unit_ball):
        fam = BallFamily.dyadic(unit_ball, 3)
        for b in fam.balls:
            assert np.linalg.norm(b.center) <= 1.0 + 1e-12
            assert b.radius <= 1.0

    def test_outside_center_rejected(self, unit_ball):
        with pytest.raises(ValueError):
            BallFamily((Ball((2.0, 0.0), 0.1),), "manual", unit_ball)

    def test_refined_is_superset(self, unit_ball):
        fam = standard_family(unit_ball, 2)
        ref = fam.refined()
        assert ref.count > fam.count
        assert ref.balls[: fam.count] == fam.balls

    @pytest.mark.parametrize("make", [
        lambda dom: BallFamily.origin_ladder(dom, 2),
        lambda dom: standard_family(dom, 2),
        lambda dom: BallFamily.random(dom, 12, 0.05, 0.5, 4),
    ])
    def test_refined_rows_start_with_the_family_rows(self, make, unit_ball, quad):
        # analyze-weight reads the origin ladder's per-ball BMO values off the
        # first rows of its refinement
        fam = make(unit_ball)
        ref = fam.refined()
        assert ref.balls[: fam.count] == fam.balls
        field = MeyersExample(2, 0.25, "degenerate").weight_field()
        assert bmo(field, ref, quad).rows[: fam.count] == bmo(field, fam, quad).rows

    def test_origin_ladder_scales(self, unit_ball):
        fam = BallFamily.origin_ladder(unit_ball, 2, scale=1e-4, offsets=False)
        radii = sorted(b.radius for b in fam.balls)
        assert radii == pytest.approx([1e-8, 1e-4, 1.0])


class TestBmoScalar:
    def test_constant_field(self, unit_ball, quad):
        f = Field(2, lambda pts: np.full(len(pts), 7.0), "7")
        fam = standard_family(unit_ball, 2)
        assert bmo(f, fam, quad).value == 0.0

    def test_empty_family_rejected(self, unit_ball):
        with pytest.raises(ValueError):
            BallFamily((), "empty", unit_ball)

    def test_log_wiggle_against_brute_force(self, unit_ball, quad):
        # oracle: a 10x denser family can raise the sampled sup by at most 10%
        f = log_abs_field()
        fam = standard_family(unit_ball, 4)
        est = bmo(f, fam, quad)
        assert est.value > 0
        dense = fam.union(BallFamily.random(unit_ball, 10 * fam.count, 0.005, 1.0, 17))
        est_dense = bmo(f, dense, quad)
        assert est_dense.value <= 1.10 * est.value
        # the attaining ball is a member of the family
        assert est.attaining_ball in fam.balls

    def test_scale_invariance(self, unit_ball, quad):
        om = power(0.4)
        fam = standard_family(unit_ball, 3)
        base = bmo(om.log(), fam, quad).value
        for t in (1e-3, 1.0, 1e3):
            val = bmo(om.scaled(t).log(), fam, quad).value
            assert abs(val - base) <= 1e-12 * max(1.0, base)

    def test_monotone_in_family(self, unit_ball, quad):
        f = log_abs_field()
        fam = standard_family(unit_ball, 2)
        v1 = bmo(f, fam, quad).value
        v2 = bmo(f, fam.refined(), quad).value
        assert v2 >= v1


class TestBmoMatrix:
    def test_constant_matrix(self, unit_ball, quad, rng):
        from conftest import random_spd

        c = random_spd(rng, 1, 2, max_cond=10)[0]
        f = Field(2, lambda pts: np.broadcast_to(c, (len(pts), 2, 2)).copy(), "C")
        val = bmo(f, standard_family(unit_ball, 2), quad).value
        assert val <= 1e-14 * np.abs(c).max()

    def test_meyers_smallness(self, unit_ball, quad):
        ex = MeyersExample(2, 0.25, "plain")
        fam = standard_family(unit_ball, 3)
        val = bmo(ex.weight_field().log(), fam, quad).value
        assert 0 < val <= abs(math.log(ex.theta)) <= 2 * ex.eps
        assert val <= ex.eps

    def test_degenerate_log_smallness(self, unit_ball, quad):
        # the power-singular variant keeps log-BMO below 1.5 eps on the
        # standard family even though the weight itself is unbounded
        for eps in (0.1, 0.5):
            ex = MeyersExample(2, eps, "degenerate")
            fam = standard_family(unit_ball, 3)
            val = bmo(ex.weight_field().log(), fam, quad).value
            assert 0 < val <= 1.5 * eps

    def test_scalar_transfer_inequality(self, unit_ball, quad):
        # the scalar-log oscillation never exceeds twice the matrix-log one
        fam = standard_family(unit_ball, 3)
        cases = [
            MeyersExample(2, 0.25, "plain").weight_field(),
            MeyersExample(2, 0.5, "degenerate").weight_field(),
        ]
        from degcz.weight_algebra import weight_from_config

        cases.append(weight_from_config({"kind": "log-normal", "n": 2, "seed": 3}))
        for field in cases:
            m = bmo(field.log(), fam, quad).value
            s = bmo(field.omega().log(), fam, quad).value
            assert s <= 2.0 * m + 1e-9


class TestMuckenhoupt:
    def test_unit_weight(self, unit_ball, quad):
        one = scalar_weight_from_config({"kind": "constant", "value": 1.0})
        est = muckenhoupt_ap(one, 2.0, standard_family(unit_ball, 2), quad)
        assert not est.divergent
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_centered_ball_closed_form(self, unit_ball, quad):
        # oracle for omega = |x|^a, p = 2 on centered balls: 1 / sqrt(1 - a^2)
        a = 0.3
        fam = BallFamily(
            (Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 0.25)), "centered", unit_ball
        )
        est = muckenhoupt_ap(power(a), 2.0, fam, quad)
        assert not est.divergent
        assert est.value == pytest.approx(1.0 / math.sqrt(1 - a * a), rel=1e-2)

    def test_integrable_power_is_finite(self, unit_ball, quad):
        est = muckenhoupt_ap(power(0.3), 2.0, standard_family(unit_ball, 3), quad)
        assert not est.divergent
        # attained on a ball containing the origin
        c = np.asarray(est.witness_ball.center)
        assert np.linalg.norm(c) < est.witness_ball.radius

    def test_supercritical_power_diverges(self, unit_ball, quad):
        est = muckenhoupt_ap(power(1.2), 2.0, standard_family(unit_ball, 3), quad)
        assert est.divergent
        assert est.value is None

    def test_jensen_direction(self, unit_ball, quad):
        # per ball: the p-mean dominates the log-mean, the dual mean dominates
        # its reciprocal (discrete Jensen under shared nodes)
        from degcz.seminorms import _ball_power_means
        from degcz.weight_algebra import log_mean_scalar

        om = power(0.5)
        sing = np.array([[0.0, 0.0]])
        for ball in standard_family(unit_ball, 2).balls[:25]:
            p = 2.0
            lm = log_mean_scalar(om, ball, quad)
            pos, neg = (m ** (1 / p) for m in _ball_power_means(om, ball, quad, (p, -p), sing))
            assert pos >= lm - 1e-10
            assert neg >= 1.0 / lm - 1e-10

    def test_p_validation(self, unit_ball, quad):
        with pytest.raises(ValueError):
            muckenhoupt_ap(power(0.3), 1.0, standard_family(unit_ball, 2), quad)


class TestPropSmall:
    def test_constant_field_zero(self, unit_ball, quad):
        c = constant_weight(np.diag([2.0, 1.0]))
        rep = prop_small_check(c, unit_ball, 2.0, quad)
        assert rep.lhs <= 1e-12

    def test_small_power_stable_under_quadrature(self, unit_ball):
        om = power(0.05)
        reps = [
            prop_small_check(om, unit_ball, 2.0, QuadratureSpec("polar-midpoint", (64, 32)))
        ]
        reps.append(
            prop_small_check(om, unit_ball, 2.0, QuadratureSpec("polar-midpoint", (256, 64)))
        )
        assert reps[0].ratio == pytest.approx(reps[1].ratio, rel=0.2)
        assert all(np.isfinite(r.ratio) for r in reps)

    def test_calibrated_oscillation_constant(self, unit_ball, quad):
        from degcz.calibration import CALIBRATED

        ex = MeyersExample(2, 0.1, "plain")
        rep = prop_small_check(ex.weight_field(), unit_ball, 4.0, quad)
        assert rep.lhs <= CALIBRATED.c3_oscillation * rep.q * rep.bmo


class TestSmallScalar:
    def radial_mean_oracle(self, expo):
        # oracle: mean over the unit disk of |x|^expo = 2 / (2 + expo)
        val, _ = integrate.quad(lambda r: 2.0 * r ** (1.0 + expo), 0.0, 1.0)
        return val

    def test_constant_weight(self, unit_ball, quad):
        one = scalar_weight_from_config({"kind": "constant", "value": 3.0})
        rep = small_scalar_checks(one, unit_ball, 4.0, quad)
        assert rep.holds and rep.condition_met
        assert rep.mean_pos == pytest.approx(3.0, rel=1e-10)
        assert rep.mean_neg == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_small_power(self, unit_ball, quad):
        om = power(0.02)
        rep = small_scalar_checks(om, unit_ball, 4.0, quad)
        assert rep.condition_met and rep.holds and not rep.divergent
        oracle = self.radial_mean_oracle(0.02 * 4.0) ** 0.25
        assert rep.mean_pos == pytest.approx(oracle, rel=1e-3)

    def test_large_power_diverges(self, unit_ball, quad):
        # eps * s = 2.4 >= n: the negative power mean blows up
        om = power(0.6)
        rep = small_scalar_checks(om, unit_ball, 4.0, quad)
        assert rep.divergent
        assert not rep.holds

    def test_calibrated_gamma_scan(self, unit_ball, quad):
        # whenever the sampled log-BMO satisfies the calibrated smallness
        # threshold, the factor-2 bounds hold on the power family
        from degcz.calibration import CALIBRATED

        implications = 0
        for eps in (0.01, 0.05, 0.1, 0.2, 0.4):
            for s in (1.0, 2.0, 4.0):
                rep = small_scalar_checks(power(eps), unit_ball, s, quad)
                assert rep.gamma == CALIBRATED.gamma_small
                if rep.condition_met:
                    implications += 1
                    assert rep.holds, f"eps={eps}, s={s}"
        assert implications >= 5  # the scan actually exercises the implication


# ---------------------------------------------------------------------------
# shared node sets: the estimators reproduce one-exponent-per-pass arithmetic
# ---------------------------------------------------------------------------

def _single_mean(field, ball, quad, expo, sing):
    """One node set and one field evaluation per power mean (reference)."""
    pts, w = ball_nodes(ball, quad, singular=sing)
    vals = field.evaluate(pts)
    return float(np.sum(w * vals ** expo) / w.sum())


def _reference_ap(omega, p, e, fam, quad):
    """Per-ball (coarse, fine) A_p-type values from four separate passes."""
    sing = np.atleast_2d(np.asarray(omega.singular_points or ()).reshape(-1, fam.domain.dim))
    out = []
    for ball in fam.balls:
        pair = []
        for rule in (quad, quad.refined(4)):
            pos = _single_mean(omega, ball, rule, p, sing) ** (1.0 / p)
            neg = _single_mean(omega, ball, rule, -e, sing) ** (1.0 / e)
            pair.append((pos, neg))
        out.append(pair)
    return out


SHARED_WEIGHTS = [
    pytest.param(lambda: power(0.3), id="power-0.3"),
    pytest.param(lambda: power(1.2), id="power-1.2"),
    pytest.param(
        lambda: scalar_weight_from_config({"kind": "log-normal", "n": 2, "seed": 7}),
        id="log-normal",
    ),
]


class TestSharedNodeSets:
    @pytest.mark.parametrize("make", SHARED_WEIGHTS)
    def test_ap_equals_single_exponent_reference(self, make, unit_ball, quad):
        omega = make()
        fam = standard_family(unit_ball, 2)
        p, pc = 2.0, 2.0
        est = muckenhoupt_ap(omega, p, fam, quad)
        vals_f, divergent = [], False
        for (pos, neg), (pos_f, neg_f) in _reference_ap(omega, p, pc, fam, quad):
            val, val_f = pos * neg, pos_f * neg_f
            divergent |= val_f > OVERFLOW_GUARD or val_f > val * STABILITY_GUARD
            vals_f.append(val_f)
        assert [row[4] for row in est.rows] == vals_f
        assert est.divergent == divergent
        assert est.value == (None if divergent else max(vals_f))
        assert [row[:4] for row in est.rows] == [
            (i, b.center[0], b.center[1], b.radius) for i, b in enumerate(fam.balls)
        ]

    @pytest.mark.parametrize("make", SHARED_WEIGHTS)
    def test_checks_with_precomputed_bmo(self, make, unit_ball, quad):
        omega = make()
        bmo_log = bmo(omega.log(), standard_family(unit_ball, 3), quad).value
        for q in (2.0, 4.0):
            assert prop_small_check(omega, unit_ball, q, quad, bmo_log=bmo_log) == (
                prop_small_check(omega, unit_ball, q, quad)
            )
        for s in (1.0, 2.0, 4.0):
            assert small_scalar_checks(omega, unit_ball, s, quad, bmo_log=bmo_log) == (
                small_scalar_checks(omega, unit_ball, s, quad)
            )

    @pytest.mark.parametrize("make", SHARED_WEIGHTS)
    def test_poincare_condition_matches_custom_exponent(self, make, quad):
        from degcz.cz_harness import poincare_check
        from degcz.meshing import disk_mesh
        from degcz.pde_solver import interpolate

        omega = make()
        mesh = disk_mesh(angular=24, layers=12, grading=0.8)
        u = interpolate(mesh, lambda pts: pts[:, 0])
        ball, p, theta = Ball((0.0, 0.0), 0.4), 2.0, 0.75
        rep = poincare_check(u, omega, ball, p, theta, quad)
        tp = theta * p
        tpc = tp / (tp - 1.0)
        best, flagged = 0.0, False
        for (pos, neg), (pos_f, neg_f) in _reference_ap(
            omega, p, tpc, standard_family(ball.scaled(2.0), 2), quad
        ):
            val = pos_f * neg_f
            flagged |= val > OVERFLOW_GUARD or pos_f * neg_f > pos * neg * STABILITY_GUARD
            best = max(best, val)
        assert rep.condition_value == best
        assert rep.condition_flagged == flagged


class TestQuadratureWork:
    def test_ap_two_node_sets_per_ball(self, unit_ball, quad, monkeypatch):
        from degcz import seminorms

        calls = []
        orig = seminorms.ball_nodes

        def counting(*args, **kwargs):
            calls.append(args[0])
            return orig(*args, **kwargs)

        monkeypatch.setattr(seminorms, "ball_nodes", counting)
        fam = standard_family(unit_ball, 2)
        muckenhoupt_ap(power(0.3), 2.0, fam, quad)
        assert len(calls) == 2 * fam.count

    def test_analyze_weight_computes_log_bmo_once(self, tmp_path, monkeypatch):
        from degcz import seminorms
        from degcz.cli import main

        calls = []
        orig = seminorms.bmo

        def counting(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(seminorms, "bmo", counting)
        cfg = tmp_path / "w.cfg"
        cfg.write_text('weight.kind = "power-radial"\nweight.eps = 0.25\nfamily.levels = 2\n')
        assert main(["analyze-weight", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        # log omega and log M on the dyadic family, M on the refined origin
        # ladder (whose first rows are the ladder's own balls)
        assert [c[0].label for c in calls] == [
            "log(|degenerate-meyers(n=2, eps=0.25)|)",
            "log(degenerate-meyers(n=2, eps=0.25))",
            "degenerate-meyers(n=2, eps=0.25)",
        ]
        assert calls[2][1].strategy == "origin-ladder+origin-ladder"
