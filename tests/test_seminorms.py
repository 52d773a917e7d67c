import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from degcz.exact_examples import MeyersExample
from degcz.seminorms import (
    OVERFLOW_GUARD,
    STABILITY_GUARD,
    BallFamily,
    bmo,
    muckenhoupt_ap,
    muckenhoupt_ap_list,
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
    log_mean,
    scalar_weight_from_config,
)


def power(expo):
    return scalar_weight_from_config({"kind": "power", "exponent": expo})


def bmo_log(field, ball, quad):
    """|log field|_BMO of the ball on its three-level dyadic family."""
    return bmo(field.log(), standard_family(ball, 3), quad).value


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

    def test_refined_rows_start_with_the_family_rows(self, unit_ball, quad):
        # a refinement keeps the family's balls first, so its first rows are
        # the family's own per-ball values
        fam = standard_family(unit_ball, 2)
        ref = fam.refined()
        assert ref.balls[: fam.count] == fam.balls
        field = MeyersExample(2, 0.25, "degenerate").weight_field()
        assert bmo(field, ref, quad).rows[: fam.count] == bmo(field, fam, quad).rows

    def test_refining_a_ladder_raises(self, unit_ball):
        # a deeper ladder is built directly (see the next test)
        with pytest.raises(ValueError):
            BallFamily.origin_ladder(unit_ball, 2).refined()

    def test_deeper_ladder_starts_with_the_shallow_one(self, unit_ball, quad):
        # analyze-weight reads the two-level ladder's per-ball BMO values off
        # the first rows of the three-level one
        shallow, deep = (BallFamily.origin_ladder(unit_ball, k) for k in (2, 3))
        assert deep.balls[: shallow.count] == shallow.balls
        field = MeyersExample(2, 0.25, "degenerate").weight_field()
        assert bmo(field, deep, quad).rows[: shallow.count] == bmo(field, shallow, quad).rows

    def test_origin_ladder_scales(self, unit_ball):
        # each radius is 1e-4 of the last, at the center and shifted four
        # ways by half the radius
        fam = BallFamily.origin_ladder(unit_ball, 2)
        assert sorted({b.radius for b in fam.balls}) == pytest.approx([1e-8, 1e-4, 1.0])
        assert fam.count == 3 * 5
        assert {b.center for b in fam.balls[5:10]} == {
            (0.0, 0.0), (5e-5, 0.0), (-5e-5, 0.0), (0.0, 5e-5), (0.0, -5e-5)}


class TestBmoScalar:
    def test_constant_field(self, unit_ball, quad):
        f = Field(2, lambda pts: np.full(len(pts), 7.0), "7")
        fam = standard_family(unit_ball, 2)
        assert bmo(f, fam, quad).value == 0.0

    def test_empty_family_rejected(self, unit_ball):
        with pytest.raises(ValueError):
            BallFamily((), "empty", unit_ball)

    def test_log_wiggle_against_brute_force(self, unit_ball, quad):
        # oracle: a 17x denser family can raise the sampled sup by at most 10%
        f = log_abs_field()
        fam = standard_family(unit_ball, 4)
        est = bmo(f, fam, quad)
        assert est.value > 0
        dense = fam.union(BallFamily.dyadic(unit_ball, 6, max_per_level=64 ** 2))
        assert dense.count >= 17 * fam.count
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
        from degcz.seminorms import _family_power_means

        om = power(0.5)
        for ball in standard_family(unit_ball, 2).balls[:25]:
            p = 2.0
            lm = log_mean(om, ball, quad)
            (means,), _ = _family_power_means(om, (ball,), quad, (p, -p))
            pos, neg = (m ** (1 / p) for m in means)
            assert pos >= lm - 1e-10
            assert neg >= 1.0 / lm - 1e-10

    def test_p_validation(self, unit_ball, quad):
        with pytest.raises(ValueError):
            muckenhoupt_ap(power(0.3), 1.0, standard_family(unit_ball, 2), quad)


def origin_ball_family(n, radius):
    """The one ball B(0, radius), as its own domain."""
    ball = Ball((0.0,) * n, radius)
    return BallFamily((ball,), "origin", ball)


class TestPowerWeightClosedForms:
    """On B(0, r) the estimators of |x|^a meet closed forms that do not
    depend on r."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from([2, 3]), log_r=st.floats(-6.0, 0.0),
           size=st.floats(1e-3, 3.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_bmo_of_log_power(self, n, log_r, size, sign):
        # the mean oscillation of a log|x| on B(0, r) is 2|a| / (n e)
        a = sign * size
        w = scalar_weight_from_config({"kind": "power", "exponent": a, "n": n})
        est = bmo(w.log(), origin_ball_family(n, 10.0 ** log_r))
        assert est.value == pytest.approx(2.0 * size / (n * math.e), rel=1e-3)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from([2, 3]), log_r=st.floats(-6.0, 0.0),
           p=st.floats(1.2, 6.0), t=st.floats(-0.5, 0.5))
    def test_ap_of_power(self, n, log_r, p, t):
        # |x|^a is in A_p for -n/p < a < n/p'; its constant on B(0, r) is
        # (n / (n + a p))^(1/p) (n / (n - a p'))^(1/p'); a spans the inner half
        pc = p / (p - 1.0)
        a = t * n / pc if t > 0 else t * n / p
        w = scalar_weight_from_config({"kind": "power", "exponent": a, "n": n})
        est = muckenhoupt_ap(w, p, origin_ball_family(n, 10.0 ** log_r))
        exact = (n / (n + a * p)) ** (1.0 / p) * (n / (n - a * pc)) ** (1.0 / pc)
        assert not est.divergent
        assert est.value == pytest.approx(exact, rel=2e-4)


class TestPropSmall:
    def test_constant_field_zero(self, unit_ball, quad):
        c = constant_weight(np.diag([2.0, 1.0]))
        rep = prop_small_check(c, unit_ball, 2.0, bmo_log(c, unit_ball, quad),
                               log_mean(c, unit_ball, quad), quad)
        assert rep.lhs <= 1e-12

    def test_small_power_stable_under_quadrature(self, unit_ball):
        om = power(0.05)
        reps = [
            prop_small_check(om, unit_ball, 2.0, bmo_log(om, unit_ball, rule),
                             log_mean(om, unit_ball, rule), rule)
            for rule in (QuadratureSpec((64, 32)),
                         QuadratureSpec((256, 64)))
        ]
        assert reps[0].ratio == pytest.approx(reps[1].ratio, rel=0.2)
        assert all(np.isfinite(r.ratio) for r in reps)

    def test_calibrated_oscillation_constant(self, unit_ball, quad):
        from degcz.calibration import CALIBRATED

        ex = MeyersExample(2, 0.1, "plain")
        w = ex.weight_field()
        rep = prop_small_check(w, unit_ball, 4.0, bmo_log(w, unit_ball, quad),
                               log_mean(w, unit_ball, quad), quad)
        assert rep.lhs <= CALIBRATED.c3_oscillation * rep.q * rep.bmo


class TestSmallScalar:
    def radial_mean_oracle(self, expo):
        # oracle: mean over the unit disk of |x|^expo = 2 / (2 + expo)
        val, _ = integrate.quad(lambda r: 2.0 * r ** (1.0 + expo), 0.0, 1.0)
        return val

    def test_constant_weight(self, unit_ball, quad):
        one = scalar_weight_from_config({"kind": "constant", "value": 3.0})
        rep = small_scalar_checks(one, unit_ball, 4.0, bmo_log(one, unit_ball, quad),
                                  log_mean(one, unit_ball, quad), quad)
        assert rep.holds and rep.condition_met
        assert rep.mean_pos == pytest.approx(3.0, rel=1e-10)
        assert rep.mean_neg == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_small_power(self, unit_ball, quad):
        om = power(0.02)
        rep = small_scalar_checks(om, unit_ball, 4.0, bmo_log(om, unit_ball, quad),
                                  log_mean(om, unit_ball, quad), quad)
        assert rep.condition_met and rep.holds and not rep.divergent
        oracle = self.radial_mean_oracle(0.02 * 4.0) ** 0.25
        assert rep.mean_pos == pytest.approx(oracle, rel=1e-3)

    def test_large_power_diverges(self, unit_ball, quad):
        # eps * s = 2.4 >= n: the negative power mean blows up
        om = power(0.6)
        rep = small_scalar_checks(om, unit_ball, 4.0, bmo_log(om, unit_ball, quad),
                                  log_mean(om, unit_ball, quad), quad)
        assert rep.divergent
        assert not rep.holds

    def test_calibrated_gamma_scan(self, unit_ball, quad):
        # whenever the sampled log-BMO satisfies the calibrated smallness
        # threshold, the factor-2 bounds hold on the power family
        from degcz.calibration import CALIBRATED

        implications = 0
        for eps in (0.01, 0.05, 0.1, 0.2, 0.4):
            om = power(eps)
            bmo_om = bmo_log(om, unit_ball, quad)
            lm_om = log_mean(om, unit_ball, quad)
            for s in (1.0, 2.0, 4.0):
                rep = small_scalar_checks(om, unit_ball, s, bmo_om, lm_om, quad)
                assert rep.condition_met == (bmo_om <= CALIBRATED.gamma_small / s)
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
        for rule in (quad, quad.refined()):
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
    def test_poincare_condition_matches_custom_exponent(self, make, quad):
        from degcz.cz_harness import poincare_condition

        omega = make()
        ball, p, theta = Ball((0.0, 0.0), 0.4), 2.0, 0.75
        got = poincare_condition(omega, ball.scaled(2.0), p, theta, quad)
        tp = theta * p
        tpc = tp / (tp - 1.0)
        best, flagged = 0.0, False
        for (pos, neg), (pos_f, neg_f) in _reference_ap(
            omega, p, tpc, standard_family(ball.scaled(2.0), 2), quad
        ):
            val = pos_f * neg_f
            flagged |= val > OVERFLOW_GUARD or pos_f * neg_f > pos * neg * STABILITY_GUARD
            best = max(best, val)
        assert got == (best, flagged)


class TestBmoViews:
    @pytest.mark.parametrize("cfg", [
        {"kind": "power-radial", "eps": 0.25},
        {"kind": "log-normal", "n": 2, "seed": 7},
        {"kind": "rank-one-radial", "eps": 0.25},
    ], ids=lambda c: c["kind"])
    def test_views_equal_separate_estimates(self, cfg, unit_ball, quad):
        from degcz.seminorms import bmo_views
        from degcz.weight_algebra import lambda_max_sym, weight_from_config

        m = weight_from_config(cfg)
        fam = standard_family(unit_ball, 2)
        est_w, est_m = bmo_views(m.log(), fam, quad, (lambda_max_sym, lambda h: h))
        refs = (bmo(m.omega().log(), fam, quad), bmo(m.log(), fam, quad))
        for got, ref in zip((est_w, est_m), refs):
            assert got.rows == ref.rows
            assert (got.value, got.attaining_ball) == (ref.value, ref.attaining_ball)


class TestMeanOscillation:
    def test_matches_the_tensordot_formula_bitwise(self, unit_ball, quad, rng):
        from conftest import random_spd
        from degcz.seminorms import _mean_oscillation
        from degcz.weight_algebra import spectral_norm_sym

        ball = Ball((0.6, 0.1), 0.5)
        for clip in (None, unit_ball):
            _, w = ball_nodes(ball, quad, clip)
            spd = random_spd(rng, len(w), 2)
            for vals in (rng.standard_normal(len(w)), np.log(rng.random(len(w))), spd,
                         spd - spd.mean(axis=0)):
                mean = np.tensordot(w, vals, axes=(0, 0)) / w.sum()
                dev = vals - mean
                osc = np.abs(dev) if dev.ndim == 1 else spectral_norm_sym(dev)
                assert _mean_oscillation(w, vals, ball) == float(np.sum(w * osc) / ball.volume)


class TestQuadratureWork:
    def test_ap_evaluates_two_node_sets_per_ball(self, unit_ball, quad):
        # every ball's rule and its 4x radial refinement, each node once; the
        # refined rule's node sets reach the field's fn in chunks of at most
        # BATCH_NODES points
        from dataclasses import replace

        from degcz.weight_algebra import BATCH_NODES

        sizes = []
        omega = power(0.3)

        def recording(pts):
            sizes.append(len(pts))
            return omega.fn(pts)

        fam = standard_family(unit_ball, 2)
        muckenhoupt_ap(replace(omega, fn=recording), 2.0, fam, quad)
        per_ball = [math.prod(rule.resolution) for rule in (quad, quad.refined())]
        assert sum(sizes) == fam.count * sum(per_ball)
        assert max(sizes) <= BATCH_NODES < per_ball[1]
        assert len(sizes) == fam.count * sum(-(-n // BATCH_NODES) for n in per_ball)

    @pytest.mark.parametrize("make", SHARED_WEIGHTS)
    def test_ap_list_evaluates_each_node_set_once(self, make, unit_ball, quad, monkeypatch):
        # p = 2 and 3 from one pass: the nodes of one muckenhoupt_ap call, and
        # each estimate equal, bit for bit, to that of its own call
        omega = make()
        fam = standard_family(unit_ball, 2)
        singles = [muckenhoupt_ap(omega, p, fam, quad) for p in (2.0, 3.0)]
        sizes = []
        orig = Field.evaluate

        def counting(self, points):
            sizes.append(len(points))
            return orig(self, points)

        monkeypatch.setattr(Field, "evaluate", counting)
        both = muckenhoupt_ap_list(omega, [2.0, 3.0], fam, quad)
        per_ball = [math.prod(rule.resolution) for rule in (quad, quad.refined())]
        assert sum(sizes) == fam.count * sum(per_ball)
        assert both == singles
        assert muckenhoupt_ap_list(omega, [], fam, quad) == []

    def test_analyze_weight_takes_every_ap_from_one_pass(self, tmp_path, monkeypatch):
        from degcz import seminorms
        from degcz.cli import main

        passes = []
        orig = seminorms._family_power_means

        def recording(field, balls, quad, expos):
            passes.append((len(balls), tuple(expos)))
            return orig(field, balls, quad, expos)

        monkeypatch.setattr(seminorms, "_family_power_means", recording)
        cfg = tmp_path / "w.cfg"
        cfg.write_text('weight.kind = "power-radial"\nweight.eps = 0.25\n'
                       'family.levels = 2\nap.p_list = [2, 3]\n')
        assert main(["analyze-weight", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        count = standard_family(Ball((0.0, 0.0), 1.0), 2).count
        assert [expos for n, expos in passes if n == count] == [(2.0, -2.0, 3.0, -1.5)]

    def test_analyze_weight_evaluates_log_m_once_per_node(self, tmp_path, monkeypatch):
        # log omega = lambda_max(log M) and log M share one evaluation on the
        # dyadic family; the only other log_weight evaluation is the log mean
        # omega_B on the domain ball, which every oscillation and power-mean
        # row shares.  Field.evaluate takes at most BATCH_NODES points a call
        from degcz.cli import main
        from degcz.weight_algebra import BATCH_NODES, DEFAULT_QUAD

        calls = []
        orig = MeyersExample.log_weight

        def recording(self, points):
            calls.append(np.array(points))
            return orig(self, points)

        monkeypatch.setattr(MeyersExample, "log_weight", recording)
        cfg = tmp_path / "w.cfg"
        cfg.write_text('weight.kind = "power-radial"\nweight.eps = 0.25\nfamily.levels = 2\n')
        assert main(["analyze-weight", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        dom, origin = Ball((0.0, 0.0), 1.0), np.zeros((1, 2))
        dom_nodes, _ = ball_nodes(dom, DEFAULT_QUAD, singular=origin)
        expected = [
            ball_nodes(b, DEFAULT_QUAD, clip=dom, singular=origin)[0]
            for b in standard_family(dom, 2).balls
        ]
        assert np.array_equal(np.concatenate(calls), np.concatenate(expected + [dom_nodes]))
        assert max(len(p) for p in calls) <= BATCH_NODES
