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
    bmo_and_ap,
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
    log_mean,
    omega_and_matrix_from_config,
)


def power(expo):
    return omega_and_matrix_from_config({"kind": "power", "exponent": expo})[0]


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

    def test_refined_is_the_next_dyadic_family(self, unit_ball):
        # each ball once: dyadic(L) is a prefix of dyadic(L + 1), at any cap
        fam = standard_family(unit_ball, 3)
        ref = fam.refined()
        assert (fam.count, ref.count) == (259, 1056)
        assert ref.balls == BallFamily.dyadic(unit_ball, 4).balls
        assert len(set(ref.balls)) == ref.count
        capped = BallFamily.dyadic(unit_ball, 2, max_per_level=4)
        assert capped.refined().balls == BallFamily.dyadic(unit_ball, 3, max_per_level=4).balls

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
        dense = BallFamily(fam.balls + BallFamily.dyadic(unit_ball, 6, max_per_level=64 ** 2).balls,
                           "dense", unit_ball)
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
        one = omega_and_matrix_from_config({"kind": "constant", "value": 1.0})[0]
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
        from degcz.seminorms import _rule_power_means

        om = power(0.5)
        for ball in standard_family(unit_ball, 2).balls[:25]:
            p = 2.0
            lm = log_mean(om, ball, quad)
            (means,) = _rule_power_means(om, (ball,), quad, (p, -p))
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
        w = omega_and_matrix_from_config({"kind": "power", "exponent": a, "n": n})[0]
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
        w = omega_and_matrix_from_config({"kind": "power", "exponent": a, "n": n})[0]
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
        one = omega_and_matrix_from_config({"kind": "constant", "value": 3.0})[0]
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
        lambda: omega_and_matrix_from_config({"kind": "log-normal", "n": 2, "seed": 7})[0],
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
        from degcz.weight_algebra import lambda_max_sym, weight_from_config

        m = weight_from_config(cfg)
        fam = standard_family(unit_ball, 2)
        (est_w, est_m), aps = bmo_and_ap(
            m.log(), (lambda_max_sym, lambda h: h), None, (), fam, quad)
        assert aps == []
        refs = (bmo(m.omega().log(), fam, quad), bmo(m.log(), fam, quad))
        for got, ref in zip((est_w, est_m), refs):
            assert got.rows == ref.rows
            assert (got.value, got.attaining_ball) == (ref.value, ref.attaining_ball)


def _ap_weights(kind):
    """The scalar weights of the one-pass A_p comparison, as configs."""
    if kind == "power":
        return [{"kind": "power", "exponent": round(0.05 * k, 2)} for k in range(-39, 40)]
    if kind == "power-radial":
        return [{"kind": "power-radial", "eps": eps} for eps in (0.1, 0.25, 0.5)]
    return [{"kind": "log-normal", "seed": seed} for seed in range(4)]


class TestBmoAndAp:
    """The A_p estimates of the BMO pass, whose coarse rule takes omega =
    exp(log omega), agree with muckenhoupt_ap, which evaluates omega on both
    rules: the coarse rule only feeds the stability guard."""

    @pytest.mark.parametrize("kind", ["power", "power-radial", "log-normal"])
    def test_ap_estimates_equal_muckenhoupt_ap(self, kind, unit_ball, quad):
        # |x|^a for a from -1.95 to 1.95 in steps of 0.05, power-radial at
        # three eps and log-normal at four seeds, at p = 2 and 3: 172
        # estimates, of which 79 are divergent, all of them power ones
        from degcz.weight_algebra import lambda_max_sym, omega_and_matrix_from_config

        fam = standard_family(unit_ball, 2)
        flags = []
        for cfg in _ap_weights(kind):
            omega, matrix = omega_and_matrix_from_config(cfg)
            log_f, views = ((matrix.log(), (lambda_max_sym, lambda h: h)) if matrix is not None
                            else (omega.log(), (lambda h: h,)))
            _, aps = bmo_and_ap(log_f, views, omega, [2.0, 3.0], fam, quad)
            for p, est in zip((2.0, 3.0), aps):
                assert est == muckenhoupt_ap(omega, p, fam, quad), (cfg, p)
                flags.append(est.divergent)
        assert sum(flags) == {"power": 79, "power-radial": 0, "log-normal": 0}[kind]

    def test_clipped_ball_takes_omega_on_its_unclipped_rule(self, unit_ball, quad):
        # the second ball crosses the domain, so the clip drops nodes of its
        # BMO node set; its coarse A_p means evaluate omega on the whole rule
        from dataclasses import replace

        omega = power(0.3)
        balls = (Ball((0.2, 0.1), 0.3), Ball((0.8, 0.0), 0.5))
        fam = BallFamily(balls, "manual", unit_ball)
        sing = omega.singular_points
        assert len(ball_nodes(balls[1], quad, unit_ball, sing)[1]) < math.prod(quad.resolution)
        seen = []
        orig = omega.fn

        def recording(pts):
            seen.append(np.array(pts))
            return orig(pts)

        omega = replace(omega, fn=recording)
        (est,), (ap,) = bmo_and_ap(omega.log(), (lambda v: v,), omega, [2.0], fam, quad)
        expected = [ball_nodes(balls[1], quad, singular=sing)[0]]
        expected += [ball_nodes(b, quad.refined(), singular=sing)[0] for b in balls]
        assert np.array_equal(np.concatenate(seen), np.concatenate(expected))
        assert est.rows == bmo(omega.log(), fam, quad).rows
        assert ap == muckenhoupt_ap(omega, 2.0, fam, quad)


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
        # p = 2 and 3 from the BMO pass: log omega is evaluated on each ball's
        # rule once, omega only on its 4x refinement, and each estimate
        # equals that of its own muckenhoupt_ap call
        omega = make()
        fam = standard_family(unit_ball, 2)
        singles = [muckenhoupt_ap(omega, p, fam, quad) for p in (2.0, 3.0)]
        sizes = {}
        orig = Field.evaluate

        def counting(self, points):
            sizes[self.label] = sizes.get(self.label, 0) + len(points)
            return orig(self, points)

        monkeypatch.setattr(Field, "evaluate", counting)
        log_omega = omega.log()
        (est,), both = bmo_and_ap(log_omega, (lambda v: v,), omega, [2.0, 3.0], fam, quad)
        coarse, fine = (math.prod(rule.resolution) for rule in (quad, quad.refined()))
        assert sizes == {log_omega.label: fam.count * coarse, omega.label: fam.count * fine}
        assert both == singles
        assert est.rows == bmo(log_omega, fam, quad).rows

    def test_analyze_weight_takes_every_ap_from_one_pass(self, tmp_path, monkeypatch):
        # on the 259-ball family, each ball's node sets are built twice, the
        # BMO pass's rule (which the coarse A_p means share) and its 4x
        # refinement, and the weight's omega_fn sees the refined node sets of
        # the family in family order and then only the domain ball's node
        # sets of the oscillation and power-mean rows
        from degcz import seminorms
        from degcz.cli import main
        from degcz.weight_algebra import DEFAULT_QUAD

        built, seen = [], []
        orig_nodes, orig_omega = seminorms.ball_nodes, MeyersExample.omega

        def recording_nodes(ball, *args, **kwargs):
            built.append(ball)
            return orig_nodes(ball, *args, **kwargs)

        def recording_omega(self, points):
            seen.append(np.array(points))
            return orig_omega(self, points)

        monkeypatch.setattr(seminorms, "ball_nodes", recording_nodes)
        monkeypatch.setattr(MeyersExample, "omega", recording_omega)
        cfg = tmp_path / "w.cfg"
        cfg.write_text('weight.kind = "power-radial"\nweight.eps = 0.25\n'
                       'family.levels = 3\nap.p_list = [2, 3]\n'
                       'oscillation.q_list = [2.0]\nsmall.s_list = [1.0, 2.0]\n')
        assert main(["analyze-weight", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        dom, origin = Ball((0.0, 0.0), 1.0), np.zeros((1, 2))
        fam = standard_family(dom, 3)
        assert fam.count == 259
        members = set(fam.balls)
        assert sum(b in members for b in built) == 2 * 259
        refined = [ball_nodes(b, DEFAULT_QUAD.refined(), singular=origin)[0] for b in fam.balls]
        seen = np.concatenate(seen)
        assert np.array_equal(seen[:259 * len(refined[0])], np.concatenate(refined))
        # prop_small_check: one rule; small_scalar_checks: the rule and its
        # refinement, per q and s
        coarse, fine = (math.prod(r.resolution) for r in (DEFAULT_QUAD, DEFAULT_QUAD.refined()))
        assert len(seen) == 259 * fine + 1 * coarse + 2 * (coarse + fine)

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
