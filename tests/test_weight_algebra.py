import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from conftest import random_spd
from degcz.weight_algebra import (
    Ball,
    NotPositiveDefiniteError,
    NotSymmetricError,
    QuadratureSpec,
    ball_nodes,
    condition_number,
    constant_weight,
    identity_weight,
    log_mean_matrix,
    log_mean_scalar,
    sandwich_check,
    scalar_weight_from_config,
    spd_exp,
    spd_log,
    spectral_norm_sym,
    sym_exp_batched,
    sym_log_batched,
    weight_from_config,
    _sym_eigvals,
)

MEAN_QUAD = QuadratureSpec("polar-midpoint", (512, 32))


class TestSpdFunctions:
    def test_exp_zero_is_identity(self):
        assert np.allclose(spd_exp(np.zeros((2, 2))), np.eye(2))

    def test_exp_diagonal(self):
        assert np.allclose(spd_exp(np.diag([1.0, 2.0])), np.diag([math.e, math.e ** 2]))

    def test_exp_rank_one(self):
        # exp(log(1+a) xhat (x) xhat) = I + a xhat (x) xhat
        a = 3.0
        h = math.log(1.0 + a) * np.outer([1.0, 0.0], [1.0, 0.0])
        assert np.allclose(spd_exp(h), np.eye(2) + a * np.outer([1, 0], [1, 0]))

    def test_log_identity(self):
        assert np.allclose(spd_log(np.eye(2)), np.zeros((2, 2)))

    def test_log_rank_one(self):
        m = np.eye(2) + 3.0 * np.outer([1.0, 0.0], [1.0, 0.0])
        assert np.allclose(spd_log(m), np.diag([math.log(4.0), 0.0]))

    def test_log_diagonal(self):
        assert np.allclose(spd_log(np.diag([math.e ** 2, 1.0])), np.diag([2.0, 0.0]))

    def test_log_of_inverse_is_negated(self, rng):
        m = random_spd(rng, 1, 3)[0]
        assert np.allclose(spd_log(np.linalg.inv(m)), -spd_log(m), atol=1e-10)

    def test_round_trip_property(self, rng):
        # 1e4 random SPD matrices with condition number <= 1e6
        for n in (2, 3):
            m = random_spd(rng, 5000, n)
            back = sym_exp_batched(sym_log_batched(m))
            rel = spectral_norm_sym(back - m) / spectral_norm_sym(m)
            assert rel.max() <= 1e-9

    def test_rank_one_log_formula_property(self, rng):
        # log(I + a xhat (x) xhat) = log(1+a) xhat (x) xhat for random a > -1
        for _ in range(200):
            a = math.exp(rng.uniform(-4, 4)) - 0.999
            v = rng.standard_normal(2)
            v /= np.linalg.norm(v)
            m = np.eye(2) + a * np.outer(v, v)
            expected = math.log1p(a) * np.outer(v, v)
            assert np.abs(spd_log(m) - expected).max() <= 1e-12 * max(1.0, abs(math.log1p(a)))

    def test_rejects_non_symmetric(self):
        with pytest.raises(NotSymmetricError):
            spd_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_spd_log(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_log(np.diag([1.0, -2.0]))

    def test_condition_number(self):
        assert condition_number(np.eye(2)) == pytest.approx(1.0)
        theta = 0.5
        m = theta * np.eye(2) + (1 - theta) * np.outer([1, 0], [1, 0])
        assert condition_number(m) == pytest.approx(2.0)
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)


class TestBallQuadrature:
    def test_ball_validation(self):
        with pytest.raises(ValueError):
            Ball((0.0, 0.0), -1.0)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec("polar-midpoint", (2, 2))

    def test_monte_carlo_needs_seed(self):
        with pytest.raises(ValueError):
            QuadratureSpec("monte-carlo", 100)

    def test_polar_weights_sum_to_area(self, unit_ball):
        _, w = ball_nodes(unit_ball, QuadratureSpec("polar-midpoint", (32, 16)))
        assert w.sum() == pytest.approx(math.pi, rel=1e-12)

    def test_polar_avoids_center(self, unit_ball):
        pts, _ = ball_nodes(
            unit_ball,
            QuadratureSpec("polar-midpoint", (32, 16)),
            singular=np.array([[0.0, 0.0]]),
        )
        assert np.linalg.norm(pts, axis=1).min() > 0

    def test_monte_carlo_integrates(self, unit_ball):
        pts, w = ball_nodes(unit_ball, QuadratureSpec("monte-carlo", 200_000, seed=4))
        est = np.sum(w * pts[:, 0] ** 2) / w.sum()
        assert est == pytest.approx(0.25, abs=5e-3)

    def test_clip_drops_outside_nodes(self, unit_ball):
        ball = Ball((0.9, 0.0), 0.5)
        pts, w = ball_nodes(ball, QuadratureSpec("polar-midpoint", (32, 16)), clip=unit_ball)
        assert np.all(np.linalg.norm(pts, axis=1) < 1.0)
        assert w.sum() < ball.volume


class TestLogMeans:
    def test_constant_scalar(self, unit_ball):
        om = scalar_weight_from_config({"kind": "constant", "value": 2.5})
        assert log_mean_scalar(om, unit_ball) == pytest.approx(2.5, rel=1e-12)

    def test_power_weight_closed_form(self):
        # oracle: mean of log|x| over B_r(0) in 2d equals log r - 1/2, checked
        # against independent 1-d quadrature of the radial integrand
        eps = 0.3
        om = scalar_weight_from_config({"kind": "power", "exponent": eps})
        for r in (1.0, 0.37):
            oracle, _ = integrate.quad(lambda s: math.log(s) * 2.0 * s / r ** 2, 0.0, r)
            expected = math.exp(eps * oracle)
            assert expected == pytest.approx(r ** eps * math.exp(-eps / 2.0), rel=1e-12)
            got = log_mean_scalar(om, Ball((0.0, 0.0), r), MEAN_QUAD)
            assert got == pytest.approx(expected, abs=1e-6)

    def test_inversion_duality_scalar(self, unit_ball):
        om = scalar_weight_from_config({"kind": "power", "exponent": 0.4})
        v = log_mean_scalar(om, unit_ball)
        vi = log_mean_scalar(om.inverse(), unit_ball)
        assert abs(vi - 1.0 / v) <= 1e-10

    def test_scaling(self, unit_ball):
        om = scalar_weight_from_config({"kind": "power", "exponent": 0.4})
        v = log_mean_scalar(om, unit_ball)
        vt = log_mean_scalar(om.scaled(17.0), unit_ball)
        assert vt == pytest.approx(17.0 * v, rel=1e-12)

    def test_constant_matrix(self, unit_ball, rng):
        c = random_spd(rng, 1, 2, max_cond=50)[0]
        field = constant_weight(c)
        assert np.allclose(log_mean_matrix(field, unit_ball), c, rtol=1e-10)

    def test_inversion_duality_matrix(self, unit_ball):
        from degcz.exact_examples import MeyersExample

        field = MeyersExample(2, 0.5, "plain").weight_field()
        m = log_mean_matrix(field, unit_ball)
        mi = log_mean_matrix(field.inverse(), unit_ball)
        assert np.abs(mi - np.linalg.inv(m)).max() <= 1e-10

    def test_rotation_average_contracts_spectrum(self, unit_ball):
        # oracle: dense monte-carlo mean of log M over the ball
        from degcz.exact_examples import MeyersExample

        ex = MeyersExample(2, 0.5, "plain", theta_override=0.5)
        field = ex.weight_field()
        m = log_mean_matrix(field, unit_ball, MEAN_QUAD)
        mc = log_mean_matrix(field, unit_ball, QuadratureSpec("monte-carlo", 1_000_000, seed=9))
        assert np.abs(m - mc).max() <= 5e-3
        evs = np.linalg.eigvalsh(m)
        assert 0.5 < evs.min() <= evs.max() < 1.0


class TestSandwich:
    def test_identity_field(self, unit_ball):
        field = identity_weight(2)
        rep = sandwich_check(field, unit_ball)
        assert rep.holds
        assert rep.lower_margin == pytest.approx(1.0 - 1.0 / field.cond_bound, abs=1e-12)
        assert rep.upper_margin == pytest.approx(0.0, abs=1e-12)

    def test_meyers_weight(self, unit_ball):
        from degcz.exact_examples import MeyersExample

        field = MeyersExample(2, 0.5, "plain").weight_field()
        rep = sandwich_check(field, unit_ball)
        assert rep.holds
        assert field.cond_bound <= 2.0

    def test_log_normal_family(self, rng):
        field = weight_from_config({"kind": "log-normal", "n": 2, "seed": 5, "sigma": 0.4})
        quad = QuadratureSpec("polar-midpoint", (64, 32))
        for k in range(100):
            c = rng.uniform(-0.5, 0.5, 2)
            r = rng.uniform(0.05, 0.4)
            rep = sandwich_check(field, Ball(tuple(c), r), quad)
            assert rep.holds, f"sandwich failed on ball {k}"


class TestRegistry:
    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            weight_from_config({"kind": "nope"})

    def test_derived_omega_matches_spectral_norm(self, rng):
        field = weight_from_config({"kind": "rank-one-radial", "eps": 0.25, "n": 2})
        omega = field.omega()
        pts = rng.uniform(-0.7, 0.7, (50, 2))
        direct = spectral_norm_sym(field.evaluate(pts))
        assert np.abs(omega.evaluate(pts) - direct).max() <= 1e-12
        # derived log agrees with log of values
        assert np.abs(omega.log().evaluate(pts) - np.log(direct)).max() <= 1e-12


def _field_cases():
    """A scalar and a matrix weight, each with and without its closed-form log."""
    scalar = scalar_weight_from_config({"kind": "power", "exponent": 0.7})
    matrix = weight_from_config({"kind": "power-radial", "eps": 0.25})
    return [
        pytest.param(f, id=f"{kind}-log_fn")
        for kind, f in (("scalar", scalar), ("matrix", matrix))
    ] + [
        pytest.param(replace(f, log_fn=None), id=f"{kind}-no-log_fn")
        for kind, f in (("scalar", scalar), ("matrix", matrix))
    ]


class TestField:
    """Each Field method against the expressions of the per-rank classes it replaced.

    Scalar and matrix weights had separate classes; the references below are
    their expressions, so the comparisons are exact.  The scalar class had no
    ``omega``: the reference is |w|, which is w itself for a positive weight.
    """

    T = 17.0

    @pytest.mark.parametrize("field", _field_cases())
    def test_methods_match_reference_expressions(self, field, rng):
        fn, logf, t = field.fn, field.log_fn, self.T
        keep = logf is not None
        pts = rng.uniform(-0.7, 0.7, (40, 2))
        if fn(pts).ndim == 3:
            ref_log = logf(pts) if keep else sym_log_batched(fn(pts))
            ref_inv = np.linalg.inv(fn(pts))
            ref_inv_log = -logf(pts) if keep else sym_log_batched(np.linalg.inv(fn(pts)))
            ref_scaled_log = (logf(pts) + math.log(t) * np.eye(2) if keep
                              else sym_log_batched(t * fn(pts)))
            ref_omega = spectral_norm_sym(fn(pts))
            ref_omega_log = (_sym_eigvals(logf(pts)).max(axis=-1) if keep
                             else np.log(spectral_norm_sym(fn(pts))))
        else:
            ref_log = logf(pts) if keep else np.log(fn(pts))
            ref_inv = 1.0 / fn(pts)
            ref_inv_log = -logf(pts) if keep else np.log(1.0 / fn(pts))
            ref_scaled_log = math.log(t) + logf(pts) if keep else np.log(t * fn(pts))
            ref_omega = fn(pts)
            ref_omega_log = logf(pts) if keep else np.log(fn(pts))
        assert np.array_equal(field.evaluate(pts), fn(pts))
        assert np.array_equal(field.log().evaluate(pts), ref_log)
        assert np.array_equal(field.inverse().evaluate(pts), ref_inv)
        assert np.array_equal(field.inverse().log().evaluate(pts), ref_inv_log)
        assert np.array_equal(field.scaled(t).log().evaluate(pts), ref_scaled_log)
        assert np.array_equal(field.omega().evaluate(pts), ref_omega)
        assert np.array_equal(field.omega().log().evaluate(pts), ref_omega_log)
        assert (field.inverse().log_fn is None, field.scaled(t).log_fn is None,
                field.omega().log_fn is None) == (not keep,) * 3

    @pytest.mark.parametrize("base", _field_cases())
    def test_derived_fields_keep_metadata(self, base):
        assert base.omega().label == f"|{base.label}|"
        assert base.log().label == f"log({base.label})"
        for derived in (base.log(), base.omega()):
            assert derived.cond_bound is None and derived.singular_points == base.singular_points
        assert base.inverse().cond_bound == base.scaled(self.T).cond_bound == base.cond_bound
        assert base.log().log_fn is None
        with pytest.raises(ValueError):
            base.scaled(0.0)
