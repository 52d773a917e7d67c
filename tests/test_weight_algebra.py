import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import COORDS, MODERATE, coord_arrays, random_spd
from degcz.seminorms import BallFamily
from degcz.weight_algebra import (
    Ball,
    NotPositiveDefiniteError,
    NotSymmetricError,
    QuadratureSpec,
    ball_nodes,
    constant_weight,
    euclidean_norm,
    identity_weight,
    lambda_max_sym,
    log_mean,
    omega_and_matrix_from_config,
    sandwich_check,
    spd_exp,
    spd_log,
    spectral_norm_sym,
    sym_exp_batched,
    sym_log_batched,
    weight_from_config,
    WEIGHT_KINDS,
    _eig2,
    _polar_template,
    _sym_eigvals,
)

MEAN_QUAD = QuadratureSpec((512, 32))


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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from([2, 3]), data=st.data())
    def test_single_matrix_functions_are_stacks_of_one(self, n, data):
        # spd_exp and spd_log run the batched kernel on a stack of one, bit
        # for bit, on exactly symmetric matrices; the eigenvalues of h stay
        # within 7.5 of zero
        h = data.draw(coord_arrays((n, n), MODERATE))
        h = 0.125 * (h + h.T)
        m = sym_exp_batched(h[None])[0]
        assert spd_exp(h).tobytes() == m.tobytes()
        m = 0.5 * (m + m.T)
        assert spd_log(m).tobytes() == sym_log_batched(m[None])[0].tobytes()

    def test_rejects_non_symmetric(self):
        with pytest.raises(NotSymmetricError):
            spd_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_spd_log(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_log(np.diag([1.0, -2.0]))

    def test_condition_number(self):
        theta = 0.5
        m = theta * np.eye(2) + (1 - theta) * np.outer([1, 0], [1, 0])
        for matrix, cond in ((np.eye(2), 1.0), (m, 2.0), (np.diag([4.0, 1.0]), 4.0)):
            field = constant_weight(matrix)
            assert field.cond_bound == pytest.approx(cond)
            assert field.measured_condition(np.zeros((3, 2))) == pytest.approx(cond)


class TestBallQuadrature:
    def test_ball_validation(self):
        with pytest.raises(ValueError):
            Ball((0.0, 0.0), -1.0)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec((2, 2))

    def test_polar_weights_sum_to_area(self, unit_ball):
        _, w = ball_nodes(unit_ball, QuadratureSpec((32, 16)))
        assert w.sum() == pytest.approx(math.pi, rel=1e-12)

    def test_polar_avoids_center(self, unit_ball):
        pts, _ = ball_nodes(
            unit_ball,
            QuadratureSpec((32, 16)),
            singular=np.array([[0.0, 0.0]]),
        )
        assert np.linalg.norm(pts, axis=1).min() > 0

    def test_clip_drops_outside_nodes(self, unit_ball):
        ball = Ball((0.9, 0.0), 0.5)
        pts, w = ball_nodes(ball, QuadratureSpec((32, 16)), clip=unit_ball)
        assert np.all(np.linalg.norm(pts, axis=1) < 1.0)
        assert w.sum() < ball.volume


def _reference_ball_nodes(ball, quad, clip=None, singular=None):
    """One ball at a time, with numpy norms over the coordinate axis (reference)."""
    sing = None
    if singular is not None and len(singular):
        sing = np.atleast_2d(np.asarray(singular, dtype=float))
    nr, na = quad.resolution
    rho = (np.arange(nr) + 0.5) * (ball.radius / nr)
    theta = (np.arange(na) + 0.5) * (2.0 * math.pi / na)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = (rho[:, None, None] * dirs[None, :, :]).reshape(-1, 2) + np.asarray(ball.center)
    w = ((rho[:, None] * (ball.radius / nr) * (2.0 * math.pi / na)) * np.ones((1, na)))
    w = w.reshape(-1)
    if sing is not None:
        d = np.linalg.norm(pts[:, None, :] - sing[None, :, :], axis=-1).min(axis=1)
        keep = d > 1e-13 * ball.radius
        pts, w = pts[keep], w[keep]
    if clip is not None:
        keep = np.linalg.norm(pts - np.asarray(clip.center), axis=-1) < clip.radius
        pts, w = pts[keep], w[keep]
    return pts, w


class TestBallNodes:
    FAMILIES = {
        "dyadic": lambda dom: BallFamily.dyadic(dom, 3),
        "ladder": lambda dom: BallFamily.origin_ladder(dom, 2),
        "random": lambda dom: TestBallNodes.random_family(dom, 30, 0.01, 0.6, 5),
        "interleaved": lambda dom: TestBallNodes.interleaved_family(dom),
    }
    RULES = [
        QuadratureSpec((64, 32)),
        QuadratureSpec((256, 32)),
        QuadratureSpec((3, 32)),
    ]

    @staticmethod
    def random_family(domain, count, r_min, r_max, seed):
        """Seeded balls with centers in the domain and log-uniform radii, in
        no radius order."""
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((count, domain.dim))
        g *= domain.radius * rng.random((count, 1)) / np.linalg.norm(g, axis=1, keepdims=True)
        radii = np.exp(rng.uniform(math.log(r_min), math.log(r_max), count))
        balls = tuple(Ball(tuple(np.asarray(domain.center) + c), r) for c, r in zip(g, radii))
        return BallFamily(balls, "random", domain)

    @staticmethod
    def interleaved_family(domain):
        """Equal radii that are never consecutive, and more distinct radii
        than the template cache holds, so templates are reused and rebuilt."""
        order = [k % 3 for k in range(12)] + list(range(10)) + [k % 3 for k in range(6)]
        balls = tuple(Ball((0.3 * math.cos(j), 0.3 * math.sin(j)), 0.05 * (k + 1))
                      for j, k in enumerate(order))
        return BallFamily(balls, "interleaved", domain)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("quad", RULES, ids=lambda q: f"polar-midpoint-{q.resolution}")
    def test_ball_nodes_equal_reference(self, family, quad, unit_ball):
        balls = self.FAMILIES[family](unit_ball).balls
        # the last singular point sits exactly on a node of the first ball
        on_node = _reference_ball_nodes(balls[0], quad)[0][5:6]
        for clip, sing in ((None, None), (unit_ball, np.zeros((1, 2))),
                           (unit_ball, np.array([[0.0, 0.0], [0.5, 0.0]])),
                           (None, np.concatenate([np.zeros((1, 2)), on_node]))):
            for ball in balls:
                pts, w = ball_nodes(ball, quad, clip, sing)
                ref_pts, ref_w = _reference_ball_nodes(ball, quad, clip, sing)
                assert np.array_equal(pts, ref_pts) and np.array_equal(w, ref_w)
        kept = ball_nodes(balls[0], quad, singular=on_node)[1]
        assert len(kept) == math.prod(quad.resolution) - 1
        for ball in balls:
            for clip, sing, drops in self.edge_cases(ball, quad):
                pts, w = ball_nodes(ball, quad, clip, sing)
                ref_pts, ref_w = _reference_ball_nodes(ball, quad, clip, sing)
                assert np.array_equal(pts, ref_pts) and np.array_equal(w, ref_w)
                assert (len(w) < math.prod(quad.resolution)) == drops

    @staticmethod
    def edge_cases(ball, quad):
        """``(clip, singular, drops)`` at the edges of the mask skip: singular
        points 1e-12 of the radius inside and outside the ball and one on a
        node of the outermost ring; clip balls to which the ball is internally
        tangent or which it crosses by 1e-12 of the radius, and ones that the
        outermost ring comes within 1e-12 of, from inside, or crosses by as
        much.  Every case lies along the direction of the last node, which is
        on that ring."""
        c, r, nr = np.asarray(ball.center), ball.radius, quad.resolution[0]
        last = _reference_ball_nodes(ball, quad)[0][-1:]
        u = (last[0] - c) / np.linalg.norm(last[0] - c)
        outer = (nr - 0.5) * (r / nr)
        cases = [(None, (c + r * (1.0 + t) * u)[None], False) for t in (-1e-12, 1e-12)]
        cases.append((None, last, True))
        for reach, drops in ((r, False), (r * (1.0 - 1e-12), False),
                             (outer * (1.0 + 1e-12), False), (outer * (1.0 - 1e-12), True)):
            cases.append((Ball(tuple(c - r * u), r + reach), None, drops))
        return cases

    def test_far_balls_build_no_mask(self, unit_ball, monkeypatch):
        # no node can reach a singular point or the clip's boundary, so no mask
        # is built and the weights are the template's own
        import degcz.weight_algebra as wa

        def no_mask(*args):
            raise AssertionError("built a mask that could drop no node")

        monkeypatch.setattr(wa, "_min_distance", no_mask)
        monkeypatch.setattr(Ball, "contains", no_mask)
        quad, ball = QuadratureSpec((32, 16)), Ball((0.2, -0.1), 0.3)
        sing = np.array([[0.2 + 0.3 * (1.0 + 2e-9), -0.1], [-0.9, 0.0]])
        pts, w = ball_nodes(ball, quad, unit_ball, sing)
        tmpl, tmpl_w = _polar_template(2, 0.3, *quad.resolution)
        assert w is tmpl_w and not w.flags.writeable
        assert np.array_equal(pts, tmpl + np.array(ball.center))

    def test_interleaved_radii_hit_and_miss_the_template_cache(self, unit_ball):
        quad = QuadratureSpec((32, 16))
        _polar_template.cache_clear()
        for ball in self.interleaved_family(unit_ball).balls:
            assert np.array_equal(ball_nodes(ball, quad)[1], _reference_ball_nodes(ball, quad)[1])
        info = _polar_template.cache_info()
        assert info.hits > 0 and info.misses > 10 and info.currsize <= info.maxsize

    def test_templates_are_read_only(self):
        quad = QuadratureSpec((32, 16))
        tmpl, tmpl_w = _polar_template(2, 0.3, *quad.resolution)
        _, w = ball_nodes(Ball((0.2, -0.1), 0.3), quad)
        for arr in (tmpl, tmpl_w, w):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestExplicitKernels:
    """The component-wise kernels give the bits of the numpy reductions."""

    def test_euclidean_norm_matches_linalg_norm(self, rng):
        tiny = np.finfo(float).smallest_subnormal
        cases = [rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, shape[:-1] + (1,))
                 for shape in ((1000, 2), (50, 7, 2), (300, 3))]
        cases += [
            np.zeros((5, 2)),
            np.array([[tiny, 0.0], [tiny, tiny], [0.0, -3 * tiny], [1e-308, 1e-310]]),
            np.array([[1e150, 1e-150], [-1e-150, 1e150], [1e150, 1e150], [1e-150, 1e-150]]),
        ]
        for x in cases:
            assert np.array_equal(euclidean_norm(x), np.linalg.norm(x, axis=-1))

    def test_spectral_norm_and_lambda_max_match_eigenvalue_reductions(self, rng):
        for m in (random_spd(rng, 500, 2), rng.standard_normal((500, 2, 2)),
                  np.zeros((3, 2, 2))):
            m = 0.5 * (m + np.swapaxes(m, -1, -2))
            ev = _sym_eigvals(m)
            assert np.array_equal(spectral_norm_sym(m), np.abs(ev).max(axis=-1))
            assert np.array_equal(lambda_max_sym(m), ev.max(axis=-1))
        m3 = random_spd(rng, 20, 3)
        assert np.array_equal(lambda_max_sym(m3), np.linalg.eigvalsh(m3).max(axis=-1))

    def test_spectral_norm_is_the_larger_eigenvalue_modulus_bitwise(self, rng):
        tiny = np.finfo(float).smallest_subnormal
        signs = np.array(list(itertools.product((0.0, -0.0), repeat=3)))
        cases = [
            rng.standard_normal((1000, 2, 2)),
            rng.standard_normal((1000, 2, 2)) * 10.0 ** rng.choice([-150.0, 150.0], (1000, 1, 1)),
            rng.integers(-3, 4, (500, 2, 2)) * tiny,
            np.stack([signs[:, [0, 1]], signs[:, [1, 2]]], axis=1),
            np.array([[[1e150, 1e-150], [1e-150, -1e150]], [[tiny, 1e150], [1e150, -tiny]]]),
        ]
        for s in cases:
            s = s.copy()
            s[..., 1, 0] = s[..., 0, 1]
            a, b, d = s[..., 0, 0], s[..., 0, 1], s[..., 1, 1]
            mean = 0.5 * (a + d)
            disc = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + b * b, 0.0))
            want = np.maximum(np.abs(mean - disc), np.abs(mean + disc))
            assert spectral_norm_sym(s).tobytes() == want.tobytes()
        # non-finite entries, as the docstring states: inf where mean and disc
        # are both infinite, where the larger modulus reads nan
        inf, nan = math.inf, math.nan
        s = np.array([[[inf, 0.0], [0.0, 1.0]], [[1e308, 1e200], [1e200, 1e308]],
                      [[inf, 0.0], [0.0, inf]], [[nan, 0.0], [0.0, 1.0]], [[inf, 1.0], [1.0, 2.0]]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = spectral_norm_sym(s)
        assert np.array_equal(got, [inf, inf, nan, nan, inf], equal_nan=True)

    def test_separated_batches_skip_the_masks_exactly(self, rng):
        # a batch with one isotropic matrix takes the masked path; the other
        # matrices must come out as in an all-separated batch
        m = sym_log_batched(random_spd(rng, 200, 2))
        mixed = np.concatenate([m, 2.0 * np.eye(2)[None]])
        assert np.array_equal(sym_exp_batched(mixed)[:-1], sym_exp_batched(m))
        spd = np.concatenate([sym_exp_batched(m), 2.0 * np.eye(2)[None]])
        assert np.array_equal(sym_log_batched(spd)[:-1], sym_log_batched(spd[:-1]))
        assert np.array_equal(sym_log_batched(spd)[-1], math.log(2.0) * np.eye(2))


class TestColumnKernels:
    """The kernels that work one coordinate column at a time, or in place,
    give the bits of the broadcast formulas they replace."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from([2, 3]), data=st.data(), radius=st.floats(1e-6, 1e3),
           res=st.sampled_from([(64, 32), (3, 32), (16, 8)]))
    def test_ball_nodes_shift_equals_broadcast(self, n, data, radius, res):
        center = data.draw(st.tuples(*[COORDS] * n))
        tmpl, tmpl_w = _polar_template(n, radius, *res)
        pts, w = ball_nodes(Ball(center, radius), QuadratureSpec(res))
        with np.errstate(over="ignore"):
            assert pts.tobytes() == (tmpl + np.asarray(center)).tobytes()
        assert w is tmpl_w and pts.flags.writeable

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.tuples(*[st.floats(allow_nan=False)] * 3), min_size=1, max_size=40))
    @example(rows=[(0.0, -0.0, -0.0), (-0.0, 0.0, 0.0), (5e-324, -5e-324, 1e-300),
                   (1e300, 1e300, -1e300), (math.inf, 1.0, 2.0), (math.inf, 0.0, math.inf)])
    def test_eig2_in_place_equals_broadcast_formula(self, rows):
        abd = np.array(rows).T.copy()
        before = abd.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b, d in (abd, abd[:, 0]):
                want = (0.5 * (a + d), np.sqrt(0.25 * (a - d) ** 2 + b * b))
                got = _eig2(a, b, d)
                assert [np.asarray(x).tobytes() for x in got] == \
                    [np.asarray(x).tobytes() for x in want]
            assert abd.tobytes() == before


class TestLogMeans:
    @pytest.mark.parametrize("closed_form_log", [True, False])
    def test_matches_the_scalar_and_matrix_reductions_bitwise(self, closed_form_log):
        """One log mean keeps the bits of the former scalar and matrix means,
        with the field's ``log_fn`` and without it."""
        quad = QuadratureSpec((64, 32))
        for cfg in ({"kind": "power-radial", "eps": 0.25}, {"kind": "log-normal", "seed": 3}):
            w = weight_from_config(cfg)
            om = w.omega()
            if not closed_form_log:
                w, om = replace(w, log_fn=None), replace(om, log_fn=None)
            for ball in (Ball((0.1, 0.2), 0.5), Ball((0.0, 0.0), 0.3)):
                pts, wts = ball_nodes(ball, quad, singular=w.singular_points)
                logs = om.log_fn(pts) if closed_form_log else np.log(om.evaluate(pts))
                want = float(np.exp(np.sum(wts * logs) / np.sum(wts)))
                assert log_mean(om, ball, quad) == want
                logs = w.log_fn(pts) if closed_form_log else sym_log_batched(w.evaluate(pts))
                mean = np.einsum("m,mij->ij", wts, logs) / np.sum(wts)
                assert np.array_equal(log_mean(w, ball, quad), spd_exp(0.5 * (mean + mean.T)))

    def test_non_positive_scalar_rejected(self, unit_ball):
        field = omega_and_matrix_from_config({"kind": "power", "exponent": 1.0})[0]
        shifted = replace(field, fn=lambda pts: field.fn(pts) - 0.5, log_fn=None)
        with pytest.raises(NotPositiveDefiniteError):
            log_mean(shifted, unit_ball)

    def test_constant_scalar(self, unit_ball):
        om = omega_and_matrix_from_config({"kind": "constant", "value": 2.5})[0]
        assert log_mean(om, unit_ball) == pytest.approx(2.5, rel=1e-12)

    def test_power_weight_closed_form(self):
        # oracle: mean of log|x| over B_r(0) in 2d equals log r - 1/2, checked
        # against independent 1-d quadrature of the radial integrand
        eps = 0.3
        om = omega_and_matrix_from_config({"kind": "power", "exponent": eps})[0]
        for r in (1.0, 0.37):
            oracle, _ = integrate.quad(lambda s: math.log(s) * 2.0 * s / r ** 2, 0.0, r)
            expected = math.exp(eps * oracle)
            assert expected == pytest.approx(r ** eps * math.exp(-eps / 2.0), rel=1e-12)
            got = log_mean(om, Ball((0.0, 0.0), r), MEAN_QUAD)
            assert got == pytest.approx(expected, abs=1e-6)

    def test_inversion_duality_scalar(self, unit_ball):
        om = omega_and_matrix_from_config({"kind": "power", "exponent": 0.4})[0]
        v = log_mean(om, unit_ball)
        vi = log_mean(om.inverse(), unit_ball)
        assert abs(vi - 1.0 / v) <= 1e-10

    def test_scaling(self, unit_ball):
        om = omega_and_matrix_from_config({"kind": "power", "exponent": 0.4})[0]
        v = log_mean(om, unit_ball)
        vt = log_mean(om.scaled(17.0), unit_ball)
        assert vt == pytest.approx(17.0 * v, rel=1e-12)

    def test_constant_matrix(self, unit_ball, rng):
        c = random_spd(rng, 1, 2, max_cond=50)[0]
        field = constant_weight(c)
        assert np.allclose(log_mean(field, unit_ball), c, rtol=1e-10)

    def test_inversion_duality_matrix(self, unit_ball):
        from degcz.exact_examples import MeyersExample

        field = MeyersExample(2, 0.5, "plain").weight_field()
        m = log_mean(field, unit_ball)
        mi = log_mean(field.inverse(), unit_ball)
        assert np.abs(mi - np.linalg.inv(m)).max() <= 1e-10

    def test_rotation_average_contracts_spectrum(self):
        # oracle: on an origin-centred ball log M = log(theta) (I - xhat xhat^T)
        # averages to log(theta) (1 - 1/n) I, so M_B = sqrt(theta) I at n = 2
        from degcz.exact_examples import MeyersExample

        field = MeyersExample(2, 0.5, "plain", theta_override=0.5).weight_field()
        for radius in (1.0, 1e-3):
            m = log_mean(field, Ball((0.0, 0.0), radius), MEAN_QUAD)
            assert np.abs(m - math.sqrt(0.5) * np.eye(2)).max() <= 1e-12


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
        quad = QuadratureSpec((64, 32))
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
    """A scalar and a matrix weight, each with and without its closed-form log
    (and, for the matrix, its closed-form norm)."""
    scalar = omega_and_matrix_from_config({"kind": "power", "exponent": 0.7})[0]
    matrix = weight_from_config({"kind": "power-radial", "eps": 0.25})
    return [
        pytest.param(f, id=f"{kind}-log_fn")
        for kind, f in (("scalar", scalar), ("matrix", matrix))
    ] + [
        pytest.param(replace(f, log_fn=None, omega_fn=None), id=f"{kind}-no-log_fn")
        for kind, f in (("scalar", scalar), ("matrix", matrix))
    ]


class TestField:
    """Each Field method against the expressions of the per-rank classes it replaced.

    Scalar and matrix weights had separate classes; the references below are
    their expressions, so the comparisons are exact.  The scalar class had no
    ``omega``: the reference is |w|, which is w itself for a positive weight.
    A matrix weight with ``omega_fn`` evaluates that closed form instead of
    the spectral norm, so its ``omega`` is compared with the spectral norm
    within :attr:`TestOmegaClosedForm.RTOL`, not bit for bit.
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
        omega = field.omega().evaluate(pts)
        if field.omega_fn is None:
            assert np.array_equal(omega, ref_omega)
        else:
            assert np.abs(omega / ref_omega - 1.0).max() <= TestOmegaClosedForm.RTOL[2]
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


def _matrix_weight(kind, n, eps, seed):
    """The matrix weight of ``kind`` in R^n; ``eps`` sets a Meyers weight,
    ``seed`` a log-normal one or a random SPD constant."""
    cfg = {"kind": kind, "n": n}
    if kind in ("rank-one-radial", "power-radial"):
        cfg["eps"] = eps
    elif kind == "log-normal":
        cfg["seed"] = seed
    elif kind == "constant":
        cfg["matrix"] = random_spd(np.random.default_rng(seed), 1, n)[0]
    return weight_from_config(cfg)


def _einsum_log_fn(dim, seed, sigma, modes):
    """log M of the seeded log-normal weight as one (m, modes) table of
    cosines and an einsum over the modes (reference)."""
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((modes, dim, dim))
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2)) * (sigma / math.sqrt(modes))
    waves = rng.integers(-2, 3, size=(modes, dim)).astype(float)
    phases = rng.random(modes) * 2.0 * math.pi
    return lambda pts: np.einsum(
        "mk,kij->mij", np.cos(2.0 * math.pi * pts @ waves.T + phases), mats)


class TestLogNormalOmega:
    """At n = 2 the log-normal omega sums three entries of log M mode by mode
    instead of building the (m, 2, 2) stack that ``log_fn`` returns."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), modes=st.integers(1, 9),
           sigma=st.sampled_from([0.0, 0.3, 3.0]), count=st.integers(1, 3000),
           scale=st.floats(1e-3, 1e3))
    def test_omega_is_exp_lambda_max_of_log_m_bitwise(self, seed, modes, sigma, count, scale):
        # sigma = 0 makes every entry of log M a sum of signed zeros
        field = weight_from_config(
            {"kind": "log-normal", "seed": seed, "modes": modes, "sigma": sigma})
        pts = np.random.default_rng(seed).uniform(-scale, scale, (count, 2))
        pts[0] = 0.0
        want = np.exp(lambda_max_sym(field.log_fn(pts)))
        assert field.omega_fn(pts).tobytes() == want.tobytes()
        assert field.omega().evaluate(pts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_log_fn_equals_the_einsum_stack_bitwise(self, seed):
        # the entries summed mode by mode onto +0.0 give the bits of
        # einsum("mk,kij->mij", cos(2 pi x . waves + phases), mats), signs of
        # zero included (sigma = 0), at n = 2 and 3
        rng = np.random.default_rng(100 + seed)
        node_set = ball_nodes(Ball((0.25, -0.5), 0.25), QuadratureSpec((64, 32)).refined())[0]
        for n, modes, sigma in ((2, 4, 0.3), (2, 9, 0.0), (3, 4, 0.3), (3, 5, 3.0)):
            field = weight_from_config(
                {"kind": "log-normal", "n": n, "seed": seed, "modes": modes, "sigma": sigma})
            ref = _einsum_log_fn(n, seed, sigma, modes)
            for pts in (rng.uniform(-1.0, 1.0, (2048, n)), rng.uniform(-50.0, 50.0, (7, n)),
                        np.zeros((1, n))) + ((node_set,) if n == 2 else ()):
                assert field.log_fn(pts).tobytes() == ref(pts).tobytes()

    def test_three_dimensional_weight_evaluates_from_the_stack(self):
        field = weight_from_config({"kind": "log-normal", "n": 3, "seed": 4})
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, (300, 3))
        omega = field.omega().evaluate(pts)
        assert omega.shape == (300,)
        assert np.array_equal(omega, np.exp(lambda_max_sym(field.log_fn(pts))))
        assert np.allclose(omega, spectral_norm_sym(field.evaluate(pts)), rtol=4e-15, atol=0.0)


class TestOmegaClosedForm:
    """Every matrix kind gives omega = |M| in closed form, which ``omega``
    evaluates instead of the matrices."""

    #: relative distance from the spectral norm of the evaluated matrices.
    #: At n = 3 that reference goes through LAPACK eigensolvers; their
    #: rounding reached 3.1e-15 on a log-normal weight (4.4e-16 at n = 2)
    RTOL = {2: 1e-15, 3: 4e-15}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(WEIGHT_KINDS), n=st.sampled_from([2, 3]),
           eps=st.floats(1e-3, 0.5), seed=st.integers(0, 2 ** 32 - 1),
           t=st.floats(1e-3, 1e3))
    def test_omega_fn_is_the_spectral_norm(self, kind, n, eps, seed, t):
        field = _matrix_weight(kind, n, eps, seed)
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, (64, n))
        omega = field.omega().evaluate(pts)
        ref = spectral_norm_sym(field.evaluate(pts))
        assert field.omega_fn is not None
        assert np.abs(omega / ref - 1.0).max() <= self.RTOL[n]
        if kind in ("rank-one-radial", "identity"):
            assert np.all(omega == 1.0)
        assert np.array_equal(field.scaled(t).omega().evaluate(pts), t * omega)
        for derived in (field.log(), field.inverse(), field.omega()):
            assert derived.omega_fn is None
