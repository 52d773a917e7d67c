import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import COORDS
from degcz.exact_examples import MeyersExample, SingularPointError, _identity_plus_outer
from degcz.nfunctions import weighted_maps
from degcz.weight_algebra import euclidean_norm, spd_log


class TestTheta:
    def test_plain_n2(self):
        # for n = 2 the anisotropy reduces to 1 - eps
        assert MeyersExample(2, 0.5, "plain").theta == pytest.approx(0.5, abs=1e-15)
        assert MeyersExample(2, 0.25, "plain").theta == pytest.approx(0.75, abs=1e-15)

    def test_plain_n3(self):
        assert MeyersExample(3, 0.25, "plain").theta == pytest.approx(
            math.sqrt(0.65625), abs=1e-15
        )

    def test_degenerate_n2(self):
        assert MeyersExample(2, 0.5, "degenerate").theta == pytest.approx(
            math.sqrt(0.625), abs=1e-15
        )

    def test_theta_range(self):
        for n in (2, 3, 4):
            for eps in (0.05, 0.1, 0.25, 0.5):
                for variant in ("plain", "degenerate"):
                    th = MeyersExample(n, eps, variant).theta
                    assert 0.5 <= th < 1.0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            MeyersExample(2, 0.75, "plain")
        with pytest.raises(ValueError):
            MeyersExample(2, 0.0, "plain")
        with pytest.raises(ValueError):
            MeyersExample(1, 0.25, "plain")

    @pytest.mark.parametrize("theta", [0.0, -0.5, 1.5])
    def test_theta_override_validation(self, theta):
        # above 1 the largest eigenvalue would be theta |x|^-b, not omega
        with pytest.raises(ValueError):
            MeyersExample(2, 0.25, "degenerate", theta_override=theta)


class TestDivergenceIdentity:
    def test_zero_at_construction_theta(self):
        for n in (2, 3):
            for eps in (0.1, 0.25, 0.5):
                for variant in ("plain", "degenerate"):
                    ex = MeyersExample(n, eps, variant)
                    assert abs(ex.divergence_coefficient()) <= 1e-14

    def test_plain_value(self):
        ex = MeyersExample(2, 0.5, "plain")
        # -eps(1-eps) + (1-eps-theta^2)(n-1) at theta = 0.5
        assert ex.divergence_coefficient() == pytest.approx(0.0, abs=1e-15)

    def test_wrong_theta_nonzero(self):
        ex = MeyersExample(2, 0.5, "plain", theta_override=1.0)
        assert ex.divergence_coefficient() == pytest.approx(-0.75, abs=1e-15)


class TestFields:
    def test_u_and_grad_closed_form(self):
        ex = MeyersExample(2, 0.25, "plain")
        assert ex.u(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)
        assert np.allclose(ex.grad_u(np.array([[1.0, 0.0]]))[0], [1.0 - 0.25, 0.0])
        # x on the second axis: xhat_1 = 0 kills the radial term
        assert ex.u(np.array([[0.0, 1.0]]))[0] == pytest.approx(0.0)
        assert np.allclose(ex.grad_u(np.array([[0.0, 1.0]]))[0], [1.0, 0.0])

    def test_gradient_finite_difference(self, rng):
        h = 1e-6
        for variant in ("plain", "degenerate"):
            for n in (2, 3):
                ex = MeyersExample(n, 0.3, variant)
                pts = rng.standard_normal((100, n))
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                pts *= 0.1 + 0.8 * rng.random((100, 1))
                grad = ex.grad_u(pts)
                for axis in range(n):
                    shift = np.zeros(n)
                    shift[axis] = h
                    fd = (ex.u(pts + shift) - ex.u(pts - shift)) / (2 * h)
                    scale = np.maximum(np.abs(grad).max(axis=1), 1e-12)
                    assert np.abs(fd - grad[:, axis]).max() / scale.max() <= 1e-6

    def test_weight_plain_at_e1(self):
        ex = MeyersExample(2, 0.5, "plain")
        m = ex.weight(np.array([[1.0, 0.0]]))[0]
        assert np.allclose(m, np.diag([1.0, 0.5]))

    def test_log_weight_matches_eigendecomposition(self, rng):
        for variant in ("plain", "degenerate"):
            ex = MeyersExample(2, 0.35, variant)
            pts = rng.uniform(-0.8, 0.8, (20, 2))
            closed = ex.log_weight(pts)
            for k in range(20):
                assert np.abs(closed[k] - spd_log(ex.weight(pts[k : k + 1])[0])).max() <= 1e-12

    def test_degenerate_blowup(self):
        ex = MeyersExample(2, 0.5, "degenerate")
        om = ex.omega(np.array([[0.01, 0.0]]))[0]
        assert om == pytest.approx(0.01 ** -0.25, rel=1e-12)  # ~3.1623

    def test_condition_bound(self, rng):
        for variant in ("plain", "degenerate"):
            ex = MeyersExample(2, 0.5, variant)
            pts = rng.uniform(-0.9, 0.9, (50, 2))
            m = ex.weight(pts)
            evs = np.linalg.eigvalsh(m)
            cond = (evs[:, -1] / evs[:, 0]).max()
            assert cond <= 2.0 + 1e-12

    def test_singular_point_rejection(self):
        ex = MeyersExample(2, 0.25, "plain")
        with pytest.raises(SingularPointError):
            ex.u(np.array([[0.0, 0.0]]))
        with pytest.raises(SingularPointError):
            ex.weight(np.array([[0.0, 0.0]]))
        assert ex.u_with_origin(np.array([[0.0, 0.0]]))[0] == 0.0


class TestWeightEntries:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("variant", ["plain", "degenerate"])
    def test_entries_match_einsum_outer_product(self, n, variant, rng):
        # the same bits, signs of zero included, as building the matrices
        # from an einsum outer product; points on the axes give zero products
        ex = MeyersExample(n, 0.3, variant)
        pts = rng.standard_normal((400, n))
        pts[:50, 1] = 0.0
        pts[50:100, 0] = -0.0
        r = np.linalg.norm(pts, axis=-1)
        xhat = pts / r[:, None]
        outer = np.einsum("mi,mj->mij", xhat, xhat)
        eye = np.eye(n)[None, :, :]
        th, lt = ex.theta, math.log(ex.theta)
        m = th * eye + (1.0 - th) * outer
        h = lt * eye - lt * outer
        if variant == "degenerate":
            m = (r ** (-ex.eps / 2.0))[:, None, None] * m
            h = h - (ex.eps / 2.0 * np.log(r))[:, None, None] * eye
        for got, ref in ((ex.weight(pts), m), (ex.log_weight(pts), h)):
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestPolar:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from([2, 3]), data=st.data())
    def test_polar_divides_column_by_column_bitwise(self, n, data):
        # the bits of pts / r[:, None], for coordinates with signed zeros,
        # subnormal, tiny and large magnitudes (|x| overflows to inf)
        rows = data.draw(st.lists(st.tuples(*[COORDS] * n), min_size=1, max_size=30))
        pts = np.array(rows)
        with np.errstate(over="ignore"):
            r = euclidean_norm(pts)
        pts = pts[r >= 1e-300]
        if not len(pts):
            return
        with np.errstate(over="ignore"):
            got_r, xhat = MeyersExample(n, 0.25, "plain")._polar(pts)
            r = euclidean_norm(pts)
        assert got_r.tobytes() == r.tobytes()
        assert xhat.tobytes() == (pts / r[:, None]).tobytes()


def per_variant_reference(ex, pts):
    """Every quantity as it was written once per variant, before one weight
    exponent b decided the variant."""
    e, n, plain = ex.eps, ex.n, ex.variant == "plain"
    if ex.theta_override is not None:
        th = ex.theta_override
    elif plain:
        th = math.sqrt(1.0 - e - e * (1.0 - e) / (n - 1))
    else:
        th = math.sqrt(1.0 - e / 2.0 - e * (1.0 - e) / (2.0 * (n - 1)))
    if plain:
        div = -e * (1.0 - e) + (1.0 - e - th * th) * (n - 1)
    else:
        div = -(e / 2.0) * (1.0 - e) + (1.0 - e / 2.0 - th * th) * (n - 1)
    a = e if plain else e / 2.0
    r = euclidean_norm(pts)
    xhat = pts / r[:, None]
    e1 = np.zeros(n)
    e1[0] = 1.0
    grad = (r ** (-a))[:, None] * (e1[None, :] - a * xhat * xhat[:, :1])
    m = _identity_plus_outer(xhat, th, 1.0 - th)
    lt = math.log(th)
    h = _identity_plus_outer(xhat, lt, -lt)
    th2 = th ** 2
    if plain:
        omega, log_omega = np.ones_like(r), np.zeros(r.shape[0])
        coef, pref = 1.0 - e - th2, r ** (-e)
    else:
        m = (r ** (-e / 2.0))[:, None, None] * m
        h = h - (e / 2.0 * np.log(r))[:, None, None] * np.eye(n)[None, :, :]
        omega, log_omega = r ** (-e / 2.0), -(e / 2.0) * np.log(r)
        coef, pref = 1.0 - e / 2.0 - th2, r ** (-1.5 * e)
    flux = pref[:, None] * (th2 * e1[None, :] + coef * xhat * xhat[:, :1])
    return {"theta": th, "divergence": div, "grad_exponent": a, "grad_u": grad,
            "weight": m, "log_weight": h, "omega": omega, "log_omega": log_omega,
            "flux": flux}


def assert_same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestOneWeightExponent:
    # below 2**-1021 halving eps rounds, and eps - eps/2 may then differ from
    # eps/2 by one subnormal ulp; above it every quantity keeps its bits
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        eps=st.floats(min_value=2.0 ** -1021, max_value=0.5),
        variant=st.sampled_from(["plain", "degenerate"]),
        theta_override=st.none() | st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(n=2, eps=0.1, variant="degenerate", theta_override=None, seed=0)
    @example(n=3, eps=0.3, variant="degenerate", theta_override=None, seed=1)
    @example(n=4, eps=0.3, variant="plain", theta_override=0.7, seed=2)
    def test_matches_the_per_variant_expressions(self, n, eps, variant, theta_override, seed):
        ex = MeyersExample(n, eps, variant, theta_override)
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((64, n)) * np.exp(rng.uniform(-7.0, 7.0, (64, 1)))
        pts[:8, 0] = 0.0  # on the axes: zero products, signs of zero
        pts[8:16, 1] = -0.0
        ref = per_variant_reference(ex, pts)
        assert_same_bits(ex.theta, ref["theta"])
        assert_same_bits(ex.divergence_coefficient(), ref["divergence"])
        assert_same_bits(ex.grad_exponent, ref["grad_exponent"])
        for name in ("grad_u", "weight", "log_weight", "omega", "flux"):
            assert_same_bits(getattr(ex, name)(pts), ref[name])
        assert_same_bits(ex.scalar_weight().log().evaluate(pts), ref["log_omega"])
        fin = lambda power: "finite" if power < n else "infinite"
        for rho in (1.0, 7.5, n / eps, 2.0 * n / eps):
            grad_pow = rho * ref["grad_exponent"]
            weighted_pow = grad_pow if variant == "plain" else rho * eps
            expected = {"grad": fin(grad_pow), "weighted_grad": fin(weighted_pow)}
            assert ex.integrability(rho) == expected


class TestFlux:
    def test_plain_value_at_e1(self):
        ex = MeyersExample(2, 0.5, "plain")
        pts = np.array([[1.0, 0.0]])
        cal_a, _ = weighted_maps(ex.weight(pts), 2.0, ex.grad_u(pts))
        assert np.allclose(cal_a[0], [0.5, 0.0], atol=1e-14)
        assert np.allclose(ex.flux(pts)[0], [0.5, 0.0], atol=1e-14)

    def test_flux_matches_weighted_map(self, rng):
        # closed-form flux against M A(M grad u) at random points, both variants
        for variant in ("plain", "degenerate"):
            for n in (2, 3):
                ex = MeyersExample(n, 0.4, variant)
                pts = rng.standard_normal((50, n))
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                pts *= 0.05 + 0.9 * rng.random((50, 1))
                cal_a, cal_v = weighted_maps(ex.weight(pts), 2.0, ex.grad_u(pts))
                flux = ex.flux(pts)
                rel = np.linalg.norm(cal_a - flux, axis=1) / np.linalg.norm(flux, axis=1)
                assert rel.max() <= 1e-10
                # calA . xi = |calV|^2
                dots = np.einsum("mi,mi->m", cal_a, ex.grad_u(pts))
                assert np.abs(dots - np.linalg.norm(cal_v, axis=1) ** 2).max() <= 1e-10 * max(
                    1.0, np.abs(dots).max()
                )


class TestIntegrability:
    @pytest.mark.parametrize(
        "variant,n,eps,rho,grad,weighted",
        [
            ("plain", 2, 0.5, 3.9, "finite", "finite"),
            ("plain", 2, 0.5, 4.0, "infinite", "infinite"),
            ("plain", 2, 0.25, 7.9, "finite", "finite"),
            ("degenerate", 2, 0.5, 7.0, "finite", "infinite"),
            ("degenerate", 2, 0.5, 8.0, "infinite", "infinite"),
            ("degenerate", 2, 0.5, 3.9, "finite", "finite"),
            ("plain", 3, 0.5, 5.9, "finite", "finite"),
        ],
    )
    def test_thresholds(self, variant, n, eps, rho, grad, weighted):
        ex = MeyersExample(n, eps, variant)
        got = ex.integrability(rho)
        assert got["grad"] == grad
        assert got["weighted_grad"] == weighted

    def test_against_radial_oracle(self):
        # numerical cross-check: the radial integral of (|grad u| omega)^rho
        # converges iff the classification says finite; quadrature is split
        # dyadically so the boundary layer near the cutoff is resolved
        def tail_integral(expo, t):
            total, lo = 0.0, t
            while lo < 1.0:
                hi = min(2.0 * lo, 1.0)
                val, _ = integrate.quad(lambda r: r ** expo, lo, hi)
                total += val
                lo = hi
            return total

        ex = MeyersExample(2, 0.5, "degenerate")
        for rho, expected in ((3.0, "finite"), (5.0, "infinite")):
            # |grad u| omega ~ r^-eps; integrand r^(1 - rho eps) over (t, 1)
            vals = [tail_integral(1.0 - rho * ex.eps, t) for t in (1e-4, 1e-8)]
            diverging = vals[1] > 2.0 * vals[0]
            assert ("infinite" if diverging else "finite") == expected
            assert ex.integrability(rho)["weighted_grad"] == expected
