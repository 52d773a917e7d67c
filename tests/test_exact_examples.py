import math

import numpy as np
import pytest
from scipy import integrate

from degcz.exact_examples import MeyersExample, SingularPointError
from degcz.nfunctions import weighted_maps
from degcz.weight_algebra import spd_log


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
