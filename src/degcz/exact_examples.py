"""Closed-form sharpness constructions: exact solutions with rank-one radial weights.

Two variants are provided.  The plain variant pairs ``u = |x|^(1-eps) x_1/|x|``
with the bounded weight ``theta*I + (1-theta) xhat (x) xhat``; the degenerate
variant multiplies ``u`` by ``|x|^(eps/2)`` and the weight by ``|x|^(-eps/2)``,
which leaves the weight's condition number at most 2 but makes it unbounded.
Both have limited higher integrability of the gradient, with the loss exactly
at the exponent where rho * eps reaches the dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weight_algebra import Field, euclidean_norm

__all__ = ["SingularPointError", "MeyersExample"]

_MIN_RADIUS = 1e-300


class SingularPointError(ValueError):
    """Raised when a closed-form example is evaluated at (or too near) the origin."""


def _as_points(points: np.ndarray, n: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != n:
        raise ValueError(f"expected points in R^{n}, got shape {pts.shape}")
    return pts


def _radii(pts: np.ndarray) -> np.ndarray:
    r = euclidean_norm(pts)
    if np.any(r < _MIN_RADIUS):
        raise SingularPointError("evaluation at |x| < 1e-300 rejected")
    return r


def _identity_plus_outer(xhat: np.ndarray, diag: float, coef: float) -> np.ndarray:
    """``diag * I + coef * xhat (x) xhat`` for each row, one matrix entry at a time.

    The products are summed onto +0.0, as ``np.einsum`` sums an outer product,
    so an entry on a coordinate axis gets the same sign of zero.
    """
    m, n = xhat.shape
    out = np.empty((m, n, n))
    for i in range(n):
        for j in range(i, n):
            outer = 0.0 + xhat[:, i] * xhat[:, j]
            out[:, i, j] = out[:, j, i] = diag * float(i == j) + coef * outer
    return out


@dataclass(frozen=True)
class MeyersExample:
    """Exact solution / weight pair with a tunable singularity strength eps."""

    n: int
    eps: float
    variant: str = "plain"
    theta_override: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if not (0.0 < self.eps <= 0.5):
            raise ValueError(f"eps must lie in (0, 1/2], got {self.eps}")
        if self.variant not in ("plain", "degenerate"):
            raise ValueError(f"unknown variant {self.variant!r}")

    # -- scalars ------------------------------------------------------------

    @property
    def theta(self) -> float:
        if self.theta_override is not None:
            return self.theta_override
        e, n = self.eps, self.n
        if self.variant == "plain":
            return math.sqrt(1.0 - e - e * (1.0 - e) / (n - 1))
        return math.sqrt(1.0 - e / 2.0 - e * (1.0 - e) / (2.0 * (n - 1)))

    @property
    def grad_exponent(self) -> float:
        """Power a with |grad u| ~ |x|^-a."""
        return self.eps if self.variant == "plain" else self.eps / 2.0

    @property
    def cond_bound(self) -> float:
        return 1.0 / self.theta

    def divergence_coefficient(self) -> float:
        """Coefficient multiplying the radial singular term of div(M^2 grad u).

        Vanishes exactly at the variant's theta, which is how theta is chosen.
        """
        e, n, th = self.eps, self.n, self.theta
        if self.variant == "plain":
            return -e * (1.0 - e) + (1.0 - e - th * th) * (n - 1)
        return -(e / 2.0) * (1.0 - e) + (1.0 - e / 2.0 - th * th) * (n - 1)

    # -- fields -------------------------------------------------------------

    def u(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points, self.n)
        r = _radii(pts)
        return pts[:, 0] * r ** (-self.grad_exponent)

    def u_with_origin(self, points: np.ndarray) -> np.ndarray:
        """Continuous extension of u for nodal interpolation (u -> 0 at the origin)."""
        pts = _as_points(points, self.n)
        r = euclidean_norm(pts)
        out = np.zeros(r.shape)
        ok = r >= _MIN_RADIUS
        out[ok] = pts[ok, 0] * r[ok] ** (-self.grad_exponent)
        return out

    def grad_u(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points, self.n)
        r = _radii(pts)
        a = self.grad_exponent
        xhat = pts / r[:, None]
        e1 = np.zeros(self.n)
        e1[0] = 1.0
        return (r ** (-a))[:, None] * (e1[None, :] - a * xhat * xhat[:, :1])

    def weight(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points, self.n)
        r = _radii(pts)
        xhat = pts / r[:, None]
        th = self.theta
        m = _identity_plus_outer(xhat, th, 1.0 - th)
        if self.variant == "degenerate":
            m = (r ** (-self.eps / 2.0))[:, None, None] * m
        return m

    def log_weight(self, points: np.ndarray) -> np.ndarray:
        """Closed-form matrix logarithm: log(theta) (I - xhat (x) xhat), plus
        a -eps/2 log|x| multiple of the identity in the degenerate variant."""
        pts = _as_points(points, self.n)
        r = _radii(pts)
        xhat = pts / r[:, None]
        lt = math.log(self.theta)
        h = _identity_plus_outer(xhat, lt, -lt)
        if self.variant == "degenerate":
            h = h - (self.eps / 2.0 * np.log(r))[:, None, None] * np.eye(self.n)[None, :, :]
        return h

    def omega(self, points: np.ndarray) -> np.ndarray:
        """Spectral norm of the weight: 1 (plain) or |x|^(-eps/2) (degenerate)."""
        pts = _as_points(points, self.n)
        r = _radii(pts)
        if self.variant == "plain":
            return np.ones_like(r)
        return r ** (-self.eps / 2.0)

    def flux(self, points: np.ndarray) -> np.ndarray:
        """Closed form of M^2 grad u (the p = 2 weighted flux)."""
        pts = _as_points(points, self.n)
        r = _radii(pts)
        xhat = pts / r[:, None]
        th2 = self.theta ** 2
        e1 = np.zeros(self.n)
        e1[0] = 1.0
        if self.variant == "plain":
            coef = 1.0 - self.eps - th2
            pref = r ** (-self.eps)
        else:
            coef = 1.0 - self.eps / 2.0 - th2
            pref = r ** (-1.5 * self.eps)
        return pref[:, None] * (th2 * e1[None, :] + coef * xhat * xhat[:, :1])

    # -- integrability ------------------------------------------------------

    def integrability(self, rho: float) -> dict[str, str]:
        """Classify finiteness of the rho-integrals of |grad u| and |grad u| omega.

        The borderline exponent is classified as infinite.
        """
        if rho < 1:
            raise ValueError("rho must be at least 1")
        grad_pow = rho * self.grad_exponent
        weighted_pow = grad_pow if self.variant == "plain" else rho * self.eps
        fin = lambda power: "finite" if power < self.n else "infinite"
        return {"grad": fin(grad_pow), "weighted_grad": fin(weighted_pow)}

    # -- field wrappers -----------------------------------------------------

    def weight_field(self) -> Field:
        origin = (0.0,) * self.n
        return Field(
            self.n,
            self.weight,
            f"{self.variant}-meyers(n={self.n}, eps={self.eps:g})",
            (origin,),
            self.cond_bound,
            self.log_weight,
        )

    def scalar_weight(self) -> Field:
        origin = (0.0,) * self.n
        if self.variant == "plain":
            log_fn = lambda pts: np.zeros(pts.shape[0])
        else:
            e = self.eps
            log_fn = lambda pts: -(e / 2.0) * np.log(euclidean_norm(pts))
        return Field(
            self.n, self.omega, f"|{self.variant}-meyers|", (origin,), log_fn=log_fn
        )

