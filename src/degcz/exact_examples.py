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
        if self.theta_override is not None and not (0.0 < self.theta_override <= 1.0):
            raise ValueError(f"theta_override must lie in (0, 1], got {self.theta_override}")

    # -- scalars ------------------------------------------------------------

    @property
    def weight_exponent(self) -> float:
        """Power b with |M| ~ |x|^-b: 0 (plain) or eps/2 (degenerate)."""
        return self.eps / 2.0 if self.variant == "degenerate" else 0.0

    @property
    def grad_exponent(self) -> float:
        """Power a with |grad u| ~ |x|^-a; a + b = eps in both variants."""
        return self.eps - self.weight_exponent

    @property
    def theta(self) -> float:
        if self.theta_override is not None:
            return self.theta_override
        e, n, a = self.eps, self.n, self.grad_exponent
        return math.sqrt(1.0 - a - a * (1.0 - e) / (n - 1))

    @property
    def cond_bound(self) -> float:
        return 1.0 / self.theta

    def divergence_coefficient(self) -> float:
        """Coefficient multiplying the radial singular term of div(M^2 grad u).

        Vanishes exactly at the variant's theta, which is how theta is chosen.
        """
        e, n, a, th = self.eps, self.n, self.grad_exponent, self.theta
        return -a * (1.0 - e) + (1.0 - a - th * th) * (n - 1)

    # -- fields -------------------------------------------------------------

    def _polar(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = _as_points(points, self.n)
        r = _radii(pts)
        # one coordinate column at a time, as for pts / r[:, None]
        xhat = np.empty_like(pts)
        for k in range(self.n):
            np.divide(pts[:, k], r, out=xhat[:, k])
        return r, xhat

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
        r, xhat = self._polar(points)
        a = self.grad_exponent
        return (r ** (-a))[:, None] * (np.eye(self.n)[:1] - a * xhat * xhat[:, :1])

    def weight(self, points: np.ndarray) -> np.ndarray:
        r, xhat = self._polar(points)
        th, b = self.theta, self.weight_exponent
        m = _identity_plus_outer(xhat, th, 1.0 - th)
        if b:
            m = (r ** -b)[:, None, None] * m
        return m

    def log_weight(self, points: np.ndarray) -> np.ndarray:
        """Closed-form matrix logarithm: log(theta) (I - xhat (x) xhat) - b log|x| I."""
        r, xhat = self._polar(points)
        lt, b = math.log(self.theta), self.weight_exponent
        h = _identity_plus_outer(xhat, lt, -lt)
        if b:
            h = h - (b * np.log(r))[:, None, None] * np.eye(self.n)[None, :, :]
        return h

    def omega(self, points: np.ndarray) -> np.ndarray:
        """Spectral norm of the weight: |x|^-b (identically 1 when b = 0).

        The weight field's ``omega_fn``: theta <= 1, so the largest
        eigenvalue of theta*I + (1 - theta) xhat (x) xhat is 1.
        """
        pts = _as_points(points, self.n)
        r = _radii(pts)
        b = self.weight_exponent
        return r ** -b if b else np.ones_like(r)

    def flux(self, points: np.ndarray) -> np.ndarray:
        """Closed form of M^2 grad u (the p = 2 weighted flux)."""
        r, xhat = self._polar(points)
        th2 = self.theta ** 2
        coef = 1.0 - self.grad_exponent - th2
        pref = r ** (-(self.eps + self.weight_exponent))
        return pref[:, None] * (th2 * np.eye(self.n)[:1] + coef * xhat * xhat[:, :1])

    # -- integrability ------------------------------------------------------

    def integrability(self, rho: float) -> dict[str, str]:
        """Classify finiteness of the rho-integrals of |grad u| and |grad u| omega.

        |grad u| omega ~ |x|^-eps in both variants, hence one threshold rho * eps = n.
        The borderline exponent is classified as infinite.
        """
        if rho < 1:
            raise ValueError("rho must be at least 1")
        fin = lambda power: "finite" if power < self.n else "infinite"
        return {"grad": fin(rho * self.grad_exponent), "weighted_grad": fin(rho * self.eps)}

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
            self.omega,
        )

    def scalar_weight(self) -> Field:
        origin = (0.0,) * self.n
        b = self.weight_exponent
        if b:
            log_fn = lambda pts: -b * np.log(euclidean_norm(pts))
        else:
            log_fn = lambda pts: np.zeros(pts.shape[0])
        return Field(
            self.n, self.omega, f"|{self.variant}-meyers|", (origin,), log_fn=log_fn
        )

