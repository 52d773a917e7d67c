"""SPD matrix calculus, ball quadrature, and logarithmic means of weight fields.

Batched matrix functions of 2x2 symmetric matrices use the closed-form
eigenvalues and spectral projection; other sizes, and the single-matrix
functions, use symmetric eigendecomposition.  All field evaluators are
batched: they map an ``(m, n)`` array of points to ``(m,)`` scalars or
``(m, n, n)`` matrices, and they must be stateless and act row by row, since
ball quadrature evaluates the nodes of several balls in one call.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "NotSymmetricError",
    "NotPositiveDefiniteError",
    "QuadratureFailureError",
    "SYMMETRY_RTOL",
    "symmetrize",
    "spd_exp",
    "spd_log",
    "condition_number",
    "sym_exp_batched",
    "sym_log_batched",
    "spectral_norm_sym",
    "lambda_max_sym",
    "euclidean_norm",
    "Ball",
    "QuadratureSpec",
    "DEFAULT_QUAD",
    "MEAN_QUAD",
    "ball_nodes",
    "node_batches",
    "Field",
    "log_mean_scalar",
    "log_mean_matrix",
    "SandwichReport",
    "sandwich_check",
    "constant_weight",
    "identity_weight",
    "weight_from_config",
    "scalar_weight_from_config",
    "WEIGHT_KINDS",
    "SCALAR_WEIGHT_KINDS",
]

SYMMETRY_RTOL = 1e-12


class NotSymmetricError(ValueError):
    """Raised when a matrix argument is not symmetric within tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix argument has a non-positive eigenvalue."""


class QuadratureFailureError(RuntimeError):
    """Raised when a quadrature rule cannot avoid the singular points."""


# ---------------------------------------------------------------------------
# pointwise SPD matrix functions
# ---------------------------------------------------------------------------

def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {m.shape}")
    asym = np.abs(m - m.T)
    scale = 1.0 + np.abs(m)
    if np.any(asym > SYMMETRY_RTOL * scale):
        raise NotSymmetricError("matrix is not symmetric within 1e-12 relative tolerance")
    return 0.5 * (m + m.T)


def symmetrize(m: np.ndarray, warn: bool = True) -> np.ndarray:
    """Return ``(m + m.T) / 2``, warning if the defect exceeds tolerance."""
    m = np.asarray(m, dtype=float)
    asym = np.abs(m - m.T)
    if warn and np.any(asym > SYMMETRY_RTOL * (1.0 + np.abs(m))):
        warnings.warn("symmetrizing a matrix with defect above 1e-12", stacklevel=2)
    return 0.5 * (m + m.T)


def spd_exp(h: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix via eigendecomposition.

    The result is symmetric positive definite.
    """
    h = _check_symmetric(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(w)) @ v.T


def spd_log(m: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a symmetric positive definite matrix.

    Inverse of :func:`spd_exp`; ``spd_log(inv(M)) == -spd_log(M)``.
    """
    m = _check_symmetric(m)
    w, v = np.linalg.eigh(m)
    if w.min() <= 0.0:
        raise NotPositiveDefiniteError(f"matrix has eigenvalue {w.min():g} <= 0")
    return (v * np.log(w)) @ v.T


def condition_number(m: np.ndarray) -> float:
    """Spectral condition number lambda_max / lambda_min of an SPD matrix."""
    m = _check_symmetric(m)
    w = np.linalg.eigvalsh(m)
    if w.min() <= 0.0:
        raise NotPositiveDefiniteError(f"matrix has eigenvalue {w.min():g} <= 0")
    return float(w.max() / w.min())


# ---------------------------------------------------------------------------
# batched symmetric matrix functions (2x2 closed form, eigh otherwise)
# ---------------------------------------------------------------------------

def _sym_parts(s: np.ndarray):
    """``a, b, d, mean, disc`` of a stack of symmetric 2x2 matrices ``[[a, b], [b, d]]``.

    The eigenvalues are ``mean - disc`` and ``mean + disc``.
    """
    a = s[..., 0, 0]
    b = 0.5 * (s[..., 0, 1] + s[..., 1, 0])
    d = s[..., 1, 1]
    mean = 0.5 * (a + d)
    disc = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + b * b, 0.0))
    return a, b, d, mean, disc


def _sym_apply_2x2(s: np.ndarray, fn) -> np.ndarray:
    a, b, d, mean, disc = _sym_parts(s)
    lo, hi = mean - disc, mean + disc
    flo, fhi = fn(lo), fn(hi)
    out = np.empty_like(s)
    # spectral projection: S = lo*P_lo + hi*P_hi with P_hi = (S - lo*I)/(hi - lo)
    sep = disc > 1e-14 * (1.0 + np.abs(mean))
    if sep.all():
        coef = (fhi - flo) / (hi - lo)
        base = flo - coef * lo
    else:
        denom = np.where(sep, hi - lo, 1.0)
        coef = np.where(sep, (fhi - flo) / denom, 0.0)
        base = np.where(sep, flo - coef * lo, 0.5 * (flo + fhi))
    out[..., 0, 0] = base + coef * a
    out[..., 0, 1] = coef * b
    out[..., 1, 0] = coef * b
    out[..., 1, 1] = base + coef * d
    return out


def _sym_eigvals(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of symmetric matrices, ascending."""
    if s.shape[-1] == 2:
        *_, mean, disc = _sym_parts(s)
        return np.stack([mean - disc, mean + disc], axis=-1)
    return np.linalg.eigvalsh(s)


def _sym_apply(s: np.ndarray, fn) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape[-1] == 2:
        return _sym_apply_2x2(s, fn)
    w, v = np.linalg.eigh(s)
    return np.einsum("...ik,...k,...jk->...ij", v, fn(w), v)


def sym_exp_batched(h: np.ndarray) -> np.ndarray:
    """Exponential of a stack ``(..., n, n)`` of symmetric matrices."""
    return _sym_apply(h, np.exp)


def sym_log_batched(m: np.ndarray) -> np.ndarray:
    """Logarithm of a stack of SPD matrices; raises on non-positive spectra."""
    m = np.asarray(m, dtype=float)
    w = _sym_eigvals(m)
    wmin = w.min()
    if wmin <= 0.0:
        raise NotPositiveDefiniteError(f"batch contains eigenvalue {wmin:g} <= 0")
    return _sym_apply(m, np.log)


def spectral_norm_sym(s: np.ndarray) -> np.ndarray:
    """Spectral norm of a stack of symmetric matrices."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1] == 2:
        *_, mean, disc = _sym_parts(s)
        return np.maximum(np.abs(mean - disc), np.abs(mean + disc))
    return np.abs(np.linalg.eigvalsh(s)).max(axis=-1)


def lambda_max_sym(s: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of a stack of symmetric matrices."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1] == 2:
        *_, mean, disc = _sym_parts(s)
        return mean + disc
    return np.linalg.eigvalsh(s)[..., -1]


def euclidean_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, summed one component at a time.

    Gives the same bits as ``np.linalg.norm(x, axis=-1)`` without a numpy
    reduction over an axis of length 2 or 3.
    """
    sq = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        sq = sq + x[..., k] * x[..., k]
    return np.sqrt(sq)


# ---------------------------------------------------------------------------
# balls and quadrature
# ---------------------------------------------------------------------------

def _unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class Ball:
    """Open ball given by its center and radius."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        return _unit_ball_volume(self.dim) * self.radius ** self.dim

    def scaled(self, factor: float) -> "Ball":
        return Ball(self.center, self.radius * factor)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return euclidean_norm(pts - np.asarray(self.center)) < self.radius


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature rule on a ball.

    ``polar-midpoint`` uses midpoint nodes in radius and angle (never placing
    a node at the ball center), ``monte-carlo`` uses seeded uniform sampling.
    ``resolution`` is either a total point count or a (radial, angular) pair.
    """

    scheme: str = "polar-midpoint"
    resolution: int | tuple[int, int] = (64, 32)
    seed: int | None = None

    def __post_init__(self):
        if self.scheme not in ("polar-midpoint", "monte-carlo"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if isinstance(self.resolution, tuple):
            total = self.resolution[0] * self.resolution[1]
            object.__setattr__(self, "resolution", tuple(int(r) for r in self.resolution))
        else:
            total = int(self.resolution)
            object.__setattr__(self, "resolution", total)
        if total < 16:
            raise ValueError("quadrature resolution must be at least 16 nodes")
        if self.scheme == "monte-carlo" and self.seed is None:
            raise ValueError("monte-carlo quadrature requires a seed")

    def counts(self) -> tuple[int, int]:
        if isinstance(self.resolution, tuple):
            return self.resolution
        n_ang = 32
        return max(2, int(self.resolution) // n_ang), n_ang

    def refined(self, factor: int = 4) -> "QuadratureSpec":
        if isinstance(self.resolution, tuple):
            res = (self.resolution[0] * factor, self.resolution[1])
        else:
            res = int(self.resolution) * factor
        return replace(self, resolution=res)


#: default rule for BMO / Muckenhoupt sampling
DEFAULT_QUAD = QuadratureSpec("polar-midpoint", (64, 32))
#: high radial resolution default for logarithmic means (log-singular radial
#: integrands need ~500 radial cells for 1e-6 accuracy)
MEAN_QUAD = QuadratureSpec("polar-midpoint", (512, 32))


def _fibonacci_sphere(count: int) -> np.ndarray:
    k = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / count
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


#: nodes per field evaluation in batched ball quadrature; a ball with more
#: nodes is evaluated alone.  4,096 2x2 matrices take 128 KiB: on a 2-core
#: Xeon the ``weights`` benchmark ran slower with 8,192 and 16,384, and used
#: more memory.  Each ball's nodes and sums are the same for any batch size.
BATCH_NODES = 4096


def _polar_template(dim: int, radius: float, nr: int, na: int):
    """Polar-midpoint nodes of a ball of ``radius`` centered at the origin."""
    rho = (np.arange(nr) + 0.5) * (radius / nr)
    dr = radius / nr
    if dim == 2:
        theta = (np.arange(na) + 0.5) * (2.0 * math.pi / na)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        w = (rho[:, None] * dr * (2.0 * math.pi / na)) * np.ones((1, na))
    elif dim == 3:
        dirs = _fibonacci_sphere(na)
        w = (rho[:, None] ** 2 * dr * (4.0 * math.pi / na)) * np.ones((1, na))
    else:
        raise ValueError("polar-midpoint quadrature supports dimensions 2 and 3")
    return (rho[:, None, None] * dirs[None, :, :]).reshape(-1, dim), w.reshape(-1)


def _min_distance(pts: np.ndarray, sing: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest of the points ``sing``."""
    d = euclidean_norm(pts - sing[0])
    for s in sing[1:]:
        d = np.minimum(d, euclidean_norm(pts - s))
    return d


def _monte_carlo_nodes(ball: Ball, quad: QuadratureSpec, sing):
    """Seeded uniform nodes; those falling onto a singular point are resampled."""
    rng = np.random.default_rng(quad.seed)
    count = quad.resolution if isinstance(quad.resolution, int) else (
        quad.resolution[0] * quad.resolution[1]
    )
    n = ball.dim
    pts = np.empty((count, n))
    filled = 0
    for _ in range(100):
        need = count - filled
        if need == 0:
            break
        g = rng.standard_normal((need, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        rad = ball.radius * rng.random(need) ** (1.0 / n)
        cand = np.asarray(ball.center) + g * rad[:, None]
        if sing is not None:
            cand = cand[_min_distance(cand, sing) > 1e-13 * ball.radius]
        take = min(len(cand), need)
        pts[filled:filled + take] = cand[:take]
        filled += take
    if filled < count:
        raise QuadratureFailureError("monte-carlo sampler kept hitting singular points")
    return pts, np.full(count, ball.volume / count)


def node_batches(
    balls,
    quad: QuadratureSpec = DEFAULT_QUAD,
    clip: Ball | None = None,
    singular: np.typing.ArrayLike | None = None,
):
    """Quadrature nodes of a sequence of balls, a batch of balls at a time.

    Yields ``(start, pts, w, cuts)``: ball ``start + k`` has the nodes
    ``pts[cuts[k]:cuts[k + 1]]`` with absolute weights ``w[cuts[k]:cuts[k + 1]]``,
    exactly those :func:`ball_nodes` gives it.  A polar-midpoint batch holds
    consecutive balls of one radius, which share a node template, and at most
    :data:`BATCH_NODES` nodes unless one ball alone has more; a monte-carlo
    batch holds one ball.
    """
    sing = None
    if singular is not None and len(singular):
        sing = np.atleast_2d(np.asarray(singular, dtype=float))
    polar = quad.scheme == "polar-midpoint"
    if polar:
        nr, na = quad.counts()
        per_batch = max(1, BATCH_NODES // (nr * na))
    tmpl_radius = None
    start = 0
    while start < len(balls):
        radius = balls[start].radius
        stop = start + 1
        if polar:
            while (stop < len(balls) and stop - start < per_batch
                   and balls[stop].radius == radius):
                stop += 1
            if radius != tmpl_radius:
                tmpl, w_tmpl = _polar_template(balls[start].dim, radius, nr, na)
                tmpl_radius = radius
            centers = np.array([b.center for b in balls[start:stop]])
            pts = tmpl[None, :, :] + centers[:, None, :]
            w = np.tile(w_tmpl, (stop - start, 1))
            keep = None if sing is None else _min_distance(pts, sing) > 1e-13 * radius
        else:
            pts, w = _monte_carlo_nodes(balls[start], quad, sing)
            pts, w, keep = pts[None], w[None], None
        if clip is not None:
            inside = clip.contains(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape[:2])
            keep = inside if keep is None else keep & inside
        if keep is None or keep.all():
            size = pts.shape[1]
            cuts = list(range(0, size * (stop - start) + 1, size))
            pts, w = pts.reshape(-1, pts.shape[-1]), w.reshape(-1)
        else:
            cuts = [0] + np.cumsum(keep.sum(axis=1)).tolist()
            pts, w = pts[keep], w[keep]
        yield start, pts, w, cuts
        start = stop


def ball_nodes(
    ball: Ball,
    quad: QuadratureSpec = DEFAULT_QUAD,
    clip: Ball | None = None,
    singular: np.typing.ArrayLike | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and absolute weights for integration over a ball.

    Weights sum to (approximately) the ball volume.  Nodes outside ``clip``
    are dropped, which turns the rule into one for the intersection.  Nodes
    falling onto a singular point are dropped (polar) or resampled
    (monte-carlo).
    """
    _, pts, w, _ = next(node_batches((ball,), quad, clip, singular))
    return pts, w


# ---------------------------------------------------------------------------
# weight fields
# ---------------------------------------------------------------------------

def _is_matrix(values: np.ndarray) -> bool:
    """A field is matrix valued when it returns ``(m, n, n)`` stacks."""
    return np.ndim(values) == 3


@dataclass(frozen=True)
class Field:
    """Scalar or symmetric-matrix field on points, with an optional closed-form log.

    Whether the field is scalar or matrix valued is read from the rank of what
    ``fn`` returns: ``(m,)`` scalars or ``(m, n, n)`` matrices.  A weight is a
    positive (definite) field; ``cond_bound`` bounds a matrix weight's
    condition number, and ``log_fn``, when given, is its exact logarithm.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    singular_points: tuple[tuple[float, ...], ...] = ()
    cond_bound: float | None = None
    log_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(np.asarray(points, dtype=float))), dtype=float)

    def log(self) -> "Field":
        base = self.fn

        def fn(pts):
            v = base(pts)
            return sym_log_batched(v) if _is_matrix(v) else np.log(v)

        return replace(
            self, fn=self.log_fn or fn, label=f"log({self.label})", cond_bound=None, log_fn=None
        )

    def omega(self) -> "Field":
        """Derived scalar weight: the spectral norm of a matrix, |w| of a scalar."""
        base, logf = self.fn, self.log_fn

        def fn(pts):
            v = base(pts)
            return spectral_norm_sym(v) if _is_matrix(v) else np.abs(v)

        def log_fn(pts):
            h = logf(pts)
            # |exp(H)| = exp(lambda_max(H)), so log omega = lambda_max(log M)
            return lambda_max_sym(h) if _is_matrix(h) else h

        return replace(
            self, fn=fn, label=f"|{self.label}|", cond_bound=None,
            log_fn=log_fn if logf is not None else None,
        )

    def inverse(self) -> "Field":
        base, logf = self.fn, self.log_fn

        def fn(pts):
            v = base(pts)
            return np.linalg.inv(v) if _is_matrix(v) else 1.0 / v

        return replace(
            self, fn=fn, label=f"({self.label})^-1",
            log_fn=(lambda pts: -logf(pts)) if logf is not None else None,
        )

    def scaled(self, t: float) -> "Field":
        if t <= 0:
            raise ValueError("scale factor must be positive")
        base, logf, dim = self.fn, self.log_fn, self.dim

        def log_fn(pts):
            h = logf(pts)
            return h + math.log(t) * np.eye(dim) if _is_matrix(h) else math.log(t) + h

        return replace(
            self, fn=lambda pts: t * base(pts), label=f"{t:g}*({self.label})",
            log_fn=log_fn if logf is not None else None,
        )

    def measured_condition(self, points: np.ndarray) -> float:
        w = _sym_eigvals(self.evaluate(points))
        if w.min() <= 0:
            raise NotPositiveDefiniteError("weight field is not positive definite at a sample")
        return float((w.max(axis=-1) / w.min(axis=-1)).max())


# the benchmark's tracer (perfbench/tracing.py) wraps ``evaluate`` on these
# four former class names; they stay as aliases until it wraps Field itself
ScalarField = MatrixField = ScalarWeightField = WeightField = Field


# ---------------------------------------------------------------------------
# logarithmic means
# ---------------------------------------------------------------------------

def log_mean_scalar(
    omega: Field,
    ball: Ball,
    quad: QuadratureSpec = MEAN_QUAD,
    nodes: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """exp of the ball average of log(omega): the multiplicative mean.

    ``nodes`` is the ``(points, weights)`` pair of ``ball_nodes(ball, quad,
    singular=...)`` for omega's singular points, when the caller has built it.
    """
    if nodes is None:
        nodes = ball_nodes(ball, quad, singular=omega.singular_points)
    pts, w = nodes
    if omega.log_fn is not None:
        logs = omega.log_fn(pts)
    else:
        vals = omega.evaluate(pts)
        if np.any(vals <= 0.0):
            raise NotPositiveDefiniteError("scalar weight is not positive at a quadrature node")
        logs = np.log(vals)
    return float(np.exp(np.sum(w * logs) / np.sum(w)))


def log_mean_matrix(
    M: Field,
    ball: Ball,
    quad: QuadratureSpec = MEAN_QUAD,
    nodes: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """exp of the ball average of log(M); commutes with pointwise inversion.

    ``nodes`` is as for :func:`log_mean_scalar`.
    """
    if nodes is None:
        nodes = ball_nodes(ball, quad, singular=M.singular_points)
    pts, w = nodes
    if M.log_fn is not None:
        logs = M.log_fn(pts)
    else:
        logs = sym_log_batched(M.evaluate(pts))
    mean = np.einsum("m,mij->ij", w, logs) / np.sum(w)
    return spd_exp(symmetrize(mean, warn=False))


@dataclass(frozen=True)
class SandwichReport:
    """Eigenvalue margins of Lambda^-1 * omega_B * I <= M_B <= omega_B * I."""

    holds: bool
    lower_margin: float
    upper_margin: float
    matrix_mean: np.ndarray
    scalar_mean: float


def sandwich_check(
    M: Field, ball: Ball, quad: QuadratureSpec = MEAN_QUAD
) -> SandwichReport:
    """Check the two-sided comparison of the matrix log-mean with the scalar one."""
    if M.cond_bound is None:
        raise ValueError("sandwich_check requires the field's condition bound")
    m_b = log_mean_matrix(M, ball, quad)
    omega_b = log_mean_scalar(M.omega(), ball, quad)
    w = np.linalg.eigvalsh(m_b)
    lower = float(w.min() - omega_b / M.cond_bound)
    upper = float(omega_b - w.max())
    tol = 1e-10 * omega_b
    return SandwichReport(lower >= -tol and upper >= -tol, lower, upper, m_b, omega_b)


# ---------------------------------------------------------------------------
# registry of named analytic weight families
# ---------------------------------------------------------------------------

def constant_weight(matrix: np.ndarray, label: str = "constant") -> Field:
    m = _check_symmetric(matrix)
    w = np.linalg.eigvalsh(m)
    if w.min() <= 0:
        raise NotPositiveDefiniteError("constant weight must be positive definite")
    logm = spd_log(m)
    return Field(
        m.shape[0],
        lambda pts: np.broadcast_to(m, pts.shape[:1] + m.shape).copy(),
        label,
        (),
        float(w.max() / w.min()),
        lambda pts: np.broadcast_to(logm, pts.shape[:1] + logm.shape).copy(),
    )


def identity_weight(dim: int) -> Field:
    return constant_weight(np.eye(dim), "identity")


def _log_normal_weight(dim: int, seed: int, sigma: float, modes: int) -> Field:
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((modes, dim, dim))
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2)) * (sigma / math.sqrt(modes))
    waves = rng.integers(-2, 3, size=(modes, dim)).astype(float)
    phases = rng.random(modes) * 2.0 * math.pi

    def log_fn(pts: np.ndarray) -> np.ndarray:
        osc = np.cos(2.0 * math.pi * pts @ waves.T + phases)  # (m, modes)
        return np.einsum("mk,kij->mij", osc, mats)

    norm_sum = float(np.abs(np.linalg.eigvalsh(mats)).max(axis=-1).sum())
    return Field(
        dim,
        lambda pts: sym_exp_batched(log_fn(pts)),
        f"log-normal(seed={seed})",
        (),
        math.exp(2.0 * norm_sum),
        log_fn,
    )


def weight_from_config(cfg: Mapping) -> Field:
    """Build a matrix weight from a structured config mapping.

    Supported kinds: ``constant``, ``identity``, ``rank-one-radial``
    (the bounded Meyers-type weight), ``power-radial`` (its degenerate
    power-singular variant), and ``log-normal`` (seeded random field).
    """
    kind = cfg.get("kind")
    if kind in ("rank-one-radial", "power-radial"):
        from . import exact_examples

        ex = exact_examples.MeyersExample(
            n=int(cfg.get("n", 2)),
            eps=float(cfg["eps"]),
            variant="plain" if kind == "rank-one-radial" else "degenerate",
        )
        return ex.weight_field()
    if kind == "constant":
        return constant_weight(np.asarray(cfg["matrix"], dtype=float))
    if kind == "identity":
        return identity_weight(int(cfg.get("n", 2)))
    if kind == "log-normal":
        return _log_normal_weight(
            int(cfg.get("n", 2)),
            int(cfg["seed"]),
            float(cfg.get("sigma", 0.3)),
            int(cfg.get("modes", 4)),
        )
    raise KeyError(f"unknown weight kind {kind!r}; known kinds: {sorted(WEIGHT_KINDS)}")


def scalar_weight_from_config(cfg: Mapping) -> Field:
    """Build a scalar weight: ``constant`` without a ``matrix``, ``power``
    (|x|^a), or |M| of the matrix weight."""
    kind = cfg.get("kind")
    if kind == "constant" and "matrix" not in cfg:
        c = float(cfg.get("value", 1.0))
        if c <= 0:
            raise NotPositiveDefiniteError("constant scalar weight must be positive")
        dim = int(cfg.get("n", 2))
        return Field(
            dim,
            lambda pts: np.full(pts.shape[0], c),
            f"constant({c:g})",
            log_fn=lambda pts: np.full(pts.shape[0], math.log(c)),
        )
    if kind == "power":
        a = float(cfg["exponent"])
        dim = int(cfg.get("n", 2))
        origin = (0.0,) * dim
        return Field(
            dim,
            lambda pts: euclidean_norm(pts) ** a,
            f"|x|^{a:g}",
            (origin,),
            log_fn=lambda pts: a * np.log(euclidean_norm(pts)),
        )
    return weight_from_config(cfg).omega()


WEIGHT_KINDS = ("constant", "identity", "rank-one-radial", "power-radial", "log-normal")
SCALAR_WEIGHT_KINDS = ("constant", "power") + WEIGHT_KINDS[1:]
