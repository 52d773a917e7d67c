"""SPD matrix calculus, ball quadrature, and logarithmic means of weight fields.

Every symmetric-matrix function goes through one batched kernel: 2x2
stacks use the closed-form eigenvalues and spectral projection, other sizes
symmetric eigendecomposition, and the single-matrix functions
(:func:`spd_exp`, :func:`spd_log`) are stacks of one.  Balls are integrated by one
rule, polar-midpoint quadrature (:class:`QuadratureSpec`).  All field
evaluators are batched: they map an ``(m, n)`` array of points to ``(m,)``
scalars or ``(m, n, n)`` matrices, and they must be stateless and act row by
row, since :meth:`Field.evaluate` splits large point sets into chunks.  Ball
quadrature builds one node set per ball from a cached template per radius.
:func:`log_mean` gives the logarithmic mean of a scalar or a matrix field from
the logs that :meth:`Field.log` returns.  Every matrix weight of the registry
carries the closed form of its spectral norm omega = |M| (``Field.omega_fn``),
so :meth:`Field.omega` never forms M: a Meyers weight gives |x|^-b, the
log-normal weight exp(lambda_max(log M)) from its closed-form log, a constant
its one norm.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "NotSymmetricError",
    "NotPositiveDefiniteError",
    "SYMMETRY_RTOL",
    "spd_exp",
    "spd_log",
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
    "Field",
    "log_mean",
    "SandwichReport",
    "sandwich_check",
    "constant_weight",
    "identity_weight",
    "weight_from_config",
    "omega_and_matrix_from_config",
    "WEIGHT_KINDS",
    "SCALAR_WEIGHT_KINDS",
]

SYMMETRY_RTOL = 1e-12


class NotSymmetricError(ValueError):
    """Raised when a matrix argument is not symmetric within tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix argument has a non-positive eigenvalue."""


# ---------------------------------------------------------------------------
# symmetric matrix functions, one batched kernel (2x2 closed form, eigh otherwise)
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


def spd_exp(h: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix; the result is SPD."""
    return sym_exp_batched(_check_symmetric(h)[None])[0]


def spd_log(m: np.ndarray) -> np.ndarray:
    """Matrix logarithm of an SPD matrix, the inverse of :func:`spd_exp`."""
    return sym_log_batched(_check_symmetric(m)[None])[0]


def _eig2(a, b, d):
    """``mean, disc`` of the symmetric 2x2 matrices ``[[a, b], [b, d]]``, whose
    eigenvalues are ``mean - disc`` and ``mean + disc``."""
    # in place, in the operation order of 0.5 * (a + d) and
    # sqrt(0.25 * (a - d) ** 2 + b * b)
    mean = a + d
    mean *= 0.5
    disc = a - d
    disc *= disc
    disc *= 0.25
    disc += b * b
    return mean, np.sqrt(disc, out=disc if np.ndim(disc) else None)


def _sym_parts(s: np.ndarray):
    """``a, b, d, mean, disc`` of a stack of symmetric 2x2 matrices (:func:`_eig2`)."""
    a = s[..., 0, 0]
    b = 0.5 * (s[..., 0, 1] + s[..., 1, 0])
    d = s[..., 1, 1]
    return (a, b, d) + _eig2(a, b, d)


def _sym_eigvals(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of symmetric matrices, ascending."""
    if s.shape[-1] == 2:
        *_, mean, disc = _sym_parts(s)
        return np.stack([mean - disc, mean + disc], axis=-1)
    return np.linalg.eigvalsh(s)


def _sym_apply(s: np.ndarray, fn) -> np.ndarray:
    """``fn`` of a stack of symmetric matrices, applied to the eigenvalues;
    ``fn`` sees the smaller eigenvalues first."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1] != 2:
        w, v = np.linalg.eigh(s)
        return np.einsum("...ik,...k,...jk->...ij", v, fn(w), v)
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


def _positive_log(w: np.ndarray) -> np.ndarray:
    wmin = w.min()
    if wmin <= 0.0:
        raise NotPositiveDefiniteError(f"batch contains eigenvalue {wmin:g} <= 0")
    return np.log(w)


def sym_exp_batched(h: np.ndarray) -> np.ndarray:
    """Exponential of a stack ``(..., n, n)`` of symmetric matrices."""
    return _sym_apply(h, np.exp)


def sym_log_batched(m: np.ndarray) -> np.ndarray:
    """Logarithm of a stack of SPD matrices; raises on non-positive spectra."""
    return _sym_apply(m, _positive_log)


def spectral_norm_sym(s: np.ndarray) -> np.ndarray:
    """Spectral norm of a stack of symmetric matrices.

    At n = 2 it is ``|mean| + disc``, the bits of ``max(|mean - disc|,
    |mean + disc|)`` wherever that maximum is not nan.  Where ``mean`` and
    ``disc`` are both infinite (an infinite entry, or finite entries so large
    that both overflow) it reads inf where the maximum reads nan; a nan entry
    gives nan.
    """
    s = np.asarray(s, dtype=float)
    if s.shape[-1] == 2:
        *_, mean, disc = _sym_parts(s)
        return np.abs(mean) + disc
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
    """Polar-midpoint quadrature rule on a ball.

    Midpoint nodes in radius and angle, never placing a node at the ball
    center; ``resolution`` is the (radial, angular) pair of node counts.
    """

    resolution: tuple[int, int] = (64, 32)

    def __post_init__(self):
        counts = tuple(int(r) for r in self.resolution)
        if len(counts) != 2 or min(counts) < 1 or counts[0] * counts[1] < 16:
            raise ValueError("quadrature resolution must be two positive counts with at "
                             f"least 16 nodes in all, got {list(self.resolution)}")
        object.__setattr__(self, "resolution", counts)

    def refined(self) -> "QuadratureSpec":
        """The rule with four times the radial resolution."""
        nr, na = self.resolution
        return QuadratureSpec((4 * nr, na))


#: default rule for BMO / Muckenhoupt sampling
DEFAULT_QUAD = QuadratureSpec((64, 32))
#: high radial resolution default for logarithmic means (log-singular radial
#: integrands need ~500 radial cells for 1e-6 accuracy)
MEAN_QUAD = QuadratureSpec((512, 32))


def _fibonacci_sphere(count: int) -> np.ndarray:
    k = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / count
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


#: points per field evaluation: :meth:`Field.evaluate` evaluates more points
#: in chunks of this many into one output array.  2,048 2x2 matrices take
#: 64 KiB, below glibc's 128 KiB mmap threshold, so the temporaries of a
#: chunk reuse heap memory instead of faulting in fresh pages.  Each point's
#: value is the same for any chunk size.
BATCH_NODES = 2048


@functools.lru_cache(maxsize=8)
def _polar_template(dim: int, radius: float, nr: int, na: int):
    """Read-only polar-midpoint nodes and weights of a ball of ``radius``
    centered at the origin; the last few templates are kept, since a ball
    family repeats each radius many times."""
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
    pts, w = (rho[:, None, None] * dirs[None, :, :]).reshape(-1, dim), w.reshape(-1)
    pts.flags.writeable = w.flags.writeable = False
    return pts, w


def _min_distance(pts: np.ndarray, sing: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest of the points ``sing``."""
    d = euclidean_norm(pts - sing[0])
    for s in sing[1:]:
        d = np.minimum(d, euclidean_norm(pts - s))
    return d


def ball_nodes(
    ball: Ball,
    quad: QuadratureSpec = DEFAULT_QUAD,
    clip: Ball | None = None,
    singular: np.typing.ArrayLike | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and absolute weights for integration over a ball.

    Weights sum to (approximately) the ball volume.  Nodes outside ``clip``
    are dropped, which turns the rule into one for the intersection, and so
    are nodes falling onto a singular point.  A mask is built only where a
    node can drop: against the singular points within ``radius * (1 + 1e-9)``
    of the center, and against ``clip`` when the outermost node ring comes
    within 1e-9 of its boundary, relative to the clip's radius plus the norm
    of its center.  When no node is dropped the weights are the shared
    read-only template of the ball's radius.
    """
    nr, na = quad.resolution
    tmpl, w = _polar_template(ball.dim, ball.radius, nr, na)
    # one coordinate column at a time: a broadcast over the short rows runs
    # numpy's inner loop once per node
    pts = np.empty_like(tmpl)
    for k, c in enumerate(ball.center):
        np.add(tmpl[:, k], c, out=pts[:, k])
    keep = None
    if singular is not None and len(singular):
        sing = np.atleast_2d(np.asarray(singular, dtype=float))
        sing = sing[euclidean_norm(sing - np.asarray(ball.center)) <= ball.radius * (1.0 + 1e-9)]
        if len(sing):
            keep = _min_distance(pts, sing) > 1e-13 * ball.radius
    if clip is not None:
        # the outermost node ring lies (nr - 0.5) / nr of the radius from the center
        reach = math.dist(ball.center, clip.center) + (nr - 0.5) * (ball.radius / nr)
        if reach >= clip.radius - 1e-9 * (clip.radius + math.hypot(*clip.center)):
            inside = clip.contains(pts)
            keep = inside if keep is None else keep & inside
    if keep is None or keep.all():
        return pts, w
    return pts[keep], w[keep]


# ---------------------------------------------------------------------------
# weight fields
# ---------------------------------------------------------------------------

def _is_matrix(values: np.ndarray) -> bool:
    """A field is matrix valued when it returns ``(m, n, n)`` stacks."""
    return np.ndim(values) == 3


@dataclass(frozen=True)
class Field:
    """Scalar or symmetric-matrix field on points, with optional closed forms
    of its log and its norm.

    Whether the field is scalar or matrix valued is read from the rank of what
    ``fn`` returns: ``(m,)`` scalars or ``(m, n, n)`` matrices.  A weight is a
    positive (definite) field; ``cond_bound`` bounds a matrix weight's
    condition number, ``log_fn``, when given, is its exact logarithm, and
    ``omega_fn``, when given, is the exact spectral norm |M|, which
    :meth:`omega` then evaluates without forming M.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    singular_points: tuple[tuple[float, ...], ...] = ()
    cond_bound: float | None = None
    log_fn: Callable[[np.ndarray], np.ndarray] | None = None
    omega_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values at ``points``, :data:`BATCH_NODES` points at a time into one
        output array."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(pts) <= BATCH_NODES:
            return np.asarray(self.fn(pts), dtype=float)
        first = np.asarray(self.fn(pts[:BATCH_NODES]), dtype=float)
        out = np.empty((len(pts),) + first.shape[1:])
        out[:BATCH_NODES] = first
        for start in range(BATCH_NODES, len(pts), BATCH_NODES):
            out[start:start + BATCH_NODES] = self.fn(pts[start:start + BATCH_NODES])
        return out

    def log(self) -> "Field":
        """The pointwise logarithm: ``log_fn`` when given, else the log of the
        values; raises :class:`NotPositiveDefiniteError` on a non-positive one."""
        base = self.fn

        def fn(pts):
            v = base(pts)
            if _is_matrix(v):
                return sym_log_batched(v)
            if np.any(v <= 0.0):
                raise NotPositiveDefiniteError("scalar weight is not positive at a point")
            return np.log(v)

        return replace(
            self, fn=self.log_fn or fn, label=f"log({self.label})", cond_bound=None,
            log_fn=None, omega_fn=None,
        )

    def omega(self) -> "Field":
        """Derived scalar weight: the spectral norm of a matrix, |w| of a scalar;
        ``omega_fn`` when given."""
        base, logf = self.fn, self.log_fn

        def fn(pts):
            v = base(pts)
            return spectral_norm_sym(v) if _is_matrix(v) else np.abs(v)

        def log_fn(pts):
            h = logf(pts)
            # |exp(H)| = exp(lambda_max(H)), so log omega = lambda_max(log M)
            return lambda_max_sym(h) if _is_matrix(h) else h

        return replace(
            self, fn=self.omega_fn or fn, label=f"|{self.label}|", cond_bound=None,
            log_fn=log_fn if logf is not None else None, omega_fn=None,
        )

    def inverse(self) -> "Field":
        base, logf = self.fn, self.log_fn

        def fn(pts):
            v = base(pts)
            return np.linalg.inv(v) if _is_matrix(v) else 1.0 / v

        return replace(
            self, fn=fn, label=f"({self.label})^-1",
            log_fn=(lambda pts: -logf(pts)) if logf is not None else None, omega_fn=None,
        )

    def scaled(self, t: float) -> "Field":
        if t <= 0:
            raise ValueError("scale factor must be positive")
        base, logf, omegaf, dim = self.fn, self.log_fn, self.omega_fn, self.dim

        def log_fn(pts):
            h = logf(pts)
            return h + math.log(t) * np.eye(dim) if _is_matrix(h) else math.log(t) + h

        return replace(
            self, fn=lambda pts: t * base(pts), label=f"{t:g}*({self.label})",
            log_fn=log_fn if logf is not None else None,
            omega_fn=(lambda pts: t * omegaf(pts)) if omegaf is not None else None,
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

def log_mean(
    field: Field,
    ball: Ball,
    quad: QuadratureSpec = MEAN_QUAD,
) -> float | np.ndarray:
    """The logarithmic mean exp(ball average of log field).

    A float for a scalar field, the multiplicative mean; an SPD matrix for a
    matrix field, which commutes with pointwise inversion.
    """
    pts, w = ball_nodes(ball, quad, singular=field.singular_points)
    logs = field.log().evaluate(pts)
    if not _is_matrix(logs):
        return float(np.exp(np.sum(w * logs) / np.sum(w)))
    mean = np.einsum("m,mij->ij", w, logs) / np.sum(w)
    return spd_exp(0.5 * (mean + mean.T))


@dataclass(frozen=True)
class SandwichReport:
    """Eigenvalue margins of Lambda^-1 * omega_B * I <= M_B <= omega_B * I."""

    holds: bool
    lower_margin: float
    upper_margin: float
    matrix_mean: np.ndarray


def sandwich_check(
    M: Field, ball: Ball, quad: QuadratureSpec = MEAN_QUAD
) -> SandwichReport:
    """Check the two-sided comparison of the matrix log-mean with the scalar one."""
    if M.cond_bound is None:
        raise ValueError("sandwich_check requires the field's condition bound")
    m_b = log_mean(M, ball, quad)
    omega_b = log_mean(M.omega(), ball, quad)
    w = _sym_eigvals(m_b)
    lower = float(w.min() - omega_b / M.cond_bound)
    upper = float(omega_b - w.max())
    tol = 1e-10 * omega_b
    return SandwichReport(lower >= -tol and upper >= -tol, lower, upper, m_b)


# ---------------------------------------------------------------------------
# registry of named analytic weight families
# ---------------------------------------------------------------------------

def constant_weight(matrix: np.ndarray, label: str = "constant") -> Field:
    m = _check_symmetric(matrix)
    w = _sym_eigvals(m)
    if w.min() <= 0:
        raise NotPositiveDefiniteError("constant weight must be positive definite")
    logm, norm = spd_log(m), float(w.max())
    return Field(
        m.shape[0],
        lambda pts: np.broadcast_to(m, pts.shape[:1] + m.shape).copy(),
        label,
        (),
        float(w.max() / w.min()),
        lambda pts: np.broadcast_to(logm, pts.shape[:1] + logm.shape).copy(),
        lambda pts: np.full(pts.shape[0], norm),
    )


def identity_weight(dim: int) -> Field:
    return constant_weight(np.eye(dim), "identity")


def _log_normal_weight(dim: int, seed: int, sigma: float, modes: int) -> Field:
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((modes, dim, dim))
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2)) * (sigma / math.sqrt(modes))
    waves = rng.integers(-2, 3, size=(modes, dim)).astype(float)
    phases = rng.random(modes) * 2.0 * math.pi

    upper = [(i, j) for i in range(dim) for j in range(i, dim)]

    def entries(pts: np.ndarray) -> list[np.ndarray]:
        # the entries h_ij (i <= j) of H = log M, from a (modes, m) table of
        # cosines, each mode's one contiguous row.  Each entry is summed onto
        # +0.0 mode by mode, as einsum("mk,kij->mij", cosines, mats) sums it,
        # so it has that einsum's bits, signs of zero included
        osc = np.cos(waves @ (2.0 * math.pi * pts).T + phases[:, None])
        h = [0.0 + mats[0, i, j] * osc[0] for i, j in upper]
        for k in range(1, modes):
            for hij, (i, j) in zip(h, upper):
                hij += mats[k, i, j] * osc[k]
        return h

    def log_fn(pts: np.ndarray) -> np.ndarray:
        out = np.empty((len(pts), dim, dim))
        for hij, (i, j) in zip(entries(pts), upper):
            out[:, i, j] = out[:, j, i] = hij
        return out

    def omega_fn(pts: np.ndarray) -> np.ndarray:
        # |exp(H)| = exp(lambda_max(H)), at n = 2 without the (m, 2, 2) stack
        if dim != 2:
            return np.exp(lambda_max_sym(log_fn(pts)))
        mean, disc = _eig2(*entries(pts))
        return np.exp(mean + disc)

    norm_sum = float(spectral_norm_sym(mats).sum())
    return Field(
        dim,
        lambda pts: sym_exp_batched(log_fn(pts)),
        f"log-normal(seed={seed})",
        (),
        math.exp(2.0 * norm_sum),
        log_fn,
        omega_fn,
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


def omega_and_matrix_from_config(cfg: Mapping) -> tuple[Field, Field | None]:
    """Build a scalar weight omega and the matrix weight M with omega = |M|:
    ``constant`` without a ``matrix`` and ``power`` (|x|^a) are scalar kinds,
    with M None; any other kind is M of :func:`weight_from_config`."""
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
        ), None
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
        ), None
    matrix = weight_from_config(cfg)
    return matrix.omega(), matrix


WEIGHT_KINDS = ("constant", "identity", "rank-one-radial", "power-radial", "log-normal")
SCALAR_WEIGHT_KINDS = ("constant", "power") + WEIGHT_KINDS[1:]
