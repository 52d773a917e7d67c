"""Sampling-based estimators of local BMO seminorms and Muckenhoupt constants.

All estimators report sampled lower bounds: the supremum over balls is
discretized by an explicit, disclosed ball family.  Per-ball means integrate
over the intersection with the domain ball but normalize by the full ball
volume.  Enlarging a family can only increase an estimate, which the family
refinement helpers preserve by returning supersets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import CALIBRATED
from .weight_algebra import (
    Ball,
    DEFAULT_QUAD,
    Field,
    QuadratureSpec,
    ball_nodes,
    log_mean_matrix,
    log_mean_scalar,
    node_batches,
    spectral_norm_sym,
)

__all__ = [
    "BallFamily",
    "BmoEstimate",
    "ApEstimate",
    "bmo",
    "bmo_views",
    "muckenhoupt_ap",
    "PropSmallReport",
    "prop_small_check",
    "SmallScalarReport",
    "small_scalar_checks",
    "standard_family",
]

#: per-ball values larger than this are treated as numeric blow-up
OVERFLOW_GUARD = 1e12
#: quadrature-refinement growth above this flags a non-integrable integrand
STABILITY_GUARD = 1.10


@dataclass(frozen=True)
class BallFamily:
    """A finite, ordered family of sample balls inside a domain ball."""

    balls: tuple[Ball, ...]
    strategy: str
    domain: Ball
    meta: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if not self.balls:
            raise ValueError("ball family must contain at least one ball")
        dom_c = np.asarray(self.domain.center)
        for b in self.balls:
            if np.linalg.norm(np.asarray(b.center) - dom_c) > self.domain.radius:
                raise ValueError("family ball center lies outside the domain ball")
            if b.radius > self.domain.radius * (1 + 1e-12):
                raise ValueError("family ball radius exceeds the domain radius")

    @property
    def count(self) -> int:
        return len(self.balls)

    def union(self, other: "BallFamily") -> "BallFamily":
        return BallFamily(
            self.balls + other.balls, f"{self.strategy}+{other.strategy}", self.domain
        )

    # -- constructors --------------------------------------------------------

    @staticmethod
    def dyadic(domain: Ball, levels: int, max_per_level: int = 256) -> "BallFamily":
        """Dyadic radii with center grids of matching spacing."""
        if levels < 1:
            raise ValueError("need at least one dyadic level")
        center = np.asarray(domain.center)
        r0 = domain.radius
        balls: list[Ball] = []
        for lev in range(1, levels + 1):
            r = r0 * 2.0 ** (-lev)
            k = min(2 ** lev, int(math.sqrt(max_per_level)))
            axes = [np.linspace(-r0 + r, r0 - r, 2 * k + 1) for _ in range(domain.dim)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, domain.dim)
            keep = np.linalg.norm(grid, axis=-1) <= r0 - r + 1e-12
            for off in grid[keep]:
                balls.append(Ball(tuple(center + off), r))
        return BallFamily(tuple(balls), "dyadic-grid", domain, (("levels", float(levels)),))

    @staticmethod
    def random(
        domain: Ball, count: int, r_min: float, r_max: float, seed: int
    ) -> "BallFamily":
        rng = np.random.default_rng(seed)
        center = np.asarray(domain.center)
        balls = []
        while len(balls) < count:
            g = rng.standard_normal(domain.dim)
            g /= np.linalg.norm(g)
            c = center + g * domain.radius * rng.random() ** (1.0 / domain.dim)
            r = math.exp(rng.uniform(math.log(r_min), math.log(r_max)))
            balls.append(Ball(tuple(c), min(r, domain.radius)))
        return BallFamily(tuple(balls), "random", domain, (("seed", float(seed)),))

    @staticmethod
    def origin_ladder(
        domain: Ball, levels: int, scale: float = 1e-4, offsets: bool = True
    ) -> "BallFamily":
        """Balls shrinking geometrically toward the domain center.

        Power-type blow-up is logarithmically slow in the radius, so each
        ladder level divides the radius by 1/scale (default 1e4) to make
        growth visible within a couple of levels.
        """
        if not (0 < scale < 1):
            raise ValueError("scale must lie in (0, 1)")
        center = np.asarray(domain.center)
        balls = []
        for lev in range(levels + 1):
            r = domain.radius * scale ** lev
            balls.append(Ball(tuple(center), r))
            if offsets and domain.dim == 2:
                for dx, dy in ((0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)):
                    balls.append(Ball(tuple(center + r * np.array([dx, dy])), r))
        return BallFamily(
            tuple(balls), "origin-ladder", domain,
            (("levels", float(levels)), ("scale", scale)),
        )

    def refined(self) -> "BallFamily":
        """A strictly larger family (superset), for stability studies."""
        meta = dict(self.meta)
        if self.strategy == "dyadic-grid":
            extra = BallFamily.dyadic(self.domain, int(meta.get("levels", 3)) + 1)
        elif self.strategy == "origin-ladder":
            extra = BallFamily.origin_ladder(
                self.domain, int(meta.get("levels", 2)) + 1, meta.get("scale", 1e-4)
            )
        else:
            seed = int(meta.get("seed", 0))
            radii = [b.radius for b in self.balls]
            extra = BallFamily.random(
                self.domain, self.count, min(radii), max(radii), seed + 1
            )
        return self.union(extra)


def standard_family(domain: Ball, levels: int = 3) -> BallFamily:
    """The default dyadic-grid family used by the weight diagnostics."""
    return BallFamily.dyadic(domain, levels)


# ---------------------------------------------------------------------------
# BMO estimators
# ---------------------------------------------------------------------------

@dataclass
class BmoEstimate:
    """Sampled lower bound of a local BMO seminorm over a disclosed family."""

    value: float
    attaining_ball: Ball
    ball_count: int
    quadrature: QuadratureSpec
    rows: list[tuple[int, float, float, float, float, float]] = field(default_factory=list)
    # rows: (index, cx, cy, radius, per-ball value, running max)


def bmo(f: Field, fam: BallFamily, quad: QuadratureSpec = DEFAULT_QUAD) -> BmoEstimate:
    """Max over the family of the per-ball mean oscillation of a field.

    The oscillation is measured in absolute value for a scalar field and in
    the spectral norm for a matrix field.
    """
    return bmo_views(f, fam, quad, (lambda vals: vals,))[0]


def bmo_views(
    f: Field, fam: BallFamily, quad: QuadratureSpec, views
) -> list[BmoEstimate]:
    """:func:`bmo` of several fields derived pointwise from one evaluation of ``f``.

    Each view maps an array of values of ``f`` to the values of the derived
    field at the same points; ``lambda_max_sym`` of log M gives log omega, for
    instance.  One estimate is returned per view.
    """
    per_ball = [[] for _ in views]
    for start, pts, w, cuts in node_batches(fam.balls, quad, fam.domain, f.singular_points):
        seen = [None] * len(views)
        if len(w):
            vals = f.evaluate(pts)
            seen = [view(vals) for view in views]
        for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
            ball = fam.balls[start + k]
            for out, v in zip(per_ball, seen):
                out.append(0.0 if a == b else _mean_oscillation(w[a:b], v[a:b], ball))
    return [_bmo_estimate(fam, quad, values) for values in per_ball]


def _mean_oscillation(w: np.ndarray, vals: np.ndarray, ball: Ball) -> float:
    mean = np.tensordot(w, vals, axes=(0, 0)) / w.sum()
    dev = vals - mean
    osc = np.abs(dev) if dev.ndim == 1 else spectral_norm_sym(dev)
    return float(np.sum(w * osc) / ball.volume)


def _bmo_estimate(fam: BallFamily, quad: QuadratureSpec, values: list[float]) -> BmoEstimate:
    rows = []
    best_val, best_ball, running = -1.0, fam.balls[0], 0.0
    for idx, (ball, val) in enumerate(zip(fam.balls, values)):
        running = max(running, val)
        if val > best_val:
            best_val, best_ball = val, ball
        c = ball.center
        rows.append((idx, c[0], c[1] if len(c) > 1 else 0.0, ball.radius, val, running))
    return BmoEstimate(best_val, best_ball, fam.count, quad, rows)


# ---------------------------------------------------------------------------
# Muckenhoupt constants
# ---------------------------------------------------------------------------

@dataclass
class ApEstimate:
    """Sampled multiplicative Muckenhoupt constant, or a divergence signal."""

    value: float | None
    divergent: bool
    p: float
    witness_ball: Ball | None
    ball_count: int
    rows: list[tuple[int, float, float, float, float]] = field(default_factory=list)


def _power_means(w: np.ndarray, vals: np.ndarray, expos) -> list[float]:
    """Weighted means of ``vals ** e`` over one node set, one per exponent."""
    return [float(np.sum(w * vals ** e) / w.sum()) for e in expos]


def _family_power_means(field, balls, quad, expos, sing) -> list[list[float]]:
    """:func:`_power_means` on each ball's node set, one field evaluation per batch."""
    means = []
    for _, pts, w, cuts in node_batches(balls, quad, singular=sing):
        vals = field.evaluate(pts)
        means.extend(_power_means(w[a:b], vals[a:b], expos) for a, b in zip(cuts, cuts[1:]))
    return means


def muckenhoupt_ap(
    omega: Field,
    p: float,
    fam: BallFamily,
    quad: QuadratureSpec = DEFAULT_QUAD,
    neg_exponent: float | None = None,
) -> ApEstimate:
    """Max over the family of (mean w^p)^(1/p) (mean w^-e)^(1/e), e = p' by default.

    Each ball gets two node sets, the rule ``quad`` and its 4x radial
    refinement; both power means come from one field evaluation on each,
    made for a batch of balls at a time (see ``node_batches``).  A
    per-ball value is declared divergent when it fails to stabilize under the
    refinement or exceeds the overflow guard, which is how a non-integrable
    negative power announces itself.  ``neg_exponent`` replaces the dual
    exponent p' (as for the duality-weight condition of the Poincare check).
    """
    pc = neg_exponent
    if pc is None:
        if not (1.0 < p < math.inf):
            raise ValueError("p must lie in (1, inf)")
        pc = p / (p - 1.0)
    sing = omega.singular_points
    coarse = _family_power_means(omega, fam.balls, quad, (p, -pc), sing)
    fine = _family_power_means(omega, fam.balls, quad.refined(4), (p, -pc), sing)
    best, witness, rows = 0.0, None, []
    divergent, div_ball = False, None
    for idx, (ball, (m_pos, m_neg), (m_pos_f, m_neg_f)) in enumerate(
        zip(fam.balls, coarse, fine)
    ):
        val = m_pos ** (1.0 / p) * m_neg ** (1.0 / pc)
        val_f = m_pos_f ** (1.0 / p) * m_neg_f ** (1.0 / pc)
        if val_f > OVERFLOW_GUARD or val_f > val * STABILITY_GUARD:
            divergent, div_ball = True, ball
        c = ball.center
        rows.append((idx, c[0], c[1] if len(c) > 1 else 0.0, ball.radius, val_f))
        if val_f > best:
            best, witness = val_f, ball
    if divergent:
        return ApEstimate(None, True, p, div_ball, fam.count, rows)
    return ApEstimate(best, False, p, witness, fam.count, rows)


# ---------------------------------------------------------------------------
# oscillation / smallness reports
# ---------------------------------------------------------------------------

@dataclass
class PropSmallReport:
    """q-mean relative oscillation around the logarithmic mean, vs q * BMO."""

    lhs: float
    bmo: float
    q: float
    ratio: float
    ball: Ball


def prop_small_check(
    field: Field,
    ball: Ball,
    q: float,
    quad: QuadratureSpec = DEFAULT_QUAD,
    bmo_log: float | None = None,
) -> PropSmallReport:
    """lhs = (mean (|W - W_B| / |W_B|)^q)^(1/q) against q * |log W|_BMO(ball).

    ``bmo_log`` is a precomputed |log W|_BMO, so a caller checking several q
    computes it once; ``None`` computes it on ``standard_family(ball, 3)``.
    The reported ratio lhs / (q bmo) tracks the oscillation constant
    empirically; nothing is asserted about its value here.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if bmo_log is None:
        bmo_log = bmo(field.log(), standard_family(ball, levels=3), quad).value
    pts, w = ball_nodes(ball, quad, singular=field.singular_points)
    vals = field.evaluate(pts)
    if vals.ndim == 3:
        center = log_mean_matrix(field, ball, quad, nodes=(pts, w))
        rel = spectral_norm_sym(vals - center) / spectral_norm_sym(center[None])[0]
    else:
        center = log_mean_scalar(field, ball, quad, nodes=(pts, w))
        rel = np.abs(vals - center) / center
    lhs = float((np.sum(w * rel ** q) / w.sum()) ** (1.0 / q))
    ratio = lhs / (q * bmo_log) if bmo_log > 0 else (0.0 if lhs == 0.0 else math.inf)
    return PropSmallReport(lhs, bmo_log, q, ratio, ball)


@dataclass
class SmallScalarReport:
    """Two-sided power-mean bounds around the logarithmic mean."""

    s: float
    bmo_log: float
    condition_met: bool          # bmo_log <= gamma / s for the calibrated gamma
    log_mean: float
    mean_pos: float              # (mean w^s)^(1/s)
    mean_neg: float              # (mean w^-s)^(1/s)
    divergent: bool
    margin_pos: float            # 2 log_mean - mean_pos
    margin_neg: float            # 2 / log_mean - mean_neg
    margin_product: float        # 4 - mean_pos * mean_neg
    gamma: float

    @property
    def holds(self) -> bool:
        return (
            not self.divergent
            and self.margin_pos >= 0
            and self.margin_neg >= 0
            and self.margin_product >= 0
        )


def small_scalar_checks(
    omega: Field,
    ball: Ball,
    s: float,
    quad: QuadratureSpec = DEFAULT_QUAD,
    gamma: float = CALIBRATED.gamma_small,
    bmo_log: float | None = None,
) -> SmallScalarReport:
    """Check the factor-2 power-mean bounds that smallness of log w buys.

    The s and -s means share one node set per rule (``quad`` and its 4x
    radial refinement).  ``bmo_log`` is a precomputed |log w|_BMO, so a
    caller checking several s computes it once; ``None`` computes it on
    ``standard_family(ball, 3)``.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if bmo_log is None:
        bmo_log = bmo(omega.log(), standard_family(ball, levels=3), quad).value
    pts, w = ball_nodes(ball, quad, singular=omega.singular_points)
    lm = log_mean_scalar(omega, ball, quad, nodes=(pts, w))
    pts_f, w_f = ball_nodes(ball, quad.refined(4), singular=omega.singular_points)
    mean_pos, mean_neg, mean_pos_f, mean_neg_f = (
        m ** (1.0 / s)
        for x, wx in ((pts, w), (pts_f, w_f))
        for m in _power_means(wx, omega.evaluate(x), (s, -s))
    )
    divergent = (
        max(mean_pos_f, mean_neg_f) > OVERFLOW_GUARD
        or mean_pos_f > mean_pos * STABILITY_GUARD
        or mean_neg_f > mean_neg * STABILITY_GUARD
    )
    return SmallScalarReport(
        s=s,
        bmo_log=bmo_log,
        condition_met=bmo_log <= gamma / s,
        log_mean=lm,
        mean_pos=mean_pos_f,
        mean_neg=mean_neg_f,
        divergent=divergent,
        margin_pos=2.0 * lm - mean_pos_f,
        margin_neg=2.0 / lm - mean_neg_f,
        margin_product=4.0 - mean_pos_f * mean_neg_f,
        gamma=gamma,
    )
