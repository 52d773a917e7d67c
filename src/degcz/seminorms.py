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
    spectral_norm_sym,
)

__all__ = [
    "BallFamily",
    "BmoEstimate",
    "ApEstimate",
    "bmo",
    "bmo_and_ap",
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
        return BallFamily(tuple(balls), "dyadic-grid", domain,
                          (("levels", float(levels)), ("max_per_level", float(max_per_level))))

    @staticmethod
    def origin_ladder(domain: Ball, levels: int) -> "BallFamily":
        """Balls shrinking geometrically toward the domain center, each in 2-d
        with four copies shifted by half its radius.

        Power-type blow-up is logarithmically slow in the radius, so each
        ladder level divides the radius by 1e4 to make growth visible within
        a couple of levels.
        """
        center = np.asarray(domain.center)
        balls = []
        for lev in range(levels + 1):
            r = domain.radius * 1e-4 ** lev
            balls.append(Ball(tuple(center), r))
            if domain.dim == 2:
                for dx, dy in ((0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)):
                    balls.append(Ball(tuple(center + r * np.array([dx, dy])), r))
        return BallFamily(tuple(balls), "origin-ladder", domain)

    def refined(self) -> "BallFamily":
        """The dyadic family with one more level, for stability studies: a
        superset whose first balls are this family's."""
        if self.strategy != "dyadic-grid":
            raise ValueError(f"cannot refine a {self.strategy!r} family")
        meta = dict(self.meta)
        levels, cap = int(meta.get("levels", 3)), int(meta.get("max_per_level", 256))
        return BallFamily.dyadic(self.domain, levels + 1, cap)


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
    rows: list[tuple[int, float, float, float, float, float]] = field(default_factory=list)
    # rows: (index, cx, cy, radius, per-ball value, running max)


def bmo(f: Field, fam: BallFamily, quad: QuadratureSpec = DEFAULT_QUAD) -> BmoEstimate:
    """Max over the family of the per-ball mean oscillation of a field.

    The oscillation is measured in absolute value for a scalar field and in
    the spectral norm for a matrix field.
    """
    return bmo_and_ap(f, (lambda vals: vals,), None, (), fam, quad)[0][0]


def bmo_and_ap(
    f: Field, views, omega: Field | None, p_list, fam: BallFamily, quad: QuadratureSpec
) -> tuple[list[BmoEstimate], list[ApEstimate]]:
    """:func:`bmo` of several fields derived pointwise from one evaluation of
    ``f``, and :func:`muckenhoupt_ap` of ``omega`` at each p of ``p_list``,
    from one pass over the family.

    Each view maps an array of values of ``f`` to the values of the derived
    field at the same points; ``lambda_max_sym`` of log M gives log omega, for
    instance.  One BMO estimate is returned per view.  When ``p_list`` is not
    empty the first view must be log omega: each ball's coarse-rule power
    means take omega = exp(first view) on the node set the BMO estimates
    integrate over, which is the rule ``quad`` whenever the domain clip drops
    no node; a ball whose node set lost nodes, to the clip or to a singular
    point, gets omega evaluated on its unclipped rule.  Only the 4x refined
    rule, which sets every reported value, evaluates omega on every ball; the
    coarse rule feeds just the stability guard, so exp(log omega) in place of
    omega moves no reported bit there.
    """
    pairs = [(p, _dual(p)) for p in p_list]
    expos = [e for p, pc in pairs for e in (p, -pc)]
    full = math.prod(quad.resolution)
    per_ball = [[] for _ in views]
    coarse = []
    for ball in fam.balls:
        pts, w = ball_nodes(ball, quad, fam.domain, f.singular_points)
        vals = f.evaluate(pts) if len(w) else None
        derived = [view(vals) for view in views] if len(w) else [None] * len(views)
        for out, v in zip(per_ball, derived):
            out.append(_mean_oscillation(w, v, ball) if len(w) else 0.0)
        if expos:
            coarse += ([_power_means(w, np.exp(derived[0]), expos)] if len(w) == full
                       else _rule_power_means(omega, (ball,), quad, expos))
    # the last ball's values would otherwise stay alive through the refined rule
    del pts, w, vals, derived
    bmos = [_bmo_estimate(fam, values) for values in per_ball]
    if not expos:
        return bmos, []
    fine = _rule_power_means(omega, fam.balls, quad.refined(), expos)
    return bmos, [
        _ap_estimate(p, pc, fam, [m[2 * k:2 * k + 2] for m in coarse],
                     [m[2 * k:2 * k + 2] for m in fine])
        for k, (p, pc) in enumerate(pairs)
    ]


def _mean_oscillation(w: np.ndarray, vals: np.ndarray, ball: Ball) -> float:
    # the BLAS dot that np.tensordot(w, vals, axes=(0, 0)) makes, without its
    # wrapper; the mean is subtracted one column of the (m, n * n) values at a
    # time, since a broadcast over the short rows runs numpy's inner loop once
    # per node
    flat = vals.reshape(len(w), -1)
    mean = np.dot(w[None], flat)[0] / w.sum()
    dev = np.empty_like(flat)
    for k, mk in enumerate(mean):
        np.subtract(flat[:, k], mk, out=dev[:, k])
    dev = dev.reshape(vals.shape)
    osc = np.abs(dev) if dev.ndim == 1 else spectral_norm_sym(dev)
    return float(np.sum(w * osc) / ball.volume)


def _bmo_estimate(fam: BallFamily, values: list[float]) -> BmoEstimate:
    rows = []
    best_val, best_ball, running = -1.0, fam.balls[0], 0.0
    for idx, (ball, val) in enumerate(zip(fam.balls, values)):
        running = max(running, val)
        if val > best_val:
            best_val, best_ball = val, ball
        c = ball.center
        rows.append((idx, c[0], c[1] if len(c) > 1 else 0.0, ball.radius, val, running))
    return BmoEstimate(best_val, best_ball, rows)


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
    rows: list[tuple[int, float, float, float, float]] = field(default_factory=list)


def _power_means(w: np.ndarray, vals: np.ndarray, expos) -> list[float]:
    """Weighted means of ``vals ** e`` over one node set, one per exponent."""
    total = w.sum()
    return [float(np.sum(w * vals ** e) / total) for e in expos]


def _rule_power_means(field, balls, rule, expos) -> list[list[float]]:
    """:func:`_power_means` on each ball's node set for ``rule``, one field
    evaluation per node set."""
    means = []
    for ball in balls:
        pts, w = ball_nodes(ball, rule, singular=field.singular_points)
        means.append(_power_means(w, field.evaluate(pts), expos))
    return means


def _unstable(coarse: float, fine: float) -> bool:
    """A refined-rule value past the overflow guard, or grown past the stability
    guard under refinement: the sign of a non-integrable integrand."""
    return fine > OVERFLOW_GUARD or fine > coarse * STABILITY_GUARD


def _dual(p: float) -> float:
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, inf)")
    return p / (p - 1.0)


def muckenhoupt_ap(
    omega: Field,
    p: float,
    fam: BallFamily,
    quad: QuadratureSpec = DEFAULT_QUAD,
    neg_exponent: float | None = None,
) -> ApEstimate:
    """Max over the family of (mean w^p)^(1/p) (mean w^-e)^(1/e), e = p' by default.

    Each ball gets two node sets, the rule ``quad`` and its 4x radial
    refinement; both power means come from one field evaluation on each.  A
    per-ball value is declared divergent when it fails to stabilize under the
    refinement or exceeds the overflow guard, which is how a non-integrable
    negative power announces itself.  ``neg_exponent`` replaces the dual
    exponent p' (as for the duality-weight condition of the Poincare check).
    """
    pc = _dual(p) if neg_exponent is None else neg_exponent
    coarse, fine = (_rule_power_means(omega, fam.balls, rule, (p, -pc))
                    for rule in (quad, quad.refined()))
    return _ap_estimate(p, pc, fam, coarse, fine)


def _ap_estimate(p: float, pc: float, fam: BallFamily, coarse, fine) -> ApEstimate:
    """The estimate from each ball's (mean w^p, mean w^-pc) on both rules."""
    best, witness, rows = 0.0, None, []
    divergent, div_ball = False, None
    for idx, (ball, (m_pos, m_neg), (m_pos_f, m_neg_f)) in enumerate(
        zip(fam.balls, coarse, fine)
    ):
        val = m_pos ** (1.0 / p) * m_neg ** (1.0 / pc)
        val_f = m_pos_f ** (1.0 / p) * m_neg_f ** (1.0 / pc)
        if _unstable(val, val_f):
            divergent, div_ball = True, ball
        c = ball.center
        rows.append((idx, c[0], c[1] if len(c) > 1 else 0.0, ball.radius, val_f))
        if val_f > best:
            best, witness = val_f, ball
    if divergent:
        return ApEstimate(None, True, p, div_ball, rows)
    return ApEstimate(best, False, p, witness, rows)


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


def prop_small_check(
    field: Field,
    ball: Ball,
    q: float,
    bmo_log: float,
    log_mean_b: np.ndarray | float,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> PropSmallReport:
    """lhs = (mean (|W - W_B| / |W_B|)^q)^(1/q) against q * ``bmo_log``.

    ``bmo_log`` is |log W|_BMO of the ball and ``log_mean_b`` its logarithmic
    mean W_B, both estimated by the caller.  The reported ratio lhs / (q bmo)
    tracks the oscillation constant empirically; nothing is asserted about
    its value here.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    pts, w = ball_nodes(ball, quad, singular=field.singular_points)
    vals = field.evaluate(pts)
    if vals.ndim == 3:
        rel = spectral_norm_sym(vals - log_mean_b) / spectral_norm_sym(log_mean_b[None])[0]
    else:
        rel = np.abs(vals - log_mean_b) / log_mean_b
    lhs = float((np.sum(w * rel ** q) / w.sum()) ** (1.0 / q))
    ratio = lhs / (q * bmo_log) if bmo_log > 0 else (0.0 if lhs == 0.0 else math.inf)
    return PropSmallReport(lhs, bmo_log, q, ratio)


@dataclass
class SmallScalarReport:
    """Two-sided power-mean bounds around the logarithmic mean w_B."""

    bmo_log: float
    condition_met: bool          # bmo_log <= CALIBRATED.gamma_small / s
    mean_pos: float              # (mean w^s)^(1/s)
    mean_neg: float              # (mean w^-s)^(1/s)
    divergent: bool
    margin_pos: float            # 2 w_B - mean_pos
    margin_neg: float            # 2 / w_B - mean_neg
    margin_product: float        # 4 - mean_pos * mean_neg

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
    bmo_log: float,
    log_mean_b: float,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> SmallScalarReport:
    """Check the factor-2 power-mean bounds that smallness of log w buys.

    ``bmo_log`` is |log w|_BMO of the ball and ``log_mean_b`` its
    logarithmic mean w_B, both estimated by the caller.  The s and -s means
    share one node set per rule, as in :func:`muckenhoupt_ap`.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    (coarse,), (fine,) = (_rule_power_means(omega, (ball,), rule, (s, -s))
                          for rule in (quad, quad.refined()))
    mean_pos, mean_neg, mean_pos_f, mean_neg_f = (m ** (1.0 / s) for m in coarse + fine)
    return SmallScalarReport(
        bmo_log=bmo_log,
        condition_met=bmo_log <= CALIBRATED.gamma_small / s,
        mean_pos=mean_pos_f,
        mean_neg=mean_neg_f,
        divergent=_unstable(mean_pos, mean_pos_f) or _unstable(mean_neg, mean_neg_f),
        margin_pos=2.0 * log_mean_b - mean_pos_f,
        margin_neg=2.0 / log_mean_b - mean_neg_f,
        margin_product=4.0 - mean_pos_f * mean_neg_f,
    )
