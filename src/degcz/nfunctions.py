"""Shifted power-type N-function calculus and the nonlinear-operator maps.

The base function is phi(t) = t^p / p.  Its shifted versions

    phi_a(t) = integral_0^t  phi'(max(a, s)) / max(a, s) * s ds

have the closed two-branch form  a^(p-2) t^2 / 2  for t <= a  and
a^p / 2 + (t^p - a^p) / p  for t > a, which is what this module evaluates;
the defining integral is kept only as a test oracle.  Conjugation maps a
shift a to the shift a^(p-1) on the conjugate exponent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerPhi",
    "ShiftedPhi",
    "shifted_phi",
    "shifted_dphi",
    "a_map",
    "v_map",
    "weighted_maps",
    "HammerReport",
    "hammer_check",
    "conjugate_by_maximization",
    "removal_shift_margins",
    "removal_shift_constant",
    "young_margins",
    "change_of_shift_needed_c",
    "phi_a_equivalence_ratio",
    "delta2_ratio",
    "equivalence_constant",
    "PropertyCase",
    "run_property_sweep",
]


def _conj(p: float) -> float:
    return p / (p - 1.0)


def _pow(base: np.ndarray, expo: float) -> np.ndarray:
    """base**expo with the convention 0**negative -> 0 (used only where the
    factor multiplies something that vanishes faster)."""
    base = np.asarray(base, dtype=float)
    safe = np.where(base > 0.0, base, 1.0)
    return np.where(base > 0.0, safe ** expo, 0.0)


def shifted_phi(p: float, a, t) -> np.ndarray:
    """Closed form of the shifted N-function, vectorized in both a and t."""
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(a < 0):
        raise ValueError("shift and argument must be nonnegative")
    a, t = np.broadcast_arrays(a, t)
    # one a^p, released before the other branch is built (peak memory)
    a_p = _pow(a, p)
    above = (_pow(t, p) - a_p) / p + a_p / 2.0
    del a_p
    below = _pow(a, p - 2.0) * t * t / 2.0
    return np.where(t <= a, below, above)


def shifted_dphi(p: float, a, t) -> np.ndarray:
    """Derivative of the shifted N-function: phi'(a v t) / (a v t) * t."""
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    a, t = np.broadcast_arrays(a, t)
    return np.where(t <= a, _pow(a, p - 2.0) * t, _pow(t, p - 1.0))


@dataclass(frozen=True)
class PowerPhi:
    """The N-function t^p / p together with its conjugate t^p' / p'."""

    p: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"exponent must exceed 1, got {self.p}")

    def value(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return _pow(t, self.p) / self.p

    def derivative(self, t) -> np.ndarray:
        return _pow(np.asarray(t, dtype=float), self.p - 1.0)

    def shifted(self, a: float) -> "ShiftedPhi":
        return ShiftedPhi(self, a)


@dataclass(frozen=True)
class ShiftedPhi:
    """phi_a for the power base; a = 0 recovers phi itself."""

    base: PowerPhi
    a: float

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("shift must be nonnegative")

    def value(self, t) -> np.ndarray:
        return shifted_phi(self.base.p, self.a, t)

    def derivative(self, t) -> np.ndarray:
        return shifted_dphi(self.base.p, self.a, t)

    def conjugate(self) -> "ShiftedPhi":
        """(phi_a)* = (phi*)_{phi'(a)}."""
        p = self.base.p
        return ShiftedPhi(PowerPhi(_conj(p)), float(_pow(self.a, p - 1.0)))


# ---------------------------------------------------------------------------
# vector maps
# ---------------------------------------------------------------------------

def a_map(p: float, xi: np.ndarray) -> np.ndarray:
    """Nonlinear flux map |xi|^(p-2) xi, with the continuous value 0 at 0."""
    xi = np.asarray(xi, dtype=float)
    r = np.linalg.norm(xi, axis=-1, keepdims=True)
    return _pow(r, p - 2.0) * xi


def v_map(p: float, xi: np.ndarray) -> np.ndarray:
    """Natural-distance map |xi|^((p-2)/2) xi; |V(xi)|^2 = |xi|^p."""
    xi = np.asarray(xi, dtype=float)
    r = np.linalg.norm(xi, axis=-1, keepdims=True)
    return _pow(r, (p - 2.0) / 2.0) * xi


def weighted_maps(M: np.ndarray, p: float, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted flux M A(M xi) and weighted distance map V(M xi).

    Accepts a single matrix with a batch of vectors or matched batches.
    The identity calA . xi = |calV|^2 holds pointwise.
    """
    M = np.asarray(M, dtype=float)
    xi = np.asarray(xi, dtype=float)
    mxi = np.einsum("...ij,...j->...i", M, xi)
    cal_a = np.einsum("...ij,...j->...i", M, a_map(p, mxi))
    return cal_a, v_map(p, mxi)


# ---------------------------------------------------------------------------
# monotonicity quantities ("hammer" comparison)
# ---------------------------------------------------------------------------

@dataclass
class HammerReport:
    """The four mutually comparable monotonicity quantities per vector pair.

    The two N-function quantities carry a factor 2 so that all four coincide
    exactly with |P - Q|^2 in the quadratic case p = 2.
    """

    monotone: np.ndarray       # (A(P) - A(Q)) . (P - Q)
    v_distance: np.ndarray     # |V(P) - V(Q)|^2
    shifted: np.ndarray        # 2 phi_{|Q|}(|P - Q|)
    conjugate: np.ndarray      # 2 (phi*)_{|A(Q)|}(|A(P) - A(Q)|)

    def quantities(self) -> np.ndarray:
        return np.stack([self.monotone, self.v_distance, self.shifted, self.conjugate])

    def equivalence_constant(self) -> float:
        """Smallest c with all pairwise ratios inside [1/c, c] on this sample."""
        qs = self.quantities()
        pos = np.all(qs > 0.0, axis=0)
        qs = qs[:, pos]
        if qs.size == 0:
            return 1.0
        c = 1.0
        for i in range(4):
            for j in range(i + 1, 4):
                ratio = qs[i] / qs[j]
                c = max(c, float(ratio.max()), float(1.0 / ratio.min()))
        return c


def hammer_check(p: float, P: np.ndarray, Q: np.ndarray) -> HammerReport:
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    ap, aq = a_map(p, P), a_map(p, Q)
    monotone = np.einsum("...i,...i->...", ap - aq, P - Q)
    vdist = np.linalg.norm(v_map(p, P) - v_map(p, Q), axis=-1) ** 2
    qnorm = np.linalg.norm(Q, axis=-1)
    shifted = 2.0 * shifted_phi(p, qnorm, np.linalg.norm(P - Q, axis=-1))
    conj = 2.0 * shifted_phi(
        _conj(p), _pow(qnorm, p - 1.0), np.linalg.norm(ap - aq, axis=-1)
    )
    return HammerReport(monotone, vdist, shifted, conj)


def equivalence_constant(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest c with x/y inside [1/c, c] after optimal rescaling of y."""
    ratio = np.asarray(x, dtype=float) / np.asarray(y, dtype=float)
    ratio = ratio[np.isfinite(ratio) & (ratio > 0)]
    if ratio.size == 0:
        return 1.0
    return float(math.sqrt(ratio.max() / ratio.min()))


# ---------------------------------------------------------------------------
# conjugation oracle and shift lemma checks
# ---------------------------------------------------------------------------

def conjugate_by_maximization(p: float, a: float | np.ndarray, t, iters: int = 130) -> np.ndarray:
    """sup_s (t s - phi_a(s)) by bracketed ternary search on the concave objective.

    The shift ``a`` broadcasts against ``t``: a ``(k, 1)`` column of shifts
    against ``n`` arguments searches all ``k * n`` pairs at once.  The search
    is elementwise, so each value equals, bit for bit, that of a call with its
    shift alone.  Independent of the closed-form conjugate; used to validate it.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("shift must be nonnegative")
    a, t = np.broadcast_arrays(a, np.atleast_1d(np.asarray(t, dtype=float)))
    a_pm2, a_p = _pow(a, p - 2.0), _pow(a, p)

    def obj(s):
        # t s - shifted_phi(p, a, s) in its exact operation order, with the
        # shift's powers computed once; the search points s are nonnegative
        below = a_pm2 * s * s / 2.0
        above = a_p / 2.0 + (_pow(s, p) - a_p) / p
        return t * s - np.where(s <= a, below, above)

    hi = np.ones(t.shape)
    for _ in range(120):
        grow = obj(hi) > obj(0.99 * hi)
        if not grow.any():
            break
        hi = np.where(grow, 2.0 * hi, hi)
    lo = np.zeros(t.shape)
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        takes_hi = obj(m1) < obj(m2)
        lo = np.where(takes_hi, m1, lo)
        hi = np.where(takes_hi, hi, m2)
    return obj(0.5 * (lo + hi))


def removal_shift_constant(p: float) -> float:
    """A valid constant for the shift-removal bound of the closed two-branch form.

    Derived by weighted AM-GM on a^(p-2) t^2 (t <= a branch) and directly on
    the t > a branch; both cases give c <= max(p/2 + 1, ((p-2)/2)^((p-2)/2)).
    """
    c = p / 2.0 + 1.0
    if p > 2.0:
        c = max(c, ((p - 2.0) / 2.0) ** ((p - 2.0) / 2.0))
    return c


def removal_shift_margins(p: float, a, t, delta):
    """(lhs, rhs) triples for the three shift-removal inequalities.

    1. phi'_a(t) <= phi'(t/delta) v (delta phi'(a))
    2. phi_a(t)  <= delta phi(a) + c(p) delta phi(t/delta)
    3. (phi_a)*(t) <= (p/p') delta phi(a) + c(p') delta phi*(t/delta)
    """
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if np.any(delta <= 0) or np.any(delta > 1):
        raise ValueError("delta must lie in (0, 1]")
    q = _conj(p)
    phi = PowerPhi(p)
    phis = PowerPhi(q)

    lhs1 = shifted_dphi(p, a, t)
    rhs1 = np.maximum(phi.derivative(t / delta), delta * phi.derivative(a))

    c_p = removal_shift_constant(p)
    lhs2 = shifted_phi(p, a, t)
    rhs2 = delta * phi.value(a) + c_p * delta * phi.value(t / delta)

    c_q = removal_shift_constant(q)
    lhs3 = shifted_phi(q, _pow(a, p - 1.0), t)
    rhs3 = (p / q) * delta * phi.value(a) + c_q * delta * phis.value(t / delta)
    return (lhs1, rhs1), (lhs2, rhs2), (lhs3, rhs3)


def young_margins(p: float, a, s, t, delta):
    """Scaled Young inequality s t <= delta phi_a(t) + delta (phi_a)*(s/delta).

    Exact for every delta > 0 because x -> delta phi_a(x) has conjugate
    delta (phi_a)*(. / delta).
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    lhs = s * t
    rhs = delta * shifted_phi(p, a, t) + delta * shifted_phi(
        _conj(p), _pow(a, p - 1.0), s / delta
    )
    return lhs, rhs


def change_of_shift_needed_c(p: float, P: np.ndarray, Q: np.ndarray, t, delta: float):
    """Smallest admissible c in phi_|P|(t) <= c phi_|Q|(t) + delta |V(P)-V(Q)|^2.

    Reported per sample; the lemma asserts a finite sup depending only on
    (p, delta), which the sweep estimates empirically.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    t = np.asarray(t, dtype=float)
    lhs = shifted_phi(p, np.linalg.norm(P, axis=-1), t)
    vdist = np.linalg.norm(v_map(p, P) - v_map(p, Q), axis=-1) ** 2
    denom = shifted_phi(p, np.linalg.norm(Q, axis=-1), t)
    num = np.maximum(lhs - delta * vdist, 0.0)
    return np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)


def phi_a_equivalence_ratio(p: float, a, t) -> np.ndarray:
    """phi_a(t) / ((a v t)^(p-2) t^2), the two-branch comparability ratio."""
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    comp = _pow(np.maximum(a, t), p - 2.0) * t * t
    vals = shifted_phi(p, a, t)
    return np.where(comp > 0, vals / np.where(comp > 0, comp, 1.0), np.nan)


def delta2_ratio(p: float, a, t) -> np.ndarray:
    """Doubling ratio phi_a(2t) / phi_a(t); uniformly below 2^max(2, p)."""
    num = shifted_phi(p, a, 2.0 * np.asarray(t, dtype=float))
    den = shifted_phi(p, a, t)
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)


# ---------------------------------------------------------------------------
# property sweeps
# ---------------------------------------------------------------------------

@dataclass
class PropertyCase:
    """One row of a property sweep: extremal ratios and violation count."""

    p: float
    case: str
    min_ratio: float
    max_ratio: float
    violations: int
    samples: int


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def run_property_sweep(p: float, samples: int = 100_000, seed: int = 0) -> list[PropertyCase]:
    """Randomized verification sweep of the shift-calculus inequalities.

    Ratios are lhs/rhs, so a violation is a ratio above 1 + 1e-12 slack.
    """
    rng = np.random.default_rng(seed)
    rows: list[PropertyCase] = []
    slack = 1.0 + 1e-12

    a = _log_uniform(rng, 1e-4, 1e4, samples) * (rng.random(samples) > 0.1)
    t = _log_uniform(rng, 1e-4, 1e4, samples)
    s = _log_uniform(rng, 1e-4, 1e4, samples)
    delta = np.exp(rng.uniform(math.log(1e-3), 0.0, samples))

    def record(case: str, ratio, bound=math.inf, empty=math.nan):
        lo, hi = (float(ratio.min()), float(ratio.max())) if ratio.size else (empty, empty)
        rows.append(
            PropertyCase(p, case, lo, hi, int(np.count_nonzero(ratio > bound)), int(ratio.size))
        )

    def add(case: str, lhs, rhs):
        ratio = np.asarray(lhs) / np.asarray(rhs)
        record(case, ratio[np.isfinite(ratio)], slack)

    (l1, r1), (l2, r2), (l3, r3) = removal_shift_margins(p, a, t, delta)
    add("removal-shift-1", l1, r1)
    add("removal-shift-2", l2, r2)
    add("removal-shift-3", l3, r3)

    ly, ry = young_margins(p, a, s, t, delta)
    add("young-scaled", ly, ry)

    # conjugate duality against the maximization oracle, on a log grid; one
    # oracle call searches a column of all the shifts against the grid
    tg = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25))
    shifts = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
    column = np.array(shifts)[:, None]
    closed = shifted_phi(_conj(p), _pow(column, p - 1.0), tg)
    numeric = conjugate_by_maximization(p, column, tg)
    scale = np.maximum(np.abs(closed), 1e-300)
    rel_all = np.abs(closed - numeric) / np.maximum(scale, np.abs(numeric))
    for shift, rel in zip(shifts, rel_all):
        record(f"conjugate-duality(a={shift:g})", rel, 1e-8)

    # two-branch comparability and doubling
    eq = phi_a_equivalence_ratio(p, a, t)
    record("phi-a-comparability", eq[np.isfinite(eq)])

    # the lambda-shift scaling: phi_a(lambda a) against lambda^2 phi(a)
    # below lambda = 1 and against phi(lambda a) above it
    a_pos = a[a > 0]
    lam_lo = np.exp(rng.uniform(math.log(1e-3), 0.0, a_pos.size))
    lam_hi = np.exp(rng.uniform(0.0, math.log(1e3), a_pos.size))
    below = shifted_phi(p, a_pos, lam_lo * a_pos) / (lam_lo ** 2 * _pow(a_pos, p) / p)
    above = shifted_phi(p, a_pos, lam_hi * a_pos) / (_pow(lam_hi * a_pos, p) / p)
    # (empty when every sampled shift is zero, as for a handful of samples)
    record("shift-scaling", np.concatenate([below, above]))
    d2 = delta2_ratio(p, a, t)
    record("doubling", d2[np.isfinite(d2)], 2.0 ** max(2.0, p) * slack)

    # monotonicity quantities on random vector pairs
    dim = 2
    P = rng.standard_normal((samples // 10, dim)) * _log_uniform(
        rng, 1e-3, 1e3, samples // 10
    )[:, None]
    Q = rng.standard_normal((samples // 10, dim)) * _log_uniform(
        rng, 1e-3, 1e3, samples // 10
    )[:, None]
    rep = hammer_check(p, P, Q)
    qs = rep.quantities()
    pos = np.all(qs > 0, axis=0)
    record("hammer-equivalence", qs[2][pos] / qs[0][pos], empty=1.0)
    return rows
