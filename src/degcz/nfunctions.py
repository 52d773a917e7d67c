"""Shifted power-type N-function calculus and the nonlinear-operator maps.

The base function is phi(t) = t^p / p.  Its shifted versions

    phi_a(t) = integral_0^t  phi'(max(a, s)) / max(a, s) * s ds

have the closed two-branch form  a^(p-2) t^2 / 2  for t <= a  and
a^p / 2 + (t^p - a^p) / p  for t > a, which is what this module evaluates;
the defining integral is kept only as a test oracle.  ``shifted_phi(p, a, t)``
is phi_a; a = 0 recovers phi.  Conjugation maps a shift a to the shift a^(p-1)
on the conjugate exponent: (phi_a)* is ``shifted_phi(p / (p - 1), a^(p - 1), t)``.

Each closed form is written once, as a private kernel that takes the powers
it needs (``_phi`` takes a^p, a^(p-2) and t^p).  The public functions take
their own powers; ``run_property_sweep`` takes each power of its samples
once per p (a^p, a^(p-1), a^(p-2), t^p, (a^(p-1))^p' and (a^(p-1))^(p'-2),
and phi_a(t) itself) and shares it between the inequalities that read it.
Its peak memory is a rule of the sweep: each case is recorded as soon as
both its sides exist, and each shared array is deleted after its last use,
which keeps a sweep below 20 sample-sized arrays at its peak.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weight_algebra import euclidean_norm

__all__ = [
    "shifted_phi",
    "a_map",
    "v_map",
    "weighted_maps",
    "HammerReport",
    "hammer_check",
    "conjugate_by_maximization",
    "removal_shift_constant",
    "change_of_shift_needed_c",
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


def _phi(p: float, a, t, a_p, a_pm2, t_p) -> np.ndarray:
    """phi_a(t) from the powers a^p, a^(p-2) and t^p: the closed two-branch form."""
    above = (t_p - a_p) / p + a_p / 2.0
    return np.where(t <= a, a_pm2 * t * t / 2.0, above)


def shifted_phi(p: float, a, t) -> np.ndarray:
    """Closed form of the shifted N-function, vectorized in both a and t."""
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(a < 0):
        raise ValueError("shift and argument must be nonnegative")
    a, t = np.broadcast_arrays(a, t)
    return _phi(p, a, t, _pow(a, p), _pow(a, p - 2.0), _pow(t, p))


def _dphi(a, t, a_pm2, t_pm1) -> np.ndarray:
    """phi'_a(t) from the powers a^(p-2) and t^(p-1)."""
    return np.where(t <= a, a_pm2 * t, t_pm1)


# ---------------------------------------------------------------------------
# vector maps
# ---------------------------------------------------------------------------

def a_map(p: float, xi: np.ndarray) -> np.ndarray:
    """Nonlinear flux map |xi|^(p-2) xi, with the continuous value 0 at 0."""
    xi = np.asarray(xi, dtype=float)
    r = euclidean_norm(xi)[..., None]
    return _pow(r, p - 2.0) * xi


def v_map(p: float, xi: np.ndarray) -> np.ndarray:
    """Natural-distance map |xi|^((p-2)/2) xi; |V(xi)|^2 = |xi|^p."""
    xi = np.asarray(xi, dtype=float)
    r = euclidean_norm(xi)[..., None]
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
    vdist = euclidean_norm(v_map(p, P) - v_map(p, Q)) ** 2
    qnorm = euclidean_norm(Q)
    shifted = 2.0 * shifted_phi(p, qnorm, euclidean_norm(P - Q))
    conj = 2.0 * shifted_phi(
        _conj(p), _pow(qnorm, p - 1.0), euclidean_norm(ap - aq)
    )
    return HammerReport(monotone, vdist, shifted, conj)


# ---------------------------------------------------------------------------
# conjugation oracle and shift lemma checks
# ---------------------------------------------------------------------------

def conjugate_by_maximization(p: float, a: float | np.ndarray, t) -> np.ndarray:
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
        # t s - shifted_phi(p, a, s), with the shift's powers computed once;
        # s^p needs no zero guard, as p > 1
        return t * s - _phi(p, a, s, a_p, a_pm2, s ** p)

    hi = np.ones(t.shape)
    for _ in range(120):
        grow = obj(hi) > obj(0.99 * hi)
        if not grow.any():
            break
        hi = np.where(grow, 2.0 * hi, hi)
    lo = np.zeros(t.shape)
    for _ in range(130):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
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


def change_of_shift_needed_c(p: float, P: np.ndarray, Q: np.ndarray, t, delta: float):
    """Smallest admissible c in phi_|P|(t) <= c phi_|Q|(t) + delta |V(P)-V(Q)|^2.

    Reported per sample; the lemma asserts a finite sup depending only on
    (p, delta), which the sweep estimates empirically.  This is the only check
    on the ``CALIBRATED.change_of_shift`` constants that every
    ``weight_analysis.json`` echoes (``test_change_of_shift_bounded``).
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    t = np.asarray(t, dtype=float)
    lhs = shifted_phi(p, euclidean_norm(P), t)
    vdist = euclidean_norm(v_map(p, P) - v_map(p, Q)) ** 2
    denom = shifted_phi(p, euclidean_norm(Q), t)
    num = np.maximum(lhs - delta * vdist, 0.0)
    return np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)


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


def _finite_ratio(lhs, rhs) -> np.ndarray:
    ratio = lhs / rhs
    finite = np.isfinite(ratio)
    return ratio if finite.all() else ratio[finite]


def _cases(p: float, a, t, s, delta, rng):
    """Yield ``(case, ratio, bound)`` for each case of the sweep before the
    monotonicity one, in row order; a ratio is lhs / rhs, and a violation is
    a ratio above ``bound``.

    ``a``, ``t``, ``s`` and ``delta`` are 1-d sample arrays of one length, and
    ``rng`` draws the lambda factors of the shift scaling.  Only the shifts
    ``a`` may be zero, so only their powers go through the zero guard
    ``_pow``.  Every power of a sample array is taken once and deleted after
    its last use, and each ratio is yielded as soon as its two sides exist,
    so that few sample-sized arrays are alive at once (the sweep's peak
    memory).
    """
    q = _conj(p)
    slack = 1.0 + 1e-12
    a_pm1, a_pm2 = _pow(a, p - 1.0), _pow(a, p - 2.0)
    td = t / delta
    # shift removal: phi'_a(t) <= phi'(t/delta) v (delta phi'(a)),
    # phi_a(t) <= delta phi(a) + c(p) delta phi(t/delta), and
    # (phi_a)*(t) <= (p/p') delta phi(a) + c(p') delta phi*(t/delta)
    yield "removal-shift-1", _finite_ratio(
        _dphi(a, t, a_pm2, t ** (p - 1.0)), np.maximum(td ** (p - 1.0), delta * a_pm1)
    ), slack
    a_p = _pow(a, p)
    phi_at = _phi(p, a, t, a_p, a_pm2, t ** p)
    yield "removal-shift-2", _finite_ratio(
        phi_at, delta * (a_p / p) + removal_shift_constant(p) * delta * (td ** p / p)
    ), slack
    # (phi_a)* is phi* shifted by b = a^(p-1), on the conjugate exponent q
    b_q, b_qm2 = _pow(a_pm1, q), _pow(a_pm1, q - 2.0)
    yield "removal-shift-3", _finite_ratio(
        _phi(q, a_pm1, t, b_q, b_qm2, t ** q),
        (p / q) * delta * (a_p / p) + removal_shift_constant(q) * delta * (td ** q / q),
    ), slack
    del td
    # scaled Young, s t <= delta phi_a(t) + delta (phi_a)*(s/delta): exact for
    # every delta > 0 because delta phi_a(.) has conjugate delta (phi_a)*(./delta)
    sd = s / delta
    yield "young-scaled", _finite_ratio(
        s * t, delta * phi_at + delta * _phi(q, a_pm1, sd, b_q, b_qm2, sd ** q)
    ), slack
    del sd, a_pm1, b_q, b_qm2

    # conjugate duality against the maximization oracle, on a log grid; one
    # oracle call searches a column of all the shifts against the grid
    tg = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25))
    shifts = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
    column = np.array(shifts)[:, None]
    closed = shifted_phi(q, _pow(column, p - 1.0), tg)
    numeric = conjugate_by_maximization(p, column, tg)
    scale = np.maximum(np.abs(closed), 1e-300)
    rel_all = np.abs(closed - numeric) / np.maximum(scale, np.abs(numeric))
    for shift, rel in zip(shifts, rel_all):
        yield f"conjugate-duality(a={shift:g})", rel, 1e-8

    # two-branch comparability: phi_a(t) against (a v t)^(p-2) t^2
    yield "phi-a-comparability", _finite_ratio(
        phi_at, np.maximum(a, t) ** (p - 2.0) * t * t
    ), math.inf

    # the lambda-shift scaling: phi_a(lambda a) against lambda^2 phi(a)
    # below lambda = 1 and against phi(lambda a) above it
    pos = a > 0
    a_pos, a_pos_p, a_pos_pm2 = a[pos], a_p[pos], a_pm2[pos]
    lam = np.exp(rng.uniform(math.log(1e-3), 0.0, a_pos.size))
    x = lam * a_pos
    below = _phi(p, a_pos, x, a_pos_p, a_pos_pm2, x ** p) / (lam ** 2 * a_pos_p / p)
    lam = np.exp(rng.uniform(0.0, math.log(1e3), a_pos.size))
    x = lam * a_pos
    del lam
    x_p = x ** p
    above = _phi(p, a_pos, x, a_pos_p, a_pos_pm2, x_p) / (x_p / p)
    del a_pos, a_pos_p, a_pos_pm2, x, x_p
    # (empty when every sampled shift is zero, as for a handful of samples)
    yield "shift-scaling", np.concatenate([below, above]), math.inf
    del below, above

    # doubling: phi_a(2t) / phi_a(t) stays below 2^max(2, p)
    t2 = 2.0 * t
    yield "doubling", _finite_ratio(
        _phi(p, a, t2, a_p, a_pm2, t2 ** p), phi_at
    ), 2.0 ** max(2.0, p) * slack


def run_property_sweep(p: float, samples: int = 100_000, seed: int = 0) -> list[PropertyCase]:
    """Randomized verification sweep of the shift-calculus inequalities.

    Ratios are lhs/rhs, so a violation is a ratio above 1 + 1e-12 slack.
    """
    rng = np.random.default_rng(seed)
    rows: list[PropertyCase] = []

    def record(case: str, ratio, bound, empty=math.nan):
        lo, hi = (float(ratio.min()), float(ratio.max())) if ratio.size else (empty, empty)
        rows.append(
            PropertyCase(p, case, lo, hi, int(np.count_nonzero(ratio > bound)), int(ratio.size))
        )

    a = _log_uniform(rng, 1e-4, 1e4, samples) * (rng.random(samples) > 0.1)
    t = _log_uniform(rng, 1e-4, 1e4, samples)
    s = _log_uniform(rng, 1e-4, 1e4, samples)
    delta = np.exp(rng.uniform(math.log(1e-3), 0.0, samples))
    for case, ratio, bound in _cases(p, a, t, s, delta, rng):
        record(case, ratio, bound)
        del ratio  # before the generator builds the next one

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
    record("hammer-equivalence", qs[2][pos] / qs[0][pos], math.inf, empty=1.0)
    return rows
