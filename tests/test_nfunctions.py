import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from degcz.nfunctions import (
    _cases,
    _pow,
    a_map,
    change_of_shift_needed_c,
    conjugate_by_maximization,
    hammer_check,
    removal_shift_constant,
    run_property_sweep,
    shifted_phi,
    v_map,
    weighted_maps,
)


def phi_a_oracle(p, a, t):
    """The defining integral, evaluated by adaptive quadrature."""
    val, _ = integrate.quad(
        lambda s: max(a, s) ** (p - 2.0) * s,
        0.0,
        t,
        points=[a] if a < t else None,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return val


def sweep_ratios(p, a, t, s=1.0, delta=1.0):
    """The sweep's finite lhs / rhs ratios on the given samples, by case."""
    a, t, s, delta = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                           for x in (a, t, s, delta)))
    return {case: ratio
            for case, ratio, _ in _cases(p, a, t, s, delta, np.random.default_rng(0))}


class TestShiftedPhi:
    def test_p2_is_quadratic(self):
        for a in (0.0, 0.7, 5.0):
            t = np.linspace(0, 4, 33)
            assert np.allclose(shifted_phi(2.0, a, t), t * t / 2.0)

    def test_against_integral_oracle(self):
        assert shifted_phi(3.0, 1.0, 2.0) == pytest.approx(17.0 / 6.0, rel=1e-12)
        assert shifted_phi(3.0, 1.0, 2.0) == pytest.approx(phi_a_oracle(3.0, 1.0, 2.0), rel=1e-10)
        assert shifted_phi(3.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert shifted_phi(3.0, 2.0, 1.0) == pytest.approx(phi_a_oracle(3.0, 2.0, 1.0), rel=1e-10)
        for p in (1.5, 2.5, 4.5):
            for a in (0.0, 0.3, 2.0):
                for t in (0.1, 1.0, 3.7):
                    assert shifted_phi(p, a, t) == pytest.approx(
                        phi_a_oracle(p, a, t), rel=1e-9
                    )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            shifted_phi(2.0, 1.0, -1.0)

    def test_monotone_convex(self):
        t = np.linspace(0.0, 5.0, 2001)
        for p in (1.5, 3.0, 4.5):
            for a in (0.0, 0.5, 2.0):
                v = shifted_phi(p, a, t)
                d1 = np.diff(v)
                assert np.all(d1 > 0)
                assert np.min(np.diff(d1)) >= -1e-12

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
    def test_matches_two_power_expression_bitwise(self, p):
        """One a^p serves both terms of the upper branch; addition commutes,
        so every bit of the expression that evaluated it twice is kept."""
        def reference(p, a, t):
            a, t = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(t, dtype=float))
            below = _pow(a, p - 2.0) * t * t / 2.0
            above = _pow(a, p) / 2.0 + (_pow(t, p) - _pow(a, p)) / p
            return np.where(t <= a, below, above)

        rng = np.random.default_rng(7)
        grid = np.array([0.0, 1e-300, 1e-8, 0.3, 1.0, 2.5, 1e3])
        a, t = np.meshgrid(grid, grid)                    # a = 0, t = 0 and t = a
        for a_, t_ in ((a, t), (grid[:, None], grid), rng.exponential(2.0, (2, 500))):
            assert np.array_equal(shifted_phi(p, a_, t_), reference(p, a_, t_))

    def test_shift_zero_recovers_phi(self):
        t = np.linspace(0.1, 5, 17)
        assert np.allclose(shifted_phi(3.0, 0.0, t), t ** 3 / 3.0)
        # phi' = t^2, by central differences of the closed form
        h = 1e-5
        assert np.allclose((shifted_phi(3.0, 0.0, t + h) - shifted_phi(3.0, 0.0, t - h)) / (2 * h),
                           t ** 2, rtol=1e-8)

    def test_conjugate_shift_map(self):
        # (phi_a)* = (phi*)_{phi'(a)} on the conjugate exponent p' = p / (p - 1)
        p, a = 3.0, 2.0
        shift = float(_pow(a, p - 1.0))
        assert shift == pytest.approx(4.0)  # phi'(2) = 2^(p-1)
        t = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 9))
        assert np.allclose(shifted_phi(p / (p - 1.0), shift, t),
                           conjugate_by_maximization(p, a, t), rtol=1e-8)


class TestMaps:
    def test_p2_identity(self, rng):
        xi = rng.standard_normal((10, 2))
        assert np.allclose(a_map(2.0, xi), xi)
        assert np.allclose(v_map(2.0, xi), xi)

    def test_p4_values(self):
        assert np.allclose(a_map(4.0, np.array([2.0, 0.0])), [8.0, 0.0])
        assert np.allclose(v_map(4.0, np.array([2.0, 0.0])), [4.0, 0.0])

    def test_zero_maps_to_zero(self):
        for p in (1.5, 2.0, 3.0):
            assert np.all(a_map(p, np.zeros(2)) == 0.0)
            assert np.all(v_map(p, np.zeros(2)) == 0.0)

    def test_algebraic_identities(self, rng):
        for p in (1.5, 2.0, 3.0):
            xi = rng.standard_normal((1000, 2)) * np.exp(rng.uniform(-3, 3, (1000, 1)))
            norm = np.linalg.norm(xi, axis=1)
            assert np.abs(np.linalg.norm(a_map(p, xi), axis=1) - norm ** (p - 1)).max() <= 1e-9 * norm.max() ** (p - 1)
            dots = np.einsum("mi,mi->m", a_map(p, xi), xi)
            vsq = np.linalg.norm(v_map(p, xi), axis=1) ** 2
            assert np.abs(dots - vsq).max() <= 1e-12 * max(1.0, vsq.max())

    def test_weighted_maps_identity_weight(self, rng):
        xi = rng.standard_normal((20, 2))
        cal_a, cal_v = weighted_maps(np.eye(2), 3.0, xi)
        assert np.allclose(cal_a, a_map(3.0, xi))
        assert np.allclose(cal_v, v_map(3.0, xi))

    def test_weighted_maps_p2_linear(self, rng):
        from conftest import random_spd

        m = random_spd(rng, 20, 2, max_cond=30)
        xi = rng.standard_normal((20, 2))
        cal_a, _ = weighted_maps(m, 2.0, xi)
        m2xi = np.einsum("cij,cjk,ck->ci", m, m, xi)
        assert np.allclose(cal_a, m2xi)

    def test_duality_identity(self, rng):
        from conftest import random_spd

        m = random_spd(rng, 50, 2, max_cond=100)
        xi = rng.standard_normal((50, 2))
        for p in (1.5, 3.0):
            cal_a, cal_v = weighted_maps(m, p, xi)
            dots = np.einsum("mi,mi->m", cal_a, xi)
            vsq = np.linalg.norm(cal_v, axis=1) ** 2
            assert np.abs(dots - vsq).max() <= 1e-12 * max(1.0, vsq.max())


class TestHammer:
    def test_p2_all_equal(self, rng):
        # all four quantities coincide at p = 2 (up to float rounding of the
        # different evaluation paths); the integer example is exact
        rep = hammer_check(2.0, [[1.0, 0.0]], [[0.0, 0.0]])
        assert np.abs(rep.quantities() - 1.0).max() == 0.0
        P = rng.standard_normal((500, 2))
        Q = rng.standard_normal((500, 2))
        rep = hammer_check(2.0, P, Q)
        qs = rep.quantities()
        assert np.abs(qs / qs[0] - 1.0).max() <= 1e-12
        assert rep.equivalence_constant() == pytest.approx(1.0, abs=1e-12)

    def test_q_zero_reduction(self):
        rep = hammer_check(4.0, [[1.0, 0.0]], [[0.0, 0.0]])
        assert rep.monotone[0] == pytest.approx(1.0)
        assert rep.v_distance[0] == pytest.approx(1.0)

    def test_random_sweep_bounded(self, rng):
        for p in (1.5, 3.0):
            scale = np.exp(rng.uniform(-3, 3, (100_000, 1)))
            P = rng.standard_normal((100_000, 2)) * scale
            Q = rng.standard_normal((100_000, 2)) * scale
            rep = hammer_check(p, P, Q)
            c = rep.equivalence_constant()
            assert 1.0 <= c <= 10.0, f"p={p}: c={c}"


class TestShiftLemmas:
    REMOVAL = ("removal-shift-1", "removal-shift-2", "removal-shift-3")

    def test_removal_shift_zero_shift(self):
        ratio = sweep_ratios(3.0, 0.0, 2.0)["removal-shift-1"]
        assert ratio == pytest.approx([1.0])  # reduces to phi'(t) <= phi'(t)

    def test_removal_shift_worked_example(self):
        # p = 3, a = 2, t = 1, delta = 1/2: phi'_a(t) = 2 against
        # max((t/delta)^2, delta a^2) = 4, and phi_a(t) = 1 against
        # delta a^3/3 + c(3) delta (t/delta)^3/3 = 4/3 + 10/3
        assert removal_shift_constant(3.0) == 2.5
        ratios = sweep_ratios(3.0, 2.0, 1.0, delta=0.5)
        assert ratios["removal-shift-1"] == pytest.approx([0.5])
        assert ratios["removal-shift-2"] == pytest.approx([3.0 / 14.0])

    def test_removal_shift_sweep(self, rng):
        for p in (1.5, 2.0, 3.0, 4.5):
            a = np.exp(rng.uniform(-6, 6, 100_000))
            t = np.exp(rng.uniform(-6, 6, 100_000))
            d = np.exp(rng.uniform(math.log(1e-3), 0.0, 100_000))
            ratios = sweep_ratios(p, a, t, delta=d)
            for case in self.REMOVAL:
                assert ratios[case].size == a.size
                assert ratios[case].max() <= 1 + 1e-12

    def test_young_exact(self, rng):
        for p in (1.5, 2.0, 3.0, 4.5):
            a = np.exp(rng.uniform(-6, 6, 100_000)) * (rng.random(100_000) > 0.1)
            s = np.exp(rng.uniform(-6, 6, 100_000))
            t = np.exp(rng.uniform(-6, 6, 100_000))
            d = np.exp(rng.uniform(math.log(1e-3), 0.0, 100_000))
            ratio = sweep_ratios(p, a, t, s, d)["young-scaled"]
            assert ratio.size == a.size
            assert ratio.max() <= 1 + 1e-12

    def test_change_of_shift_bounded(self, rng):
        from degcz.calibration import CALIBRATED

        table = dict(CALIBRATED.change_of_shift)
        for p_key, c_cal in table.items():
            p = float(p_key)
            P = rng.standard_normal((50_000, 2)) * np.exp(rng.uniform(-2, 2, (50_000, 1)))
            Q = rng.standard_normal((50_000, 2)) * np.exp(rng.uniform(-2, 2, (50_000, 1)))
            t = np.exp(rng.uniform(-2, 2, 50_000))
            needed = change_of_shift_needed_c(p, P, Q, t, delta=0.25)
            assert needed.max() <= c_cal, f"p={p}: needed {needed.max():.3g}"


class TestConjugateDuality:
    def test_closed_form_vs_maximization(self):
        tg = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25))
        for p in (1.5, 2.0, 3.0, 4.5):
            for a in (0.0, 0.1, 1.0, 10.0):
                closed = shifted_phi(p / (p - 1.0), a ** (p - 1.0), tg)
                numeric = conjugate_by_maximization(p, a, tg)
                rel = np.abs(closed - numeric) / np.maximum(np.abs(closed), np.abs(numeric))
                assert rel.max() <= 1e-8

    @staticmethod
    def per_shift_oracle(p, a, t, iters=130):
        """The one-shift search through shifted_phi, kept as the reference
        for the batched oracle."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        obj = lambda s: t * s - shifted_phi(p, a, s)
        hi = np.ones_like(t)
        for _ in range(120):
            grow = obj(hi) > obj(0.99 * hi)
            if not grow.any():
                break
            hi = np.where(grow, 2.0 * hi, hi)
        lo = np.zeros_like(t)
        for _ in range(iters):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            takes_hi = obj(m1) < obj(m2)
            lo = np.where(takes_hi, m1, lo)
            hi = np.where(takes_hi, hi, m2)
        return obj(0.5 * (lo + hi))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
    def test_batched_shifts_match_per_shift_search_bitwise(self, p):
        tg = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25))
        shifts = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
        batched = conjugate_by_maximization(p, np.array(shifts)[:, None], tg)
        assert batched.shape == (len(shifts), tg.size)
        for row, a in zip(batched, shifts):
            assert np.array_equal(row, self.per_shift_oracle(p, a, tg)), a

    def test_scalar_shift_keeps_grid_shape(self):
        tg = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25))
        numeric = conjugate_by_maximization(3.0, 1.0, tg)
        assert numeric.shape == (25,)
        assert np.array_equal(numeric, self.per_shift_oracle(3.0, 1.0, tg))

    @pytest.mark.parametrize("a", [-1.0, [[0.5], [-1e-3]]])
    def test_negative_shift_rejected(self, a):
        with pytest.raises(ValueError):
            conjugate_by_maximization(3.0, a, np.array([0.5, 2.0]))


class TestEquivalences:
    def test_delta2_uniform(self, rng):
        for p in (1.5, 2.0, 3.0, 4.5):
            a = np.exp(rng.uniform(-5, 5, 30_000))
            t = np.exp(rng.uniform(-5, 5, 30_000))
            ratio = sweep_ratios(p, a, t)["doubling"]
            assert ratio.size == a.size
            assert ratio.max() <= 2.0 ** max(2.0, p) * (1 + 1e-12)

    def test_phi_a_comparability_constant(self, rng):
        # symmetric (optimally centered) equivalence constant stays below 2
        for p in (1.5, 2.0, 3.0, 4.5):
            a = np.exp(rng.uniform(-5, 5, 30_000))
            t = np.exp(rng.uniform(-5, 5, 30_000))
            ratio = sweep_ratios(p, a, t)["phi-a-comparability"]
            ratio = ratio[ratio > 0]
            c = math.sqrt(ratio.max() / ratio.min())
            assert c <= 2.0, f"p={p}: c={c}"

    def test_shift_scaling_branches(self):
        # phi_a(lambda a) against lambda^2 phi(a) below 1 and phi(lambda a) above
        p = 3.0
        a = 2.0
        for lam in (0.1, 0.5, 0.9):
            ratio = shifted_phi(p, a, lam * a) / (lam ** 2 * shifted_phi(p, 0.0, a))
            assert ratio == pytest.approx(p / 2.0, rel=1e-12)
        for lam in (1.5, 4.0, 32.0):
            ratio = shifted_phi(p, a, lam * a) / shifted_phi(p, 0.0, lam * a)
            assert min(1.0, p / 2.0) - 1e-12 <= ratio <= max(1.0, p / 2.0) + 1e-12


def parent_sweep(p, samples, seed):
    """The sweep as it was before its powers were shared: every margin took
    its own powers through the public closed forms of that time."""
    def phi(p, a, t):
        a, t = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(t, dtype=float))
        a_p = _pow(a, p)
        above = (_pow(t, p) - a_p) / p + a_p / 2.0
        return np.where(t <= a, _pow(a, p - 2.0) * t * t / 2.0, above)

    def log_uniform(rng, lo, hi, size):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), size))

    rng = np.random.default_rng(seed)
    rows = []
    slack = 1.0 + 1e-12
    q = p / (p - 1.0)

    def record(case, ratio, bound=math.inf, empty=math.nan):
        lo, hi = (float(ratio.min()), float(ratio.max())) if ratio.size else (empty, empty)
        rows.append((p, case, lo, hi, int(np.count_nonzero(ratio > bound)), int(ratio.size)))

    def add(case, lhs, rhs):
        ratio = lhs / rhs
        record(case, ratio[np.isfinite(ratio)], slack)

    a = log_uniform(rng, 1e-4, 1e4, samples) * (rng.random(samples) > 0.1)
    t = log_uniform(rng, 1e-4, 1e4, samples)
    s = log_uniform(rng, 1e-4, 1e4, samples)
    delta = np.exp(rng.uniform(math.log(1e-3), 0.0, samples))
    add("removal-shift-1", np.where(t <= a, _pow(a, p - 2.0) * t, _pow(t, p - 1.0)),
        np.maximum(_pow(t / delta, p - 1.0), delta * _pow(a, p - 1.0)))
    add("removal-shift-2", phi(p, a, t),
        delta * (_pow(a, p) / p)
        + removal_shift_constant(p) * delta * (_pow(t / delta, p) / p))
    add("removal-shift-3", phi(q, _pow(a, p - 1.0), t),
        (p / q) * delta * (_pow(a, p) / p)
        + removal_shift_constant(q) * delta * (_pow(t / delta, q) / q))
    add("young-scaled", s * t,
        delta * phi(p, a, t) + delta * phi(q, _pow(a, p - 1.0), s / delta))
    tg = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 25))
    for shift in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0):
        closed = phi(q, _pow(np.array(shift), p - 1.0), tg)
        numeric = TestConjugateDuality.per_shift_oracle(p, shift, tg)
        scale = np.maximum(np.abs(closed), 1e-300)
        record(f"conjugate-duality(a={shift:g})",
               np.abs(closed - numeric) / np.maximum(scale, np.abs(numeric)), 1e-8)
    comp = _pow(np.maximum(a, t), p - 2.0) * t * t
    eq = np.where(comp > 0, phi(p, a, t) / np.where(comp > 0, comp, 1.0), np.nan)
    record("phi-a-comparability", eq[np.isfinite(eq)])
    a_pos = a[a > 0]
    lam_lo = np.exp(rng.uniform(math.log(1e-3), 0.0, a_pos.size))
    lam_hi = np.exp(rng.uniform(0.0, math.log(1e3), a_pos.size))
    below = phi(p, a_pos, lam_lo * a_pos) / (lam_lo ** 2 * _pow(a_pos, p) / p)
    above = phi(p, a_pos, lam_hi * a_pos) / (_pow(lam_hi * a_pos, p) / p)
    record("shift-scaling", np.concatenate([below, above]))
    num, den = phi(p, a, 2.0 * t), phi(p, a, t)
    d2 = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)
    record("doubling", d2[np.isfinite(d2)], 2.0 ** max(2.0, p) * slack)
    P = rng.standard_normal((samples // 10, 2)) * log_uniform(rng, 1e-3, 1e3, samples // 10)[:, None]
    Q = rng.standard_normal((samples // 10, 2)) * log_uniform(rng, 1e-3, 1e3, samples // 10)[:, None]
    qs = hammer_check(p, P, Q).quantities()
    pos = np.all(qs > 0, axis=0)
    record("hammer-equivalence", qs[2][pos] / qs[0][pos], empty=1.0)
    return rows


class TestPropertySweep:
    def test_zero_violations_all_p(self):
        for p in (1.5, 2.0, 3.0, 4.5):
            rows = run_property_sweep(p, samples=20_000, seed=2)
            for row in rows:
                assert row.violations == 0, f"p={p} case {row.case}"

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 2.5, 3.0, 4.5, 7.0])
    def test_rows_match_parent_sweep_bitwise(self, p):
        """Shared powers keep every bit of every row, in the same order; two
        samples at seed 0 draw no nonzero shift, so shift-scaling is empty."""
        as_bits = lambda row: [np.float64(v).tobytes() if isinstance(v, float) else v
                               for v in row]
        for samples in (2, 20_000):
            for seed in (0, 1):
                rows = [as_bits((r.p, r.case, r.min_ratio, r.max_ratio, r.violations, r.samples))
                        for r in run_property_sweep(p, samples=samples, seed=seed)]
                assert rows == [as_bits(r) for r in parent_sweep(p, samples, seed)]
        scaling = [r for r in run_property_sweep(p, samples=2, seed=0)
                   if r.case == "shift-scaling"]
        assert scaling[0].samples == 0

    def test_peak_memory(self):
        """Each power is dropped after its last use: the traced peak of a
        100k-sample sweep stays below 20 sample-sized float arrays."""
        samples = 100_000
        tracemalloc.start()
        try:
            run_property_sweep(3.0, samples=samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 8 * samples, peak / (8 * samples)
