"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` for the PASS lines).
Every tolerance below is fixed here, not calibrated at runtime.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_spd
from degcz.cli import main as cli_main
from degcz.cz_harness import SweepSpec, fefferman_stein_constant, run_sweep
from degcz.exact_examples import MeyersExample
from degcz.meshing import disk_mesh
from degcz.nfunctions import hammer_check, run_property_sweep, weighted_maps
from degcz.pde_solver import WeakProblem, interpolate, solve, weighted_h1_error
from degcz.seminorms import (
    BallFamily,
    bmo,
    muckenhoupt_ap,
    standard_family,
)
from degcz.weight_algebra import (
    Ball,
    DEFAULT_QUAD,
    MEAN_QUAD,
    log_mean,
    omega_and_matrix_from_config,
    spd_log,
    spectral_norm_sym,
    sym_exp_batched,
    sym_log_batched,
)


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"[ACCEPTANCE {number}] {name}: PASS ({elapsed:.2f}s / budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_exact_solution_identity():
    with criterion(1, "exact-solution identity", 1.0):
        rng = np.random.default_rng(101)
        for variant in ("plain", "degenerate"):
            for n in (2, 3):
                for eps in (0.1, 0.25, 0.5):
                    ex = MeyersExample(n, eps, variant)
                    assert abs(ex.divergence_coefficient()) <= 1e-14
                    pts = rng.standard_normal((50, n))
                    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                    pts *= 0.05 + 0.9 * rng.random((50, 1))
                    cal_a, _ = weighted_maps(ex.weight(pts), 2.0, ex.grad_u(pts))
                    flux = ex.flux(pts)
                    rel = np.linalg.norm(cal_a - flux, axis=1) / np.linalg.norm(flux, axis=1)
                    assert rel.max() <= 1e-10


def test_criterion_2_solver_convergence():
    with criterion(2, "solver convergence on graded disk", 60.0):
        ex = MeyersExample(2, 0.25, "plain")
        prob = WeakProblem(ex.weight_field(), 2.0, None, ex.u_with_origin)
        mesh = disk_mesh(angular=20, layers=36, grading=0.7)
        errors = []
        for level in range(4):
            assert mesh.num_vertices <= 5e4
            result = solve(prob, mesh)
            errors.append(weighted_h1_error(result.field, ex.grad_u, ex.scalar_weight()))
            if level < 3:
                mesh = mesh.refine()
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 1.5


def test_criterion_3_sharpness_threshold():
    with criterion(3, "sharpness threshold reproduction", 300.0):
        spec = SweepSpec(
            eps_list=(0.5,), rho_list=(2.0, 3.0, 3.6, 4.4, 5.0), levels=(1, 2, 3)
        )
        rep = run_sweep(spec)
        for rho in (2.0, 3.0, 3.6):
            assert rep.classifications[(0.5, rho)] == "bounded", rho
        for rho in (4.4, 5.0):
            assert rep.classifications[(0.5, rho)] == "diverging", rho

        spec_q = SweepSpec(
            eps_list=(0.25,), rho_list=(7.2, 7.8, 8.8, 9.4), levels=(1, 2, 3)
        )
        rep_q = run_sweep(spec_q)
        boundary = rep_q.boundaries[0.25]
        assert boundary is not None and 7.2 <= boundary <= 8.8


def test_criterion_4_degenerate_weight_characterization():
    with criterion(4, "degenerate weight BMO characterization", 30.0):
        dom = Ball((0.0, 0.0), 1.0)
        for eps in (0.1, 0.25, 0.5):
            ex = MeyersExample(2, eps, "degenerate")
            weight = ex.weight_field()
            fam_lo = BallFamily.origin_ladder(dom, levels=1)
            fam_hi = BallFamily.origin_ladder(dom, levels=3)
            bmo_lo = bmo(weight, fam_lo, DEFAULT_QUAD).value
            bmo_hi = bmo(weight, fam_hi, DEFAULT_QUAD).value
            assert bmo_hi >= 2.0 * bmo_lo, f"eps={eps}"
            for fam in (fam_lo, fam_hi):
                log_val = bmo(weight.log(), fam, DEFAULT_QUAD).value
                assert log_val <= 1.5 * eps + 0.01, f"eps={eps}"


def test_criterion_5_weight_algebra_identities():
    with criterion(5, "weight-algebra identities", 10.0):
        rng = np.random.default_rng(55)
        # matrix exp/log round trip on 1e4 random SPD with condition <= 1e6
        for n in (2, 3):
            m = random_spd(rng, 5000, n, max_cond=1e6)
            rel = spectral_norm_sym(sym_exp_batched(sym_log_batched(m)) - m)
            assert (rel / spectral_norm_sym(m)).max() <= 1e-9
        # rank-one logarithm formula
        for _ in range(300):
            a = math.exp(rng.uniform(-4, 4)) - 0.999
            v = rng.standard_normal(2)
            v /= np.linalg.norm(v)
            err = np.abs(
                spd_log(np.eye(2) + a * np.outer(v, v)) - math.log1p(a) * np.outer(v, v)
            ).max()
            assert err <= 1e-12
        # inversion duality of the logarithmic means
        ball = Ball((0.0, 0.0), 1.0)
        om = omega_and_matrix_from_config({"kind": "power", "exponent": 0.3})[0]
        v = log_mean(om, ball)
        assert abs(log_mean(om.inverse(), ball) - 1.0 / v) <= 1e-10
        field = MeyersExample(2, 0.5, "plain").weight_field()
        m_b = log_mean(field, ball)
        m_inv = log_mean(field.inverse(), ball)
        assert np.abs(m_inv - np.linalg.inv(m_b)).max() <= 1e-10
        # closed-form scalar log-mean under the default mean quadrature
        for r in (1.0, 0.4):
            got = log_mean(om, Ball((0.0, 0.0), r), MEAN_QUAD)
            assert abs(got - r ** 0.3 * math.exp(-0.15)) <= 1e-6


def test_criterion_6_nfunction_property_suite():
    with criterion(6, "N-function property suite", 30.0):
        rng = np.random.default_rng(66)
        for p in (1.5, 2.0, 3.0, 4.5):
            for case in run_property_sweep(p, samples=100_000, seed=19):
                assert case.violations == 0, f"p={p}, case {case.case}"
        # monotonicity-quantity equivalence constants
        for p in (1.5, 2.0, 3.0):
            scale = np.exp(rng.uniform(-3, 3, (100_000, 1)))
            P = rng.standard_normal((100_000, 2)) * scale
            Q = rng.standard_normal((100_000, 2)) * scale
            c = hammer_check(p, P, Q).equivalence_constant()
            assert c <= 10.0, f"p={p}: c={c}"
            if p == 2.0:
                assert c == pytest.approx(1.0, abs=1e-12)


def test_criterion_7_seminorm_estimators():
    with criterion(7, "seminorm estimators", 60.0):
        dom = Ball((0.0, 0.0), 1.0)
        fam = standard_family(dom, 3)
        from degcz.weight_algebra import weight_from_config

        # scalar-vs-matrix logarithmic oscillation transfer on all tested pairs
        fields = [
            MeyersExample(2, 0.25, "plain").weight_field(),
            MeyersExample(2, 0.5, "plain").weight_field(),
            MeyersExample(2, 0.25, "degenerate").weight_field(),
            weight_from_config({"kind": "log-normal", "n": 2, "seed": 8}),
        ]
        for field in fields:
            s = bmo(field.omega().log(), fam, DEFAULT_QUAD).value
            m = bmo(field.log(), fam, DEFAULT_QUAD).value
            assert s <= 2.0 * m + 1e-9
        # exact scale invariance of the log-BMO estimate
        om = omega_and_matrix_from_config({"kind": "power", "exponent": 0.4})[0]
        base = bmo(om.log(), fam, DEFAULT_QUAD).value
        for t in (1e-3, 1.0, 1e3):
            val = bmo(om.scaled(t).log(), fam, DEFAULT_QUAD).value
            assert abs(val - base) <= 1e-12
        # Muckenhoupt estimates
        one = omega_and_matrix_from_config({"kind": "constant", "value": 1.0})[0]
        est = muckenhoupt_ap(one, 2.0, fam, DEFAULT_QUAD)
        assert not est.divergent and abs(est.value - 1.0) <= 1e-12
        est = muckenhoupt_ap(
            omega_and_matrix_from_config({"kind": "power", "exponent": 1.2})[0],
            2.0, fam, DEFAULT_QUAD,
        )
        assert est.divergent
        om6 = omega_and_matrix_from_config({"kind": "power", "exponent": 0.6})[0]
        v1 = muckenhoupt_ap(om6, 2.0, fam, DEFAULT_QUAD)
        v2 = muckenhoupt_ap(om6, 2.0, fam.refined(), DEFAULT_QUAD)
        assert not v1.divergent and not v2.divergent
        assert abs(v2.value / v1.value - 1.0) <= 0.10


def test_criterion_8_inequality_shape_checks():
    with criterion(8, "inequality-shape checks", 120.0):
        from degcz.cz_harness import caccioppoli_check, poincare_check

        rng = np.random.default_rng(88)
        ex = MeyersExample(2, 0.25, "plain")
        prob = WeakProblem(ex.weight_field(), 2.0)
        om = ex.scalar_weight()
        # quasi-uniform mesh: every sampled ball must contain many cells
        mesh0 = disk_mesh(angular=96, layers=48, grading=1.0)
        mesh1 = mesh0.refine()
        u0 = interpolate(mesh0, ex.u_with_origin)
        u1 = interpolate(mesh1, ex.u_with_origin)
        for _ in range(20):
            while True:
                c = rng.uniform(-0.5, 0.5, 2)
                r = rng.uniform(0.1, 0.2)
                if np.linalg.norm(c) + 2 * r <= 1.0:
                    break
            ball = Ball(tuple(c), r)
            c0 = caccioppoli_check(u0, prob, ball).ratio
            c1 = caccioppoli_check(u1, prob, ball).ratio
            assert abs(c1 / c0 - 1.0) <= 0.25
            p0 = poincare_check(u0, om, ball, 2.0, 1.0).ratio
            p1 = poincare_check(u1, om, ball, 2.0, 1.0).ratio
            assert abs(p1 / p0 - 1.0) <= 0.25

        # Fefferman-Stein constant varies by at most 2x across q in {4, 8, 16}
        exf = MeyersExample(2, 0.5, "plain")
        mesh = disk_mesh(angular=32, layers=16, grading=0.7)
        u = interpolate(mesh, exf.u_with_origin)
        f = np.linalg.norm(u.cell_gradients(), axis=1) * exf.omega(mesh.barycenters)
        f = np.minimum(f, np.quantile(f, 0.95))
        fam = standard_family(Ball((0.0, 0.0), 1.0), 4)
        consts = [fefferman_stein_constant(mesh, f, fam, q) for q in (4.0, 8.0, 16.0)]
        assert max(consts) / min(consts) <= 2.0


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "rerun determinism", 120.0):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "\n".join(
                [
                    'example.variant = "plain"',
                    "example.eps = [0.5]",
                    "sweep.rho = [3.0, 5.0]",
                    "sweep.levels = [1, 2, 3]",
                    "mesh.angular = 12",
                    "mesh.base_layers = 15",
                    "mesh.layers_per_level = 80",
                    "seed = 42",
                ]
            )
        )
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert cli_main(
                ["cz-sweep", "--config", str(cfg), "--threads", "1", "--out", str(out)]
            ) == 0
            outs.append(out)
        assert (outs[0] / "cz_report.csv").read_bytes() == (outs[1] / "cz_report.csv").read_bytes()
        assert (outs[0] / "cz_summary.json").read_bytes() == (outs[1] / "cz_summary.json").read_bytes()

        for tag in ("n1", "n2"):
            assert cli_main(["nfun-props", "--seed", "42", "--out", str(tmp_path / tag)]) == 0
        assert (tmp_path / "n1" / "nfun_props.csv").read_bytes() == (
            tmp_path / "n2" / "nfun_props.csv"
        ).read_bytes()
