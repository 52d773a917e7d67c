import collections
import json
import math
from pathlib import Path

import numpy as np
import pytest

from degcz.cli import build_parser, main, parse_config_file, resolve_config


def write_cfg(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_dotted_keys_and_json_values(self, tmp_path):
        cfg = parse_config_file(
            write_cfg(
                tmp_path / "a.cfg",
                """
                # comment
                example.eps = [0.5, 0.25]
                example.variant = "plain"
                mesh.angular = 16
                flag = true
                """,
            )
        )
        assert cfg["example"]["eps"] == [0.5, 0.25]
        assert cfg["example"]["variant"] == "plain"
        assert cfg["mesh"]["angular"] == 16
        assert cfg["flag"] is True

    @pytest.mark.parametrize("text", [
        "name = bare-string\n",                           # an unquoted string
        "problem.data = null\n",                          # no null in TOML
        "seed = 1\nseed = 2\n",                           # a key set twice
        "ball.radius = Infinity\n",                       # JSON's spellings of
        "ball.radius = NaN\n",                            # inf and nan
    ])
    def test_non_toml_values_are_usage_errors(self, tmp_path, capsys, text):
        path = write_cfg(tmp_path / "odd.cfg", text)
        assert main(["cz-sweep", "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {path}: ") and "line" in err

    def test_readme_example_config(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config_file(write_cfg(tmp_path / "sweep.cfg", example)) == {
            "example": {"variant": "plain", "n": 2, "eps": [0.5]},
            "sweep": {"rho": [2, 3, 3.6, 4.4, 5], "levels": [1, 2, 3]},
            "mesh": {"angular": 16, "base_layers": 20, "layers_per_level": 100},
            "ball": {"center": [0, 0], "radius": 0.2},
            "seed": 7,
        }

    @pytest.mark.parametrize("value, parsed", [
        ('"run#7"', "run#7"),
        ('"a"  # note', "a"),
        ("3 # note", 3),
        ('["x#1", "y"] # note', ["x#1", "y"]),
        (r'"say \"#1\"" # note', 'say "#1"'),
    ])
    def test_hash_starts_a_comment_only_outside_strings(self, tmp_path, value, parsed):
        cfg = parse_config_file(write_cfg(tmp_path / "c.cfg", f"experiment_id = {value}\n"))
        assert cfg == {"experiment_id": parsed}

    def test_grid_sets_only_the_sweep_levels(self, tmp_path):
        cfg = resolve_config(build_parser().parse_args(
            ["cz-sweep", "--grid", "2", "--out", str(tmp_path)]))
        assert cfg == {"seed": 0, "sweep": {"levels": [1, 2]}, "threads": 1, "out": str(tmp_path)}

    def test_malformed_line(self, tmp_path):
        path = write_cfg(tmp_path / "bad.cfg", "just words\n")
        assert main(["nfun-props", "--config", path, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command, reads", [
        ("analyze-weight", ()),
        ("verify-example", ("eps",)),
        ("solve", ("eps", "p")),
        ("cz-sweep", ("eps", "p", "grid", "rho")),
        ("nfun-props", ()),
    ])
    def test_each_command_accepts_only_the_flags_it_reads(self, command, reads):
        parser = build_parser()
        for flag, value in (("eps", "0.3"), ("p", "3"), ("grid", "2"), ("rho", "4")):
            argv = [command, f"--{flag}", value, "--seed", "1", "--threads", "1"]
            if flag in reads:
                assert parser.parse_args(argv).seed == 1
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)

    def test_unread_flags_are_a_usage_error(self, tmp_path):
        # nothing is written, so no echo or settings hash records them
        out = tmp_path / "o"
        assert main(["nfun-props", "--p", "3", "--rho", "9", "--grid", "2", "--eps", "0.1",
                     "--out", str(out)]) == 1
        assert not out.exists()


class TestExitCodes:
    def test_usage_error_unknown_weight(self, tmp_path):
        cfg = write_cfg(tmp_path / "w.cfg", 'weight.kind = "martian"\n')
        assert main(["analyze-weight", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_usage_error_missing_weight(self, tmp_path):
        assert main(["analyze-weight", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("line", [
        "nfun.samples = 0",
        "nfun.samples = -5",
        'nfun.samples = "many"',
        "nfun.samples = inf",
        "nfun.p_list = [1.0]",
        "nfun.p_list = [3.0, 0.5]",
        "nfun.p_list = 2.0",
        'nfun.p_list = "23"',
        'nfun.p_list = ["x"]',
    ])
    def test_usage_error_bad_nfun_settings(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path / "n.cfg", line + "\n")
        assert main(["nfun-props", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "usage error: nfun." in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        'quadrature.scheme = "gauss"',
        "quadrature = 5",
        "family.levels = 0",
        "domain.radius = -1",
        "ap.p_list = [1.0]",
        "small.s_list = [0.5]",
        "oscillation.q_list = [0.5]",
        'weight.kind = "log-normal"\nweight.seed = "x"',
        'ap.p_list = ["2"]',
        'oscillation.q_list = "24"',
        "quadrature.resolution = [16]",
        "quadrature.resolution = [16, 1, 3]",
        "quadrature.resolution = [-4, -8]",
        'quadrature.scheme = "monte-carlo"',
        "quadrature.seed = 3",
        "quadrature.resolution = 100",
    ])
    def test_usage_error_bad_weight_settings(self, tmp_path, capsys, line):
        # each is rejected before any estimate runs
        text = 'weight.kind = "power"\nweight.exponent = 0.25\n' + line + "\n"
        out = tmp_path / "o"
        assert main(["analyze-weight", "--config", write_cfg(tmp_path / "w.cfg", text),
                     "--out", str(out)]) == 1
        assert "usage error: " in capsys.readouterr().err
        assert not (out / "weight_summary.csv").exists()

    @pytest.mark.parametrize("weight, center", [
        ('weight.kind = "power"\nweight.exponent = 0.25', "[0.0]"),
        ('weight.kind = "power-radial"\nweight.eps = 0.25', "[0, 0, 0]"),
    ])
    def test_usage_error_domain_dimension(self, tmp_path, capsys, weight, center):
        text = f"{weight}\ndomain.center = {center}\n"
        out = tmp_path / "o"
        assert main(["analyze-weight", "--config", write_cfg(tmp_path / "w.cfg", text),
                     "--out", str(out)]) == 1
        assert "usage error: domain.center must have" in capsys.readouterr().err
        assert not (out / "weight_summary.csv").exists()

    def test_nfun_props_single_sample_runs(self, tmp_path):
        # seed 25 draws a zero shift, leaving the shift-scaling case empty
        cfg = write_cfg(tmp_path / "n.cfg", "nfun.samples = 1\nnfun.p_list = [2.0]\n")
        out = tmp_path / "o"
        assert main(["nfun-props", "--config", cfg, "--seed", "25", "--out", str(out)]) == 0
        rows = (out / "nfun_props.csv").read_text().splitlines()
        assert "2,shift-scaling,nan,nan,0" in rows

    @pytest.mark.parametrize("command", ["verify-example", "solve", "cz-sweep"])
    def test_usage_error_bad_example_settings(self, tmp_path, capsys, command):
        out = str(tmp_path / "o")
        assert main([command, "--eps", "0.75", "--out", out]) == 1
        assert "usage error: example settings: eps must lie in (0, 1/2]" in capsys.readouterr().err
        for text in ('example.variant = "wavy"\n', 'example.n = "x"\n', "example.n = 1\n",
                     "example.theta_override = 2.0\n"):
            assert main([command, "--config", write_cfg(tmp_path / "e.cfg", text),
                         "--out", out]) == 1

    @pytest.mark.parametrize("command, text", [
        ("solve", "example.n = 3\n"),
        ("solve", 'weight.kind = "log-normal"\nweight.n = 3\nweight.seed = 3\n'),
        ("cz-sweep", "example.n = 3\n"),
    ])
    def test_usage_error_three_dimensional_problem(self, tmp_path, capsys, command, text):
        # the solve and sweep meshes are 2-d
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path / "n.cfg", text)
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "usage error: " in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_usage_error_bad_problem_settings(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["solve", "--p", "0.5", "--out", str(out)]) == 1
        assert "usage error: problem settings: p must lie in (1, inf)" in capsys.readouterr().err
        assert not (out / "solution.csv").exists()

    def test_usage_error_bad_sweep_settings(self, tmp_path, capsys):
        # each is rejected before any sweep runs, empty lists included, which
        # would otherwise write a report without rows
        out = tmp_path / "o"

        def cfg(name, text):
            return ["--config", write_cfg(tmp_path / name, text + "\n")]

        empty = "the eps, rho and level lists must not be empty"
        for flags, message in (
            (["--p", "0.5"], "p must lie in (1, inf)"),
            (["--rho", "0.5"], "rho must be at least 1"),
            (["--grid", "0"], empty),
            (cfg("rho.cfg", "sweep.rho = []"), empty),
            (cfg("eps.cfg", "example.eps = []"), empty),
            (cfg("geometry.cfg", 'sweep.geometry = "cubic"'), "geometry must be one of"),
        ):
            assert main(["cz-sweep", *flags, "--out", str(out)]) == 1
            assert f"usage error: sweep settings: {message}" in capsys.readouterr().err
        assert not (out / "cz_report.csv").exists()

    def test_usage_error_bad_sweep_ball(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "b.cfg", "ball.radius = -0.2\n")
        assert main(["cz-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "usage error: sweep settings: ball radius must be positive" in err

    def test_usage_error_bad_solver_settings(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.cfg", 'solver.tolerance = "abc"\n')
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert "usage error: problem settings: could not convert" in capsys.readouterr().err
        assert not (out / "solution.csv").exists()

    def test_setup_error_bad_mesh(self, tmp_path):
        cfg = write_cfg(tmp_path / "m.cfg", 'mesh.kind = "torus"\n')
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_setup_error_too_few_angular_subdivisions(self, tmp_path, capsys):
        # the sweep builds its meshes while it runs, solve up front
        cfg = write_cfg(tmp_path / "m.cfg", "mesh.angular = 2\n")
        for command in ("solve", "cz-sweep"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert "need at least 6 angular subdivisions" in capsys.readouterr().err

    def test_nonconvergence_exit(self, tmp_path):
        # curved boundary data needs Newton steps; forbidding them leaves the
        # warm start with a residual above tolerance
        cfg = write_cfg(
            tmp_path / "s.cfg",
            """
            mesh.kind = "square"
            mesh.divisions = 6
            weight.kind = "identity"
            problem.p = 4.0
            problem.dirichlet = "example"
            solver.tolerance = 1e-12
            solver.max_iterations = 0
            """,
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_linear_nonconvergence_exit(self, tmp_path, monkeypatch):
        # a p = 2 solve reports failure through SolveResult.converged, not by
        # raising; the outputs are still written
        import dataclasses

        from degcz import pde_solver

        orig = pde_solver.solve
        monkeypatch.setattr(
            pde_solver, "solve",
            lambda *a, **k: dataclasses.replace(orig(*a, **k), converged=False),
        )
        cfg = write_cfg(
            tmp_path / "s.cfg",
            'mesh.kind = "square"\nmesh.divisions = 4\nweight.kind = "identity"\n'
            "problem.p = 2.0\n",
        )
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
        assert (out / "solution.csv").exists() and (out / "trace.jsonl").exists()

    def test_property_violation_wrong_theta(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "t.cfg",
            """
            example.variant = "plain"
            example.eps = 0.5
            example.theta_override = 1.0
            """,
        )
        assert main(["verify-example", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


class TestDefaults:
    def test_empty_config_builds_the_library_defaults(self, tmp_path, monkeypatch):
        # each library default is written once, in the library: a command
        # passes only the settings its config holds
        from degcz import cli, cz_harness, meshing, nfunctions, pde_solver
        from degcz.weight_algebra import QuadratureSpec

        seen = collections.defaultdict(list)
        orig_solve = pde_solver.solve

        def solve(prob, mesh, cfg):
            seen["solve"].append((prob, mesh, cfg))
            return orig_solve(prob, mesh, cfg)

        monkeypatch.setattr(pde_solver, "solve", solve)
        monkeypatch.setattr(cz_harness, "run_sweep", lambda spec, threads: (
            seen["sweep"].append(spec) or cz_harness.CzReport()))
        monkeypatch.setattr(nfunctions, "run_property_sweep",
                            lambda *args, **kwargs: seen["nfun"].append(kwargs) or [])
        for command in ("solve", "cz-sweep", "nfun-props"):
            assert main([command, "--out", str(tmp_path / command)]) == 0

        ((prob, mesh, cfg),) = seen["solve"]
        assert cfg == pde_solver.SolverConfig()
        assert prob.p == pde_solver.WeakProblem(prob.weight).p
        default_mesh = meshing.disk_mesh()
        assert np.array_equal(mesh.vertices, default_mesh.vertices)
        assert mesh.geometry == default_mesh.geometry
        (spec,) = seen["sweep"]
        echo = json.loads((tmp_path / "cz-sweep" / "cz_sweep_config.json").read_text())
        assert spec.experiment_id == echo["settings_hash"]
        assert spec == cz_harness.SweepSpec(experiment_id=spec.experiment_id)
        assert seen["nfun"] and all(kwargs == {"seed": 0} for kwargs in seen["nfun"])
        assert cli._quad_from_cfg({}) == QuadratureSpec()


class TestVerifyExample:
    @pytest.mark.parametrize("variant, code", [("plain", 0), ("degenerate", 4)])
    def test_local_table_is_finite(self, tmp_path, variant, code):
        cfg = write_cfg(tmp_path / "v.cfg", f'example.variant = "{variant}"\n')
        out = tmp_path / "o"
        assert main(["verify-example", "--config", cfg, "--out", str(out)]) == code
        text = (out / "verify_local.csv").read_text().splitlines()
        header, *rows = (ln.split(",") for ln in text if not ln.startswith("#"))
        assert header[:2] == ["level", "cells"] and [r[0] for r in rows] == ["0", "1", "2"]
        assert all(math.isfinite(float(v)) for r in rows for v in r)

    def test_plain_passes(self, tmp_path):
        assert main(["verify-example", "--eps", "0.5", "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "verify_example.csv").read_text().splitlines()
        assert any("divergence_identity" in r for r in rows)

    def test_weight_side_estimates_run_once(self, tmp_path, monkeypatch):
        # |log M|_BMO and the Poincare condition do not depend on the mesh, so
        # the three levels share one estimate of each; the two log means are
        # the sandwich's, M_B and omega_B, and the frozen solves reuse M_B
        from degcz import cli, cz_harness, seminorms, weight_algebra

        calls = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for home, name in ((seminorms, "bmo"), (seminorms, "muckenhoupt_ap"),
                           (weight_algebra, "log_mean")):
            wrapped = counting(name, getattr(home, name))
            for module in (home, cli, cz_harness):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        assert main(["verify-example", "--out", str(tmp_path / "o")]) == 0
        assert calls == {"bmo": 1, "muckenhoupt_ap": 1, "log_mean": 2}

    def test_degenerate_n3(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "d.cfg",
            'example.variant = "degenerate"\nexample.n = 3\nexample.eps = 0.1\n',
        )
        assert main(["verify-example", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        # the local checks run on the 2-d disk meshes only
        assert not (tmp_path / "o" / "verify_local.csv").exists()


class TestSolveCommand:
    def test_linear_problem_reproduces_interpolant(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "s.cfg",
            """
            mesh.kind = "square"
            mesh.divisions = 8
            weight.kind = "identity"
            problem.p = 2.0
            problem.dirichlet = [1.0, 0.0, 0.0]
            """,
        )
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = [
            ln for ln in (out / "solution.csv").read_text().splitlines()
            if not ln.startswith("#")
        ][1:]
        vals = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines])
        assert np.abs(vals[:, 2] - vals[:, 0]).max() <= 1e-10
        trace = [json.loads(ln) for ln in (out / "trace.jsonl").read_text().splitlines()]
        assert len(trace) == 1

    def test_newton_trace_rows(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "s.cfg",
            """
            mesh.kind = "square"
            mesh.divisions = 6
            weight.kind = "identity"
            problem.p = 3.0
            problem.dirichlet = "example"
            """,
        )
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        *rows, final = [json.loads(ln) for ln in (out / "trace.jsonl").read_text().splitlines()]
        assert rows and "decrement" not in final and "stalled" not in final
        assert all(row["decrement"] > 0 and row["stalled"] is False for row in rows)


class TestSweepCommand:
    SWEEP = """
    example.variant = "plain"
    example.eps = [0.5]
    sweep.rho = [3.0, 5.0]
    sweep.levels = [1, 2, 3]
    mesh.angular = 12
    mesh.base_layers = 15
    mesh.layers_per_level = 80
    seed = 11
    """

    def test_phase_boundary(self, tmp_path):
        cfg = write_cfg(tmp_path / "sw.cfg", self.SWEEP)
        out = tmp_path / "o"
        assert main(["cz-sweep", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "cz_summary.json").read_text())
        assert summary["phase_boundaries"] == [{"eps": 0.5, "rho_boundary": 4.0}]

    def test_use_fem_p3(self, tmp_path):
        # the default graded sweep meshes; level 2 used to end in
        # NonconvergenceError
        cfg = write_cfg(
            tmp_path / "fem.cfg",
            "problem.p = 3.0\nsweep.use_fem = true\nsweep.levels = [1, 2]\n",
        )
        out = tmp_path / "o"
        assert main(["cz-sweep", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "cz_report.csv").exists()

    def test_use_fem_nonconvergence_exit(self, tmp_path, monkeypatch):
        import dataclasses

        from degcz import cz_harness

        orig = cz_harness.solve
        monkeypatch.setattr(
            cz_harness, "solve",
            lambda *a, **k: dataclasses.replace(orig(*a, **k), converged=False),
        )
        cfg = write_cfg(
            tmp_path / "fem.cfg",
            self.SWEEP.replace("sweep.levels = [1, 2, 3]", "sweep.levels = [1]")
            + "sweep.use_fem = true\n",
        )
        assert main(["cz-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_rerun_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path / "sw.cfg", self.SWEEP)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["cz-sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["cz-sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "cz_report.csv").read_bytes() == (out2 / "cz_report.csv").read_bytes()

    def test_threads_same_rows(self, tmp_path):
        cfg_text = self.SWEEP.replace("[0.5]", "[0.25, 0.5]").replace(
            "[3.0, 5.0]", "[3.0]"
        )
        cfg = write_cfg(tmp_path / "sw.cfg", cfg_text)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["cz-sweep", "--config", cfg, "--threads", "1", "--out", str(out1)]) == 0
        assert main(["cz-sweep", "--config", cfg, "--threads", "2", "--out", str(out2)]) == 0
        body1 = [ln for ln in (out1 / "cz_report.csv").read_text().splitlines() if not ln.startswith("#")]
        body2 = [ln for ln in (out2 / "cz_report.csv").read_text().splitlines() if not ln.startswith("#")]
        assert body1 == body2

    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "sw.cfg", self.SWEEP)
        assert main(["cz-sweep", "--config", cfg, "--threads", "0", "--out", str(tmp_path)]) == 1
        assert "usage error: --threads must be at least 1" in capsys.readouterr().err

    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "sw.cfg", self.SWEEP)
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("DEGCZ_OUT", str(env_out))
        assert main(["cz-sweep", "--config", cfg, "--out", str(tmp_path / "ignored")]) == 0
        assert (env_out / "cz_report.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestAnalyzeWeight:
    def test_constant_weight_reports(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "w.cfg",
            'weight.kind = "constant"\nweight.matrix = [[2.0, 0.0], [0.0, 1.0]]\nap.p_list = [2.0]\n',
        )
        out = tmp_path / "o"
        assert main(["analyze-weight", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "weight_analysis.json").read_text())
        assert summary["bmo_log_M"] <= 1e-12
        assert summary["bmo_log_omega"] <= 1e-12
        assert summary["ap_p=2"] == pytest.approx(1.0, abs=1e-10)

    def test_constant_matrix_weight_analyzes_its_norm(self, tmp_path):
        # omega of a constant matrix weight is |M|, not the scalar weight.value
        from degcz.weight_algebra import omega_and_matrix_from_config

        matrix = [[2.0, 0.5], [0.5, 1.0]]
        norm = 1.5 + np.sqrt(0.5)  # largest eigenvalue, about 2.207
        omega = omega_and_matrix_from_config({"kind": "constant", "matrix": matrix})[0]
        pts = np.array([[0.1, 0.2], [-0.3, 0.5], [0.0, 0.0]])
        assert np.allclose(omega.evaluate(pts), norm, rtol=1e-15, atol=0.0)
        cfg = write_cfg(
            tmp_path / "w.cfg",
            f'weight.kind = "constant"\nweight.matrix = {matrix}\nap.p_list = [2.0]\n',
        )
        out = tmp_path / "o"
        assert main(["analyze-weight", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "weight_analysis.json").read_text())
        assert summary["label"] != "constant(1)"
        assert summary["label"] == omega.label
        assert summary["bmo_log_omega"] <= 1e-12
        assert summary["ap_p=2"] == pytest.approx(1.0, abs=1e-10)

    def test_power_weight_with_a_stray_matrix_is_scalar(self, tmp_path):
        # the kind decides: a power weight is |x|^a whatever else its table holds
        base = 'weight.kind = "power"\nweight.exponent = 0.3\nfamily.levels = 2\n'
        bodies = []
        for name, extra in (("plain", ""), ("stray", "weight.matrix = [[2.0, 0.0], [0.0, 1.0]]\n")):
            out = tmp_path / name
            cfg = write_cfg(tmp_path / f"{name}.cfg", base + extra)
            assert main(["analyze-weight", "--config", cfg, "--out", str(out)]) == 0
            summary = json.loads((out / "weight_analysis.json").read_text())
            assert summary["label"] == "|x|^0.3" and "bmo_log_M" not in summary
            text = (out / "weight_summary.csv").read_text()
            bodies.append([ln for ln in text.splitlines() if not ln.startswith("#")])
        assert bodies[0] == bodies[1]

    def test_degenerate_weight_flags(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "w.cfg",
            'weight.kind = "power-radial"\nweight.eps = 0.25\nap.p_list = [2.0]\n',
        )
        out = tmp_path / "o"
        assert main(["analyze-weight", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "weight_analysis.json").read_text())
        assert summary["bmo_log_M"] <= 0.375
        assert "unbounded" in summary["bmo_M_flag"]

    def test_domain_log_mean_runs_once(self, tmp_path, monkeypatch):
        # omega_B of the domain ball serves both q rows of the oscillation
        # table and all three s rows of the power-mean table
        from degcz import cli, seminorms, weight_algebra

        balls = []
        orig = weight_algebra.log_mean

        def counting(field, ball, *args):
            balls.append(ball)
            return orig(field, ball, *args)

        for module in (weight_algebra, seminorms, cli):
            if hasattr(module, "log_mean"):
                monkeypatch.setattr(module, "log_mean", counting)
        cfg = write_cfg(tmp_path / "w.cfg", 'weight.kind = "power"\nweight.exponent = 0.25\n')
        assert main(["analyze-weight", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert balls == [cli.Ball((0.0, 0.0), 1.0)]

