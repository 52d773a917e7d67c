import json
from pathlib import Path

import numpy as np
import pytest

from degcz.cli import main, parse_config_file


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
                name = bare-string
                """,
            )
        )
        assert cfg["example"]["eps"] == [0.5, 0.25]
        assert cfg["example"]["variant"] == "plain"
        assert cfg["mesh"]["angular"] == 16
        assert cfg["flag"] is True
        assert cfg["name"] == "bare-string"

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

    def test_malformed_line(self, tmp_path):
        path = write_cfg(tmp_path / "bad.cfg", "just words\n")
        assert main(["nfun-props", "--config", path, "--out", str(tmp_path)]) == 1


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
        "nfun.samples = Infinity",
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
    ])
    def test_usage_error_bad_weight_settings(self, tmp_path, capsys, line):
        # each is rejected before any estimate runs
        text = 'weight.kind = "power"\nweight.exponent = 0.25\n' + line + "\n"
        out = tmp_path / "o"
        assert main(["analyze-weight", "--config", write_cfg(tmp_path / "w.cfg", text),
                     "--out", str(out)]) == 1
        assert "usage error: " in capsys.readouterr().err
        assert not (out / "weight_summary.csv").exists()

    def test_nfun_props_single_sample_runs(self, tmp_path):
        # seed 25 draws a zero shift, leaving the shift-scaling case empty
        cfg = write_cfg(tmp_path / "n.cfg", "nfun.samples = 1\nnfun.p_list = [2.0]\n")
        out = tmp_path / "o"
        assert main(["nfun-props", "--config", cfg, "--seed", "25", "--out", str(out)]) == 0
        rows = (out / "nfun_props.csv").read_text().splitlines()
        assert "2,shift-scaling,nan,nan,0" in rows

    def test_setup_error_bad_mesh(self, tmp_path):
        cfg = write_cfg(tmp_path / "m.cfg", 'mesh.kind = "torus"\n')
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

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


class TestVerifyExample:
    def test_plain_passes(self, tmp_path):
        assert main(["verify-example", "--eps", "0.5", "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "verify_example.csv").read_text().splitlines()
        assert any("divergence_identity" in r for r in rows)

    def test_degenerate_n3(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "d.cfg",
            'example.variant = "degenerate"\nexample.n = 3\nexample.eps = 0.1\n',
        )
        assert main(["verify-example", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


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
            self.SWEEP + "sweep.use_fem = true\nsweep.levels = [1]\n",
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
        from degcz.weight_algebra import scalar_weight_from_config

        matrix = [[2.0, 0.5], [0.5, 1.0]]
        norm = 1.5 + np.sqrt(0.5)  # largest eigenvalue, about 2.207
        omega = scalar_weight_from_config({"kind": "constant", "matrix": matrix})
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


class TestReport:
    def test_merges_outputs(self, tmp_path):
        out = tmp_path / "o"
        assert main(["nfun-props", "--out", str(out), "--seed", "2"]) in (0, 4)
        assert main(["report", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "nfun_props.csv" in summary["files"]
