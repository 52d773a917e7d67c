"""Byte-for-byte golden outputs of the ``degcz`` CLI.

Each directory under ``golden/`` holds a config (``config.cfg``), the config
echo of one run of it (``<command>_config.json``, which names the command)
and the files that run wrote.  Every written body must match byte for byte;
the config echo may differ only in its ``out`` path.  The bodies are
reproducible for a single-threaded BLAS (``OMP_NUM_THREADS=1``,
``OPENBLAS_NUM_THREADS=1``), which is how CI runs this suite.
"""
import json
from pathlib import Path

import pytest

from degcz.cli import main

GOLDEN = Path(__file__).parent / "golden"
ECHOES = {
    "analyze-weight": "analyze_weight_config.json",
    "solve": "solve_config.json",
    "cz-sweep": "cz_sweep_config.json",
    "nfun-props": "nfun_props_config.json",
    "verify-example": "verify_example_config.json",
}


def _cases(*commands):
    return [
        (p.name, command)
        for p in sorted(GOLDEN.iterdir()) if p.is_dir()
        for command in commands if (p / ECHOES[command]).exists()
    ]


def _check_bodies(case, command, tmp_path, code=0):
    ref = GOLDEN / case
    out = tmp_path / case
    assert main([command, "--config", str(ref / "config.cfg"), "--out", str(out)]) == code
    echo_name = ECHOES[command]
    bodies = sorted(p.name for p in ref.iterdir() if p.name not in ("config.cfg", echo_name))
    assert sorted(p.name for p in out.iterdir() if p.name != echo_name) == bodies
    for name in bodies:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    echo, ref_echo = (json.loads((d / echo_name).read_text()) for d in (out, ref))
    assert echo.pop("out") == str(out)
    ref_echo.pop("out")
    assert echo == ref_echo


@pytest.mark.parametrize("case", [name for name, _ in _cases("analyze-weight")])
def test_analyze_weight_bodies_are_byte_identical(case, tmp_path):
    _check_bodies(case, "analyze-weight", tmp_path)


def _p(case, command):
    """The ``problem.p`` a case's config echo records (2 when unset)."""
    echo = json.loads((GOLDEN / case / ECHOES[command]).read_text())
    return echo.get("problem", {}).get("p", 2.0)


SOLVER_CASES = _cases("solve", "cz-sweep")


@pytest.mark.parametrize("case, command", [c for c in SOLVER_CASES if _p(*c) == 2.0])
def test_p2_solver_bodies_are_byte_identical(case, command, tmp_path):
    """p = 2 ``solve`` (solution, mesh, trace) and ``cz-sweep`` with and
    without ``use_fem``."""
    _check_bodies(case, command, tmp_path)


@pytest.mark.parametrize("case, command", [c for c in SOLVER_CASES if _p(*c) != 2.0])
def test_newton_solver_bodies_are_byte_identical(case, command, tmp_path):
    """p = 3 ``solve`` on the graded disk: damped Newton through every
    continuation stage, each step's energy, residual and decrement in the
    trace at full precision; and the p = 3 ``cz-sweep`` with ``use_fem`` on
    the level-1 sweep mesh, whose solve opens with Kacanov steps."""
    _check_bodies(case, command, tmp_path)


@pytest.mark.parametrize("case", [name for name, _ in _cases("nfun-props")])
def test_nfun_props_bodies_are_byte_identical(case, tmp_path):
    """The default p list at seed 1, conjugate-duality rows included."""
    _check_bodies(case, "nfun-props", tmp_path)


@pytest.mark.parametrize("case", [name for name, _ in _cases("verify-example")])
def test_verify_example_bodies_are_byte_identical(case, tmp_path):
    """Both variants at n = 2, the only runs that refine disk meshes.  The
    degenerate weight fails ``residual_refinement`` and exits 4, but the
    table it writes is pinned all the same."""
    _check_bodies(case, "verify-example", tmp_path, 4 if case == "verify_degenerate" else 0)


def test_every_golden_case_names_one_command():
    """A directory without exactly one known config echo would drop out of
    the parametrizations above instead of failing."""
    for case in sorted(p for p in GOLDEN.iterdir() if p.is_dir()):
        echoes = [c for c, echo in ECHOES.items() if (case / echo).exists()]
        assert len(echoes) == 1, (case.name, echoes)
