"""scipy loads with the first solve, never with the package.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from degcz.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

SWEEP = """
example.eps = [0.5]
sweep.rho = [3.0]
sweep.levels = [1, 2]
mesh.angular = 8
mesh.base_layers = 6
mesh.layers_per_level = 10
"""

COMMANDS = {
    "analyze-weight": """
        weight.kind = "power-radial"
        weight.eps = 0.25
        family.levels = 1
        quadrature.resolution = [16, 8]
        ap.p_list = [2.0]
        oscillation.q_list = [2.0]
        small.s_list = [1.0]
        """,
    "nfun-props": "nfun.samples = 1000\n",
    "cz-sweep": SWEEP,
}


def write_config(path: Path, text: str) -> Path:
    path.write_text("\n".join(line.strip() for line in text.splitlines()))
    return path


def fresh_python(code: str, cwd: Path) -> list[str]:
    """Standard output lines of ``code`` run by a new interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def run_command(tmp_path: Path, command: str, config: str, *flags: str) -> list[str]:
    """Run one CLI command in a new interpreter; its last output line says
    whether any part of scipy was loaded."""
    cfg = write_config(tmp_path / "run.cfg", config)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]
    return fresh_python(
        "import sys\nfrom degcz.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'scipy' in sys.modules)\n",
        tmp_path,
    )


def test_import_loads_no_scipy(tmp_path):
    code = "import sys, degcz.cli\nprint('scipy' in sys.modules)\n"
    assert fresh_python(code, tmp_path) == ["False"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_without_a_solve_load_no_scipy(tmp_path, command):
    assert run_command(tmp_path, command, COMMANDS[command], "--seed", "1")[-1] == "0 False"


def test_solve_loads_scipy(tmp_path):
    config = 'mesh.kind = "square"\nmesh.divisions = 4\nweight.kind = "identity"\n'
    assert run_command(tmp_path, "solve", config)[-1] == "0 True"


@pytest.mark.parametrize("read_first", [False, True])
def test_solve_calls_the_modules_bound_at_call_time(tmp_path, read_first):
    # a tracer reads pde_solver.spla, sla and csgraph and swaps in wrapped
    # views before the first solve; the unread case binds the names before
    # any load
    code = f"""
import sys, types
from degcz import pde_solver
from degcz.meshing import unit_square_mesh
from degcz.weight_algebra import weight_from_config
print('scipy' in sys.modules)
names = {{'spla': ['splu'], 'sla': ['cholesky_banded', 'cho_solve_banded'],
         'csgraph': ['reverse_cuthill_mckee', 'breadth_first_order']}}
real = [getattr(pde_solver, name) for name in names] if {read_first} else None
import scipy.linalg, scipy.sparse.csgraph, scipy.sparse.linalg
modules = {{'spla': scipy.sparse.linalg, 'sla': scipy.linalg, 'csgraph': scipy.sparse.csgraph}}
assert real in (None, list(modules.values()))
calls = []
def wrapped(module, fn):
    def call(*args, **kwargs):
        calls.append((fn, kwargs.get('permc_spec')))
        return getattr(module, fn)(*args, **kwargs)
    return call
views = {{name: types.SimpleNamespace(**{{fn: wrapped(modules[name], fn) for fn in fns}})
         for name, fns in names.items()}}
for name, view in views.items():
    setattr(pde_solver, name, view)
prob = pde_solver.WeakProblem(weight_from_config({{'kind': 'identity'}}), 3.0, None,
                              lambda p: p[:, 0] ** 2 - p[:, 1])
result = pde_solver.solve(prob, unit_square_mesh(6), pde_solver.SolverConfig(tolerance=1e-9))
print(all(getattr(pde_solver, name) is view for name, view in views.items()))
steps = len(result.trace) - 1
print(calls[:3] == [('breadth_first_order', None), ('reverse_cuthill_mckee', None),
                    ('cholesky_banded', None)],
      [c for c in calls if c[0] == 'splu'] == [('splu', 'MMD_AT_PLUS_A')] * steps, steps > 0,
      calls.count(('cho_solve_banded', None)) >= 2)
"""
    assert fresh_python(code, tmp_path) == ["False", "True", "True True True True"]


def test_first_load_by_many_threads(tmp_path):
    # more threads than cores race to the first load with a short switch
    # interval; each must see the one fully loaded module
    code = """
import sys, threading
from degcz import pde_solver
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
seen = []
def load():
    barrier.wait(timeout=60)
    seen.append((pde_solver.spla.splu, pde_solver.sp.csr_matrix, pde_solver.sla.cholesky_banded,
                 pde_solver.csgraph.reverse_cuthill_mckee))
threads = [threading.Thread(target=load) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
import scipy.linalg, scipy.sparse, scipy.sparse.csgraph, scipy.sparse.linalg
print(not any(t.is_alive() for t in threads), len(seen),
      set(seen) == {(scipy.sparse.linalg.splu, scipy.sparse.csr_matrix,
                     scipy.linalg.cholesky_banded, scipy.sparse.csgraph.reverse_cuthill_mckee)},
      pde_solver.spla is scipy.sparse.linalg and pde_solver.sp is scipy.sparse
      and pde_solver.sla is scipy.linalg and pde_solver.csgraph is scipy.sparse.csgraph)
"""
    assert fresh_python(code, tmp_path) == ["True 8 True True"]


def test_first_load_by_two_sweep_threads(tmp_path):
    # two use_fem sweep cells solve at once, so both threads meet the
    # unloaded scipy; their rows equal those of a one-thread sweep
    config = SWEEP.replace("[0.5]", "[0.25, 0.5]") + "sweep.use_fem = true\n"
    assert run_command(tmp_path, "cz-sweep", config, "--threads", "2")[-1] == "0 True"
    threaded = (tmp_path / "out" / "cz_report.csv").read_text()
    cfg = write_config(tmp_path / "one.cfg", config)
    assert main(["cz-sweep", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 0
    body = [ln for ln in (tmp_path / "one" / "cz_report.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert [ln for ln in threaded.splitlines() if not ln.startswith("#")] == body
