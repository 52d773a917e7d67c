"""degcz benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: weights, fem-linear, fem-newton, sweep-props (see README.md).
The workload runs in a fresh worker process (``worker.py``) against the
package sources under ``src/``.  With ``--trace 0`` the last line of
standard output is the end-to-end result, with ``--trace 1`` the per-layer
split; the line before it records the run's details and environment.  Exits
non-zero without a result when the sources are missing or the worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# (name, unit, better) of every end-to-end metric, in report order
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok", "ratio", "higher"),
]


def worker_env() -> dict:
    """Environment of the measured processes: sources on the path, one
    BLAS/OpenMP thread (the load is one client; more threads on a few shared
    cores measure the scheduler), outputs where the ops put them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("DEGCZ_OUT", None)
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def cold_import_s(env: dict) -> list[float]:
    """Wall time of a fresh interpreter importing degcz.cli, repeated."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import degcz.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def upper_quartile(values: list[float]) -> float:
    """Upper quartile of a run's timings (the one timing if there is one).

    On a shared host the cores' speed changes in steps lasting seconds, up
    to about 1.6x apart, so the median of a run's timings jumps between
    steps from run to run.  The upper quartile stays with the slower, more
    common steps unless three quarters of the run was fast.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(res: dict, setup: list[float]) -> dict:
    values = {
        "wall_s": upper_quartile(res["pass_wall_s"]),
        "cpu_s": upper_quartile(res["pass_cpu_s"]),
        "setup_s": upper_quartile(setup) + res["gen_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ok": (res["attempted"] - res["failed"]) / res["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(res: dict) -> dict:
    return {name: {"value": res["per_layer"][name], "unit": unit}
            for name, unit, _ in tracing.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="degcz benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "degcz" / "cli.py").is_file():
        print(f"perfbench: no degcz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the cold imports and the worker's start count against --seconds
    deadline = time.time() + args.seconds
    env = worker_env()
    setup = [] if args.trace else cold_import_s(env)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--deadline", repr(deadline), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    res = json.loads(lines[-1])
    details = {k: res[k] for k in ("passes", "pass_wall_s", "pass_cpu_s", "gen_s",
                                   "failures", "env")}
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   cold_import_s=setup, traced_pass_wall_s=res.get("traced_pass_wall_s"))
    print(json.dumps(details))
    print(json.dumps({
        "correct": res["check_failures"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": per_layer(res) if args.trace else end_to_end(res, setup),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
