"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py`` in a fresh process per workload, so that the peak
resident memory belongs to that workload alone.  Passes run back to back,
each running all of the workload's ops in order, for as long as another
pass of average length still ends before ``--deadline`` (always at least
two).  With ``--trace 1`` untraced and traced passes alternate, and the
traced ones yield the per-layer split.

Usage: python3 perfbench/worker.py --workload NAME --seed N --deadline T --trace 0|1

``T`` is a ``time.time()`` value; ``run.py`` sets it ``--seconds`` after it starts.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
from run import SETUP_REPEATS, THREAD_VARS
from workloads import WORKLOADS, CliExit


def run_op(op, state: dict, tracer=None) -> tuple[str, str | None]:
    """Run and check one op; a failure is returned as (kind, message), never raised.

    Kinds: ``ok``, ``raised`` (an exception), ``exit`` (non-zero CLI exit)
    and ``check`` (the output broke an acceptance invariant).
    """
    span = tracer.span(tracing.OP_SPAN) if tracer is not None else contextlib.nullcontext()
    try:
        with span:
            out = op.run(state)
    except CliExit as exc:
        return "exit", str(exc)
    except Exception as exc:
        return "raised", f"{type(exc).__name__}: {exc}"
    try:
        problem = op.check(out)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    return ("check", problem) if problem else ("ok", None)


def run_pass(ops, tracer=None) -> dict:
    """All ops once, back to back; wall and CPU time of the whole pass."""
    state: dict = {}
    outcomes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for op in ops:
            kind, msg = run_op(op, state, tracer)
            outcomes.append({"op": op.name, "kind": kind, "message": msg})
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "outcomes": outcomes,
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure(make_ops, seed: int, deadline: float, trace: bool, workdir: Path) -> dict:
    gen = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = make_ops(seed, workdir)
        gen.append(time.perf_counter() - t0)
    plain, traced, layers = [], [], []
    start = time.time()

    def another_pass() -> bool:
        # two passes at least: a traced run needs an untraced and a traced
        # one, and the statistics of an untraced run need two samples
        if len(plain) + len(traced) < 2:
            return True
        now = time.time()
        return now + (now - start) / (len(plain) + len(traced)) <= deadline

    while another_pass():
        if trace and len(traced) < len(plain):
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced.append(run_pass(ops, tracer))
            layers.append(tracer.layer_metrics())
        else:
            plain.append(run_pass(ops))
    passes = plain + traced
    outcomes = [o for p in passes for o in p["outcomes"]]
    result = {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_cpu_s": [p["cpu_s"] for p in plain],
        "gen_s": statistics.median(gen),
        "attempted": len(outcomes),
        "failed": sum(o["kind"] != "ok" for o in outcomes),
        "check_failures": sum(o["kind"] == "check" for o in outcomes),
        "failures": sorted({f"{o['op']}: {o['kind']}: {o['message']}"
                            for o in outcomes if o["kind"] != "ok"}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if trace:
        result["traced_pass_wall_s"] = [p["wall_s"] for p in traced]
        per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        per_layer["trace.overhead_s"] = (
            statistics.median(result["traced_pass_wall_s"]) - statistics.median(result["pass_wall_s"])
        )
        result["per_layer"] = per_layer
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work_root = Path(__file__).resolve().parent / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.deadline,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
