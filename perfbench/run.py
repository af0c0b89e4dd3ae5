"""protdat benchmark: train, decode and sweep workloads.

Run from the root of a checkout; the program under test is ./src/protdat.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in a process of its own (``all`` starts one per
workload) with BLAS pinned to one thread.  The inputs are generated from
``--seed``.  Comment lines (``#``) give every end-to-end figure with its
unit, the output digests and the environment.  The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json; with
``--trace 1`` they are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train", "decode", "sweep")
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUNS_DIR = ".perfbench_runs"
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must lie in (0, 60]")
    return args


def environment() -> dict:
    """nproc, Python, numpy and BLAS versions, and the thread setting."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_one(args, root: Path) -> dict:
    src = root / "src"
    if not (src / "protdat" / "__init__.py").is_file():
        sys.exit(f"error: {src}/protdat not found; run from the root of a protdat checkout")
    sys.path.insert(0, str(src))
    import workloads  # imports protdat, so only after the path is set

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    run_dir = root / RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result, samples = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                        run_dir)
    finally:
        for bulky in run_dir.rglob("*.ckpt"):
            bulky.unlink()
    (run_dir / "result.json").write_text(
        json.dumps({"env": env, **result, "samples": samples}, indent=1) + "\n")
    return result


def run_all(args) -> dict:
    """Each workload in a child process of its own, one after the other."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv=None) -> None:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported, so BLAS starts pinned
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args, Path.cwd())
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
