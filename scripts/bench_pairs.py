#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against the working tree.

Run from the root of a protdat checkout:

    python3 scripts/bench_pairs.py --parent HEAD --workload train decode sweep \\
        --seed 71 --pairs 10 --seconds 36 --out BENCH_n.json

Builds two clean trees under ``.bench_build/``: ``parent`` from ``git
archive <rev>`` and ``change`` from the working tree's tracked and
untracked, not ignored files.  For each workload it runs
``perfbench/run.py --trace 0`` in the two trees ``--pairs`` times, one
run at a time, alternating which side runs first (pair 0 runs the parent
first).  From each run it keeps the last line (one JSON object) and the
``# digest`` and ``# env`` lines, and it writes, per workload and
end-to-end metric of BENCHMARK.json, each side's median and quartiles,
the pairs the change won, and whether the claim rule and the metric's
regression bound hold (also printed, one line per metric, once a
workload's pairs finish); and, per workload, each side's failed and
attempted totals, its runs that were not correct, and whether every
pair's digests were equal, and each side's median count of minor page
faults per run (the ``ru_minflt`` of the run's process tree).  That count
depends on the heap layout, not only on the work: two trees doing the same
decode work read 21.0k and 12.9k faults per run.  Compare fault counts only
where the difference is large against that spread.

A run that exits non-zero or times out ends the script with a non-zero
status, after the report is written with the pairs finished before it and
the failed run (side, pair, exit code or timeout) under ``failed_run``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

SIDES = ("parent", "change")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 600
CLAIM_RULE = ("change wins >= 9/10 of the pairs run (ties count for neither side) and its median "
              "is better than the parent's by more than the parent's IQR")
METHOD = ("Alternating parent/change pairs (pair 0 runs the parent first, pair 1 the change first, "
          "and so on), one run at a time, each from a clean copy of its tree. Each run's metrics "
          "are copied from its result line and its digests from its '# digest' lines. Medians and "
          "quartiles are taken over the runs of one side (Python statistics.quantiles, method "
          "'inclusive'). worse_by is the change's median relative to the parent's, signed so that "
          "a positive value is worse; within_bound compares it with the metric's bound in "
          "BENCHMARK.json. minor_faults is the growth of getrusage(RUSAGE_CHILDREN).ru_minflt "
          "across the run's subprocess: the minor page faults of its whole process tree. It "
          "depends on the heap layout, not only on the work: two trees doing the same decode "
          "work read 21.0k and 12.9k faults per run, so compare fault counts only where the "
          "difference is large against that spread.")


def parse_run(stdout: str) -> dict:
    """One run's result line, digests and environment, from perfbench's stdout."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests, env = {}, None
    for line in lines[:-1]:
        words = line.lstrip("#").split()
        if words[:1] == ["digest"]:
            digests[" ".join(words[1:-1])] = words[-1]
        elif words[:1] == ["env"]:
            env = json.loads(line.split("env", 1)[1])
    metrics = {k: v["value"] if isinstance(v, dict) else v for k, v in result["metrics"].items()}
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "metrics": metrics, "digests": digests, "env": env}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's spread, the change's pair wins, the claim rule
    and the regression bound.  ``runs`` holds one {"parent", "change"} per pair;
    ``end_to_end`` is BENCHMARK.json's list of {name, better, bound}."""
    summary = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        values = {side: [r[side]["metrics"][name] for r in runs] for side in SIDES}
        parent, change = (_spread(values[side]) for side in SIDES)
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        gain = sign * (change["median"] - parent["median"])
        worse_by = -gain / abs(parent["median"]) if parent["median"] else 0.0
        summary[name] = {
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "change_wins": f"{wins}/{len(runs)}",
            "median_ratio_change_over_parent": (change["median"] / parent["median"]
                                                if parent["median"] else None),
            "claim_rule_met": 10 * wins >= 9 * len(runs) and gain > parent["iqr"],
            "worse_by": worse_by,
            "within_bound": worse_by <= spec["bound"],
        }
    return summary


def summary_lines(workload: str, summary: dict) -> list[str]:
    """One stdout line per metric of ``summarize``'s result: the parent ->
    change median, the change's wins, the claim rule and the bound."""
    return [f"{workload} {name}: median {row['parent']['median']:.6g} -> "
            f"{row['change']['median']:.6g}, change wins {row['change_wins']}, "
            f"claim_rule_met {row['claim_rule_met']}, within_bound {row['within_bound']}"
            for name, row in summary.items()]


def correctness(runs: list[dict]) -> dict:
    """Per side, the failed and attempted operations summed over its runs and
    the runs whose result line says ``correct: false``; and whether each
    pair's two runs gave equal digests."""
    out = {side: {"failed": sum(r[side]["failed"] for r in runs),
                  "attempted": sum(r[side]["attempted"] for r in runs),
                  "incorrect_runs": sum(not r[side]["correct"] for r in runs)} for side in SIDES}
    out["digests_equal_every_pair"] = all(
        r["parent"]["digests"] == r["change"]["digests"] for r in runs)
    return out


def fault_medians(runs: list[dict]) -> dict:
    """Each side's median of its runs' minor page faults."""
    return {side: statistics.median(r[side]["minor_faults"] for r in runs) for side in SIDES}


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], check=True, stdout=subprocess.PIPE).stdout


def build_trees(root: Path, parent_rev: str) -> dict[str, Path]:
    """Clean copies of ``parent_rev`` and of the working tree."""
    trees = {side: root / BUILD_DIR / side for side in SIDES}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git(root, "archive", "--format=tar", parent_rev))) as tar:
        tar.extractall(trees["parent"], filter="data")
    listed = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in listed.decode().split("\0"):
        if rel and (root / rel).is_file():  # a tracked file may be deleted in the working tree
            (trees["change"] / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / rel, trees["change"] / rel)
    return trees


class RunFailed(Exception):
    """A run that exited non-zero or timed out; ``args[0]`` says which, as
    {"exit_code": n} or {"timeout_s": s}."""


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    try:
        proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed({"timeout_s": RUN_TIMEOUT_S}) from None
    if proc.returncode != 0:
        raise RunFailed({"exit_code": proc.returncode})
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    return {**parse_run(proc.stdout), "minor_faults": faults}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", required=True, nargs="+", choices=("train", "decode", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    root = Path.cwd()
    end_to_end = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    parent_commit = _git(root, "rev-parse", "--short", args.parent).decode().strip()
    trees = build_trees(root, args.parent)
    report = {
        "parent_commit": parent_commit,
        "change": f"working tree on {_git(root, 'rev-parse', '--short', 'HEAD').decode().strip()}",
        "command": (f"python3 perfbench/run.py --workload <{'|'.join(args.workload)}> "
                    f"--seed {args.seed} --seconds {args.seconds:g} --trace 0"),
        "method": METHOD,
        "claim_rule": CLAIM_RULE,
        "env": None,
        "workloads": {},
    }
    for workload in args.workload:
        runs, failed = [], None
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            run = {"pair": pair, "first": order[0]}
            for side in order:
                try:
                    run[side] = run_side(trees[side], workload, args.seed, args.seconds)
                except RunFailed as exc:
                    failed = {"side": side, "pair": pair, **exc.args[0]}
                    break
                report["env"] = report["env"] or run[side]["env"]
                print(f"{workload} pair {pair} {side}: "
                      f"{json.dumps(run[side]['metrics'])}", flush=True)
            if failed:
                break
            for side in SIDES:
                del run[side]["env"]
            runs.append(run)
        entry = report["workloads"][workload] = {"seed": args.seed, "pairs_run": len(runs)}
        if runs:
            entry["correctness"] = correctness(runs)
            entry["minor_faults_median"] = fault_medians(runs)
            entry["summary"] = summarize(runs, end_to_end)
            print(f"{workload} minor faults, median per run: "
                  f"{json.dumps(entry['minor_faults_median'])}", flush=True)
            print(f"{workload} correctness: {json.dumps(entry['correctness'])}", flush=True)
            print("\n".join(summary_lines(workload, entry["summary"])), flush=True)
        entry["runs"] = runs
        if failed:
            entry["failed_run"] = failed
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        if failed:
            sys.exit(f"error: {workload} run failed: {json.dumps(failed)}; report in {args.out}")


if __name__ == "__main__":
    main()
