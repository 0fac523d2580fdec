"""Paired benchmark runs of two trees, written as one BENCH_*.json.

Usage (from the root of the repository)::

    python3 tools/bench_pairs.py --parent REV --out BENCH_prN.json \\
        [--change REV] [--pairs 10] [--seed 27000] [--workdir DIR]

Each side is exported with ``git archive`` into the work directory: the
parent at ``--parent``, the change at ``--change`` or, by default, the
working tree's tracked files (``git stash create``, which leaves the tree
as it is; stage new files first).  Both sides share one kernel cache
(``XDG_CACHE_HOME``), warmed before the first pair, so no timed run builds
the RK4 kernel.  For each workload and seed the benchmark command

    python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0

runs from the root of each copy, one side after the other, the parent
first on even pair indexes, and the run's final JSON line is kept.  For
``geodesics`` each pair also times seeded trajectories in each copy
(``perfbench/geodesics.py``'s ``trajectory``) and keeps the median per
family, so a saving that only one family should see can be told from the
others: 30 per family with the families in turn, as the benchmark runs
them, then 30 of one family after another, so that no trajectory follows
one of another family.  The summary gives, per end-to-end metric, both
sides' values, quartiles, the change's median relative to the parent's and
its wins, whether it stays within the bound of ``BENCHMARK.json``, and
whether it is a gain: wins in at least 9 of 10 pairs and a median gain above
the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("geodesics", "curves", "points")
COMMAND = "perfbench/run.py --workload {} --seed {} --seconds 10 --trace 0"
# public calls only, so that any tree's kernel is built by them
WARM_UP = """
from qcbound import ClosedFormFamily, integrate_rk4
integrate_rk4(ClosedFormFamily("sp2_J_equal_penalty").governing_rhs(), [0.3, -0.2, 0.5], 1e-3)
"""
FAMILY_PROBE = """
import json, sys, time
import numpy as np
import geodesics as g
from qcbound import builtin, matrix_rep
reps = {n: matrix_rep(n) for n in ("sp2_J", "coupled_M4", "sp4_T10")}
rng = np.random.default_rng(int(sys.argv[1]))

def timed(fam):
    v0 = rng.uniform(-2.0, 2.0, builtin(g.FAMILIES[fam][1]).dim)
    t0 = time.perf_counter()
    g.trajectory(fam, v0, reps)
    return (time.perf_counter() - t0) * 1e3

for fam in g.FAMILIES:
    timed(fam)
in_turn = {fam: [] for fam in g.FAMILIES}
for _ in range(30):
    for fam, ms in in_turn.items():
        ms.append(timed(fam))
in_blocks = {fam: [timed(fam) for _ in range(30)] for fam in g.FAMILIES}
print(json.dumps({order: {fam: float(np.median(ms)) for fam, ms in times.items()}
                  for order, times in (("in_turn", in_turn), ("in_blocks", in_blocks))}))
"""
METHOD = ("one pair per seed: the command runs from the root of a git-archive "
          "copy of each side, one after the other, the parent first on even "
          "pair indexes; both sides share one warm kernel cache, so no timed "
          "run builds the kernel; each value is a metric of the run's final "
          "result line; quartiles are inclusive; a metric is 'within bound' "
          "when the change's median is no worse than the parent's by more "
          "than its BENCHMARK.json bound; 'gain' holds when the change wins "
          "at least 9 of 10 pairs and its 'median_gain' exceeds the parent's "
          "interquartile range 'parent_iqr', both in the metric's unit; for "
          "geodesics each pair also times 30 seeded trajectories per family "
          "in each copy, in the same side order: first with the families in "
          "turn, then in blocks of one family")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_json(cmd: list[str], cwd: Path, env: dict) -> tuple[dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {cwd}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def quartiles(values) -> list[float]:
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def summarize(runs: list[dict], workload: str, end_to_end: list[dict]) -> dict:
    mine = [r for r in runs if r["workload"] == workload]
    parent = [r for r in mine if r["side"] == "parent"]
    change = [r for r in mine if r["side"] == "change"]
    out = {"seeds": [r["seed"] for r in parent], "pairs": len(parent),
           "correct_all": all(r["correct"] for r in mine),
           "failed": {"parent": sum(r["failed"] for r in parent),
                      "change": sum(r["failed"] for r in change)},
           "metrics": {}}
    for spec in end_to_end:
        name = spec["name"]
        if name not in parent[0]["metrics"]:
            continue
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        ratio = float(np.median(c)) / float(np.median(p)) - 1.0
        p_q1, p_med, p_q3 = quartiles(p)
        gain = sign * (p_med - float(np.median(c)))
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        out["metrics"][name] = {
            "better": spec["better"], "parent": p, "change": c,
            "parent_quartiles": [p_q1, p_med, p_q3],
            "change_quartiles": quartiles(c), "change_vs_parent": ratio,
            "wins": wins,
            "status": "within bound" if sign * ratio <= spec["bound"] else "worse",
            "median_gain": gain, "parent_iqr": p_q3 - p_q1,
            "gain": wins >= 0.9 * len(p) and gain > p_q3 - p_q1}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default=None)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=27000)
    ap.add_argument("--workdir", default=None)
    args = ap.parse_args()

    parent_rev = git("rev-parse", args.parent)
    change_rev = args.change or git("stash", "create") or "HEAD"
    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-")).resolve()
    if work.exists() and any(work.iterdir()):
        raise SystemExit(f"{work} is not empty; give an empty --workdir")
    sides = {"parent": work / "parent", "change": work / "change"}
    export(parent_rev, sides["parent"])
    export(change_rev, sides["change"])
    env = {**os.environ, "XDG_CACHE_HOME": str(work / "cache")}
    env.pop("PYTHONPATH", None)
    for tree in sides.values():          # build (or load) each kernel once
        subprocess.run([sys.executable, "-c", WARM_UP], cwd=tree,
                       env={**env, "PYTHONPATH": str(tree / "src")}, check=True)
        if not any((work / "cache" / "qcbound").glob("rk4-*.so")):
            raise SystemExit(f"{tree}: no kernel was built in {work / 'cache'}")

    runs, families = [], []
    for w, workload in enumerate(WORKLOADS):
        for k in range(args.pairs):
            seed = args.seed + 100 * w + k + 1
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [sys.executable, *COMMAND.format(workload, seed).split()]
                result, wall = run_json(cmd, sides[side], env)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "first": order[0], "correct": result["correct"],
                             "attempted": result["attempted"],
                             "failed": result["failed"], "wall_s": round(wall, 1),
                             "metrics": {name: m["value"]
                                         for name, m in result["metrics"].items()}})
                print(workload, seed, side, json.dumps(runs[-1]["metrics"]), flush=True)
            if workload == "geodesics":
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    tree = sides[side]
                    pair[side], _ = run_json(
                        [sys.executable, "-c", FAMILY_PROBE, str(seed)], tree,
                        {**env, "PYTHONPATH": f"{tree / 'src'}:{tree / 'perfbench'}"})
                families.append(pair)
                print("families", json.dumps(pair), flush=True)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {w: summarize(runs, w, bench["end_to_end"]) for w in WORKLOADS}
    names = list(families[0]["parent"]["in_turn"])
    report = {
        "parent_commit": parent_rev,
        "change_commit": args.change or "the commit that adds this file",
        "command": "python3 " + COMMAND.format("<workload>", "<seed>"),
        "made_by": "python3 tools/bench_pairs.py --parent <parent> --out <file>",
        "method": METHOD,
        "host": {"cpus": len(os.sched_getaffinity(0)), "kernel": platform.release(),
                 "machine": platform.machine(), "python": platform.python_version(),
                 "numpy": version("numpy"), "scipy": version("scipy")},
        "workloads": summary,
        "geodesics_family_ms_p50": {
            "what": "median ms of 30 seeded trajectories per family, per pair, "
                    "with the families in turn and in blocks of one family",
            "median_of_pairs": {order: {name: {side: float(np.median(
                [p[side][order][name] for p in families]))
                for side in ("parent", "change")} for name in names}
                for order in ("in_turn", "in_blocks")},
            "pairs": families},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
