"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke_test.py

Checks that every workload runs, that the metric names and units printed
match ``BENCHMARK.json`` (untraced: ``end_to_end``; traced: ``per_layer``),
that a deliberately corrupted output is counted as failed instead of
passing, and that the command refuses to run without ``src/``.  Takes about
a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


# one round each; geodesics needs a whole cycle (verify plus five trajectories)
TINY_ROUNDS = {"curves": 1, "points": 1, "geodesics": 6}


def tiny(workload: str, traced: bool = False) -> dict:
    _, result = run.run(workload, seed=1, seconds=0.0, traced=traced,
                        rounds=TINY_ROUNDS[workload])
    return result


def check_names() -> None:
    for workload in run.WORKLOADS:
        result = tiny(workload)
        assert result["correct"] and result["failed"] == 0, (workload, result)
        assert units(result) == E2E, (workload, units(result))
        assert all(v["value"] > 0 for v in result["metrics"].values()), result
        print(f"ok  {workload}: end-to-end names and units match")
    result = tiny("points", traced=True)
    assert result["correct"], result
    assert units(result) == LAYER, sorted(set(units(result)) ^ set(LAYER))
    print("ok  traced run: per-layer names and units match")


def check_command_line() -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "points", "--seed", "3",
         "--seconds", "0.5", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and units(result) == E2E, result
    print("ok  command line: last stdout line is the result object")


def corrupted(workload: str, module, attr: str, corrupt) -> None:
    """Run ``workload`` with ``module.attr`` wrapped by ``corrupt``."""
    original = getattr(module, attr)
    setattr(module, attr, corrupt(original))
    try:
        result = tiny(workload)
    finally:
        setattr(module, attr, original)
    assert result["failed"] >= 1 and not result["correct"], (workload, result)
    print(f"ok  {workload}: corrupted output counted as failed "
          f"({result['failed']} of {result['attempted']})")


def check_corruption() -> None:
    import curves
    import geodesics
    import points

    def nan_once(bound):
        calls = []

        def wrapped(target):
            res = bound(target)
            if not calls:
                calls.append(1)
                res.value = float("nan")
            return res
        return wrapped

    def flip_digit(call):
        def wrapped(self, argv):
            call(self, argv)
            path = Path(argv[argv.index("--out") + 1])
            text = path.read_text()
            i = text.index("\n", text.index("\n") + 1) - 1   # end of first data row
            path.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
        return wrapped

    def scale(poe):
        return lambda *args, **kwargs: 1.001 * poe(*args, **kwargs)

    corrupted("points", points, "bound", nan_once)
    corrupted("curves", curves.Workload, "_call", flip_digit)
    corrupted("geodesics", geodesics, "path_ordered_exponential", scale)


def check_refuses_without_src() -> None:
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(SPEC["command"] + ["--workload", "points", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without src/ (exit code "
          f"{proc.returncode}, no result printed)")


def main() -> int:
    run.cap_threads()
    check_names()
    check_command_line()
    check_corruption()
    check_refuses_without_src()
    return 0


if __name__ == "__main__":
    sys.exit(main())
