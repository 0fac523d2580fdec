"""Benchmark of the qcbound pipeline: one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload curves|points|geodesics \\
        --seed N --seconds S --trace 0|1

The program measured is the checkout's own ``src/qcbound``; the run refuses
to start if it is missing or if ``import qcbound`` resolves anywhere else.
Inputs are generated from ``--seed``.  One process, closed loop, one caller;
BLAS/OpenMP threads are capped at the number of usable CPUs.

``--trace 0`` measures whole rounds for at least ``--seconds`` and until
ten samples lie beyond every reported percentile, takes its timings from
the rounds run at full host speed (see ``harness.HostGate``) and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed traced plan instead and
reports the per-layer metrics, writing spans and counts to
``perfbench/out/``.  The last line of stdout is one JSON object; the lines
before it repeat the metrics with sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("curves", "points", "geodesics")
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 120
MAX_MEASURE_S = 140.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable CPUs; must run before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def load_program():
    """Import qcbound from the checkout's src/, or raise SystemExit(2)."""
    if not (SRC / "qcbound" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'qcbound'} not found; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import qcbound
    if Path(qcbound.__file__).resolve().parent != (SRC / "qcbound").resolve():
        raise SystemExit(f"error: imported qcbound from {qcbound.__file__}, "
                         f"not from {SRC}")
    return qcbound


class SetupSamples:
    """Set-up time of fresh interpreters, sampled through an untraced run.

    A sample starts ``setup_probe.py`` in a fresh interpreter.  Samples are
    due every ``interval`` seconds of measuring, so they are spread over the
    run instead of meeting only the host load at its start; any not yet due
    when measuring stops are taken then.  ``setup_s`` is their median.  They
    are not gated on the host probe: the probe's speed did not predict
    set-up time, which is mostly imports.
    """

    def __init__(self, workdir: str, interval: float):
        self.workdir = workdir
        self.interval = interval
        self.times: list[float] = []

    def due(self, measured_s: float) -> bool:
        return (len(self.times) < SETUP_SAMPLES
                and measured_s >= len(self.times) * self.interval)

    def take(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), self.workdir],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        self.times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _workload_modules():
    import curves
    import geodesics
    import points
    return {"curves": curves, "points": points, "geodesics": geodesics}


def measure(module, seed: int, seconds: float, workdir: str, outcome,
            rounds: int | None = None):
    """Untraced run of whole rounds, with the set-up samples in between.

    Runs for ``seconds`` of measuring and until the fast-host rounds hold
    ten samples beyond every reported percentile, or until the workload's
    ``MAX_S`` once all rounds together do; exactly ``rounds`` rounds when
    given.  Time spent on set-up samples does not count as measuring.
    """
    import numpy as np
    from harness import HostGate, enough, now
    wl = module.Workload(seed, workdir)
    gate = HostGate()
    setup = SetupSamples(workdir, max(seconds, wl.MAX_S) / SETUP_SAMPLES)
    gate.mark()
    t0 = now()
    paused = 0.0
    r = 0
    while True:
        wl.run_round(wl.make_round(r), r, outcome)
        r += 1
        gate.mark()
        elapsed = now() - t0 - paused
        if setup.due(elapsed):
            t1 = now()
            setup.take()
            # the next round starts after this probe, not the one before the sample
            gate.times[-1] = max(gate.times[-1], gate.probe())
            paused += now() - t1
        if rounds is not None:
            if r >= rounds:
                break
        elif elapsed >= MAX_MEASURE_S or wl.op_times.full:
            break
        elif elapsed >= seconds and (
                enough(wl, gate.fast_rounds())
                or (elapsed >= wl.MAX_S and enough(wl, np.ones(r, bool)))):
            break
    while len(setup.times) < SETUP_SAMPLES:
        setup.take()
    return wl, gate, setup, r, elapsed


def trace(workload: str, seed: int, workdir: str, outcome,
          rounds: int | None = None):
    """Traced run: the workload's own plan, then small probes of the others.

    The probes make every per-layer metric exist on every workload; only
    the workload's own operations are paired with an untraced repeat for
    ``trace.overhead_frac``.
    """
    from harness import Tracer
    tracer = Tracer()
    pairs: list = []
    mods = _workload_modules()
    order = [workload] + [w for w in WORKLOADS if w != workload]
    for name in order:
        mod = mods[name]
        own = name == workload
        if not own:
            n = mod.PROBE_ROUNDS
        else:
            n = mod.TRACED_ROUNDS if rounds is None else rounds
        wl = mod.Workload(seed, workdir)
        for r in range(n):
            wl.trace_round(wl.make_round(r), r, tracer, outcome,
                           pairs if own else [], paired=own)
    return tracer, pairs


def _label_value(value: float, unit: str, label_unit: str) -> float:
    return value * 1e3 if (unit, label_unit) == ("ms", "us") else value


def _traced(workload, seed, seconds, workdir, outcome, rounds):
    from layers import per_layer, sample_counts
    from setup_probe import warm_up
    warm_up(workdir)
    tracer, pairs = trace(workload, seed, workdir, outcome, rounds)
    metrics = per_layer(tracer, pairs)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.dump(path, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                {"workload": workload, "seed": seed,
                 "span_counts": sample_counts(tracer)})
    lines = [f"{name:<40} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"# spans and counts written to {path}")
    return lines, metrics


def _untraced(workload, seed, seconds, workdir, outcome, rounds):
    import numpy as np
    from harness import end_to_end, enough, peak_rss_mb
    from setup_probe import warm_up
    warm_up(workdir)
    wl, gate, setup, done, elapsed = measure(_workload_modules()[workload], seed,
                                             seconds, workdir, outcome, rounds)
    # a fixed-size (smoke test) run is too short to gate on host speed
    used = (gate.select(lambda flags: enough(wl, flags))
            if rounds is None else np.ones(done, bool))
    e2e = end_to_end(wl, used)
    setup_s = statistics.median(setup.times)
    metrics = {"setup_s": (setup_s, "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    metrics.update({k: v[:2] for k, v in e2e.items()})
    lines = [f"# {done} rounds in {elapsed:.1f} s; {int(gate.fast_rounds().sum())} ran "
             f"with the host probe within {gate.SLACK}x of its best "
             f"({min(gate.times) * 1e3:.3f} ms); timings from {int(used.sum())} "
             f"rounds with the fastest probes",
             f"{'setup_s':<22} {setup_s:.6g} s  (median of {len(setup.times)}: "
             f"{', '.join(f'{x:.3f}' for x in setup.times)})",
             f"{'peak_rss_mb':<22} {metrics['peak_rss_mb'][0]:.6g} MB"]
    for name, (value, unit, label, label_unit, note) in e2e.items():
        lines.append(f"{label:<22} {_label_value(value, unit, label_unit):.6g} "
                     f"{label_unit}  ({note}; reported as {name})")
    return lines, metrics


def run(workload: str, seed: int, seconds: float, traced: bool,
        rounds: int | None = None) -> tuple[list[str], dict]:
    """Run one workload; returns (report lines, result object).

    ``rounds`` fixes the number of rounds of the workload's own plan (the
    smoke test runs at a tiny size); by default the run sizes itself.
    """
    threads = os.environ.get("OMP_NUM_THREADS", "?")
    qcbound = load_program()
    from harness import Outcome

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    outcome = Outcome()
    try:
        body, metrics = (_traced if traced else _untraced)(
            workload, seed, seconds, workdir, outcome, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    lines = [f"# perfbench {workload} seed={seed} seconds={seconds} "
             f"trace={int(traced)} qcbound={Path(qcbound.__file__).parent} "
             f"python={sys.version.split()[0]} nproc={os.cpu_count()} "
             f"blas_threads={threads}",
             *body,
             f"{'failed_frac':<22} {frac:.6g} ratio  "
             f"({outcome.failed} of {outcome.attempted} operations)"]
    lines += [f"# FAILED: {example}" for example in outcome.examples]
    ok = all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": ok and outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cap_threads()
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
