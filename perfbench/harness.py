"""Timing, statistics and tracing shared by the workloads.

Nothing here imports ``qcbound``; the workload modules do, after
``run.py`` has put the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import json
import resource
import time
from collections import Counter

import numpy as np

now = time.perf_counter

LAYERS = ("algebra", "euler_arnold", "geodesic", "matching", "bounds",
          "oracle", "verification", "cli")


class Samples:
    """Fixed-capacity buffer of (seconds, round, weight) samples.

    The buffer is written in full when it is created, so the process's peak
    RSS does not depend on how many operations a run completes.  Each
    workload sizes it to what its longest run can fill, and it is stored
    compactly (float32 seconds and weights, int32 rounds) so that it stays
    small next to the program being measured.
    """

    def __init__(self, capacity: int):
        self._seconds = np.full(capacity, np.nan, dtype=np.float32)
        self._round = np.full(capacity, -1, dtype=np.int32)
        self._weight = np.full(capacity, np.nan, dtype=np.float32)
        self.n = 0

    def add(self, seconds: float, rnd: int, weight: float = 1.0) -> None:
        i = self.n
        self._seconds[i], self._round[i], self._weight[i] = seconds, rnd, weight
        self.n += 1

    @property
    def full(self) -> bool:
        return self.n >= len(self._seconds)

    def select(self, accepted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(seconds, weights) of the samples taken in accepted rounds, as float64."""
        keep = accepted[self._round[: self.n]]
        return (self._seconds[: self.n][keep].astype(float),
                self._weight[: self.n][keep].astype(float))


class HostGate:
    """Host-speed probe run between rounds of an untraced run.

    On a shared host the CPU speed seen by one process can switch between
    regimes for seconds at a time (by about 1.5x on the machine this
    benchmark was written on), and every timing moves with it.  A fixed
    pure-Python loop is timed before the first round and after each round.
    Timings come from the rounds whose probe ran within ``SLACK`` of its
    fastest time in the run on both sides of the round; when those are too
    few for the reported percentiles, the rounds with the next-fastest
    probes make up the count.  Every round is still executed and checked.
    """

    PROBE_ITERS = 40_000
    SLACK = 1.2

    def __init__(self):
        self.times: list[float] = []

    def probe(self) -> float:
        """Seconds taken by the fixed pure-Python loop, now."""
        t0 = now()
        s = 0
        for i in range(self.PROBE_ITERS):
            s += i
        return now() - t0

    def mark(self) -> None:
        """Probe at a round boundary."""
        self.times.append(self.probe())

    def _slowness(self) -> np.ndarray:
        t = np.asarray(self.times)
        return np.maximum(t[:-1], t[1:]) / t.min()

    def fast_rounds(self) -> np.ndarray:
        """One flag per completed round: the probe was fast on both sides."""
        return self._slowness() <= self.SLACK

    def select(self, enough) -> np.ndarray:
        """The fast rounds, topped up in order of probe speed until
        ``enough(flags)`` holds (or every round is used)."""
        slow = self._slowness()
        fast = slow <= self.SLACK
        if enough(fast):
            return fast
        order = np.argsort(slow, kind="stable")
        lo, hi = int(fast.sum()), len(order)
        while lo < hi:                       # smallest prefix that is enough
            mid = (lo + hi) // 2
            flags = np.zeros(len(order), bool)
            flags[order[:mid]] = True
            if enough(flags):
                hi = mid
            else:
                lo = mid + 1
        flags = np.zeros(len(order), bool)
        flags[order[:lo]] = True
        return flags


def percentile(values, q: float) -> tuple[float, int, int]:
    """(value, sample count, samples strictly above the value)."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return float("nan"), 0, 0
    v = float(np.percentile(values, q))
    return v, len(values), int(np.sum(values > v))


PASS_MIN = 20     # samples for a median with ten beyond it


def enough(wl, accepted: np.ndarray) -> bool:
    """Ten accepted samples beyond the median pass and the tail percentile."""
    ops, _ = wl.op_times.select(accepted)
    passes, _ = wl.pass_times.select(accepted)
    return len(passes) >= PASS_MIN and len(ops) >= 1000 / (100 - wl.TAIL)


def end_to_end(wl, accepted: np.ndarray) -> dict:
    """name -> (value, unit, workload label, label unit, note)."""
    ops, weights = wl.op_times.select(accepted)
    passes, _ = wl.pass_times.select(accepted)
    mid = percentile(ops, 50)
    tail = percentile(ops, wl.TAIL)
    pas = percentile(passes, 50)
    total = float(np.sum(ops))
    work = float(np.sum(weights))
    labels = wl.LABELS
    return {
        "rate_per_s": (work / total if total else float("nan"), "1/s",
                       *labels["rate_per_s"],
                       f"{work:.0f} {wl.WORK} in {total:.3f} s of timed calls"),
        "op_ms_p50": (mid[0] * 1e3, "ms", *labels["op_ms_p50"],
                      f"n={mid[1]}, {mid[2]} beyond"),
        "op_ms_tail": (tail[0] * 1e3, "ms", *labels["op_ms_tail"],
                       f"p{wl.TAIL}, n={tail[1]}, {tail[2]} beyond"),
        "pass_s_p50": (pas[0], "s", *labels["pass_s_p50"],
                       f"{wl.PASS}, n={pas[1]}, {pas[2]} beyond"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Attempted and failed operation counts, plus the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 10:
                self.examples.append(what)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder for the traced run.

    A span is ``[op_id, name, parent_index, start_ns, end_ns, attrs, error]``.
    Root spans (``op``) start a new operation id; nested spans inherit it and
    point at the innermost open span as their parent.  An exception leaving a
    span adds one to ``<layer>.errors`` and propagates.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = 0

    def op(self, name: str, **attrs) -> "_Span":
        self._op_id += 1
        return _Span(self, name, attrs)

    def span(self, name: str, **attrs) -> "_Span":
        return _Span(self, name, attrs)

    # -- analysis ----------------------------------------------------------
    def select(self, name: str, **attrs) -> list[list]:
        return [s for s in self.spans if s[1] == name and s[6] is None
                and all(s[5].get(k) == v for k, v in attrs.items())]

    def durations(self, name: str, **attrs) -> np.ndarray:
        """Durations in seconds of the error-free spans called ``name``."""
        return np.array([(s[4] - s[3]) * 1e-9 for s in self.select(name, **attrs)])

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its direct children."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        return [(s[4] - s[3] - c) * 1e-9 for s, c in zip(self.spans, child)]

    def dump(self, path, metrics: dict, extra: dict) -> None:
        fields = ["op", "name", "parent", "start_ns", "end_ns", "attrs", "error",
                  "self_s"]
        spans = [s + [st] for s, st in zip(self.spans, self.self_times())]
        with open(path, "w") as fh:
            json.dump({"metrics": metrics, "counts": dict(self.counts), **extra,
                       "span_fields": fields, "spans": spans}, fh)


class _Span:
    __slots__ = ("tracer", "name", "attrs", "rec")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.rec = [tr._op_id, self.name, parent, 0, 0, self.attrs, None]
        tr.spans.append(self.rec)
        tr._stack.append(len(tr.spans) - 1)
        self.rec[3] = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.rec[4] = time.perf_counter_ns()
        self.tracer._stack.pop()
        if exc_type is not None:
            self.rec[6] = exc_type.__name__
            layer = self.name.split(".", 1)[0]
            if layer in LAYERS:
                self.tracer.counts[f"{layer}.errors"] += 1
        return False


def paired_run(tracer: Tracer, untraced_first: bool | None, plain, staged):
    """Time ``staged()``, the operation with its stage spans.

    For the tracing-overhead pair, ``untraced_first`` True or False also
    times ``plain()``, the same operation untraced, just before or just
    after it (inside a ``bench.untraced_repeat`` span); None skips it.
    Returns (untraced seconds or None, traced seconds, result of ``staged``).
    """
    def repeat() -> float:
        with tracer.span("bench.untraced_repeat"):
            t0 = now()
            plain()
            return now() - t0

    u = repeat() if untraced_first else None
    t0 = now()
    out = staged()
    t = now() - t0
    if untraced_first is False:
        u = repeat()
    return u, t, out


def p50(values, scale: float = 1.0) -> float:
    """Median times ``scale``; ``nan`` when there are no samples."""
    values = np.asarray(values, dtype=float)
    return float(np.median(values)) * scale if len(values) else float("nan")


def overhead_frac(pairs: list[tuple[float, float]]) -> float:
    """Median of traced/untraced time over paired runs of one operation, minus 1."""
    if not pairs:
        return float("nan")
    return float(np.median([t / u for u, t in pairs])) - 1.0
