"""Record ``bound()`` results of seeded targets as a golden file.

Run from the repository root:

    PYTHONPATH=src python tests/data/record_bound_golden.py

It writes ``tests/data/bound_golden.json``, which ``tests/test_golden.py``
replays with ``==``.  Each record holds the constructor name and arguments
and the result: ``repr`` of ``value`` and of every ``v0`` entry, the
formula id, the branch, the ordered caveats and the extras (floats as
``repr``).  The targets are about 20 seeded points per system, points on
every documented pole, and points whose periodic reduction loses digits.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import qcbound as qb

OUT = Path(__file__).with_name("bound_golden.json")
PER_SYSTEM = 20
PI = math.pi


def draw(system: str, rng) -> tuple:
    u = rng.uniform
    if system == "displacement":
        return (complex(u(-3, 3), u(-3, 3)),)
    if system in ("ho", "sp2_ho", "iho"):
        return (u(0.2, 3.0), u(-30.0, 30.0))
    if system == "ho_linear":
        return (u(0.2, 3.0), u(-1.0, 1.0), u(-30.0, 30.0))
    if system == "ho_quadratic":
        return (u(0.6, 3.0), u(-0.5, 0.5), u(-30.0, 30.0))
    if system == "free_particle":
        return (u(0.2, 5.0), u(-30.0, 30.0))
    if system == "coupled":
        q = u(0.5, 2.0)
        return (u(0.2, 3.0), u(0.2, 3.0), u(0.0, 3.0), u(-30.0, 30.0), q,
                u(q, 100.0))
    return (u(0.2, 3.0), u(-0.2, 0.2), u(-30.0, 30.0), u(0.5, 2.0),
            10.0 ** u(0.0, 6.0))


def poles(rng) -> list[tuple[str, tuple]]:
    """Targets exactly on the documented poles, plus regular neighbours."""
    u = rng.uniform
    out = []
    for k in (-1, 0, 1, 2):
        omega = u(0.2, 3.0)
        out.append(("ho_linear", (omega, u(-1.0, 1.0), (2 * PI + 4 * PI * k) / omega)))
        out.append(("ho_linear", (omega, 0.0, (2 * PI + 4 * PI * k) / omega)))
    for n in (-3, -1, 1, 2, 3, 5, 7, 9):
        omega, lam = u(0.6, 3.0), u(-0.5, 0.5)
        out.append(("ho_quadratic", (omega, lam, n * PI / (2 * (omega + lam)))))
        m = u(0.2, 5.0)
        out.append(("free_particle", (m, n * PI / (2 * (0.5 / m)))))
    for j in (1, 2, 3, 4, 5, 6):
        omega = u(0.2, 3.0)
        out.append(("anharm_cubic", (omega, u(-0.2, 0.2), (2 * PI / 3 * j) / omega,
                                     u(0.5, 2.0), 10.0 ** u(0.0, 6.0))))
    out.append(("anharm_cubic", (1.0, 0.0, 2 * PI / 3, 1.0, 100.0)))
    out.append(("anharm_cubic", (1.0, 0.01, 4 * PI, 1.0, 100.0)))
    out.append(("ho_quadratic", (1.3, -1.3, 2.7)))
    return out


def precision_points() -> list[tuple[str, tuple]]:
    return [("ho", (1.0, 7.0e4)),
            ("coupled", (2.0, 1.0, 1.0, 3.0e4, 1.0, 1.0)),
            ("anharm_cubic", (1.0, 0.05, -9.0e4, 1.0, 100.0))]


def targets(seed: int = 20260418) -> list[tuple[str, tuple]]:
    rng = np.random.default_rng(seed)
    systems = ("displacement", "ho", "ho_linear", "sp2_ho", "iho",
               "ho_quadratic", "free_particle", "coupled", "anharm_cubic")
    out = [(s, draw(s, rng)) for s in systems for _ in range(PER_SYSTEM)]
    out += poles(rng) + precision_points()
    return [(s, tuple(a if isinstance(a, complex) else float(a) for a in args))
            for s, args in out]


def encode_args(args: tuple) -> list:
    return [[a.real, a.imag] if isinstance(a, complex) else a for a in args]


def decode_args(args: list) -> tuple:
    return tuple(complex(*a) if isinstance(a, list) else a for a in args)


def record(system: str, args: tuple) -> dict:
    res = qb.bound(getattr(qb.TargetSpec, system)(*args))
    return {
        "system": system,
        "args": encode_args(args),
        "value": repr(res.value),
        "v0": None if res.v0 is None else [repr(x) for x in res.v0.tolist()],
        "formula_id": res.formula_id,
        "branch": int(res.branch),
        "caveats": list(res.caveats),
        "extras": {k: repr(v) for k, v in res.extras.items()},
    }


def main() -> None:
    records = [record(s, args) for s, args in targets()]
    OUT.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {OUT} ({len(records)} records)")


if __name__ == "__main__":
    main()
