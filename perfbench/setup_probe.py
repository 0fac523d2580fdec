"""One set-up sample: import ``qcbound`` and make the first call into each layer.

``run.py`` starts this script in a fresh interpreter several times during
an untraced run and reports the median as ``setup_s``.  The first calls use
tiny inputs, so the time is dominated by imports and lazy loads (scipy's
``expm`` among them), not by work.  Usage::

    python3 perfbench/setup_probe.py <checkout>/src <work dir>

prints ``{"setup_s": ...}``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def warm_up(workdir: str) -> None:
    import numpy as np

    from qcbound import (algebra, bounds, cli, euler_arnold, geodesic, matching,
                         oracle, verification)

    algebra.validate(algebra.builtin("sp4_T10"))
    target = matching.TargetSpec.anharm_cubic(1.0, 0.05, 1.0)
    matching.verify_match(matching.match(target), target)
    bounds.bound(target)
    bounds.bound_curve(matching.TargetSpec.ho(1.0, 0.0), np.linspace(0.0, 1.0, 3))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["figure", "fig2", "--t-steps", "3",
                  "--out", os.path.join(workdir, "setup.csv")])
    fam = euler_arnold.ClosedFormFamily("sp2_J_equal_penalty")
    v0 = [0.1, 0.2, 0.3]
    sol = euler_arnold.solve_closed_form(fam, v0)
    euler_arnold.integrate_rk4(fam.governing_rhs(), v0, 0.01)
    num = euler_arnold.solve_numeric(algebra.builtin("sp2_J"),
                                     fam.default_penalties(), v0, h=0.01)
    bounds.length(num, fam.default_penalties())
    geodesic.leading_order_coeffs(sol)(1.0)
    oracle.path_ordered_exponential(oracle.matrix_rep("sp2_J"), sol, steps=2)
    oracle.commutator_closure_residual(oracle.fock_rep("ho4", levels=8))
    verification.run_suite("algebra")


def main() -> int:
    src, workdir = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    warm_up(workdir)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
