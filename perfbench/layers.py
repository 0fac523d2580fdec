"""Per-layer metrics of the traced run, computed from its spans and counts."""

from __future__ import annotations

from collections import defaultdict

from harness import LAYERS, Tracer, overhead_frac, p50
from points import SYSTEMS


def figure_self_s(tracer: Tracer) -> list[float]:
    """Per figure operation: ``cli.main`` minus the ``bound_curve`` replays."""
    main = {}
    curves = defaultdict(int)
    for s in tracer.spans:
        if s[6] is not None:
            continue
        if s[1] == "cli.main":
            main[s[0]] = s[4] - s[3]
        elif s[1] == "bounds.bound_curve":
            curves[s[0]] += s[4] - s[3]
    return [(d - curves[op]) * 1e-9 for op, d in main.items()]


def per_layer(tracer: Tracer, pairs: list) -> dict:
    """name -> (value, unit)."""
    d = tracer.durations
    c = tracer.counts
    curve_spans = tracer.select("bounds.bound_curve")
    out = {
        "cli.figure_self_ms_p50": (p50(figure_self_s(tracer), 1e3), "ms"),
        "cli.rows": (c["cli.rows"], "count"),
        "cli.divergent_rows": (c["cli.divergent_rows"], "count"),
        "bounds.bound_curve_us_per_point": (
            p50([(s[4] - s[3]) * 1e-3 / s[5]["points"] for s in curve_spans]), "us"),
    }
    for system in SYSTEMS:
        out[f"bounds.bound_us_p50.{system}"] = (
            p50(d("bounds.bound", system=system), 1e6), "us")
    out.update({
        "bounds.anharm_length_us_p50": (p50(d("bounds.anharm_length"), 1e6), "us"),
        "bounds.length_ms_p50": (p50(d("bounds.length", path="simpson"), 1e3), "ms"),
        "matching.target_us_p50": (p50(d("matching.TargetSpec"), 1e6), "us"),
        "matching.match_us_p50": (p50(d("matching.match"), 1e6), "us"),
        "matching.divergent_frac": (
            c["matching.divergent"] / c["matching.attempts"]
            if c["matching.attempts"] else float("nan"), "ratio"),
        "euler_arnold.integrate_rk4_ms_p50": (
            p50(d("euler_arnold.integrate_rk4"), 1e3), "ms"),
        "euler_arnold.solve_numeric_ms_p50": (
            p50(d("euler_arnold.solve_numeric"), 1e3), "ms"),
        "euler_arnold.solve_closed_form_us_p50": (
            p50(d("euler_arnold.solve_closed_form"), 1e6), "us"),
        "euler_arnold.rk4_steps": (c["euler_arnold.rk4_steps"], "count"),
        "geodesic.leading_order_coeffs_us_p50": (
            p50(d("geodesic.leading_order_coeffs"), 1e6), "us"),
        "oracle.path_ordered_exponential_ms_p50": (
            p50(d("oracle.path_ordered_exponential"), 1e3), "ms"),
        "oracle.expm_calls": (c["oracle.expm_calls"], "count"),
        "oracle.fock_rep_ms_p50": (p50(d("oracle.fock_rep"), 1e3), "ms"),
        "oracle.closure_residual_ms_p50": (
            p50(d("oracle.commutator_closure_residual"), 1e3), "ms"),
        "algebra.builtin_us_p50": (p50(d("algebra.builtin"), 1e6), "us"),
        "algebra.validate_ms_p50": (p50(d("algebra.validate"), 1e3), "ms"),
    })
    for suite in ("algebra", "geodesic", "oracle"):
        out[f"verification.suite_{suite}_s"] = (
            p50(d("verification.run_suite", suite=suite)), "s")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (c[f"{layer}.errors"], "count")
    out["trace.overhead_frac"] = (overhead_frac(pairs), "ratio")
    return out


def sample_counts(tracer: Tracer) -> dict:
    """Spans per name, so each per-layer median can be read with its sample count."""
    n: dict = defaultdict(int)
    for s in tracer.spans:
        n[s[1]] += 1
    return dict(n)
