"""Command-line interface: output format, exit codes, CSV determinism."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcbound as qb
from qcbound import cli
from qcbound.cli import main

PI = math.pi
EXPECTED_SHA256 = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "expected.json").read_text()
)["figure_sha256"]


def test_bound_ho_prints_twelve_significant_digits(capsys):
    code = main(["bound", "ho", "--omega", "1", "--t", "3.14159265"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "3.14159265"


def test_bound_iho(capsys):
    code = main(["bound", "iho", "--Omega", "2", "--t", "3"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "6"


def test_bound_zero_time(capsys):
    code = main(["bound", "ho", "--omega", "1", "--t", "0"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "0"


def test_bound_divergent_exit_code(capsys):
    code = main(["bound", "ho_linear", "--omega", "1", "--lambda", "0.3",
                 "--t", repr(2 * PI)])
    out = capsys.readouterr().out
    assert code == 3
    assert out.startswith("inf ")


def test_bound_displacement_reports_alternate(capsys):
    code = main(["bound", "displacement", "--re", "1", "--im", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "1.41421356237"
    assert "product-form alternate value: 2" in out


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["bound", "unknown_system", "--t", "1"])
    assert err.value.code == 2


def test_invalid_parameter_exits_two(capsys):
    code = main(["bound", "ho", "--omega", "-1", "--t", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_figure_exits_two(capsys):
    code = main(["figure", "fig99"])
    assert code == 2


def test_figure_grid_validation(capsys):
    code = main(["figure", "fig2", "--t-min", "2", "--t-max", "1"])
    assert code == 2


def test_fig2_csv_structure_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["figure", "fig2", "--out", str(out1)]) == 0
    assert main(["figure", "fig2", "--out", str(out2)]) == 0
    data1 = out1.read_bytes()
    assert data1 == out2.read_bytes()
    assert b"\r" not in data1

    lines = data1.decode().splitlines()
    assert lines[0] == "t,value,branch,divergent"
    rows = [ln.split(",") for ln in lines[1:]]
    ts = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    # sawtooth zeros at multiples of 4 pi
    for n in (0, 1, 2):
        k = int(np.argmin(np.abs(ts - 4 * PI * n)))
        assert vals[k] <= 1e-9
    assert np.max(vals) <= 2 * PI + 1e-9


def test_fig3_has_gap_rows(tmp_path):
    out = tmp_path / "fig3.csv"
    # grid that hits the pole at t = 2 pi exactly
    assert main(["figure", "fig3", "--out", str(out),
                 "--t-min", "0", "--t-max", repr(4 * PI), "--t-steps", "5"]) == 0
    lines = out.read_text().splitlines()
    gap = [ln for ln in lines[1:] if ln.split(",")[3] == "1"]
    assert len(gap) == 1
    t_gap = float(gap[0].split(",")[0])
    assert t_gap == pytest.approx(2 * PI, rel=1e-12)
    assert gap[0].split(",")[1] == ""


def test_fig5_series_sweep(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main(["figure", "fig5", "--out", str(out),
                 "--t-steps", "11"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value,branch,divergent,series"
    series = {ln.rsplit(",", 1)[1] for ln in lines[1:]}
    assert series == {"p=1", "p=5", "p=10", "p=100"}


def test_fig6_zero_coupling_series_matches_uncoupled_formula(tmp_path):
    out = tmp_path / "fig6.csv"
    assert main(["figure", "fig6", "--out", str(out), "--mu-values", "0",
                 "--t-min", "0", "--t-max", "2", "--t-steps", "5"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value,branch,divergent"
    for ln in lines[1:]:
        t, val = float(ln.split(",")[0]), float(ln.split(",")[1])
        sp = qb.reduce_periodic((2.0 + 1.0) * t, 4 * PI)
        sm = qb.reduce_periodic((2.0 - 1.0) * t, 4 * PI)
        assert val == pytest.approx(math.sqrt(0.5 * (sp ** 2 + sm ** 2)),
                                    abs=1e-9)


def test_fig7_emits_finite_curve_away_from_poles(tmp_path):
    out = tmp_path / "fig7.csv"
    assert main(["figure", "fig7", "--out", str(out),
                 "--t-min", "0.1", "--t-max", "2.0", "--t-steps", "20"]) == 0
    lines = out.read_text().splitlines()
    assert all(ln.split(",")[3] == "0" for ln in lines[1:])


def test_verify_algebra_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "algebra", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "algebra"
    assert all(set(c) == {"name", "residual", "threshold", "margin", "pass"}
               for c in report["checks"])
    assert all(c["pass"] for c in report["checks"])


def test_verify_all_reports_threshold_and_margin(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks
    for c in checks:
        assert c["margin"] == c["threshold"] - c["residual"]
        assert c["pass"] == (c["margin"] >= 0)


def test_verify_all_is_deterministic_in_one_process():
    # the second run reuses the compiled RK4 steps the first one built
    assert qb.run_suite("all") == qb.run_suite("all")


@pytest.mark.parametrize("argv", [
    ["bound", "ho", "--t", "inf"],
    ["bound", "displacement", "--re", "nan"],
    ["figure", "fig2", "--t-max", "inf"],
])
def test_non_finite_input_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err


def test_reduction_without_digits_is_a_usage_error(capsys):
    assert main(["bound", "ho", "--t", "1e17"]) == 2
    assert "period" in capsys.readouterr().err
    assert main(["figure", "fig2", "--t-max", "1e17"]) == 2
    assert "period" in capsys.readouterr().err


def test_figure_accepts_negative_exponent_notation(tmp_path, capsys):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    lam = "-8.598686419669654e-05"
    assert main(["figure", "fig4", "--lambda", lam, "--out", str(spaced)]) == 0
    assert main(["figure", "fig4", f"--lambda={lam}", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


def test_bound_accepts_negative_exponent_notation(capsys):
    assert main(["bound", "anharm", "--lambda", "-5e-02", "--t", "1",
                 "--p", "100"]) == 0
    spaced = capsys.readouterr().out
    assert main(["bound", "anharm", "--lambda=-0.05", "--t", "1",
                 "--p", "100"]) == 0
    assert spaced == capsys.readouterr().out


def test_figure_warns_about_lost_reduction_digits(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "fig2", "--out", str(out), "--t-min", "1e5",
                 "--t-max", "1.0001e5", "--t-steps", "3"]) == 0
    assert "warning: precision:" in capsys.readouterr().err


def test_nan_bound_never_exits_zero(monkeypatch, capsys):
    nan_result = qb.BoundResult(
        value=math.nan, formula_id="anharm_elliptic",
        caveats=[qb.bounds.STANDARD_CAVEAT, qb.bounds.POSITIVITY_CAVEAT])
    monkeypatch.setattr("qcbound.cli.bound", lambda target: nan_result)
    assert main(["bound", "anharm", "--t", "1"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"nan {qb.bounds.POSITIVITY_CAVEAT}"
    assert f"# {qb.bounds.POSITIVITY_CAVEAT}" in out


def test_algebra_export(capsys):
    code = main(["algebra", "export", "ho4"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == ["E", "P", "Q", "H"]
    entries = [list(e) for e in data["entries"]]
    assert [1, 2, 0, -1.0] in entries          # [P, Q] = -i E, upper triangle
    assert all(i < j for i, j, _, _ in entries)


def test_algebra_export_unknown(capsys):
    code = main(["algebra", "export", "nope"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["figure", "fig2"],
    ["verify", "algebra"],
    ["algebra", "export", "ho4"],
])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["figure", "fig5", "--p-values", ","],
    ["figure", "fig5", "--p-values", " , "],
    ["figure", "fig6", "--mu-values", ","],
])
def test_empty_sweep_list_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: {argv[2]} needs at least one value" in capsys.readouterr().err
    assert not out.exists()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    def sha256(name):
        out = tmp_path / f"{name}.csv"
        assert main(["figure", name, "--out", str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    assert main(["figure", "fig5", "--p-values", "2,3", "--t-steps", "11",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    with pytest.raises(SystemExit) as err:
        main(["figure"])
    assert err.value.code == 2
    assert main(["bound", "ho", "--t", "1"]) == 0
    assert sha256("fig5") == EXPECTED_SHA256["fig5"]
    assert sha256("fig2") == EXPECTED_SHA256["fig2"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == qb.__version__


def test_build_parser_returns_a_fresh_parser():
    parser = cli.build_parser()
    parser.set_defaults(func=None)
    assert cli.build_parser() is not parser
    assert main(["bound", "ho", "--t", "1"]) == 0


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def reference_csv(grid, curves):
    """The per-row writer that ``cli._csv_text`` replaced, kept verbatim."""
    multi = len(curves) > 1
    lines = ["t,value,branch,divergent" + (",series" if multi else "")]
    t_text = [_fmt(t) for t in grid.tolist()]
    for label, curve in curves:
        suffix = f",{label}" if multi else ""
        good = np.isfinite(curve.value).tolist()
        lines += [
            f"{t},{_fmt(v) if ok else ''},{b},{0 if ok else 1}{suffix}"
            for t, v, b, ok in zip(t_text, curve.value.tolist(),
                                   curve.branch.tolist(), good)
        ]
    return "\n".join(lines) + "\n", len(lines) - 1


def _with_poles(target, n_max=3):
    """The target and its documented pole times (ho_linear, ho_quadratic)."""
    p = target.params
    if target.system == "ho_linear":          # omega t = 2 pi (mod 4 pi)
        poles = [(2 * PI + 4 * PI * n) / p["omega"] for n in range(-n_max, n_max)]
    elif target.system == "ho_quadratic":     # v3 = n pi / 2
        poles = [n * PI / (2 * (p["omega"] + p["lam"]))
                 for n in range(-n_max, n_max + 1) if n]
    else:
        poles = []
    return target, poles


_FIGURE_TARGETS = st.one_of(
    st.builds(qb.TargetSpec.ho_linear, st.floats(0.2, 3.0), st.floats(-1.0, 1.0),
              st.just(0.0)),
    st.builds(qb.TargetSpec.ho_quadratic, st.floats(0.6, 3.0),
              st.floats(-0.5, 0.5), st.just(0.0)),
    st.builds(lambda mu, p: qb.TargetSpec.coupled(2.0, 1.0, mu, 0.0, q=1.0, p=p),
              st.floats(0.0, 3.0), st.floats(1.0, 100.0)),
    st.builds(qb.TargetSpec.ho, st.floats(0.1, 5.0), st.just(0.0)),
).map(_with_poles)

_GRID_POINTS = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310, 1e-300, 123456.789, 1e15]),
)


@settings(max_examples=150, deadline=None)
@given(targets=st.lists(_FIGURE_TARGETS, min_size=1, max_size=4),
       points=st.lists(_GRID_POINTS, min_size=0, max_size=40),
       labels=st.lists(st.text(max_size=8), min_size=4, max_size=4))
@example(targets=[_with_poles(qb.TargetSpec.ho_linear(1.0, 0.3, 0.0)),
                  _with_poles(qb.TargetSpec.ho_quadratic(1.0, 0.2, 0.0))],
         points=[-0.0, 5e-324], labels=["p=5%", "a,b", "%d", "%%s,"])
def test_bulk_csv_writer_matches_per_row_reference(targets, points, labels):
    poles = [t for _, ts in targets for t in ts]
    grid = np.sort(np.array(points + poles + [0.0, 1.0]))
    curves = [(label, qb.bound_curve(target, grid))
              for label, (target, _) in zip(labels, targets)]
    assert cli._csv_text(grid, curves) == reference_csv(grid, curves)


def test_bulk_csv_writer_on_two_point_grid_with_divergent_rows():
    grid = np.array([2 * PI, 6 * PI])
    curves = [("%,", qb.bound_curve(qb.TargetSpec.ho_linear(1.0, 0.3, 0.0), grid)),
              ("x", qb.bound_curve(qb.TargetSpec.ho(1.0, 0.0), grid))]
    text, rows = cli._csv_text(grid, curves)
    assert (text, rows) == reference_csv(grid, curves)
    assert text.splitlines()[1:3] == ["6.28318530718,,1,1,%,",
                                      "18.8495559215,,2,1,%,"]
