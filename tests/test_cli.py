"""Command-line interface: output format, exit codes, CSV determinism."""

import contextlib
import ctypes
import functools
import hashlib
import io
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcbound as qb
from qcbound import _kernel, cli
from qcbound.cli import main
from qcbound.systems import CLI_NAMES

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


@pytest.mark.parametrize("steps", [10 ** 11, 1_000_001])
def test_figure_rejects_more_than_a_million_grid_points(steps, tmp_path, capsys):
    # rejected before the grid is allocated (10**11 points used to end in a
    # MemoryError traceback from np.linspace)
    out = tmp_path / "f.csv"
    assert main(["figure", "fig2", "--t-steps", str(steps), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: need finite t_min < t_max and 2 <= t_steps <= 1000000\n")
    assert not out.exists()


def test_figure_refuses_a_grid_span_that_overflows(tmp_path, capsys):
    # t_max - t_min is inf: np.linspace used to warn twice (a traceback
    # under -W error) before the usage error
    out = tmp_path / "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["figure", "fig2", "--t-min", "-1e308", "--t-max", "1e308",
                     "--t-steps", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: need finite t_min < t_max and 2 <= t_steps <= 1000000\n")
    assert not out.exists()


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
        sp = abs(qb.reduce_periodic_signed((2.0 + 1.0) * t)[0])
        sm = abs(qb.reduce_periodic_signed((2.0 - 1.0) * t)[0])
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


def test_nan_figure_value_is_not_written_as_a_pole(monkeypatch, tmp_path, capsys):
    spec = qb.systems.SYSTEMS["anharm_cubic"]
    monkeypatch.setitem(qb.systems.SYSTEMS, "anharm_cubic",
                        spec._replace(measure=lambda p, v0: (v0[0] * math.nan, {})))
    out = tmp_path / "fig7.csv"
    assert main(["figure", "fig7", "--out", str(out), "--t-min", "0.5",
                 "--t-max", "1", "--t-steps", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.err == (f"error: nan bound at t=0.5: "
                            f"{qb.bounds.POSITIVITY_CAVEAT}\n")
    assert captured.out == ""
    assert not out.exists()


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


@functools.cache
def _built_writer():
    """The C library as built, without the check that gates its CSV
    writer, or None where none can be built (no compiler or no cache)."""
    return _kernel._library()


def _csv_texts(grid, curves):
    """``cli._csv_text`` from the C writer (the twin where none is built)
    and from the twin."""
    texts = []
    for kernel in (_built_writer(), None):
        with mock.patch.object(_kernel, "checked", lambda agrees, kernel=kernel: kernel):
            texts.append(cli._csv_text(grid, curves))
    return texts


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
    assert _csv_texts(grid, curves) == [reference_csv(grid, curves)] * 2


def test_bulk_csv_writer_on_two_point_grid_with_divergent_rows():
    grid = np.array([2 * PI, 6 * PI])
    curves = [("%,", qb.bound_curve(qb.TargetSpec.ho_linear(1.0, 0.3, 0.0), grid)),
              ("x", qb.bound_curve(qb.TargetSpec.ho(1.0, 0.0), grid))]
    text, rows = cli._csv_text(grid, curves)
    assert (text, rows) == reference_csv(grid, curves)
    assert text.splitlines()[1:3] == ["6.28318530718,,1,1,%,",
                                      "18.8495559215,,2,1,%,"]


# (2 m + 1) / 2^j is an exact tie of 12-digit rounding when its 13
# significant digits, those of 5^j (2 m + 1), end in 5
_TIES = st.one_of(
    st.integers(1, 18).flatmap(
        lambda j: st.integers(-(-10 ** 12 // 5 ** j), (10 ** 13 - 1) // 5 ** j)
        .map(lambda m: (m | 1) / 2 ** j)),
    st.integers(10 ** 11, 10 ** 12 - 1).map(lambda a: float(10 * a + 5)),
)
# 10^k and its neighbours up to 3 ulps away: the edges of the writer's
# exact integer path, of the fixed notation, and of a rounding to 10^12
_DECADES = st.builds(
    lambda k, steps: functools.reduce(
        lambda x, _: math.nextafter(x, math.copysign(math.inf, steps)),
        range(abs(steps)), float(f"1e{k}")),
    st.integers(-330, 308), st.integers(-3, 3))
_CSV_NUMBERS = st.one_of(
    st.floats(),                  # every double, +-0.0, inf and nan among them
    st.builds(math.copysign, st.one_of(_TIES, _DECADES), st.sampled_from([1, -1])),
)


@pytest.mark.skipif(_built_writer() is None, reason="no C library here")
@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_CSV_NUMBERS, _CSV_NUMBERS,
                               st.integers(-2 ** 63, 2 ** 63 - 1)),
                     min_size=1, max_size=30),
       labels=st.lists(st.text(), min_size=1, max_size=3))
@example(rows=[(1234567890125.0, 12345678901.25, -2 ** 63),
               (-0.0, math.nan, 2 ** 62), (5e-324, math.inf, -2 ** 62),
               (1.797e308, -math.inf, 2 ** 63 - 1), (1e-300, 999999999999.5, 0)],
         labels=["p=5%", "a,b%d"])
def test_c_writer_writes_the_twins_text(rows, labels):
    grid, value, branch = (np.array(column) for column in zip(*rows))
    branch = branch.astype(np.int64)
    for label in labels:
        suffix = f",{label}"
        assert (cli._kernel_rows(_built_writer(), grid, value, branch, suffix)
                == cli._twin_rows(grid, value, branch, suffix))
    curves = [(label, SimpleNamespace(value=value, branch=branch))
              for label in labels]
    assert _csv_texts(grid, curves) == [reference_csv(grid, curves)] * 2


def test_rows_the_writer_declines_come_from_the_twin():
    # csv_rows returns -1 where the C library's text is not Python's (a
    # locale's decimal point): that curve's rows come from the twin
    grid = np.array([0.0, 1.5e-300])
    curves = [("", SimpleNamespace(value=2 * grid, branch=np.zeros(2, dtype=np.int64)))]
    declining = SimpleNamespace(csv_rows=lambda *args: -1)
    with mock.patch.object(_kernel, "checked", lambda agrees: declining):
        assert cli._csv_text(grid, curves) == reference_csv(grid, curves)


@pytest.fixture
def unloaded_writer():
    """No library loaded or checked in this process yet, nor after the test."""
    caches = (_kernel._library, _kernel.checked)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def test_a_writer_that_rounds_ties_up_is_refused(unloaded_writer, monkeypatch,
                                                 tmp_path):
    # the C library as built, but with a tie of the check's corpus rounded
    # half up: it is refused, and the twin writes the figure
    writer = _built_writer()
    if writer is None:
        pytest.skip("no C library here")

    def half_up(n, t, value, branch, suffix, size, out):
        written = writer.csv_rows(n, t, value, branch, suffix, size, out)
        text = ctypes.string_at(out, written).replace(b"1.23456789012e+12",
                                                      b"1.23456789013e+12")
        ctypes.memmove(out, text, len(text))
        return written

    assert cli._csv_agrees(writer)
    monkeypatch.setattr(_kernel, "_library", lambda: SimpleNamespace(csv_rows=half_up))
    twin_calls = []
    twin = cli._twin_rows
    monkeypatch.setattr(cli, "_twin_rows",
                        lambda *args: twin_calls.append(args) or twin(*args))
    assert _kernel.checked(cli._csv_agrees) is None
    out = tmp_path / "fig2.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["figure", "fig2", "--out", str(out)]) == 0
    assert len(twin_calls) == 2           # the check's and the figure's
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPECTED_SHA256["fig2"]


def test_without_a_c_library_the_twin_writes_the_figure(unloaded_writer,
                                                        monkeypatch, tmp_path):
    monkeypatch.setattr(_kernel, "_compiler", lambda: None)
    assert _kernel.checked(cli._csv_agrees) is None
    out = tmp_path / "fig5.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["figure", "fig5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPECTED_SHA256["fig5"]


@pytest.mark.parametrize("argv", [
    ["bound", "coupled", "--mu", "1e200", "--t", "0"],
    ["bound", "iho", "--Omega", "1e160", "--t", "1e160"],
    ["bound", "ho_linear", "--lambda", "1e300", "--t", "1e10"],
    ["bound", "displacement", "--re", "1e308", "--im", "1e308"],
    # |alpha| itself overflows: abs() of the complex raises OverflowError
    ["bound", "displacement", "--re", "1.7e308", "--im", "1.7e308"],
    ["figure", "fig6", "--mu-values", "1e200", "--t-min", "0", "--t-max", "1",
     "--t-steps", "3"],
    ["bound", "anharm", "--t", "1", "--lambda", "1e200"],
    # C overflows to -inf, so sqrt(B^2 + C^2) is inf too: an overflow, not a
    # failed positivity guard
    ["bound", "anharm", "--omega", "1", "--lambda", "0.1", "--t", "1",
     "--p", "1e308"],
    ["figure", "fig7", "--lambda", "1e200", "--t-min", "0.5", "--t-max", "1",
     "--t-steps", "3"],
    ["bound", "ho", "--omega", "1e300", "--t", "1e300"],    # omega * t
    ["figure", "fig2", "--omega", "1e300", "--t-min", "1e9", "--t-max", "1e10",
     "--t-steps", "3"],
])
def test_overflowing_intermediate_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "f.csv"
    extra = ["--out", str(out)] if argv[0] == "figure" else []
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: arithmetic overflow")
    assert captured.out == ""
    assert not out.exists()


# a flag value: an edge of the float range, a non-finite value, or an
# ordinary one; each flag is given as --flag=value, so a negative value is
# not read as an option
_FLAG_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e308, 1.7e308, -1.7e308, math.inf,
                     -math.inf, math.nan]),
    st.floats(-3.0, 3.0))


@st.composite
def _bound_argvs(draw):
    """``bound <name>`` with each of the system's flags omitted or drawn from
    ``_FLAG_VALUES``."""
    name = draw(st.sampled_from(list(CLI_NAMES)))
    argv = ["bound", name]
    for flag in CLI_NAMES[name].cli_flags:
        value = draw(st.none() | _FLAG_VALUES)
        if value is not None:
            argv.append(f"{flag.option}={value!r}")
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_bound_argvs())
@example(argv=["bound", "displacement", "--re=1.7e+308", "--im=-1.7e+308"])
def test_no_bound_argv_ends_in_a_traceback(argv):
    # the command exits 0, 2 or 3, and no numpy warning marks a silent
    # overflow or invalid value on the way
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())


@pytest.mark.parametrize("argv,flags", [
    (["figure", "fig2", "--lambda", "0.3", "--mu", "5"], "--lambda, --mu"),
    (["figure", "fig5", "--mu-values", "1,2", "--p", "7"], "--p, --mu-values"),
])
def test_figure_names_every_unused_flag(argv, flags, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err == f"error: {argv[1]} does not take {flags}\n"


@pytest.mark.parametrize("name", list(cli._FIGURES))
def test_figure_rejects_flags_it_does_not_take(name, tmp_path, capsys):
    spec, _, sweep, _ = cli._FIGURES[name]
    swept = sweep[0] if sweep else None
    taken = {p.name for p in spec.params} - {"t", swept}
    sweep_lists = [f"--{s[0]}-values" for _, _, s, _ in cli._FIGURES.values() if s]
    out = tmp_path / "f.csv"
    rejected = [o for o, f in cli._FIGURE_OPTIONS.items() if f.name not in taken]
    rejected += [o for o in sweep_lists if o != f"--{swept}-values"]
    assert rejected
    for option in rejected:
        assert main(["figure", name, "--out", str(out), option, "1"]) == 2, option
        assert capsys.readouterr().err == f"error: {name} does not take {option}\n"
    assert not out.exists()
    accepted = [a for o, f in cli._FIGURE_OPTIONS.items() if f.name in taken
                for a in (o, repr(float(f.default)))]
    if swept is not None:
        accepted += [f"--{swept}-values", "1,2"]
    assert main(["figure", name, "--out", str(out), "--t-steps", "3"] + accepted) == 0
