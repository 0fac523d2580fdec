"""The C kernel's one owner, ``qcbound._kernel``: how the library is built,
loaded and trusted, for each of the three byte checks that gate its entry
points (RK4 with its Hermite evaluator, the Magnus block, the CSV writer).

Without a usable library, or when a check fails, each caller's twin runs
with the same bytes, silently, and nothing is left in the cache.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qcbound as qb
from qcbound import _kernel, cli, oracle
from qcbound import euler_arnold as ea
from qcbound.euler_arnold import ClosedFormFamily, integrate_rk4

SRC = Path(__file__).resolve().parents[1] / "src"


def _twin(run):
    """``run()`` with no library, so that every twin runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "checked", lambda agrees: None)
        return run()


def _rk4():
    field = ClosedFormFamily("coupled_pq", q=1.0, p=10.0).governing_rhs()
    states = integrate_rk4(field, [0.4, -0.0, 1.3, -0.8], 1e-3)[1]
    sol = qb.solve_numeric(qb.builtin("coupled_M4"), qb.PenaltyMatrix.identity(4),
                           [0.4, -0.0, 1.3, -0.8])
    return states.tobytes() + sol(np.linspace(-0.1, 1.1, 61)).tobytes()


def _magnus():
    # a closed-form solution, so that only the Magnus block's check runs
    sol = qb.solve_closed_form(ClosedFormFamily("coupled_pq", q=1.0, p=10.0),
                               [0.3, -0.2, 0.5, 0.1])
    return qb.path_ordered_exponential(qb.matrix_rep("coupled_M4"), sol,
                                       steps=37).tobytes()


def _csv():
    grid = np.linspace(-3.0, 1e13, 7)
    value = np.array([0.5, np.inf, -0.0, 1.234567890125e12, np.nan, 2e-300, 7.0])
    curve = SimpleNamespace(value=value, branch=np.arange(7, dtype=np.int64) - 3)
    return cli._csv_text(grid, [("p=1", curve), ("p=2", curve)])[0].encode()


CHECKS = {"rk4": (ea, "_kernel_agrees", _rk4),
          "magnus": (oracle, "_magnus_agrees", _magnus),
          "csv": (cli, "_csv_agrees", _csv)}


@pytest.fixture
def fresh_process(monkeypatch, tmp_path):
    """No library loaded or checked yet, and the cache in an empty
    directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(_kernel, "tempfile", SimpleNamespace(
        gettempdir=lambda: str(tmp_path / "tmp")))
    caches = (_kernel._library, _kernel.checked)
    for cached in caches:
        cached.cache_clear()
    yield tmp_path
    for cached in caches:
        cached.cache_clear()


def _script(path, body):
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(0o755)
    return str(path)


def _no_compiler(mp, tmp):
    mp.setattr(_kernel, "_compiler", lambda: None)


def _failing_build(mp, tmp):
    cc = _script(tmp / "cc", "echo broken; exit 1")
    mp.setattr(_kernel, "_compiler", lambda: cc)


def _timed_out_build(mp, tmp):
    cc = _script(tmp / "cc", "exec sleep 30")
    mp.setattr(_kernel, "_compiler", lambda: cc)
    mp.setattr(_kernel, "_BUILD_TIMEOUT_S", 0.2)


def _unwritable_cache(mp, tmp):
    # both candidate directories lie under a regular file
    (tmp / "xdg").write_text("")
    (tmp / "tmp").write_text("")


def _foreign_cache(mp, tmp):
    # the directories this process makes belong to another user
    uid = os.getuid()
    mp.setattr(os, "getuid", lambda: uid + 1)


def _shared_cache(mp, tmp):
    # both candidate directories are writable by everyone
    for path in (tmp / "xdg" / "qcbound", tmp / "tmp" / f"qcbound-{os.getuid()}"):
        path.mkdir(parents=True)
        path.chmod(0o777)


def _failed_check(mp, tmp):
    # a library whose entry points return without writing anything
    mp.setattr(_kernel, "_library", lambda: SimpleNamespace(
        rk4_rows=lambda *args: args[7] + 1, hermite_at=lambda *args: None,
        magnus_block=lambda *args: 0, csv_rows=lambda *args: 0))


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("setup", [_no_compiler, _failing_build, _timed_out_build,
                                   _unwritable_cache, _foreign_cache, _shared_cache,
                                   _failed_check])
def test_without_a_usable_kernel_the_twin_runs(capfd, fresh_process, monkeypatch,
                                               setup, check):
    module, agrees, run = CHECKS[check]
    want = _twin(run)
    setup(monkeypatch, fresh_process)
    assert run() == want
    assert _kernel.checked(getattr(module, agrees)) is None
    assert capfd.readouterr() == ("", "")
    # a failed build leaves no file behind
    assert not list(fresh_process.glob("*/qcbound*/*"))


def test_the_magnus_check_does_not_wait_for_the_rk4_check(monkeypatch):
    # with the RK4 check failing, a real product still runs magnus_block
    if _kernel._library() is None:
        pytest.skip("no C kernel here (no compiler or no cache directory)")
    assert _kernel.checked(oracle._magnus_agrees) is not None
    monkeypatch.setattr(ea, "_kernel_agrees", lambda lib: False)
    blocks = []
    kernel_block = oracle._kernel_block
    monkeypatch.setattr(oracle, "_kernel_block",
                        lambda *args: blocks.append(args) or kernel_block(*args))
    sol = qb.solve_numeric(qb.builtin("sp4_T10"), qb.PenaltyMatrix.identity(10),
                           np.linspace(0.5, -0.4, 10))
    U = qb.path_ordered_exponential(qb.matrix_rep("sp4_T10"), sol, steps=400)
    assert _kernel.checked(ea._kernel_agrees) is None
    assert len(blocks) == 1
    assert U.tobytes() == _twin(
        lambda: qb.path_ordered_exponential(qb.matrix_rep("sp4_T10"), sol,
                                            steps=400)).tobytes()


def _run(code, *args, env=None, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(SRC), **(env or {})}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (args, proc.stderr)
    return proc


def test_a_process_loads_the_library_once(tmp_path):
    # the CSV writer's check and then the RK4 check share one load
    if _kernel._compiler() is None:
        pytest.skip("no C compiler on PATH")
    _run("""
import ctypes
loads = []
real = ctypes.CDLL
ctypes.CDLL = lambda *args, **kwargs: loads.append(args) or real(*args, **kwargs)
from qcbound import ClosedFormFamily, cli, integrate_rk4
assert cli.main(["figure", "fig2", "--t-steps", "5", "--out", "fig2.csv"]) == 0
integrate_rk4(ClosedFormFamily("sp2_J_equal_penalty").governing_rhs(),
              [0.3, -0.2, 0.5], 1e-3)
assert len(loads) == 1, loads
""", cwd=tmp_path)


def test_a_second_process_loads_the_cached_kernel_without_a_build(tmp_path):
    if _kernel._compiler() is None:
        pytest.skip("no C compiler on PATH")
    code = """
import sys
from qcbound import _kernel, euler_arnold as ea
cached = sys.argv[1] == "cached"
if cached:
    def no_build(*args):
        raise AssertionError("the compiler ran")
    _kernel._build = no_build
assert _kernel.checked(ea._kernel_agrees) is not None
# loading a cached kernel imports neither of them
assert not cached or not {"hashlib", "subprocess"} & set(sys.modules)
"""
    for run in ("first", "cached"):
        assert _run(code, run, env={"XDG_CACHE_HOME": str(tmp_path)}).stdout == ""
    built = list((tmp_path / "qcbound").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
    assert (tmp_path / "qcbound").stat().st_mode & 0o777 == 0o700
