"""Import guards: SciPy is loaded at run time only for the cubic length.

Each case runs in a fresh interpreter, since the test session itself has
SciPy loaded (it is the reference of other tests).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str, tmp_path) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_non_cubic_commands_load_no_scipy(tmp_path):
    # every system but the cubic oscillator, its flags at their defaults
    _run("""
import sys
from qcbound import _kernel, cli, euler_arnold, oracle
from qcbound.systems import ANHARM_CUBIC, SYSTEMS
checks = []
for module, name in ((euler_arnold, "_kernel_agrees"), (oracle, "_magnus_agrees"),
                     (cli, "_csv_agrees")):
    agrees = getattr(module, name)
    setattr(module, name, lambda lib, name=name, agrees=agrees:
            checks.append(name) or agrees(lib))
for spec in SYSTEMS.values():
    if spec is ANHARM_CUBIC:
        continue
    argv = ["bound", spec.tag]
    for f in spec.cli_flags:
        argv += [f.option, "3" if f.name == "t" else repr(f.default)]
    assert cli.main(argv) == 0, argv
# bound never loads the C library; figure loads it and runs the CSV
# writer's check alone; verify runs the RK4 and Magnus checks too
assert _kernel._library.cache_info().misses == 0
assert cli.main(["figure", "fig2", "--t-steps", "5", "--out", "fig2.csv"]) == 0
built = _kernel._library() is not None
assert checks == (["_csv_agrees"] if built else []), checks
assert cli.main(["verify", "all", "--out", "verify.json"]) == 0
assert sorted(checks) == (["_csv_agrees", "_kernel_agrees", "_magnus_agrees"]
                          if built else []), checks
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
""", tmp_path)


def test_cubic_bound_loads_scipy_special_only(tmp_path):
    _run("""
import sys
from qcbound import cli
assert cli.main(["bound", "anharm", "--lambda", "0.05", "--t", "1"]) == 0
assert "scipy.special" in sys.modules
heavy = [m for m in ("scipy.integrate", "scipy.linalg", "scipy.interpolate")
         if m in sys.modules]
assert not heavy, heavy
""", tmp_path)
