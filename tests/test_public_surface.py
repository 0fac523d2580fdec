"""The public surface: every exported name resolves, and the README's library
sketch runs as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qcbound

README = Path(__file__).parents[1] / "README.md"
MODULES = ["qcbound"] + [f"qcbound.{m.name}"
                         for m in pkgutil.iter_modules(qcbound.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_readme_library_sketch_runs():
    text = README.read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    assert sketch is not None
    exec(compile(sketch.group(1), "README.md library sketch", "exec"), {})
