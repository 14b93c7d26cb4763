"""Every ``wellqc`` module imports on its own, first, in a fresh interpreter.

The package ``__init__`` files import nothing, so no import order is fixed
in advance; this catches an import cycle that shows only when a given module
is the first one imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(
    ".".join(p.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for p in (SRC / "wellqc").rglob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
