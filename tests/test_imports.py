"""The package's import graph: scipy.special is the only scipy it loads."""

import os
import pkgutil
import subprocess
import sys

import omrsim


def test_package_imports_no_scipy_stats_or_optimize():
    # the test oracles use scipy.stats and scipy.optimize; a fresh
    # interpreter shows what importing every omrsim module loads by itself
    mods = [f"omrsim.{m.name}" for m in pkgutil.iter_modules(omrsim.__path__)]
    src = os.path.dirname(os.path.dirname(omrsim.__file__))
    code = (f"import importlib, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            f"for m in {mods!r}: importlib.import_module(m)\n"
            f"print(sorted(m for m in sys.modules if m.startswith("
            f"('scipy.stats', 'scipy.optimize'))))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert len(mods) >= 9
    assert out.stdout.strip() == "[]"
