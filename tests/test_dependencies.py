"""saddlelab needs numpy and nothing else: the dependencies pyproject.toml
declares are the third-party modules the package imports, and nothing it
runs loads scipy (whose import alone costs about half a cold start).
Importing it looks up no BLAS library, changes no BLAS thread count, loads
no thread pool and starts no thread."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "saddlelab"

# every module, `python -m saddlelab.cli --help` and one small density on two
# threads, then the scipy modules loaded, as the last stdout line; the
# OpenBLAS thread count read before and after the imports and --help must be
# the same, neither concurrent.futures nor logging (which the density's pool
# loads) may be imported yet, and only the main thread may run, before the
# density and after it
CHILD = """
import ctypes, importlib, json, pkgutil, runpy, sys, threading, types
import numpy as np

def blas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None

threads = blas_threads()
sys.argv = ["saddlelab", "--help"]
try:
    runpy.run_module("saddlelab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
import saddlelab
for info in pkgutil.iter_modules(saddlelab.__path__):
    importlib.import_module("saddlelab." + info.name)
assert blas_threads() == threads, (threads, blas_threads())
assert saddlelab.linalg._openblas.cache_info().currsize == 0, "OpenBLAS looked up at import"
assert threading.enumerate() == [threading.main_thread()], threading.enumerate()
loaded = {"concurrent.futures", "logging"} & set(sys.modules)
assert not loaded, loaded
from saddlelab.linalg import SeededRng
from saddlelab.spectral import SpectralSettings, spectral_density
a = np.diag(np.arange(-3.0, 7.0))
oracle = types.SimpleNamespace(apply=a.__matmul__, dim=a.shape[0])
density = spectral_density(oracle, SpectralSettings(lanczos_iters=6, num_probes=2),
                           SeededRng(0), workers=2)
mass = np.trapezoid(density.density, density.grid)
assert abs(mass - 1.0) < 1e-3, mass
assert threading.enumerate() == [threading.main_thread()], threading.enumerate()
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_nothing_saddlelab_runs_loads_scipy():
    # the child imports saddlelab from wherever this process does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "usage: saddlelab" in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def third_party_imports() -> set:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"saddlelab"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", dep).group(0).lower() for dep in project["dependencies"]}
    assert third_party_imports() == declared == {"numpy"}
