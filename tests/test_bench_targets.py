import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from saddlebench.spans import TRACED

BENCH = Path(__file__).resolve().parent.parent / "saddlebench"

# (module, function, position, name) of each argument saddlebench/spans.py's
# EXTRACT reads off a traced call by its position
EXTRACTED_ARGS = (
    ("model", "hvp", 0, "spec"), ("model", "hvp", 2, "batch"),
    ("cncverify", "theorem1_report", 5, "settings"),
    ("spectral", "save_spectrum", 1, "csv_path"), ("spectral", "save_spectrum", 2, "json_path"),
    ("harness", "save_checkpoint", 1, "path"),
)


def _saddlelab_uses(source: str) -> set:
    """(module, name) for each name a source imports from a saddlelab module
    or reads off an imported one, also in the code strings it hands to fresh
    interpreters."""
    tree = ast.parse(source)
    modules, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "saddlelab":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("saddlelab."):
            uses.update((node.module.removeprefix("saddlelab."), a.name) for a in node.names)
        elif isinstance(node, ast.Constant) and "saddlelab" in str(node.value):
            try:
                uses |= _saddlelab_uses(node.value)
            except SyntaxError:  # prose, not code
                pass
    uses.update((modules[n.value.id], n.attr) for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in modules)
    return uses


BENCH_USES = sorted(set().union(*(_saddlelab_uses((BENCH / name).read_text())
                                  for name in ("run.py", "checks.py"))))


@pytest.mark.parametrize("module, function", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_exists(module, function):
    # the benchmark's tracer wraps these by name; a rename would otherwise
    # fail only the traced benchmark run
    assert callable(getattr(importlib.import_module(f"saddlelab.{module}"), function, None))


@pytest.mark.parametrize("module, function, position, name", EXTRACTED_ARGS,
                         ids=[f"{m}.{f}[{i}]" for m, f, i, _ in EXTRACTED_ARGS])
def test_extracted_argument_keeps_its_position(module, function, position, name):
    fn = getattr(importlib.import_module(f"saddlelab.{module}"), function)
    assert list(inspect.signature(fn).parameters)[position] == name


# (module, record, field) of each attribute the bench reads off a returned
# record, which the module-level scan below does not see
RECORD_FIELDS = (
    ("harness", "Checkpoint", "params"),  # checks.dense_hessian_check
    ("harness", "RunResult", "dataset"),  # run.py's self-test
)


@pytest.mark.parametrize("module, record, field", RECORD_FIELDS,
                         ids=[f"{m}.{r}.{f}" for m, r, f in RECORD_FIELDS])
def test_bench_record_field_exists(module, record, field):
    cls = getattr(importlib.import_module(f"saddlelab.{module}"), record)
    assert field in {f.name for f in dataclasses.fields(cls)}


def test_bench_uses_are_found():
    assert {("cli", "main"), ("harness", "OUTPUT_DIR_ENV"), ("model", "ParamVector"),
            ("datagen", "balanced_test_split")} <= set(BENCH_USES)


@pytest.mark.parametrize("module, name", BENCH_USES, ids=[f"{m}.{n}" for m, n in BENCH_USES])
def test_bench_use_exists(module, name):
    assert hasattr(importlib.import_module(f"saddlelab.{module}"), name)


@pytest.fixture
def bench_run(monkeypatch):
    """saddlebench/run.py as a module, with the harness its main() imports."""
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports checks and spans
    importlib.import_module("saddlelab.cli")  # the tracer wraps cli.cmd_train
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    run.harness = importlib.import_module("saddlelab.harness")
    return run


def test_bench_selftest_passes(tmp_path, bench_run):
    # the self-test checks a tiny traced run's outputs and pins its counts to
    # closed forms; without it here, a changed count fails only a traced bench run
    assert bench_run.selftest(importlib.import_module("spans").Tracer(), tmp_path) == []


@pytest.mark.parametrize("workload", ["w2_probe.json", "rho_sweep.json"])
def test_bench_setup_code_runs(bench_run, workload):
    # the set-up interpreter loads the workload's config and draws its data;
    # without it here, a break there fails only a bench run's set-up operations
    [(_, error)] = bench_run.measure_setup(bench_run.WORKLOAD_INPUTS / workload, 1)
    assert error is None
