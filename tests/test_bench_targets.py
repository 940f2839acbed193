import importlib

import pytest

from saddlebench.spans import TRACED


@pytest.mark.parametrize("module, function", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_exists(module, function):
    # the benchmark's tracer wraps these by name; a rename would otherwise
    # fail only the traced benchmark run
    assert callable(getattr(importlib.import_module(f"saddlelab.{module}"), function, None))
