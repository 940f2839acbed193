import pytest

from saddlelab import linalg
from saddlelab.harness import OUTPUT_DIR_ENV


@pytest.fixture(autouse=True)
def _isolate_output_dir_env(monkeypatch):
    # the env override must never leak between tests
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


class FakeBlas:
    """A get/set pair over one thread count that records every set."""

    def __init__(self, count):
        self.count, self.sets = count, []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


@pytest.fixture
def fake_blas(monkeypatch):
    blas = FakeBlas(4)
    monkeypatch.setattr(linalg, "_openblas", lambda: (blas.get, blas.set))
    return blas


@pytest.fixture
def blas_readings(monkeypatch, fake_blas):
    """record(module, *names) wraps those functions bound in module and
    returns the list that gets fake_blas's thread count at each of their
    calls."""
    readings = []

    def record(module, *names):
        for name in names:
            def recording(*args, fn=getattr(module, name), **kwargs):
                readings.append(fake_blas.count)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, recording)
        return readings

    return record
