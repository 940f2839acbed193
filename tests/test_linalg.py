import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from saddlelab import linalg
from saddlelab.errors import ParameterError
from saddlelab.linalg import (
    SeededRng,
    blas_threads,
    csv_cell,
    csv_lines,
    write_json,
    write_text,
)


def test_distinct_streams_differ():
    a = SeededRng(42, 0).normal(size=32)
    b = SeededRng(42, 1).normal(size=32)
    assert not np.array_equal(a, b)


def test_pinned_philox_vectors():
    # frozen regression vectors; a numpy upgrade that breaks bit-stream
    # stability would trip these
    v = SeededRng(12345, 7).normal(size=4)
    assert v.tolist() == [
        -0.16609734794103043,
        1.0505799526112878,
        1.0975804094733415,
        -0.3901168994783908,
    ]
    assert SeededRng(0, 0).normal(size=3).tolist() == [
        0.15929546600623282,
        -1.7741885208017214,
        1.3265118818830892,
    ]
    assert SeededRng(1, 2).permutation(6).tolist() == [5, 0, 4, 2, 3, 1]


def test_child_streams_are_deterministic_and_distinct():
    a = SeededRng(7).child("batches")
    b = SeededRng(7).child("batches")
    c = SeededRng(7).child("noise")
    assert np.array_equal(a.normal(size=8), b.normal(size=8))
    assert not np.array_equal(SeededRng(7).child("batches").normal(size=8),
                              c.normal(size=8))


@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(math.inf)
@example(-math.inf)
@example(1.7976931348623157e308)
@given(st.floats(allow_nan=False))
def test_csv_cell_round_trips_every_float64_bitwise(x):
    for value in (x, np.float64(x)):
        assert np.float64(float(csv_cell(value))).tobytes() == np.float64(x).tobytes()


def test_csv_cell_keeps_nan_none_and_bool():
    assert math.isnan(float(csv_cell(math.nan)))
    assert math.isnan(float(csv_cell(np.float64("nan"))))
    assert csv_cell(None) == ""
    assert (csv_cell(True), csv_cell(False)) == ("1", "0")
    assert csv_cell(7) == "7"


@given(st.text())
def test_csv_text_cell_never_splits_a_row(text):
    cell = csv_cell(text)
    assert "," not in cell and "\n" not in cell


def test_csv_lines_joins_cells():
    assert list(csv_lines([("a", "b"), (0.5, None, True, "x,\ny")])) == \
        ["a,b\n", "0.5,,1,x; y\n"]


@pytest.mark.parametrize("indent", [None, 1])
def test_write_json_matches_json_dump(tmp_path, indent):
    obj = {"b": [1.5, None, True, -0.0, 5e-324], "a": {"z": "text", "y": []}}
    path = tmp_path / "obj.json"
    write_json(path, obj, indent=indent)
    with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=indent, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_write_text_interrupted_keeps_old_bytes(tmp_path):
    path = tmp_path / "artifact.csv"
    path.write_bytes(b"old,bytes\n")

    def chunks():
        yield "new,"
        yield "half"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_text(path, chunks())
    assert path.read_bytes() == b"old,bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.csv"]


def test_write_text_error_names_the_path_asked_for(tmp_path):
    # the temp file is an implementation detail: the error names the target,
    # and the temp file is gone
    target = tmp_path / "adir"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write_text(target, ["a,b\n"])
    assert repr(str(target)) in str(info.value) and ".tmp" not in str(info.value)
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_seed_outside_64_bits_is_rejected(seed):
    # masking it would alias another seed's streams
    with pytest.raises(ParameterError, match="seed"):
        SeededRng(seed)


def test_blas_threads_restores_the_count_in_force_before(fake_blas):
    fake_blas.count = 3
    with blas_threads():
        assert fake_blas.count == 1
    assert fake_blas.count == 3
    with pytest.raises(KeyError), blas_threads():
        assert fake_blas.count == 1
        raise KeyError("inside the block")
    assert fake_blas.count == 3
    assert fake_blas.sets == [1, 3, 1, 3]


def test_without_openblas_the_block_only_runs(monkeypatch):
    maps = "7f00-7f01 r-xp 00000000 00:00 0 /usr/lib/libm.so.6\n"
    monkeypatch.setattr(linalg, "open", lambda *a, **k: io.StringIO(maps), raising=False)
    assert linalg._openblas.__wrapped__() is None
    monkeypatch.setattr(linalg, "_openblas", lambda: None)
    ran = []
    with blas_threads():
        ran.append(True)
    assert ran == [True]


def test_blas_threads_sets_numpys_openblas():
    blas = linalg._openblas()
    if blas is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, _ = blas
    before = get()
    with blas_threads():
        assert get() == 1
    assert get() == before
